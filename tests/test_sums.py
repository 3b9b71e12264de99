"""Character sums: direct evaluation, blockwise reduction, bound sweeps."""

import math
import random

import numpy as np
import pytest
from test_heiwei import FORM_CASES, weil_op_by_factorization, wigner
from test_spectra import character_values
from test_symp import gfq_vectors

from weilrep.gfq import FieldCtx
from weilrep import sums
from weilrep.heiwei import WeilRep, prime_coords, torus_character_forms
from weilrep.spectra import decompose, torus_characters, trace_multiplicities, weil_traces
from weilrep.sums import (
    admissible_mask,
    bound_report,
    c_chi_reduced,
    c_chi_table,
    default_vector_range,
    orbit_spans_space,
)
from weilrep.symp import SympSpace, build_maximal_torus, module_structure


def setup(p, N, kind):
    sp = SympSpace(FieldCtx(p), N)
    return sp, build_maximal_torus(sp, kind)


def kind_id(val):
    """Test id of a torus kind: its blocks joined by '+'."""
    if isinstance(val, list):
        return "+".join(k if isinstance(k, str) else f"{k[0]}{k[1]}" for k in val)
    return None


def all_nonzero_vectors(sp):
    return gfq_vectors(sp.ctx, sp.dim)[1:]


def test_sum_over_characters_vanishes():
    """sum over chi of c_chi(v) = 0 for v != 0: character orthogonality
    collapses the torus sum to the excluded identity."""
    for kind in (["split"], ["inert"]):
        sp, torus = setup(7, 1, kind)
        vs = list(all_nonzero_vectors(sp))
        table = c_chi_table(sp, torus, vs)
        sums = table.sum(axis=0)
        assert np.max(np.abs(sums)) < 1e-9


def test_c_chi_equals_torus_times_wigner():
    """c_chi = |T| <phi| pi(v) phi> on one-dimensional character spaces."""
    sp, torus = setup(5, 1, ["inert"])
    rep = WeilRep(sp)
    dec = decompose(rep, torus)
    vs = list(all_nonzero_vectors(sp))
    table = c_chi_table(sp, torus, vs)
    for ci, (m, B) in enumerate(zip(dec.multiplicities, dec.bases)):
        if m != 1:
            continue
        phi = B[:, 0]
        for vi, v in enumerate(vs):
            w = wigner(rep, phi, v)
            assert abs(table[ci, vi] - torus.order * w) < 1e-8


def test_two_dimensional_bound_exhaustive_f7():
    sp_split, torus_split = setup(7, 1, ["split"])
    sp_inert, torus_inert = setup(7, 1, ["inert"])
    for sp, torus in ((sp_split, torus_split), (sp_inert, torus_inert)):
        rpt = bound_report(sp, torus)
        assert rpt.max_ratio <= 1 + 1e-12
        assert rpt.rows
    # the split torus excludes its eigenvectors
    rpt = bound_report(sp_split, torus_split)
    assert len(rpt.excluded)


def test_eigenvector_exclusion_is_necessary():
    """On a split-torus eigenvector the sum exceeds 2 sqrt(q): the
    admissibility condition in the bound is not vacuous."""
    sp, torus = setup(11, 1, ["split"])
    ctx = sp.ctx
    v = (ctx.one, ctx.zero)  # eigenvector of the diagonal torus
    assert not orbit_spans_space(sp, torus, v)
    table = c_chi_table(sp, torus, [v])
    best = np.max(np.abs(table))
    assert best > 2 * math.sqrt(11) + 1e-9


SP4_KINDS = (
    ["split", "split"],
    ["split", "inert"],
    ["inert", "inert"],
    [("split", 2)],
    ["irreducible2"],
)


@pytest.mark.parametrize(
    "p,m,N,kind",
    [(p, m, 1, kind) for p, m in ((5, 1), (7, 1), (3, 2)) for kind in (["split"], ["inert"])]
    + [(p, 1, 2, kind) for p in (3, 5) for kind in SP4_KINDS],
    ids=kind_id,
)
def test_admissible_mask_matches_orbit_span_oracle(p, m, N, kind):
    """The idempotent mask against the exact orbit rank on every nonzero
    vector, given as a tuple over GF(q) and, over GF(9), as its F_p
    coordinate row too.  Over GF(3) the split blocks of split+split and
    split+inert have torus order 2 (the element -1), so no orbit spans V."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    vs = list(all_nonzero_vectors(sp))
    mask = admissible_mask(torus, prime_coords(vs))
    assert mask.tolist() == [orbit_spans_space(sp, torus, v) for v in vs]
    if m > 1:
        # the oracle reads an F_p coordinate row as it reads a tuple
        assert mask.tolist() == [orbit_spans_space(sp, torus, c) for c in prime_coords(vs)]
    if (p, N) == (3, 2) and kind[0] == "split" and len(kind) == 2:
        assert not mask.any()
    else:
        assert mask.any()


def test_c_chi_table_is_exact_at_inadmissible_vectors():
    """split+split has elements that are the identity on one block.  At
    every inadmissible vector of it, and at v = 0, the table equals
    sum over g of conj(chi(g)) Tr(rho(g) pi(v, 0)) from dense operators:
    rho(g) is the product of powers of the generator operators, which the
    factorization oracle builds from generic factors."""
    sp, torus = setup(5, 2, ["split", "split"])
    rep = WeilRep(sp)
    rng = random.Random(5)
    gens = [weil_op_by_factorization(rep, g, rng) for g in torus.generators]
    ops = [
        np.linalg.matrix_power(gens[0], j0) @ np.linalg.matrix_power(gens[1], j1)
        for j0, j1 in torus.exponents
    ]
    vs = [(sp.ctx.zero,) * 4] + [
        v for v in all_nonzero_vectors(sp) if not orbit_spans_space(sp, torus, v)
    ]
    assert len(vs) > 100
    pis = np.stack([rep.pi_op((v, sp.ctx.zero)) for v in vs])
    traces = np.einsum("gij,vji->gv", np.stack(ops), pis)
    table = c_chi_table(sp, torus, vs)
    X = character_values(torus, torus_characters(torus))
    assert np.abs(table - X.conj() @ traces).max() < 1e-9


@pytest.mark.parametrize(
    "p,kind",
    [(5, ["split", "split"]), (5, ["split", "inert"]), (7, ["inert", "inert"])],
    ids=kind_id,
)
def test_c_chi_table_drops_singular_terms_as_the_blockwise_sum_does(p, kind):
    """The direct table, which sums the terms of elements that are the
    identity on a block with the general character, equals the blockwise
    product over the block tori at every nonzero vector, inadmissible ones
    included: both are exact there."""
    sp, torus = setup(p, 2, kind)
    ms = module_structure(torus)
    vs = list(all_nonzero_vectors(sp))
    assert not admissible_mask(torus, prime_coords(vs)).all()
    direct = c_chi_table(sp, torus, vs)
    reduced = c_chi_reduced(ms, torus, vs)
    assert direct.shape == reduced.shape == (torus.order, len(vs))
    assert np.abs(direct - reduced).max() < 1e-12


def test_reduced_equals_direct_sl2():
    """N = 1: the reduction is the direct sum verbatim (K = k)."""
    sp, torus = setup(7, 1, ["inert"])
    ms = module_structure(torus)
    vs = list(all_nonzero_vectors(sp))
    assert np.abs(c_chi_table(sp, torus, vs) - c_chi_reduced(ms, torus, vs)).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_reduced_equals_direct_irreducible_sp4(p):
    sp, torus = setup(p, 2, ["irreducible2"])
    ms = module_structure(torus)
    ctx = sp.ctx
    # a spanning set of vectors
    vs = []
    for i in range(4):
        v = [ctx.zero] * 4
        v[i] = ctx.one
        vs.append(tuple(v))
    vs.append(tuple(ctx.el(k + 1) for k in range(4)))
    d = c_chi_table(sp, torus, vs)
    r = c_chi_reduced(ms, torus, vs)
    assert np.abs(d - r).max() < 1e-8 * math.sqrt(ctx.q**2)


def test_reduced_handles_product_torus():
    """The blockwise table of a product torus, whose elements include ones
    that are the identity on a block, equals |T| Tr(pi(v) P_chi) from the
    dense projectors, at v = 0 and at admissible and inadmissible
    vectors."""
    sp, torus = setup(5, 2, ["split", "inert"])
    ms = module_structure(torus)
    rep = WeilRep(sp)
    dec = decompose(rep, torus)
    ctx = sp.ctx
    vs = [
        tuple([ctx.zero] * 4),
        tuple([ctx.one, ctx.zero, ctx.zero, ctx.zero]),
        tuple([ctx.one, ctx.one, ctx.zero, ctx.one]),
        tuple([ctx.zero, ctx.one, ctx.zero, ctx.el(2)]),
        tuple([ctx.one, ctx.one, ctx.one, ctx.el(2)]),
    ]
    assert admissible_mask(torus, prime_coords(vs[1:])).tolist() == [False] * 3 + [True]
    assert dec.characters is torus_characters(torus)
    table = c_chi_reduced(ms, torus, vs)
    pis = [rep.pi_op((v, ctx.zero)) for v in vs]
    want = np.array([
        [torus.order * np.trace(pi @ B @ B.conj().T) for pi in pis] for B in dec.bases
    ])
    assert np.abs(table - want).max() < 1e-8


def test_sharp_bound_irreducible_sp4():
    """|c_chi| <= 2 sqrt(q^N) on irreducible tori: strictly sharper than the
    2^N sqrt(q^N) cohomological bound."""
    sp, torus = setup(3, 2, ["irreducible2"])
    rpt = bound_report(sp, torus)
    assert rpt.rank == 1
    assert rpt.max_ratio <= 1 + 1e-12
    assert rpt.bound == pytest.approx(2 * 3)
    assert rpt.es_bound == pytest.approx(4 * 3)
    # observed maxima stay within half of the Es-style bound
    best = rpt.max_ratio * rpt.bound
    assert best <= rpt.es_bound / 2 + 1e-9


def test_bound_report_empty_vrange():
    sp, torus = setup(5, 1, ["split"])
    rpt = bound_report(sp, torus, v_list=[])
    assert rpt.rows == []
    assert rpt.max_ratio == 0.0
    assert rpt.excluded.shape == (0, 2)
    assert list(rpt.csv_rows()) == []


def test_bound_report_with_no_admissible_vector():
    """The split torus of SL(2, F_3) is {1, -1}: no orbit spans V, so the
    report has no rows and every nonzero vector is excluded."""
    sp, torus = setup(3, 1, ["split"])
    assert torus.order == 2
    rpt = bound_report(sp, torus)
    assert not rpt.rows and list(rpt.csv_rows()) == []
    assert np.array_equal(rpt.excluded, default_vector_range(sp))
    assert len(rpt.excluded) == 8
    summary = rpt.summary()
    assert (summary["n_rows"], summary["n_excluded"], summary["argmax"]) == (0, 8, None)


def test_c_chi_table_of_no_vectors_is_empty():
    """An empty array of F_p rows keeps its width through ``prime_coords``,
    so the table of no vectors is one empty column per character."""
    sp, torus = setup(5, 2, ["split", "inert"])
    C = np.zeros((0, 4), dtype=np.int64)
    assert prime_coords(C).shape == (0, 4)
    assert c_chi_table(sp, torus, C).shape == (torus.order, 0)
    assert admissible_mask(torus, C).shape == (0,)


def test_default_vector_range_small_space_exhaustive():
    sp, _ = setup(5, 1, ["split"])
    vs = default_vector_range(sp)
    assert len(vs) == 24  # q^2 - 1


def test_default_vector_range_caps_at_every_nonzero_vector():
    """GF(125)^2 has 15,625 vectors, above the exhaustive limit, and every
    one of its nonzero vectors has weight at most 2."""
    sp = SympSpace(FieldCtx(5, 3), 1)
    vs = default_vector_range(sp)
    assert len(vs) == len(np.unique(vs, axis=0)) == 125**2 - 1


def test_default_vector_range_samples_distinct_nonzero_vectors():
    sp = SympSpace(FieldCtx(11), 2)
    vs = default_vector_range(sp, seed=5)
    low_weight = 4 * 10 + 6 * 10**2  # nonzero vectors of weight <= 2 in GF(11)^4
    assert len(vs) == len(np.unique(vs, axis=0)) == low_weight + 4096
    assert all(any(x != 0 for x in v) for v in vs)
    assert all(sum(x != 0 for x in v) <= 2 for v in vs[:low_weight])
    assert np.array_equal(default_vector_range(sp, seed=5), vs)
    assert not np.array_equal(default_vector_range(sp, seed=6), vs)


def _default_vector_range_oracle(space, seed=0):
    """``default_vector_range`` as tuples over GF(q): every nonzero vector
    by its encoding, or the weight-2 vectors, then the draws, built one
    element at a time and each kept at its first occurrence."""
    ctx = space.ctx
    n = space.dim
    total = ctx.q**n
    if total <= 6561:
        return all_nonzero_vectors(space)
    rng = random.Random(seed)
    seen = set()
    out = []
    for i in range(n):
        for j in range(i, n):
            for a in range(ctx.q):
                for b in range(ctx.q):
                    v = [ctx.zero] * n
                    v[i] = ctx.from_int(a)
                    v[j] = ctx.from_int(b)
                    v = tuple(v)
                    if any(x != ctx.zero for x in v) and v not in seen:
                        seen.add(v)
                        out.append(v)
    target = min(len(out) + 4096, total - 1)
    while len(out) < target:
        v = tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(n))
        if any(x != ctx.zero for x in v) and v not in seen:
            seen.add(v)
            out.append(v)
    return out


RANGE_CASES = [(5, 1, 2), (3, 2, 2), (3, 2, 1), (11, 1, 2), (13, 1, 2), (5, 1, 3), (7, 1, 3),
               (3, 3, 2), (5, 3, 1), (3, 1, 19)]


@pytest.mark.parametrize("p,m,N", RANGE_CASES, ids=[f"{p}^{m}-N{N}" for p, m, N in RANGE_CASES])
def test_default_vector_range_matches_the_tuple_oracle(p, m, N):
    """The F_p rows are the oracle's tuples over GF(q), in the same order,
    in the exhaustive branch (q^2N <= 6561) and the sampled one, for
    several seeds."""
    sp = SympSpace(FieldCtx(p, m), N)
    for seed in (0, 5, 17):
        rows = default_vector_range(sp, seed)
        assert rows.dtype == np.int64 and rows.shape[1] == 2 * N * m
        assert np.array_equal(rows, prime_coords(_default_vector_range_oracle(sp, seed)))
        if sp.ctx.q ** (2 * N) <= 6561:
            break


def test_default_vector_range_refuses_encodings_past_int64():
    """3^38 < 2^63 < 3^40: GF(3)^38 is the largest space over F_3 whose
    encodings fit (it is a case of the oracle test), GF(3)^40 raises."""
    with pytest.raises(ValueError, match="int64"):
        default_vector_range(SympSpace(FieldCtx(3), 20))


@pytest.mark.parametrize(
    "p,m,N,kind,step", [(5, 3, 1, ["split"], 97), (11, 1, 2, ["split", "inert"], 23)],
    ids=["gf125-split", "f11-split+inert"],
)
def test_csv_rows_match_the_per_row_formatting(p, m, N, kind, step):
    """The CSV text, each vector and character formatted once, against the
    rows formatted one dict at a time with each component read back over
    GF(q) and serialized, on vectors of the sampled branch."""
    sp = SympSpace(FieldCtx(p, m), N)
    ctx = sp.ctx
    torus = build_maximal_torus(sp, kind)
    vs = default_vector_range(sp, seed=3)[::step]
    rpt = bound_report(sp, torus, vs)
    assert len(rpt.rows) > 1000 and len(rpt.excluded) > 0
    want = []
    for row in rpt.rows:
        v = [ctx.el(x) for x in np.reshape(row["v"], (sp.dim, m)).tolist()]
        want.append((
            p, m, N, torus.descriptor_string(),
            ";".join(str(e) for e in row["chi"]),
            ";".join(",".join(str(c) for c in ctx.serialize(x)) for x in v),
            f"{row['re']:.12g}", f"{row['im']:.12g}", f"{row['abs']:.12g}",
            f"{rpt.bound:.12g}", f"{row['ratio']:.12g}",
        ))
    got = list(rpt.csv_rows())
    assert [",".join(map(str, r)) for r in got] == [",".join(map(str, r)) for r in want]


def test_bound_report_rows_match_the_table_entry_by_entry():
    """Rows, exclusions, maximum and witness of a report, against the
    character table of the oracle-admissible vectors read one entry at a
    time."""
    sp, torus = setup(7, 1, ["split"])
    rpt = bound_report(sp, torus)
    vs = list(all_nonzero_vectors(sp))
    admissible = [v for v in vs if orbit_spans_space(sp, torus, v)]
    assert rpt.excluded.tolist() == [list(v) for v in vs if v not in admissible]
    table = c_chi_table(sp, torus, admissible)
    expected = []
    for ci, chi in enumerate(torus_characters(torus).tolist()):
        for vi, v in enumerate(admissible):
            val = table[ci, vi]
            expected.append({"chi": tuple(chi), "v": v, "re": val.real, "im": val.imag,
                             "abs": abs(val), "ratio": abs(val) / rpt.bound})
    assert len(rpt.rows) == len(expected) and list(rpt.rows) == expected
    best = max(expected, key=lambda row: row["ratio"])
    assert rpt.max_ratio == best["ratio"]
    witness = [sp.ctx.serialize(x) for x in best["v"]]
    assert rpt.argmax == {"chi": list(best["chi"]), "v": witness, "abs": best["abs"]}


def test_csv_rows_shape():
    sp, torus = setup(5, 1, ["inert"])
    rpt = bound_report(sp, torus)
    rows = list(rpt.csv_rows())
    assert rows and len(rows[0]) == 11
    summary = rpt.summary()
    assert summary["max_ratio"] <= 1
    assert summary["argmax"] is not None


def test_triangle_sanity():
    """|c_chi| never exceeds the number of summands (unit modulus terms)."""
    sp, torus = setup(7, 1, ["inert"])
    vs = list(all_nonzero_vectors(sp))
    table = c_chi_table(sp, torus, vs)
    assert np.abs(table).max() <= torus.order - 1 + 1e-9


def test_prime_power_base_field():
    """Everything runs over GF(9) as the base field: torus orders, the
    two-dimensional bound, and the blockwise reduction over GF(81)."""
    ctx = FieldCtx(3, 2)
    sp = SympSpace(ctx, 1)
    for kind, order in (("split", 8), ("inert", 10)):
        torus = build_maximal_torus(sp, [kind])
        assert torus.order == order
        rpt = bound_report(sp, torus)
        assert rpt.max_ratio <= 1 + 1e-9
    sp2 = SympSpace(ctx, 2)
    torus2 = build_maximal_torus(sp2, ["irreducible2"])
    assert torus2.order == 82
    ms = module_structure(torus2)
    vs = [(ctx.one, ctx.zero, ctx.zero, ctx.zero)]
    d = c_chi_table(sp2, torus2, vs)[:4]
    r = c_chi_reduced(ms, torus2, vs)[:4]
    assert np.abs(d - r).max() < 1e-9
    assert np.abs(d).max() <= 2 * math.sqrt(81) + 1e-8


# -- the DFT and float64 kernels against the dense sums ----------------------------


def _dense_c_chi_table(space, torus, vs):
    """c_chi_table by the dense sums: int64 phase indices c B c and supports
    K c = 0 per element, and the |T| x |T| character matrix."""
    p = space.ctx.p
    C = prime_coords(vs)
    trace, K, _, B = torus_character_forms(torus)
    idx = ((C @ B % p) * C).sum(axis=2) % p
    support = ~(C @ np.swapaxes(K, 1, 2) % p).any(axis=2)
    terms = np.where(support, trace[:, None] * np.exp(2j * np.pi * idx / p), 0)
    return character_values(torus, torus_characters(torus)).conj() @ terms


def _oracle_vectors(sp, count=1500, seed=0):
    """Every nonzero vector of a small space; otherwise the nonzero vectors
    of weight 1, which lie in one block of a coordinate product torus, and
    ``count`` random others."""
    ctx, n = sp.ctx, sp.dim
    if ctx.q**n <= 2500:
        return list(all_nonzero_vectors(sp))
    vs = [tuple(ctx.from_int(a) if k == i else ctx.zero for k in range(n))
          for i in range(n) for a in range(1, ctx.q)]
    rng = random.Random(seed)
    vs += [tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)) for _ in range(count)]
    return vs


DFT_CASES = FORM_CASES + [(5, 1, 3, ["split", "irreducible2"])]


@pytest.mark.parametrize(
    "p,m,N,kind", DFT_CASES,
    ids=[f"{p}^{m}-N{N}-" + "+".join(map(str, k)) for p, m, N, k in DFT_CASES],
)
def test_c_chi_table_matches_the_dense_character_sum(p, m, N, kind):
    """The DFT over the exponent grid with float64 phase and support
    products gives the dense sum to 1e-12 of its largest entry, at
    admissible and inadmissible vectors; the product tori among the cases
    have singular elements, whose terms vanish off Im(g - I)."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    vs = _oracle_vectors(sp)
    want = _dense_c_chi_table(sp, torus, vs)
    got = c_chi_table(sp, torus, vs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if len(torus.blocks) > 1:
        _, K, _, _ = torus_character_forms(torus)
        assert K.any(axis=(1, 2)).sum() > 1
        assert not admissible_mask(torus, prime_coords(vs)).all()


def test_c_chi_table_refuses_phase_products_past_float64():
    """n^2 (p - 1)^2 < 2^53 keeps the float64 products exact: at the largest
    prime 2n = 90 coordinates pass the check (and go on to read the torus,
    here none), 2n = 92 raise ValueError before any torus is read."""
    ctx = FieldCtx(1048573)
    with pytest.raises(AttributeError):
        c_chi_table(SympSpace(ctx, 45), None, np.ones((1, 90), dtype=np.int64))
    with pytest.raises(ValueError, match="not exact in float64"):
        c_chi_table(SympSpace(ctx, 46), None, np.ones((1, 92), dtype=np.int64))


@pytest.mark.parametrize(
    "p,m,N,kind", DFT_CASES,
    ids=[f"{p}^{m}-N{N}-" + "+".join(map(str, k)) for p, m, N, k in DFT_CASES],
)
def test_trace_multiplicities_match_the_dense_sum(p, m, N, kind):
    """The DFT of the Weil traces gives (1/|T|) sum of conj(chi) Tr rho to
    1e-12, for the whole group and for a subset of rows in any order."""
    torus = build_maximal_torus(SympSpace(FieldCtx(p, m), N), kind)
    E = torus_characters(torus)
    for rows in (E, E[::-3]):
        dense = (character_values(torus, rows).conj() @ weil_traces(torus)).real / torus.order
        assert np.abs(trace_multiplicities(torus, rows) - dense).max() < 1e-12


def test_bound_report_witness_is_stable_under_rounding(monkeypatch):
    """The witness is the first (chi, v) in character-major order within
    1e-9 of the largest ratio: raising a later tied entry by 1e-12 of
    itself leaves it, raising it by 1e-6 moves it there."""
    sp, torus = setup(5, 2, ["split", "inert"])
    vs = [v for v in all_nonzero_vectors(sp) if orbit_spans_space(sp, torus, v)]
    table = c_chi_table(sp, torus, vs)
    ratios = np.abs(table)
    tied = np.flatnonzero(ratios.ravel() >= ratios.max() * (1 - 1e-9))
    assert len(tied) > 1
    first, last = (np.unravel_index(k, table.shape) for k in tied[[0, -1]])
    chars = torus_characters(torus)
    for scale, want in ((1 + 1e-12, first), (1 + 1e-6, last)):
        doctored = table.copy()
        doctored[last] *= scale
        monkeypatch.setattr(sums, "c_chi_table", lambda *args, t=doctored: t)
        rpt = bound_report(sp, torus, vs)
        assert rpt.argmax["chi"] == chars[want[0]].tolist()
        assert rpt.argmax["v"] == [sp.ctx.serialize(x) for x in vs[want[1]]]
        assert rpt.max_ratio == np.abs(doctored).max() / rpt.bound


def test_bound_report_refuses_vectors_of_another_width():
    sp, torus = setup(5, 2, ["split", "inert"])
    with pytest.raises(ValueError):
        bound_report(sp, torus, [(1, 2, 3)])
