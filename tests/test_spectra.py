"""Torus characters, eigenspace decompositions, multiplicities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_symp import _element_keys

from weilrep.catmap import CAT2_DEFAULT, CAT4_DEFAULT, LatticeAutomorphism
from weilrep.gfq import FieldCtx
from weilrep.heiwei import WeilRep, max_abs
from weilrep.spectra import (
    _joint_eigenspaces,
    _orthonormal_range,
    _tie_order,
    decompose,
    expected_multiplicity,
    multiplicity_table_rows,
    split_quadratic_bases,
    torus_characters,
    trace_multiplicities,
)
from weilrep.symp import SympSpace, build_maximal_torus, centralizer_torus


def character_values(torus, E):
    """The values of the characters with exponent rows E over the full
    element enumeration, one row per character: the dense |E| x |T| matrix
    that the DFTs of ``sums.c_chi_table`` and ``trace_multiplicities``
    stand for."""
    J = torus_characters(torus)
    acc = np.zeros((len(E), len(J)))
    for k, n in enumerate(torus.orders):
        acc = acc + E[:, k, None] * J[None, :, k] / n
    return np.exp(2j * np.pi * acc)


def setup_rep(p, N, kind, m=1):
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    return WeilRep(sp), torus


def _element_columns(torus):
    """The column of each torus element in ``character_values``."""
    return {g: j for j, g in enumerate(_element_keys(torus))}


def _quadratic_rows(torus, E):
    """The rows of E whose values are all +1 or -1, but not all +1."""
    vals = character_values(torus, E)
    real = np.all(np.abs(vals.imag) < 1e-12, axis=1) & np.all(
        np.abs(np.abs(vals.real) - 1) < 1e-12, axis=1
    )
    return np.flatnonzero(real & np.any(vals.real < 0, axis=1))


def _sigma_row(torus, alpha):
    """The row of ``torus_characters`` of the quadratic character of the
    alpha-th block, exponent n_alpha / 2 there and 0 elsewhere, checked to
    be quadratic by its values."""
    n = torus.orders[alpha]
    assert n % 2 == 0
    exps = [n // 2 if k == alpha else 0 for k in range(len(torus.orders))]
    row = int(np.ravel_multi_index(exps, torus.orders))
    assert torus_characters(torus)[row].tolist() == exps
    assert row in _quadratic_rows(torus, torus_characters(torus))
    return row


def _multiplicity_by_product(torus, exps):
    """The multiplicity law one character at a time: the product over the
    blocks of 2 (split) or 0 (inert, irreducible) at the quadratic exponent
    n_k / 2, and 1 at every other exponent."""
    m = 1
    for block, n, e in zip(torus.blocks, torus.orders, exps):
        if n % 2 == 0 and e == n // 2:
            m *= 2 if block.name == "split" else 0
    return m


def test_characters_are_the_exponent_rows_in_element_order():
    _, torus = setup_rep(3, 2, ["split", "inert"])
    E = torus_characters(torus)
    assert E.dtype == np.int64 and E.shape == (torus.order, 2)
    assert E is torus.exponents
    assert E.tolist() == [[j0, j1] for j0 in range(torus.orders[0]) for j1 in range(torus.orders[1])]


def test_character_group_structure():
    _, torus = setup_rep(5, 1, ["inert"])
    chars = torus_characters(torus)
    assert len(chars) == 6
    X = character_values(torus, chars)
    col = _element_columns(torus)
    elements = _element_keys(torus)
    for chi in X:
        for g1 in elements:
            for g2 in elements:
                from weilrep import fqlin as la

                prod = la.freeze(
                    la.mat_mul(torus.space.ctx, la.thaw(g1), la.thaw(g2))
                )
                assert abs(chi[col[prod]] - chi[col[g1]] * chi[col[g2]]) < 1e-10
        # values are |T|-th roots of unity
        for g in elements:
            assert abs(chi[col[g]] ** torus.order - 1) < 1e-9


def test_sigma_character_inert_sl2_f5():
    _, torus = setup_rep(5, 1, ["inert"])
    sig = _sigma_row(torus, 0)
    vals = character_values(torus, torus_characters(torus)[[sig]])[0]
    assert np.all(np.abs(np.abs(vals.real) - 1) < 1e-12)
    assert np.any(vals.real < 0)
    # it is the unique quadratic one
    assert _quadratic_rows(torus, torus_characters(torus)).tolist() == [sig]


def test_multiplicities_sl2_f5_split():
    rep, torus = setup_rep(5, 1, ["split"])
    dec = decompose(rep, torus)
    mults = sorted(dec.multiplicities.tolist())
    assert mults == [1, 1, 1, 2]
    assert dec.multiplicities[_sigma_row(torus, 0)] == 2


def test_multiplicities_sl2_f5_inert():
    rep, torus = setup_rep(5, 1, ["inert"])
    dec = decompose(rep, torus)
    mults = sorted(dec.multiplicities.tolist())
    assert mults == [0, 1, 1, 1, 1, 1]
    assert dec.multiplicities[_sigma_row(torus, 0)] == 0


def test_multiplicities_sp4_f3_inert_inert():
    rep, torus = setup_rep(3, 2, ["inert", "inert"])
    dec = decompose(rep, torus)
    mults = dec.multiplicities.tolist()
    assert sorted(mults) == [0] * 7 + [1] * 9
    assert sum(mults) == 9
    # the sigma character of each inert factor never appears
    for alpha in range(2):
        assert dec.multiplicities[_sigma_row(torus, alpha)] == 0


def test_multiplicity_law_matches_prediction():
    cases = [
        (5, 1, ["split"]),
        (5, 1, ["inert"]),
        (3, 2, ["split", "split"]),
        (3, 2, ["split", "inert"]),
        (3, 2, ["irreducible2"]),
        (3, 2, [("split", 2)]),
        (5, 2, ["split", "inert"]),
    ]
    for p, N, kind in cases:
        rep, torus = setup_rep(p, N, kind)
        dec = decompose(rep, torus)
        predicted = expected_multiplicity(torus, dec.characters)
        for exps, m, want in zip(dec.characters.tolist(), dec.multiplicities, predicted):
            assert m == want, (p, kind, exps)


SP4_KINDS = [["split", "split"], ["split", "inert"], ["inert", "inert"], [("split", 2)],
             ["irreducible2"]]
PRODUCT_FORMULA_CASES = [(p, 1, 2, kind) for p in (5, 7) for kind in SP4_KINDS] + [
    (3, 2, 1, ["split"]), (3, 2, 1, ["inert"]), (3, 2, 2, ["split", "inert"]),
    (3, 2, 2, ["irreducible2"]),
]


@pytest.mark.parametrize("p,m,N,kind", PRODUCT_FORMULA_CASES, ids=lambda x: str(x))
def test_expected_multiplicity_equals_the_per_character_product(p, m, N, kind):
    """The vectorised multiplicity law equals the product formula taken one
    character at a time, on every row of the character group."""
    torus = build_maximal_torus(SympSpace(FieldCtx(p, m), N), kind)
    E = torus_characters(torus)
    found = expected_multiplicity(torus, E)
    assert found.shape == (torus.order,)
    assert found.tolist() == [_multiplicity_by_product(torus, exps) for exps in E.tolist()]
    assert found.sum() == p ** (m * N)


def test_projector_axioms_and_equivariance():
    rep, torus = setup_rep(5, 1, ["split"])
    dec = decompose(rep, torus)
    dim = rep.dim
    X = character_values(torus, dec.characters)
    col = _element_columns(torus)
    projectors = [B @ B.conj().T for B in dec.bases]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for chi, P in zip(X, projectors):
        assert max_abs(P @ P - P) < rep.tol
        assert max_abs(P - P.conj().T) < rep.tol
        total += P
        # rho(g) P = chi(g) P on the generators
        for gkey in torus.generators:
            R = rep.weil_op(gkey)
            assert max_abs(R @ P - chi[col[gkey]] * P) < rep.tol
    assert max_abs(total - np.eye(dim)) < rep.tol
    # distinct projectors are orthogonal
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            assert max_abs(projectors[i] @ projectors[j]) < rep.tol


def test_eigenbases_orthonormal_and_eigen():
    rep, torus = setup_rep(7, 1, ["inert"])
    dec = decompose(rep, torus)
    X = character_values(torus, dec.characters)
    col = _element_columns(torus)
    for chi, B in zip(X, dec.bases):
        for phi in B.T:
            assert abs(np.linalg.norm(phi) - 1) < 1e-9
            for gkey in torus.generators:
                R = rep.weil_op(gkey)
                assert max_abs(R @ phi - chi[col[gkey]] * phi) < rep.tol


def test_tensor_consistency_product_torus():
    """For a product torus the nonzero eigenspaces match the products of the
    block multiplicities (tensor factorization)."""
    rep, torus = setup_rep(5, 2, ["split", "split"])
    dec = decompose(rep, torus)
    for exps, m in zip(dec.characters.tolist(), dec.multiplicities):
        expected = 1
        for k in range(2):
            n = torus.orders[k]
            expected *= 2 if (n % 2 == 0 and exps[k] == n // 2) else 1
        assert m == expected
    assert dec.multiplicities.sum() == 25


def test_multiplicity_rows_format():
    rep, torus = setup_rep(5, 1, ["split"])
    dec = decompose(rep, torus)
    rows = multiplicity_table_rows(dec)
    assert len(rows) == 4
    assert rows[0][0] == 5 and rows[0][2] == 1
    assert all(isinstance(r[5], int) for r in rows)


def test_character_restriction_sign():
    """On the punctured torus, sigma(-det(g - I)) equals the quadratic
    character of T (split) or its negative (inert)."""
    from weilrep import fqlin as la

    for p in (5, 7, 11):
        for kind, sign in (("split", 1), ("inert", -1)):
            sp = SympSpace(FieldCtx(p), 1)
            torus = build_maximal_torus(sp, [kind])
            sig = character_values(torus, torus_characters(torus)[[_sigma_row(torus, 0)]])[0]
            col = _element_columns(torus)
            ctx = sp.ctx
            ident = la.freeze(la.identity(ctx, 2))
            for gkey in _element_keys(torus):
                if gkey == ident:
                    continue
                g = la.thaw(gkey)
                gmI = [
                    [ctx.sub(g[i][j], ctx.one if i == j else ctx.zero) for j in range(2)]
                    for i in range(2)
                ]
                val = ctx.legendre(ctx.neg(la.det(ctx, gmI)))
                expect = sign * int(round(sig[col[gkey]].real))
                assert val == expect, (p, kind, gkey)


def test_multiplicities_sp8_f3_inert_blocks():
    rep, torus = setup_rep(3, 4, ["inert"] * 4)
    dec = decompose(rep, torus)
    assert dec.multiplicities.sum() == 81
    assert np.array_equal(dec.multiplicities, expected_multiplicity(torus, dec.characters))


def test_multiplicities_sp6_f3():
    for kind in (["irreducible3"], ["split", "irreducible2"]):
        rep, torus = setup_rep(3, 3, kind)
        dec = decompose(rep, torus)
        assert dec.multiplicities.sum() == 27
        assert np.array_equal(dec.multiplicities, expected_multiplicity(torus, dec.characters))


def test_multiplicities_over_f9_base():
    rep, torus = setup_rep(3, 1, ["inert"])
    # now the same over the extension base field GF(9)
    sp = SympSpace(FieldCtx(3, 2), 1)
    rep9 = WeilRep(sp)
    for kind in ("split", "inert"):
        torus9 = build_maximal_torus(sp, [kind])
        dec = decompose(rep9, torus9)
        assert dec.multiplicities.sum() == 9
        assert np.array_equal(dec.multiplicities, expected_multiplicity(torus9, dec.characters))


def _decompose_by_averaging(rep, torus):
    """Reference decomposition over every torus element: the projectors
    P_chi = |T|^-1 sum over g of conj(chi(g)) rho(g), their integer traces as
    multiplicities, and Gram-Schmidt bases on the projector columns.
    Returns {exponents: (multiplicity, projector, basis)}."""
    chars = torus_characters(torus)
    ops = np.stack([rep.weil_op(g) for g in _element_keys(torus)])
    X = character_values(torus, chars)
    P_all = (X.conj() @ ops.reshape(len(ops), -1)).reshape(len(chars), rep.dim, rep.dim)
    P_all /= torus.order
    out = {}
    for exps, P in zip(chars.tolist(), P_all):
        tr = P.trace()
        mult = int(round(tr.real))
        assert abs(tr - mult) < 0.01
        out[tuple(exps)] = (mult, P, _orthonormal_range(P, mult))
    return out


def _cat4_torus(p):
    return _cat_torus(CAT4_DEFAULT, p)


def _cat_torus(mat, p):
    A = LatticeAutomorphism(mat)
    sp = SympSpace(FieldCtx(p), A.N)
    return WeilRep(sp), centralizer_torus(sp, A.mod_p(sp))


ORACLE_CASES = [
    ("sl2-f5-split", lambda: setup_rep(5, 1, ["split"])),
    ("sl2-f5-inert", lambda: setup_rep(5, 1, ["inert"])),
    ("sl2-f7-split", lambda: setup_rep(7, 1, ["split"])),
    ("sl2-f7-inert", lambda: setup_rep(7, 1, ["inert"])),
    ("sp4-f3-inert-inert", lambda: setup_rep(3, 2, ["inert", "inert"])),
    ("cat4-p7", lambda: _cat4_torus(7)),
    ("cat4-p11", lambda: _cat4_torus(11)),
    ("cat4-p13", lambda: _cat4_torus(13)),
    ("sp6-f3-irreducible3", lambda: setup_rep(3, 3, ["irreducible3"])),
    ("sp6-f3-split-irreducible2", lambda: setup_rep(3, 3, ["split", "irreducible2"])),
    ("sl2-f9-split", lambda: setup_rep(3, 1, ["split"], m=2)),
    ("sl2-f9-inert", lambda: setup_rep(3, 1, ["inert"], m=2)),
]


@pytest.mark.parametrize("make", [c[1] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES])
def test_decompose_matches_averaging_oracle(make):
    """The generator-wise diagonalization reproduces the averaging path:
    equal multiplicities, projectors to 1e-12, and every basis column up to
    a unit phase to 1e-12."""
    rep, torus = make()
    dec = decompose(rep, torus)
    ref = _decompose_by_averaging(rep, torus)
    assert set(ref) == set(map(tuple, dec.characters.tolist()))
    for exps, m, B in zip(map(tuple, dec.characters.tolist()), dec.multiplicities, dec.bases):
        mult, P, B_ref = ref[exps]
        assert m == mult, exps
        assert max_abs(B @ B.conj().T - P) < 1e-12, exps
        assert B.shape == B_ref.shape
        for k in range(mult):
            phase = np.vdot(B[:, k], B_ref[:, k])
            assert abs(abs(phase) - 1) < 1e-12
            assert max_abs(B[:, k] * phase / abs(phase) - B_ref[:, k]) < 1e-12


def test_decompose_rejects_an_operator_off_the_character_values():
    """A generator operator whose eigenvalues are not n-th roots of unity
    fails the residual check instead of yielding a decomposition."""
    rep, torus = setup_rep(5, 1, ["inert"])
    phases = np.random.default_rng(0).uniform(0, 2 * np.pi, rep.dim)
    rep._cache[torus.generators[0]] = np.diag(np.exp(1j * phases))
    with pytest.raises(RuntimeError, match="residual"):
        decompose(rep, torus)


def test_decompose_builds_only_generator_operators():
    rep, torus = setup_rep(5, 2, ["inert", "inert"])
    decompose(rep, torus)
    built = set(rep._cache)
    assert set(torus.generators) <= built
    # each generator is trivial on the other block, so it goes through the
    # two-factor path: at most three operators per generator
    assert len(built) <= 3 * len(torus.generators) < torus.order


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: steps between neighbouring moduli: below, at and above the 1e-9 tie width
TIE_STEPS = [0.0, 1e-12, 0.4e-9, 0.7e-9, 1e-9, 1.3e-9, 3e-9, 1e-3, 0.1]


@st.composite
def tied_rows(draw):
    """Rows whose moduli descend from their largest in drawn steps, so that
    chains of moduli within 1e-9 of their neighbours are common, placed at
    drawn positions with drawn phases."""
    dim = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        top = draw(st.floats(0.05, 1.0))
        steps = draw(st.lists(st.sampled_from(TIE_STEPS), min_size=dim - 1, max_size=dim - 1))
        mags = np.maximum(top - np.cumsum([0.0] + steps), 0.0)
        perm = draw(st.permutations(range(dim)))
        angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=dim, max_size=dim))
        rows.append((mags * np.exp(1j * np.array(angles)))[list(perm)])
    return np.array(rows)


def _tie_order_by_lexsort(norms):
    """The oracle for ``_tie_order`` on one row: the column order the
    Gram-Schmidt used before the rule was shared, a lexsort on (tie group,
    index)."""
    order = np.argsort(-norms, kind="stable")
    ties = np.concatenate(([0], np.cumsum(np.diff(norms[order]) < -1e-9)))
    return order[np.lexsort((order, ties))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_rows())
def test_tie_order_matches_the_lexsort_rule_row_by_row(P):
    norms = np.abs(P)
    assert np.array_equal(_tie_order(norms), np.array([_tie_order_by_lexsort(n) for n in norms]))
    assert np.array_equal(_tie_order(norms[0]), _tie_order_by_lexsort(norms[0]))


@pytest.mark.parametrize(
    "make",
    [lambda: _cat_torus(CAT2_DEFAULT, 97), lambda: _cat4_torus(11), lambda: _cat4_torus(13),
     lambda: setup_rep(3, 1, ["inert"], m=2)],
    ids=["cat2-p97", "cat4-p11", "cat4-p13", "sl2-f9-inert"],
)
def test_decompose_bases_match_gram_schmidt_to_the_bit(make):
    """Every eigenbasis, of multiplicity 1 or more, is bit-identical to the
    one the per-character Gram-Schmidt gives on its joint eigenspace."""
    rep, torus = make()
    dec = decompose(rep, torus)
    ops = [rep.weil_op(g) for g in torus.generators]
    spaces = _joint_eigenspaces(ops, torus.orders, np.eye(rep.dim, dtype=np.complex128))
    assert any(B.shape[1] == 1 for B in spaces.values())
    for exps, B in spaces.items():
        i = np.ravel_multi_index(exps, torus.orders)
        assert _same_bits(dec.bases[i], B @ _orthonormal_range(B.conj().T, B.shape[1])), exps


# -- the multiplicity law and the eigenspaces of multiplicity >= 2 ------------------


TRACE_CASES = [
    (3, 1, 2, ["split", "split"]), (3, 1, 2, ["inert", "split"]), (5, 1, 2, ["split", "split"]),
    (7, 1, 2, ["split", "inert"]), (5, 1, 2, ["inert", "inert"]), (5, 1, 2, ["irreducible2"]),
    (5, 1, 2, [("split", 2)]), (7, 1, 1, ["split"]), (3, 2, 1, ["split"]), (3, 2, 1, ["inert"]),
    (3, 1, 3, ["split", "inert", "inert"]),
]


@pytest.mark.parametrize("p,m,N,kind", TRACE_CASES, ids=lambda x: str(x))
def test_trace_multiplicities_match_decompose(p, m, N, kind):
    """The multiplicities from the character of rho, singular elements
    included, equal the dimensions ``decompose`` finds and the predicted
    ones, to 1e-12."""
    rep, torus = setup_rep(p, N, kind, m)
    dec = decompose(rep, torus)
    chars = torus_characters(torus)
    found = dec.multiplicities
    assert np.array_equal(found, expected_multiplicity(torus, chars))
    assert max_abs(trace_multiplicities(torus, chars) - found) < 1e-12


SPLIT_CASES = [(5, 1, ["split"]), (7, 1, ["split"]), (5, 2, ["split", "split"]),
               (7, 2, ["split", "inert"]), (5, 2, [("split", 2)]), (3, 1, ["split"], 2)]


@pytest.mark.parametrize("case", SPLIT_CASES, ids=lambda c: "-".join(map(str, c)))
def test_split_quadratic_bases_equal_the_decomposition(case):
    """The bases of the multiplicity >= 2 eigenspaces, found from the -1
    eigenspaces of the split generators alone, equal those of
    ``decompose`` to 1e-10, and every such character gets one."""
    rep, torus = setup_rep(*case)
    dec = decompose(rep, torus)
    mults = dec.multiplicities
    bases = split_quadratic_bases(WeilRep(rep.space), torus, mults)
    assert set(bases) == set(np.flatnonzero(mults >= 2).tolist())
    for i, B in bases.items():
        assert max_abs(B - dec.bases[i]) < 1e-10, dec.characters[i]


def test_split_quadratic_bases_refuse_a_wrong_prediction():
    rep, torus = setup_rep(5, 2, ["split", "split"])
    chars = torus_characters(torus)
    mults = expected_multiplicity(torus, chars)
    quad = next(i for i, m in enumerate(mults) if m == 4)
    wrong = mults.copy()
    wrong[quad] = 2
    with pytest.raises(RuntimeError, match="predicted"):
        split_quadratic_bases(rep, torus, wrong)
    other = next(i for i, m in enumerate(mults) if m == 2 and chars[i, 0] != chars[quad, 0])
    wrong = mults.copy()
    wrong[other] = 3
    with pytest.raises(RuntimeError, match="predicted"):
        split_quadratic_bases(rep, torus, wrong)
