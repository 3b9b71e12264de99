"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL
line (visible with pytest -rA or -s).

1. two-dimensional sharp bound, exhaustive over p in {5,...,23}
2. multiplicity formulas in SL(2) and Sp(4)
3. self-reducibility: exact trace identities and operator distance
4. sharpening of the 2^N bound to 2 on irreducible Sp(4) tori
5. the norm-one sign identity behind the multiplicity theorem, q <= 199
6. representation invariants at tolerance 1e-9 * q^N, 100 samples
7. cat-map Hecke eigenstate bound, primes 5 < p <= 97
8. statistical (density operator) bound, same sweep
9. rank frequencies 1/2, 1/2 for the Sp(4, Z) element, primes to 1e5
10. the rank-r bound 2^r sqrt(q)^N on every Sp(4) torus kind, p in {5, 7, 11}
11. Sp(6, Z): rank frequencies 1/3, 1/2, 1/6 to 2e4, Hecke and statistical
    bounds at p = 5 and 7
12. Sp(4) cat-map Hecke eigenstate bound at every usable p <= 23 (dim <= 529)
"""

import math
import random

import numpy as np
import pytest
from test_heiwei import all_vectors, ch_rho, wigner

from weilrep import fqlin as la
from weilrep.catmap import (
    CAT2_DEFAULT,
    CAT4_DEFAULT,
    HeckeContext,
    LatticeAutomorphism,
    hecke_que_experiment,
    primes_up_to,
    rank_density_sweep,
    skip_reason,
    statistical_state_experiment,
)
from weilrep.gfq import FieldCtx, claim_rest_failures
from weilrep.heiwei import WeilRep, max_abs, restrict_to_extension
from weilrep.spectra import decompose, expected_multiplicity
from weilrep.sums import bound_report, c_chi_table, default_vector_range, orbit_spans_space
from weilrep.symp import SympSpace, build_maximal_torus, module_structure, random_symplectic


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_two_dimensional_sharp_bound():
    """|sum over T of chi(g) ch(g, v)| <= 2 sqrt(p), exhaustively."""
    worst = 0.0
    worst_at = None
    for p in (5, 7, 11, 13, 17, 19, 23):
        sp = SympSpace(FieldCtx(p), 1)
        for kind in ("split", "inert"):
            torus = build_maximal_torus(sp, [kind])
            vs = [
                v
                for v in default_vector_range(sp)
                if orbit_spans_space(sp, torus, v)
            ]
            table = c_chi_table(sp, torus, vs)
            top = float(np.abs(table).max())
            if top / (2 * math.sqrt(p)) > worst:
                worst = top / (2 * math.sqrt(p))
                worst_at = (p, kind)
            assert top <= 2 * math.sqrt(p) + 1e-8, (p, kind, top)
    report(
        "1 two-dimensional bound",
        worst <= 1 + 1e-8,
        f"max |c_chi| / (2 sqrt p) = {worst:.6f} at {worst_at}",
    )


def test_criterion_2_multiplicity_formulas():
    """m_chi = 1 away from the quadratic character, m_sigma in {0, 2} for
    SL(2); m_chi = 2^l in Sp(4); zero mismatches."""
    mismatches = 0
    checked = 0
    for p in (5, 7, 11, 13):
        sp = SympSpace(FieldCtx(p), 1)
        rep = WeilRep(sp)
        for kind in ("split", "inert"):
            torus = build_maximal_torus(sp, [kind])
            dec = decompose(rep, torus)
            checked += len(dec.characters)
            mismatches += int(
                (dec.multiplicities != expected_multiplicity(torus, dec.characters)).sum()
            )
    sp4_kinds = [
        ["split", "split"],
        ["split", "inert"],
        ["inert", "inert"],
        [("split", 2)],
        ["irreducible2"],
    ]
    for p in (3, 5, 7):
        sp = SympSpace(FieldCtx(p), 2)
        rep = WeilRep(sp)
        for kind in sp4_kinds:
            torus = build_maximal_torus(sp, kind)
            dec = decompose(rep, torus)
            checked += len(dec.characters)
            mismatches += int(
                (dec.multiplicities != expected_multiplicity(torus, dec.characters)).sum()
            )
    report(
        "2 multiplicity formulas",
        mismatches == 0,
        f"{checked} characters checked, {mismatches} mismatches",
    )


def test_criterion_3_self_reducibility():
    """Exact trace identities on all torus elements for q in {3, 5, 7} and
    for Sp(4, GF(9)), whose block field is GF(81); operator distance
    <= 1e-8 q^N at q = 5 over 50 random elements and at GF(9)."""
    details = []
    ok = True
    for p, m, samples in ((3, 1, 5), (5, 1, 50), (7, 1, 5), (3, 2, 5)):
        sp = SympSpace(FieldCtx(p, m), 2)
        torus = build_maximal_torus(sp, ["irreducible2"])
        ms = module_structure(torus)
        rep = WeilRep(sp)
        rpt = restrict_to_extension(rep, ms, n_samples=samples, seed=0)
        ok = ok and rpt["sigma_identity_failures"] == 0
        ok = ok and rpt["psi_identity_failures"] == 0
        ok = ok and rpt["sigma_identity_checked"] == torus.order - 1
        if p == 5 or m == 2:
            ok = ok and rpt["max_operator_distance"] <= 1e-8 * rep.dim
        details.append(f"q={p**m} dist={rpt['max_operator_distance']:.2e}")
    report("3 self-reducibility", ok, "; ".join(details))


def test_criterion_4_sharpening():
    """max |c_chi| <= 2 sqrt(p^2) on irreducible Sp(4) tori, not merely
    2^2 sqrt(p^2); both ratios reported."""
    lines = []
    ok = True
    for p in (3, 5, 7):
        sp = SympSpace(FieldCtx(p), 2)
        torus = build_maximal_torus(sp, ["irreducible2"])
        rpt = bound_report(sp, torus)
        sharp_ratio = rpt.max_ratio  # against 2 sqrt(q^N)
        es_ratio = rpt.max_ratio * rpt.bound / rpt.es_bound
        ok = ok and sharp_ratio <= 1 + 1e-8
        lines.append(f"p={p}: vs 2q {sharp_ratio:.4f}, vs 4q {es_ratio:.4f}")
    report("4 sharpening of the exponent bound", ok, "; ".join(lines))


def test_criterion_5_norm_one_sign_identity():
    """((c-1)^2/c)^((q-1)/2) = -c^((q+1)/2) for all norm-one c != 1, exact
    in GF(q^2), every odd prime power q <= 199."""
    qs = []
    for p in primes_up_to(199):
        if p == 2:
            continue
        m = 1
        while p**m <= 199:
            qs.append((p, m))
            m += 1
    total = bad = 0
    for p, m in qs:
        checked, failures = claim_rest_failures(p, m)
        total += checked
        bad += failures
    report(
        "5 norm-one sign identity",
        bad == 0,
        f"{len(qs)} prime powers, {total} elements, {bad} failures",
    )


def test_criterion_6_representation_invariants():
    """Egorov, homomorphism, unitarity, trace formula, operator-basis
    orthogonality, Parseval: 100 samples each at (5,1), (7,1), (5,2),
    max-norm tolerance 1e-9 q^N."""
    rng = random.Random(123)
    failures = 0
    worst = 0.0
    for p, N in ((5, 1), (7, 1), (5, 2)):
        sp = SympSpace(FieldCtx(p), N)
        rep = WeilRep(sp)
        ctx = sp.ctx
        tol = 1e-9 * rep.dim

        def track(val):
            nonlocal worst, failures
            worst = max(worst, val)
            if val > tol:
                failures += 1

        vs = list(all_vectors(rep))
        for _ in range(100):
            g = random_symplectic(sp, rng)
            h = random_symplectic(sp, rng)
            Rg, Rh = rep.weil_op(g), rep.weil_op(h)
            track(max_abs(Rg @ Rg.conj().T - np.eye(rep.dim)))
            track(max_abs(Rg @ Rh - rep.weil_op(la.mat_mul(ctx, g, h))))
            v = vs[rng.randrange(len(vs))]
            z = ctx.from_int(rng.randrange(ctx.q))
            gv = tuple(la.mat_vec(ctx, g, list(v)))
            track(max_abs(Rg @ rep.pi_op((v, z)) @ Rg.conj().T - rep.pi_op((gv, z))))
            track(abs(np.trace(Rg) - ch_rho(rep, g)))
            v1 = vs[rng.randrange(len(vs))]
            v2 = vs[rng.randrange(len(vs))]
            inner = np.trace(
                rep.pi_op((v1, ctx.zero)) @ rep.pi_op((v2, ctx.zero)).conj().T
            )
            expect = rep.dim if v1 == v2 else 0.0
            track(abs(inner - expect))
        # Parseval for a few random unit vectors, exhaustive over v
        for _ in range(5):
            phi = np.array(
                [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(rep.dim)]
            )
            phi /= np.linalg.norm(phi)
            total = sum(abs(wigner(rep, phi, v)) ** 2 for v in vs)
            track(abs(total - rep.dim) / rep.dim)
    report(
        "6 representation invariants",
        failures == 0,
        f"worst deviation {worst:.2e}, {failures} over tolerance",
    )


def test_criterion_7_cat_map_que():
    """A = [[2,1],[1,1]], primes 5 <= p <= 97 with p not dividing 5: every
    Hecke eigenstate, every admissible exponent: |W| <= 2 sqrt(p) / |T_A|;
    the excluded exponents are exactly the invariant eigen-directions at
    split primes."""
    A = LatticeAutomorphism(CAT2_DEFAULT)
    violations = 0
    trend = []
    for p in primes_up_to(97):
        if p < 5:
            continue
        row = hecke_que_experiment(A, p)
        if row.get("skipped"):
            assert p == 5, row
            continue
        # the per-block bound at N = 1 is exactly 2 sqrt(p) / |T|
        assert row["max_ratio_plain"] <= 1 + 1e-9, row
        violations += int(row["max_ratio_plain"] > 1 + 1e-9)
        expected_excluded = 0 if row["torus"] == "inert" else 2 * (p - 1)
        assert row["n_xi_excluded"] == expected_excluded, row
        trend.append((p, row["max_ratio_plain"]))
    stable = all(r <= 1 + 1e-9 for _, r in trend[-5:])
    report(
        "7 cat-map Hecke bound",
        violations == 0 and stable,
        f"{len(trend)} primes, last ratios "
        + ", ".join(f"p={p}:{r:.4f}" for p, r in trend[-3:]),
    )


def test_criterion_8_statistical_states():
    """Zero violations of the assembled bound for the density operators;
    Tr D = 1 within 1e-10."""
    A = LatticeAutomorphism(CAT2_DEFAULT)
    violations = 0
    worst_trace = 0.0
    n = 0
    for p in primes_up_to(97):
        if p < 5 or skip_reason(A, p):
            continue
        row = statistical_state_experiment(A, p)
        violations += row["violations"]
        worst_trace = max(worst_trace, row["trace_deviation"])
        assert row["max_ratio"] <= 1 + 1e-9, row
        n += 1
    report(
        "8 statistical states",
        violations == 0 and worst_trace <= 1e-10,
        f"{n} primes, max trace deviation {worst_trace:.2e}",
    )


def test_criterion_9_chebotarev_density():
    """Rank frequencies of the strongly generic Sp(4, Z) element over the
    primes up to 1e5: both within 0.05 of one half."""
    A = LatticeAutomorphism(CAT4_DEFAULT)
    assert A.strongly_generic
    sweep = rank_density_sweep(A, 100000)
    f1 = sweep["freqs"].get(1, 0.0)
    f2 = sweep["freqs"].get(2, 0.0)
    ok = abs(f1 - 0.5) <= 0.05 and abs(f2 - 0.5) <= 0.05
    # stability against the half-length sweep
    for r in (1, 2):
        ok = ok and abs(sweep["freqs"][r] - sweep["half_freqs"][r]) <= 0.05
    report(
        "9 rank density",
        ok,
        f"delta(1)={f1:.4f}, delta(2)={f2:.4f} over {sweep['n_primes']} primes",
    )


def test_criterion_10_rank_bound_on_every_sp4_kind():
    """|c_chi(v)| <= 2^r sqrt(q)^N for every Sp(4) torus kind at p in
    {5, 7, 11}, the product kinds (r = 2) included, over the default
    vectors.  Each kind's worst sum is also reported against the r = 1
    bound 2 sqrt(q)^N; product kinds exceed it, so the factor 2^r is
    needed."""
    kinds = (
        (["split", "split"], 2),
        (["split", "inert"], 2),
        (["inert", "inert"], 2),
        ([("split", 2)], 1),
        (["irreducible2"], 1),
    )
    ratios = {}
    for p in (5, 7, 11):
        sp = SympSpace(FieldCtx(p), 2)
        for kind, rank in kinds:
            torus = build_maximal_torus(sp, kind)
            rpt = bound_report(sp, torus)
            assert rpt.rows and rpt.rank == rank
            plain = rpt.max_ratio * rpt.bound / (2 * math.sqrt(p**2))
            ratios[(p, torus.descriptor_string())] = (rpt.max_ratio, plain)
    worst = max(r for r, _ in ratios.values())
    worst_plain = max(plain for _, plain in ratios.values())
    report(
        "10 rank-r bound",
        worst <= 1 + 1e-9 and worst_plain > 1,
        "max |c_chi| / (2^r sqrt(q)^N), then / (2 sqrt(q)^N): "
        + ", ".join(f"p={p} {k} {r:.3f} {plain:.3f}" for (p, k), (r, plain) in ratios.items()),
    )


#: the Sp(6, Z) seed [[0, I], [-I, S]], S = [[0, 3, -1], [3, 0, 0], [-1, 0, 3]]:
#: hyperbolic, with trace polynomial t^3 - 3t^2 - 10t + 27 of Galois group S3
SP6_SEED = (
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (-1, 0, 0, 0, 3, -1),
    (0, -1, 0, 3, 0, 0),
    (0, 0, -1, -1, 0, 3),
)


def test_criterion_11_sp6_end_to_end():
    """The strongly generic Sp(6, Z) seed: rank frequencies over the primes
    up to 2e4 within 0.05 of 1/3, 1/2 and 1/6 (Chebotarev for S3), and at
    p = 5 and p = 7 (dimension 343) every Hecke eigenstate and every density
    operator within the assembled per-block bound."""
    A = LatticeAutomorphism(SP6_SEED)
    assert A.regular and A.strongly_generic and A.generic
    sweep = rank_density_sweep(A, 20000)
    freqs = sweep["freqs"]
    ok = all(abs(freqs[r] - d) <= 0.05 for r, d in ((1, 1 / 3), (2, 1 / 2), (3, 1 / 6)))
    detail = []
    for p in (5, 7):
        hc = HeckeContext(A, p)
        que = hecke_que_experiment(A, p, context=hc)
        stat = statistical_state_experiment(A, p, context=hc)
        ok = ok and que["violations"] == 0 and que["max_ratio"] <= 1 + 1e-9
        ok = ok and stat["violations"] == 0 and stat["max_ratio"] <= 1 + 1e-9
        detail.append(
            f"p={p} {que['torus']} r={que['r_p']} QUE max_ratio={que['max_ratio']:.4f},"
            f" statistical {stat['max_ratio']:.4f}"
        )
    report(
        "11 Sp(6) end to end",
        ok,
        ", ".join(f"delta({r})={f:.4f}" for r, f in freqs.items())
        + f" over {sweep['n_primes']} primes; " + "; ".join(detail),
    )


def test_criterion_12_cat4_que_to_dimension_529():
    """The Sp(4, Z) cat map at every usable p <= 23: every Hecke eigenstate
    within the assembled per-block bound at every admissible exponent.  The
    worst ratio is reported per torus type."""
    A = LatticeAutomorphism(CAT4_DEFAULT)
    violations = 0
    by_torus = {}
    for p in primes_up_to(23)[1:]:
        row = hecke_que_experiment(A, p)
        if row["skipped"]:
            assert p == 5, row
            continue
        violations += row["violations"]
        worst, primes = by_torus.get(row["torus"], (0.0, []))
        by_torus[row["torus"]] = (max(worst, row["max_ratio"]), primes + [p])
    worst = max(r for r, _ in by_torus.values())
    report(
        "12 cat4 Hecke bound",
        violations == 0 and worst <= 1 + 1e-9,
        "max_ratio per torus: "
        + ", ".join(
            f"{t} {r:.4f} (p={','.join(map(str, ps))})" for t, (r, ps) in sorted(by_torus.items())
        ),
    )
