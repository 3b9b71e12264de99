"""Lattice automorphisms, genericity, Hecke sweeps, rank statistics."""

import functools
import math
import time
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_symp import _element_keys, gfq_vectors

from weilrep.catmap import (
    CAT2_DEFAULT,
    CAT4_DEFAULT,
    OPERATOR_CHECK_DIM,
    HeckeContext,
    LatticeAutomorphism,
    default_observables,
    discriminant,
    factor_over_Q,
    hecke_que_experiment,
    is_integer_symplectic,
    observable_bound_check,
    primes_up_to,
    rank_density_sweep,
    skip_reason,
    statistical_state_experiment,
    _monic_quotient,
    torus_orbit_minima,
)
from weilrep import catmap, gfq, heiwei, symp
from weilrep import fqlin as la
from weilrep.gfq import FieldCtx
from weilrep.heiwei import WeilRep, max_abs
from weilrep.spectra import decompose, split_quadratic_bases
from weilrep.sums import admissible_mask, orbit_spans_space
from weilrep.symp import trace_polynomial


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(10**5)) == 9592


def test_integer_symplectic_validation():
    assert is_integer_symplectic([[2, 1], [1, 1]])
    assert not is_integer_symplectic([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        LatticeAutomorphism(((2, 0), (0, 1)))


def test_factor_over_Q():
    # x^4 - 1 = (x-1)(x+1)(x^2+1)
    assert factor_over_Q([-1, 0, 0, 0, 1]) == sorted([[-1, 1], [1, 1], [1, 0, 1]])
    # irreducible quartic
    assert factor_over_Q([1, -2, -2, -2, 1]) == [[1, -2, -2, -2, 1]]
    # product of two irreducible quadratics
    f = np.polynomial.polynomial.polymul([1, 0, 1], [2, 1, 1])
    assert factor_over_Q([int(c) for c in f]) == sorted([[1, 0, 1], [2, 1, 1]])


def _qpoly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _qpoly_divmod(f, g):
    """Division with remainder over Q by Fraction arithmetic, for any
    nonzero divisor g: the oracle of the integer polynomial code."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g) and any(f):
        f = _qpoly_trim(f)
        if len(f) < len(g):
            break
        c = f[-1] / g[-1]
        sh = len(f) - len(g)
        q[sh] = c
        for i, gc in enumerate(g):
            f[sh + i] -= c * gc
        f = f[:-1]
    return q, _qpoly_trim(f)


def _is_squarefree_by_fraction_gcd(f):
    """gcd(f, f') over Q by the Euclidean algorithm is a constant."""
    f, g = _qpoly_trim(f), _qpoly_trim([i * c for i, c in enumerate(f)][1:])
    while g:
        f, g = g, _qpoly_divmod(f, g)[1]
    return len(f) <= 1


_monic = st.lists(st.integers(-9, 9), max_size=4).map(lambda c: c + [1])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_monic, min_size=1, max_size=4),
    st.integers(0, 3),
    st.lists(st.integers(-5, 5), max_size=4),
)
def test_monic_quotient_matches_fraction_division(factors, k, perturb):
    """Integer division by a monic product of some of the factors agrees
    with division over Q: the exact quotient when the remainder is zero,
    None otherwise.  The perturbation, of degree below the divisor's, makes
    the remainder nonzero in most draws."""
    g = [1]
    for h in factors[: k + 1]:
        g = [int(c) for c in np.polynomial.polynomial.polymul(g, h)]
    f = [1]
    for h in factors:
        f = [int(c) for c in np.polynomial.polynomial.polymul(f, h)]
    for i, c in enumerate(perturb[: len(g) - 1]):
        f[i] += c
    q, rem = _qpoly_divmod(f, g)
    got = _monic_quotient(f, g)
    if rem:
        assert got is None
    else:
        assert got == [int(c) for c in q]
        assert all(c.denominator == 1 for c in q)


#: the Sp(6, Z) seed [[0, I], [-I, S]] with S = [[0, 3, -1], [3, 0, 0],
#: [-1, 0, 3]]: its trace polynomial t^3 - 3t^2 - 10t + 27 has nonsquare
#: discriminant 2713 (Galois group S3) and roots of modulus > 2
SP6_SEED = (
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (-1, 0, 0, 0, 3, -1),
    (0, -1, 0, 3, 0, 0),
    (0, 0, -1, -1, 0, 3),
)
SP6_SEED_CHARPOLY = [1, -3, -7, 21, -7, -3, 1]

#: the Sp(8, Z) seed [[0, I], [-I, S]] with S = [[0, -1, 1, -2],
#: [-1, -2, 2, -2], [1, 2, 0, 2], [-2, -2, 2, -2]]: trace polynomial
#: t^4 + 4t^3 - 14t^2 + 6t + 4, irreducible over Q
SP8_SEED = (
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
    (-1, 0, 0, 0, 0, -1, 1, -2),
    (0, -1, 0, 0, -1, -2, 2, -2),
    (0, 0, -1, 0, 1, 2, 0, 2),
    (0, 0, 0, -1, -2, -2, 2, -2),
)
SP8_SEED_DISC = -(2**15) * 5 * 7**4 * 101**2


def _cyclotomic(d):
    """Phi_d by exact division of x^d - 1 by Phi_e for the proper divisors
    e of d, independent of any factorization."""
    f = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            g = _cyclotomic(e)
            q = [0] * (len(f) - len(g) + 1)
            for i in reversed(range(len(q))):
                q[i] = f[i + len(g) - 1]
                for j, c in enumerate(g):
                    f[i + j] -= q[i] * c
            assert not any(f)
            f = q
    return f


@pytest.mark.parametrize("n", range(1, 13))
def test_factor_over_Q_splits_x_to_the_n_minus_1_into_cyclotomics(n):
    """x^n - 1 is the product of the Phi_d over d | n; x^4 + 1 (n = 8) is
    reducible modulo every prime, so recombination must merge factors."""
    expected = sorted(_cyclotomic(d) for d in range(1, n + 1) if n % d == 0)
    assert factor_over_Q([-1] + [0] * (n - 1) + [1]) == expected


def test_factor_over_Q_cat2_times_cat4_and_the_sp6_seed():
    cat2, cat4 = [1, -3, 1], [1, -2, -2, -2, 1]
    product = [int(c) for c in np.polynomial.polynomial.polymul(cat2, cat4)]
    assert factor_over_Q(product) == sorted([cat2, cat4])
    assert factor_over_Q(SP6_SEED_CHARPOLY) == [SP6_SEED_CHARPOLY]


NON_MONIC = [
    [1, 0, 2],  # 2x^2 + 1
    [1, 1, -1],  # -x^2 + x + 1
    [],  # the zero polynomial
]
NON_SQUAREFREE = [
    [1, 2, 1],  # (x + 1)^2
    [0, 0, 1, 1],  # x^2 (x + 1)
    [1, 2, 1, -2, -2, 0, 1],  # (x^3 - x - 1)^2
]


@pytest.mark.parametrize("f", NON_MONIC + NON_SQUAREFREE)
def test_factor_over_Q_refuses_non_monic_and_non_squarefree_input(f):
    with pytest.raises(ValueError):
        factor_over_Q(f)


def test_discriminant_closed_forms():
    """b^2 - 4c for x^2 + bx + c, -4c^3 - 27d^2 for x^3 + cx + d and
    b^2c^2 - 4c^3 - 4b^3d - 27d^2 + 18bcd for x^3 + bx^2 + cx + d; 1 for a
    linear polynomial."""
    for b, c, d in [(0, 0, 0), (-3, 1, 0), (2, 1, 5), (7, -4, -11), (1, 1, 1)]:
        assert discriminant([c, b, 1]) == b * b - 4 * c
        assert discriminant([d, c, 0, 1]) == -4 * c**3 - 27 * d * d
        assert discriminant([d, c, b, 1]) == (
            b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d
        )
        assert discriminant([d, 1]) == 1
    # the non-squarefree inputs that factor_over_Q refuses
    assert all(discriminant(f) == 0 for f in NON_SQUAREFREE)


@settings(max_examples=300, deadline=None)
@given(st.lists(_monic, min_size=1, max_size=3), st.booleans())
def test_discriminant_vanishes_exactly_off_the_squarefree(factors, square):
    """disc(f) == 0 exactly when the Fraction gcd of f and f' is not a
    constant; ``square`` plants a repeated factor."""
    f = [1]
    for h in factors + factors[:1] * square:
        f = [int(c) for c in np.polynomial.polynomial.polymul(f, h)]
    assert (discriminant(f) != 0) == _is_squarefree_by_fraction_gcd(f)


def _poly_at(f, x):
    return sum(c * x**i for i, c in enumerate(f))


@pytest.mark.parametrize("mat,disc", [(CAT2_DEFAULT, 5), (CAT4_DEFAULT, -6400), (SP6_SEED, 596189889)])
def test_disc_is_the_trace_polynomial_product(mat, disc):
    """disc(cp) = h(2) h(-2) disc(h)^2 for the trace polynomial h of cp."""
    A = LatticeAutomorphism(mat)
    h = trace_polynomial(A.charpoly)
    assert A.disc == disc == _poly_at(h, 2) * _poly_at(h, -2) * discriminant(h) ** 2


@pytest.mark.parametrize("mat", [CAT2_DEFAULT, CAT4_DEFAULT, SP6_SEED])
def test_skip_reason_is_the_squarefree_test_mod_p(mat):
    """At every odd p up to 3000, p is skipped for its discriminant exactly
    when the characteristic polynomial is not squarefree over GF(p)."""
    A = LatticeAutomorphism(mat)
    for p in primes_up_to(3000)[1:]:
        ctx = FieldCtx(p)
        squarefree = gfq.is_squarefree(ctx, gfq.poly_from_ints(ctx, A.charpoly))
        assert (skip_reason(A, p) == "p divides disc(charpoly)") == (not squarefree), p


@pytest.mark.parametrize("mat,skipped", [(CAT4_DEFAULT, [5]), (SP6_SEED, [3, 2713])])
def test_rank_sweep_skips_the_odd_divisors_of_disc(mat, skipped):
    A = LatticeAutomorphism(mat)
    assert [p for p in primes_up_to(3000)[1:] if A.disc % p == 0] == skipped
    assert rank_density_sweep(A, 3000)["skipped"] == skipped


def test_sp6_seed_is_strongly_generic():
    A = LatticeAutomorphism(SP6_SEED)
    assert A.charpoly == SP6_SEED_CHARPOLY
    assert A.regular and A.strongly_generic and A.generic
    sweep = rank_density_sweep(A, 2000)
    assert set(sweep["freqs"]) == {1, 2, 3}
    assert set(sweep["degree_patterns"]) == {"3", "1,2", "1,1,1"}
    assert sweep["skipped"] == [3]
    assert sum(sweep["degree_patterns"].values()) == sweep["n_primes"]


def test_one_squarefree_test_per_lattice_automorphism(monkeypatch):
    """Building a LatticeAutomorphism computes the discriminant once, for
    every seed, and the factorization reuses it; factor_over_Q called alone
    computes it once too."""
    calls = []
    real = catmap.discriminant

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(catmap, "discriminant", counting)
    for mat in (CAT2_DEFAULT, CAT4_DEFAULT, SP6_SEED, ((1, 0), (0, 1))):
        calls.clear()
        LatticeAutomorphism(mat)
        assert len(calls) == 1, mat
    calls.clear()
    assert factor_over_Q(SP6_SEED_CHARPOLY) == [SP6_SEED_CHARPOLY]
    assert len(calls) == 1


def test_ragged_and_empty_matrices_are_not_symplectic():
    assert not is_integer_symplectic([[1, 2], [3]])
    assert not is_integer_symplectic([[1, 0, 0], [0, 1, 0]])
    assert not is_integer_symplectic([])
    with pytest.raises(ValueError, match="square"):
        LatticeAutomorphism(((1, 2), (3,)))


def test_genericity_flags():
    # the cat map is hyperbolic, hence strongly generic
    A = LatticeAutomorphism(CAT2_DEFAULT)
    assert A.regular and A.strongly_generic and A.generic
    # the Weyl element is generic but not ergodic
    A = LatticeAutomorphism(((0, 1), (-1, 0)))
    assert A.generic and A.strongly_generic
    # the identity is not regular
    A = LatticeAutomorphism(((1, 0), (0, 1)))
    assert not A.regular and not A.generic
    # diag(B, B^-T) with det B = -1 preserves two Lagrangians: regular,
    # but the invariant isotropic subspaces kill genericity
    mat = (
        (1, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, -1),
    )
    A = LatticeAutomorphism(mat)
    assert A.regular
    assert not A.generic
    assert not A.strongly_generic


def test_cat4_default_is_strongly_generic():
    A = LatticeAutomorphism(CAT4_DEFAULT)
    assert A.regular and A.strongly_generic and A.generic
    assert A.charpoly == [1, -2, -2, -2, 1]


def test_skip_reasons():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    assert skip_reason(A, 2) is not None
    assert skip_reason(A, 3) is not None  # N = 1 exclusion
    assert "disc" in skip_reason(A, 5)
    assert skip_reason(A, 7) is None


def test_hecke_context_masks_agree_with_orbit_span():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    hc = HeckeContext(A, 11)
    sp = hc.space
    for k in range(0, len(hc.vmod), 7):
        v = tuple(int(x) for x in hc.vmod[k])
        assert bool(hc.admissible[k]) == orbit_spans_space(sp, hc.torus, v)


def test_que_experiment_p7():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    row = hecke_que_experiment(A, 7)
    assert row["skipped"] is None
    assert row["torus_order"] == 8  # inert: p + 1
    assert row["r_p"] == 1
    assert row["n_eigenstates"] == 7
    assert row["violations"] == 0
    # the spec bound 2 sqrt(7) / 8 with every |W| below it
    bound = 2 * math.sqrt(7) / 8
    assert row["max_ratio_plain"] <= 1 + 1e-9
    assert row["max_scaled_wigner"] <= bound * math.sqrt(7) * 8 / 8 + 1


def test_que_experiment_cat4_p11_two_blocks():
    """p = 11 is a rank-2 prime of cat4: the centralizer torus has a split
    and an inert block, and every check completes and passes."""
    A = LatticeAutomorphism(CAT4_DEFAULT)
    row = hecke_que_experiment(A, 11)
    assert row["skipped"] is None
    assert row["torus"] == "split+inert"
    assert row["r_p"] == 2
    assert row["n_eigenstates"] == 121
    assert row["n_xi"] - row["n_xi_excluded"] == 12_000
    assert row["violations"] == 0
    assert row["max_ratio"] <= 1 + 1e-9


def test_que_experiment_cat4_p19_beyond_the_old_table_limit():
    """Dimension 361, past the 343 at which the full Wigner table stopped:
    a split+inert torus, every check completes and passes."""
    row = hecke_que_experiment(LatticeAutomorphism(CAT4_DEFAULT), 19)
    assert row["torus"] == "split+inert"
    assert row["n_eigenstates"] == 361
    assert row["violations"] == 0
    assert row["max_ratio"] <= 1 + 1e-9


def test_que_zero_exponent_excluded():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    hc = HeckeContext(A, 7)
    assert all(v.any() for v in hc.vmod)
    assert len(hc.vmod) == 48  # p^2 - 1


@functools.lru_cache(maxsize=8)
def _dense(mat, p):
    """The dense path the experiments took before the character sums, as
    their test oracle: the explicit Weil representation, ``decompose``,
    and every eigenstate, multiplicity-1 states first in character order
    and then the larger eigenspaces in character order, the order of
    ``HeckeContext.state_wigner``."""
    A = LatticeAutomorphism(mat)
    space = symp.SympSpace(FieldCtx(p), A.N)
    torus = symp.centralizer_torus(space, A.mod_p(space))
    rep = WeilRep(space)
    dec = decompose(rep, torus)
    order = sorted(range(len(dec.characters)), key=lambda i: dec.multiplicities[i] > 1)
    states, chars, mults = [], [], []
    for i in order:
        B = dec.bases[i]
        for k in range(B.shape[1]):
            states.append(B[:, k])
            chars.append(tuple(dec.characters[i].tolist()))
            mults.append(B.shape[1])
    return SimpleNamespace(rep=rep, torus=torus, states=np.stack(states, axis=1),
                           state_char=chars, state_mult=mults)


def test_every_hecke_eigenstate_is_rho_A_eigenstate():
    """The states of the dense oracle at p = 7 (inert), and the states the
    context builds for the multiplicity-2 eigenspace at p = 11 (split)."""
    A = LatticeAutomorphism(CAT2_DEFAULT)
    dense = _dense(CAT2_DEFAULT, 7)
    hc = HeckeContext(A, 11)
    rep = WeilRep(hc.space)
    bases = split_quadratic_bases(rep, hc.torus, hc.mults)
    assert [B.shape[1] for B in bases.values()] == [2]
    for rep, A_mod, states in [(dense.rep, la.freeze(A.mod_p(dense.rep.space)), dense.states),
                               (rep, hc.A_mod, np.concatenate(list(bases.values()), axis=1))]:
        RA = rep.weil_op(A_mod)
        for s in range(states.shape[1]):
            phi = states[:, s]
            lam = phi.conj() @ (RA @ phi)
            assert np.linalg.norm(RA @ phi - lam * phi) < 1e-8


def test_statistical_states_p7():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    row = statistical_state_experiment(A, 7)
    assert row["violations"] == 0
    assert row["trace_deviation"] < 1e-10
    assert row["n_eigenspaces"] >= 1


def test_density_operators_commute_with_rho_A():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    dense = _dense(CAT2_DEFAULT, 11)
    A_mod = la.freeze(A.mod_p(dense.rep.space))
    RA = dense.rep.weil_op(A_mod)
    # rebuild one density operator from the eigenstate columns
    import collections

    groups = collections.defaultdict(list)
    exps_A = dense.torus.exponents_of(A_mod)
    L = math.lcm(*dense.torus.orders)
    for s, chi in enumerate(dense.state_char):
        phase = sum(
            e * j * (L // n) for e, j, n in zip(chi, exps_A, dense.torus.orders)
        ) % L
        groups[phase].append(s)
    assert len(groups) == statistical_state_experiment(A, 11)["n_eigenspaces"]
    for ids in groups.values():
        P = sum(np.outer(dense.states[:, s], dense.states[:, s].conj()) for s in ids)
        D = P / len(ids)
        assert abs(np.trace(D) - 1) < 1e-10
        assert np.abs(RA @ D - D @ RA).max() < 1e-9


def test_observable_bound_p7():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    out = observable_bound_check(A, 7)
    rows = [r for r in out["rows"] if "ok" in r]
    assert len(rows) == 3
    assert all(r["ok"] for r in rows)


# -- Wigner values on torus orbits against the full table -------------------------


def _vector_action(rep, mats):
    """For each matrix g, the permutation v -> gv of the vector indices
    a_idx * q^N + b_idx, found by lookup of the image rows."""
    L = gfq_vectors(rep.ctx, rep.N)
    vs = [a + b for a in L for b in L]
    assert all(rep.v_index(v) == i for i, v in enumerate(vs))
    C = np.array(vs, dtype=np.int64)
    p = rep.ctx.p
    weights = (p + 1) ** np.arange(C.shape[1])  # any injective encoding
    order = np.argsort(C @ weights)
    keys = (C @ weights)[order]
    return [
        order[np.searchsorted(keys, (C @ np.array(la.thaw(g), dtype=np.int64).T % p) @ weights)]
        for g in mats
    ]


def _dense_wigner(hc, on_orbits):
    """(W, weight) of the dense oracle's states: on the full Wigner table,
    one column per admissible window exponent (weight 1), as the
    experiments read it before the orbit reduction; or, where that table
    is too large, at the orbit representatives with the orbit weights, as
    they read it before the character sums."""
    dense = _dense(hc.A.mat, hc.p)
    if on_orbits:
        return dense.rep.wigner_at(dense.states, hc.orbit_reps), hc.orbit_weight
    adm = hc.admissible
    W = dense.rep.wigner_batch(dense.states)[:, hc.v_index[adm]]
    return W, np.ones(adm.sum(), dtype=np.int64)


def _que_row_from_table(hc, on_orbits=False):
    """The QUE numbers from the Wigner values of the dense oracle."""
    dense = _dense(hc.A.mat, hc.p)
    W, weight = _dense_wigner(hc, on_orbits)
    W = np.abs(W)
    bound = hc.bound
    ratios = W / (np.array(dense.state_mult)[:, None] * bound)
    return {
        "n_eigenstates": dense.states.shape[1],
        "n_xi": len(hc.vmod),
        "n_xi_excluded": int((~hc.admissible).sum()),
        "max_ratio": float(ratios.max()),
        "max_ratio_plain": float((W.max(axis=0) / bound).max()),
        "violations": int((ratios > 1 + 1e-9).sum(axis=0) @ weight),
        "max_scaled_wigner": float(W.max() * math.sqrt(hc.p**hc.N)),
    }


def _statistical_row_from_table(hc, on_orbits=False):
    """The statistical numbers from the dense oracle.  Its trace deviation
    is |Tr D - 1| from the state norms; the experiment's reads the
    multiplicity law instead, so each is checked against 1e-10 and not
    against the other."""
    dense = _dense(hc.A.mat, hc.p)
    table, weight = _dense_wigner(hc, on_orbits)
    exps_A = hc.torus.exponents_of(hc.A_mod)
    L = math.lcm(*hc.torus.orders)
    groups = {}
    for s, chi in enumerate(dense.state_char):
        phase = sum(e * j * (L // n) for e, j, n in zip(chi, exps_A, hc.torus.orders))
        groups.setdefault(phase % L, []).append(s)
    max_ratio, violations, trace_dev = 0.0, 0, 0.0
    for ids in groups.values():
        ratios = np.abs(table[ids].sum(axis=0) / len(ids)) / hc.bound
        max_ratio = max(max_ratio, float(ratios.max()))
        violations += int((ratios > 1 + 1e-9) @ weight)
        norms = np.linalg.norm(dense.states[:, ids], axis=0) ** 2
        trace_dev = max(trace_dev, abs(norms.sum() / len(ids) - 1.0))
    assert trace_dev < 1e-10
    return {
        "n_eigenspaces": len(groups),
        "max_ratio": max_ratio,
        "violations": violations,
    }


def _assert_rows_agree(row, ref):
    for key, value in ref.items():
        if isinstance(value, float):
            assert row[key] == pytest.approx(value, rel=1e-12, abs=0), key
        else:
            assert row[key] == value, key


ORBIT_CASES = [(CAT2_DEFAULT, 7), (CAT2_DEFAULT, 13), (CAT4_DEFAULT, 7), (CAT4_DEFAULT, 11),
               (CAT4_DEFAULT, 13)]
ORBIT_IDS = ["cat2-p7", "cat2-p13", "cat4-p7", "cat4-p11", "cat4-p13"]


@pytest.mark.parametrize("mat,p", ORBIT_CASES, ids=ORBIT_IDS)
def test_wigner_values_are_constant_on_torus_orbits(mat, p):
    """W_phi(gv) = W_phi(v) for every generator g on the full table, and
    the orbit values are the table's values at every admissible window
    exponent, both to 1e-12."""
    hc = HeckeContext(LatticeAutomorphism(mat), p)
    dense = _dense(mat, p)
    table = dense.rep.wigner_batch(dense.states)
    for perm in _vector_action(dense.rep, hc.torus.generators):
        assert max_abs(table[:, perm] - table) < 1e-12
    adm = hc.admissible
    W, mults = hc.state_wigner()
    assert np.array_equal(mults, dense.state_mult)
    assert max_abs(W - table[:, hc.orbit_reps]) < 1e-12
    assert max_abs(W[:, hc.xi_orbit[adm]] - table[:, hc.v_index[adm]]) < 1e-12
    assert np.all(hc.xi_orbit[~adm] == -1)


@pytest.mark.parametrize("mat,p", ORBIT_CASES, ids=ORBIT_IDS)
def test_orbit_classes_are_closed_and_weighted_by_the_window(mat, p):
    hc = HeckeContext(LatticeAutomorphism(mat), p)
    labels = torus_orbit_minima(hc.torus)
    for perm in _vector_action(WeilRep(hc.space), hc.torus.generators):
        assert np.array_equal(labels[perm], labels)
    assert np.all(labels <= np.arange(len(labels)))
    sizes = np.unique(labels, return_counts=True)[1]
    assert np.all(hc.torus.order % sizes == 0)
    assert np.array_equal(labels[hc.orbit_reps], hc.orbit_reps)
    assert hc.orbit_weight.sum() == hc.admissible.sum()


def test_orbit_minima_match_the_orbit_over_every_torus_element():
    hc = HeckeContext(LatticeAutomorphism(CAT4_DEFAULT), 7)
    perms = _vector_action(WeilRep(hc.space), _element_keys(hc.torus))
    assert np.array_equal(torus_orbit_minima(hc.torus), np.min(perms, axis=0))


def test_orbit_minima_of_the_sp6_seed_match_the_orbit_over_every_torus_element():
    """N = 3: each coordinate's axis on the broadcast index grid is read
    from its place value, for three a and three b coordinates."""
    hc = HeckeContext(LatticeAutomorphism(SP6_SEED), 5)
    perms = _vector_action(WeilRep(hc.space), _element_keys(hc.torus))
    assert np.array_equal(torus_orbit_minima(hc.torus), np.min(perms, axis=0))


BOUND_CASES = [(CAT2_DEFAULT, 7, None), (CAT2_DEFAULT, 13, None), (CAT4_DEFAULT, 7, None),
               (CAT4_DEFAULT, 11, None), (CAT4_DEFAULT, 19, None), (CAT2_DEFAULT, 11, 14),
               (CAT4_DEFAULT, 11, 9), (SP6_SEED, 5, None)]
BOUND_IDS = ["cat2-p7", "cat2-p13", "cat4-p7", "cat4-p11", "cat4-p19", "cat2-p11-xi14",
             "cat4-p11-xi9", "sp6-p5"]


@pytest.mark.parametrize("mat,p,xi_max", BOUND_CASES, ids=BOUND_IDS)
def test_admissible_exponents_meet_every_block(mat, p, xi_max):
    """Every block idempotent is a sum of the primitive idempotents that
    the admissibility mask tests, so E v != 0 for every block at every
    admissible window exponent, and the product over the blocks that v
    meets of 2 sqrt(p^d) / |T_alpha|, taken per exponent in block order,
    is the context's one bound, exactly."""
    hc = HeckeContext(LatticeAutomorphism(mat), p, xi_max)
    V = hc.vmod[hc.admissible]
    assert len(V) > 0
    bounds = np.ones(len(V))
    ms = symp.module_structure(hc.torus)
    # the blocks in the order of the generators that move them, which is
    # the order of the torus blocks
    for (_, T), blk in sorted(zip(ms.block_tori(), ms.blocks), key=lambda pair: pair[0][0]):
        meets = (V @ np.array(la.thaw(blk.idempotent), dtype=np.int64).T % p).any(axis=1)
        assert meets.all()
        bounds = np.where(meets, bounds * (2 * math.sqrt(p**blk.degree) / T.order), bounds)
    assert np.all(bounds == hc.bound)


WINDOW_CASES = BOUND_CASES + [(CAT4_DEFAULT, p, None) for p in (3, 13, 31)]
WINDOW_IDS = BOUND_IDS + ["cat4-p3", "cat4-p13", "cat4-p31"]


@pytest.mark.parametrize("mat,p,xi_max", WINDOW_CASES, ids=WINDOW_IDS)
def test_orbit_admissibility_matches_the_per_vector_mask(mat, p, xi_max):
    """The window indices from the broadcast grid are the per-vector base-p
    sums of the reduced exponents, in window order; admissibility tested on
    one vector per orbit is the per-vector ``admissible_mask``; and the orbit
    representatives, weights and window map are those of ``np.unique`` on
    the orbit labels of the admissible window entries."""
    A = LatticeAutomorphism(mat)
    hc = HeckeContext(A, p, xi_max)
    n, N = 2 * A.N, A.N
    XI = np.indices((xi_max or p,) * n).reshape(n, -1).T % p
    vmod = XI[XI.any(axis=1)]
    qpow = p ** np.arange(N)
    assert np.array_equal(hc.v_index, (vmod[:, :N] @ qpow) * p**N + vmod[:, N:] @ qpow)
    assert np.array_equal(hc.vmod, vmod)
    mask = admissible_mask(hc.torus, vmod)
    assert np.array_equal(hc.admissible, mask)
    labels = torus_orbit_minima(hc.torus)[hc.v_index[mask]]
    reps, inverse, weight = np.unique(labels, return_inverse=True, return_counts=True)
    assert np.array_equal(hc.orbit_reps, reps)
    assert np.array_equal(hc.orbit_weight, weight)
    assert np.array_equal(hc.xi_orbit[mask], inverse)
    assert np.all(hc.xi_orbit[~mask] == -1)


@pytest.mark.parametrize(
    "mat,p,xi_max,tight",
    [
        (CAT2_DEFAULT, 7, None, False),
        (CAT2_DEFAULT, 13, 11, True),
        (CAT2_DEFAULT, 11, 14, True),
        (CAT4_DEFAULT, 7, None, True),
        (CAT4_DEFAULT, 11, 9, False),
        (CAT4_DEFAULT, 7, 10, True),
        (CAT4_DEFAULT, 13, None, False),
    ],
    ids=["cat2-p7", "cat2-p13-xi11", "cat2-p11-xi14", "cat4-p7-tight", "cat4-p11-xi9",
         "cat4-p7-xi10", "cat4-p13"],
)
def test_orbit_rows_match_the_table_reference(mat, p, xi_max, tight):
    """Window exponents outside [0, p) repeat vectors and a window below p
    misses some, so violations count window exponents, not orbits.  A
    tight case halves the bound of the context both experiments read, so
    that many (state, exponent) pairs violate it and the violation counts
    are exercised."""
    A = LatticeAutomorphism(mat)
    hc = HeckeContext(A, p, xi_max)
    if tight:
        hc.bound /= 2
    que_ref = _que_row_from_table(hc)
    if tight:
        assert que_ref["violations"] > 0
    _assert_rows_agree(hecke_que_experiment(A, p, xi_max, context=hc), que_ref)
    stat = statistical_state_experiment(A, p, xi_max, context=hc)
    _assert_rows_agree(stat, _statistical_row_from_table(hc))
    assert stat["trace_deviation"] < 1e-10


def _observable_rows_from_table(A, p, hc):
    """The observable check from the Wigner values of the dense oracle."""
    dense = _dense(A.mat, p)
    rows = []
    for obs in default_observables(A.N):
        a0 = complex(obs.get((0,) * (2 * A.N), 0.0))
        acc = np.full(dense.states.shape[1], a0)
        rhs = 0.0
        for xi, coeff in obs.items():
            if any(x % p for x in xi):
                k = np.flatnonzero((hc.vmod == np.array(xi) % p).all(axis=1))[0]
                if not hc.admissible[k]:
                    rows.append(None)
                    break
                acc += coeff * dense.rep.wigner_at(dense.states, hc.v_index[[k]])[:, 0]
                rhs += abs(coeff) * hc.bound
        else:
            lhs = float(np.abs(acc - a0).max())
            rows.append({"max_deviation": lhs, "bound": rhs, "ok": lhs <= rhs + 1e-9})
    return rows


def _assert_observables_agree(A, p, hc=None):
    out = observable_bound_check(A, p, context=hc)
    ref = _observable_rows_from_table(A, p, hc or HeckeContext(A, p))
    assert len(out["rows"]) == len(ref) == 3
    for row, want in zip(out["rows"], ref):
        if want is None:
            assert row["skipped"] == "inadmissible exponent"
            continue
        assert row["max_deviation"] == pytest.approx(want["max_deviation"], rel=1e-12, abs=0)
        assert row["bound"] == want["bound"]
        assert row["ok"] == want["ok"]


def test_observable_rows_match_the_table_reference():
    _assert_observables_agree(LatticeAutomorphism(CAT2_DEFAULT), 7)


#: every usable prime of criterion 12, the cat map to 97, and the Sp(6) seed
DENSE_CASES = (
    [("cat4", p) for p in (3, 7, 11, 13, 17, 19, 23)]
    + [("cat2", p) for p in primes_up_to(97)[3:]]
    + [("sp6", 5), ("sp6", 7)]
)


@pytest.mark.parametrize("name,p", DENSE_CASES, ids=[f"{n}-p{p}" for n, p in DENSE_CASES])
def test_rows_match_the_dense_oracle(name, p):
    """QUE, statistical and observable rows from the character sums equal
    those of the dense representation: integers exactly, floats to 1e-12
    relative."""
    mat = {"cat2": CAT2_DEFAULT, "cat4": CAT4_DEFAULT, "sp6": SP6_SEED}[name]
    A = LatticeAutomorphism(mat)
    assert skip_reason(A, p) is None
    hc = HeckeContext(A, p)
    _assert_rows_agree(hecke_que_experiment(A, p, context=hc), _que_row_from_table(hc, True))
    stat = statistical_state_experiment(A, p, context=hc)
    _assert_rows_agree(stat, _statistical_row_from_table(hc, True))
    assert stat["trace_deviation"] < 1e-10
    _assert_observables_agree(A, p, hc)
    _dense.cache_clear()


def _count_weil_reps(monkeypatch):
    built = []
    real = heiwei.WeilRep.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(heiwei.WeilRep, "__init__", counting)
    return built


def test_only_multiplicity_two_eigenspaces_build_a_weil_representation(monkeypatch):
    """Above ``OPERATOR_CHECK_DIM`` the statistical experiment builds no
    Weil representation at all.  QUE builds none where no character has
    multiplicity 2 or more (cat4 at p = 23, the Sp(6) seed at p = 5, the cat
    map at inert p = 37) and one where some has (the cat map at split
    p = 29).  At or below the bound the context builds one, for the trace
    check of the generators, and nothing else does."""
    built = _count_weil_reps(monkeypatch)
    cat2, cat4, sp6 = (LatticeAutomorphism(m) for m in (CAT2_DEFAULT, CAT4_DEFAULT, SP6_SEED))
    for A, p in [(cat2, 29), (cat2, 37), (cat4, 7), (cat4, 11), (sp6, 5)]:
        assert p**A.N > OPERATOR_CHECK_DIM
        statistical_state_experiment(A, p)
    assert built == []
    for A, p in [(cat4, 23), (sp6, 5), (cat2, 37)]:
        hc = HeckeContext(A, p)
        assert not np.any(hc.mults >= 2)
        hecke_que_experiment(A, p, context=hc)
    assert built == []
    hecke_que_experiment(cat2, 29)
    assert len(built) == 1
    for p in (7, 11):
        assert p <= OPERATOR_CHECK_DIM
        statistical_state_experiment(cat2, p)
    assert len(built) == 3


def test_small_contexts_check_the_generator_traces(monkeypatch):
    """The operator check compares the trace of every power of a generator's
    Weil operator with the character of rho, so it refuses a character
    that is wrong at the square of a generator only."""
    A = LatticeAutomorphism(CAT2_DEFAULT)
    hc = HeckeContext(A, 7)
    assert hc.torus.orders == [8]
    real = catmap.weil_traces

    def wrong_at_the_square(torus):
        traces = real(torus).copy()
        traces[np.ravel_multi_index((2,), torus.orders)] *= -1
        return traces

    monkeypatch.setattr(catmap, "weil_traces", wrong_at_the_square)
    with pytest.raises(RuntimeError, match="generator 0 to the power 2 contradicts the character of rho"):
        HeckeContext(A, 7)


# -- one context per prime ----------------------------------------------------------


def _count_builds(monkeypatch):
    """Record a weak reference to every ``HeckeContext`` built, wherever
    the class is used from."""
    built = []
    real = HeckeContext.__init__

    def counting(self, *args, **kwargs):
        built.append(weakref.ref(self))
        real(self, *args, **kwargs)

    monkeypatch.setattr(HeckeContext, "__init__", counting)
    return built


EXPERIMENTS = (hecke_que_experiment, statistical_state_experiment, observable_bound_check)


def test_experiments_read_a_passed_context(monkeypatch):
    built = _count_builds(monkeypatch)
    A = LatticeAutomorphism(CAT2_DEFAULT)
    hc = HeckeContext(A, 13)
    for run in EXPERIMENTS:
        run(A, 13, context=hc)
    assert len(built) == 1


def test_without_a_context_each_experiment_builds_its_own_and_keeps_none(monkeypatch):
    built = _count_builds(monkeypatch)
    A = LatticeAutomorphism(CAT2_DEFAULT)
    for run in EXPERIMENTS:
        run(A, 13)
    assert len(built) == len(EXPERIMENTS)
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize(
    "mat,p", [(CAT2_DEFAULT, 11), (CAT4_DEFAULT, 7)], ids=["cat2-p11", "cat4-p7"]
)
def test_rows_from_a_shared_context_equal_rows_from_fresh_ones(mat, p):
    A = LatticeAutomorphism(mat)
    hc = HeckeContext(A, p)
    assert [run(A, p, context=hc) for run in EXPERIMENTS] == [run(A, p) for run in EXPERIMENTS]


def test_a_context_for_another_prime_window_or_matrix_is_refused():
    cat2 = LatticeAutomorphism(CAT2_DEFAULT)
    hc = HeckeContext(cat2, 7)
    assert hecke_que_experiment(cat2, 7, 7, context=hc) == hecke_que_experiment(cat2, 7)
    for A, p, xi_max in [(cat2, 13, None), (cat2, 7, 5), (LatticeAutomorphism(CAT4_DEFAULT), 7, None)]:
        with pytest.raises(ValueError, match="another automorphism"):
            statistical_state_experiment(A, p, xi_max, context=hc)
    with pytest.raises(ValueError, match="another automorphism"):
        observable_bound_check(cat2, 13, context=hc)


# -- the norm-one generator search ---------------------------------------------------


def _count_order_tests(monkeypatch):
    """Record the order of every generator order test."""
    calls = []
    real = symp._order_test

    def counting(ctx, c, order, mod):
        calls.append(order)
        return real(ctx, c, order, mod)

    monkeypatch.setattr(symp, "_order_test", counting)
    return calls


def test_norm_one_search_skips_the_constants(monkeypatch):
    """The search from the first non-constant encoding finds the
    generators the search from encoding 2 finds, with fewer order tests
    (counted over the whole centralizer, split blocks included).  The
    oracle is ``symp._least_unit`` with every search started at 2, which
    also tries every constant in the norm-one search."""
    calls = _count_order_tests(monkeypatch)
    least_unit = symp._least_unit

    def least_unit_from_two(ctx, f, power, order, start):
        return least_unit(ctx, f, power, order, 2)

    cases = [(CAT2_DEFAULT, p) for p in primes_up_to(97)]
    cases += [(CAT4_DEFAULT, p) for p in primes_up_to(31)] + [(SP6_SEED, 5), (SP6_SEED, 7)]
    tests = {}
    for mat, p in cases:
        A = LatticeAutomorphism(mat)
        if skip_reason(A, p) is not None:
            continue
        space = symp.SympSpace(FieldCtx(p), A.N)
        calls.clear()
        torus = symp.centralizer_torus(space, A.mod_p(space))
        n_new = len(calls)
        with monkeypatch.context() as m:
            m.setattr(symp, "_least_unit", least_unit_from_two)
            calls.clear()
            oracle = symp.centralizer_torus(space, A.mod_p(space))
        assert torus.generators == oracle.generators, (mat, p)
        assert n_new <= len(calls)
        tests[(A.N, p)] = (len(calls), n_new)
    assert tests[(1, 97)] == (97, 2)
    assert tests[(2, 31)] == (34, 5)
    assert {(3, 5), (3, 7)} <= set(tests)


@pytest.mark.parametrize(
    "mat,ps",
    [
        (CAT2_DEFAULT, primes_up_to(97)),
        (CAT4_DEFAULT, primes_up_to(31)),
        (SP6_SEED, primes_up_to(13)),
        (SP8_SEED, [3, 11]),
    ],
)
def test_charpoly_blocks_are_the_centralizer_blocks(mat, ps):
    """The blocks read off the characteristic polynomial mod p are those
    of the centralizer torus, at every usable prime: both come from
    ``symp._block_classes``."""
    A = LatticeAutomorphism(mat)
    n_usable = 0
    for p in ps:
        if skip_reason(A, p) is not None:
            continue
        space = symp.SympSpace(FieldCtx(p), A.N)
        blocks, r = symp.rank_from_charpoly(space.ctx, gfq.poly_from_ints(space.ctx, A.charpoly))
        torus = symp.centralizer_torus(space, A.mod_p(space))
        assert blocks == torus.blocks and r == len(torus.orders), p
        assert torus.orders == [b.order for b in blocks], p
        n_usable += 1
    assert n_usable >= 2


def test_split_prime_excludes_eigen_directions():
    # p = 11 splits the cat map (disc 5 is a QR mod 11)
    A = LatticeAutomorphism(CAT2_DEFAULT)
    row = hecke_que_experiment(A, 11)
    assert row["torus_order"] == 10
    assert row["n_xi_excluded"] == 2 * 10  # two eigenlines minus origin
    assert row["violations"] == 0


def test_rank_density_cat2_trivial():
    A = LatticeAutomorphism(CAT2_DEFAULT)
    sweep = rank_density_sweep(A, 500)
    assert set(sweep["freqs"]) == {1}
    assert sweep["freqs"][1] == 1.0
    assert 5 in sweep["skipped"]


def test_rank_density_cat4_half_half():
    A = LatticeAutomorphism(CAT4_DEFAULT)
    sweep = rank_density_sweep(A, 4000)
    assert set(sweep["freqs"]) == {1, 2}
    assert abs(sweep["freqs"][1] - 0.5) < 0.06
    assert abs(sweep["freqs"][2] - 0.5) < 0.06
    assert sum(sweep["freqs"].values()) == pytest.approx(1.0)


def _oracle_rank_sweep(A, max_prime):
    """The sweep by full factorization of the characteristic polynomial."""
    from weilrep import gfq
    from weilrep.gfq import FieldCtx
    from weilrep.symp import rank_from_charpoly, trace_polynomial

    counts, half_counts, patterns, skipped = {}, {}, {}, []
    for p in primes_up_to(max_prime)[1:]:
        ctx = FieldCtx(p)
        cp = gfq.poly_from_ints(ctx, A.charpoly)
        if not gfq.is_squarefree(ctx, cp):
            skipped.append(p)
            continue
        _, r = rank_from_charpoly(ctx, cp)
        counts[r] = counts.get(r, 0) + 1
        h = gfq.poly_from_ints(ctx, trace_polynomial(A.charpoly))
        key = ",".join(str(d) for d in sorted(gfq.poly_deg(g) for g in gfq.factor_poly(ctx, h)))
        patterns[key] = patterns.get(key, 0) + 1
        if p <= max_prime // 2:
            half_counts[r] = half_counts.get(r, 0) + 1
    used, half_used = sum(counts.values()), sum(half_counts.values())
    return {
        "max_prime": max_prime,
        "n_primes": used,
        "skipped": skipped,
        "counts": counts,
        "freqs": {r: c / used for r, c in sorted(counts.items())},
        "half_freqs": {r: c / half_used for r, c in sorted(half_counts.items())},
        "degree_patterns": patterns,
    }


def test_rank_density_sweep_matches_full_factorization():
    A = LatticeAutomorphism(CAT4_DEFAULT)
    sweep = rank_density_sweep(A, 2000)
    oracle = _oracle_rank_sweep(A, 2000)
    assert sweep == oracle
    # the same key order too, which the JSON report keeps
    assert list(sweep["counts"]) == list(oracle["counts"])


def test_rank_density_requires_regular():
    ident = LatticeAutomorphism(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        rank_density_sweep(ident, 100)


def test_default_observables_shapes():
    obs = default_observables(2)
    assert len(obs) == 3
    for o in obs:
        assert all(len(xi) == 4 for xi in o)


def test_rank_paths_agree_at_experiment_primes():
    """The cheap characteristic polynomial rank equals the module-structure
    rank of the Hecke torus wherever both run."""
    from weilrep.symp import module_structure, rank_from_charpoly
    from weilrep import gfq

    A = LatticeAutomorphism(CAT2_DEFAULT)
    for p in (7, 11, 13):
        hc = HeckeContext(A, p)
        ctx = hc.ctx
        cp = gfq.poly_trim(ctx, [ctx.el(c) for c in A.charpoly])
        _, r_cheap = rank_from_charpoly(ctx, cp)
        ms = module_structure(hc.torus)
        assert r_cheap == ms.rank == hc.rank


@pytest.mark.parametrize("xi_max", [1, 0, -3])
def test_hecke_context_refuses_a_window_without_a_nonzero_exponent(xi_max):
    with pytest.raises(ValueError, match="no nonzero exponent"):
        HeckeContext(LatticeAutomorphism(CAT2_DEFAULT), 7, xi_max)


@pytest.mark.parametrize("mat,p", [(SP8_SEED, 11), (SP8_SEED, 13), (SP6_SEED, 19)],
                         ids=["sp8-11", "sp8-13", "sp6-19"])
def test_a_label_grid_past_the_budget_is_refused_before_any_allocation(mat, p):
    """p^(2N) past ``LABEL_GRID_BUDGET`` raises MemoryError naming p, N and
    the budget at once, and the sweep worker turns it into the prime's error
    row; the Sp(6) seed at p = 17 stays within the budget."""
    from weilrep.cli import _que_worker

    A = LatticeAutomorphism(mat)
    assert 17 ** (2 * 3) <= catmap.LABEL_GRID_BUDGET < p ** (2 * A.N)
    start = time.perf_counter()
    with pytest.raises(MemoryError, match=f"^p = {p}, N = {A.N}: .* the budget of 33554432 \\(2\\^25\\)$"):
        HeckeContext(A, p)
    assert time.perf_counter() - start < 0.5
    row = _que_worker((A, p, None, False))
    assert (row["p"], row["error"]) == (p, "MemoryError")
