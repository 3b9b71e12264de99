"""Heisenberg and Weil operators, character formulas, self-reducibility."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catmap import SP6_SEED
from test_symp import _coords_by_omega_bar, _embed_sl2_by_columns

from weilrep import fqlin as la
from weilrep import heiwei
from weilrep.gfq import FieldCtx
from weilrep import symp
from weilrep.catmap import CAT4_DEFAULT, LatticeAutomorphism
from weilrep.heiwei import (
    WeilRep,
    character_form,
    character_forms,
    heisenberg_compose,
    heisenberg_identity,
    heisenberg_inverse,
    is_unitary,
    _intertwiner,
    _random_sl2,
    max_abs,
    prime_coords,
    restrict_to_extension,
    torus_character_forms,
    trace_form_gram,
)
from weilrep.spectra import character_values, torus_characters
from weilrep.sums import admissible_mask, c_chi_table
from weilrep.symp import (
    SympSpace,
    assert_symplectic,
    build_maximal_torus,
    centralizer_torus,
    module_structure,
    random_symplectic,
    restrict_scalars,
    transvection,
)


def make_rep(p, N, m=1):
    return WeilRep(SympSpace(FieldCtx(p, m), N))


def test_heisenberg_compose_examples():
    sp = SympSpace(FieldCtx(5), 1)
    ctx = sp.ctx
    h = ((ctx.el(2), ctx.el(3)), ctx.el(1))
    assert heisenberg_compose(sp, h, heisenberg_identity(sp)) == h
    v = ((ctx.el(1), ctx.el(2)), ctx.zero)
    assert heisenberg_compose(sp, v, heisenberg_inverse(sp, v)) == heisenberg_identity(sp)
    # ((1,0),0) * ((0,1),0) = ((1,1), 3):  (1/2) omega = 3 since 2^-1 = 3 mod 5
    e1 = ((ctx.one, ctx.zero), ctx.zero)
    e2 = ((ctx.zero, ctx.one), ctx.zero)
    assert heisenberg_compose(sp, e1, e2) == ((ctx.one, ctx.one), ctx.el(3))


def test_heisenberg_associativity():
    sp = SympSpace(FieldCtx(7), 2)
    ctx = sp.ctx
    rng = random.Random(0)
    for _ in range(50):
        hs = []
        for _ in range(3):
            v = tuple(ctx.from_int(rng.randrange(7)) for _ in range(4))
            hs.append((v, ctx.from_int(rng.randrange(7))))
        a, b, c = hs
        lhs = heisenberg_compose(sp, heisenberg_compose(sp, a, b), c)
        rhs = heisenberg_compose(sp, a, heisenberg_compose(sp, b, c))
        assert lhs == rhs


def test_pi_is_representation():
    rep = make_rep(5, 1)
    sp, ctx = rep.space, rep.ctx
    rng = random.Random(1)
    for _ in range(30):
        h1 = (tuple(ctx.from_int(rng.randrange(5)) for _ in range(2)), ctx.from_int(rng.randrange(5)))
        h2 = (tuple(ctx.from_int(rng.randrange(5)) for _ in range(2)), ctx.from_int(rng.randrange(5)))
        prod = heisenberg_compose(sp, h1, h2)
        assert max_abs(rep.pi_op(h1) @ rep.pi_op(h2) - rep.pi_op(prod)) < 1e-12


def test_pi_central_character_and_unitarity():
    rep = make_rep(7, 1)
    ctx = rep.ctx
    zero_v = tuple([ctx.zero] * 2)
    for z in range(7):
        op = rep.pi_op((zero_v, ctx.el(z)))
        assert max_abs(op - ctx.psi(ctx.el(z)) * np.eye(7)) < 1e-12
    rng = random.Random(2)
    for _ in range(20):
        v = tuple(ctx.from_int(rng.randrange(7)) for _ in range(2))
        op = rep.pi_op((v, ctx.zero))
        assert is_unitary(op, rep.tol)
        if any(x != ctx.zero for x in v):
            assert abs(np.trace(op)) < 1e-12


def test_pi_multiplication_rule():
    # pi(v,0) pi(v',0) = psi((1/2) omega(v,v')) pi(v+v',0)
    rep = make_rep(5, 2)
    ctx = rep.ctx
    rng = random.Random(3)
    for _ in range(20):
        v = tuple(ctx.from_int(rng.randrange(5)) for _ in range(4))
        w = tuple(ctx.from_int(rng.randrange(5)) for _ in range(4))
        lhs = rep.pi_op((v, ctx.zero)) @ rep.pi_op((w, ctx.zero))
        phase = ctx.psi(rep.mul_half(rep.space.omega(list(v), list(w))))
        vw = tuple(ctx.add(a, b) for a, b in zip(v, w))
        assert max_abs(lhs - phase * rep.pi_op((vw, ctx.zero))) < 1e-12


def test_operator_basis_orthogonality():
    rep = make_rep(5, 1)
    ctx = rep.ctx
    vs = list(rep.all_vectors())
    for v in vs:
        for w in vs:
            val = np.trace(rep.pi_op((v, ctx.zero)) @ rep.pi_op((w, ctx.zero)).conj().T)
            expect = rep.dim if v == w else 0.0
            assert abs(val - expect) < 1e-10


def test_ch_rho_examples():
    rep = make_rep(5, 1)
    ctx = rep.ctx
    g = [[ctx.el(2), ctx.zero], [ctx.zero, ctx.el(3)]]
    # det(g - I) = 1 * 2 = 2, sigma(-2) = sigma(3) = -1
    assert rep.ch_rho(g) == -1
    minus_I = [[ctx.el(-1), ctx.zero], [ctx.zero, ctx.el(-1)]]
    # sigma(-det(-2I)) = sigma(-4) = sigma(1) = +1
    assert rep.ch_rho(minus_I) == 1
    # rank 0: Tr rho(I) = q^N
    assert rep.ch_rho(la.identity(ctx, 2)) == 5


def test_ch_tau_factors_central_part():
    rep = make_rep(5, 1)
    ctx = rep.ctx
    g = [[ctx.el(2), ctx.zero], [ctx.zero, ctx.el(3)]]
    zero_v = (ctx.zero, ctx.zero)
    for z in range(5):
        val = rep.ch_tau(g, (zero_v, ctx.el(z)))
        assert abs(val - rep.ch_rho(g) * ctx.psi(ctx.el(z))) < 1e-12


def test_weil_identity_and_minus_I():
    rep = make_rep(5, 1)
    ctx = rep.ctx
    assert max_abs(rep.weil_op(la.identity(ctx, 2)) - np.eye(5)) < rep.tol
    minus_I = [[ctx.el(-1), ctx.zero], [ctx.zero, ctx.el(-1)]]
    R = rep.weil_op(minus_I)
    assert abs(np.trace(R) - 1.0) < 1e-9
    # rho(-I) is the parity operator: squares to the identity, and its trace
    # 1 = 3 - 2 matches the even/odd function space split of dimension 5
    assert max_abs(R @ R - np.eye(5)) < rep.tol
    evals = np.linalg.eigvalsh((R + R.conj().T) / 2)
    assert sum(1 for ev in evals if ev > 0) == 3
    assert sum(1 for ev in evals if ev < 0) == 2


@pytest.mark.parametrize("p,N", [(5, 1), (7, 1), (5, 2)])
def test_weil_invariants_sampled(p, N):
    """Egorov, homomorphism, unitarity, adjoint of inverse, trace formula."""
    rep = make_rep(p, N)
    sp, ctx = rep.space, rep.ctx
    rng = random.Random(7)
    for _ in range(25):
        g = random_symplectic(sp, rng)
        h = random_symplectic(sp, rng)
        Rg = rep.weil_op(g)
        Rh = rep.weil_op(h)
        assert is_unitary(Rg, rep.tol)
        assert max_abs(Rg @ Rh - rep.weil_op(la.mat_mul(ctx, g, h))) < rep.tol
        assert max_abs(rep.weil_op(la.inv(ctx, g)) - Rg.conj().T) < rep.tol
        v = tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(2 * N))
        z = ctx.from_int(rng.randrange(ctx.q))
        gv = tuple(la.mat_vec(ctx, g, list(v)))
        egorov = Rg @ rep.pi_op((v, z)) @ Rg.conj().T - rep.pi_op((gv, z))
        assert max_abs(egorov) < rep.tol
        assert abs(np.trace(Rg) - rep.ch_rho(g)) < rep.tol


def weil_op_by_factorization(rep, g, rng):
    """rho(g) = rho(g r^-1) rho(r) for a random symplectic r with both
    factors generic (det(h - I) != 0), where the character formula is
    sigma((-1)^N det(h - I)) psi((1/2) omega((h - I)^(-1) v, v)): the
    oracle of ``weil_op`` at elements with det(g - I) = 0."""
    ctx = rep.ctx
    g = la.thaw(g)
    for _ in range(64):
        r = random_symplectic(rep.space, rng)
        g1 = la.mat_mul(ctx, g, la.inv(ctx, r))
        if all(_character_form_oracle(rep.space, h)[0] is not None for h in (r, g1)):
            return rep.weil_op(g1) @ rep.weil_op(r)
    raise AssertionError("no generic factorization found after 64 draws")


def f_p_rank(space, g):
    """rank(g - I) over F_p."""
    ctx = space.ctx
    X = (restrict_scalars(ctx, [la.thaw(g)]) - np.eye(space.dim * ctx.m, dtype=np.int64)) % ctx.p
    return int(la.stack_row_reduce(X, ctx.p)[0][0].sum())


def assert_matches_the_oracle(rep, g, rng):
    """weil_op(g) against the factorization oracle, Tr rho(g) against
    ch_rho(g), and Tr(rho(g) pi(v, z)) against ch_tau at random v and at
    random v in Im(g - I); at odd rank over p = 3 mod 4 the trace is
    imaginary."""
    ctx = rep.ctx
    R = rep.weil_op(g)
    assert max_abs(R - weil_op_by_factorization(rep, g, rng)) < rep.tol
    trace = rep.ch_rho(g)
    assert abs(np.trace(R) - trace) < rep.tol
    for _ in range(3):
        u = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(rep.space.dim)]
        gu = la.mat_vec(ctx, la.thaw(g), u)
        for v in (tuple(u), tuple(ctx.sub(a, b) for a, b in zip(gu, u))):
            h = (v, ctx.from_int(rng.randrange(ctx.q)))
            assert abs(rep.ch_tau(g, h) - np.einsum("ij,ji->", R, rep.pi_op(h))) < rep.tol
    rank = f_p_rank(rep.space, g)
    assert abs(abs(trace) - rep.ctx.p ** ((rep.space.dim * rep.ctx.m - rank) / 2)) < rep.tol
    if rank % 2 and rep.ctx.p % 4 == 3:
        assert abs(trace.real) < rep.tol
    else:
        assert abs(trace.imag) < rep.tol
    return rank


def product_of_transvections(space, rng, k):
    """A product of k symplectic transvections along random vectors: g - I
    has rank at most k over GF(q), and rank k for generic vectors."""
    ctx = space.ctx
    g = la.identity(ctx, space.dim)
    for _ in range(k):
        u = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(space.dim)]
        lam = ctx.from_int(rng.randrange(1, ctx.q))
        g = la.mat_mul(ctx, g, transvection(space, u, lam))
    return g


ORACLE_FIELDS = [(3, 1, 2), (5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2),
                 (5, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("p,m,N", ORACLE_FIELDS, ids=[f"{p}^{m}-N{N}" for p, m, N in ORACLE_FIELDS])
def test_weil_op_matches_the_factorization_oracle_at_every_rank(p, m, N):
    """Every rank of g - I over F_p, m times its rank over GF(q): from the
    identity (rank 0) through transvections and their products to generic
    elements."""
    rep = make_rep(p, N, m)
    rng = random.Random(p * 100 + m * 10 + N)
    for k in range(2 * N + 1):
        g = product_of_transvections(rep.space, rng, k)
        while f_p_rank(rep.space, g) != m * k:
            g = product_of_transvections(rep.space, rng, k)
        assert assert_matches_the_oracle(rep, g, rng) == m * k


def test_weil_op_non_generic_fallback():
    """Transvections have det(g - I) = 0 and rank 1; their operator equals
    the factorization oracle's and satisfies Egorov."""
    rep = make_rep(7, 1)
    sp, ctx = rep.space, rep.ctx
    rng = random.Random(11)
    g = transvection(sp, [ctx.one, ctx.zero], ctx.el(2))
    assert assert_matches_the_oracle(rep, g, rng) == 1
    R = rep.weil_op(g)
    for _ in range(5):
        v = tuple(ctx.from_int(rng.randrange(7)) for _ in range(2))
        gv = tuple(la.mat_vec(ctx, g, list(v)))
        assert max_abs(R @ rep.pi_op((v, ctx.zero)) @ R.conj().T - rep.pi_op((gv, ctx.zero))) < rep.tol


TORUS_GENERATOR_CASES = [(p, kind) for p in (3, 5, 7, 11, 13) for kind in
                         [["split", "split"], ["split", "inert"], ["inert", "inert"],
                          [("split", 2)], ["irreducible2"]]]


@pytest.mark.parametrize(
    "p,kind", TORUS_GENERATOR_CASES,
    ids=[f"{p}-" + "+".join(b if isinstance(b, str) else f"{b[0]}{b[1]}" for b in k)
         for p, k in TORUS_GENERATOR_CASES],
)
def test_torus_generator_operators_match_the_factorization_oracle(p, kind):
    """The generators of every Sp(4) torus kind, singular on the other
    blocks of a product torus."""
    rep = make_rep(p, 2)
    torus = build_maximal_torus(rep.space, kind)
    rng = random.Random(p)
    for g in torus.generators:
        assert_matches_the_oracle(rep, g, rng)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ORACLE_FIELDS[:7]), st.integers(1, 3), st.integers(0, 2**32))
def test_weil_op_at_random_singular_elements(field, k, seed):
    """A random symplectic g with det(g - I) = 0: a product of fewer than
    2N transvections, conjugated by a random symplectic element."""
    p, m, N = field
    rep = make_rep(p, N, m)
    rng = random.Random(seed)
    ctx = rep.ctx
    h = random_symplectic(rep.space, rng)
    g = product_of_transvections(rep.space, rng, min(k, 2 * N - 1))
    g = la.mat_mul(ctx, la.mat_mul(ctx, h, g), la.inv(ctx, h))
    assert f_p_rank(rep.space, g) < 2 * N * m
    assert_matches_the_oracle(rep, g, rng)


def test_weil_refuses_gf3_dim2():
    rep = WeilRep(SympSpace(FieldCtx(3), 1))
    with pytest.raises(ValueError):
        rep.weil_op(la.identity(rep.ctx, 2))


def test_wigner_basics():
    rep = make_rep(5, 1)
    ctx = rep.ctx
    rng = random.Random(5)
    phi = np.array([rng.random() + 1j * rng.random() for _ in range(5)])
    phi /= np.linalg.norm(phi)
    zero_v = (ctx.zero, ctx.zero)
    assert abs(rep.wigner(phi, zero_v) - 1.0) < 1e-12
    total = 0.0
    for v in rep.all_vectors():
        w = rep.wigner(phi, v)
        assert abs(w) <= 1 + 1e-12
        total += abs(w) ** 2
    # Parseval over the operator basis
    assert abs(total - 5.0) < 1e-9


def test_wigner_batch_matches_pointwise():
    rep = make_rep(7, 1)
    rng = random.Random(6)
    states = np.array(
        [[rng.random() + 1j * rng.random() for _ in range(3)] for _ in range(7)]
    )
    states /= np.linalg.norm(states, axis=0, keepdims=True)
    batch = rep.wigner_batch(states)
    for s in range(3):
        for ai in range(7):
            for bi in range(7):
                v = rep._L[ai] + rep._L[bi]
                direct = rep.wigner(states[:, s], v)
                assert abs(batch[s, ai * 7 + bi] - direct) < 1e-10


@pytest.mark.parametrize("p", [3, 5])
def test_restrict_to_extension_irreducible(p):
    sp = SympSpace(FieldCtx(p), 2)
    torus = build_maximal_torus(sp, ["irreducible2"])
    ms = module_structure(torus)
    rep = WeilRep(sp)
    rpt = restrict_to_extension(rep, ms, n_samples=8, seed=2)
    assert rpt["sigma_identity_failures"] == 0
    assert rpt["psi_identity_failures"] == 0
    assert rpt["sigma_identity_checked"] == torus.order - 1
    assert rpt["max_operator_distance"] <= rpt["tol"]


def test_restrict_to_extension_product_torus():
    # split + inert over F_5: two blocks with K_alpha = F_5, tensor of two
    # dimension-5 Weil representations
    sp = SympSpace(FieldCtx(5), 2)
    torus = build_maximal_torus(sp, ["split", "inert"])
    ms = module_structure(torus)
    rep = WeilRep(sp)
    rpt = restrict_to_extension(rep, ms, n_samples=6, seed=3)
    assert rpt["psi_identity_failures"] == 0
    assert rpt["sigma_identity_failures"] == 0
    assert rpt["max_operator_distance"] <= rpt["tol"]


def test_restrict_dimension_guard():
    sp = SympSpace(FieldCtx(7), 2)
    rep = WeilRep(sp)

    class FakeMs:
        blocks = []

    big = WeilRep.__new__(WeilRep)
    big.dim = 1000
    with pytest.raises(ValueError):
        restrict_to_extension(big, FakeMs())


# -- self-reducibility against the omega_bar path it replaced ---------------------

#: (p, m, N, kind) of the restriction cases: K_alpha = GF(9), GF(25), GF(49),
#: GF(5) x GF(5), GF(81)
RESTRICT_CASES = {
    "irreducible2-q3": (3, 1, 2, ["irreducible2"]),
    "irreducible2-q5": (5, 1, 2, ["irreducible2"]),
    "irreducible2-q7": (7, 1, 2, ["irreducible2"]),
    "split+inert-q5": (5, 1, 2, ["split", "inert"]),
    "sl2-gf9": (3, 2, 1, ["irreducible1"]),
    "sl2-gf25": (5, 2, 1, ["irreducible1"]),
    "sp4-gf9": (3, 2, 2, ["irreducible2"]),
}

#: (sigma checked, psi checked, operator tests) at seed 0 with 50 samples, as
#: the omega_bar path reported them; every failure count was 0
RESTRICT_COUNTS = {
    "irreducible2-q3": (9, 36, 60),
    "irreducible2-q5": (25, 100, 76),
    "irreducible2-q7": (49, 196, 100),
    "split+inert-q5": (15, 60, 74),
    "sl2-gf9": (9, 18, 60),
    "sl2-gf25": (25, 50, 76),
    "sp4-gf9": (81, 324, 132),
}


def _restrict_case(name):
    p, m, N, kind = RESTRICT_CASES[name]
    sp = SympSpace(FieldCtx(p, m), N)
    return WeilRep(sp), module_structure(build_maximal_torus(sp, kind))


def _dense_intertwiner(rep, ms, bar_reps):
    """The intertwiner as the dense average of q^(2N) outer products of the
    columns of pi(v, 0) and of the Kronecker product of the block operators,
    block coordinates read off omega_bar."""
    ctx = rep.ctx

    def bar_pi_of_v(v):
        out = None
        for blk, bar_rep in zip(ms.blocks, bar_reps):
            w = blk.project(list(v))
            x, y = blk.omega_bar(w, blk.F), blk.omega_bar(blk.E, w)
            op = bar_rep.pi_op(((x, y), blk.field.zero))
            out = op if out is None else np.kron(out, op)
        return out

    dim_bar = rep.dim
    for i in range(rep.dim):
        for j in range(dim_bar):
            U = np.zeros((rep.dim, dim_bar), dtype=np.complex128)
            for v in rep.all_vectors():
                big = rep.pi_op((v, ctx.zero))
                U += np.outer(big[:, i], bar_pi_of_v(v)[:, j].conj())
            gram = U.conj().T @ U
            c = abs(gram.trace()) / dim_bar
            if c < 1e-8 or max_abs(gram - c * np.eye(dim_bar)) > rep.tol * c:
                continue
            return U / np.sqrt(c)
    raise AssertionError("no intertwiner")


def _restrict_by_omega_bar(rep, ms, n_samples, seed):
    """restrict_to_extension with every block coordinate, psi identity and
    embedding read off omega_bar one vector at a time, and the character
    forms from ``_character_form_oracle``; the intertwiner is
    ``_intertwiner``, checked against ``_dense_intertwiner`` on its own.  A
    psi check is the whole row at e_col: its entry at every F_p basis
    vector u_j against the omega_bar traces at (M e_col, u_j), read through
    the matrix of omega_bar traces on the F_p basis."""
    ctx, space, blocks = rep.ctx, rep.space, ms.blocks
    bar_reps = [WeilRep(SympSpace(blk.field, 1)) for blk in blocks]
    U = _intertwiner(rep, blocks, bar_reps)

    def element_blocks(gkey):
        g = la.thaw(gkey)
        out = []
        for blk in blocks:
            a, c = _coords_by_omega_bar(blk, la.mat_vec(ctx, g, blk.E))
            b, d = _coords_by_omega_bar(blk, la.mat_vec(ctx, g, blk.F))
            out.append(((a, b), (c, d)))
        return tuple(out)

    counts = dict.fromkeys(["sc", "sf", "pc", "pf"], 0)
    n = space.dim
    # sum over the blocks of Tr_{K/F_p} omega_bar on the F_p basis vectors:
    # by F_p-bilinearity, the form at (M e_col, u_j) is a row of coordinates
    # times this matrix
    basis = symp._prime_basis(ctx, n)
    bar_gram = np.array([
        [sum(blk.field.trace_to_prime(blk.omega_bar(blk.project(u), blk.project(v))) for blk in blocks)
         for v in basis]
        for u in basis
    ])
    for gkey in ms.torus.elements:
        if gkey == ms.torus.identity_matrix():
            continue
        rhs = 1
        for blk, ((a, b), (c, d)) in zip(blocks, element_blocks(gkey)):
            K = blk.field
            det = K.sub(K.mul(K.sub(a, K.one), K.sub(d, K.one)), K.mul(b, c))
            rhs *= K.legendre(K.neg(det)) if det != K.zero else 0
        if rhs == 0:
            continue
        sign, M, B = _character_form_oracle(space, gkey)
        counts["sc"] += 1
        counts["sf"] += sign != rhs
        for col in range(n):
            v = [ctx.one if i == col else ctx.zero for i in range(n)]
            rhs_idx = prime_coords([la.mat_vec(ctx, M, v)])[0] @ bar_gram % ctx.p
            counts["pc"] += 1
            counts["pf"] += any(B[col * ctx.m] != (ctx.p + 1) // 2 * rhs_idx % ctx.p)
    rng = random.Random(seed)
    tests = [element_blocks(gkey) for gkey in ms.torus.elements]
    tests += [tuple(_random_sl2(blk.field, rng) for blk in blocks) for _ in range(n_samples)]
    max_dist = 0.0
    for gb in tests:
        bar = None
        for bar_rep, mat2 in zip(bar_reps, gb):
            op = bar_rep.weil_op(mat2)
            bar = op if bar is None else np.kron(bar, op)
        g_global = _embed_sl2_by_columns(ms, gb)
        assert_symplectic(space, g_global)
        max_dist = max(max_dist, max_abs(rep.weil_op(g_global) - U @ bar @ U.conj().T))
    return {
        "sigma_identity_checked": counts["sc"],
        "sigma_identity_failures": counts["sf"],
        "psi_identity_checked": counts["pc"],
        "psi_identity_failures": counts["pf"],
        "n_operator_tests": len(tests),
        "max_operator_distance": max_dist,
        "tol": rep.tol,
    }


@pytest.mark.parametrize("name", ["irreducible2-q3", "split+inert-q5", "sl2-gf25", "sp4-gf9"])
def test_trace_gram_matches_the_omega_bar_sums(name):
    """The summed block Gram matrix gives, at every torus element g and
    column, the sum over the blocks of Tr_{K/F_p} omega_bar(M e_col, e_col)
    with M = (g - I)^(-1), and on random pairs the sum over the blocks of
    their omega_bar traces; each block's Gram matrix gives its own.  The
    random pairs matter: a split torus element is diagonal on its block,
    so omega(M e_col, e_col) = 0 there and the columns alone cannot tell
    whether the block was summed."""
    rep, ms = _restrict_case(name)
    ctx, n = rep.ctx, rep.space.dim
    gram = ms.trace_gram()
    for gkey in ms.torus.elements:
        sign, M, _ = _character_form_oracle(rep.space, gkey)
        if sign is None:
            continue
        for col in range(n):
            v = [ctx.one if i == col else ctx.zero for i in range(n)]
            w = la.mat_vec(ctx, M, v)
            want = sum(
                blk.field.trace_to_prime(blk.omega_bar(blk.project(w), blk.project(v)))
                for blk in ms.blocks
            ) % ctx.p
            cw, cv = prime_coords([w, v])
            assert cw @ gram @ cv % ctx.p == want
    rng = random.Random(5)
    for _ in range(20):
        u, v = ([ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)] for _ in range(2))
        cu, cv = prime_coords([u, v])
        traces = [
            blk.field.trace_to_prime(blk.omega_bar(blk.project(u), blk.project(v)))
            for blk in ms.blocks
        ]
        assert cu @ gram @ cv % ctx.p == sum(traces) % ctx.p
        for blk, tr in zip(ms.blocks, traces):
            assert cu @ blk.trace_gram @ cv % ctx.p == tr


def test_psi_identity_sees_a_block_missing_from_the_gram_matrix(monkeypatch):
    """With the split block left out of the summed Gram matrix, the psi
    identity of split+inert fails: a split torus element is diagonal on its
    block, so only the off-diagonal entries of the rows can see it."""
    rep, ms = _restrict_case("split+inert-q5")
    assert [blk.name for blk in ms.blocks] == ["split", "inert"]
    assert restrict_to_extension(rep, ms, n_samples=0)["psi_identity_failures"] == 0
    monkeypatch.setattr(
        symp.SympModuleStructure, "trace_gram",
        lambda self: sum(blk.trace_gram for blk in self.blocks if blk.name != "split") % 5,
    )
    rpt = restrict_to_extension(rep, ms, n_samples=0)
    assert rpt["psi_identity_checked"] == RESTRICT_COUNTS["split+inert-q5"][1]
    assert rpt["psi_identity_failures"] > 0
    assert rpt["sigma_identity_failures"] == 0


@pytest.mark.parametrize("name", ["irreducible2-q3", "irreducible2-q5", "sl2-gf9"])
def test_intertwiner_is_bit_identical_to_the_dense_average(name):
    rep, ms = _restrict_case(name)
    bar_reps = [WeilRep(SympSpace(blk.field, 1)) for blk in ms.blocks]
    U = _intertwiner(rep, ms.blocks, bar_reps)
    assert np.array_equal(U, _dense_intertwiner(rep, ms, bar_reps))


@pytest.mark.parametrize("name", list(RESTRICT_CASES))
def test_restrict_to_extension_reports_match_the_omega_bar_path(name):
    """Every key of the report equals the omega_bar path's, bit for bit, at
    seed 0 with 50 samples, and the counts are the ones recorded."""
    rep, ms = _restrict_case(name)
    rpt = restrict_to_extension(rep, ms, n_samples=50, seed=0)
    assert rpt == _restrict_by_omega_bar(rep, ms, n_samples=50, seed=0)
    counts = (rpt["sigma_identity_checked"], rpt["psi_identity_checked"], rpt["n_operator_tests"])
    assert counts == RESTRICT_COUNTS[name]
    assert rpt["sigma_identity_failures"] == rpt["psi_identity_failures"] == 0
    assert rpt["max_operator_distance"] <= rpt["tol"]


def test_restrict_to_extension_builds_its_operators_in_chunks_and_caches_none(monkeypatch):
    """The global operators are built chunk by chunk and kept nowhere: the
    report is the same with chunks of seven operators as with one chunk,
    and the global representation's cache stays empty."""
    rep, ms = _restrict_case("irreducible2-q3")
    rpt = restrict_to_extension(rep, ms, n_samples=50, seed=0)
    assert rep._cache == {}
    assert len(heiwei.op_chunks(rpt["n_operator_tests"], rep.dim)) == 1
    monkeypatch.setattr(heiwei, "OP_CHUNK_ENTRIES", 7 * rep.dim**2)
    assert len(heiwei.op_chunks(rpt["n_operator_tests"], rep.dim)) == 9
    assert restrict_to_extension(rep, ms, n_samples=50, seed=0) == rpt
    assert rep._cache == {}


#: the number of chunks of seven operators of the operator tests: one block
#: over GF(9), two blocks (the np.kron path), one block over GF(81)
CHUNKED_CASES = {"irreducible2-q3": 9, "split+inert-q5": 11, "sp4-gf9": 19}


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_restrict_to_extension_builds_block_operators_in_chunks(name, monkeypatch):
    """With chunks of seven operators, each block representation gets one
    weil_ops call per chunk, of that chunk's length; its weil_op reads are
    all served from the cache, which never holds more than one chunk."""
    rep, ms = _restrict_case(name)
    n_tests = RESTRICT_COUNTS[name][2]
    monkeypatch.setattr(heiwei, "OP_CHUNK_ENTRIES", 7 * rep.dim**2)
    chunks = heiwei.op_chunks(n_tests, rep.dim)
    assert len(chunks) == CHUNKED_CASES[name]
    real_ops, real_op = WeilRep.weil_ops, WeilRep.weil_op
    batches, reads = {}, {}

    def spy_ops(self, stack):
        if self is not rep:
            assert len(self._cache) <= 7
            batches.setdefault(id(self), []).append(len(stack))
        return real_ops(self, stack)

    def spy_op(self, g):
        assert la.freeze(g) in self._cache
        before = len(self._cache)
        op = real_op(self, g)
        assert len(self._cache) == before <= 7
        reads[id(self)] = reads.get(id(self), 0) + 1
        return op

    monkeypatch.setattr(WeilRep, "weil_ops", spy_ops)
    monkeypatch.setattr(WeilRep, "weil_op", spy_op)
    restrict_to_extension(rep, ms, n_samples=50, seed=0)
    assert len(batches) == len(ms.blocks)
    for lengths in batches.values():
        assert lengths == [len(range(n_tests)[c]) for c in chunks]
    assert reads == dict.fromkeys(batches, n_tests)


@pytest.mark.parametrize("name", list(CHUNKED_CASES))
def test_restrict_to_extension_reports_match_the_omega_bar_path_over_several_chunks(
    name, monkeypatch
):
    """The bit-for-bit match with the omega_bar path, whose block operators
    are one weil_op call each, holds when the operator tests run in chunks
    of seven operators."""
    rep, _ = _restrict_case(name)
    monkeypatch.setattr(heiwei, "OP_CHUNK_ENTRIES", 7 * rep.dim**2)
    assert len(heiwei.op_chunks(RESTRICT_COUNTS[name][2], rep.dim)) == CHUNKED_CASES[name]
    test_restrict_to_extension_reports_match_the_omega_bar_path(name)


#: product tori: every two-block kind of Sp(4) at p = 5, 7, the cat4
#: centralizer tori (split+inert) at p = 11, 19 and the Sp(6) seed's at p = 5
BLOCK_TRACE_CASES = (
    [(f"{'+'.join(kind)}-p{p}", p, kind) for p in (5, 7)
     for kind in (["split", "split"], ["split", "inert"], ["inert", "inert"])]
    + [(f"cat4-p{p}", p, CAT4_DEFAULT) for p in (11, 19)]
    + [("sp6-p5", 5, SP6_SEED)]
)


@pytest.mark.parametrize("name,p,kind", BLOCK_TRACE_CASES, ids=[c[0] for c in BLOCK_TRACE_CASES])
def test_torus_traces_are_bit_equal_to_the_products_of_the_block_traces(name, p, kind):
    """Tr rho(g) from the one kernel call on the torus equals, to the bit,
    the product over the blocks of the traces on the block tori of
    ``block_tori``, at every element: the identity, the elements that are
    the identity on a block (singular, g - I of every rank) and the
    regular ones."""
    if isinstance(kind, list):
        torus = build_maximal_torus(SympSpace(FieldCtx(p), 2), kind)
    else:
        A = LatticeAutomorphism(kind)
        space = SympSpace(FieldCtx(p), A.N)
        torus = centralizer_torus(space, A.mod_p(space))
    ms = module_structure(torus)
    trace, K, _, _ = torus_character_forms(torus)
    J = np.array(torus.exponents)
    blockwise = math.prod(torus_character_forms(T)[0][J[:, k]] for k, T in ms.block_tori())
    assert np.array_equal(trace, blockwise)
    # g - I is singular exactly when some generator exponent of g is 0
    assert K.any(axis=(1, 2)).sum() == torus.order - math.prod(o - 1 for o in torus.orders)


# -- the F_p Gram kernel against the per-vector field arithmetic it replaced ------


def _character_form_oracle(space, g):
    """(sign, M, B) one element at a time over GF(q): the determinant and
    inverse of g - I by field elimination, M over GF(q), and B the F_p Gram
    matrix of Tr((1/2) M^T J); (None, None, None) when det(g - I) = 0."""
    ctx = space.ctx
    g = la.thaw(g)
    n = space.dim
    gmI = [[ctx.sub(g[i][j], ctx.one if i == j else ctx.zero) for j in range(n)] for i in range(n)]
    d = la.det(ctx, gmI)
    if d == ctx.zero:
        return None, None, None
    sign = ctx.legendre(ctx.mul(ctx.el((-1) ** space.N), d))
    M = la.inv(ctx, gmI)
    MtJ = la.mat_mul(ctx, la.transpose(M), space.gram)
    return sign, M, trace_form_gram(ctx, MtJ) * ((ctx.p + 1) // 2) % ctx.p


def _c_chi_table_oracle(space, torus, vectors):
    """c_chi_table one torus element at a time, from ``_character_form_oracle``."""
    p = space.ctx.p
    psi_pow = np.exp(2j * np.pi * np.arange(p) / p)
    C = prime_coords(vectors)
    kept, rows = [], []
    for gi, g in enumerate(torus.elements):
        sign, _, B = _character_form_oracle(space, g)
        if sign is None:
            continue
        kept.append(gi)
        rows.append(sign * psi_pow[((C @ B % p) * C).sum(axis=1) % p])
    X = character_values(torus, torus_characters(torus))[:, kept]
    return X.conj() @ np.stack(rows)


@pytest.mark.parametrize("p", [3, 7, 101, 1048573])
def test_stack_row_reduce_matches_field_elimination(p):
    """Pivot columns, determinants and row operators of a stack, singular
    matrices included, agree with ``fqlin.rref``, ``fqlin.det`` and
    ``fqlin.inv`` one matrix at a time, up to the largest supported prime:
    E X is the reduced row echelon form with each row at the index of its
    pivot column, and E is the inverse at full rank."""
    ctx = FieldCtx(p)
    rng = random.Random(p)
    singular = 0
    for s in (1, 2, 4, 6):
        mats = [[[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(s)]
                 for _ in range(s)] for _ in range(40)]
        pivot, det, E = la.stack_row_reduce(np.array(mats), p)
        singular += int(np.count_nonzero(det == 0))
        for M, piv, d, Ek in zip(mats, pivot, det.tolist(), E):
            R, pivots = la.rref(ctx, M)
            assert np.flatnonzero(piv).tolist() == pivots
            placed = np.zeros((s, s), dtype=np.int64)
            for i, c in enumerate(pivots):
                placed[c] = R[i]
            assert np.array_equal(Ek @ np.array(M) % p, placed)
            assert d == la.det(ctx, M)
            if d:
                assert Ek.tolist() == la.inv(ctx, M)
    assert singular > 0


SP4_KINDS = [["split", "split"], ["split", "inert"], ["inert", "inert"], [("split", 2)],
             ["irreducible2"]]
FORM_CASES = [(p, 1, 2, kind) for p in (5, 7, 11) for kind in SP4_KINDS] + [
    (q, 2, 1, [kind]) for q in (3, 5) for kind in ("split", "inert")
]


@pytest.mark.parametrize(
    "p,m,N,kind", FORM_CASES,
    ids=[f"{p}^{m}-N{N}-" + "+".join(map(str, k)) for p, m, N, k in FORM_CASES],
)
def test_character_forms_are_bit_identical_to_the_per_element_loop(p, m, N, kind):
    """The batched kernel gives every torus element with det(g - I) != 0
    its sign as the trace, the inverse as kappa and the Gram matrix, and
    c_chi_table its table, bit for bit as the per-element field arithmetic
    does; the one-element call agrees too.  At the other elements K
    vanishes exactly on Im X (K X = 0 with rank n_p - R) and X kappa X = X."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    trace, K, kappa, B = character_forms(sp, torus.stack)
    s = 2 * N * m
    for k, g in enumerate(torus.elements):
        want_sign, want_M, want_B = _character_form_oracle(sp, g)
        one = character_form(sp, g)
        assert one[0] == trace[k]
        assert all(np.array_equal(a, b[k]) for a, b in zip(one[1:], (K, kappa, B)))
        if want_sign is None:
            X = (torus.stack[k] - np.eye(s, dtype=np.int64)) % p
            rank = la.stack_row_reduce(X[None], p)[0][0].sum()
            assert not (K[k] @ X % p).any()
            assert la.stack_row_reduce(K[k][None], p)[0][0].sum() == s - rank
            assert np.array_equal(X @ kappa[k] % p @ X % p, X)
            continue
        assert trace[k] == want_sign and not K[k].any()
        assert np.array_equal(kappa[k], restrict_scalars(sp.ctx, [want_M])[0])
        assert np.array_equal(B[k], want_B)
    rng = random.Random(p)
    vs = [tuple(sp.ctx.from_int(rng.randrange(sp.ctx.q)) for _ in range(2 * N)) for _ in range(60)]
    vs = [v for v, ok in zip(vs, admissible_mask(torus, prime_coords(vs))) if ok]
    table = c_chi_table(sp, torus, vs)
    assert table.tobytes() == _c_chi_table_oracle(sp, torus, vs).tobytes()


def _phase_oracle(rep, g, vectors):
    """sigma((-1)^N det(g - I)) and the psi indices of
    (1/2) omega((g - I)^(-1) v, v), one field operation at a time."""
    ctx, space = rep.ctx, rep.space
    n = space.dim
    g = la.thaw(g)
    gmI = [
        [ctx.sub(g[i][j], ctx.one if i == j else ctx.zero) for j in range(n)]
        for i in range(n)
    ]
    M = la.inv(ctx, gmI)
    sign = ctx.legendre(ctx.mul(ctx.el((-1) ** space.N), la.det(ctx, gmI)))
    idx = []
    for v in vectors:
        w = la.mat_vec(ctx, M, list(v))
        idx.append(ctx.psi_index(rep.mul_half(space.omega(w, list(v)))))
    return sign, idx


def _generic_element(space, rng):
    while True:
        g = random_symplectic(space, rng)
        if _character_form_oracle(space, g)[0] is not None:
            return g


KERNEL_CASES = [(5, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2), (5, 2, 1), (3, 3, 1), (3, 3, 2),
                (3, 4, 1)]


@pytest.mark.parametrize("p,m,N", KERNEL_CASES)
def test_char_phase_table_matches_per_vector_oracle(p, m, N):
    rep = WeilRep(SympSpace(FieldCtx(p, m), N))
    rng = random.Random(p * 100 + m * 10 + N)
    cells = [(ai, bi) for ai in range(rep.dim) for bi in range(rep.dim)]
    if len(cells) > 4096:
        cells = rng.sample(cells, 1500)
    for _ in range(3):
        g = _generic_element(rep.space, rng)
        trace, support, table = rep.char_phase_table(restrict_scalars(rep.ctx, [g]))
        want_sign, want = _phase_oracle(rep, g, [rep._L[a] + rep._L[b] for a, b in cells])
        assert trace.tolist() == [want_sign] and support.all()
        assert [int(table[0, a, b]) for a, b in cells] == want


def _mixed_elements(rep, rng):
    """The identity, -I, the torus generators (on a product torus, the
    identity off their block, so g - I is singular), two torus elements and
    two random symplectic elements."""
    ctx, sp = rep.ctx, rep.space
    n = sp.dim
    minus_I = [[ctx.neg(ctx.one) if i == j else ctx.zero for j in range(n)] for i in range(n)]
    torus = build_maximal_torus(sp, ["inert"] if sp.N == 1 else ["split", "inert"])
    elements = [rng.choice(torus.elements) for _ in range(2)]
    return ([la.identity(ctx, n), minus_I] + [la.thaw(g) for g in torus.generators + elements]
            + [random_symplectic(sp, rng) for _ in range(2)])


@pytest.mark.parametrize("p,m,N", KERNEL_CASES)
def test_weil_ops_are_bit_identical_to_one_weil_op_per_element(p, m, N):
    rep = WeilRep(SympSpace(FieldCtx(p, m), N))
    mats = _mixed_elements(rep, random.Random(p * 100 + m * 10 + N))
    ops = rep.weil_ops(restrict_scalars(rep.ctx, mats))
    assert ops.shape == (len(mats), rep.dim, rep.dim)
    for g, op in zip(mats, ops):
        assert op.tobytes() == rep.weil_op(g).tobytes()


def test_weil_ops_across_several_chunks_match_one_element_at_a_time(monkeypatch):
    """With chunks of three operators, eight elements take three
    ``char_phase_table`` calls and give the operators of eight one-element
    calls, bit for bit."""
    rep = make_rep(5, 2)
    mats = _mixed_elements(rep, random.Random(4))
    assert len(mats) == 8
    want = [rep.weil_op(g) for g in mats]
    calls = []
    real = WeilRep.char_phase_table

    def counted(self, stack):
        calls.append(len(stack))
        return real(self, stack)

    monkeypatch.setattr(heiwei, "OP_CHUNK_ENTRIES", 3 * rep.dim**2)
    monkeypatch.setattr(WeilRep, "char_phase_table", counted)
    ops = rep.weil_ops(restrict_scalars(rep.ctx, mats))
    assert calls == [3, 3, 2]
    assert all(op.tobytes() == w.tobytes() for op, w in zip(ops, want))


def test_weil_ops_names_the_member_that_is_not_symplectic():
    """2 g scales omega by 4 != 1 over F_5: the first such member is named,
    and nothing is built or cached."""
    rep = make_rep(5, 2)
    ctx = rep.ctx
    g = random_symplectic(rep.space, random.Random(3))
    bad = [[ctx.mul(ctx.el(2), x) for x in row] for row in g]
    stack = restrict_scalars(ctx, [g, la.identity(ctx, 4), bad, g, bad])
    with pytest.raises(ValueError, match="stack element 2 does not preserve"):
        rep.weil_ops(stack)
    with pytest.raises(ValueError, match="stack element 0 does not preserve"):
        rep.weil_op(bad)
    assert rep._cache == {}


def test_a_doctored_phase_trips_the_unitarity_invariant(monkeypatch):
    """One phase index moved at one vector in the support of the last
    element of the stack: its operator is no longer unitary."""
    rep = make_rep(5, 1)
    ctx = rep.ctx
    g = _generic_element(rep.space, random.Random(8))
    real = WeilRep.char_phase_table

    def doctored(self, stack):
        trace, support, idx = real(self, stack)
        idx = idx.copy()
        idx[-1, 1, 2] = (idx[-1, 1, 2] + 1) % ctx.p
        return trace, support, idx

    monkeypatch.setattr(WeilRep, "char_phase_table", doctored)
    with pytest.raises(RuntimeError, match="stack element 1 is not unitary"):
        rep.weil_ops(restrict_scalars(ctx, [la.identity(ctx, 2), g]))


@pytest.mark.parametrize("p,m,N", KERNEL_CASES)
def test_c_chi_table_phases_match_per_vector_oracle(p, m, N):
    """Every term sign * psi(idx) of c_chi_table, recovered by inverting the
    character table, is the 2p-th root of unity the oracle predicts; the
    identity's term is q^N at v = 0 and 0 elsewhere."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, ["inert"] if N == 1 else ["irreducible2"])
    rep = WeilRep(sp)
    rng = random.Random(7)
    vs = [tuple(sp.ctx.from_int(rng.randrange(sp.ctx.q)) for _ in range(2 * N)) for _ in range(12)]
    table = c_chi_table(sp, torus, vs)
    X = character_values(torus, torus_characters(torus))
    terms = X.T @ table / torus.order  # row h: the term of torus element h
    identity = torus.identity_matrix()
    for h in sorted(rng.sample(range(torus.order), min(torus.order, 60))):
        g = torus.elements[h]
        if g == identity:
            # Tr rho(I) pi(v, 0) is q^N at v = 0 and 0 elsewhere
            zero = tuple([sp.ctx.zero] * (2 * N))
            assert max_abs(terms[h] - [sp.ctx.q**N * (v == zero) for v in vs]) < 1e-9
            continue
        sign, idx = _phase_oracle(rep, g, vs)
        want = [(2 * i + (0 if sign == 1 else p)) % (2 * p) for i in idx]
        got = np.rint(np.angle(terms[h]) * p / np.pi).astype(int) % (2 * p)
        assert got.tolist() == want
        assert max_abs(terms[h] - np.exp(1j * np.pi * got / p)) < 1e-9


def _tables_oracle(rep):
    """shift_table, psi_mat and half_ab_idx by the double loops over L x L."""
    ctx, L = rep.ctx, rep._L
    index = {x: i for i, x in enumerate(L)}
    shift = np.empty((rep.dim, rep.dim), dtype=np.int64)
    dot_idx = np.empty((rep.dim, rep.dim), dtype=np.int64)
    half_idx = np.empty((rep.dim, rep.dim), dtype=np.int64)
    for ai, a in enumerate(L):
        for xi, x in enumerate(L):
            shift[ai, xi] = index[tuple(ctx.add(u, v) for u, v in zip(a, x))]
            d = ctx.zero
            for u, v in zip(a, x):
                d = ctx.add(d, ctx.mul(u, v))
            dot_idx[ai, xi] = ctx.psi_index(d)
            half_idx[ai, xi] = ctx.psi_index(rep.mul_half(d))
    return shift, rep.psi_pow[dot_idx], half_idx.T


@pytest.mark.parametrize("p,m,N", [(3, 2, 2), (13, 1, 2), (3, 3, 1)])
def test_weilrep_tables_match_double_loop(p, m, N):
    rep = WeilRep(SympSpace(FieldCtx(p, m), N))
    shift, psi_mat, half_ab = _tables_oracle(rep)
    assert np.array_equal(rep.shift_table, shift)
    assert np.array_equal(rep.psi_mat, psi_mat)
    assert np.array_equal(rep.half_ab_idx, half_ab)
