"""Symplectic spaces, tori, centralizers, and module structures."""

import copy
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilrep import fqlin as la
from weilrep import gfq, symp
from weilrep.catmap import CAT4_DEFAULT, LatticeAutomorphism, is_integer_symplectic, primes_up_to
from weilrep.cli import SL2_KINDS, SP4_KINDS
from weilrep.gfq import FieldCtx, factorize, poly_from_ints
from weilrep.heiwei import _random_sl2
from weilrep.spectra import torus_characters
from weilrep.symp import (
    BlockInfo,
    SympModuleStructure,
    SympSpace,
    Torus,
    build_maximal_torus,
    centralizer_torus,
    is_symplectic,
    module_structure,
    random_symplectic,
    rank_from_charpoly,
    restrict_scalars,
    standard_gram,
    symplectic_transpose,
    trace_factor_degrees,
    trace_polynomial,
    transvection,
)


def sl2(p):
    return SympSpace(FieldCtx(p), 1)


def gfq_vectors(ctx, n) -> list:
    """Every vector of GF(q)^n as a tuple over GF(q), in the order of its
    encoding sum of x_i q^i, x_i the base-p encoding of component i."""
    return [tuple(ctx.from_int(enc // ctx.q**i % ctx.q) for i in range(n))
            for enc in range(ctx.q**n)]


def _element_keys(torus):
    """The frozen GF(q) matrix of every torus element, in ``exponents``
    order, read back from ``Torus.stack``."""
    return symp.field_matrix_keys(torus.space.ctx, torus.stack)


def _contains(torus, mat) -> bool:
    """Whether a GF(q) matrix is a torus element, by ``Torus.exponents_of``."""
    try:
        torus.exponents_of(mat)
    except KeyError:
        return False
    return True


def _mat_pow(ctx, A, e):
    """A^e for e >= 0 by square and multiply over GF(q) lists, the oracle
    of the order check on the F_p matrix."""
    result, base = la.identity(ctx, len(A)), la.thaw(A)
    while e:
        if e & 1:
            result = la.mat_mul(ctx, result, base)
        base = la.mat_mul(ctx, base, base)
        e >>= 1
    return result


def centralizer_algebra(space, mats):
    """Basis of the algebra of matrices commuting with every matrix in
    ``mats``, as a list of matrices: the oracle of the line test in
    ``module_structure``."""
    ctx = space.ctx
    n = space.dim
    rows = []
    for g in mats:
        g = la.thaw(g)
        for i in range(n):
            for j in range(n):
                row = [ctx.zero] * (n * n)
                for k in range(n):
                    row[k * n + j] = ctx.add(row[k * n + j], g[i][k])
                    row[i * n + k] = ctx.sub(row[i * n + k], g[k][j])
                rows.append(row)
    basis = la.nullspace(ctx, rows)
    return [[vec[i * n : (i + 1) * n] for i in range(n)] for vec in basis]


def test_trace_gram_is_built_once_per_space(monkeypatch):
    """The F_p Gram matrix of Tr omega is the space's read-only attribute:
    the character kernel and the symplectic test read it and build none."""
    from weilrep import heiwei, symp

    sp = SympSpace(FieldCtx(3, 2), 2)
    assert np.array_equal(sp.trace_gram, symp.trace_form_gram(sp.ctx, sp.gram))
    assert not sp.trace_gram.flags.writeable
    torus = build_maximal_torus(sp, ["irreducible2"])

    def rebuilt(*args):
        raise AssertionError("trace_form_gram called again")

    monkeypatch.setattr(symp, "trace_form_gram", rebuilt)
    monkeypatch.setattr(heiwei, "trace_form_gram", rebuilt)
    assert len(heiwei.character_forms(sp, torus.stack)[0]) == torus.order
    assert not len(symp.symplectic_failures(sp, torus.stack))


def test_linalg_basics():
    F7 = FieldCtx(7)
    A = [[F7.el(1), F7.el(2)], [F7.el(3), F7.el(4)]]
    Ainv = la.inv(F7, A)
    assert la.mat_mul(F7, A, Ainv) == la.identity(F7, 2)
    assert la.det(F7, A) == F7.el(-2)
    cp = la.charpoly(F7, A)
    # det(xI - A) = x^2 - 5x - 2
    assert cp == poly_from_ints(F7, [-2, -5, 1])
    assert la.charpoly(la.INT_RING, [[2, 1], [1, 1]]) == [1, -3, 1]


def test_charpoly_matches_det_of_xI_minus_A():
    rng = random.Random(3)
    F5 = FieldCtx(5)
    for n in (2, 3, 4):
        A = [[F5.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(n)]
        cp = la.charpoly(F5, A)
        for x in range(5):
            xI_A = [
                [F5.sub(F5.el(x) if i == j else F5.zero, A[i][j]) for j in range(n)]
                for i in range(n)
            ]
            val = F5.zero
            for c in reversed(cp):
                val = F5.add(F5.mul(val, F5.el(x)), c)
            assert val == la.det(F5, xI_A)


def test_min_poly_of_companion_is_charpoly():
    F5 = FieldCtx(5)
    A = [[F5.zero, F5.el(-2)], [F5.one, F5.el(3)]]
    assert la.matrix_min_poly(F5, A) == la.charpoly(F5, A)


def _min_poly_by_solve(ctx, A, unit=None):
    """The oracle of ``fqlin.matrix_min_poly``: at each degree, a fresh
    solve of the new power over all the earlier ones."""
    n = len(A)
    vecs = []  # flattened powers of A
    cur = la.identity(ctx, n) if unit is None else unit
    for _ in range(n * n + 1):
        vecs.append([x for row in cur for x in row])
        if len(vecs) > 1:
            c = la.solve(ctx, la.transpose(vecs[:-1]), vecs[-1])
            if c is not None:
                return [ctx.neg(ci) for ci in c] + [ctx.one]
        cur = la.mat_mul(ctx, cur, A)
    raise AssertionError("no minimal polynomial")


def _random_invertible(ctx, n, rng):
    while True:
        P = [[ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)] for _ in range(n)]
        if la.det(ctx, P) != ctx.zero:
            return P


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)],
                         ids=["3", "5", "7", "9", "25", "27"])
def test_min_poly_matches_the_solve_at_every_degree(p, m):
    """The incremental elimination gives the polynomial of a fresh solve
    per degree, for n <= 4: on random matrices, on conjugates of diagonal
    matrices with repeated eigenvalues (minimal polynomial of lower degree
    than the characteristic one), on nilpotent and scalar matrices, and
    within the subalgebra of an idempotent."""
    ctx = FieldCtx(p, m)
    rng = random.Random(p * 10 + m)
    degrees = set()
    for n in range(1, 5):
        for _ in range(4):
            P = _random_invertible(ctx, n, rng)
            P_inv = la.inv(ctx, P)
            vals = [ctx.from_int(rng.randrange(min(ctx.q, 2))) for _ in range(n)]
            D = [[vals[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
            upper = [[ctx.from_int(rng.randrange(ctx.q)) if j > i else ctx.zero for j in range(n)]
                     for i in range(n)]
            # an idempotent of rank ceil(n/2), the unit of the subalgebra e M e
            e = la.mat_mul(ctx, P, la.mat_mul(ctx, [[ctx.one if i == j < (n + 1) // 2 else ctx.zero
                                                     for j in range(n)] for i in range(n)], P_inv))
            B = [[ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)] for _ in range(n)]
            for A, unit in (
                (B, None),
                (la.mat_mul(ctx, P, la.mat_mul(ctx, D, P_inv)), None),
                (upper, None),
                ([[ctx.el(3) if i == j else ctx.zero for j in range(n)] for i in range(n)], None),
                (la.mat_mul(ctx, e, la.mat_mul(ctx, B, e)), e),
            ):
                want = _min_poly_by_solve(ctx, A, unit)
                assert la.matrix_min_poly(ctx, A, unit) == want
                degrees.add(gfq.poly_deg(want))
    assert degrees == {1, 2, 3, 4}


def test_gram_validation():
    """Every space carries the form [[0, I], [-I, 0]]; over the integers
    ``standard_gram`` is the J of ``catmap.is_integer_symplectic``."""
    F5 = FieldCtx(5)
    for N in (1, 2, 3):
        J = standard_gram(la.INT_RING, N)
        assert J == [[(j == i + N) - (i == j + N) for j in range(2 * N)] for i in range(2 * N)]
        assert SympSpace(F5, N).gram == [[F5.el(x) for x in row] for row in J]
    sp = sl2(5)
    assert sp.omega([F5.one, F5.zero], [F5.zero, F5.one]) == F5.one


def test_symplectic_transpose_properties():
    sp = SympSpace(FieldCtx(7), 2)
    ctx = sp.ctx
    rng = random.Random(0)
    I = la.identity(ctx, 4)
    assert symplectic_transpose(sp, I) == I
    for _ in range(20):
        R = [[ctx.from_int(rng.randrange(7)) for _ in range(4)] for _ in range(4)]
        S = [[ctx.from_int(rng.randrange(7)) for _ in range(4)] for _ in range(4)]
        # omega(R v, u) = omega(v, R^t u) on all basis pairs
        Rt = symplectic_transpose(sp, R)
        for i in range(4):
            for j in range(4):
                v = I[i]
                u = I[j]
                assert sp.omega(la.mat_vec(ctx, R, v), u) == sp.omega(
                    v, la.mat_vec(ctx, Rt, u)
                )
        # contravariance
        assert symplectic_transpose(sp, la.mat_mul(ctx, R, S)) == la.mat_mul(
            ctx, symplectic_transpose(sp, S), symplectic_transpose(sp, R)
        )
        # g^t = g^-1 on the group
        g = random_symplectic(sp, rng)
        assert symplectic_transpose(sp, g) == la.inv(ctx, g)


def test_transvections_are_symplectic():
    sp = SympSpace(FieldCtx(5), 2)
    rng = random.Random(1)
    for _ in range(20):
        u = [sp.ctx.from_int(rng.randrange(5)) for _ in range(4)]
        if all(x == sp.ctx.zero for x in u):
            continue
        lam = sp.ctx.from_int(rng.randrange(1, 5))
        assert is_symplectic(sp, transvection(sp, u, lam))
    for _ in range(10):
        assert is_symplectic(sp, random_symplectic(sp, rng))


def _is_symplectic_by_lists(space, g):
    """g^T J g = J by field arithmetic, the oracle of ``is_symplectic``."""
    ctx = space.ctx
    return la.mat_mul(ctx, la.transpose(g), la.mat_mul(ctx, space.gram, g)) == space.gram


SYMPLECTIC_TEST_CASES = [(p, m, N) for p, m in ((3, 1), (5, 1), (3, 2), (3, 3)) for N in (1, 2, 3)]


@pytest.mark.parametrize("p,m,N", SYMPLECTIC_TEST_CASES,
                         ids=[f"{p}^{m}-N{N}" for p, m, N in SYMPLECTIC_TEST_CASES])
def test_is_symplectic_matches_the_list_oracle(p, m, N):
    """The F_p test X^T G X = G against g^T J g = J over GF(q): random
    symplectic g, its multiples c g (symplectic exactly when c^2 = 1, so
    over GF(p^m) they test that the trace loses nothing), g with one entry
    moved and random matrices."""
    ctx = FieldCtx(p, m)
    n = 2 * N
    rng = random.Random(p * 100 + m * 10 + N)
    sp = SympSpace(ctx, N)
    seen = {True: 0, False: 0}
    for _ in range(12):
        g = random_symplectic(sp, rng)
        c = ctx.from_int(rng.randrange(1, ctx.q))
        moved = la.thaw(g)
        i, j = rng.randrange(n), rng.randrange(n)
        moved[i][j] = ctx.add(moved[i][j], ctx.from_int(rng.randrange(1, ctx.q)))
        noise = [[ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)] for _ in range(n)]
        for M in (g, [[ctx.mul(c, x) for x in row] for row in g], moved, noise):
            want = _is_symplectic_by_lists(sp, M)
            assert is_symplectic(sp, M) == want
            seen[want] += 1
    assert seen[True] >= 12 and seen[False] > 0


def test_torus_orders_sl2_f5():
    sp = sl2(5)
    split = build_maximal_torus(sp, ["split"])
    inert = build_maximal_torus(sp, ["inert"])
    assert split.order == 4
    assert inert.order == 6
    for torus in (split, inert):
        for g in _element_keys(torus):
            assert is_symplectic(sp, la.thaw(g))


def test_torus_order_irreducible_sp4_f3():
    sp = SympSpace(FieldCtx(3), 2)
    torus = build_maximal_torus(sp, ["irreducible2"])
    assert torus.order == 10  # q^2 + 1
    for g in _element_keys(torus):
        assert is_symplectic(sp, la.thaw(g))


def test_torus_products_commute_and_close():
    sp = SympSpace(FieldCtx(5), 2)
    torus = build_maximal_torus(sp, ["split", "inert"])
    assert torus.order == 4 * 6
    ctx = sp.ctx
    els = [la.thaw(g) for g in _element_keys(torus)]
    rng = random.Random(2)
    for _ in range(40):
        a = els[rng.randrange(len(els))]
        b = els[rng.randrange(len(els))]
        ab = la.mat_mul(ctx, a, b)
        assert la.mat_mul(ctx, b, a) == ab
        assert _contains(torus, ab)
        assert _contains(torus, la.inv(ctx, a))


def test_split_degree_two_block():
    sp = SympSpace(FieldCtx(3), 2)
    torus = build_maximal_torus(sp, [("split", 2)])
    assert torus.order == 3**2 - 1
    for g in _element_keys(torus):
        assert is_symplectic(sp, la.thaw(g))


def _enumerate_from_identity(torus):
    """The oracle for ``Torus._enumerate``: every product
    I g_1^e_1 ... g_r^e_r, the powers also built up from I, with the
    exponent tuples in lexicographic order."""
    ctx, dim = torus.space.ctx, torus.space.dim
    gen_powers = []
    for g, order in zip(torus.generators, torus.orders):
        powers = [la.identity(ctx, dim)]
        for _ in range(order - 1):
            powers.append(la.mat_mul(ctx, powers[-1], g))
        gen_powers.append(powers)
    exps = list(itertools.product(*[range(o) for o in torus.orders]))
    elements = []
    for e in exps:
        m = la.identity(ctx, dim)
        for powers, ei in zip(gen_powers, e):
            m = la.mat_mul(ctx, m, powers[ei])
        elements.append(la.freeze(m))
    return elements, exps


@pytest.mark.parametrize(
    "p,m,kinds",
    [(7, 1, ["inert"]), (5, 1, ["split", "inert"]), (3, 1, ["inert", "split", "inert"]),
     (3, 2, ["inert"]), (3, 2, ["split", "inert"])],
    ids=["r1-f7", "r2-f5", "r3-f3", "r1-f9", "r2-f9"],
)
def test_enumeration_matches_the_identity_products(p, m, kinds):
    """The stack, read back over GF(q), is the identity products; the
    exponent rows are one read-only int64 array in ``itertools.product``
    order, which ``torus_characters`` returns; and the lookup finds every
    element's row."""
    torus = build_maximal_torus(SympSpace(FieldCtx(p, m), len(kinds)), kinds)
    elements, exps = _enumerate_from_identity(torus)
    assert _element_keys(torus) == elements
    assert torus.exponents.dtype == np.int64
    assert list(map(tuple, torus.exponents.tolist())) == exps
    assert torus_characters(torus) is torus.exponents
    assert not torus.exponents.flags.writeable and not torus.stack.flags.writeable
    assert [tuple(torus.exponents_of(g).tolist()) for g in elements] == exps


def _sequential_stack(torus):
    """The stack by order - 1 sequential F_p products per generator."""
    ctx = torus.space.ctx
    s = torus.space.dim * ctx.m
    stack = np.eye(s, dtype=np.int64)[None]
    for g, order in zip(torus.generators, torus.orders):
        R = restrict_scalars(ctx, [g])[0]
        powers = [np.eye(s, dtype=np.int64)]
        for _ in range(order - 1):
            powers.append(powers[-1] @ R % ctx.p)
        stack = (stack[:, None] @ np.stack(powers)[None] % ctx.p).reshape(-1, s, s)
    return stack


@pytest.mark.parametrize(
    "p,m,N,kinds",
    [(7, 1, 1, ["inert"]), (5, 1, 2, ["split", "inert"]), (3, 1, 3, ["inert", "split", "inert"]),
     (3, 2, 2, ["split", "inert"]), (3, 3, 2, ["irreducible2"]), (5, 1, 3, [("split", 3)]),
     (5, 1, 3, ["split", "irreducible2"])],
    ids=["r1-f7", "r2-f5", "r3-f3", "r2-f9", "irr2-f27", "split3-f5", "split+irr2-f5"],
)
def test_doubling_stack_is_the_sequential_one(p, m, N, kinds):
    """The stack built by doubling (powers 0..k-1 times R^k per step) is
    bit for bit the stack of sequential products, at orders that are and
    are not powers of two."""
    torus = build_maximal_torus(SympSpace(FieldCtx(p, m), N), kinds)
    want = _sequential_stack(torus)
    assert torus.stack.dtype == want.dtype and torus.stack.tobytes() == want.tobytes()


def test_dependent_generators_are_refused():
    """Two equal generators, or a generator and its square, repeat stack
    members: the torus is refused with the independence message."""
    sp = SympSpace(FieldCtx(5), 2)
    torus = build_maximal_torus(sp, ["split", "inert"])
    g = torus.generators[0]
    square = la.freeze(la.mat_mul(sp.ctx, la.thaw(g), la.thaw(g)))
    for gens in ([g, g], [g, square]):
        with pytest.raises(ValueError, match="^torus generators are not independent$"):
            Torus(sp, gens, [torus.orders[0]] * 2, torus.blocks)


@pytest.mark.parametrize("p,m,kinds", [(5, 1, ["split", "inert"]), (3, 2, ["irreducible2"])])
def test_lookup_refuses_a_matrix_outside_the_torus(p, m, kinds):
    """``exponents_of`` raises KeyError for symplectic matrices outside
    the torus and finds the identity at the zero row."""
    sp = SympSpace(FieldCtx(p, m), 2)
    torus = build_maximal_torus(sp, kinds)
    members = set(_element_keys(torus))
    assert torus.exponents_of(la.identity(sp.ctx, 4)).tolist() == [0] * len(torus.orders)
    rng = random.Random(p * 10 + m)
    outside = 0
    while outside < 5:
        g = random_symplectic(sp, rng)
        if la.freeze(g) in members:
            continue
        outside += 1
        with pytest.raises(KeyError, match="not an element of the torus"):
            torus.exponents_of(g)


def test_bad_kind_rejected():
    sp = SympSpace(FieldCtx(5), 2)
    with pytest.raises(ValueError):
        build_maximal_torus(sp, ["split"])  # dimensions do not fill 2N
    with pytest.raises(ValueError):
        build_maximal_torus(sp, ["split", "weird"])


def test_centralizer_torus_cat_map_mod_7():
    # char poly x^2 - 3x + 1, discriminant 5 is a non-residue mod 7: inert
    sp = sl2(7)
    ctx = sp.ctx
    A = [[ctx.el(2), ctx.el(1)], [ctx.el(1), ctx.el(1)]]
    torus = centralizer_torus(sp, A)
    assert torus.order == 8
    assert torus.blocks[0].name == "inert"
    assert _contains(torus, A)
    els = [la.thaw(g) for g in _element_keys(torus)]
    for a in els:
        for b in els:
            assert la.mat_mul(ctx, a, b) == la.mat_mul(ctx, b, a)


def test_centralizer_torus_split_case():
    # A = diag(2, 4) mod 7 is regular split; centralizer is the diagonal torus
    sp = sl2(7)
    ctx = sp.ctx
    A = [[ctx.el(2), ctx.zero], [ctx.zero, ctx.el(4)]]
    torus = centralizer_torus(sp, A)
    assert torus.order == 6
    assert torus.blocks[0].name == "split"
    assert _contains(torus, A)


def assert_centralizer_invariants(sp, A, torus):
    """Generators symplectic, of exact order, and the identity off their
    block; block idempotents orthogonal and summing to I; A in T.  The
    idempotents are those of ``module_structure``, each paired with the
    generator that moves its block, and that generator's order, by
    ``block_tori``."""
    ctx = sp.ctx
    ident = la.identity(ctx, sp.dim)
    zero = la.zeros(ctx, sp.dim, sp.dim)
    ms = module_structure(torus)
    idems = [la.thaw(blk.idempotent) for blk in ms.blocks]
    for (k, T), e in zip(ms.block_tori(), idems):
        g, order = la.thaw(torus.generators[k]), T.order
        assert is_symplectic(sp, g)
        assert _mat_pow(ctx, g, order) == ident
        for r, _ in factorize(order):
            assert _mat_pow(ctx, g, order // r) != ident
        off_block = [[ctx.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(ident, e)]
        assert la.mat_mul(ctx, g, off_block) == off_block
    total = zero
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            assert la.mat_mul(ctx, ei, ej) == (ei if i == j else zero)
        total = la.mat_add(ctx, total, ei)
    assert total == ident
    assert _contains(torus, A)


@pytest.mark.parametrize("p", [11, 19, 29])
def test_cat4_centralizer_torus_with_two_blocks(p):
    """At rank-2 primes every generator must act as the identity on the
    other block, or it is not symplectic."""
    sp = SympSpace(FieldCtx(p), 2)
    A = LatticeAutomorphism(CAT4_DEFAULT).mod_p(sp)
    torus = centralizer_torus(sp, A)
    assert len(torus.blocks) == 2
    assert torus.order == torus.orders[0] * torus.orders[1]
    assert_centralizer_invariants(sp, A, torus)


def _int_transvection(N, u, lam):
    """x -> x + lam * omega(x, u) * u over Z, with omega(x, u) = w . x."""
    w = [u[N + i] for i in range(N)] + [-u[i] for i in range(N)]
    return [
        [(1 if i == j else 0) + lam * u[i] * w[j] for j in range(2 * N)]
        for i in range(2 * N)
    ]


@st.composite
def integer_symplectic(draw):
    N = draw(st.sampled_from([1, 2]))
    vec = st.lists(st.integers(-2, 2), min_size=2 * N, max_size=2 * N).filter(any)
    lam = st.integers(-2, 2).filter(bool)
    A = la.identity(la.INT_RING, 2 * N)
    for _ in range(draw(st.integers(1, 6))):
        A = la.mat_mul(la.INT_RING, A, _int_transvection(N, draw(vec), draw(lam)))
    return N, A


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(integer_symplectic())
def test_centralizer_torus_invariants_property(drawn):
    N, A_int = drawn
    assert is_integer_symplectic(A_int)
    cp_int = la.charpoly(la.INT_RING, A_int)
    usable = 0
    for p in (3, 5, 7, 11, 13):
        ctx = FieldCtx(p)
        cp = gfq.poly_trim(ctx, [ctx.el(c) for c in cp_int])
        if not gfq.is_squarefree(ctx, cp):
            continue
        sp = SympSpace(ctx, N)
        A = [[ctx.el(x) for x in row] for row in A_int]
        assert_centralizer_invariants(sp, A, centralizer_torus(sp, A))
        usable += 1
    assume(usable)


def test_centralizer_rejects_non_regular():
    sp = sl2(7)
    ctx = sp.ctx
    with pytest.raises(ValueError):
        centralizer_torus(sp, la.identity(ctx, 2))


def test_centralizer_refuses_a_characteristic_polynomial_with_a_repeated_factor():
    """The one squarefree test inside ``gfq.factor_poly`` becomes the
    centralizer's own error: a transvection and -I have characteristic
    polynomial (x - 1)^2 and (x + 1)^2."""
    sp = sl2(7)
    ctx = sp.ctx
    minus_I = [[ctx.el(-1), ctx.zero], [ctx.zero, ctx.el(-1)]]
    for A in (transvection(sp, [ctx.one, ctx.zero], ctx.one), minus_I):
        with pytest.raises(ValueError, match="^degenerate centralizer: characteristic polynomial not squarefree$"):
            centralizer_torus(sp, A)


def test_torus_idempotents_refuse_a_generator_that_is_not_semisimple():
    """A unipotent generator, minimal polynomial (x - 1)^2, is refused with
    the layer's own error, not the ValueError of ``gfq.factor_poly``."""
    sp = sl2(5)
    ctx = sp.ctx
    u = transvection(sp, [ctx.one, ctx.zero], ctx.one)
    torus = Torus(sp, [la.freeze(u)], [5], [BlockInfo("split", 1, 5)])
    assert torus.order == 5
    for build in (symp.torus_idempotents, module_structure):
        with pytest.raises(RuntimeError, match="^torus generator is not semisimple$"):
            build(torus)


def test_centralizer_equals_brute_force_commutant_in_sp():
    """The torus is the full commutant inside Sp for SL(2, F_5)."""
    sp = sl2(5)
    ctx = sp.ctx
    # char poly x^2 - x + 1, discriminant -3 = 2 is a non-residue mod 5
    A = [[ctx.el(0), ctx.el(1)], [ctx.el(-1), ctx.el(1)]]
    torus = centralizer_torus(sp, A)
    count = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    g = [[ctx.el(a), ctx.el(b)], [ctx.el(c), ctx.el(d)]]
                    if ctx.sub(ctx.mul(g[0][0], g[1][1]), ctx.mul(g[0][1], g[1][0])) != ctx.one:
                        continue
                    if la.mat_mul(ctx, g, A) == la.mat_mul(ctx, A, g):
                        count += 1
                        assert _contains(torus, g)
    assert count == torus.order


@pytest.mark.parametrize(
    "p,kind,expected_rank",
    [
        (5, ["split"], 1),
        (5, ["inert"], 1),
        (5, ["split", "split"], 2),
        (5, ["split", "inert"], 2),
        (5, ["inert", "inert"], 2),
        (3, ["irreducible2"], 1),
        (3, [("split", 2)], 1),
    ],
)
def test_symplectic_rank(p, kind, expected_rank):
    N = sum(2 * (int(k[1]) if isinstance(k, tuple) else (2 if "2" in k else 1)) for k in kind) // 2
    sp = SympSpace(FieldCtx(p), N)
    torus = build_maximal_torus(sp, kind)
    assert module_structure(torus).rank == len(torus.blocks) == expected_rank


def test_rank_from_charpoly_pairs_duals():
    F7 = FieldCtx(7)
    # (x - 3)(x - 5)(x^2 + 1): the pair (x-3, x-5) is dual (3*5 = 1 mod 7),
    # x^2 + 1 is irreducible and self-dual
    from weilrep.gfq import poly_mul

    f = poly_mul(F7, poly_mul(F7, poly_from_ints(F7, [-3, 1]), poly_from_ints(F7, [-5, 1])), poly_from_ints(F7, [1, 0, 1]))
    blocks, r = rank_from_charpoly(F7, f)
    assert r == 2
    names = sorted(b.name for b in blocks)
    assert names == ["inert", "split"]


#: characteristic polynomials (constant term first) of cat2, of cat4 and of a
#: degree-6 reciprocal polynomial whose trace polynomial t^3 - t - 1 has
#: Galois group S3 (discriminant -23)
CAT2_CHARPOLY = [1, -3, 1]
CAT4_CHARPOLY = [1, -2, -2, -2, 1]
SP6_CHARPOLY = [1, 0, 2, -1, 2, 0, 1]


def test_trace_polynomial():
    assert LatticeAutomorphism(CAT4_DEFAULT).charpoly == CAT4_CHARPOLY
    assert trace_polynomial(CAT4_CHARPOLY) == [-4, -2, 1]  # t^2 - 2t - 4
    assert trace_polynomial(CAT2_CHARPOLY) == [-3, 1]  # t - 3
    assert trace_polynomial(SP6_CHARPOLY) == [-1, -1, 0, 1]  # t^3 - t - 1
    for bad in ([1, -2, -2, -3, 1], [1, 2, 2, 1], [2, 1, 2], []):
        with pytest.raises(ValueError):
            trace_polynomial(bad)


@pytest.mark.parametrize("cp", [CAT2_CHARPOLY, CAT4_CHARPOLY, SP6_CHARPOLY])
def test_trace_polynomial_rank_matches_full_factorization(cp):
    """At every odd prime up to 3000, a prime is skipped exactly when the
    characteristic polynomial is not squarefree, and otherwise the factor
    count of the trace polynomial is the rank of the full factorization,
    and its factor degrees those of the full factorization of h."""
    h = trace_polynomial(cp)
    n_skipped = 0
    for p in primes_up_to(3000)[1:]:
        ctx = FieldCtx(p)
        f = poly_from_ints(ctx, cp)
        degrees = trace_factor_degrees(ctx, h)
        if not gfq.is_squarefree(ctx, f):
            assert degrees is None, p
            n_skipped += 1
            continue
        assert len(degrees) == rank_from_charpoly(ctx, f)[1], p
        h_factors = gfq.factor_poly(ctx, poly_from_ints(ctx, h))
        assert degrees == tuple(sorted(gfq.poly_deg(g) for g in h_factors)), p
    assert n_skipped > 0


def test_rank_density_sp6_follows_s3():
    """Chebotarev for t^3 - t - 1 (Galois group S3): the factor degrees
    are the cycle type of Frobenius, 3, 1+2 or 1+1+1 with densities 1/3,
    1/2 and 1/6 (3-cycles, transpositions, identity), so the rank is 1, 2
    or 3 with those densities."""
    h = trace_polynomial(SP6_CHARPOLY)
    counts = {}
    for p in primes_up_to(20000)[1:]:
        degrees = trace_factor_degrees(FieldCtx(p), h)
        if degrees is not None:
            counts[degrees] = counts.get(degrees, 0) + 1
    used = sum(counts.values())
    assert set(counts) == {(3,), (1, 2), (1, 1, 1)}
    for degrees, density in (((3,), 1 / 3), ((1, 2), 1 / 2), ((1, 1, 1), 1 / 6)):
        assert abs(counts[degrees] / used - density) <= 0.05, (degrees, counts)


def test_module_structure_sl2_split_is_base_field():
    sp = sl2(5)
    torus = build_maximal_torus(sp, ["split"])
    ms = module_structure(torus)
    assert ms.rank == 1
    blk = ms.blocks[0]
    assert blk.degree == 1
    assert blk.name == "split"
    # omega_bar coincides with omega through the trivial trace
    ctx = sp.ctx
    I = la.identity(ctx, 2)
    for i in range(2):
        for j in range(2):
            ob = blk.omega_bar(I[i], I[j])
            assert ob == _omega_bar_oracle(blk, I[i], I[j])
            assert _relative_trace(blk, ob) == sp.omega(I[i], I[j])


def test_module_structure_inert_sl2_f5():
    sp = sl2(5)
    torus = build_maximal_torus(sp, ["inert"])
    ms = module_structure(torus)
    assert ms.rank == 1
    assert ms.blocks[0].degree == 1
    assert ms.blocks[0].name == "inert"


def test_module_structure_irreducible_sp4():
    sp = SympSpace(FieldCtx(3), 2)
    torus = build_maximal_torus(sp, ["irreducible2"])
    ms = module_structure(torus)
    assert ms.rank == 1
    blk = ms.blocks[0]
    assert blk.degree == 2  # K is the quadratic extension, dim_K V = 2
    assert len(blk.v_basis) == 4


def test_module_structure_product_torus():
    sp = SympSpace(FieldCtx(5), 2)
    torus = build_maximal_torus(sp, ["split", "inert"])
    ms = module_structure(torus)
    assert ms.rank == 2
    names = sorted(blk.name for blk in ms.blocks)
    assert names == ["inert", "split"]


def test_module_structure_requires_maximal_torus():
    # the two-element subgroup {I, -I} of SL(2, F_5) is not maximal
    sp = sl2(5)
    ctx = sp.ctx
    minus_I = la.freeze([[ctx.el(-1), ctx.zero], [ctx.zero, ctx.el(-1)]])
    small = Torus(sp, [minus_I], [2], [BlockInfo("split", 1, 2)])
    with pytest.raises(ValueError):
        module_structure(small)


def _squares_subgroup(torus):
    """The subgroup generated by the squares of the torus generators."""
    ctx = torus.space.ctx
    gens = [la.freeze(_mat_pow(ctx, g, 2)) for g in torus.generators]
    return Torus(torus.space, gens, [o // 2 for o in torus.orders], torus.blocks)


def test_module_structure_is_refused_exactly_when_the_commutant_is_too_big():
    """The line test on the torus idempotents raises exactly when the
    commutant Z(T, End V) is not of dimension 2N, and each block's name
    agrees with the order of the torus restricted to it: a divisor of
    q^d - 1 on a split block, of q^d + 1 on an inert or irreducible one,
    with equality for the maximal tori."""
    tori = []
    for p in (3, 5):
        for N, kinds in ((1, SL2_KINDS), (2, SP4_KINDS)):
            sp = SympSpace(FieldCtx(p), N)
            minus_I = la.freeze(_mat_pow(sp.ctx, sp.gram, 2))  # J^2 = -I
            tori.append((Torus(sp, [minus_I], [2], [BlockInfo("split", 1, 2)]), False))
            for kind in kinds:
                torus = build_maximal_torus(sp, kind)
                tori += [(torus, True), (_squares_subgroup(torus), False)]
    outcomes = set()
    for torus, maximal in tori:
        sp, ctx = torus.space, torus.space.ctx
        determined = len(centralizer_algebra(sp, torus.generators)) == sp.dim
        outcomes.add(determined)
        if not determined:
            with pytest.raises(ValueError):
                module_structure(torus)
            continue
        for blk in module_structure(torus).blocks:
            e = la.thaw(blk.idempotent)
            order = len({la.freeze(la.mat_mul(ctx, e, la.thaw(g))) for g in _element_keys(torus)})
            field_order = ctx.q**blk.degree + (-1 if blk.name == "split" else 1)
            assert order > 2 and field_order % order == 0, (blk.name, order)
            assert order == field_order or not maximal
    assert outcomes == {True, False}


def _sl2_generators(ms):
    """Generators of prod SL(2, K_alpha) as block tuples: on one block an
    elementary unipotent over the power basis of K_alpha or the Weyl
    element, the identity on the others."""
    ones = [((blk.field.one, blk.field.zero), (blk.field.zero, blk.field.one)) for blk in ms.blocks]
    gens = []
    for i, blk in enumerate(ms.blocks):
        K = blk.field
        mats = []
        for k in range(K.m):
            xk = K.from_int(K.p**k)
            mats += [((K.one, xk), (K.zero, K.one)), ((K.one, K.zero), (xk, K.one))]
        mats.append(((K.zero, K.one), (K.neg(K.one), K.zero)))
        gens += [tuple(ones[:i] + [mat2] + ones[i + 1 :]) for mat2 in mats]
    return gens


def test_sl2_embedding_lands_in_sp():
    """Every K-linear symplectomorphism embeds into Sp(V, omega)."""
    for p, kind, N in [(3, ["irreducible2"], 2), (5, ["split", "inert"], 2), (7, ["inert"], 1)]:
        sp = SympSpace(FieldCtx(p), N)
        torus = build_maximal_torus(sp, kind)
        ms = module_structure(torus)
        for gb in _sl2_generators(ms):
            g = _embed_sl2(ms, gb)
            assert is_symplectic(sp, g)


def test_torus_elements_embed_as_sl2_over_K():
    sp = SympSpace(FieldCtx(3), 2)
    torus = build_maximal_torus(sp, ["irreducible2"])
    ms = module_structure(torus)
    for gkey, gb in zip(_element_keys(torus), ms.block_matrices(torus.stack)):
        # determinant over K of a torus element is 1
        K = ms.blocks[0].field
        ((a, b), (c, d)) = gb[0]
        assert K.sub(K.mul(a, d), K.mul(b, c)) == K.one
        # re-embedding recovers the element
        assert la.freeze(_embed_sl2(ms, gb)) == gkey


@pytest.mark.parametrize("p", [11, 19])
def test_torus_elements_of_a_centralizer_torus_embed_back_as_one_stack(p):
    """The blocks of a cat4 centralizer torus are not spanned by standard
    basis vectors, so the block terms of ``embed_sl2_stack`` overlap in
    coordinates; the stack of all torus elements comes back entry for
    entry as ``Torus.stack``."""
    A = LatticeAutomorphism(CAT4_DEFAULT)
    sp = SympSpace(FieldCtx(p), A.N)
    torus = centralizer_torus(sp, A.mod_p(sp))
    ms = module_structure(torus)
    stack = ms.embed_sl2_stack(ms.block_matrices(torus.stack))
    assert np.array_equal(stack, torus.stack)


@pytest.mark.parametrize(
    "p,m,kind",
    [(5, 1, ["split", "inert"]), (7, 1, ["inert", "inert"]), (5, 1, [("split", 2)]),
     (3, 2, ["irreducible2"])],
    ids=["split+inert-q5", "inert+inert-q7", "split2-q5", "irreducible2-q9"],
)
def test_block_tori_pair_each_block_with_the_generator_that_moves_it(p, m, kind):
    """Each block torus is cyclic of order |K| -+ 1 over the block field,
    generated by the block of its generator; every torus element's block
    lies in it, and the other generators fix the block.  A torus whose
    generators do not match the blocks one to one is refused."""
    sp = SympSpace(FieldCtx(p, m), 2)
    torus = build_maximal_torus(sp, kind)
    ms = module_structure(torus)
    pairs = ms.block_tori()
    assert sorted(k for k, _ in pairs) == list(range(len(torus.generators)))
    for i, (blk, (k, T)) in enumerate(zip(ms.blocks, pairs)):
        K = blk.field
        assert T.space.ctx is K and T.space.N == 1
        assert T.descriptor_string() == ("split" if blk.name == "split" else "inert")
        assert T.order == torus.orders[k] == (K.q - 1 if blk.name == "split" else K.q + 1)
        gen_blocks = [_element_as_sl2(ms, g) for g in torus.generators]
        assert T.generators == [gen_blocks[k][i]]
        one = ((K.one, K.zero), (K.zero, K.one))
        for j, gb in enumerate(gen_blocks):
            assert (gb[i] == one) == (j != k)
        assert all(_contains(T, gb[i]) for gb in ms.block_matrices(torus.stack))
    if len(ms.blocks) == 2:
        g0, g1 = (la.thaw(g) for g in torus.generators)
        both = la.freeze(la.mat_mul(sp.ctx, g0, g1))
        o0, o1 = torus.orders
        one_gen = Torus(sp, [both], [math.lcm(o0, o1)], torus.blocks[:1])
        first_only = Torus(sp, [torus.generators[0]], [o0], torus.blocks[:1])
        # the same group, generated by g1 and g0 g1: the second moves both blocks
        two_movers = Torus(sp, [torus.generators[1], both], [o1, o0], torus.blocks[::-1])
        assert set(_element_keys(two_movers)) == set(_element_keys(torus))
        for bad in (one_gen, first_only, two_movers):
            with pytest.raises(ValueError):
                SympModuleStructure(bad, ms.blocks).block_tori()


def test_maximality_torus_is_own_centralizer():
    """|Z(T, Sp)| = |T| for built tori in small groups."""
    # split blocks need q >= 4: over F_3 the split point group is {+-1},
    # which is central, so its commutant is strictly larger
    cases = [
        (5, 1, ["split"]),
        (5, 1, ["inert"]),
        (3, 1, ["inert"]),
        (3, 2, ["irreducible2"]),
        (5, 2, ["split", "inert"]),
        (3, 2, [("split", 2)]),
    ]
    for p, N, kind in cases:
        sp = SympSpace(FieldCtx(p), N)
        torus = build_maximal_torus(sp, kind)
        alg = centralizer_algebra(sp, torus.generators)
        assert len(alg) == 2 * N
        # norm-one elements of the centralizer algebra = the torus itself:
        # scan the algebra when small enough
        ctx = sp.ctx
        if ctx.q ** len(alg) <= 10**4:
            count = 0
            import itertools as it

            for coeffs in it.product(range(ctx.q), repeat=len(alg)):
                M = la.zeros(ctx, sp.dim, sp.dim)
                for cenc, B in zip(coeffs, alg):
                    c = ctx.from_int(cenc)
                    if c != ctx.zero:
                        for i in range(sp.dim):
                            for j in range(sp.dim):
                                M[i][j] = ctx.add(M[i][j], ctx.mul(c, B[i][j]))
                if is_symplectic(sp, M):
                    count += 1
                    assert _contains(torus, M)
            assert count == torus.order


@pytest.mark.parametrize(
    "p,m,kind",
    [
        (3, 1, ["irreducible2"]),
        (3, 2, ["irreducible2"]),  # K = GF(81) over GF(9)
        (5, 1, ["split", "inert"]),
        (3, 1, ["irreducible3"]),
        (3, 1, ["split2"]),
        (5, 1, ["split2"]),
    ],
)
def test_block_mat_is_a_ring_isomorphism_onto_the_fixed_algebra(p, m, kind):
    """mat: K_alpha -> End(V) is injective, unital, additive, multiplicative
    and GF(q)-linear, and its image is the block's fixed algebra: matrices
    supported on the block, commuting with the torus, fixed by the
    symplectic transpose; |K_alpha| = q^d of them fill that F_q-space of
    dimension d."""
    ctx = FieldCtx(p, m)
    N = sum(int(k[-1]) if k[-1].isdigit() else 1 for k in kind)
    sp = SympSpace(ctx, N)
    torus = build_maximal_torus(sp, kind)
    ms = module_structure(torus)
    rng = random.Random(7)
    for blk in ms.blocks:
        K = blk.field
        assert K.q == ctx.q**blk.degree
        e = la.thaw(blk.idempotent)
        assert blk.mat(K.one) == e
        assert blk.mat(K.zero) == la.zeros(ctx, sp.dim, sp.dim)
        images = {}
        for a in K.elements():
            M = blk.mat(a)
            images[la.freeze(M)] = a
            assert la.mat_mul(ctx, e, M) == M
            assert symplectic_transpose(sp, M) == M
            for g in torus.generators:
                g = la.thaw(g)
                assert la.mat_mul(ctx, g, M) == la.mat_mul(ctx, M, g)
        assert len(images) == K.q
        emb = gfq.subfield_embedding(ctx, K)
        els = list(K.elements())
        for _ in range(25):
            a, b = rng.choice(els), rng.choice(els)
            c = ctx.from_int(rng.randrange(ctx.q))
            assert blk.mat(K.mul(a, b)) == la.mat_mul(ctx, blk.mat(a), blk.mat(b))
            assert blk.mat(K.add(a, b)) == la.mat_add(ctx, blk.mat(a), blk.mat(b))
            scaled = [[ctx.mul(c, x) for x in row] for row in blk.mat(a)]
            assert blk.mat(K.mul(emb.up(c), a)) == scaled
            # the relative trace is GF(q)-linear and Tr(1) = d
            assert _relative_trace(blk, K.add(a, b)) == ctx.add(_relative_trace(blk, a), _relative_trace(blk, b))
        assert _relative_trace(blk, K.one) == ctx.el(blk.degree)


def test_module_structure_sp6_irreducible_degree_3():
    sp = SympSpace(FieldCtx(3), 3)
    torus = build_maximal_torus(sp, ["irreducible3"])
    assert torus.order == 3**3 + 1
    ms = module_structure(torus)
    assert ms.rank == 1
    assert ms.blocks[0].degree == 3


def test_module_structure_sp8_inert_fourth_power():
    """Four inert blocks over F_3: the fixed algebra F_3^4 has no primitive
    element, exercising the iterative idempotent splitting."""
    sp = SympSpace(FieldCtx(3), 4)
    torus = build_maximal_torus(sp, ["inert"] * 4)
    ms = module_structure(torus)
    assert ms.rank == 4
    assert all(blk.name == "inert" for blk in ms.blocks)
    assert ms.rank == len(torus.blocks) == 4


# -- block coordinate maps against the omega_bar path they replace -------------

#: (p, m, N, kind): prime and extension base fields, one and two blocks,
#: block fields GF(q), GF(q^2) and GF(81)
MAP_CASES = [
    (3, 1, 2, ["irreducible2"]),
    (5, 1, 2, ["split", "inert"]),
    (5, 1, 2, [("split", 2)]),
    (3, 2, 1, ["irreducible1"]),
    (3, 2, 2, ["irreducible2"]),
    (5, 1, 1, ["split"]),
]


def _map_case(p, m, N, kind):
    sp = SympSpace(FieldCtx(p, m), N)
    return sp, module_structure(build_maximal_torus(sp, kind))


def _random_vector(ctx, n, rng):
    return [ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)]


def _project(blk, v):
    """v_alpha, by the block idempotent."""
    return la.mat_vec(blk.space.ctx, la.thaw(blk.idempotent), v)


def _prime_basis(ctx, n):
    """The F_p basis of GF(q)^n in the order of the F_p coordinates: the
    vector at position i*m + k has component i = x^k, the others 0."""
    out = []
    for i in range(n):
        for k in range(ctx.m):
            v = [ctx.zero] * n
            v[i] = ctx.from_int(ctx.p**k)
            out.append(v)
    return out


def _relative_trace(blk, a):
    """Tr_{K_alpha / F_q}(a): half the trace of mat(a), since V_alpha is free
    of rank 2 over K_alpha."""
    ctx = blk.space.ctx
    return ctx.mul(ctx.inv(ctx.el(2)), la.trace(ctx, blk.mat(a)))


@functools.lru_cache(maxsize=None)
def _field_trace_gram(K):
    xs = [K.from_int(K.p**k) for k in range(K.m)]
    return [[K.trace_to_prime(K.mul(a, b)) for b in xs] for a in xs]


def _omega_bar_oracle(blk, u, v):
    """omega_bar(u_alpha, v_alpha) by trace and solve over GF(q) lists, the
    oracle of the block's tensor: the w in K_alpha whose F_p traces
    Tr_{K/F_p}(x^k w) are Tr omega(mat(x^k) u_alpha, v_alpha), solved
    against Tr_{K/F_p}(x^k x^l) for the power basis x^k of K_alpha."""
    ctx, K = blk.space.ctx, blk.field
    u, v = _project(blk, u), _project(blk, v)
    traces = [ctx.trace_to_prime(blk.space.omega(la.mat_vec(ctx, X, u), v)) for X in blk._powers]
    return K.el(la.solve(K.prime_field, _field_trace_gram(K), traces))


def _coords_by_omega_bar(blk, v):
    """(x, y) with v_alpha = x E + y F, read off the omega_bar oracle."""
    return _omega_bar_oracle(blk, v, blk.F), _omega_bar_oracle(blk, blk.E, v)


def _from_coords_by_mat(blk, x, y):
    ctx = blk.space.ctx
    xE = la.mat_vec(ctx, blk.mat(x), blk.E)
    yF = la.mat_vec(ctx, blk.mat(y), blk.F)
    return [ctx.add(a, b) for a, b in zip(xE, yF)]


def _embed_sl2_by_columns(ms, g_blocks):
    """The global matrix of a block tuple, one column at a time, with every
    block coordinate read off omega_bar."""
    ctx = ms.space.ctx
    n = ms.space.dim
    cols = []
    for j in range(n):
        w = [ctx.one if i == j else ctx.zero for i in range(n)]
        out = [ctx.zero] * n
        for blk, ((a, b), (c, d)) in zip(ms.blocks, g_blocks):
            K = blk.field
            x, y = _coords_by_omega_bar(blk, w)
            nx = K.add(K.mul(a, x), K.mul(b, y))
            ny = K.add(K.mul(c, x), K.mul(d, y))
            out = [ctx.add(u, v) for u, v in zip(out, _from_coords_by_mat(blk, nx, ny))]
        cols.append(out)
    return la.transpose(cols)


def _unflat(ctx, c):
    """The vector over GF(p^m) with F_p coordinates c."""
    m = ctx.m
    return [ctx.el(c[i : i + m]) for i in range(0, len(c), m)]


def _coords_sl2(blk, v):
    """(x, y) in K_alpha with v_alpha = x E + y F, through ``to_coords``."""
    K = blk.field
    c = blk.to_coords @ np.asarray(v, dtype=np.int64).reshape(-1) % K.p
    return K.el(c[: K.m]), K.el(c[K.m :])


def _from_coords(blk, x, y):
    """x E + y F, through ``from_coords_mat``."""
    K = blk.field
    c = blk.from_coords_mat @ np.array(K.serialize(x) + K.serialize(y)) % K.p
    return _unflat(blk.space.ctx, c)


def _element_as_sl2(ms, g):
    """The block 2 x 2 matrices over the K_alpha of one block-preserving
    K-linear map over GF(q), from the block coordinates of g E and g F: the
    per-element oracle of ``SympModuleStructure.block_matrices``."""
    ctx = ms.space.ctx
    g = la.thaw(g)
    out = []
    for blk in ms.blocks:
        a, c = _coords_sl2(blk, la.mat_vec(ctx, g, blk.E))
        b, d = _coords_sl2(blk, la.mat_vec(ctx, g, blk.F))
        out.append(((a, b), (c, d)))
    return tuple(out)


def _embed_sl2(ms, g_blocks):
    """``embed_sl2_stack`` of one tuple of block matrices, read back over
    GF(q)."""
    return la.thaw(symp.field_matrix_keys(ms.space.ctx, ms.embed_sl2_stack([g_blocks]))[0])


def _mul2(K, g, h):
    return tuple(
        tuple(K.add(K.mul(g[i][0], h[0][j]), K.mul(g[i][1], h[1][j])) for j in range(2))
        for i in range(2)
    )


BLOCK_MAP_CASES = [
    (3, 1, 2, ["irreducible2"]),
    (5, 1, 2, ["split", "inert"]),
    (5, 1, 2, [("split", 2)]),
    (7, 1, 2, ["inert", "inert"]),
    (3, 2, 2, ["irreducible2"]),
    (3, 3, 2, ["irreducible2"]),
    (5, 1, 3, ["split", "irreducible2"]),
    (3, 1, 3, ["irreducible3"]),
    (5, 2, 1, ["split"]),
    (11, 1, 2, "cat4"),
    (19, 1, 2, "cat4"),
    (23, 1, 2, "cat4"),
]


@pytest.mark.parametrize(
    "p,m,N,kind", BLOCK_MAP_CASES,
    ids=[f"{'+'.join(map(str, k)) if k != 'cat4' else k}-p{p}-m{m}-N{N}" for p, m, N, k in BLOCK_MAP_CASES],
)
def test_block_matrices_match_the_per_element_oracle(p, m, N, kind):
    """The stack block map gives, bit for bit, the block tuples of the
    per-element oracle at every torus element; the cat4 centralizer tori
    have blocks that standard basis vectors do not span."""
    sp = SympSpace(FieldCtx(p, m), N)
    if kind == "cat4":
        torus = centralizer_torus(sp, LatticeAutomorphism(CAT4_DEFAULT).mod_p(sp))
    else:
        torus = build_maximal_torus(sp, kind)
    ms = module_structure(torus)
    want = [_element_as_sl2(ms, g) for g in _element_keys(torus)]
    assert ms.block_matrices(torus.stack) == want


@pytest.mark.parametrize("p,m,N,kind", MAP_CASES)
def test_coordinate_maps_match_omega_bar(p, m, N, kind):
    """``to_coords`` (the forward map) agrees with omega_bar on random
    vectors, ``from_coords_mat`` after it is the block projection, and
    ``from_coords_mat`` agrees with the power-basis matrices applied to E
    and F."""
    sp, ms = _map_case(p, m, N, kind)
    ctx = sp.ctx
    rng = random.Random(p * 100 + m * 10 + N)
    for blk in ms.blocks:
        K = blk.field
        assert blk.to_coords.shape == (2 * K.m, sp.dim * ctx.m)
        assert blk.from_coords_mat.shape == (sp.dim * ctx.m, 2 * K.m)
        for _ in range(30):
            v = _random_vector(ctx, sp.dim, rng)
            x, y = _coords_sl2(blk, v)
            assert (x, y) == _coords_by_omega_bar(blk, v)
            assert _from_coords(blk, x, y) == _project(blk, v)
            x, y = K.from_int(rng.randrange(K.q)), K.from_int(rng.randrange(K.q))
            assert _from_coords(blk, x, y) == _from_coords_by_mat(blk, x, y)
            assert _coords_sl2(blk, _from_coords(blk, x, y)) == (x, y)


@pytest.mark.parametrize("p,m,N,kind", MAP_CASES)
def test_embed_sl2_matches_the_column_construction_and_is_a_homomorphism(p, m, N, kind):
    sp, ms = _map_case(p, m, N, kind)
    rng = random.Random(p * 100 + m * 10 + N + 1)
    for _ in range(8):
        g = tuple(_random_sl2(blk.field, rng) for blk in ms.blocks)
        h = tuple(_random_sl2(blk.field, rng) for blk in ms.blocks)
        Gg, Gh = _embed_sl2(ms, g), _embed_sl2(ms, h)
        assert Gg == _embed_sl2_by_columns(ms, g)
        assert is_symplectic(sp, Gg)
        gh = tuple(_mul2(blk.field, a, b) for blk, a, b in zip(ms.blocks, g, h))
        assert _embed_sl2(ms, gh) == la.mat_mul(sp.ctx, Gg, Gh)
        stack = ms.embed_sl2_stack([g, h, gh])
        assert np.array_equal(stack, restrict_scalars(sp.ctx, [Gg, Gh, _embed_sl2(ms, gh)]))
    got = ms.block_matrices(ms.torus.stack[:20])
    for gkey, gb in zip(_element_keys(ms.torus)[:20], got):
        g = la.thaw(gkey)
        want = []
        for blk in ms.blocks:
            a, c = _coords_by_omega_bar(blk, la.mat_vec(sp.ctx, g, blk.E))
            b, d = _coords_by_omega_bar(blk, la.mat_vec(sp.ctx, g, blk.F))
            want.append(((a, b), (c, d)))
        assert gb == tuple(want)


@pytest.mark.parametrize("p,m,N,kind", MAP_CASES)
def test_omega_bar_tensor_matches_the_trace_and_solve_oracle(p, m, N, kind):
    """On every pair of F_p basis vectors, and on random pairs left
    unprojected, omega_bar read from the tensor is the oracle's value, and
    each block's trace_gram entry is its absolute trace."""
    sp, ms = _map_case(p, m, N, kind)
    ctx = sp.ctx
    basis = _prime_basis(ctx, sp.dim)
    rng = random.Random(p * 100 + m * 10 + N + 2)
    for blk in ms.blocks:
        K = blk.field
        assert blk.omega_tensor.shape == (K.m, sp.dim * ctx.m, sp.dim * ctx.m)
        for s, u in enumerate(basis):
            for t, v in enumerate(basis):
                ob = blk.omega_bar(u, v)
                assert ob == _omega_bar_oracle(blk, u, v)
                assert blk.trace_gram[s, t] == K.trace_to_prime(ob)
        for _ in range(10):
            u, v = _random_vector(ctx, sp.dim, rng), _random_vector(ctx, sp.dim, rng)
            assert blk.omega_bar(u, v) == _omega_bar_oracle(blk, u, v)


# -- each identity of the module-structure validation sees its own fault ---------

MUTATION_CASES = [(3, 1, 2, ["irreducible2"]), (5, 1, 2, ["split", "inert"]), (3, 2, 2, ["irreducible2"])]
MUTATION_IDS = ["irreducible2-q3", "split+inert-q5", "irreducible2-q9"]


@pytest.mark.parametrize("p,m,N,kind", MUTATION_CASES, ids=MUTATION_IDS)
def test_validation_sees_one_doctored_tensor_entry(p, m, N, kind, monkeypatch):
    """One entry of each block's tensor moved by one before the partner F
    and the coordinate maps are read from it: coefficient 0 at (a, a), a
    the first F_p coordinate of E, so that omega_bar(E, E) is no longer 0
    and the (E, F) round trip fails.  E is the first nonzero column of the
    block idempotent, the F_p matrix R_0 of mat(1)."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    real = symp._omega_bar_tensor

    def doctored(space, R, trace_dual):
        out = real(space, R, trace_dual).copy()
        cE = R[0][:, np.flatnonzero(R[0].any(axis=0))[0]]
        a = np.flatnonzero(cE)[0]
        out[0, a, a] = (out[0, a, a] + 1) % space.ctx.p
        return out

    monkeypatch.setattr(symp, "_omega_bar_tensor", doctored)
    with pytest.raises(AssertionError, match=r"^\(E, F\) is not a K-basis of the block$"):
        module_structure(torus)


@pytest.mark.parametrize("p,m,N,kind", MUTATION_CASES, ids=MUTATION_IDS)
def test_validation_sees_one_doctored_block_trace(p, m, N, kind):
    """One entry of one block's field traces moved by one: the traces of
    omega_bar no longer sum to omega.  The undoctored structure passes."""
    sp = SympSpace(FieldCtx(p, m), N)
    ms = module_structure(build_maximal_torus(sp, kind))
    symp._validate_module_structure(ms)
    for blk in ms.blocks:
        for r, j in itertools.product(range(m), range(blk.field.m)):
            saved = blk.field_traces
            blk.field_traces = saved.copy()
            blk.field_traces[r, j] = (saved[r, j] + 1) % p
            with pytest.raises(AssertionError, match="^trace of omega_bar does not recover omega$"):
                symp._validate_module_structure(ms)
            blk.field_traces = saved
    symp._validate_module_structure(ms)


@pytest.mark.parametrize("p,m,N,kind", MUTATION_CASES, ids=MUTATION_IDS)
def test_validation_sees_a_generator_from_outside_the_torus(p, m, N, kind):
    """Each torus generator in turn replaced by a random symplectic matrix
    outside the torus: omega_bar is not invariant under it."""
    sp = SympSpace(FieldCtx(p, m), N)
    ms = module_structure(build_maximal_torus(sp, kind))
    rng = random.Random(p * 10 + m)
    for k in range(len(ms.torus.generators)):
        g = la.freeze(random_symplectic(sp, rng))
        assert not _contains(ms.torus, g)
        gens = list(ms.torus.generators)
        gens[k] = g
        # a copy with the generators swapped, not re-enumerated: the foreign
        # generator need not have the declared order
        foreign_torus = copy.copy(ms.torus)
        foreign_torus.generators = gens
        foreign = SympModuleStructure(foreign_torus, ms.blocks)
        with pytest.raises(AssertionError, match="^omega_bar is not torus-invariant$"):
            symp._validate_module_structure(foreign)


def _order_verdict_by_lists(ctx, g, order):
    """The message the order check raises, or None, from powers over GF(q)
    lists: the oracle of ``symp._assert_order``."""
    ident = la.identity(ctx, len(g))
    if _mat_pow(ctx, g, order) != ident:
        return "generator order too large"
    if any(_mat_pow(ctx, g, order // r) == ident for r, _ in factorize(order)):
        return "generator order too small"
    return None


@pytest.mark.parametrize(
    "p,m,N,kind",
    [(5, 1, 1, ["split"]), (5, 1, 2, ["split", "inert"]), (3, 1, 2, ["irreducible2"]),
     (3, 1, 2, [("split", 2)]), (3, 2, 1, ["inert"]), (3, 2, 2, ["irreducible2"])],
)
def test_order_check_on_the_prime_field_matrix_matches_the_list_powers(p, m, N, kind):
    """The order check by squaring the F_p matrix gives the verdict of the
    GF(q) powers for the exact order n (passes), 2n (too small) and n/2
    (too large)."""
    sp = SympSpace(FieldCtx(p, m), N)
    torus = build_maximal_torus(sp, kind)
    for g, n in zip(torus.generators, torus.orders):
        for declared, want in ((n, None), (2 * n, "generator order too small"),
                               (n // 2, "generator order too large")):
            assert _order_verdict_by_lists(sp.ctx, g, declared) == want
            try:
                symp._assert_order(sp.ctx, la.thaw(g), declared)
                got = None
            except AssertionError as exc:
                got = str(exc)
            assert got == want


def test_extension_fields_are_built_once_per_process(monkeypatch):
    """The norm-one generator's GF(q^(2d)) and the block field GF(q^d) come
    from the one cached constructor: building the same module structure
    twice searches for each modulus and each generator once."""
    moduli, generators = [], []
    real_find, real_generator = gfq.find_irreducible, gfq.FieldCtx.generator.fget

    def find(ctx, d):
        moduli.append((ctx.q, d))
        return real_find(ctx, d)

    def generator(ctx):
        if ctx._generator is None:
            generators.append(ctx.q)
        return real_generator(ctx)

    monkeypatch.setattr(gfq, "find_irreducible", find)
    monkeypatch.setattr(gfq.FieldCtx, "generator", property(generator))
    gfq.extension_field.cache_clear()
    fields = []
    for _ in range(2):
        ms = module_structure(build_maximal_torus(SympSpace(FieldCtx(3), 2), ["irreducible2"]))
        fields.append(ms.blocks[0].field)
    assert fields[0] is fields[1] is gfq.extension_field(3, 2)
    assert sorted(moduli) == [(3, 2), (3, 4)]
    assert generators == [81]
