"""Field arithmetic, characters, and factorization."""

import random

import pytest

from weilrep.gfq import (
    FieldCtx,
    factor_poly,
    factorize,
    find_irreducible,
    is_irreducible,
    is_squarefree,
    is_prime,
    poly_deg,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_from_ints,
    poly_gcd,
    poly_inverse_mod,
    poly_mul,
    poly_pow_mod,
    poly_mod,
    poly_roots,
    poly_to_key,
    poly_sub,
    reciprocal_dual,
    subfield_embedding,
)


def trace_norm(ctx_big: FieldCtx, ctx_small: FieldCtx, a):
    """Relative trace and norm of ``a`` from ctx_big down to ctx_small,
    both as elements of the small field, from the Frobenius orbit of a."""
    emb = subfield_embedding(ctx_small, ctx_big)
    d = ctx_big.m // ctx_small.m
    qs = ctx_small.q
    tr = a
    nm = a
    cur = a
    for _ in range(d - 1):
        cur = ctx_big.pow(cur, qs)
        tr = ctx_big.add(tr, cur)
        nm = ctx_big.mul(nm, cur)
    return emb.down(tr), emb.down(nm)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 65537}
    for n in range(2, 100):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    for n in primes:
        assert is_prime(n)


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_ctx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldCtx(4)
    with pytest.raises(ValueError):
        FieldCtx(2)
    with pytest.raises(ValueError):
        FieldCtx(5, 0)


def test_prime_field_arithmetic():
    F5 = FieldCtx(5)
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(3) == 2
    assert F5.pow(2, -1) == 3
    assert F5.sub(0, 1) == 4


def test_extension_field_axioms():
    """Exhaustive field axioms in GF(9), GF(25), GF(81) and GF(125)."""
    for p, m in [(3, 2), (5, 2), (3, 4), (5, 3)]:
        ctx = FieldCtx(p, m)
        els = list(ctx.elements())
        assert len(els) == p**m
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ctx.zero)
        for a in els:
            assert ctx.add(a, ctx.zero) == a
            assert ctx.mul(a, ctx.one) == a
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one
        rng = random.Random(0)
        for _ in range(200):
            a, b, c = (ctx.from_int(rng.randrange(ctx.q)) for _ in range(3))
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_poly_inverse_mod():
    F7 = FieldCtx(7)
    mod = poly_from_ints(F7, [2, -3, 1])  # (x - 1)(x - 2)
    a = poly_from_ints(F7, [-3, 1])
    inv = poly_inverse_mod(F7, a, mod)
    assert poly_deg(inv) < poly_deg(mod)
    assert poly_mod(F7, poly_mul(F7, a, inv), mod) == [F7.one]
    # a is reduced mod the modulus first
    assert poly_inverse_mod(F7, poly_sub(F7, a, mod), mod) == inv
    for shared in ([-1, 1], [0], [2, -3, 1]):
        with pytest.raises(ZeroDivisionError):
            poly_inverse_mod(F7, poly_from_ints(F7, shared), mod)


def test_canonical_modulus_f9_is_x2_plus_1():
    # least-encoding irreducible of degree 2 over GF(3) is x^2 + 1
    ctx = FieldCtx(3, 2)
    assert ctx.modulus == (1, 0, 1)


def test_generator_orders():
    for p, m in [(5, 1), (7, 1), (3, 2), (5, 2), (3, 4)]:
        ctx = FieldCtx(p, m)
        g = ctx.generator
        seen = set()
        cur = ctx.one
        for _ in range(ctx.q - 1):
            cur = ctx.mul(cur, g)
            seen.add(cur)
        assert len(seen) == ctx.q - 1
        assert cur == ctx.one


def test_legendre_examples():
    F5 = FieldCtx(5)
    F7 = FieldCtx(7)
    assert F5.legendre(1) == 1
    # squares mod 5 are {1, 4}; squares mod 7 are {1, 2, 4}
    assert {a * a % 5 for a in range(1, 5)} == {1, 4}
    assert F5.legendre(3) == -1
    assert {a * a % 7 for a in range(1, 7)} == {1, 2, 4}
    assert F7.legendre(2) == 1
    with pytest.raises(ValueError):
        F5.legendre(0)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 4), (11, 2)])
def test_legendre_multiplicative_and_balanced(p, m):
    ctx = FieldCtx(p, m)
    if ctx.q > 121:
        pytest.skip("exhaustive check capped at q = 121")
    nonzero = [a for a in ctx.elements() if a != ctx.zero]
    plus = sum(1 for a in nonzero if ctx.legendre(a) == 1)
    assert plus == (ctx.q - 1) // 2
    for a in nonzero:
        for b in nonzero:
            assert ctx.legendre(ctx.mul(a, b)) == ctx.legendre(a) * ctx.legendre(b)


def test_psi_basics():
    F7 = FieldCtx(7)
    assert F7.psi(0) == 1
    total = sum(F7.psi(t) for t in range(7))
    assert abs(total) < 1e-12
    for s in range(7):
        for t in range(7):
            assert abs(
                F7.psi((s + t) % 7)
                - F7.psi(s) * F7.psi(t)
            ) < 1e-12


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 4)])
def test_psi_extension_nontrivial(p, m):
    ctx = FieldCtx(p, m)
    total = sum(ctx.psi(a) for a in ctx.elements())
    assert abs(total) < 1e-9
    for a in ctx.elements():
        assert abs(abs(ctx.psi(a)) - 1.0) < 1e-12


def test_psi_bar_on_base_field_of_f9():
    # Tr_{F9/F3}(x) = x + x^3 = 2x for x in the base field
    F3 = FieldCtx(3)
    F9 = FieldCtx(3, 2)
    emb = subfield_embedding(F3, F9)
    for x in range(3):
        lifted = emb.up(x)
        assert ctx_psi_equal(F9.psi(lifted), F3.psi(2 * x % 3))


def ctx_psi_equal(a, b):
    return abs(a - b) < 1e-12


def test_trace_norm_examples():
    F3 = FieldCtx(3)
    F9 = FieldCtx(3, 2)
    tr, nm = trace_norm(F9, F3, F9.zero)
    assert tr == 0
    tr, nm = trace_norm(F9, F3, F9.one)
    assert nm == 1
    # F9 = F3[i] with i^2 = -1: N(i) = i * i^3 = 1
    i = F9.el([0, 1])
    assert F9.mul(i, i) == F9.neg(F9.one)
    tr, nm = trace_norm(F9, F3, i)
    assert nm == 1
    assert tr == 0
    # base-field elements are Galois-fixed: Tr(x) = 2x
    emb = subfield_embedding(F3, F9)
    for x in range(3):
        tr, nm = trace_norm(F9, F3, emb.up(x))
        assert tr == 2 * x % 3


def test_trace_norm_rejects_non_towers():
    F9 = FieldCtx(3, 2)
    F27 = FieldCtx(3, 3)
    with pytest.raises(ValueError):
        trace_norm(F27, F9, F27.one)


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (3, 1, 4), (5, 1, 2), (3, 2, 4), (7, 1, 2), (11, 1, 2)])
def test_sigma_bar_two_paths(p, m, n):
    """Legendre over the big field equals Legendre of the norm in the small
    field, exhaustively for q^N <= 121."""
    small = FieldCtx(p, m)
    big = FieldCtx(p, n)
    if big.q > 121:
        pytest.skip("exhaustive check capped")
    for a in big.elements():
        if a == big.zero:
            continue
        _, nm = trace_norm(big, small, a)
        assert big.legendre(a) == small.legendre(nm)


def test_embedding_round_trip():
    small = FieldCtx(3, 2)
    big = FieldCtx(3, 4)
    emb = subfield_embedding(small, big)
    for a in small.elements():
        up = emb.up(a)
        assert emb.down(up) == a
    # multiplicativity of the embedding
    rng = random.Random(1)
    for _ in range(50):
        a = small.from_int(rng.randrange(9))
        b = small.from_int(rng.randrange(9))
        assert emb.up(small.mul(a, b)) == big.mul(emb.up(a), emb.up(b))
    # a big-field element outside the image has no preimage
    outside = next(b for b in big.elements() if big.pow(b, 9) != b)
    with pytest.raises(ValueError):
        emb.down(outside)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (3, 3)])
def test_a_field_embeds_into_itself_by_the_identity(p, m):
    ctx = FieldCtx(p, m)
    emb = subfield_embedding(ctx, ctx)
    for a in ctx.elements():
        assert emb.up(a) == a
        assert emb.down(a) == a


def test_is_squarefree():
    F5 = FieldCtx(5)
    assert is_squarefree(F5, poly_from_ints(F5, [1, 0, 1]))  # (x - 2)(x - 3)
    assert not is_squarefree(F5, poly_from_ints(F5, [4, 1, 1]))  # (x - 2)^2
    assert not is_squarefree(F5, poly_from_ints(F5, [0, 0, 0, 0, 0, 1]))  # x^5
    F9 = FieldCtx(3, 2)
    i = F9.el([0, 1])
    assert is_squarefree(F9, [F9.one, F9.zero, F9.one])  # (x - i)(x + i)
    assert not is_squarefree(F9, poly_mul(F9, [F9.neg(i), F9.one], [F9.neg(i), F9.one]))


def test_factor_examples():
    F5 = FieldCtx(5)
    F3 = FieldCtx(3)
    # x^2 - 1 = (x - 1)(x + 1)
    fac = factor_poly(F5, poly_from_ints(F5, [-1, 0, 1]))
    assert sorted(poly_eval(F5, f, 0) for f in fac) == [1, 4]
    # x^2 + 1 mod 5 = (x + 2)(x + 3) since 2^2 = 4 = -1
    fac = factor_poly(F5, poly_from_ints(F5, [1, 0, 1]))
    assert fac == [poly_from_ints(F5, [2, 1]), poly_from_ints(F5, [3, 1])]
    # x^2 + 1 mod 3 is irreducible
    fac = factor_poly(F3, poly_from_ints(F3, [1, 0, 1]))
    assert len(fac) == 1 and poly_deg(fac[0]) == 2
    assert is_irreducible(F3, poly_from_ints(F3, [1, 0, 1]))


def test_factor_rejects_bad_input():
    F5 = FieldCtx(5)
    with pytest.raises(ValueError):
        factor_poly(F5, poly_from_ints(F5, [1, 2]) + [F5.el(2)])  # not monic
    with pytest.raises(ValueError):
        factor_poly(F5, [F5.one])  # degree 0


@pytest.mark.parametrize(
    "p,m,ints",
    [
        (5, 1, [0, 1, 1, 0, 0, 0, 1]),
        (5, 1, [2, 3, 1, 0, 1]),
        (3, 1, [1, 0, 1, 0, 0, 0, 1]),
        (7, 1, [6, 0, 0, 0, 0, 0, 1]),
        (3, 2, [1, 2, 0, 1]),
        (13, 1, [1, 1, 1, 1, 1]),
        (5, 1, [0, 4, 0, 0, 0, 1]),  # x^5 - x, all five roots
    ],
)
def test_factor_round_trip_and_irreducibility(p, m, ints):
    ctx = FieldCtx(p, m)
    f = poly_from_ints(ctx, ints) if m == 1 else _lift_ints(ctx, ints)
    fac = factor_poly(ctx, f)
    assert fac == sorted(fac, key=lambda g: poly_to_key(ctx, g))
    prod = [ctx.one]
    for g in fac:
        prod = poly_mul(ctx, prod, g)
        # claimed-irreducible g of degree d divides x^(q^d) - x ...
        d = poly_deg(g)
        x = [ctx.zero, ctx.one]
        frob = poly_pow_mod(ctx, x, ctx.q**d, g)
        assert not poly_sub(ctx, frob, poly_mod(ctx, x, g))
        # ... and shares no root with any proper subfield
        for r, _ in factorize(d):
            sub = poly_pow_mod(ctx, x, ctx.q ** (d // r), g)
            assert poly_deg(poly_gcd(ctx, g, poly_sub(ctx, sub, x))) == 0
    assert prod == f


def _lift_ints(ctx, ints):
    return [ctx.el(i) for i in ints]


def test_factor_refuses_repeated_factors():
    """factor_poly takes squarefree input only; callers test is_squarefree."""
    F5 = FieldCtx(5)
    F9 = FieldCtx(3, 2)
    x_plus_i = [F9.el([0, 1]), F9.one]
    for ctx, f in (
        (F5, poly_from_ints(F5, [0, 0, 1, 1, 0, 0, 0, 1])),  # x^2 (x^5 + x + 1)
        (F5, poly_from_ints(F5, [1] + [0] * 9 + [1])),  # (x^2 + 1)^5 = x^10 + 1
        (F5, poly_from_ints(F5, [0, 0, 0, 0, 0, 1])),  # x^5, a polynomial in x^p
        (F9, poly_mul(F9, x_plus_i, x_plus_i)),
    ):
        assert not is_squarefree(ctx, f)
        with pytest.raises(ValueError, match="squarefree"):
            factor_poly(ctx, f)


def _multiplicity(ctx, f, g):
    """Largest e with g^e dividing f."""
    e = 0
    while True:
        quo, rem = poly_divmod(ctx, f, g)
        if rem:
            return e
        f, e = quo, e + 1


def test_factor_with_multiplicities():
    """Repeated factors are refused; factoring the radical and dividing out
    recovers the multiplicities."""
    F5 = FieldCtx(5)
    # (x - 1)^2 (x + 1)^3
    f = [F5.one]
    for root, e in [(1, 2), (4, 3)]:
        for _ in range(e):
            f = poly_mul(F5, f, poly_from_ints(F5, [-root, 1]))
    with pytest.raises(ValueError, match="squarefree"):
        factor_poly(F5, f)
    radical = poly_divmod(F5, f, poly_gcd(F5, f, poly_deriv(F5, f)))[0]
    fac = factor_poly(F5, radical)
    assert sorted(fac) == sorted([poly_from_ints(F5, [-1, 1]), poly_from_ints(F5, [1, 1])])
    assert sorted(_multiplicity(F5, f, g) for g in fac) == [2, 3]


def test_factor_frobenius_power_multiplicity():
    # x^5 - x = x(x-1)...(x-4) mod 5 is squarefree; (x^2+1)^5 = x^10 + 1 is a
    # polynomial in x^p, refused, and x^2 + 1 = (x - 2)(x - 3) divides it 5 times
    F5 = FieldCtx(5)
    f = poly_from_ints(F5, [0, 4, 0, 0, 0, 1])  # x^5 - x
    fac = factor_poly(F5, f)
    assert len(fac) == 5 and all(poly_deg(g) == 1 for g in fac)
    g = poly_from_ints(F5, [1, 0, 1])
    gp = [F5.one]
    for _ in range(5):
        gp = poly_mul(F5, gp, g)
    assert not poly_deriv(F5, gp)
    with pytest.raises(ValueError, match="squarefree"):
        factor_poly(F5, gp)
    fac = factor_poly(F5, g)
    assert len(fac) == 2 and all(_multiplicity(F5, gp, h) == 5 for h in fac)


def test_find_irreducible_deterministic():
    F3 = FieldCtx(3)
    assert find_irreducible(F3, 2) == poly_from_ints(F3, [1, 0, 1])
    f1 = find_irreducible(F3, 4)
    f2 = find_irreducible(F3, 4)
    assert f1 == f2
    assert is_irreducible(F3, f1)


def test_poly_roots_sorted():
    F7 = FieldCtx(7)
    f = poly_from_ints(F7, [-2, 0, 1])  # x^2 - 2, roots 3 and 4
    assert poly_roots(F7, f) == [3, 4]


def test_reciprocal_dual():
    F7 = FieldCtx(7)
    f = poly_from_ints(F7, [3, 1, 1])  # roots r with product 3
    dual = reciprocal_dual(F7, f)
    for r in range(1, 7):
        if poly_eval(F7, f, r) == 0:
            assert poly_eval(F7, dual, F7.inv(r)) == 0
    with pytest.raises(ValueError):
        reciprocal_dual(F7, poly_from_ints(F7, [0, 1]))


def test_prime_bound_enforced():
    with pytest.raises(ValueError):
        FieldCtx(1048583)  # first prime past 2^20


def test_norm_one_elements_order():
    from weilrep.gfq import norm_one_elements

    big = FieldCtx(7, 2)
    els = norm_one_elements(big, 2)
    assert len(els) == 8  # q + 1
    # closed under multiplication, all norms are one
    small = FieldCtx(7)
    for c in els:
        tr, nm = trace_norm(big, small, c)
        assert nm == small.one
