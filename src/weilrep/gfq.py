"""Exact arithmetic in GF(p) and GF(p^m), characters, and polynomial
factorization over finite fields.

Conventions
-----------
* GF(p): elements are plain ints in [0, p).
* GF(p^m), m > 1: elements are length-m tuples of ints, the coefficients
  of the residue polynomial in the power basis, constant term first.
* Polynomials over a field are lists of elements, constant term first;
  the zero polynomial is the empty list.

Everything is deterministic: extension moduli are found by a fixed search
order and the randomized splitting steps in the factorization run on a
fixed seed.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache

from . import fqlin

_CZ_SEED = 1729  # seed for the equal-degree splitting PRNG

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; fine for the sizes used here."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class FieldCtx:
    """Arithmetic context for GF(p^m), p an odd prime.

    The extension is realized as GF(p)[x]/(modulus), the monic irreducible
    polynomial of degree m whose non-leading coefficient vector encodes to
    the smallest base-p integer, so serialized elements are comparable
    across runs.
    """

    def __init__(self, p: int, m: int = 1):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        if p >= 1 << 20:
            raise ValueError(f"p = {p} exceeds the supported bound 2^20")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if m == 1:
            self.modulus = (0, 1)  # the polynomial x; residues are constants
            self.prime_field = self
            self.zero = 0
            self.one = 1
        else:
            prime = self.prime_field = FieldCtx(p, 1)
            self.modulus = modulus = tuple(find_irreducible(prime, m))
            self.zero = (0,) * m
            self.one = (1,) + (0,) * (m - 1)
            # x^(m+j) mod modulus for j = 0..m-2, used to fold products
            red = []
            cur = [(-c) % p for c in modulus[:m]]
            red.append(tuple(cur))
            for _ in range(m - 2):
                cur = [0] + cur
                top = cur.pop()
                cur = [(cur[i] + top * red[0][i]) % p for i in range(m)]
                red.append(tuple(cur))
            self._red = red
        self._psi_table = None
        self._generator = None

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element construction ----------------------------------------------

    def el(self, v):
        """Element from an int (embedded via the prime subfield) or a
        coefficient sequence, reduced mod p."""
        if isinstance(v, int):
            v %= self.p
            return v if self.m == 1 else (v,) + (0,) * (self.m - 1)
        coeffs = [int(c) % self.p for c in v]
        if len(coeffs) > self.m:
            raise ValueError("coefficient sequence longer than degree")
        coeffs += [0] * (self.m - len(coeffs))
        return coeffs[0] if self.m == 1 else tuple(coeffs)

    def from_int(self, n: int):
        """Element from its base-p digit encoding in [0, q)."""
        if not 0 <= n < self.q:
            raise ValueError("encoding out of range")
        if self.m == 1:
            return n
        digs = []
        for _ in range(self.m):
            digs.append(n % self.p)
            n //= self.p
        return tuple(digs)

    def to_int(self, a) -> int:
        if self.m == 1:
            return a
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def serialize(self, a) -> list[int]:
        """Little-endian coefficient array in the power basis."""
        return [a] if self.m == 1 else list(a)

    def elements(self):
        return (self.from_int(n) for n in range(self.q))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        res = [c % p for c in conv[:m]]
        for j in range(m - 1):
            top = conv[m + j] % p
            if top:
                red = self._red[j]
                for i in range(m):
                    res[i] = (res[i] + top * red[i]) % p
        return tuple(res)

    def inv(self, a):
        if self.m == 1:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        fp = self.prime_field
        return self.el(poly_inverse_mod(fp, a, self.modulus))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a):
        return self.pow(a, self.p)

    # -- field invariants ----------------------------------------------------

    def trace_to_prime(self, a) -> int:
        """Absolute trace down to GF(p), returned as an int in [0, p)."""
        if self.m == 1:
            return a
        acc = a
        cur = a
        for _ in range(self.m - 1):
            cur = self.frobenius(cur)
            acc = self.add(acc, cur)
        if any(c != 0 for c in acc[1:]):
            raise RuntimeError("trace landed outside GF(p)")
        return acc[0]

    @property
    def generator(self):
        """A fixed multiplicative generator: the invertible element of least
        encoding whose order is q - 1."""
        if self._generator is None:
            order_facs = [r for r, _ in factorize(self.q - 1)]
            for n in range(2, self.q):
                a = self.from_int(n)
                if all(
                    self.pow(a, (self.q - 1) // r) != self.one for r in order_facs
                ):
                    self._generator = a
                    break
            else:  # pragma: no cover - the group is cyclic, cannot happen
                raise RuntimeError("no generator found")
        return self._generator

    def legendre(self, a) -> int:
        """Quadratic character of the multiplicative group, as +1 or -1."""
        if a == self.zero:
            raise ValueError("Legendre character undefined at zero")
        if self.m == 1:
            s = pow(a, (self.p - 1) // 2, self.p)
            return 1 if s == 1 else -1
        s = self.pow(a, (self.q - 1) // 2)
        if s == self.one:
            return 1
        if s != self.neg(self.one):
            raise RuntimeError("Euler criterion gave neither +1 nor -1")
        return -1

    def psi_index(self, a) -> int:
        return self.trace_to_prime(a)

    def psi(self, a) -> complex:
        """Additive character exp(2*pi*i * Tr(a) / p)."""
        if self._psi_table is None:
            self._psi_table = [
                cmath.exp(2j * cmath.pi * k / self.p) for k in range(self.p)
            ]
        return self._psi_table[self.trace_to_prime(a)]


# -- subfield embeddings -------------------------------------------------------


class SubfieldEmbedding:
    """Embedding of GF(p^m) into GF(p^M) with m | M, with its partial inverse.

    The image of the small field's generator-of-the-power-basis is the root
    of the small modulus in the big field with least encoding, so the maps
    are reproducible; a field embeds into itself by the identity.
    """

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if small.p != big.p or big.m % small.m != 0:
            raise ValueError(f"{small} does not embed in {big}")
        self.small = small
        self.big = big
        if small == big:
            self.root = big.from_int(big.p) if big.m > 1 else big.one
        elif small.m == 1:
            self.root = big.one
        else:
            f = [big.el(c) for c in small.modulus]
            roots = poly_roots(big, f)
            if not roots:  # pragma: no cover - guaranteed by m | M
                raise RuntimeError("small modulus has no root in big field")
            self.root = roots[0]
        # matrix of the GF(p)-linear map, columns = root powers
        cols = []
        cur = big.one
        for _ in range(small.m):
            cols.append(big.serialize(cur))
            cur = big.mul(cur, self.root)
        self._rows = fqlin.transpose(cols)

    def up(self, a):
        big = self.big
        out = big.zero
        cur = big.one
        for c in self.small.serialize(a):
            if c:
                out = big.add(out, big.mul(big.el(c), cur))
            cur = big.mul(cur, self.root)
        return out

    def down(self, b):
        """Preimage of ``b`` under the embedding; b must lie in the image."""
        x = fqlin.solve(self.big.prime_field, self._rows, self.big.serialize(b))
        if x is None:
            raise ValueError("element does not lie in the subfield")
        return self.small.el(x)


@lru_cache(maxsize=None)
def subfield_embedding(small: FieldCtx, big: FieldCtx) -> SubfieldEmbedding:
    return SubfieldEmbedding(small, big)


@lru_cache(maxsize=None)
def extension_field(p: int, m: int) -> FieldCtx:
    """GF(p^m) with the default modulus, one instance per process: the
    search for its modulus and for its generator runs once per field."""
    return FieldCtx(p, m)


# -- generic polynomials over a FieldCtx --------------------------------------
# Coefficient lists, constant term first; [] is the zero polynomial.


def poly_trim(ctx, f):
    f = list(f)
    while f and f[-1] == ctx.zero:
        f.pop()
    return f


def poly_deg(f) -> int:
    return len(f) - 1


def poly_from_ints(ctx, ints):
    return poly_trim(ctx, [ctx.el(i) for i in ints])


def poly_add(ctx, f, g):
    n = max(len(f), len(g))
    f = list(f) + [ctx.zero] * (n - len(f))
    g = list(g) + [ctx.zero] * (n - len(g))
    return poly_trim(ctx, [ctx.add(a, b) for a, b in zip(f, g)])


def poly_sub(ctx, f, g):
    n = max(len(f), len(g))
    f = list(f) + [ctx.zero] * (n - len(f))
    g = list(g) + [ctx.zero] * (n - len(g))
    return poly_trim(ctx, [ctx.sub(a, b) for a, b in zip(f, g)])


def poly_scale(ctx, c, f):
    return poly_trim(ctx, [ctx.mul(c, a) for a in f])


def poly_mul(ctx, f, g):
    if not f or not g:
        return []
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x != ctx.zero:
            for j, y in enumerate(g):
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return poly_trim(ctx, out)


def poly_divmod(ctx, f, g):
    g = poly_trim(ctx, g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = poly_deg(g)
    if len(f) <= dg:
        return [], poly_trim(ctx, f)
    f = list(f)
    inv_lead = ctx.inv(g[-1])
    q = [ctx.zero] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c != ctx.zero:
            c = ctx.mul(c, inv_lead)
            q[i - dg] = c
            for j, gc in enumerate(g):
                f[i - dg + j] = ctx.sub(f[i - dg + j], ctx.mul(c, gc))
    return poly_trim(ctx, q), poly_trim(ctx, f[:dg])


def poly_mod(ctx, f, g):
    return poly_divmod(ctx, f, g)[1]


def poly_monic(ctx, f):
    f = poly_trim(ctx, f)
    if not f or f[-1] == ctx.one:
        return f
    return poly_scale(ctx, ctx.inv(f[-1]), f)


def poly_gcd(ctx, f, g):
    f, g = poly_trim(ctx, f), poly_trim(ctx, g)
    while g:
        f, g = g, poly_mod(ctx, f, g)
    return poly_monic(ctx, f)


def poly_inverse_mod(ctx, a, mod):
    """The inverse of a modulo mod, of degree below deg(mod).

    Extended Euclid tracking only the cofactor of a (s * a = r mod mod for
    every remainder r), stopped at the first constant remainder; raises
    ZeroDivisionError when gcd(a, mod) != 1.
    """
    r0, r1 = poly_trim(ctx, mod), poly_mod(ctx, a, mod)
    s0, s1 = [], [ctx.one]
    while len(r1) > 1:
        q, r = poly_divmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(ctx, s0, poly_mul(ctx, q, s1))
    if not r1:
        raise ZeroDivisionError("not invertible modulo the polynomial")
    return poly_scale(ctx, ctx.inv(r1[0]), s1)


def poly_pow_mod(ctx, base, e: int, mod):
    result = [ctx.one]
    base = poly_mod(ctx, base, mod)
    while e:
        if e & 1:
            result = poly_mod(ctx, poly_mul(ctx, result, base), mod)
        base = poly_mod(ctx, poly_mul(ctx, base, base), mod)
        e >>= 1
    return result


def poly_deriv(ctx, f):
    return poly_trim(
        ctx, [ctx.mul(ctx.el(i), c) for i, c in enumerate(f)][1:]
    )


def is_squarefree(ctx, f) -> bool:
    """Whether f has no repeated factor: gcd(f, f') is a constant."""
    return poly_deg(poly_gcd(ctx, f, poly_deriv(ctx, f))) == 0


def poly_to_key(ctx, f) -> tuple:
    """Sort key: (degree, coefficient encodings low to high)."""
    return (poly_deg(f),) + tuple(ctx.to_int(c) for c in f)


def is_irreducible(ctx, f) -> bool:
    """Rabin's test over GF(q)."""
    f = poly_monic(ctx, f)
    n = poly_deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [ctx.zero, ctx.one]
    h = poly_pow_mod(ctx, x, ctx.q**n, f)
    if poly_sub(ctx, h, x):
        return False
    for r, _ in factorize(n):
        h = poly_pow_mod(ctx, x, ctx.q ** (n // r), f)
        if poly_deg(poly_gcd(ctx, f, poly_sub(ctx, h, x))) != 0:
            return False
    return True


def poly_from_encoding(ctx, n: int):
    """The polynomial whose coefficients, constant term first, are the
    base-q digits of n (n = 0 gives the zero polynomial)."""
    f = []
    while n:
        n, c = divmod(n, ctx.q)
        f.append(ctx.from_int(c))
    return f


def find_irreducible(ctx, d: int):
    """Monic irreducible of degree d whose coefficient encoding is least."""
    for n in range(ctx.q**d, 2 * ctx.q**d):
        f = poly_from_encoding(ctx, n)
        if is_irreducible(ctx, f):
            return f
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def find_primitive_irreducible(ctx, d: int):
    """Least monic irreducible of degree d whose companion root generates
    the multiplicative group of GF(q^d)."""
    order = ctx.q**d - 1
    facs = [r for r, _ in factorize(order)]
    x = [ctx.zero, ctx.one]
    for n in range(ctx.q**d, 2 * ctx.q**d):
        f = poly_from_encoding(ctx, n)
        if not is_irreducible(ctx, f):
            continue
        if all(
            poly_sub(ctx, poly_pow_mod(ctx, x, order // r, f), [ctx.one])
            for r in facs
        ):
            return f
    raise RuntimeError("no primitive polynomial found")  # pragma: no cover


def distinct_degree_decomposition(ctx, f):
    """Split a squarefree monic f into products of irreducibles of equal
    degree; returns [(product, d)]."""
    out = []
    x = [ctx.zero, ctx.one]
    h = x
    d = 0
    while poly_deg(f) > 0:
        d += 1
        if 2 * d > poly_deg(f):
            out.append((f, poly_deg(f)))
            break
        h = poly_pow_mod(ctx, h, ctx.q, f)
        g = poly_gcd(ctx, f, poly_sub(ctx, h, x))
        if poly_deg(g) > 0:
            out.append((g, d))
            f = poly_divmod(ctx, f, g)[0]
            h = poly_mod(ctx, h, f)
    return out


def _equal_degree_split(ctx, f, d, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    n = poly_deg(f)
    if n == d:
        return [f]
    exponent = (ctx.q**d - 1) // 2
    while True:
        r = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(n)]
        r = poly_trim(ctx, r)
        if poly_deg(r) < 1:
            continue
        g = poly_gcd(ctx, f, r)
        if 0 < poly_deg(g) < n:
            pass
        else:
            s = poly_pow_mod(ctx, r, exponent, f)
            g = poly_gcd(ctx, f, poly_sub(ctx, s, [ctx.one]))
            if not 0 < poly_deg(g) < n:
                continue
        rest = poly_divmod(ctx, f, g)[0]
        return _equal_degree_split(ctx, g, d, rng) + _equal_degree_split(
            ctx, rest, d, rng
        )


def factor_poly(ctx, f):
    """The monic irreducible factors of a monic squarefree polynomial over
    GF(q), sorted by ``poly_to_key``.

    Distinct-degree splitting, then seeded equal-degree splitting; every
    factor is re-checked irreducible.  ValueError unless f is monic,
    squarefree and of degree >= 1: a caller whose input may have repeated
    factors turns that ValueError into its own error.
    """
    f = poly_trim(ctx, list(f))
    if poly_deg(f) < 1:
        raise ValueError("factor_poly expects degree >= 1")
    if f[-1] != ctx.one:
        raise ValueError("factor_poly expects a monic polynomial")
    if not is_squarefree(ctx, f):
        raise ValueError("factor_poly expects a squarefree polynomial")
    rng = random.Random(_CZ_SEED)
    factors = []
    for h, d in distinct_degree_decomposition(ctx, f):
        for irr in _equal_degree_split(ctx, h, d, rng):
            irr = poly_monic(ctx, irr)
            if not is_irreducible(ctx, irr):
                raise RuntimeError("factorization produced a reducible factor")
            factors.append(irr)
    return sorted(factors, key=lambda g: poly_to_key(ctx, g))


def poly_roots(ctx, f):
    """Roots of a squarefree f in GF(q), sorted by encoding."""
    factors = factor_poly(ctx, poly_monic(ctx, f))
    return sorted((ctx.neg(g[0]) for g in factors if poly_deg(g) == 1), key=ctx.to_int)


def norm_one_elements(big: FieldCtx, degree: int = 2):
    """Elements of the kernel of the norm from GF(Q^degree) down to GF(Q),
    where big = GF(Q^degree); a cyclic group of order (big.q - 1)/(Q - 1),
    generated by g^(Q-1) for a generator g."""
    if big.m % degree != 0:
        raise ValueError("degree must divide the extension degree")
    Q = big.p ** (big.m // degree)
    order = (big.q - 1) // (Q - 1)
    c = big.pow(big.generator, Q - 1)
    out = [big.one]
    cur = c
    for _ in range(order - 1):
        out.append(cur)
        cur = big.mul(cur, c)
    if cur != big.one:
        raise RuntimeError("norm-one generator has the wrong order")
    return out


def claim_rest_failures(p: int, m: int) -> tuple[int, int]:
    """Exact identity ((c-1)^2 / c)^((q-1)/2) = -c^((q+1)/2) over all c != 1
    in the norm-one subgroup of GF(q^2); returns (checked, failures)."""
    ctx = FieldCtx(p, m)
    big = FieldCtx(p, 2 * m)
    q = ctx.q
    checked = failures = 0
    for c in norm_one_elements(big, 2):
        if c == big.one:
            continue
        cm1 = big.sub(c, big.one)
        lhs = big.pow(big.div(big.mul(cm1, cm1), c), (q - 1) // 2)
        rhs = big.neg(big.pow(c, (q + 1) // 2))
        checked += 1
        if lhs != rhs:
            failures += 1
    return checked, failures


def reciprocal_dual(ctx, f):
    """The monic polynomial whose roots are the inverses of the roots of f.

    Requires f(0) != 0.
    """
    if f[0] == ctx.zero:
        raise ValueError("reciprocal dual requires nonzero constant term")
    rev = list(reversed(f))
    return poly_monic(ctx, rev)
