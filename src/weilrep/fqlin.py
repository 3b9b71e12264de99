"""Dense exact linear algebra over a FieldCtx (or any ring exposing
zero/one/add/sub/neg/mul, plus inv for field-only routines).

Matrices are lists of row lists; vectors are flat lists.  ``freeze`` turns a
matrix into nested tuples for hashing and dictionary keys.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class IntRing:
    """Ring interface over the plain integers (for characteristic
    polynomials of lattice automorphisms)."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b


INT_RING = IntRing()


def freeze(mat):
    return tuple(tuple(row) for row in mat)


def thaw(mat):
    return [list(row) for row in mat]


def identity(ctx, n):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def zeros(ctx, nrows, ncols):
    return [[ctx.zero] * ncols for _ in range(nrows)]


def mat_add(ctx, A, B):
    return [[ctx.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(ctx, A, B):
    n, k = len(A), len(B)
    m = len(B[0])
    Bt = list(zip(*B))
    out = []
    for i in range(n):
        row = A[i]
        out_row = []
        for j in range(m):
            col = Bt[j]
            acc = ctx.zero
            for t in range(k):
                acc = ctx.add(acc, ctx.mul(row[t], col[t]))
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(ctx, A, v):
    out = []
    for row in A:
        acc = ctx.zero
        for a, x in zip(row, v):
            acc = ctx.add(acc, ctx.mul(a, x))
        out.append(acc)
    return out


def vec_dot(ctx, u, v):
    acc = ctx.zero
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def mat_eval_poly(ctx, f, A):
    """f(A) for a coefficient list f (constant term first)."""
    n = len(A)
    acc = zeros(ctx, n, n)
    for c in reversed(f):
        acc = mat_mul(ctx, acc, A)
        for i in range(n):
            acc[i][i] = ctx.add(acc[i][i], c)
    return acc


def rref(ctx, M):
    """Reduced row echelon form (a copy) and the pivot column list."""
    R = [row[:] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if R[i][c] != ctx.zero:
                pivot = i
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv_p = ctx.inv(R[r][c])
        R[r] = [ctx.mul(inv_p, x) for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != ctx.zero:
                f = R[i][c]
                R[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rank(ctx, M):
    return len(rref(ctx, M)[1])


def inv(ctx, A):
    n = len(A)
    aug = [list(A[i]) + identity(ctx, n)[i] for i in range(n)]
    R, pivots = rref(ctx, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R[:n]]


def solve(ctx, A, b):
    """One solution of A x = b, or None if inconsistent."""
    ncols = len(A[0])
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(ctx, aug)
    pivots = [c for c in pivots if c < ncols]
    for i in range(len(pivots), len(R)):
        if R[i][-1] != ctx.zero:
            return None
    x = [ctx.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = R[i][-1]
    return x


def nullspace(ctx, A):
    """Basis of the right kernel, one vector per free column."""
    ncols = len(A[0])
    R, pivots = rref(ctx, A)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(R[i][free])
        basis.append(v)
    return basis


def column_space_basis(ctx, A):
    """The original columns of A sitting at the pivot positions."""
    _, pivots = rref(ctx, A)
    cols = transpose(A)
    return [cols[c] for c in pivots]


def charpoly(ctx, A):
    """Characteristic polynomial det(xI - A) by the division-free Berkowitz
    algorithm; coefficients constant term first, leading coefficient one.

    Works over any commutative ring (FieldCtx or INT_RING).
    """
    n = len(A)
    if n == 0:
        return [ctx.one]
    # polys[k]: char poly (leading coeff first) of the k x k leading block
    poly = [ctx.one, ctx.neg(A[0][0])]
    for k in range(2, n + 1):
        a = A[k - 1][k - 1]
        R = A[k - 1][: k - 1]
        C = [A[i][k - 1] for i in range(k - 1)]
        M = [row[: k - 1] for row in A[: k - 1]]
        # Toeplitz column: [1, -a, -R C, -R M C, -R M^2 C, ...]
        t = [ctx.one, ctx.neg(a)]
        cur = C
        for _ in range(k - 1):
            t.append(ctx.neg(vec_dot(ctx, R, cur)))
            cur = mat_vec(ctx, M, cur)
        new = [ctx.zero] * (k + 1)
        for i in range(k + 1):
            acc = ctx.zero
            for j in range(len(poly)):
                sh = i - j
                if 0 <= sh < len(t):
                    acc = ctx.add(acc, ctx.mul(t[sh], poly[j]))
            new[i] = acc
        poly = new
    return list(reversed(poly))


def det(ctx, A):
    """Determinant, (-1)^n times the constant term of ``charpoly``: no
    division, so it works over any commutative ring."""
    c = charpoly(ctx, A)[0]
    return c if len(A) % 2 == 0 else ctx.neg(c)


def matrix_min_poly(ctx, A, unit=None):
    """Minimal polynomial via the first linear dependency among powers of A,
    coefficients constant term first, monic.

    ``unit`` (default the identity) is the identity of a subalgebra holding
    A, such as an idempotent e with A = e A; the powers are then unit A^k and
    the result is the minimal polynomial of A within that subalgebra.

    One incremental elimination: each new power, flattened, is reduced
    against the earlier ones, each kept as (pivot, reduced row, the
    combination of powers it is).  The first power that reduces to zero
    gives the dependency, its carried combination."""
    n = len(A)
    rows = []
    cur = identity(ctx, n) if unit is None else unit
    for k in range(n * n + 1):
        v = [x for row in cur for x in row]
        comb = [ctx.zero] * k + [ctx.one]  # v as a combination of the powers
        for pivot, r, c in rows:
            f = v[pivot]
            if f != ctx.zero:
                v = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(v, r)]
                for i, b in enumerate(c):
                    comb[i] = ctx.sub(comb[i], ctx.mul(f, b))
        pivot = next((i for i, x in enumerate(v) if x != ctx.zero), None)
        if pivot is None:
            return comb
        scale = ctx.inv(v[pivot])
        rows.append((pivot, [ctx.mul(scale, x) for x in v], [ctx.mul(scale, x) for x in comb]))
        cur = mat_mul(ctx, cur, A)
    raise RuntimeError("no minimal polynomial found")  # pragma: no cover


# -- stacks of matrices over a prime field ---------------------------------------


@lru_cache(maxsize=8)
def inverses_mod(p: int) -> np.ndarray:
    """The inverse of every residue mod p, indexed by the residue (0 at 0),
    read-only: a^(p-2) by square and multiply, each product reduced before
    the next, so p < 2^20 stays exact in int64."""
    a, inv, e = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), p - 2
    while e:
        if e & 1:
            inv = inv * a % p
        a = a * a % p
        e >>= 1
    inv = inv.astype(np.int32)
    inv.setflags(write=False)
    return inv


@lru_cache(maxsize=8)
def legendre_mod(p: int) -> np.ndarray:
    """The Legendre symbol of every residue mod p, indexed by the residue:
    1 on the nonzero squares, -1 on the nonsquares, 0 at 0; read-only."""
    symbol = np.full(p, -1, dtype=np.int8)
    symbol[np.arange(1, p) ** 2 % p] = 1
    symbol[0] = 0
    symbol.setflags(write=False)
    return symbol


def stack_row_reduce(X, p: int):
    """(pivot, det, E) mod p of a stack of square integer matrices X with
    entries in [0, p), by one Gauss-Jordan elimination over the whole
    stack: pivot[k] marks the pivot columns of X[k], det[k] is 0 below
    full rank, and E[k] is the invertible row operator for which E X[k] is
    the reduced row echelon form with each row moved to the index of its
    pivot column.  So E[k] is the inverse at full rank, and its rows at the
    other indices vanish exactly on the image of X[k].  Products are
    reduced mod p between steps, so p < 2^20 stays exact in int64."""
    X = np.asarray(X, dtype=np.int64)
    k, s = X.shape[0], X.shape[1]
    aug = np.concatenate([X, np.broadcast_to(np.eye(s, dtype=np.int64), X.shape)], axis=2)
    inverse = inverses_mod(p)
    rows = np.arange(k)
    pivot = np.zeros((k, s), dtype=bool)
    det = np.ones(k, dtype=np.int64)
    for c in range(s):
        # the rows that hold no pivot yet: index c, the indices of the later
        # columns and those of the earlier columns without a pivot
        cand = (aug[:, :, c] != 0) & ~pivot
        found = cand.any(axis=1)
        # without a pivot, row c swaps with itself and eliminates with a
        # zero multiplier
        piv = np.where(found, np.argmax(cand, axis=1), c)
        top = aug[rows, piv]
        aug[rows, piv] = aug[:, c]
        lead = np.where(found, top[:, c], 1)
        det = np.where(piv != c, -det, det) * lead % p
        aug[:, c] = top = top * inverse[lead, None] % p
        f = (aug[:, :, c] * found[:, None])[:, :, None] * top[:, None]
        f[:, c] = 0
        aug = (aug - f) % p
        pivot[:, c] = found
    return pivot, np.where(pivot.all(axis=1), det, 0), aug[:, :, s:]
