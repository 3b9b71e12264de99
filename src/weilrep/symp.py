"""Symplectic vector spaces over GF(q), maximal tori in Sp(2N), the
module structure (K, V, omega_bar) attached to a torus, and the symplectic
type and rank.

A torus here is always stored as a product of cyclic blocks, one per
irreducible piece of the underlying module: a split block of degree d is a
copy of GF(q^d)^* acting on a Lagrangian pair, an irreducible block of
degree d is the norm-one group of GF(q^(2d)) over GF(q^d) acting by
multiplication operators ("inert" for d = 1).  A torus is its F_p stack:
the F_p matrix (``restrict_scalars``) of every element, the generator-power
products in the order of the integer exponent rows ``Torus.exponents``, so
character theory and spectral decompositions refer to exponent rows
directly.  A matrix over GF(q) is found in the torus by comparing its F_p
matrix with the stack (``Torus.exponents_of``).

In the module structure every block field K_alpha is a plain FieldCtx, so
one arithmetic serves all fields; a block keeps only what the field cannot
know, the F_q-linear isomorphism ``ModBlock.mat`` onto its matrices, the
form omega_bar as one integer tensor on F_p coordinates, and the integer
matrices of its coordinates v_alpha = x E + y F read from that tensor.  The
2 x 2 matrices over the K_alpha of a stack of torus elements come from one
integer product per block (``SympModuleStructure.block_matrices``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfq
from . import fqlin as la
from .gfq import FieldCtx, factorize


def standard_gram(ctx, N):
    J = la.zeros(ctx, 2 * N, 2 * N)
    for i in range(N):
        J[i][N + i] = ctx.one
        J[N + i][i] = ctx.neg(ctx.one)
    return J


class SympSpace:
    """A 2N-dimensional symplectic space over GF(q) with the standard Gram
    matrix [[0, I], [-I, 0]] (``standard_gram``).  ``trace_gram`` is the
    read-only F_p Gram matrix of Tr omega (``trace_form_gram``), built once
    here for the kernels that work over F_p."""

    def __init__(self, ctx: FieldCtx, N: int):
        self.ctx = ctx
        self.N = N
        self.dim = 2 * N
        self.gram = gram = standard_gram(ctx, N)
        self.gram_inv = la.inv(ctx, gram)
        self.trace_gram = trace_form_gram(ctx, gram)
        self.trace_gram.setflags(write=False)

    def omega(self, u, v):
        return la.vec_dot(self.ctx, u, la.mat_vec(self.ctx, self.gram, v))

    def __repr__(self):
        return f"SympSpace(N={self.N}, {self.ctx!r})"


def symplectic_transpose(space: SympSpace, R):
    """R^t with omega(Rv, u) = omega(v, R^t u); equals gram^-1 R^T gram."""
    ctx = space.ctx
    return la.mat_mul(ctx, space.gram_inv, la.mat_mul(ctx, la.transpose(R), space.gram))


def symplectic_failures(space: SympSpace, stack) -> np.ndarray:
    """Indices of the members of a stack of F_p matrices (``restrict_scalars``)
    that do not preserve the form: X^T G X != G mod p, G the F_p Gram
    matrix of Tr omega (``SympSpace.trace_gram``).  The test is exact for the
    F_p matrix of a GF(q)-linear map g: Tr(a (omega(gu, gv) - omega(u, v)))
    vanishes for every a in GF(q) only when omega(gu, gv) = omega(u, v)."""
    p = space.ctx.p
    G = space.trace_gram
    X = np.asarray(stack, dtype=np.int64)
    XtGX = np.swapaxes(X, 1, 2) @ (G @ X % p) % p
    return np.flatnonzero((XtGX != G).any(axis=(1, 2)))


def is_symplectic(space: SympSpace, g) -> bool:
    """``symplectic_failures`` of the one matrix g over GF(q)."""
    return not len(symplectic_failures(space, restrict_scalars(space.ctx, [la.thaw(g)])))


def assert_symplectic(space: SympSpace, g, what="matrix"):
    if not is_symplectic(space, g):
        raise ValueError(f"{what} does not preserve the symplectic form")


def transvection(space: SympSpace, u, lam):
    """x -> x + lam * omega(x, u) * u, always symplectic."""
    ctx = space.ctx
    Ju = la.mat_vec(ctx, space.gram, u)
    n = space.dim
    T = la.identity(ctx, n)
    for i in range(n):
        if u[i] == ctx.zero:
            continue
        for j in range(n):
            T[i][j] = ctx.add(T[i][j], ctx.mul(lam, ctx.mul(u[i], Ju[j])))
    return T


def random_symplectic(space: SympSpace, rng):
    """Product of 2N + 1 random symplectic transvections."""
    ctx = space.ctx
    g = la.identity(ctx, space.dim)
    for _ in range(space.dim + 1):
        while True:
            u = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(space.dim)]
            if any(x != ctx.zero for x in u):
                break
        lam = ctx.from_int(rng.randrange(1, ctx.q))
        g = la.mat_mul(ctx, g, transvection(space, u, lam))
    return g


# -- restriction of scalars ----------------------------------------------------


@lru_cache(maxsize=64)
def _power_products(ctx) -> np.ndarray:
    """Coefficient r of x^t x^k in the power basis of GF(p^m), indexed
    [t, k, r]."""
    basis = [ctx.from_int(ctx.p**k) for k in range(ctx.m)]
    out = np.array([[ctx.serialize(ctx.mul(a, b)) for b in basis] for a in basis], dtype=np.int64)
    out.setflags(write=False)
    return out


def restrict_scalars(ctx, mats) -> np.ndarray:
    """The F_p matrices of a stack of n x n matrices over GF(p^m), on the F_p
    coordinates of ``heiwei.prime_coords`` (component i, power-basis
    coefficient k at i*m + k): entry (a*m + r, i*m + k) is coefficient r of
    A[a][i] x^k.  Shape (len(mats), n m, n m); the F_p matrix of a product
    is the product of the F_p matrices."""
    A = np.asarray(mats, dtype=np.int64)
    if ctx.m == 1:
        return A
    k, n, m = len(A), A.shape[1], ctx.m
    R = np.einsum("jait,tkr->jarik", A.reshape(k, n, n, m), _power_products(ctx))
    return R.reshape(k, n * m, n * m) % ctx.p


@lru_cache(maxsize=64)
def _trace_tensor(ctx) -> np.ndarray:
    """Tr(x^k x^l x^r) over the power basis, indexed [k, l, r]."""
    basis = [ctx.from_int(ctx.p**k) for k in range(ctx.m)]
    tr = np.array(
        [[[ctx.trace_to_prime(ctx.mul(ctx.mul(x, y), z)) for z in basis] for y in basis]
         for x in basis],
        dtype=np.int64,
    )
    tr.setflags(write=False)
    return tr


def trace_form_gram(ctx, A) -> np.ndarray:
    """Integer Gram matrix B of the F_p-bilinear form (u, v) -> Tr(u^T A v)
    for an n x n matrix A over GF(p^m), so that the form is
    c(u) . B . c(v) mod p on the F_p coordinates c of
    ``heiwei.prime_coords``.  Entry (i*m + k, j*m + l)
    is Tr(x^k A_ij x^l)."""
    n = len(A)
    coeffs = np.asarray(A, dtype=np.int64).reshape(n, n, ctx.m)
    B = np.einsum("ijr,klr->ikjl", coeffs, _trace_tensor(ctx))
    return B.reshape(n * ctx.m, n * ctx.m) % ctx.p


def field_matrix_keys(ctx, stack) -> list:
    """The frozen matrices over GF(p^m) (``fqlin.freeze`` layout) of a stack
    of F_p matrices from ``restrict_scalars``: column i*m of the F_p matrix
    holds the coefficients of column i.  A Python loop over every entry: the
    kernels read the F_p stack itself."""
    n, m = stack.shape[1] // ctx.m, ctx.m
    cols = stack[:, :, ::m].tolist()
    if m == 1:
        return [tuple(map(tuple, M)) for M in cols]
    return [
        tuple(tuple(tuple(M[a * m + r][i] for r in range(m)) for i in range(n)) for a in range(n))
        for M in cols
    ]


# -- torus containers ---------------------------------------------------------


@dataclass(frozen=True)
class BlockInfo:
    """One cyclic block of a torus.

    name:   'split', 'inert', or 'irreducible'
    degree: d, so the block has dimension 2d and its field of definition
            K_alpha has degree d over the base field
    order:  q^d - 1 (split) or q^d + 1 (inert/irreducible)

    ``module_structure`` reads none of these fields: it finds the blocks,
    and their idempotents, again from the torus algebra alone.
    """

    name: str
    degree: int
    order: int

    def descriptor(self):
        return {"type": self.name, "degree": self.degree}


@dataclass
class Torus:
    """A product of cyclic groups in Sp(2N, GF(q)), one generator per block.

    ``stack`` holds the F_p matrix (``restrict_scalars``) of every element,
    shape (|T|, 2N m, 2N m), and row k of the int64 array ``exponents``,
    shape (|T|, r), is the exponent row (j_1, ..., j_r) of stack member k,
    the product of the generator powers g_i^(j_i).  The rows run in
    ``itertools.product`` order, lexicographic in the exponents.  Both
    arrays are read-only: the torus does not change once built.
    ValueError unless the generators are independent, that is unless the
    stack members are distinct."""

    space: SympSpace
    generators: list
    orders: list[int]
    blocks: list[BlockInfo]

    def __post_init__(self):
        ctx = self.space.ctx
        p = ctx.p
        s = self.space.dim * ctx.m
        stack = np.eye(s, dtype=np.int64)[None]
        for g, order in zip(self.generators, self.orders):
            # powers 0..k-1 by doubling: the next ones are R^k times these
            R = restrict_scalars(ctx, [g])[0]
            powers = np.eye(s, dtype=np.int64)[None]
            while len(powers) < order:
                powers = np.concatenate([powers, powers[: order - len(powers)] @ R % p])
                R = R @ R % p
            stack = (stack[:, None] @ powers[None] % p).reshape(-1, s, s)
        if len({row.tobytes() for row in stack.reshape(len(stack), -1)}) != len(stack):
            raise ValueError("torus generators are not independent")
        r = len(self.orders)
        self.stack = stack
        self.exponents = np.indices(self.orders, dtype=np.int64).reshape(r, -1).T
        self.stack.setflags(write=False)
        self.exponents.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.stack)

    def exponents_of(self, mat) -> np.ndarray:
        """The exponent row of a matrix over GF(q) in the torus: the row of
        ``exponents`` at the stack member equal to its F_p matrix.
        KeyError when the matrix is not a torus element."""
        R = restrict_scalars(self.space.ctx, [la.thaw(mat)])[0]
        hits = np.flatnonzero((self.stack == R).all(axis=(1, 2)))
        if not len(hits):
            raise KeyError("matrix is not an element of the torus")
        return self.exponents[hits[0]]

    def descriptor(self):
        return {
            "blocks": [b.descriptor() for b in self.blocks],
            "p": self.space.ctx.p,
            "m": self.space.ctx.m,
        }

    def descriptor_string(self):
        parts = []
        for b in self.blocks:
            parts.append(b.name if b.degree == 1 else f"{b.name}{b.degree}")
        return "+".join(parts)


# -- torus construction -------------------------------------------------------


def _scatter_block(space: SympSpace, local, pairs):
    """Place a 2d x 2d block matrix (local coords: e-parts then f-parts)
    into the global 2N x 2N identity at the given coordinate pairs."""
    ctx = space.ctx
    N = space.N
    d = len(pairs)
    glob = la.identity(ctx, space.dim)
    coords = [pairs[i] for i in range(d)] + [N + pairs[i] for i in range(d)]
    for a in range(2 * d):
        for b in range(2 * d):
            glob[coords[a]][coords[b]] = local[a][b]
    for a in range(2 * d):
        glob[coords[a]][coords[a]] = local[a][a]
    return glob


def _companion(ctx, f):
    """Companion matrix of a monic polynomial, acting on column vectors."""
    d = gfq.poly_deg(f)
    C = la.zeros(ctx, d, d)
    for i in range(1, d):
        C[i][i - 1] = ctx.one
    for i in range(d):
        C[i][d - 1] = ctx.neg(f[i])
    return C


def _split_block_generator(space: SympSpace, d: int):
    """Generator of GF(q^d)^* acting on a Lagrangian pair: the companion
    matrix of a primitive polynomial on the e-side, its inverse transpose on
    the f-side."""
    ctx = space.ctx
    if d == 1:
        g0 = ctx.generator
        local = [[g0, ctx.zero], [ctx.zero, ctx.inv(g0)]]
        return local, ctx.q - 1
    h = gfq.find_primitive_irreducible(ctx, d)
    C = _companion(ctx, h)
    Cit = la.transpose(la.inv(ctx, C))
    local = la.zeros(ctx, 2 * d, 2 * d)
    for i in range(d):
        for j in range(d):
            local[i][j] = C[i][j]
            local[d + i][d + j] = Cit[i][j]
    return local, ctx.q**d - 1


def _invariant_symplectic_form(ctx, C):
    """A nonzero invertible antisymmetric G with C^T G C = G."""
    n = len(C)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {pr: k for k, pr in enumerate(pairs)}

    def gram_from(vecfree):
        G = la.zeros(ctx, n, n)
        for (i, j), k in pos.items():
            G[i][j] = vecfree[k]
            G[j][i] = ctx.neg(vecfree[k])
        return G

    rows = []
    for i, j in pairs:
        # (C^T G C - G)_{ij} as a linear functional of the free entries
        row = [ctx.zero] * len(pairs)
        for a in range(n):
            for b in range(n):
                coeff = ctx.mul(C[a][i], C[b][j])
                if a < b:
                    row[pos[(a, b)]] = ctx.add(row[pos[(a, b)]], coeff)
                elif b < a:
                    row[pos[(b, a)]] = ctx.sub(row[pos[(b, a)]], coeff)
        row[pos[(i, j)]] = ctx.sub(row[pos[(i, j)]], ctx.one)
        rows.append(row)
    basis = la.nullspace(ctx, rows)
    if not basis:
        raise ValueError("no invariant symplectic form")
    # deterministic search for an invertible combination
    for count in range(1, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), count):
            vec = [ctx.zero] * len(pairs)
            for idx in combo:
                vec = [ctx.add(a, b) for a, b in zip(vec, basis[idx])]
            G = gram_from(vec)
            if la.det(ctx, G) != ctx.zero:
                return G
    raise ValueError("no invertible invariant form found")  # pragma: no cover


def symplectic_basis(ctx, G):
    """P with P^T G P in standard block-antidiagonal form, for invertible
    antisymmetric G."""
    n = len(G)

    def form(u, v):
        return la.vec_dot(ctx, u, la.mat_vec(ctx, G, v))

    remaining = [row[:] for row in la.identity(ctx, n)]
    es, fs = [], []
    while remaining:
        e = remaining[0]
        f = None
        for cand in remaining[1:]:
            c = form(e, cand)
            if c != ctx.zero:
                f = [ctx.mul(ctx.inv(c), x) for x in cand]
                break
        if f is None:  # pragma: no cover - G invertible prevents this
            raise ValueError("degenerate form")
        es.append(e)
        fs.append(f)
        projected = []
        for x in remaining:
            cf = form(f, x)
            ce = form(e, x)
            y = [
                ctx.add(xi, ctx.sub(ctx.mul(cf, ei), ctx.mul(ce, fi)))
                for xi, ei, fi in zip(x, e, f)
            ]
            if any(v != ctx.zero for v in y):
                projected.append(y)
        if projected:
            red, pivots = la.rref(ctx, projected)
            remaining = [red[i] for i in range(len(pivots))]
        else:
            remaining = []
    cols = es + fs
    return la.transpose(cols)


def _norm_one_block_generator(space: SympSpace, d: int):
    """Generator of the norm-one group of GF(q^(2d)) / GF(q^d) realized as a
    2d x 2d symplectic matrix in standard local coordinates."""
    ctx = space.ctx
    big = gfq.extension_field(ctx.p, ctx.m * 2 * d)
    emb = gfq.subfield_embedding(ctx, big)
    Q = ctx.q**d
    c = big.pow(big.generator, Q - 1)  # order exactly Q + 1
    # minimal polynomial of c over GF(q)
    h = [big.one]
    conj = c
    for _ in range(2 * d):
        h = gfq.poly_mul(big, h, [big.neg(conj), big.one])
        conj = big.pow(conj, ctx.q)
    if conj != c:
        raise RuntimeError("Frobenius orbit of the norm-one generator does not close")
    h_small = [emb.down(coeff) for coeff in h]
    C = _companion(ctx, h_small)
    G = _invariant_symplectic_form(ctx, C)
    P = symplectic_basis(ctx, G)
    Pinv = la.inv(ctx, P)
    local = la.mat_mul(ctx, Pinv, la.mat_mul(ctx, C, P))
    return local, Q + 1


def _normalize_kind(space: SympSpace, kind):
    out = []
    for entry in kind:
        if isinstance(entry, str):
            name, degree = entry, 1
            for prefix in ("split", "inert", "irreducible", "irr"):
                if entry.startswith(prefix) and entry[len(prefix):].isdigit():
                    name, degree = prefix, int(entry[len(prefix):])
                    break
        else:
            name, degree = entry[0], int(entry[1])
        if name == "irr":
            name = "irreducible"
        if name not in ("split", "inert", "irreducible"):
            raise ValueError(f"unknown block type {name!r}")
        if name == "inert" and degree != 1:
            raise ValueError("inert blocks have degree 1; use 'irreducible'")
        if degree < 1:
            raise ValueError("block degree must be >= 1")
        out.append((name, degree))
    if sum(2 * d for _, d in out) != space.dim:
        raise ValueError("block dimensions do not sum to 2N")
    return out


def build_maximal_torus(space: SympSpace, kind) -> Torus:
    """Maximal torus of the prescribed symplectic type.

    ``kind`` is a list of block descriptors: 'split', 'inert',
    'irreducible<d>' (or 'irr<d>'), or a pair such as ('split', d).
    """
    blocks = _normalize_kind(space, kind)
    ctx = space.ctx
    generators, orders, infos = [], [], []
    next_pair = 0
    for name, d in blocks:
        pairs = tuple(range(next_pair, next_pair + d))
        next_pair += d
        if name == "split":
            local, order = _split_block_generator(space, d)
        else:
            local, order = _norm_one_block_generator(space, d)
        g = _scatter_block(space, local, pairs)
        assert_symplectic(space, g, f"{name} block generator")
        _assert_order(ctx, g, order)
        generators.append(la.freeze(g))
        orders.append(order)
        infos.append(BlockInfo(name, d, order))
    return Torus(space, generators, orders, infos)


def _assert_order(ctx, g, order):
    """AssertionError unless g^order = I and g^(order/r) != I for every
    prime r | order, by repeated squaring of the F_p matrix of g
    (``restrict_scalars``)."""
    R = restrict_scalars(ctx, [g])[0]
    ident = np.eye(len(R), dtype=np.int64)

    def is_identity(e):
        acc, base = ident, R
        while e:
            if e & 1:
                acc = acc @ base % ctx.p
            base = base @ base % ctx.p
            e >>= 1
        return np.array_equal(acc, ident)

    if not is_identity(order):
        raise AssertionError("generator order too large")
    if any(is_identity(order // r) for r, _ in factorize(order)):
        raise AssertionError("generator order too small")


# -- centralizer tori ---------------------------------------------------------


def _poly_compose_mod(ctx, u, s, mod):
    """u(s) mod ``mod`` by Horner."""
    acc = []
    for c in reversed(u):
        acc = gfq.poly_mod(ctx, gfq.poly_add(ctx, gfq.poly_mul(ctx, acc, s), [c]), mod)
    return acc


def _order_test(ctx, c, order, mod):
    one = [ctx.one]
    if gfq.poly_sub(ctx, gfq.poly_pow_mod(ctx, c, order, mod), one):
        return False
    for r, _ in factorize(order):
        if not gfq.poly_sub(ctx, gfq.poly_pow_mod(ctx, c, order // r, mod), one):
            return False
    return True


def _pair_factor_classes(ctx, factors):
    """Group the distinct irreducible factors into self-dual singletons and
    dual pairs under f -> reciprocal of f."""
    polys = [tuple(f) for f in factors]
    seen = set()
    classes = []
    lookup = set(polys)
    for f in polys:
        if f in seen:
            continue
        fd = tuple(gfq.reciprocal_dual(ctx, list(f)))
        if fd == f:
            if gfq.poly_deg(list(f)) == 1:
                raise ValueError(
                    "eigenvalue +1 or -1: element is not regular inside Sp"
                )
            classes.append(("I", f, None))
            seen.add(f)
        else:
            if fd not in lookup:
                raise ValueError("factor set is not closed under duality")
            rep, other = (f, fd) if gfq.poly_to_key(ctx, list(f)) <= gfq.poly_to_key(ctx, list(fd)) else (fd, f)
            if rep in seen:
                continue
            classes.append(("II", rep, other))
            seen.add(rep)
            seen.add(other)
    return classes


def _norm_one_residue(ctx, f, d):
    """A generator of the norm-one group of GF(q)[x]/f, for f self-dual
    irreducible of degree 2d: c = r^(Q - 1), Q = q^d, for the least
    encoding r with c of order Q + 1.  A constant r lies in F_q^*, so
    r^(Q - 1) = 1: the search starts at the first non-constant encoding."""
    Q = ctx.q**d
    for enc in range(ctx.q, ctx.q ** (2 * d)):
        c = gfq.poly_pow_mod(ctx, gfq.poly_from_encoding(ctx, enc), Q - 1, f)
        if _order_test(ctx, c, Q + 1, f):
            return c
    raise RuntimeError("no norm-one generator found")  # pragma: no cover


def centralizer_torus(space: SympSpace, A) -> Torus:
    """The full commutant of a regular symplectic element inside Sp, as a
    torus of norm-one elements of the algebra GF(q)[A]."""
    ctx = space.ctx
    A = la.thaw(A)
    assert_symplectic(space, A, "centralizer input")
    cp = la.charpoly(ctx, A)
    try:
        factors = gfq.factor_poly(ctx, cp)
    except ValueError:
        raise ValueError("degenerate centralizer: characteristic polynomial not squarefree") from None
    classes = _pair_factor_classes(ctx, factors)
    generators, orders, infos = [], [], []
    x = [ctx.zero, ctx.one]
    for typ, f, partner in classes:
        f = list(f)
        if typ == "I":
            d = gfq.poly_deg(f) // 2
            residues = {tuple(f): _norm_one_residue(ctx, f, d)}
            order = ctx.q**d + 1
            name = "inert" if d == 1 else "irreducible"
        else:
            partner = list(partner)
            d = gfq.poly_deg(f)
            order = ctx.q**d - 1
            gamma = None
            for enc in range(2, ctx.q**d):
                r = gfq.poly_from_encoding(ctx, enc)
                if _order_test(ctx, gfq.poly_mod(ctx, r, f), order, f):
                    gamma = gfq.poly_mod(ctx, r, f)
                    break
            if gamma is None:  # pragma: no cover
                raise RuntimeError("no unit generator found")
            xinv = gfq.poly_inverse_mod(ctx, x, partner)
            theta_gamma = _poly_compose_mod(ctx, gamma, xinv, partner)
            w = gfq.poly_inverse_mod(ctx, theta_gamma, partner)
            residues = {tuple(f): gamma, tuple(partner): w}
            name = "split"
        # the generator is the identity off its block
        keys = [tuple(g) for g in factors]
        lift = _crt_lift_general(ctx, cp, {k: residues.get(k, [ctx.one]) for k in keys})
        g = la.mat_eval_poly(ctx, lift, A)
        assert_symplectic(space, g, "centralizer generator")
        _assert_order(ctx, g, order)
        generators.append(la.freeze(g))
        orders.append(order)
        infos.append(BlockInfo(name, d, order))
    torus = Torus(space, generators, orders, infos)
    try:
        torus.exponents_of(A)
    except KeyError:
        raise AssertionError("input element missing from its own centralizer torus") from None
    return torus


def _crt_lift_general(ctx, charpoly, targets):
    """Polynomial with the prescribed residue mod every factor of a
    squarefree ``charpoly`` (a factor left out gets residue 0)."""
    acc = []
    for f, val in targets.items():
        if not val:
            continue
        f = list(f)
        M = gfq.poly_divmod(ctx, charpoly, f)[0]
        Minv = gfq.poly_inverse_mod(ctx, M, f)
        term = gfq.poly_mul(ctx, gfq.poly_mul(ctx, M, Minv), val)
        acc = gfq.poly_add(ctx, acc, term)
    return gfq.poly_mod(ctx, acc, charpoly)


def torus_idempotents(torus: Torus):
    """(E, L) for the nonzero products E of the minimal-polynomial
    idempotents of the torus generators, L the lcm of the degrees of the
    factors that cut E.  No regular element is needed.

    The E sum to the identity, and E GF(q)[T] is a quotient of the tensor
    product of the GF(q^d) of those factors, a product of copies of
    GF(q^L).  So E V is one line over a field exactly when rank(E) = L, and
    then E is a primitive idempotent of GF(q)[T]."""
    ctx = torus.space.ctx
    pieces = [(la.identity(ctx, torus.space.dim), 1)]
    for gkey in torus.generators:
        g = la.thaw(gkey)
        mp = la.matrix_min_poly(ctx, g)
        try:
            factors = gfq.factor_poly(ctx, mp)
        except ValueError:
            raise RuntimeError("torus generator is not semisimple") from None
        idems = [
            (la.mat_eval_poly(ctx, _crt_lift_general(ctx, mp, {tuple(f): [ctx.one]}), g),
             gfq.poly_deg(f))
            for f in factors
        ]
        pieces = [
            (la.mat_mul(ctx, E, e), math.lcm(deg, d)) for E, deg in pieces for e, d in idems
        ]
        pieces = [(E, deg) for E, deg in pieces if any(x != ctx.zero for row in E for x in row)]
    return pieces


# -- module structure ----------------------------------------------------------


class ModBlock:
    """One summand V_alpha of the module structure.

    Its field K_alpha is a FieldCtx (``field``, from
    ``gfq.extension_field``); ``mat`` is the F_q-linear ring isomorphism
    from K_alpha onto the block's fixed algebra, the only link between field
    elements and matrices.  The block also holds the distinguished K-basis
    (E, F) with omega_bar(E, F) = 1.

    omega_bar is one integer tensor ``omega_tensor`` on the F_p coordinates
    c of ``heiwei.prime_coords`` (power-basis coefficient k of component i
    at i*m + k): coefficient j of omega_bar(u, v) is
    c(u) . omega_tensor[j] . c(v) mod p (``_omega_bar_tensor``).  Every map
    of the block is read from it on the whole F_p basis at once:
    ``to_coords`` (2 [K:F_p] x 2N m) sends v to the coordinates (x, y) of
    v_alpha = x E + y F, the coefficients of x and then those of y, as the
    rows omega_bar(., F) and omega_bar(E, .); ``from_coords_mat``
    (2N m x 2 [K:F_p]) sends (x, y) back to x E + y F, from the F_p matrices
    of mat(x^k) applied to E and F.  ``field_traces`` [r, j] is
    Tr_{K/F_p}(x^r x^j), x^r the power basis of GF(q) in K_alpha, and
    ``trace_gram``, the F_p Gram matrix of
    (u, v) -> Tr_{K/F_p} omega_bar(u_alpha, v_alpha), is its row r = 0
    applied to the tensor; the validation of the module structure fills
    it."""

    def __init__(self, space, idempotent, field, powers, v_basis, name):
        ctx, p = space.ctx, space.ctx.p
        self.space = space
        self.idempotent = idempotent
        self.field = field
        self.v_basis = v_basis
        self.name = name
        self.degree = field.m // ctx.m
        self._powers = powers  # mat(x^k) for the power basis x^k of K_alpha
        # Tr_{K/F_p}(x^k x^l) and its inverse, which recovers omega_bar from
        # its F_p traces
        xs = [field.from_int(p**k) for k in range(field.m)]
        gram = [[field.trace_to_prime(field.mul(a, b)) for b in xs] for a in xs]
        self._trace_dual = la.inv(field.prime_field, gram)
        emb = gfq.subfield_embedding(ctx, field)
        base = [field.serialize(emb.up(ctx.from_int(p**r))) for r in range(ctx.m)]
        self.field_traces = np.array(base, dtype=np.int64) @ np.array(gram, dtype=np.int64) % p
        R = restrict_scalars(ctx, powers)
        self.omega_tensor = _omega_bar_tensor(space, R, self._trace_dual)
        E = v_basis[0]
        for cand in v_basis[1:]:
            c = self.omega_bar(E, cand)
            if c != field.zero:
                F = la.mat_vec(ctx, self.mat(field.inv(c)), cand)
                break
        else:  # pragma: no cover - nondegeneracy of omega_bar
            raise ValueError("no symplectic partner in block")
        self.E = E
        self.F = F
        cE, cF = (np.asarray(w, dtype=np.int64).reshape(-1) for w in (E, F))
        self.to_coords = np.concatenate([self.omega_tensor @ cF, cE @ self.omega_tensor]) % p
        self.from_coords_mat = np.concatenate([R @ cE, R @ cF]).T % p
        self.trace_gram = None

    def mat(self, a):
        """Multiplication by a in K_alpha: a matrix on V supported on the block."""
        ctx = self.space.ctx
        coeffs = [ctx.el(c) for c in self.field.serialize(a)]
        return _span_matrices(ctx, [coeffs], self._powers, self.space.dim)[0]

    def omega_bar(self, u, v):
        """The K_alpha-valued form, the w in K_alpha with
        Tr_{K/F_q}(a w) = omega(mat(a) u, v) for every a, read from
        ``omega_tensor`` at the F_p coordinates of u and v."""
        p = self.field.p
        cu, cv = (np.asarray(w, dtype=np.int64).reshape(-1) for w in (u, v))
        return self.field.el(self.omega_tensor @ cv % p @ cu % p)


def _omega_bar_tensor(space, R, trace_dual) -> np.ndarray:
    """The tensor of omega_bar on F_p coordinates, shape
    ([K:F_p], 2N m, 2N m): Omega[j] = sum_k D[j, k] R_k^T G mod p, for R_k
    the F_p matrix (``restrict_scalars``) of mat(x^k), G the F_p Gram
    matrix of Tr omega (``SympSpace.trace_gram``) and D = ``trace_dual``.
    c(u) . R_k^T G . c(v) is Tr omega(mat(x^k) u, v), which is
    Tr_{K/F_p}(x^k omega_bar(u, v)), and D turns these traces into the
    power-basis coefficients of omega_bar(u, v).  Each Omega[j] is
    supported on the block: mat(x^k) is, and the symplectic transpose fixes
    the block idempotent."""
    p = space.ctx.p
    RtG = np.swapaxes(R, 1, 2) @ space.trace_gram % p
    return np.einsum("jk,kst->jst", np.array(trace_dual, dtype=np.int64), RtG) % p


class SympModuleStructure:
    """The commutative algebra K = Z(T, End V)^theta, the transpose-fixed
    part of the torus algebra GF(q)[T], with its block decomposition, block
    fields, and the K-linear form omega_bar lifting omega through the
    trace."""

    def __init__(self, torus, blocks):
        self.torus = torus
        self.space = torus.space
        self.blocks = blocks

    @property
    def rank(self) -> int:
        return len(self.blocks)

    def embed_sl2_stack(self, g_blocks_list) -> np.ndarray:
        """The F_p matrices (``restrict_scalars`` layout) of a list of tuples
        of 2 x 2 matrices over the block fields acting via the (E, F) bases:
        the sum over the blocks of from_coords_mat . R . to_coords, R the F_p
        matrices of the blocks' [[a, b], [c, d]] (``restrict_scalars`` over
        K_alpha), one integer product per block for the whole list."""
        p = self.space.ctx.p
        total = 0
        for i, blk in enumerate(self.blocks):
            act = restrict_scalars(blk.field, [gb[i] for gb in g_blocks_list])
            total = total + blk.from_coords_mat @ (act @ blk.to_coords % p) % p
        return total % p

    def trace_gram(self):
        """The F_p Gram matrix of (u, v) -> sum over the blocks of
        Tr_{K_alpha/F_p} omega_bar(u_alpha, v_alpha), on the F_p
        coordinates of ``ModBlock.to_coords``."""
        return sum(blk.trace_gram for blk in self.blocks) % self.space.ctx.p

    def block_matrices(self, stack) -> list:
        """The 2 x 2 matrices over the K_alpha of a stack of torus elements
        given by their F_p matrices (``Torus.stack`` layout), one tuple of
        frozen block matrices per element.  For each block,
        to_coords . R . from_coords_mat is the F_p matrix over K_alpha
        (``restrict_scalars`` layout) of the action on (x, y) of
        v_alpha = x E + y F, one integer product for the whole stack; its
        columns 0 and [K_alpha:F_p] are (a, c) and (b, d)."""
        p = self.space.ctx.p
        return list(zip(*(
            field_matrix_keys(blk.field, blk.to_coords @ stack @ blk.from_coords_mat % p)
            for blk in self.blocks
        )))

    def block_tori(self):
        """(k, T_alpha) for each block: the index k of the one torus
        generator that moves the block, and T_alpha, the cyclic torus on
        SympSpace(K_alpha, 1) generated by that generator's 2 x 2 block.
        ValueError unless blocks and generators match one to one; this is
        the one place that pairs them."""
        torus = self.torus
        gen_blocks = self.block_matrices(restrict_scalars(self.space.ctx, torus.generators))
        out = []
        for i, blk in enumerate(self.blocks):
            K = blk.field
            one = ((K.one, K.zero), (K.zero, K.one))
            moving = [k for k, gb in enumerate(gen_blocks) if gb[i] != one]
            if len(moving) != 1:
                raise ValueError(f"{len(moving)} torus generators move block {i}, not one")
            k = moving[0]
            order = torus.orders[k]
            info = BlockInfo("split" if blk.name == "split" else "inert", 1, order)
            out.append((k, Torus(SympSpace(K, 1), [gen_blocks[k][i]], [order], [info])))
        if sorted(k for k, _ in out) != list(range(len(torus.generators))):
            raise ValueError("blocks and torus generators do not match one to one")
        return out


def _span_matrices(ctx, coeffs_list, mats, n):
    out = []
    for coeffs in coeffs_list:
        M = la.zeros(ctx, n, n)
        for c, B in zip(coeffs, mats):
            if c != ctx.zero:
                for i in range(n):
                    for j in range(n):
                        M[i][j] = ctx.add(M[i][j], ctx.mul(c, B[i][j]))
        out.append(M)
    return out


def module_structure(torus: Torus) -> SympModuleStructure:
    """Compute the canonical decomposition of V under the torus together
    with the block fields and the trace-compatible K-linear form.

    The blocks come from the primitive idempotents of the torus algebra
    GF(q)[T] (``torus_idempotents``).  The torus determines a module
    structure exactly when each idempotent E cuts out one line over its
    field, rank(E) = L: the commutant of T is then GF(q)[T] itself, of
    dimension dim V (it is a product of matrix algebras
    M_k(GF(q^L)) of dimension k^2 L, and sum k L = dim V); otherwise
    ValueError.  The symplectic transpose pairs the idempotents into blocks:
    a fixed idempotent is an inert or irreducible block, a swapped pair is a
    split block.  The field K_alpha of a block of dimension 2d is generated
    by e (t + t^-1) for the first torus element t where that has degree d,
    and is carried as a FieldCtx together with the isomorphism
    ``ModBlock.mat`` onto the block's fixed algebra (see ``_block_field``).
    Blocks are ordered by the first coordinate they touch, ties in the order
    of the idempotents."""
    space = torus.space
    ctx = space.ctx
    n = space.dim
    pieces = torus_idempotents(torus)
    for e, degree in pieces:
        rank = la.rank(ctx, e)
        if rank != degree:
            raise ValueError(
                f"torus does not determine a module structure: an idempotent of "
                f"rank {rank} is not a line over GF(q^{degree}) (torus not "
                f"maximal, or its point group too small over this field)"
            )
    prim = [e for e, _ in pieces]
    keys = {la.freeze(e) for e in prim}
    merged = []
    used = set()
    for e in prim:
        key = la.freeze(e)
        if key in used:
            continue
        te = symplectic_transpose(space, e)
        tkey = la.freeze(te)
        if tkey == key:
            merged.append((e, False))
        elif tkey in keys:
            merged.append((la.mat_add(ctx, e, te), True))
        else:
            raise AssertionError("transpose of a primitive idempotent escaped")
        used.update((key, tkey))
    blocks = []
    for e, split in merged:
        v_basis = la.column_space_basis(ctx, e)
        if len(v_basis) % 2:
            raise AssertionError("odd-dimensional block")
        d = len(v_basis) // 2
        for R in torus.stack:
            # t + t^-1 is fixed by the symplectic transpose, which inverts t
            g = la.thaw(field_matrix_keys(ctx, R[None])[0])
            theta = la.mat_mul(ctx, e, la.mat_add(ctx, g, symplectic_transpose(space, g)))
            minpoly = la.matrix_min_poly(ctx, theta, unit=e)
            if gfq.poly_deg(minpoly) == d:
                break
        else:
            raise RuntimeError("no torus element generates the block field")
        field, powers = _block_field(ctx, e, theta, minpoly, n)
        name = "split" if split else "inert" if d == 1 else "irreducible"
        blocks.append(ModBlock(space, la.freeze(e), field, powers, v_basis, name))
    blocks.sort(key=lambda blk: _block_support_start(ctx, blk))
    ms = SympModuleStructure(torus, blocks)
    _validate_module_structure(ms)
    return ms


def _block_support_start(ctx, blk):
    """First coordinate index the block subspace touches, for a stable
    block ordering."""
    return min(
        next(i for i, x in enumerate(v) if x != ctx.zero) for v in blk.v_basis
    )


def _block_field(ctx, unit, theta, minpoly, n):
    """K_alpha as a FieldCtx, and the matrices mat(x^k) of the power basis
    of that field, for the block fixed algebra with identity ``unit``
    generated by theta, whose minimal polynomial there, of degree d, is
    ``minpoly``.

    The field is GF(q^d) with the default modulus, from
    ``gfq.extension_field`` (the base field itself when d = 1).  The
    isomorphism sends theta to the least-encoding root of
    its minimal polynomial, and is GF(q)-linear through
    ``gfq.subfield_embedding``."""
    d = gfq.poly_deg(minpoly)
    K = ctx if d == 1 else gfq.extension_field(ctx.p, ctx.m * d)
    emb = gfq.subfield_embedding(ctx, K)
    root = gfq.poly_roots(K, [emb.up(c) for c in minpoly])[0]
    theta_pows, root_pows = [unit], [K.one]
    for _ in range(d - 1):
        theta_pows.append(la.mat_mul(ctx, theta_pows[-1], theta))
        root_pows.append(K.mul(root_pows[-1], root))
    # F_p basis eps_l root^i of K, eps_l the power basis of GF(q), in the
    # columns of S; column k of S^(-1) writes x^k in that basis
    eps = [emb.up(ctx.el([0] * l + [1])) for l in range(ctx.m)]
    S = la.transpose([K.serialize(K.mul(e, r)) for r in root_pows for e in eps])
    S_inv = la.inv(K.prime_field, S)
    # x^k = sum_i c_ki root^i with c_ki in GF(q), so mat(x^k) = sum_i c_ki theta^i
    c = [
        [ctx.el([S_inv[i * ctx.m + l][k] for l in range(ctx.m)]) for i in range(d)]
        for k in range(K.m)
    ]
    return K, _span_matrices(ctx, c, theta_pows, n)


def _validate_module_structure(ms: SympModuleStructure):
    """Three identities of the blocks' omega_bar tensors, each on every pair
    of F_p basis vectors at once; AssertionError names the one that fails.

    - (E, F) is a K-basis of each block: ``to_coords`` reads back the (x, y)
      of x E + y F.
    - The relative traces of omega_bar sum to omega over GF(q): for each
      x^r of the power basis of GF(q), the ``field_traces`` row r applied to
      the tensors gives Tr_{K/F_p}(x^r omega_bar) = Tr(x^r Tr_{K/F_q}
      omega_bar), and the sum over the blocks must be the Gram matrix of
      Tr(x^r omega).  Row r = 0 of each block fills its ``trace_gram``.
    - omega_bar is invariant under every torus generator g:
      R_g^T Omega[j] R_g = Omega[j] for the F_p matrix R_g of g."""
    space = ms.space
    ctx, p = space.ctx, space.ctx.p
    for blk in ms.blocks:
        round_trip = blk.to_coords @ blk.from_coords_mat % p
        if not np.array_equal(round_trip, np.eye(len(round_trip), dtype=np.int64)):
            raise AssertionError("(E, F) is not a K-basis of the block")
    total = 0
    for blk in ms.blocks:
        traced = np.einsum("rj,jst->rst", blk.field_traces, blk.omega_tensor) % p
        blk.trace_gram = traced[0]
        total = total + traced
    want = [
        trace_form_gram(ctx, [[ctx.mul(ctx.from_int(p**r), x) for x in row] for row in space.gram])
        for r in range(ctx.m)
    ]
    if not np.array_equal(total % p, want):
        raise AssertionError("trace of omega_bar does not recover omega")
    gens = restrict_scalars(ctx, ms.torus.generators)[:, None]
    for blk in ms.blocks:
        moved = np.swapaxes(gens, 2, 3) @ (blk.omega_tensor @ gens % p) % p
        if (moved != blk.omega_tensor).any():
            raise AssertionError("omega_bar is not torus-invariant")


# -- symplectic rank -----------------------------------------------------------


def rank_from_charpoly(ctx, cp):
    """Block descriptors and symplectic rank read off a squarefree
    characteristic polynomial: factor mod p, pair every irreducible factor
    with its reciprocal dual, count the classes.  ValueError (from
    ``gfq.factor_poly``) when cp is not squarefree."""
    factors = gfq.factor_poly(ctx, cp)
    classes = _pair_factor_classes(ctx, factors)
    blocks = []
    for typ, f, _ in classes:
        if typ == "I":
            d = gfq.poly_deg(list(f)) // 2
            blocks.append(BlockInfo("inert" if d == 1 else "irreducible", d, ctx.q**d + 1))
        else:
            d = gfq.poly_deg(list(f))
            blocks.append(BlockInfo("split", d, ctx.q**d - 1))
    return blocks, len(blocks)


def trace_polynomial(cp):
    """The trace polynomial h of a monic palindromic integer polynomial cp
    of degree 2N: cp(x) = x^N h(x + 1/x), with h monic of degree N.

    With c_k the coefficients of cp and the Dickson polynomials
    D_0 = 2, D_1 = t, D_j = t D_(j-1) - D_(j-2), for which
    D_j(x + 1/x) = x^j + x^(-j), h = c_N + sum over j = 1..N of c_(N+j) D_j.
    Integer coefficients, constant term first; ValueError unless cp is
    monic and palindromic of even degree.
    """
    cp = [int(c) for c in cp]
    if len(cp) % 2 == 0 or cp[-1] != 1 or cp != cp[::-1]:
        raise ValueError("expected a monic palindromic polynomial of even degree")
    N = len(cp) // 2
    h = [cp[N]] + [0] * N
    prev, cur = [2], [0, 1]
    for j in range(1, N + 1):
        for i, d in enumerate(cur):
            h[i] += cp[N + j] * d
        nxt = [0] + cur
        for i, d in enumerate(prev):
            nxt[i] -= d
        prev, cur = cur, nxt
    return h


def trace_factor_degrees(ctx, h):
    """The sorted degrees of the irreducible factors of the integer trace
    polynomial h over GF(q), or None when the characteristic polynomial
    x^N h(x + 1/x) of a regular element is not squarefree over GF(q).

    The degrees are the cycle type of Frobenius on the roots of h, and
    their number is the symplectic rank: every irreducible factor of h
    gives exactly one block, a split dual pair or a self-dual factor.  They
    are read off the distinct-degree decomposition, deg(g)/d factors of
    degree d in each part g; no factor is split further.  The
    characteristic polynomial is squarefree exactly when h is and
    h(2) h(-2) != 0: x = 1/x only at x = +-1.
    """
    f = gfq.poly_from_ints(ctx, h)
    two = ctx.el(2)
    if (
        gfq.poly_eval(ctx, f, two) == ctx.zero
        or gfq.poly_eval(ctx, f, ctx.neg(two)) == ctx.zero
        or not gfq.is_squarefree(ctx, f)
    ):
        return None
    return tuple(
        d
        for g, d in gfq.distinct_degree_decomposition(ctx, f)
        for _ in range(gfq.poly_deg(g) // d)
    )
