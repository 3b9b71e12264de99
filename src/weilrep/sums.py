"""The torus character sums

    c_chi(v) = sum over g in T of conj(chi(g)) Tr(rho(g) pi(v, 0)),

the same sums as a product over the blocks of the module structure, each
factor ``c_chi_table`` on the block's own torus over its field K_alpha
(``c_chi_reduced``: one kernel for both), and sweep reports against the
square-root cancellation bounds 2^r sqrt(q)^N.

Each term is the Heisenberg-Weil character of ``heiwei.character_forms``,
0 off Im(g - I): the identity's vanishes at every v != 0, and that of an
element that is the identity on some block at every admissible vector.

The bound holds for admissible vectors, those outside every proper
torus-invariant subspace.  ``admissible_mask`` is the one admissibility
test: the bound sweeps here and the Hecke experiments of ``catmap`` both
call it.

Phases are exact integers (indices of p-th roots of unity), the quadratic
form of ``heiwei.character_forms`` on the F_p coordinates of the vectors,
computed as float64 matrix products that are exact below 2^53.  Character
rows and torus elements share the lexicographic exponent order, so the sum
over the torus, for all characters at once, is one DFT over the exponent
grid Z/n_1 x ... x Z/n_r in complex doubles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import fqlin as la
from .heiwei import prime_coords, torus_character_forms
from .spectra import torus_characters
from .symp import SympSpace, Torus, field_matrix_keys, torus_idempotents, trace_form_gram


def admissible_mask(torus: Torus, C) -> np.ndarray:
    """Whether the torus orbit of each vector spans V, for the vectors given
    by their F_p coordinate rows C (``heiwei.prime_coords``).

    With E and L from ``symp.torus_idempotents``, v is admissible iff every
    piece E V is one line over its field (rank(E) = L; otherwise no vector
    is) and E v != 0 for every E.  E v != 0 is read off the Gram matrix of
    the nondegenerate form (u, v) -> Tr(u^T E v), so one kernel serves
    every field.  ``orbit_spans_space`` is the per-vector oracle."""
    ctx = torus.space.ctx
    ok = np.ones(len(C), dtype=bool)
    for E, degree in torus_idempotents(torus):
        if la.rank(ctx, E) != degree:
            return np.zeros(len(C), dtype=bool)
        ok &= (C @ trace_form_gram(ctx, E).T % ctx.p).any(axis=1)
    return ok


def _float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 integers 0 <= x < 2^53.  The rounded quotient
    x / p is then within 1/p of the exact one, which is at least 1/p from
    the next integer, so its floor is exact."""
    return x - p * np.floor(x / p)


def c_chi_table(space: SympSpace, torus: Torus, v_list) -> np.ndarray:
    """Matrix of c_chi(v) over characters x vectors, one row per exponent
    row of ``spectra.torus_characters``, from the coefficients of
    ``heiwei.torus_character_forms``.

    The phase index c B c of every element at every vector is one float64
    product of the flattened B stack with the monomials c_i c_j mod p, and
    the support test K c = 0 of the elements with K != 0 one more; both are
    exact integers while n^2 (p - 1)^2 < 2^53, n = 2 N m, and ValueError
    above that.  Both run in chunks of about 2^22 entries.  The sum over
    the torus, for every character at once, is one DFT over the exponent
    grid (``np.fft.fftn``)."""
    p = space.ctx.p
    n = space.dim * space.ctx.m
    if n * n * (p - 1) ** 2 >= 2**53:
        raise ValueError(
            f"phase products of {n} F_p coordinates mod {p} are not exact in float64"
        )
    psi_pow = np.exp(2j * np.pi * np.arange(p) / p)
    C = prime_coords(v_list)
    trace, K, _, B = torus_character_forms(torus)
    monomials = (C[:, :, None] * C[:, None, :] % p).reshape(len(C), n * n).T.astype(np.float64)
    terms = np.empty((len(trace), len(C)), dtype=np.complex128)
    step = max(1, (1 << 22) // max(1, C.size))
    for lo in range(0, len(trace), step):
        part = slice(lo, lo + step)
        idx = _float_mod(B[part].reshape(-1, n * n).astype(np.float64) @ monomials, p)
        np.take(psi_pow, idx.astype(np.int64), out=terms[part])
        terms[part] *= trace[part, None]
    deficient = np.flatnonzero(K.any(axis=(1, 2)))
    Ct = C.T.astype(np.float64)
    for lo in range(0, len(deficient), step):
        part = deficient[lo : lo + step]
        KC = _float_mod(K[part].reshape(-1, n).astype(np.float64) @ Ct, p)
        off = KC.reshape(len(part), n, len(C)).any(axis=1)
        terms[part] = np.where(off, 0, terms[part])
    r = len(torus.orders)
    sums = np.fft.fftn(terms.reshape(*torus.orders, len(C)), axes=range(r))
    return sums.reshape(len(trace), len(C))


def c_chi_reduced(ms, torus: Torus, v_list) -> np.ndarray:
    """The same table as ``c_chi_table``, computed blockwise: V = sum of the
    V_alpha and T = prod of the T_alpha of
    ``SympModuleStructure.block_tori``, so

        c_chi(v) = prod over alpha of c_{chi_alpha}(v_alpha),

    each factor ``c_chi_table`` on SympSpace(K_alpha, 1) at the block
    coordinates of the vectors (one integer product with
    ``ModBlock.to_coords``), read at column k of the exponent rows, the
    exponent of chi on the generator k that moves the block."""
    E = torus_characters(torus)
    C = prime_coords(v_list)
    p = torus.space.ctx.p
    return math.prod(
        c_chi_table(T.space, T, C @ blk.to_coords.T % p)[E[:, k]]
        for blk, (k, T) in zip(ms.blocks, ms.block_tori())
    )


def orbit_spans_space(space: SympSpace, torus: Torus, v) -> bool:
    """Whether the torus orbit of v spans V (v avoids every proper invariant
    subspace), by exact ranks: the test oracle of ``admissible_mask``.
    v is a tuple over GF(q) or an F_p coordinate row; each component is
    read back with ``FieldCtx.el``, and the torus elements over GF(q) one
    at a time."""
    ctx = space.ctx
    v = [ctx.el(x) for x in np.reshape(v, (space.dim, ctx.m)).tolist()]
    rows = []
    for R in torus.stack:
        rows.append(la.mat_vec(ctx, field_matrix_keys(ctx, R[None])[0], v))
        if len(rows) % space.dim == 0 and la.rank(ctx, rows) == space.dim:
            return True
    return la.rank(ctx, rows) == space.dim


class SumRows:
    """The rows of a bound report, one dict per (character, vector) in
    character-major order, built as they are read: a sweep has
    |T| x |vectors| of them.  ``chars`` are the exponent rows of the
    characters (``spectra.torus_characters``), ``vectors`` the F_p
    coordinate rows of the vectors (``heiwei.prime_coords``); a row's
    ``"v"`` is its vector's row as a tuple."""

    def __init__(self, chars: np.ndarray, vectors: np.ndarray, table, bound):
        self.chars, self.vectors, self.table = chars, vectors, table
        self.mags = np.abs(table)
        self.ratios = self.mags / bound

    def __len__(self):
        return self.table.size

    def by_character(self, chi_labels):
        """(chi label, re, im, abs, ratio) per character, for one label per
        character, each value column a list over the vectors."""
        cols = (self.table.real, self.table.imag, self.mags, self.ratios)
        return zip(chi_labels, *(c.tolist() for c in cols))

    def __iter__(self):
        vs = list(map(tuple, self.vectors.tolist()))
        for chi, *cols in self.by_character(map(tuple, self.chars.tolist())):
            for v, re, im, a, r in zip(vs, *cols):
                yield {"chi": chi, "v": v, "re": re, "im": im, "abs": a, "ratio": r}


@dataclass
class SumReport:
    """A bound sweep over one torus.  ``excluded`` holds the F_p coordinate
    rows of the vectors that ``admissible_mask`` rejects."""

    space: SympSpace
    torus: Torus
    rows: SumRows | list = field(default_factory=list)
    excluded: np.ndarray | None = None
    seed: int | None = None
    rank: int = 0
    bound: float = 0.0
    es_bound: float = 0.0
    max_ratio: float = 0.0
    argmax: dict | None = None

    def csv_rows(self):
        """The formatted CSV rows, yielded one at a time.  Each character
        and each vector is formatted once: a vector as its components'
        power-basis coefficients, components joined by ';'."""
        if not self.rows:
            return
        ctx, rows = self.space.ctx, self.rows
        head = (ctx.p, ctx.m, self.space.N, self.torus.descriptor_string())
        bound = f"{self.bound:.12g}"
        chis = (";".join(map(str, chi)) for chi in rows.chars.tolist())
        components = rows.vectors.reshape(len(rows.vectors), self.space.dim, ctx.m).tolist()
        vs = [";".join(",".join(map(str, x)) for x in v) for v in components]
        for chi, *cols in rows.by_character(chis):
            for v, re, im, a, r in zip(vs, *cols):
                yield (*head, chi, v, f"{re:.12g}", f"{im:.12g}", f"{a:.12g}", bound, f"{r:.12g}")

    def summary(self):
        return {
            "p": self.space.ctx.p,
            "m": self.space.ctx.m,
            "N": self.space.N,
            "torus": self.torus.descriptor(),
            "rank": self.rank,
            "bound": self.bound,
            "es_bound": self.es_bound,
            "max_ratio": self.max_ratio,
            "argmax": self.argmax,
            "n_rows": len(self.rows),
            "n_excluded": len(self.excluded),
            "seed": self.seed,
        }


def default_vector_range(space: SympSpace, seed: int = 0) -> np.ndarray:
    """F_p coordinate rows (``heiwei.prime_coords``) of every nonzero vector
    when the space is small (at most 6561 vectors), otherwise of all nonzero
    vectors of Hamming weight at most 2 followed by 4096 distinct others
    drawn with the given seed, capped at every nonzero vector.

    A vector is its encoding sum of x_i q^i, x_i the base-p encoding of
    component i, so the base-p digit i m + k of the encoding is coefficient
    k of component i: the encodings are all of 1 .. q^2N - 1, or those of
    weight at most 2 in the order (i <= j, x_i, x_j) and then the draws,
    each kept at its first occurrence.  ValueError when the encodings do
    not fit in int64, where they would wrap."""
    ctx = space.ctx
    q, n = ctx.q, space.dim
    total = q**n
    if total > 2**63:
        raise ValueError(f"the encodings of GF({q})^{n} do not fit in int64")
    if total <= 6561:
        encodings = np.arange(1, total)
    else:
        digit = np.arange(q, dtype=np.int64)
        # x_i = a, x_j = b; at i = j the component is b
        low = [(digit[:, None] * (q**i if j > i else 0) + digit * q**j).ravel()
               for i in range(n) for j in range(i, n)]
        chosen = dict.fromkeys(np.concatenate(low).tolist())
        del chosen[0]
        rng = random.Random(seed)
        target = min(len(chosen) + 4096, total - 1)
        while len(chosen) < target:
            enc = sum(rng.randrange(q) * q**i for i in range(n))
            if enc:
                chosen[enc] = None
        encodings = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    return encodings[:, None] // ctx.p ** np.arange(n * ctx.m) % ctx.p


def bound_report(space: SympSpace, torus: Torus, v_list=None, seed: int = 0) -> SumReport:
    """Evaluate |c_chi(v)| against 2^r sqrt(q)^N over all characters and the
    given (or default) vectors, tuples over GF(q) or F_p coordinate rows;
    vectors that ``admissible_mask`` rejects are excluded from the bound
    assertion and reported separately.  The worst witness ``argmax`` is the
    first (chi, v), in character-major order, whose ratio is within 1e-9
    relative of the largest."""
    ctx = space.ctx
    if v_list is None:
        C = default_vector_range(space, seed)
    else:
        # ValueError for rows of another width; an empty list gets the width
        C = prime_coords(v_list).reshape(len(v_list), space.dim * ctx.m)
    report = SumReport(space, torus, seed=seed)
    report.rank = len(torus.blocks)
    report.bound = 2**report.rank * math.sqrt(ctx.q**space.N)
    report.es_bound = 2**space.N * math.sqrt(ctx.q**space.N)
    mask = admissible_mask(torus, C)
    admissible = C[mask]
    report.excluded = C[~mask]
    if not len(admissible):
        return report
    chars = torus_characters(torus)
    table = c_chi_table(space, torus, admissible)
    report.rows = rows = SumRows(chars, admissible, table, report.bound)
    best = rows.ratios.max()
    if best > 0:
        # the first (chi, v) in character-major order within 1e-9 of the
        # maximum, so rounding noise cannot change the witness
        first = np.argmax(rows.ratios >= best * (1 - 1e-9))
        ci, vi = np.unravel_index(first, rows.ratios.shape)
        report.max_ratio = float(best)
        report.argmax = {
            "chi": chars[ci].tolist(),
            "v": admissible[vi].reshape(space.dim, ctx.m).tolist(),
            "abs": float(rows.mags[ci, vi]),
        }
    return report
