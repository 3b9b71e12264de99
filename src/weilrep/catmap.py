"""The quantized torus automorphism at hbar = 1/p: genericity tests for
integer symplectic matrices, Hecke tori mod p, eigenstate and statistical
bound experiments, and the prime-sweep statistics of the symplectic rank.

Genericity is decided exactly over Q for every size 2N from one integer,
the discriminant of the characteristic polynomial (``discriminant``): it
is nonzero exactly for a regular element, its odd prime divisors are the
primes that the Hecke experiments (``skip_reason``) and the rank sweep
(``rank_density_sweep``) skip, and the factoring prime of
``factor_over_Q``, which reuses the GF(p) factorization of
``gfq.factor_poly``, is the least one past the coefficient bound that does
not divide it.

Every experiment works prime by prime and is pure in its inputs, so sweeps
parallelize over p and reports merge by simple concatenation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fqlin as la
from . import gfq
from .gfq import FieldCtx
from .heiwei import WeilRep, index_places
from .spectra import (
    expected_multiplicity,
    split_quadratic_bases,
    torus_characters,
    trace_multiplicities,
    weil_traces,
)
from .sums import admissible_mask, c_chi_table
from .symp import SympSpace, centralizer_torus, standard_gram, trace_factor_degrees, trace_polynomial

#: a strongly generic element of Sp(4, Z): characteristic polynomial
#: x^4 - 2x^3 - 2x^2 - 2x + 1, irreducible over Q, whose trace resolvent
#: y^2 - 2y - 4 has nonsquare discriminant 20, so the rank statistics follow
#: the order-two Galois group (``LatticeAutomorphism`` recomputes the flags)
CAT4_DEFAULT = (
    (0, 0, 1, 0),
    (0, 1, -2, 0),
    (-1, -1, 0, 2),
    (0, -1, 1, 1),
)

#: the classical two-dimensional cat map
CAT2_DEFAULT = ((2, 1), (1, 1))


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def is_integer_symplectic(mat) -> bool:
    n = len(mat)
    if n == 0 or n % 2 or any(len(row) != n for row in mat):
        return False
    J = standard_gram(la.INT_RING, n // 2)
    lhs = la.mat_mul(la.INT_RING, la.mat_mul(la.INT_RING, la.transpose(mat), J), mat)
    return lhs == J


# -- integer polynomials ---------------------------------------------------------


def discriminant(f) -> int:
    """The discriminant of a monic integer polynomial of degree n >= 1
    (coefficient list, constant term first), exactly: (-1)^(n(n-1)/2)
    Res(f, f'), with Res(f, f') the determinant of the (2n-1) x (2n-1)
    Sylvester matrix of f and f' (von zur Gathen and Gerhard, "Modern
    Computer Algebra", 6.3).  The matrix has odd size, so its determinant is
    -1 times the constant term of its division-free characteristic
    polynomial (``fqlin.charpoly``).  f is squarefree over Q exactly when the
    discriminant is nonzero, and mod a prime p exactly when p does not
    divide it."""
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    rows = [[0] * k + f[::-1] + [0] * (n - 2 - k) for k in range(n - 1)]
    rows += [[0] * k + df[::-1] + [0] * (n - 1 - k) for k in range(n)]
    det = -la.charpoly(la.INT_RING, rows)[0]
    return -det if n * (n - 1) // 2 % 2 else det


def _monic_quotient(f, g):
    """f / g for integer coefficient lists with g monic, or None when g does
    not divide f.  The division is exact in integers; a g whose constant
    term does not divide that of f is refused before any division."""
    if f[0] % g[0] if g[0] else f[0]:
        return None
    f = list(f)
    dg = len(g) - 1
    q = [0] * (len(f) - dg)
    for sh in reversed(range(len(q))):
        c = q[sh] = f[sh + dg]
        if c:
            for i in range(dg):
                f[sh + i] -= c * g[i]
    return None if any(f[:dg]) else q


def factor_over_Q(f):
    """The monic irreducible integer factors of a monic squarefree integer
    polynomial of any degree, sorted as coefficient lists (constant term
    first).  By Gauss's lemma the rational factors of a monic integer
    polynomial are monic integer polynomials.  ValueError unless f is
    monic with nonzero ``discriminant``; see ``_factor_monic_squarefree``.
    """
    f = gfq.poly_trim(la.INT_RING, [int(c) for c in f])
    if not f or f[-1] != 1:
        raise ValueError("factor_over_Q expects a monic polynomial")
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("factor_over_Q expects a squarefree polynomial")
    return _factor_monic_squarefree(f, disc)


def _factor_monic_squarefree(f, disc):
    """``factor_over_Q`` for a trimmed monic integer coefficient list of
    nonzero discriminant ``disc``.

    Big-prime method (von zur Gathen and Gerhard, "Modern Computer
    Algebra", 15.2).  A factor of degree at most n - 1 has every
    coefficient at most B = C(n-1, floor((n-1)/2)) ceil(||f||_2) in
    absolute value (Mignotte), so at the least prime P > 2B that does not
    divide ``disc``, where f stays squarefree, it is the product of a set
    of the monic irreducible factors of f over GF(P) (``gfq.factor_poly``),
    read with coefficients in (-P/2, P/2).  Sets are tried smallest first
    and kept when their product divides f exactly (``_monic_quotient``: the
    product is monic, so the division stays in integers), so each kept
    product is irreducible.  ValueError when P reaches the 2^20 bound of
    ``FieldCtx``."""
    n = len(f) - 1
    if n <= 1:
        return [f] if n else []
    norm = math.isqrt(sum(c * c for c in f) - 1) + 1  # ceil(||f||_2)
    P = 2 * math.comb(n - 1, (n - 1) // 2) * norm + 1
    while not gfq.is_prime(P) or disc % P == 0:
        P += 1
    ctx = FieldCtx(P)
    mods = gfq.factor_poly(ctx, gfq.poly_from_ints(ctx, f))
    factors = []
    k = 1
    while 2 * k <= len(mods):
        for subset in itertools.combinations(range(len(mods)), k):
            prod = [1]
            for i in subset:
                prod = gfq.poly_mul(ctx, prod, mods[i])
            g = [c - P if 2 * c > P else c for c in prod]
            q = _monic_quotient(f, g)
            if q is not None:
                factors.append(g)
                f = q
                mods = [m for i, m in enumerate(mods) if i not in subset]
                break
        else:
            k += 1
    return sorted(factors + [f])


@dataclass
class LatticeAutomorphism:
    """An element of Sp(2N, Z) with its integral characteristic polynomial
    cp, its discriminant ``disc`` and genericity flags: regular means cp
    squarefree over Q (disc != 0); strongly generic means cp irreducible
    over Q; generic means regular with every rational irreducible factor g
    equal to its own reciprocal (no invariant rational isotropic
    subspace).  g(0) = +-1, as g divides cp and cp(0) = 1, so the
    reciprocal x^deg(g) g(1/x) / g(0) is g exactly when the reversed
    coefficients are g(0) g."""

    mat: tuple
    charpoly: list[int] = field(init=False)
    disc: int = field(init=False)
    regular: bool = field(init=False)
    strongly_generic: bool = field(default=False, init=False)
    generic: bool = field(default=False, init=False)

    def __post_init__(self):
        mat = [list(row) for row in self.mat]
        if not is_integer_symplectic(mat):
            raise ValueError("matrix is not a square integer symplectic matrix")
        self.mat = tuple(tuple(int(x) for x in row) for row in mat)
        self.charpoly = la.charpoly(la.INT_RING, mat)
        self.disc = discriminant(self.charpoly)
        self.regular = self.disc != 0
        if self.regular:
            factors = _factor_monic_squarefree(self.charpoly, self.disc)
            self.strongly_generic = len(factors) == 1
            self.generic = all(g[::-1] == [g[0] * c for c in g] for g in factors)

    @property
    def N(self) -> int:
        return len(self.mat) // 2

    def mod_p(self, space: SympSpace):
        ctx = space.ctx
        return [[ctx.el(x) for x in row] for row in self.mat]


# -- per-prime experiment core ---------------------------------------------------


def skip_reason(A: LatticeAutomorphism, p: int) -> str | None:
    """Why prime p is left out of A's sweeps, or None.  The
    characteristic polynomial is monic, so it stays squarefree mod p
    exactly when p does not divide ``A.disc``."""
    if p == 2:
        return "p = 2 (odd characteristic only)"
    if p == 3 and A.N == 1:
        return "p = 3 with dim V = 2 (linearization not unique)"
    if A.disc % p == 0:
        return "p divides disc(charpoly)"
    return None


def _grid_index(values: np.ndarray, p: int, N: int) -> np.ndarray:
    """The vector index a_idx * p^N + b_idx (``heiwei.index_places``) at
    every point of the grid values^(2N), in C order, for the coordinate
    values ``values`` in [0, p): one broadcast sum of the 2N place-weighted
    axes."""
    n = 2 * N
    index = np.zeros((1,) * n, dtype=np.int64)
    for j, place in enumerate(index_places(p, N).tolist()):
        index = index + (values * place).reshape((-1,) + (1,) * (n - 1 - j))
    return index.reshape(-1)


def torus_orbit_minima(torus) -> np.ndarray:
    """For every v in F_p^2N, by its index a_idx * p^N + b_idx
    (``WeilRep.v_index``), the least index over its orbit under a torus
    over the prime field F_p.

    For each generator g the permutation v -> gv is built on the index
    grid, coordinate (gv)_i as one broadcast sum over the axes of
    g_ij v_j mod p, and the minimum over the g-cycle by pointer doubling:
    after k rounds a label is the minimum over v, gv, ..., g^(2^k - 1) v.
    T is the product of its cyclic generator groups, so one pass per
    generator gives the minimum over the T-orbit."""
    p = torus.space.ctx.p
    n = torus.space.dim
    N = n // 2
    labels = np.arange(p**n, dtype=np.int64)
    place = index_places(p, N)
    # the index grid (p,)^n in C order: coordinate j runs along the axis
    # whose rank is that of its place value, largest first
    axis = (place > place[:, None]).sum(axis=1)
    values = np.arange(p, dtype=np.int64)
    for g, order in zip(torus.generators, torus.orders):
        G = np.array(la.thaw(g), dtype=np.int64)
        step = np.zeros((p,) * n, dtype=np.int64)
        for i in range(n):
            image = np.zeros((1,) * n, dtype=np.int64)
            for j in range(n):
                image = image + (G[i, j] * values % p).reshape((p,) + (1,) * (n - 1 - axis[j]))
            step += image % p * place[i]
        step = step.reshape(-1)
        span = 1
        while span < order:
            labels = np.minimum(labels, labels[step])
            step = step[step]
            span *= 2
    return labels


#: a ``HeckeContext`` for a representation of dimension at most this also
#: builds the Weil operator U of each torus generator g and checks the trace
#: of every power U^j, 1 <= j < ord(g), against ``spectra.weil_traces`` at
#: g^j, the character of rho that the multiplicities rest on
OPERATOR_CHECK_DIM = 25

#: the most entries of the label grid, max(p, xi_max)^(2N), that a
#: ``HeckeContext`` builds.  T acts freely on admissible vectors, so its
#: table of |T| x #orbits entries has at most p^(2N) too, and the dense
#: operators of ``state_wigner`` are p^N x p^N
LABEL_GRID_BUDGET = 2**25


class HeckeContext:
    """Everything one prime's experiments share: the Hecke torus, its
    characters (``characters``, the exponent rows of
    ``spectra.torus_characters``) with their multiplicities, the
    admissibility mask over the exponent window (``sums.admissible_mask``,
    the one test the bound sweeps use too), the assembled bound, and the
    Wigner values on torus orbits, read from the torus character sums.

    Every block idempotent is a sum of the primitive idempotents that
    ``admissible_mask`` tests, so an admissible vector meets every block,
    and the assembled per-block bound at it is one scalar, ``bound``, the
    product over all blocks of 2 sqrt(p^(d_alpha)) / |T_alpha|.

    A joint eigenvector phi of T has rho(g) phi = chi(g) phi, and
    rho(g) pi(v) rho(g)^-1 = pi(gv), so W_phi(gv) = W_phi(v); admissibility
    is T-invariant too, since every idempotent E commutes with T and
    E t v != 0 exactly when E v != 0.  The window entries, by their vector
    indices (``v_index``, from one broadcast over the window grid; ``vmod``
    gives their coordinates on demand), are labelled by their T-orbit
    (``torus_orbit_minima``, the least index of the orbit), and
    ``admissible_mask`` runs once per distinct label.  The Wigner values
    are needed at one representative per admissible orbit that meets the
    window (``orbit_reps``); window entry k reads orbit ``xi_orbit[k]``
    (-1 when not admissible), and ``orbit_weight`` counts the window
    entries of each orbit (a ``bincount`` of the labels).

    The projector onto the chi-eigenspace is P_chi = (1/|T|) sum over g of
    conj(chi(g)) rho(g), and Tr(rho(g) pi(v)) is the Heisenberg-Weil
    character at (g, v), so Tr(P_chi pi(v)) = c_chi(v) / |T|: ``table``
    holds these values at the orbit representatives, one row per row of
    ``characters``, one column per orbit, from ``sums.c_chi_table`` with no
    operator built.  ``mults`` are the predicted multiplicities
    (``spectra.expected_multiplicity``), one per row of ``characters``;
    they must sum to q^N, and
    ``mult_residual`` is each character's deviation from the multiplicity
    the character of rho gives (``spectra.trace_multiplicities``), which
    must stay below 1e-6.  A state of multiplicity 1 is the whole
    eigenspace, so its Wigner row is its character's row of ``table``.  The
    eigenspaces of multiplicity 2 or more (quadratic characters of split
    blocks) need a basis; ``state_wigner`` builds them, on first use, from
    the generator operators (``spectra.split_quadratic_bases``), and reads
    all their Wigner values with one ``WeilRep.wigner_at`` call.  The
    character of rho and ``table`` come from one kernel call on the torus
    (``heiwei.torus_character_forms``).  Up to dimension
    ``OPERATOR_CHECK_DIM`` the build checks the traces of the powers of
    each generator's Weil operator against the character of rho.  A window
    [0, xi_max)^2N with xi_max < 2 has no nonzero exponent: ValueError.  A
    label grid past ``LABEL_GRID_BUDGET`` entries is refused before anything
    is allocated: MemoryError.
    """

    def __init__(self, A: LatticeAutomorphism, p: int, xi_max: int | None = None):
        grid = max(p, xi_max or p) ** (2 * A.N)
        if grid > LABEL_GRID_BUDGET:
            raise MemoryError(f"p = {p}, N = {A.N}: a label grid of {grid} entries exceeds "
                              f"the budget of {LABEL_GRID_BUDGET} (2^25)")
        if xi_max is None:
            xi_max = p
        if xi_max < 2:
            raise ValueError(f"the exponent window [0, {xi_max})^{2 * A.N} has no nonzero exponent")
        self.A = A
        self.xi_max = xi_max
        self.p = p
        self.N = A.N
        ctx = FieldCtx(p)
        self.space = SympSpace(ctx, A.N)
        self.ctx = ctx
        Amod = A.mod_p(self.space)
        self.torus = centralizer_torus(self.space, Amod)
        self.A_mod = la.freeze(Amod)
        self.rank = len(self.torus.blocks)
        self.characters = torus_characters(self.torus)
        self.mults = expected_multiplicity(self.torus, self.characters)
        if self.mults.sum() != p**A.N:
            raise RuntimeError(f"predicted multiplicities sum to {self.mults.sum()}, not {p**A.N}")
        self.mult_residual = trace_multiplicities(self.torus, self.characters) - self.mults
        if np.abs(self.mult_residual).max() > 1e-6:
            raise RuntimeError("the predicted multiplicities contradict the character of rho")
        # dimension 3, SL(2, F_3), has no Weil operator
        if 3 < p**A.N <= OPERATOR_CHECK_DIM:
            self._check_generator_traces()
        # exponent window, by vector index; v = 0 is the one index 0
        index = _grid_index(np.arange(xi_max, dtype=np.int64) % p, p, A.N)
        self.v_index = index[index != 0]
        del index
        self.bound = math.prod(2 * math.sqrt(p**blk.degree) / blk.order for blk in self.torus.blocks)
        # admissibility is T-invariant: test one vector per orbit
        labels = torus_orbit_minima(self.torus)[self.v_index]
        counts = np.bincount(labels)
        classes = np.flatnonzero(counts)
        coords = classes[:, None] // index_places(p, A.N) % p
        ok = admissible_mask(self.torus, coords)
        self.orbit_reps = classes[ok]
        self.orbit_weight = counts[self.orbit_reps]
        position = np.full(len(counts), -1, dtype=np.int64)
        position[self.orbit_reps] = np.arange(len(self.orbit_reps))
        self.xi_orbit = position[labels]
        self.admissible = self.xi_orbit >= 0
        self.table = c_chi_table(self.space, self.torus, coords[ok]) / self.torus.order
        self._state_wigner = None

    @functools.cached_property
    def vmod(self) -> np.ndarray:
        """The window exponents reduced mod p, one coordinate row per entry
        of ``v_index``."""
        return self.v_index[:, None] // index_places(self.p, self.N) % self.p

    def _check_generator_traces(self):
        rep = WeilRep(self.space)
        traces = weil_traces(self.torus)
        orders = self.torus.orders
        for k, (g, order) in enumerate(zip(self.torus.generators, orders)):
            # g^j has exponent row j e_k, at row j * prod(orders[k+1:])
            stride = math.prod(orders[k + 1 :])
            power = U = rep.weil_op(g)
            for j in range(1, order):
                if abs(np.trace(power) - traces[j * stride]) > rep.tol:
                    raise RuntimeError(f"generator {k} to the power {j} contradicts the character of rho")
                power = power @ U

    def state_wigner(self):
        """(W, mult): the Wigner values W_phi at the orbit representatives
        of every Hecke eigenstate phi, one row per state, and the
        multiplicity of each state's eigenspace.  The multiplicity-1 rows
        come first, in character order, read from ``table``; then the
        states of the larger eigenspaces, which are built here the first
        time and kept."""
        if self._state_wigner is None:
            ones = self.mults == 1
            rows, mult = [self.table[ones]], [self.mults[ones]]
            if np.any(self.mults >= 2):
                rep = WeilRep(self.space)
                bases = [B for _, B in sorted(split_quadratic_bases(rep, self.torus, self.mults).items())]
                rows.append(rep.wigner_at(np.concatenate(bases, axis=1), self.orbit_reps))
                mult.extend(np.full(B.shape[1], B.shape[1]) for B in bases)
            self._state_wigner = (np.concatenate(rows), np.concatenate(mult))
        return self._state_wigner


def _context_for(A: LatticeAutomorphism, p: int, xi_max: int | None,
                 context: HeckeContext | None) -> HeckeContext:
    """``context`` when it was built for (A, p, xi_max), a new
    ``HeckeContext`` when it is None.  A caller that runs several
    experiments on one prime builds the context once and passes it to
    each; the experiments only read it."""
    if context is None:
        return HeckeContext(A, p, xi_max)
    if (context.A.mat, context.p, context.xi_max) != (A.mat, p, p if xi_max is None else xi_max):
        raise ValueError("the context was built for another automorphism, prime or window")
    return context


def hecke_que_experiment(A: LatticeAutomorphism, p: int, xi_max: int | None = None, *,
                         context: HeckeContext | None = None):
    """Check, for one prime, every Hecke eigenstate against the assembled
    per-block bound over the exponent window.  Returns a summary row.
    ``context`` is the prime's ``HeckeContext`` if the caller has built it."""
    reason = skip_reason(A, p)
    if reason is not None:
        return {"p": p, "skipped": reason}
    hc = _context_for(A, p, xi_max, context)
    W, mults = hc.state_wigner()
    W = np.abs(W)
    bound = hc.bound
    ratios_sharp = W / (mults[:, None] * bound)
    row = {
        "p": p,
        "skipped": None,
        "r_p": hc.rank,
        "torus_order": hc.torus.order,
        "torus": hc.torus.descriptor_string(),
        "n_eigenstates": len(W),
        "n_xi": len(hc.v_index),
        "n_xi_excluded": int((~hc.admissible).sum()),
        "max_ratio": float(ratios_sharp.max()),
        "max_ratio_plain": float((W.max(axis=0) / bound).max()),
        "violations": int((ratios_sharp > 1 + 1e-9).sum(axis=0) @ hc.orbit_weight),
        "max_scaled_wigner": float(W.max() * math.sqrt(p**hc.N)),
    }
    return row


def statistical_state_experiment(A: LatticeAutomorphism, p: int, xi_max: int | None = None, *,
                                 context: HeckeContext | None = None):
    """The same sweep at the level of the density operators D of the
    eigenspaces of the quantized automorphism, read from the rows of
    ``HeckeContext.table``: no state and no operator is built.
    ``trace_deviation`` is the largest residual of the multiplicity law
    over the eigenspaces, |sum of (trace multiplicity - predicted)| / m
    with m the eigenspace's predicted dimension, which is Tr(D) - 1 for
    the D the character of rho gives.  ``context`` as for
    ``hecke_que_experiment``."""
    reason = skip_reason(A, p)
    if reason is not None:
        return {"p": p, "skipped": reason}
    hc = _context_for(A, p, xi_max, context)
    # group the characters of nonzero multiplicity by their value on A:
    # these cut the eigenspaces, and the density operator of an eigenspace
    # is D = (1/m) sum of the P_chi, so Tr(D pi(v)) is a sum of table rows
    present = np.flatnonzero(hc.mults)
    exps_A = hc.torus.exponents_of(hc.A_mod)
    orders = np.array(hc.torus.orders)
    L = math.lcm(*hc.torus.orders)
    phase_A = hc.characters[present] @ (exps_A * (L // orders)) % L
    # the eigenspaces are the runs of equal phase; a stable sort keeps each
    # run's characters in row order.  Each run's rows go to one slab of a
    # zero-padded array, whose sum over the slab adds them in that order
    order = np.argsort(phase_A, kind="stable")
    ids = present[order]
    starts = np.flatnonzero(np.diff(phase_A[order], prepend=-1))
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(ids)))
    slot = np.arange(len(ids)) - starts[run]
    slabs = np.zeros((len(starts), slot.max() + 1, hc.table.shape[1]), dtype=np.complex128)
    slabs[run, slot] = hc.table[ids]
    m_lambda = np.add.reduceat(hc.mults[ids], starts)
    vals = slabs.sum(axis=1) / m_lambda[:, None]
    ratios = np.abs(vals) / hc.bound
    # Tr(D) - 1, with the multiplicities the character of rho gives
    trace_dev = np.abs(np.add.reduceat(hc.mult_residual[ids], starts) / m_lambda).max()
    return {
        "p": p,
        "skipped": None,
        "r_p": hc.rank,
        "torus_order": hc.torus.order,
        "n_eigenspaces": len(starts),
        "max_ratio": float(ratios.max()),
        "violations": int(((ratios > 1 + 1e-9) @ hc.orbit_weight).sum()),
        "trace_deviation": float(trace_dev),
    }


def observable_bound_check(A: LatticeAutomorphism, p: int, observables=None, *,
                           context: HeckeContext | None = None):
    """Triangle-inequality form of the equidistribution statement for a few
    fixed trigonometric polynomials f = sum of a_xi xi: every Hecke state
    satisfies |<phi|pi(f)phi> - a_0| <= sum over xi != 0 of |a_xi| bound_xi.
    ``context`` as for ``hecke_que_experiment``, with the default window."""
    reason = skip_reason(A, p)
    if reason is not None:
        return {"p": p, "skipped": reason}
    hc = _context_for(A, p, None, context)
    if observables is None:
        observables = default_observables(A.N)
    # the default window is every exponent in [0, p)^2N but zero, in
    # row-major order: x sits at its base-p value minus 1
    place = p ** np.arange(2 * A.N - 1, -1, -1)
    W, _ = hc.state_wigner()
    rows = []
    for obs in observables:
        a0 = complex(obs.get((0,) * (2 * A.N), 0.0))
        acc = np.full(len(W), a0, dtype=np.complex128)
        rhs = 0.0
        usable = True
        for xi, coeff in obs.items():
            if not any(x % p for x in xi):
                continue
            k = int(np.array(xi) % p @ place) - 1
            if not hc.admissible[k]:
                usable = False
                break
            acc += coeff * W[:, hc.xi_orbit[k]]
            rhs += abs(coeff) * hc.bound
        if not usable:
            rows.append({"observable": _obs_name(obs), "skipped": "inadmissible exponent"})
            continue
        lhs = np.abs(acc - a0).max()
        rows.append(
            {
                "observable": _obs_name(obs),
                "max_deviation": float(lhs),
                "bound": rhs,
                "ok": bool(lhs <= rhs + 1e-9),
            }
        )
    return {"p": p, "skipped": None, "rows": rows}


def _obs_name(obs):
    return "+".join(
        f"{c:.3g}*e({','.join(str(x) for x in xi)})" for xi, c in sorted(obs.items())
    )


def default_observables(N: int):
    """Three real trigonometric polynomials with small frequencies."""
    zero = (0,) * (2 * N)
    e1 = tuple([1] + [0] * (2 * N - 1))
    e2 = tuple([0] * (2 * N - 1) + [1])
    mix = tuple([1] * (2 * N))
    minus = lambda xi: tuple(-x for x in xi)
    return [
        {e1: 0.5, minus(e1): 0.5},
        {zero: 1.0, e2: 0.5, minus(e2): 0.5},
        {mix: 0.5, minus(mix): 0.5, e1: 0.25, minus(e1): 0.25},
    ]


# -- rank statistics --------------------------------------------------------------


def rank_density_sweep(A: LatticeAutomorphism, max_prime: int):
    """Empirical frequencies of the symplectic rank over all usable odd
    primes up to max_prime.  The trace polynomial h of the characteristic
    polynomial is built once; at each prime the factor degrees of h mod p
    (``symp.trace_factor_degrees``) give the rank, their number, and the
    cycle type of Frobenius, counted in ``degree_patterns`` under the
    comma-joined sorted degrees.  An odd p is skipped exactly when it
    divides ``A.disc``, the primes at which the characteristic polynomial
    is not squarefree mod p (as in ``skip_reason``).  No representation is
    built."""
    if not A.regular:
        raise ValueError("rank sweep needs a regular element")
    h = trace_polynomial(A.charpoly)
    counts: dict[int, int] = {}
    half_counts: dict[int, int] = {}
    patterns: dict[str, int] = {}
    skipped = []
    used = 0
    half_limit = max_prime // 2
    for p in primes_up_to(max_prime)[1:]:
        if A.disc % p == 0:
            skipped.append(p)
            continue
        degrees = trace_factor_degrees(FieldCtx(p), h)
        r = len(degrees)
        key = ",".join(map(str, degrees))
        patterns[key] = patterns.get(key, 0) + 1
        counts[r] = counts.get(r, 0) + 1
        if p <= half_limit:
            half_counts[r] = half_counts.get(r, 0) + 1
        used += 1
    freqs = {r: c / used for r, c in sorted(counts.items())}
    half_used = sum(half_counts.values())
    half_freqs = {r: c / half_used for r, c in sorted(half_counts.items())} if half_used else {}
    return {
        "max_prime": max_prime,
        "n_primes": used,
        "skipped": skipped,
        "counts": counts,
        "freqs": freqs,
        "half_freqs": half_freqs,
        "degree_patterns": patterns,
    }
