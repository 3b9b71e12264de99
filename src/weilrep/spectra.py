"""Characters of tori, eigenspace decomposition of the representation
space, multiplicities and projectors.

A character of a torus with cyclic factor orders (n_1, ..., n_r) is stored
as one exponent per factor; its value on the element with exponent tuple
(j_1, ..., j_r) is the root of unity with phase sum e_k j_k / n_k.
A character is fixed by its values on the r generators, so the eigenspaces
are the joint eigenspaces of the r generator Weil operators, found by
simultaneous diagonalization; multiplicities are their dimensions.  The
basis of each eigenspace is computed without forming its projector, and
projectors are formed from the bases on demand only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .heiwei import WeilRep
from .symp import Torus


@dataclass(frozen=True)
class TorusCharacter:
    torus: Torus
    exponents: tuple

    def value_at_exponents(self, exps) -> complex:
        phase = 0.0
        for e, j, n in zip(self.exponents, exps, self.torus.orders):
            phase += e * j / n
        return complex(np.exp(2j * np.pi * phase))

    def __call__(self, g) -> complex:
        return self.value_at_exponents(self.torus.index[g])

    def values(self) -> np.ndarray:
        """Values over the full element enumeration, in order."""
        acc = np.zeros(len(self.torus.exponents))
        for k, (e, n) in enumerate(zip(self.exponents, self.torus.orders)):
            js = np.array([exp[k] for exp in self.torus.exponents])
            acc = acc + e * js / n
        return np.exp(2j * np.pi * acc)

    def is_quadratic(self) -> bool:
        """All values in {+1, -1} but not all +1."""
        vals = self.values()
        real = np.all(np.abs(vals.imag) < 1e-12) and np.all(
            np.abs(np.abs(vals.real) - 1) < 1e-12
        )
        return bool(real and np.any(vals.real < 0))


def torus_characters(torus: Torus) -> list[TorusCharacter]:
    """The full character group, ordered lexicographically in exponents."""
    return [
        TorusCharacter(torus, exps)
        for exps in itertools.product(*[range(n) for n in torus.orders])
    ]


def sigma_character(torus: Torus) -> TorusCharacter | None:
    """The unique quadratic character of a cyclic torus of even order,
    identified by its values."""
    if len(torus.orders) == 1 and torus.orders[0] % 2 == 0:
        return _checked_quadratic(TorusCharacter(torus, (torus.orders[0] // 2,)))
    return None


def sigma_block_character(torus: Torus, alpha: int) -> TorusCharacter | None:
    """The quadratic character of the alpha-th cyclic block, trivial on the
    other blocks."""
    n = torus.orders[alpha]
    if n % 2:
        return None
    exps = tuple(n // 2 if k == alpha else 0 for k in range(len(torus.orders)))
    return _checked_quadratic(TorusCharacter(torus, exps))


def _checked_quadratic(chi: TorusCharacter) -> TorusCharacter:
    if not chi.is_quadratic():
        raise RuntimeError(f"character {chi.exponents} is not quadratic")
    return chi


@dataclass
class EigenDecomposition:
    rep: WeilRep
    torus: Torus
    characters: list[TorusCharacter]
    multiplicities: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)

    def multiplicity(self, chi: TorusCharacter) -> int:
        return self.multiplicities[chi.exponents]

    def projector(self, chi: TorusCharacter) -> np.ndarray:
        """The orthogonal projector B B* onto the chi-eigenspace."""
        B = self.bases[chi.exponents]
        return B @ B.conj().T

    def eigenstates(self):
        """(character, unit eigenvector) pairs over all nonzero spaces."""
        for chi in self.characters:
            basis = self.bases[chi.exponents]
            for k in range(basis.shape[1]):
                yield chi, basis[:, k]


def decompose(rep: WeilRep, torus: Torus) -> EigenDecomposition:
    """Joint eigenspaces of the Weil operators of the torus generators.

    Only the r generator operators U_k = rho(g_k) are built.  The space is
    split one generator at a time: inside every joint eigenspace found so
    far, U_k acts as a unitary M whose eigenvalues are n_k-th roots of unity,
    and the Hermitian part of exp(-i phi) M with phi = pi / (2 n_k) has the
    eigenvalue cos(2 pi e / n_k - phi) on the exponent-e eigenspace.  These
    cosines are distinct for distinct e mod n_k, so one ``eigh`` separates
    every exponent, with fixed weights and hence deterministically.  The
    exponent of each eigenvector is read from its eigenvalue of U_k.

    Every eigenspace gets the orthonormal basis that Gram-Schmidt makes of
    the columns of its projector B B*, and every basis vector v is checked
    to satisfy |U_k v - chi(g_k) v| <= rep.tol for every generator.  Column
    j of B B* is B conj(B[j, :]) and B is an isometry, so the Gram-Schmidt
    runs on the mult-dimensional coefficient vectors conj(B[j, :]), in the
    same order, and its result is mapped back by B once: no dim x dim
    projector is formed.

    For a multiplicity-1 eigenspace that Gram-Schmidt stops at its first
    column: the basis vector is b conj(b_j) / |b_j|, with b_j the entry of
    b = B of largest modulus (moduli within 1e-9 taken in index order, the
    ``_tie_order`` rule of the Gram-Schmidt), so its entry j is real and
    positive.  All these phases are found in one vectorised step
    (``_line_phases``), bit-identical to the Gram-Schmidt of
    ``_orthonormal_range``, which runs for multiplicities 2 and more."""
    ops = [rep.weil_op(g) for g in torus.generators]
    spaces = {(): np.eye(rep.dim, dtype=np.complex128)}
    for U, n in zip(ops, torus.orders):
        rot = np.exp(-1j * np.pi / (2 * n))
        refined = {}
        for exps, Q in spaces.items():
            M = rot * (Q.conj().T @ (U @ Q))
            W = Q @ np.linalg.eigh((M + M.conj().T) / 2)[1]
            lam = np.einsum("ij,ij->j", W.conj(), U @ W)
            es = np.rint(np.angle(lam) * n / (2 * np.pi)).astype(np.int64) % n
            for e in np.unique(es):
                refined[exps + (int(e),)] = W[:, es == e]
        spaces = refined
    chars = torus_characters(torus)
    dec = EigenDecomposition(rep, torus, chars)
    empty = np.zeros((rep.dim, 0), dtype=np.complex128)
    lines = [exps for exps, B in spaces.items() if B.shape[1] == 1]
    phases = {}
    if lines:
        P = np.concatenate([spaces[exps] for exps in lines], axis=1).conj().T
        phases = dict(zip(lines, _line_phases(P).reshape(-1, 1, 1)))
    for chi in chars:
        B = spaces.get(chi.exponents, empty)
        mult = B.shape[1]
        dec.multiplicities[chi.exponents] = mult
        coef = phases[chi.exponents] if mult == 1 else _orthonormal_range(B.conj().T, mult)
        dec.bases[chi.exponents] = B @ coef
    state_chars, states = zip(*dec.eigenstates())
    S = np.stack(states, axis=1)
    for U, gkey in zip(ops, torus.generators):
        values = np.array([chi(gkey) for chi in state_chars])
        resid = np.linalg.norm(U @ S - S * values, axis=0)
        worst = int(np.argmax(resid))
        if resid[worst] > rep.tol:
            raise RuntimeError(
                f"eigenvector residual {resid[worst]:.3e} exceeds {rep.tol:.3e} "
                f"at character {state_chars[worst].exponents}"
            )
    return dec


def _tie_order(norms: np.ndarray) -> np.ndarray:
    """The indices along the last axis of ``norms``, largest first.  Norms
    that agree to 1e-9 with their neighbour in that order (chains
    included) are taken in index order, so rounding noise cannot change
    which entry comes first."""
    order = np.argsort(-norms, axis=-1, kind="stable")
    drops = np.diff(np.take_along_axis(norms, order, axis=-1), axis=-1) < -1e-9
    ties = np.concatenate([np.zeros(drops.shape[:-1] + (1,), np.int64), np.cumsum(drops, axis=-1)], axis=-1)
    return np.take_along_axis(order, np.argsort(ties * norms.shape[-1] + order, axis=-1), axis=-1)


def _line_phases(P: np.ndarray) -> np.ndarray:
    """What ``_orthonormal_range(P[[k]], 1)`` returns, for every row k of P
    at once: the row's first entry in ``_tie_order``, divided by its
    modulus.  The moduli and the division use the formulas of
    ``_orthonormal_range`` (``np.linalg.norm`` along an axis and of a
    single entry), so the result is the same to the bit."""
    v = P[np.arange(len(P)), _tie_order(np.sqrt((P.conj() * P).real))[:, 0]]
    nv = np.sqrt(v.real * v.real + v.imag * v.imag)
    if np.any(nv <= 1e-8):  # pragma: no cover - a unit vector has an entry >= 1/sqrt(dim)
        raise RuntimeError("eigenline basis vector vanishes")
    return v / nv


def _orthonormal_range(P: np.ndarray, mult: int) -> np.ndarray:
    """Modified Gram-Schmidt on the ``mult`` largest columns of P, in
    ``_tie_order``: a projector, or the coefficients of its columns in an
    orthonormal basis of its range."""
    if mult == 0:
        return np.zeros((P.shape[0], 0), dtype=np.complex128)
    basis = []
    for idx in _tie_order(np.linalg.norm(P, axis=0)):
        v = P[:, idx].copy()
        for b in basis:
            v -= (b.conj() @ v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == mult:
            break
    if len(basis) != mult:  # pragma: no cover - projector rank equals trace
        raise RuntimeError("projector rank deficient against its multiplicity")
    return np.stack(basis, axis=1)


def multiplicity_table_rows(dec: EigenDecomposition):
    """CSV rows (p, m, N, torus_descriptor, chi_exponents, multiplicity)."""
    sp = dec.torus.space
    desc = dec.torus.descriptor_string()
    rows = []
    for chi in dec.characters:
        rows.append(
            (
                sp.ctx.p,
                sp.ctx.m,
                sp.N,
                desc,
                ";".join(str(e) for e in chi.exponents),
                dec.multiplicities[chi.exponents],
            )
        )
    return rows


def expected_multiplicity(torus: Torus, chi: TorusCharacter) -> int:
    """The predicted dimension: product over blocks of 1 for a non-quadratic
    factor, 2 for the quadratic character of a split block, 0 for the
    quadratic character of an inert or irreducible block."""
    m = 1
    for k, block in enumerate(torus.blocks):
        n = torus.orders[k]
        e = chi.exponents[k]
        if n % 2 == 0 and e == n // 2:
            m *= 2 if block.name == "split" else 0
        else:
            m *= 1
    return m
