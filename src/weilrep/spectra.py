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

from .heiwei import WeilRep, torus_character_forms
from .symp import Torus


@dataclass(frozen=True)
class TorusCharacter:
    torus: Torus
    exponents: tuple

    def __call__(self, g) -> complex:
        exps = self.torus.index[g]
        phase = sum(e * j / n for e, j, n in zip(self.exponents, exps, self.torus.orders))
        return complex(np.exp(2j * np.pi * phase))

    def values(self) -> np.ndarray:
        """Values over the full element enumeration, in order."""
        return character_values(self.torus, [self])[0]

    def is_quadratic(self) -> bool:
        """All values in {+1, -1} but not all +1."""
        vals = self.values()
        real = np.all(np.abs(vals.imag) < 1e-12) and np.all(
            np.abs(np.abs(vals.real) - 1) < 1e-12
        )
        return bool(real and np.any(vals.real < 0))


def character_values(torus: Torus, characters) -> np.ndarray:
    """The values of the given characters over the full element
    enumeration, one row per character."""
    E = np.array([chi.exponents for chi in characters], dtype=np.int64).reshape(len(characters), -1)
    J = np.array(torus.exponents, dtype=np.int64)
    acc = np.zeros((len(characters), len(J)))
    for k, n in enumerate(torus.orders):
        acc = acc + E[:, k, None] * J[None, :, k] / n
    return np.exp(2j * np.pi * acc)


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

    Only the r generator operators U_k = rho(g_k) are built, and the whole
    space is split by ``_joint_eigenspaces``.  Every eigenspace gets the
    orthonormal basis that Gram-Schmidt makes of the columns of its
    projector B B* (``_orthonormal_range``), and every basis vector v is
    checked to satisfy |U_k v - chi(g_k) v| <= rep.tol for every generator.
    Column j of B B* is B conj(B[j, :]) and B is an isometry, so the
    Gram-Schmidt runs on the mult-dimensional coefficient vectors
    conj(B[j, :]), in the same order, and its result is mapped back by B
    once: no dim x dim projector is formed.  The basis depends on the
    eigenspace only, not on the B that ``eigh`` happened to return."""
    ops = [rep.weil_op(g) for g in torus.generators]
    spaces = _joint_eigenspaces(ops, torus.orders, np.eye(rep.dim, dtype=np.complex128))
    chars = torus_characters(torus)
    dec = EigenDecomposition(rep, torus, chars)
    empty = np.zeros((rep.dim, 0), dtype=np.complex128)
    for chi in chars:
        B = spaces.get(chi.exponents, empty)
        dec.multiplicities[chi.exponents] = B.shape[1]
        dec.bases[chi.exponents] = _canonical_basis(B)
    _check_eigenstates(rep, torus, ops, dec.bases)
    return dec


def _joint_eigenspaces(ops, orders, Q) -> dict:
    """The joint eigenspaces of the unitaries ``ops`` (of orders dividing
    ``orders``) inside the range of the isometry Q, which they must leave
    invariant, keyed by exponent tuples.

    The range is split one operator at a time: inside every joint
    eigenspace found so far, U_k acts as a unitary M whose eigenvalues are
    n_k-th roots of unity, and the Hermitian part of exp(-i phi) M with
    phi = pi / (2 n_k) has the eigenvalue cos(2 pi e / n_k - phi) on the
    exponent-e eigenspace.  These cosines are distinct for distinct e mod
    n_k, so one ``eigh`` separates every exponent, with fixed weights and
    hence deterministically.  The exponent of each eigenvector is read from
    its eigenvalue of U_k."""
    spaces = {(): Q}
    for U, n in zip(ops, orders):
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
    return spaces


def _canonical_basis(B: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt basis of the columns of the projector B B*, for an
    isometry B."""
    return B @ _orthonormal_range(B.conj().T, B.shape[1])


def _check_eigenstates(rep: WeilRep, torus: Torus, ops, bases: dict):
    """RuntimeError unless every column v of every basis, keyed by its
    character's exponents, has |U_k v - chi(g_k) v| <= rep.tol for every
    generator operator U_k."""
    keys = [exps for exps, B in bases.items() for _ in range(B.shape[1])]
    if not keys:
        return
    S = np.concatenate([bases[exps] for exps in dict.fromkeys(keys)], axis=1)
    for k, (U, n) in enumerate(zip(ops, torus.orders)):
        values = np.exp(2j * np.pi * np.array([exps[k] for exps in keys]) / n)
        resid = np.linalg.norm(U @ S - S * values, axis=0)
        worst = int(np.argmax(resid))
        if resid[worst] > rep.tol:
            raise RuntimeError(
                f"eigenvector residual {resid[worst]:.3e} exceeds {rep.tol:.3e} "
                f"at character {keys[worst]}"
            )


def split_quadratic_bases(rep: WeilRep, torus: Torus, multiplicities: dict) -> dict:
    """The bases ``decompose`` gives, up to rounding, of the eigenspaces of
    multiplicity 2 or more only, given the predicted multiplicity of every
    character by its exponents (``expected_multiplicity``).

    Such a character is quadratic on a block of even order n_k, exponent
    n_k / 2, where the generator operator U_k has eigenvalue -1.  For each
    such k, the -1 eigenspace of U_k, whose predicted dimension is the sum
    of the multiplicities with that exponent, is found by inverse iteration
    (``_eigenspace``), and ``_joint_eigenspaces`` splits it.  Each piece
    gets the basis of ``_canonical_basis``, which depends on the eigenspace
    only.  RuntimeError when a piece does not have its predicted dimension
    or a character of multiplicity 2 or more is left without a basis."""
    ops = [rep.weil_op(g) for g in torus.generators]
    wanted = {exps for exps, m in multiplicities.items() if m >= 2}
    bases = {}
    for k, n in enumerate(torus.orders):
        if n % 2 or not any(exps[k] == n // 2 for exps in wanted - set(bases)):
            continue
        d = sum(m for exps, m in multiplicities.items() if exps[k] == n // 2)
        Q = _eigenspace(ops[k], -1.0, d, rep.tol)
        for exps, B in _joint_eigenspaces(ops, torus.orders, Q).items():
            if B.shape[1] != multiplicities.get(exps, 0):
                raise RuntimeError(
                    f"eigenspace of character {exps} has dimension {B.shape[1]}, "
                    f"predicted {multiplicities.get(exps, 0)}"
                )
            if exps in wanted and exps not in bases:
                bases[exps] = _canonical_basis(B)
    if wanted - set(bases):
        raise RuntimeError(f"no eigenspace found for characters {sorted(wanted - set(bases))}")
    _check_eigenstates(rep, torus, ops, bases)
    return bases


def _eigenspace(U: np.ndarray, lam: complex, d: int, tol: float) -> np.ndarray:
    """An orthonormal basis of the lam-eigenspace of the unitary U, whose
    dimension is predicted to be d, by two steps of block inverse iteration
    on d + 1 vectors at the shift lam (1 + 1e-10).  The span then holds the
    whole eigenspace and one more direction; the directions of least
    residual |U x - lam x| are the right singular vectors of the residual
    U X - lam X, and RuntimeError unless exactly d of them have residual
    <= tol."""
    dim = len(U)
    k = min(d + 1, dim)
    # a fixed start block of irrational phases, in no special position with
    # respect to any eigenspace (a start that misses part of it fails the
    # count below instead of going unnoticed)
    j, c = np.ogrid[1 : dim + 1, 1 : k + 1]
    X = np.exp(2j * np.pi * (np.sqrt(2) * j * c + np.sqrt(3) * j * j * c))
    shifted = U - lam * (1 + 1e-10) * np.eye(dim)
    for _ in range(2):
        X = np.linalg.qr(np.linalg.solve(shifted, X))[0]
    _, res, Vh = np.linalg.svd(U @ X - lam * X, full_matrices=False)
    found = int(np.count_nonzero(res <= tol))
    if found != d:
        raise RuntimeError(f"eigenvalue {lam} has multiplicity {found}, predicted {d}")
    return X @ Vh[k - d :].conj().T


def _tie_order(norms: np.ndarray) -> np.ndarray:
    """The indices along the last axis of ``norms``, largest first.  Norms
    that agree to 1e-9 with their neighbour in that order (chains
    included) are taken in index order, so rounding noise cannot change
    which entry comes first."""
    order = np.argsort(-norms, axis=-1, kind="stable")
    drops = np.diff(np.take_along_axis(norms, order, axis=-1), axis=-1) < -1e-9
    ties = np.concatenate([np.zeros(drops.shape[:-1] + (1,), np.int64), np.cumsum(drops, axis=-1)], axis=-1)
    return np.take_along_axis(order, np.argsort(ties * norms.shape[-1] + order, axis=-1), axis=-1)


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


def trace_multiplicities(torus: Torus, characters) -> np.ndarray:
    """The multiplicity of each character from the character of the Weil
    representation, (1/|T|) sum over g of conj(chi(g)) Tr rho(g), with the
    traces from ``weil_traces`` and no operator built."""
    return (character_values(torus, characters).conj() @ weil_traces(torus)).real / torus.order


def weil_traces(torus: Torus) -> np.ndarray:
    """Tr rho(g) for every element g of the torus, in ``torus.exponents``
    order, with no operator built: the v = 0 coefficient of the
    Heisenberg-Weil character, from the kernel call that the torus
    character sums share (``heiwei.torus_character_forms``)."""
    return torus_character_forms(torus)[0]
