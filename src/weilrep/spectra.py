"""Characters of tori, eigenspace decomposition of the representation
space and multiplicities.

The character group of a torus with cyclic factor orders (n_1, ..., n_r)
is the integer array of ``torus_characters``, ``Torus.exponents`` itself:
one row of exponents (e_1, ..., e_r) per character, and the same row
(j_1, ..., j_r) names the element at that position of ``Torus.stack``.
The value of a row on the element with exponent row (j_1, ..., j_r) is
the root of unity with phase sum e_k j_k / n_k, so the sums over the
torus of conj(chi(g)) f(g), for every character at once, are one
r-dimensional DFT of f over Z/n_1 x ... x Z/n_r (``np.fft.fftn``, whose
output runs in the same lexicographic order).  A character is fixed by
its values on the r generators, so the eigenspaces are the joint
eigenspaces of the r generator Weil operators, found by simultaneous
diagonalization; multiplicities are their dimensions.  The basis of each
eigenspace is computed without forming its projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heiwei import WeilRep, torus_character_forms
from .symp import Torus


def torus_characters(torus: Torus) -> np.ndarray:
    """The full character group: one row of exponents per character, the
    read-only array ``torus.exponents`` itself (character rows and element
    rows share one lexicographic order)."""
    return torus.exponents


@dataclass
class EigenDecomposition:
    """The eigenspaces of a torus, aligned with the rows of ``characters``
    (``torus_characters``): ``multiplicities[i]`` is the dimension of the
    eigenspace of row i and ``bases[i]`` its orthonormal basis, one column
    per vector; the projector onto it is B B*."""

    rep: WeilRep
    torus: Torus
    characters: np.ndarray
    multiplicities: np.ndarray
    bases: list


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
    E = torus_characters(torus)
    empty = np.zeros((rep.dim, 0), dtype=np.complex128)
    found = [spaces.get(tuple(exps), empty) for exps in E.tolist()]
    bases = [_canonical_basis(B) for B in found]
    _check_eigenstates(rep, torus, ops, E, bases)
    return EigenDecomposition(rep, torus, E, np.array([B.shape[1] for B in found]), bases)


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


def _check_eigenstates(rep: WeilRep, torus: Torus, ops, E, bases):
    """RuntimeError unless every column v of every basis, ``bases[i]`` for
    the character of exponent row ``E[i]``, has |U_k v - chi(g_k) v| <=
    rep.tol for every generator operator U_k."""
    rows = np.repeat(np.arange(len(bases)), [B.shape[1] for B in bases])
    if not len(rows):
        return
    S = np.concatenate(bases, axis=1)
    for k, (U, n) in enumerate(zip(ops, torus.orders)):
        values = np.exp(2j * np.pi * E[rows, k] / n)
        resid = np.linalg.norm(U @ S - S * values, axis=0)
        worst = int(np.argmax(resid))
        if resid[worst] > rep.tol:
            raise RuntimeError(
                f"eigenvector residual {resid[worst]:.3e} exceeds {rep.tol:.3e} "
                f"at character {tuple(E[rows[worst]].tolist())}"
            )


def split_quadratic_bases(rep: WeilRep, torus: Torus, mults: np.ndarray) -> dict:
    """The bases ``decompose`` gives, up to rounding, of the eigenspaces of
    multiplicity 2 or more only, keyed by the character's row of
    ``torus_characters``, given the predicted multiplicity of every row
    (``expected_multiplicity``).

    Such a character is quadratic on a block of even order n_k, exponent
    n_k / 2, where the generator operator U_k has eigenvalue -1.  For each
    such k, the -1 eigenspace of U_k, whose predicted dimension is the sum
    of the multiplicities with that exponent, is found by inverse iteration
    (``_eigenspace``), and ``_joint_eigenspaces`` splits it.  Each piece
    gets the basis of ``_canonical_basis``, which depends on the eigenspace
    only.  RuntimeError when a piece does not have its predicted dimension
    or a character of multiplicity 2 or more is left without a basis."""
    ops = [rep.weil_op(g) for g in torus.generators]
    E = torus_characters(torus)
    wanted = set(np.flatnonzero(mults >= 2).tolist())
    bases = {}
    for k, n in enumerate(torus.orders):
        quadratic = E[:, k] == n // 2
        if n % 2 or not any(quadratic[i] for i in wanted - set(bases)):
            continue
        Q = _eigenspace(ops[k], -1.0, int(mults[quadratic].sum()), rep.tol)
        for exps, B in _joint_eigenspaces(ops, torus.orders, Q).items():
            i = int(np.ravel_multi_index(exps, torus.orders))
            if B.shape[1] != mults[i]:
                raise RuntimeError(
                    f"eigenspace of character {exps} has dimension {B.shape[1]}, "
                    f"predicted {mults[i]}"
                )
            if i in wanted and i not in bases:
                bases[i] = _canonical_basis(B)
    if wanted - set(bases):
        missing = [tuple(E[i].tolist()) for i in sorted(wanted - set(bases))]
        raise RuntimeError(f"no eigenspace found for characters {missing}")
    _check_eigenstates(rep, torus, ops, E[list(bases)], list(bases.values()))
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
    return [
        (sp.ctx.p, sp.ctx.m, sp.N, desc, ";".join(map(str, exps)), m)
        for exps, m in zip(dec.characters.tolist(), dec.multiplicities.tolist())
    ]


def expected_multiplicity(torus: Torus, E: np.ndarray) -> np.ndarray:
    """The predicted dimension of the eigenspace of each exponent row of E:
    the product over blocks of 1 for a non-quadratic factor, 2 for the
    quadratic character (exponent n_k / 2) of a split block, 0 for that of
    an inert or irreducible block."""
    n = np.array(torus.orders)
    quadratic = (n % 2 == 0) & (E == n // 2)
    weight = np.array([2 if block.name == "split" else 0 for block in torus.blocks])
    return np.where(quadratic, weight, 1).prod(axis=1)


def trace_multiplicities(torus: Torus, E: np.ndarray) -> np.ndarray:
    """The multiplicity of the character of each exponent row of E from the
    character of the Weil representation, (1/|T|) sum over g of
    conj(chi(g)) Tr rho(g), with the traces from ``weil_traces`` and no
    operator built.  The sums over all characters are one DFT of the
    traces over the exponent grid Z/n_1 x ... x Z/n_r."""
    sums = np.fft.fftn(weil_traces(torus).reshape(torus.orders)).real / torus.order
    return sums[tuple(E.T)]


def weil_traces(torus: Torus) -> np.ndarray:
    """Tr rho(g) for every element g of the torus, in ``torus.exponents``
    order, with no operator built: the v = 0 coefficient of the
    Heisenberg-Weil character, from the kernel call that the torus
    character sums share (``heiwei.torus_character_forms``)."""
    return torus_character_forms(torus)[0]
