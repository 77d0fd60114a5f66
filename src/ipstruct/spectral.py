"""Eigenstructure of channel superoperators.

The asymptotic behaviour of a trace-preserving map is governed by its
peripheral spectrum (eigenvalues on the unit circle).  This module extracts,
for the fixed points (``lambda = 1``) or the whole peripheral spectrum
(``|lambda| = 1``):

* the right eigenoperators, i.e. the fixed or rotating operator space;
* the left eigenoperators, i.e. the same space for the adjoint map;
* the spectral projector onto the right space along all other spectral
  components -- for the fixed points this is the time-averaged channel.

The split runs in Hermitian coordinates (see :mod:`ipstruct.channels`): in an
orthonormal basis of Hermitian operators a Hermiticity-preserving map, such
as every map in Kraus form, has a real matrix ``M_r``, because
``tr(B_a E(B_b))`` is real when ``B_a``, ``B_b`` and ``E(B_b)`` are
Hermitian.  All three results come from one real Schur form
``M_r = Z T Z^T`` whose leading quasi-triangular block ``T11`` carries the
selected eigenvalues (a conjugate pair shares ``|lambda|`` and
``|lambda - 1|``, so it is selected or dropped whole).  The leading Schur
vectors ``Z1`` span the right space, ``Z1 + Z2 X^T`` spans the left one, where
``T11 X - X T22 = T12``; as operators these are the Hermitian ``R`` and ``L``,
and the projector ``P = R L^dag`` stays factored (``SpectralSpace.project``).
The invariant subspace is the eigenspace because the peripheral spectrum of a
trace-preserving positive map is semisimple.  Memory: the split holds the
complex superoperator ``S``, read and never copied, its real form ``M_r`` (half
of ``S``) and blocks of rows (``S / 64`` from ``d = 16`` on); the factorization
overwrites ``M_r``, and only the selected columns outlive it.

When ``||M_r - M_r^T||_F <= SELF_ADJOINT`` one symmetric eigensolve gives that
form, diagonal with ``X = 0`` and equal left and right spaces; by Bauer-Fike each
eigenvalue of ``M_r`` is within that of the solver's, far inside ``PERIPHERAL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channels import (
    QuantumChannel,
    Superoperator,
    _psd_support,
    from_hermitian_coordinates,
    hermitian_coordinates,
    to_superoperator,
)
from .errors import NumericalError, ValidationError
from .tolerances import (BASIS_ORTHONORMAL, DEFAULT_TOL, PAIRING_CONDITION, PERIPHERAL, RANK_REL,
                         SELF_ADJOINT, SPECTRAL_GAP, ToleranceConfig)

__all__ = [
    "OperatorSpace",
    "SpectralSpace",
    "operator_space_from_span",
    "fixed_space",
    "rotating_space",
    "subspace_distance",
]


@dataclass(frozen=True)
class OperatorSpace:
    """A span of operators with a Hilbert-Schmidt orthonormal ``(size, dim, dim)`` basis."""

    dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex).reshape(-1, self.dim, self.dim)
        object.__setattr__(self, "basis", basis)

    @property
    def size(self) -> int:
        return len(self.basis)

    def vec_matrix(self) -> np.ndarray:
        """``dim^2 x size`` matrix whose columns are the column-stacked basis."""
        return self.basis.transpose(0, 2, 1).reshape(-1, self.dim ** 2).T

    def support(self) -> np.ndarray:
        """Orthonormal columns spanning the joint support of the span."""
        return _joint_support(self.basis)

    def compressed(self, v: np.ndarray) -> "OperatorSpace":
        """The span of ``v^dag b v`` for an isometry ``v``, orthonormalized if it shrinks."""
        local = OperatorSpace(dim=v.shape[1], basis=v.conj().T @ self.basis @ v)
        if _is_orthonormal(local.basis):
            return local
        return operator_space_from_span(local.vec_matrix(), local.dim)


@dataclass(frozen=True)
class SpectralSpace(OperatorSpace):
    """The right eigenoperators of a selected part of the spectrum.

    ``dual`` spans the matching left eigenoperators (those of the adjoint
    map).  The spectral projector onto this space along the rest of the
    spectrum is kept factored as ``P(x) = sum_i <L_i, x> B_i`` over the basis
    and the matching left eigenoperators, the ``(size, dim, dim)`` stack ``left``.
    """

    dual: OperatorSpace
    left: np.ndarray

    def project(self, x: np.ndarray) -> np.ndarray:
        """``P(x) = sum_i <L_i, x> B_i`` for one operator or a stack of them."""
        x = np.asarray(x)
        coeff = x.reshape(-1, self.dim * self.dim) @ self.left.reshape(self.size, -1).conj().T
        return (coeff @ self.basis.reshape(self.size, -1)).reshape(x.shape)

    @property
    def projector(self) -> Superoperator:
        """The spectral projector as a dense ``d^2 x d^2`` matrix, built on each read."""
        left = self.left.transpose(0, 2, 1).reshape(self.size, -1)  # rows are vec(L_i)
        return Superoperator(dim_in=self.dim, dim_out=self.dim,
                             matrix=self.vec_matrix() @ left.conj())


def _is_orthonormal(basis: np.ndarray) -> bool:
    """Whether a ``(k, dim, dim)`` stack's Gram matrix is within ``BASIS_ORTHONORMAL`` of 1."""
    flat = basis.reshape(-1, basis.shape[-1] ** 2)
    gram = flat.conj() @ flat.T
    return bool(np.max(np.abs(gram - np.eye(len(basis))), initial=0.0) <= BASIS_ORTHONORMAL)


def _joint_support(ops: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of ``sum_x x x^dag + x^dag x``
    over a ``(k, dim, dim)`` stack ``ops``; largest eigenvalue first.
    Eigenvalues below ``RANK_REL`` times the largest count as zero."""
    acc = np.zeros(ops.shape[1:], dtype=complex)
    for x in ops:
        acc += x @ x.conj().T + x.conj().T @ x
    return _psd_support(acc)[1]


def operator_space_from_span(vectors: np.ndarray, dim: int) -> OperatorSpace:
    """Orthonormalize a set of vectorized operators (columns) into a space.

    Directions with singular value below ``RANK_REL`` times the largest
    are dropped, so linearly dependent inputs are harmless.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != dim * dim:
        raise NumericalError(f"span matrix has shape {v.shape}, expected ({dim*dim}, k)")
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    keep = s > RANK_REL * np.max(s, initial=0.0)
    return OperatorSpace(dim=dim, basis=_operators(u[:, keep], dim))


# ---------------------------------------------------------------------------
# the spectral split
# ---------------------------------------------------------------------------

def _superop_matrix(ch: QuantumChannel | Superoperator) -> tuple[np.ndarray, int]:
    """The complex superoperator matrix of a square map; it is only read."""
    if isinstance(ch, QuantumChannel):
        if not ch.is_square:
            raise ValidationError("spectral analysis requires a square channel")
        return to_superoperator(ch).matrix, ch.dim_in
    if isinstance(ch, Superoperator):
        if ch.dim_in != ch.dim_out:
            raise ValidationError("spectral analysis requires a square superoperator")
        return ch.matrix, ch.dim_in
    raise ValidationError(
        f"spectral analysis takes a QuantumChannel or a Superoperator, not {type(ch).__name__}"
    )


def _operators(columns: np.ndarray, d: int) -> np.ndarray:
    return columns.T.reshape(-1, d, d).transpose(0, 2, 1)


def _moduli(t: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of a real quasi-triangular Schur block; a 2 x 2
    diagonal block holds a conjugate pair with ``|lambda|^2 = det``."""
    mod = np.abs(np.diag(t))
    j = np.flatnonzero(np.diag(t, -1))
    mod[j] = mod[j + 1] = np.sqrt(t[j, j] * t[j + 1, j + 1] - t[j, j + 1] * t[j + 1, j])
    return mod


def _ordered_schur(m_r: np.ndarray, select) -> tuple[np.ndarray, int, np.ndarray]:
    """``(T, k, Z)`` from LAPACK ``dgees``, ``T`` led by the ``k`` eigenvalues that
    ``select`` accepts.  It overwrites ``m_r``; the workspace query's outputs are dropped."""
    dgees = scipy.linalg.lapack.dgees
    lwork = int(dgees(select, m_r, lwork=-1, overwrite_a=True)[-2][0])
    t, k, _, _, z, _, info = dgees(select, m_r, sort_t=1, lwork=lwork, overwrite_a=True)
    if info != 0:  # 1..n: the QR iteration failed; n + 1 and n + 2: the reordering did
        reason = {len(m_r) + 1: "eigenvalues too close to reorder",
                  len(m_r) + 2: "a selected eigenvalue left the selection when reordered"}
        raise NumericalError("ordered Schur form failed: " + reason.get(
            info, f"the QR iteration did not converge (info {info})"),
            residuals={"schur_info": float(info)})
    return t, k, z


def _split(ch, select, nothing_selected: str,
           tol: ToleranceConfig) -> tuple[SpectralSpace, float, float]:
    """Split the spectrum into the eigenvalues ``select(re, im)`` accepts and the rest.

    Returns the selected space, the gap ``1 - |lambda|`` to the largest
    unselected eigenvalue (``inf`` if none is left) and the pairing condition
    ``||P|| = sqrt(1 + ||X||_2^2)``.
    """
    m, d = _superop_matrix(ch)
    m_r = hermitian_coordinates(m, d, tol)
    del m  # a superoperator built here is freed before the factorization
    n = m_r.shape[0]
    squares = 0.0  # ||M - M^T||_F^2 summed over blocks of 32 rows: no n x n temporary
    for i in range(0, n, 32):
        squares += np.linalg.norm(m_r[i:i + 32] - m_r[:, i:i + 32].T) ** 2
    symmetric = math.sqrt(squares) <= SELF_ADJOINT
    if symmetric:  # the Schur form is diagonal: X = 0 and the left space is the right one
        try:
            w, z = scipy.linalg.eigh(m_r, overwrite_a=True, driver="evd")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc
        keep = np.fromiter(map(select, w, np.zeros(n)), dtype=bool, count=n)
        k, z1, cond = int(np.count_nonzero(keep)), z[:, keep], 1.0
        gap = 1.0 - float(np.max(np.abs(w[~keep]), initial=-math.inf))
    else:
        t, k, z = _ordered_schur(m_r, select)
        x = np.zeros((k, n - k))
        gap = 1.0 - float(np.max(_moduli(t[k:, k:]), initial=-math.inf))
        if 0 < k < n:
            x, scale, info = scipy.linalg.lapack.dtrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
            if info != 0:
                raise NumericalError("Sylvester solve for the spectral coupling failed",
                                     residuals={"sylvester_info": float(info)})
            x = x / scale
        del t
        z1, left = z[:, :k].copy(), z[:, :k] + z[:, k:] @ x.T
        # ||P|| = 1 / sigma_min(L^dag R) for orthonormal right/left bases R, L
        cond = float(np.sqrt(1.0 + np.linalg.norm(x, 2) ** 2))
    del m_r, z  # only the k selected columns stay
    if k == 0:
        raise NumericalError(nothing_selected)
    right = from_hermitian_coordinates(z1, d)
    dual = right if symmetric else from_hermitian_coordinates(np.linalg.qr(left)[0], d)
    left = right if symmetric else from_hermitian_coordinates(left, d)
    space = SpectralSpace(dim=d, basis=_operators(right, d),
                          dual=OperatorSpace(dim=d, basis=_operators(dual, d)),
                          left=_operators(left, d))
    return space, gap, cond


def fixed_space(ch, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralSpace:
    """Operators with ``E(X) = X`` (``|lambda - 1| < PERIPHERAL``), with
    the fixed points of the adjoint as ``dual`` and the time-averaged channel
    as ``projector``.

    Raises:
        NumericalError: if no eigenvalue is 1, or if the right/left pairing
            is numerically singular (``pairing_condition`` above
            ``PAIRING_CONDITION``).
    """
    space, _, cond = _split(ch, lambda re, im: math.hypot(re - 1.0, im) < PERIPHERAL,
                            "no eigenvalue 1 found; is the map trace preserving?", tol)
    if not np.isfinite(cond) or cond > PAIRING_CONDITION:
        raise NumericalError(
            "eigenvalue-1 right/left eigenvector pairing is numerically singular",
            residuals={"pairing_condition": cond},
        )
    return space


def rotating_space(ch, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralSpace:
    """Span of eigenoperators with unit-modulus eigenvalues (``|lambda| = 1``
    within ``PERIPHERAL``), with the adjoint's span as ``dual`` and the
    peripheral spectral projector as ``projector``.

    Raises:
        NumericalError: if no eigenvalue has unit modulus, or if interior
            eigenvalues crowd the unit circle (cluster gap below
            ``SPECTRAL_GAP``), which would make the separation
            meaningless.
    """
    space, gap, _ = _split(ch, lambda re, im: abs(math.hypot(re, im) - 1.0) < PERIPHERAL,
                           "no unit-modulus eigenvalues found", tol)
    if gap < SPECTRAL_GAP:
        raise NumericalError(
            "peripheral spectrum is not separated from the interior",
            residuals={"cluster_gap": gap},
        )
    return space


# Views of one field of a SpectralSpace, not exported: read ``fixed_space(ch)``
# or ``rotating_space(ch)`` instead.  They stay only while BENCHMARK.json lists
# a metric under each name, and go with those metrics.

def fixed_space_adjoint(ch, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSpace:
    return fixed_space(ch, tol).dual


def rotating_space_adjoint(ch, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSpace:
    return rotating_space(ch, tol).dual


def asymptotic_projector(ch, tol: ToleranceConfig = DEFAULT_TOL) -> Superoperator:
    return fixed_space(ch, tol).projector


def peripheral_projector(ch, tol: ToleranceConfig = DEFAULT_TOL) -> Superoperator:
    return rotating_space(ch, tol).projector


def subspace_distance(a: OperatorSpace | np.ndarray, b: OperatorSpace | np.ndarray) -> float:
    """Operator-norm distance between orthogonal projectors onto two spans.

    Accepts operator spaces or raw matrices whose columns span the spaces.
    Returns 1.0-scale values for genuinely different spans and ~0 for equal
    ones; spans of different dimension always differ.  For equal dimensions
    the distance is ``||Q_b - Q_a Q_a^dag Q_b||``, the sine of the largest
    principal angle, computed without forming either projector.
    """
    def orthonormal(x):
        m = x.vec_matrix() if isinstance(x, OperatorSpace) else np.asarray(x, dtype=complex)
        return np.linalg.qr(m)[0]

    qa, qb = orthonormal(a), orthonormal(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    if qa.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2))
