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
Hermitian.  All three results come from one ordered real Schur form
``M_r = Z T Z^T`` whose leading quasi-triangular block ``T11`` carries the
selected eigenvalues (a conjugate pair shares ``|lambda|`` and
``|lambda - 1|``, so it is selected or dropped whole), plus one real
Sylvester solve ``T11 X - X T22 = T12`` for the coupling block.  The leading
Schur vectors ``Z1`` span the right space, ``Z1 + Z2 X^T`` spans the left one,
and the projector is ``R L^dag`` with ``R``, ``L`` those two blocks mapped
back to operators.  Both bases therefore consist of Hermitian operators.  The
invariant subspace is the eigenspace because the peripheral spectrum of a
trace-preserving positive map is semisimple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channels import (
    QuantumChannel,
    Superoperator,
    from_hermitian_coordinates,
    hermitian_coordinates,
    to_superoperator,
)
from .errors import NumericalError, ValidationError
from .tolerances import (DEFAULT_TOL, PAIRING_CONDITION, PERIPHERAL, RANK_REL, SPECTRAL_GAP,
                         ToleranceConfig)

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
    """A subspace of operator space with a Hilbert-Schmidt orthonormal basis."""

    dim: int
    basis: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return len(self.basis)

    def vec_matrix(self) -> np.ndarray:
        """``dim^2 x size`` matrix whose columns are the column-stacked basis."""
        if not self.basis:
            return np.zeros((self.dim**2, 0), dtype=complex)
        return np.column_stack([b.reshape(-1, order="F") for b in self.basis])

    def support(self) -> np.ndarray:
        """Orthonormal columns spanning the joint support of the span, the
        range of ``sum_b b b^dag + b^dag b``; largest eigenvalue first."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for b in self.basis:
            acc += b @ b.conj().T + b.conj().T @ b
        w, v = np.linalg.eigh((acc + acc.conj().T) / 2.0)
        return v[:, w > RANK_REL * np.max(np.abs(w))][:, ::-1]

    def compressed(self, v: np.ndarray) -> "OperatorSpace":
        """The span of ``v^dag b v`` over the basis, for an isometry ``v``."""
        m = v.shape[1]
        local = OperatorSpace(dim=m, basis=tuple(v.conj().T @ b @ v for b in self.basis))
        return operator_space_from_span(local.vec_matrix(), m)


@dataclass(frozen=True)
class SpectralSpace(OperatorSpace):
    """The right eigenoperators of a selected part of the spectrum.

    ``dual`` spans the matching left eigenoperators (those of the adjoint
    map) and ``projector`` is the spectral projector onto this space along
    the rest of the spectrum.
    """

    dual: OperatorSpace
    projector: Superoperator


def operator_space_from_span(vectors: np.ndarray, dim: int) -> OperatorSpace:
    """Orthonormalize a set of vectorized operators (columns) into a space.

    Directions with singular value below ``RANK_REL`` times the largest
    are dropped, so linearly dependent inputs are harmless.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != dim * dim:
        raise NumericalError(f"span matrix has shape {v.shape}, expected ({dim*dim}, k)")
    if v.shape[1] == 0:
        return OperatorSpace(dim=dim, basis=())
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return OperatorSpace(dim=dim, basis=())
    keep = s > RANK_REL * s[0]
    ops = tuple(u[:, i].reshape((dim, dim), order="F") for i in range(s.size) if keep[i])
    return OperatorSpace(dim=dim, basis=ops)


# ---------------------------------------------------------------------------
# the spectral split
# ---------------------------------------------------------------------------

def _superop_matrix(ch: QuantumChannel | Superoperator) -> tuple[np.ndarray, int]:
    """A complex superoperator matrix that the caller may overwrite."""
    if isinstance(ch, QuantumChannel):
        if not ch.is_square:
            raise NumericalError("spectral analysis requires a square channel")
        return to_superoperator(ch).matrix, ch.dim_in
    if isinstance(ch, Superoperator):
        if ch.dim_in != ch.dim_out:
            raise NumericalError("spectral analysis requires a square superoperator")
        return np.array(ch.matrix, dtype=complex), ch.dim_in
    raise ValidationError(
        f"spectral analysis takes a QuantumChannel or a Superoperator, not {type(ch).__name__}"
    )


def _operators(columns: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    return tuple(c.reshape((d, d), order="F") for c in columns.T)


def _moduli(t: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of a real quasi-triangular Schur block; a 2 x 2
    diagonal block holds a conjugate pair with ``|lambda|^2 = det``."""
    mod = np.abs(np.diag(t))
    j = np.flatnonzero(np.diag(t, -1))
    mod[j] = mod[j + 1] = np.sqrt(t[j, j] * t[j + 1, j + 1] - t[j, j + 1] * t[j + 1, j])
    return mod


def _split(ch, select, nothing_selected: str,
           tol: ToleranceConfig) -> tuple[SpectralSpace, np.ndarray, np.ndarray]:
    """Split the spectrum into the eigenvalues ``select(re, im)`` accepts and
    the rest.

    Returns the selected space, the quasi-triangular block ``T22`` of the
    unselected eigenvalues and the coupling ``X`` that solves
    ``T11 X - X T22 = T12``.
    """
    m, d = _superop_matrix(ch)
    m_r = hermitian_coordinates(m, d, tol)
    del m  # freed before the Schur form
    try:
        t, z, k = scipy.linalg.schur(m_r, output="real", overwrite_a=True, sort=select)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"ordered Schur form failed: {exc}") from exc
    if k == 0:
        raise NumericalError(nothing_selected)
    z1, z2 = z[:, :k], z[:, k:]
    if k == z.shape[0]:
        x = np.zeros((k, 0))
    else:
        x, scale, info = scipy.linalg.lapack.dtrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        if info != 0:
            raise NumericalError("Sylvester solve for the spectral coupling failed",
                                 residuals={"sylvester_info": float(info)})
        x = x / scale
    left = z1 + z2 @ x.T
    right = from_hermitian_coordinates(z1, d)
    dual = from_hermitian_coordinates(np.linalg.qr(left)[0], d)
    projector = right @ from_hermitian_coordinates(left, d).conj().T
    space = SpectralSpace(
        dim=d,
        basis=_operators(right, d),
        dual=OperatorSpace(dim=d, basis=_operators(dual, d)),
        projector=Superoperator(dim_in=d, dim_out=d, matrix=projector),
    )
    return space, t[k:, k:], x


def fixed_space(ch, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralSpace:
    """Operators with ``E(X) = X`` (``|lambda - 1| < PERIPHERAL``), with
    the fixed points of the adjoint as ``dual`` and the time-averaged channel
    as ``projector``.

    Raises:
        NumericalError: if no eigenvalue is 1, or if the right/left pairing
            is numerically singular (``pairing_condition`` above
            ``PAIRING_CONDITION``).
    """
    space, _, x = _split(ch, lambda re, im: math.hypot(re - 1.0, im) < PERIPHERAL,
                         "no eigenvalue 1 found; is the map trace preserving?", tol)
    # ||P|| = 1 / sigma_min(L^dag R) for orthonormal right/left bases R, L
    cond = float(np.sqrt(1.0 + np.linalg.norm(x, 2) ** 2))
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
    space, interior, _ = _split(ch, lambda re, im: abs(math.hypot(re, im) - 1.0) < PERIPHERAL,
                                "no unit-modulus eigenvalues found", tol)
    if interior.size:
        gap = 1.0 - float(np.max(_moduli(interior)))
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
