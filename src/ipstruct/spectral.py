"""Eigenstructure of channel superoperators.

The asymptotic behaviour of a trace-preserving map is governed by its
peripheral spectrum (eigenvalues on the unit circle).  This module extracts,
for the fixed points (``lambda = 1``) or the whole peripheral spectrum
(``|lambda| = 1``):

* the right eigenoperators, i.e. the fixed or rotating operator space;
* the left eigenoperators, i.e. the same space for the adjoint map;
* the spectral projector onto the right space along all other spectral
  components -- for the fixed points this is the time-averaged channel.

All three come from one ordered complex Schur form ``M = Z T Z^dag`` whose
leading block ``T11`` carries the selected eigenvalues, plus one triangular
Sylvester solve ``T11 X - X T22 = T12`` for the coupling block.  The leading
Schur vectors ``Z1`` span the right space, ``Z1 + Z2 X^dag`` spans the left
one, and the projector is ``Z1 (Z1^dag + X Z2^dag)``.  The invariant subspace
is the eigenspace because the peripheral spectrum of a trace-preserving
positive map is semisimple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channels import (
    QuantumChannel,
    Superoperator,
    to_superoperator,
)
from .errors import NumericalError, ValidationError
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "OperatorSpace",
    "SpectralSpace",
    "operator_space_from_span",
    "fixed_space",
    "fixed_space_adjoint",
    "rotating_space",
    "rotating_space_adjoint",
    "asymptotic_projector",
    "peripheral_projector",
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

    def project_coefficients(self, x: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt components of ``x`` along the basis."""
        return np.array([np.trace(b.conj().T @ x) for b in self.basis])


@dataclass(frozen=True)
class SpectralSpace(OperatorSpace):
    """The right eigenoperators of a selected part of the spectrum.

    ``dual`` spans the matching left eigenoperators (those of the adjoint
    map) and ``projector`` is the spectral projector onto this space along
    the rest of the spectrum.
    """

    dual: OperatorSpace
    projector: Superoperator


def operator_space_from_span(
    vectors: np.ndarray, dim: int, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorSpace:
    """Orthonormalize a set of vectorized operators (columns) into a space.

    Directions with singular value below ``tol.rank_rel`` times the largest
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
    keep = s > tol.rank_rel * s[0]
    ops = tuple(u[:, i].reshape((dim, dim), order="F") for i in range(s.size) if keep[i])
    return OperatorSpace(dim=dim, basis=ops)


# ---------------------------------------------------------------------------
# the spectral split
# ---------------------------------------------------------------------------

def _superop_matrix(ch: QuantumChannel | Superoperator) -> tuple[np.ndarray, int]:
    if isinstance(ch, QuantumChannel):
        if not ch.is_square:
            raise NumericalError("spectral analysis requires a square channel")
        return to_superoperator(ch).matrix, ch.dim_in
    if isinstance(ch, Superoperator):
        if ch.dim_in != ch.dim_out:
            raise NumericalError("spectral analysis requires a square superoperator")
        return ch.matrix, ch.dim_in
    raise ValidationError(
        f"spectral analysis takes a QuantumChannel or a Superoperator, not {type(ch).__name__}"
    )


def _operators(columns: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    return tuple(c.reshape((d, d), order="F") for c in columns.T)


def _split(ch, select, nothing_selected: str) -> tuple[SpectralSpace, np.ndarray, np.ndarray]:
    """Split the spectrum into the eigenvalues ``select`` accepts and the rest.

    Returns the selected space, the unselected eigenvalues and the coupling
    ``X`` that solves ``T11 X - X T22 = T12``.
    """
    m, d = _superop_matrix(ch)
    t, z, k = scipy.linalg.schur(m, output="complex", sort=select)
    if k == 0:
        raise NumericalError(nothing_selected)
    n = m.shape[0]
    # a copy, so that the n x n Schur basis is freed once the split returns
    z1, z2 = z[:, :k].copy(), z[:, k:]
    if k == n:
        x = np.zeros((k, 0), dtype=complex)
    else:
        x, scale, _ = scipy.linalg.lapack.ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        x = x / scale
    dual, _ = np.linalg.qr(z1 + z2 @ x.conj().T)
    space = SpectralSpace(
        dim=d,
        basis=_operators(z1, d),
        dual=OperatorSpace(dim=d, basis=_operators(dual, d)),
        projector=Superoperator(dim_in=d, dim_out=d,
                                matrix=z1 @ (z1.conj().T + x @ z2.conj().T)),
    )
    return space, np.diag(t)[k:], x


def fixed_space(ch, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralSpace:
    """Operators with ``E(X) = X`` (``|lambda - 1| < tol.peripheral``), with
    the fixed points of the adjoint as ``dual`` and the time-averaged channel
    as ``projector``.

    Raises:
        NumericalError: if no eigenvalue is 1, or if the right/left pairing
            is numerically singular (``pairing_condition`` above 1e12).
    """
    space, _, x = _split(ch, lambda lam: abs(lam - 1.0) < tol.peripheral,
                         "no eigenvalue 1 found; is the map trace preserving?")
    # ||P|| = 1 / sigma_min(L^dag R) for orthonormal right/left bases R, L
    cond = float(np.sqrt(1.0 + np.linalg.norm(x, 2) ** 2))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            "eigenvalue-1 right/left eigenvector pairing is numerically singular",
            residuals={"pairing_condition": cond},
        )
    return space


def rotating_space(ch, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralSpace:
    """Span of eigenoperators with unit-modulus eigenvalues (``|lambda| = 1``
    within ``tol.peripheral``), with the adjoint's span as ``dual`` and the
    peripheral spectral projector as ``projector``.

    Raises:
        NumericalError: if no eigenvalue has unit modulus, or if interior
            eigenvalues crowd the unit circle (cluster gap below
            ``tol.spectral_gap``), which would make the separation
            meaningless.
    """
    space, interior, _ = _split(ch, lambda lam: abs(abs(lam) - 1.0) < tol.peripheral,
                                "no unit-modulus eigenvalues found")
    if interior.size:
        gap = 1.0 - float(np.max(np.abs(interior)))
        if gap < tol.spectral_gap:
            raise NumericalError(
                "peripheral spectrum is not separated from the interior",
                residuals={"cluster_gap": gap},
            )
    return space


def fixed_space_adjoint(ch, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSpace:
    """Fixed points of the adjoint map (left fixed points of ``E``)."""
    return fixed_space(ch, tol).dual


def rotating_space_adjoint(ch, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSpace:
    """Unit-modulus eigenoperators of the adjoint map."""
    return rotating_space(ch, tol).dual


def asymptotic_projector(ch, tol: ToleranceConfig = DEFAULT_TOL) -> Superoperator:
    """The time-averaged channel: spectral projector onto the fixed space."""
    return fixed_space(ch, tol).projector


def peripheral_projector(ch, tol: ToleranceConfig = DEFAULT_TOL) -> Superoperator:
    """Spectral projector onto the full unit-modulus subspace."""
    return rotating_space(ch, tol).projector


def subspace_distance(a: OperatorSpace | np.ndarray, b: OperatorSpace | np.ndarray) -> float:
    """Operator-norm distance between orthogonal projectors onto two spans.

    Accepts operator spaces or raw matrices whose columns span the spaces.
    Returns 1.0-scale values for genuinely different spans and ~0 for equal
    ones; spans of different dimension always differ.
    """
    def proj(x):
        if isinstance(x, OperatorSpace):
            m = x.vec_matrix()
        else:
            m = np.asarray(x, dtype=complex)
        if m.shape[1] == 0:
            return np.zeros((m.shape[0], m.shape[0]), dtype=complex)
        q, _ = np.linalg.qr(m)
        return q @ q.conj().T

    return float(np.linalg.norm(proj(a) - proj(b), 2))
