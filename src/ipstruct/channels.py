"""Quantum channels in Kraus form, superoperators, and classical stochastic maps.

Operators are plain complex ``numpy`` arrays.  A channel holds its Kraus
operators ``K_i`` as one complex ``(r, dim_out, dim_in)`` stack, acting as
``X -> sum_i K_i X K_i^dag``; complete positivity is automatic in this
representation.  :func:`_operator_stack` stacks and checks these and a code's
states; the constructors take the stack alone.  Trace preservation is not
assumed: :func:`is_cptp` reports it, so trace-decreasing maps (a transpose
recovery on part of the space) share the same type.

Vectorization convention
------------------------
Operators are vectorized by **column stacking** (Fortran order), so that

    vec(A X B) = (B^T kron A) vec(X)

and the superoperator of ``X -> sum_i K_i X K_i^dag`` is
``sum_i conj(K_i) kron K_i``.  The convention lives in :func:`to_superoperator`
and in the Hermitian coordinates of :mod:`ipstruct.spectral`; no other module
builds vectorized indices by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericalError, ValidationError
from .tolerances import DEFAULT_TOL, PROJECTOR, RANK_REL, STOCHASTIC, ToleranceConfig

__all__ = [
    "QuantumChannel",
    "Superoperator",
    "StochasticChannel",
    "CptpReport",
    "channel_from_kraus",
    "to_superoperator",
    "apply_channel",
    "compose",
    "is_cptp",
    "embed_classical",
    "is_projector",
    "projector_onto_support",
]


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive map given by Kraus operators.

    It need not be trace preserving: a transpose recovery on part of the
    space is trace decreasing.  :func:`is_cptp` reports how far
    ``sum K_i^dag K_i`` is from the identity.  ``kraus`` becomes the complex
    ``(r, dim_out, dim_in)`` stack of :func:`_operator_stack`, read for both dims.
    """

    kraus: np.ndarray
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kraus", _operator_stack(self.kraus, "Kraus operator"))
        object.__setattr__(self, "dim_out", self.kraus.shape[1])
        object.__setattr__(self, "dim_in", self.kraus.shape[2])

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out


@dataclass(frozen=True)
class Superoperator:
    """Matrix representation of a linear map on column-stacked operators."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        expected = (self.dim_out**2, self.dim_in**2)
        if self.matrix.shape != expected:
            raise ValidationError(
                f"superoperator matrix shape {self.matrix.shape} != {expected}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("superoperator matrix has non-finite entries")


@dataclass(frozen=True)
class StochasticChannel:
    """Column-stochastic matrix acting on classical probability vectors."""

    matrix: np.ndarray
    n_in: int = field(init=False)
    n_out: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise ValidationError("stochastic matrix must be 2-dimensional")
        if 0 in m.shape:
            raise ValidationError(f"stochastic matrix of shape {m.shape} has no entries")
        object.__setattr__(self, "n_out", m.shape[0])
        object.__setattr__(self, "n_in", m.shape[1])
        if not np.all(np.isfinite(m)):
            raise ValidationError("stochastic matrix has non-finite entries")
        if np.any(m < -STOCHASTIC):
            raise ValidationError("stochastic matrix has negative entries")
        col_sums = m.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > STOCHASTIC:
            raise ValidationError(
                f"columns must sum to 1 (worst deviation {np.max(np.abs(col_sums - 1.0)):.3e})"
            )


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics from :func:`is_cptp`."""

    trace_preserving: bool
    tp_residual: float


# ---------------------------------------------------------------------------
# predicates on operators
# ---------------------------------------------------------------------------

def is_projector(p: np.ndarray) -> bool:
    herm = np.max(np.abs(p - p.conj().T)) <= PROJECTOR
    idem = np.max(np.abs(p @ p - p)) <= PROJECTOR
    return bool(herm and idem)


def _psd_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` and orthonormal eigenvectors ``v`` (columns) spanning
    the support of a Hermitian PSD matrix, largest eigenvalue first.

    The one rank cut of a PSD operator: ``eigh`` of ``(a + a^dag)/2``, keeping
    the eigenvalues above ``RANK_REL`` times the largest modulus.  The zero
    matrix has an empty support; a non-finite one raises :class:`NumericalError`.
    """
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"operator of shape {a.shape} has non-finite entries")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = w > RANK_REL * np.max(np.abs(w), initial=0.0)
    return w[keep][::-1], v[:, keep][:, ::-1]


def projector_onto_support(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support of a Hermitian PSD matrix.

    Eigenvalues below ``RANK_REL`` times the largest one count as zero.
    """
    v = _psd_support(a)[1]
    return v @ v.conj().T


# ---------------------------------------------------------------------------
# construction and representation changes
# ---------------------------------------------------------------------------

def _operator_stack(ops: np.ndarray | Iterable[np.ndarray], noun: str) -> np.ndarray:
    """The complex C-order ``(k, rows, cols)`` stack of operators given in any container and
    layout; a complex C-order stack is kept as given.  No operators, non-matrices, mixed or
    zero-size shapes and non-finite entries raise :class:`ValidationError` naming ``noun``."""
    if not isinstance(ops, np.ndarray):
        ops = [np.asarray(x) for x in ops]
        for i, x in enumerate(ops):
            if x.ndim != 2:
                raise ValidationError(f"{noun}s must be matrices")
            if x.shape != ops[0].shape:
                raise ValidationError(f"{noun} {i} has shape {x.shape}, expected {ops[0].shape}")
    elif ops.ndim != 3:
        raise ValidationError(f"{noun}s must be matrices")
    if len(ops) == 0:
        raise ValidationError(f"no {noun}s given")
    ks = np.asarray(ops, dtype=complex, order="C")
    if ks[0].size == 0:
        raise ValidationError(f"{noun}s of shape {ks.shape[1:]} have no entries")
    finite = np.isfinite(ks).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(f"{noun} {int(np.argmin(finite))} has non-finite entries")
    return ks


def channel_from_kraus(kraus: np.ndarray | Iterable[np.ndarray]) -> QuantumChannel:
    """``QuantumChannel(kraus)``, the channel of a set of Kraus operators."""
    return QuantumChannel(kraus)


def to_superoperator(ch: QuantumChannel) -> Superoperator:
    """Column-stacking superoperator matrix ``sum_i conj(K_i) kron K_i``."""
    d_in, d_out, ks = ch.dim_in, ch.dim_out, ch.kraus
    # row (b*d_out + a), col (d*d_in + c) holds sum_i conj(K_i[b, d]) K_i[a, c]: one
    # batched product over (b, a) of (d, i) by (i, c) blocks, written once into the result
    m = np.empty((d_out, d_out, d_in, d_in), dtype=complex)
    np.matmul(ks.conj().transpose(1, 2, 0)[:, None], ks.transpose(1, 0, 2)[None], out=m)
    return Superoperator(dim_in=d_in, dim_out=d_out, matrix=m.reshape(d_out**2, d_in**2))


def apply_channel(ch: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Apply ``sum_i K_i X K_i^dag`` to an operator or an ``(m, d, d)`` stack of them."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (ch.dim_in, ch.dim_in) or x.ndim not in (2, 3):
        raise ValidationError(f"operand shape {x.shape} != ([m,] {ch.dim_in}, {ch.dim_in})")
    out = np.zeros(x.shape[:-2] + (ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ x @ k.conj().T
    return out


def compose(after: QuantumChannel, before: QuantumChannel) -> QuantumChannel:
    """Composition ``after o before`` with Kraus products ``A_i B_j``."""
    if after.dim_in != before.dim_out:
        raise ValidationError(
            f"cannot compose: after.dim_in={after.dim_in} != before.dim_out={before.dim_out}"
        )
    ks = after.kraus[:, None] @ before.kraus  # (after, before) order
    return channel_from_kraus(ks.reshape(-1, after.dim_out, before.dim_in))


def is_cptp(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> CptpReport:
    """Report trace preservation: ``max |sum_i K_i^dag K_i - 1|`` against ``tol.equality``.

    A map in Kraus form is completely positive by construction, so only trace
    preservation is checked.
    """
    k = ch.kraus.reshape(-1, ch.dim_in)  # the stacked rows: sum_i K_i^dag K_i is one product
    tp_residual = float(np.max(np.abs(k.conj().T @ k - np.eye(ch.dim_in))))
    return CptpReport(trace_preserving=tp_residual <= tol.equality, tp_residual=tp_residual)


# ---------------------------------------------------------------------------
# classical embedding
# ---------------------------------------------------------------------------

def embed_classical(sc: StochasticChannel) -> QuantumChannel:
    """Quantum channel that dephases in the computational basis and then
    applies the stochastic map to the resulting diagonal.

    Kraus operators are ``sqrt(M[k, i]) |k><i|`` for every nonzero entry,
    which is trace preserving because columns of ``M`` sum to one.
    """
    k, i = np.nonzero(sc.matrix > 0.0)  # row-major order
    ks = np.zeros((len(k), sc.n_out, sc.n_in), dtype=complex)
    ks[np.arange(len(k)), k, i] = np.sqrt(sc.matrix[k, i])
    return channel_from_kraus(ks)
