"""Quantum channels in Kraus form, superoperators, and classical stochastic maps.

Operators are plain complex ``numpy`` arrays.  A channel is a list of Kraus
operators ``K_i`` acting as ``X -> sum_i K_i X K_i^dag``; complete positivity
is automatic in this representation and trace preservation is a checkable
flag rather than an assumption, so trace-decreasing intermediates (restrictions
to subspaces, adjoints of non-unital maps) share the same type.

Vectorization convention
------------------------
Operators are vectorized by **column stacking** (Fortran order), so that

    vec(A X B) = (B^T kron A) vec(X)

and the superoperator of ``X -> sum_i K_i X K_i^dag`` is
``sum_i conj(K_i) kron K_i``.  The convention lives entirely in :func:`vec`,
:func:`unvec`, :func:`to_superoperator` and the Hermitian coordinates below;
no other module builds vectorized indices by hand.

Hermitian coordinates use the orthonormal basis ``E_ii``,
``(E_ij + E_ji)/sqrt(2)`` and ``i(E_ij - E_ji)/sqrt(2)`` (``i < j``), labelled
by the vectorized index of ``(i, i)``, ``(i, j)`` and ``(j, i)``.  Column ``c``
of this unitary ``U`` is ``alpha_c e_c + conj(alpha_c) e_swap(c)``, with
``swap(c)`` the index of the transposed entry, so a change of basis is index
arithmetic.  A Hermiticity-preserving map (``E(X)^dag = E(X^dag)``, as is
every map in Kraus form) has a real matrix ``U^dag M U`` there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .tolerances import DEFAULT_TOL, PROJECTOR, RANK_REL, STOCHASTIC, ToleranceConfig

__all__ = [
    "QuantumChannel",
    "Superoperator",
    "StochasticChannel",
    "CptpReport",
    "vec",
    "unvec",
    "hermitian_coordinates",
    "from_hermitian_coordinates",
    "channel_from_kraus",
    "to_superoperator",
    "apply_channel",
    "apply_superoperator",
    "adjoint",
    "compose",
    "is_cptp",
    "is_unital",
    "choi_matrix",
    "restrict_to_subspace",
    "embed_classical",
    "is_hermitian",
    "is_positive_semidefinite",
    "is_projector",
    "projector_onto_support",
    "orthonormal_range_basis",
]


# ---------------------------------------------------------------------------
# vectorization (the only place the stacking convention appears)
# ---------------------------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack an operator into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` operator."""
    return np.asarray(v).reshape((rows, cols), order="F")


@lru_cache(maxsize=16)
def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, swap)`` of the Hermitian basis of ``d x d`` operators; cached
    and read-only, because each spectral split reads them several times."""
    idx = np.arange(d * d)
    row, col = idx % d, idx // d
    alpha = np.where(row == col, 0.5, np.where(row < col, 1.0, -1j) / np.sqrt(2.0))
    swap = col + row * d
    alpha.setflags(write=False)
    swap.setflags(write=False)
    return alpha, swap


def hermitian_coordinates(m: np.ndarray, d: int,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The real matrix ``U^dag M U`` of a complex superoperator matrix ``m`` on
    ``d x d`` operators, in Fortran order so that LAPACK can overwrite it in
    place.  The change of basis runs in place, so ``m`` is overwritten.

    Raises:
        ValidationError: if the map is not Hermiticity preserving, i.e. the
            matrix has an imaginary part above ``tol.equality``.
    """
    alpha, swap = _hermitian_basis(d)
    # columns: (M U)[:, c] = alpha_c M[:, c] + conj(alpha_c) M[:, swap(c)]
    pair = m[:, swap]
    pair *= alpha.conj()
    m *= alpha
    m += pair
    del pair
    # rows: (U^dag W)[r] = conj(alpha_r) W[r] + alpha_r W[swap(r)]
    pair = m[swap]
    pair *= alpha[:, None]
    m *= alpha.conj()[:, None]
    m += pair
    del pair
    leak = float(np.max(np.abs(m.imag)))
    if leak > tol.equality:
        raise ValidationError(
            f"map is not Hermiticity preserving (imaginary part {leak:.3e} "
            "in Hermitian coordinates)"
        )
    return np.asfortranarray(m.real)


def from_hermitian_coordinates(z: np.ndarray, d: int) -> np.ndarray:
    """Vectorized operators ``U z`` of real coordinate columns ``z``."""
    alpha, swap = _hermitian_basis(d)
    return alpha[:, None] * z + alpha.conj()[swap][:, None] * z[swap]


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive map given by Kraus operators.

    ``trace_preserving`` records whether ``sum K_i^dag K_i = 1`` held at
    construction time; maps produced by :func:`adjoint` or
    :func:`restrict_to_subspace` may legitimately carry ``False``.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int
    trace_preserving: bool = True

    def __post_init__(self):
        if not self.kraus:
            raise ValidationError("channel needs at least one Kraus operator")
        for k in self.kraus:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )

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
    completely_positive: bool
    unital: bool
    tp_residual: float
    choi_min_eigenvalue: float
    unital_residual: float

    @property
    def cptp(self) -> bool:
        return self.trace_preserving and self.completely_positive


# ---------------------------------------------------------------------------
# predicates on operators
# ---------------------------------------------------------------------------

def is_hermitian(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol.equality)


def is_positive_semidefinite(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return bool(w.min() >= -tol.equality)


def is_projector(p: np.ndarray) -> bool:
    herm = np.max(np.abs(p - p.conj().T)) <= PROJECTOR
    idem = np.max(np.abs(p @ p - p)) <= PROJECTOR
    return bool(herm and idem)


def projector_onto_support(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support of a Hermitian PSD matrix.

    Eigenvalues below ``RANK_REL`` times the largest one count as zero.
    """
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    top = np.max(np.abs(w)) if w.size else 0.0
    if top == 0.0:
        return np.zeros_like(h)
    keep = w > RANK_REL * top
    vk = v[:, keep]
    return vk @ vk.conj().T


def orthonormal_range_basis(p: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of ``range(p)`` for a projector ``p``."""
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    keep = w > 0.5
    order = np.argsort(-w[keep])
    return v[:, keep][:, order]


# ---------------------------------------------------------------------------
# construction and representation changes
# ---------------------------------------------------------------------------

def channel_from_kraus(
    kraus: Sequence[np.ndarray] | Iterable[np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> QuantumChannel:
    """Build a channel from Kraus operators, recording trace preservation."""
    ks = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not ks:
        raise ValidationError("empty Kraus list")
    if any(k.ndim != 2 for k in ks):
        raise ValidationError("Kraus operators must be matrices")
    d_out, d_in = ks[0].shape
    if any(k.shape != (d_out, d_in) for k in ks):
        raise ValidationError("Kraus operators have inconsistent shapes")
    if not all(np.all(np.isfinite(k)) for k in ks):
        raise ValidationError("Kraus operators have non-finite entries")
    acc = sum(k.conj().T @ k for k in ks)
    tp = bool(np.max(np.abs(acc - np.eye(d_in))) <= tol.equality)
    return QuantumChannel(kraus=ks, dim_in=d_in, dim_out=d_out, trace_preserving=tp)


def to_superoperator(ch: QuantumChannel) -> Superoperator:
    """Column-stacking superoperator matrix ``sum_i conj(K_i) kron K_i``."""
    ks = np.stack(ch.kraus).reshape(len(ch.kraus), -1)
    # index layout: row (b*dim_out + a), col (d*dim_in + c) holds
    # sum_i conj(K_i[b, d]) K_i[a, c]; one GEMM yields it at [(b, d), (a, c)]
    m = (ks.conj().T @ ks).reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    return Superoperator(
        dim_in=ch.dim_in,
        dim_out=ch.dim_out,
        matrix=m.transpose(0, 2, 1, 3).reshape(ch.dim_out**2, ch.dim_in**2),
    )


def apply_channel(ch: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Apply ``sum_i K_i X K_i^dag`` to an operator."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim_in, ch.dim_in):
        raise ValidationError(f"operand shape {x.shape} != ({ch.dim_in}, {ch.dim_in})")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ x @ k.conj().T
    return out


def apply_superoperator(s: Superoperator, x: np.ndarray) -> np.ndarray:
    return unvec(s.matrix @ vec(x), s.dim_out, s.dim_out)


def adjoint(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """Hilbert-Schmidt adjoint ``Y -> sum_i K_i^dag Y K_i``.

    The adjoint of a trace-preserving map is unital but generally not trace
    preserving; the returned channel's flag reflects an explicit check.
    """
    return channel_from_kraus([k.conj().T for k in ch.kraus], tol=tol)


def compose(after: QuantumChannel, before: QuantumChannel,
            tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """Composition ``after o before`` with Kraus products ``A_i B_j``."""
    if after.dim_in != before.dim_out:
        raise ValidationError(
            f"cannot compose: after.dim_in={after.dim_in} != before.dim_out={before.dim_out}"
        )
    ks = [a @ b for a in after.kraus for b in before.kraus]
    return channel_from_kraus(ks, tol=tol)


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` (PSD iff the map is CP)."""
    d = ch.dim_in * ch.dim_out
    j = np.zeros((d, d), dtype=complex)
    for k in ch.kraus:
        v = vec(k)
        j += np.outer(v, v.conj())
    return j


def is_cptp(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> CptpReport:
    """Report trace preservation, complete positivity and unitality.

    In Kraus form complete positivity holds by construction; the Choi minimum
    eigenvalue is still reported so that channels assembled from superoperator
    arithmetic elsewhere can reuse the same report shape.
    """
    acc_tp = sum(k.conj().T @ k for k in ch.kraus)
    tp_residual = float(np.max(np.abs(acc_tp - np.eye(ch.dim_in))))
    acc_un = sum(k @ k.conj().T for k in ch.kraus)
    unital_residual = float(np.max(np.abs(acc_un - np.eye(ch.dim_out))))
    choi_min = float(np.linalg.eigvalsh(choi_matrix(ch)).min())
    return CptpReport(
        trace_preserving=tp_residual <= tol.equality,
        completely_positive=choi_min >= -tol.equality,
        unital=unital_residual <= tol.equality,
        tp_residual=tp_residual,
        choi_min_eigenvalue=choi_min,
        unital_residual=unital_residual,
    )


def is_unital(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    acc = sum(k @ k.conj().T for k in ch.kraus)
    return bool(np.max(np.abs(acc - np.eye(ch.dim_out))) <= tol.equality)


# ---------------------------------------------------------------------------
# subspace restriction and classical embedding
# ---------------------------------------------------------------------------

def restrict_to_subspace(
    ch: QuantumChannel,
    projector: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[QuantumChannel, np.ndarray]:
    """Compress a square channel to a subspace: Kraus ``P K_i P``.

    Returns the compressed channel expressed in an orthonormal basis of
    ``range(projector)`` together with the basis isometry ``V`` (columns span
    the subspace, so ambient operators are recovered as ``V A V^dag``).  The
    result is trace preserving exactly when the subspace is invariant.

    Raises:
        ValidationError: if ``projector`` is not an orthogonal projector or
            the channel is not square.
    """
    if not ch.is_square:
        raise ValidationError("subspace restriction requires a square channel")
    p = np.asarray(projector, dtype=complex)
    if p.shape != (ch.dim_in, ch.dim_in):
        raise ValidationError(f"projector shape {p.shape} != channel dimension {ch.dim_in}")
    if not is_projector(p):
        raise ValidationError("matrix is not an orthogonal projector within tolerance")
    v = orthonormal_range_basis(p)
    if v.shape[1] == 0:
        raise ValidationError("projector has zero rank")
    ks = [v.conj().T @ k @ v for k in ch.kraus]
    return channel_from_kraus(ks, tol=tol), v


def embed_classical(sc: StochasticChannel) -> QuantumChannel:
    """Quantum channel that dephases in the computational basis and then
    applies the stochastic map to the resulting diagonal.

    Kraus operators are ``sqrt(M[k, i]) |k><i|`` for every nonzero entry,
    which is trace preserving because columns of ``M`` sum to one.
    """
    m = sc.matrix
    ks = []
    for k in range(sc.n_out):
        for i in range(sc.n_in):
            if m[k, i] > 0.0:
                op = np.zeros((sc.n_out, sc.n_in), dtype=complex)
                op[k, i] = np.sqrt(m[k, i])
                ks.append(op)
    return channel_from_kraus(ks)
