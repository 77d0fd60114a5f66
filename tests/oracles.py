"""Operator predicates and channel views that no package code calls.

The tests use them as independent oracles; the package keeps only what its
analyses need.
"""

from __future__ import annotations

import numpy as np

from ipstruct import (DEFAULT_TOL, Graph, QuantumChannel, StochasticChannel, ToleranceConfig,
                      ValidationError, channel_from_kraus)
from ipstruct.channels import is_projector
from ipstruct.tolerances import OVERLAP_EPS


def is_hermitian(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol.equality)


def is_positive_semidefinite(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return bool(w.min() >= -tol.equality)


def orthonormal_range_basis(p: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of ``range(p)`` for a projector ``p``."""
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    keep = w > 0.5
    order = np.argsort(-w[keep])
    return v[:, keep][:, order]


def pairwise_adjacency_graph(sc: StochasticChannel) -> Graph:
    """Confusability graph by one overlap test per input pair: an edge joins
    ``i < j`` when some output has probability above ``OVERLAP_EPS`` from both."""
    m = sc.matrix
    edges = []
    for i in range(sc.n_in):
        for j in range(i + 1, sc.n_in):
            if np.any((m[:, i] > OVERLAP_EPS) & (m[:, j] > OVERLAP_EPS)):
                edges.append((i, j))
    return Graph.from_edges(sc.n_in, edges)


def adjoint(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """Hilbert-Schmidt adjoint ``Y -> sum_i K_i^dag Y K_i``.

    The adjoint of a trace-preserving map is unital but generally not trace
    preserving; the returned channel's flag reflects an explicit check.
    """
    return channel_from_kraus([k.conj().T for k in ch.kraus], tol=tol)


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
