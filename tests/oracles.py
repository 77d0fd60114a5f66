"""Operator predicates, channel views and reference computations that no
package code calls.

The tests use them as independent oracles; the package keeps only what its
analyses need.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.stats import unitary_group

from ipstruct import (DEFAULT_TOL, AlgebraDecomposition, Graph, QuantumChannel,
                      StochasticChannel, Superoperator, ToleranceConfig, ValidationError,
                      apply_channel, channel_from_kraus, to_superoperator)
from ipstruct.algebra import _matrix_units
from ipstruct.channels import is_projector
from ipstruct.spectral import OperatorSpace, SpectralSpace
from ipstruct.tolerances import OVERLAP_EPS


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), "nuc"))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack an operator into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of ``vec`` for a ``rows x cols`` operator."""
    return np.asarray(v).reshape((rows, cols), order="F")


def apply_superoperator(s: Superoperator, x: np.ndarray) -> np.ndarray:
    """``S vec(x)`` read back as an operator: the dense action of a superoperator."""
    return unvec(s.matrix @ vec(x), s.dim_out, s.dim_out)


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


def adjoint(ch: QuantumChannel) -> QuantumChannel:
    """Hilbert-Schmidt adjoint ``Y -> sum_i K_i^dag Y K_i``.

    The adjoint of a trace-preserving map is unital but generally not trace
    preserving.
    """
    return channel_from_kraus([k.conj().T for k in ch.kraus])


def restrict_to_subspace(ch: QuantumChannel,
                         projector: np.ndarray) -> tuple[QuantumChannel, np.ndarray]:
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
    return channel_from_kraus(ks), v


def choi_matrix(ch: QuantumChannel) -> np.ndarray:
    """Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` (PSD iff the map is CP)."""
    d = ch.dim_in * ch.dim_out
    j = np.zeros((d, d), dtype=complex)
    for k in ch.kraus:
        v = vec(k)
        j += np.outer(v, v.conj())
    return j


def is_unital(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    acc = sum(k @ k.conj().T for k in ch.kraus)
    return bool(np.max(np.abs(acc - np.eye(ch.dim_out))) <= tol.equality)


def helstrom_probability(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Optimal success probability for discriminating ``rho`` (prior ``p``)
    from ``sigma`` (prior ``1-p``) with a single measurement."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"prior must lie in [0, 1], got {p}")
    return 0.5 * (1.0 + trace_norm(p * np.asarray(rho) - (1.0 - p) * np.asarray(sigma)))


def hermitian_basis(d: int) -> np.ndarray:
    """The dense unitary ``U = alpha 1 + conj(alpha) F`` of Hermitian coordinates on
    ``d x d`` operators, ``alpha = (1 - i) / 2`` and ``F`` the permutation
    ``vec(X) -> vec(X^T)``: its columns are the column-stacked basis operators ``E_aa``
    and ``((1 - i) E_ab + (1 + i) E_ba) / 2``, labelled by the vectorized index of ``(a, b)``."""
    swap = np.arange(d * d).reshape(d, d).T.ravel()
    alpha = (1 - 1j) / 2
    return alpha * np.eye(d * d) + np.conj(alpha) * np.eye(d * d)[swap]


def hermitian_coordinates(m: np.ndarray, d: int) -> np.ndarray:
    """The real matrix ``U^dag M U`` of the superoperator matrix ``m`` of a map in Kraus
    form on ``d x d`` operators, by the dense change of basis ``U = hermitian_basis(d)``:
    the reference for ``spectral._coordinates``."""
    u = hermitian_basis(d)
    return (u.conj().T @ m @ u).real


def schur_split(ch: QuantumChannel, select) -> tuple[SpectralSpace, float, float]:
    """The spectral split of a square channel by one ordered real Schur form,
    whatever the symmetry of its matrix; the reference for ``spectral._split``.

    In Hermitian coordinates ``M_r = Z T Z^T`` with the eigenvalues that
    ``select(re, im)`` accepts in the leading block ``T11``.  The coupling
    ``X`` solves ``T11 X - X T22 = T12``; ``Z1`` spans the right space and
    ``Z1 + Z2 X^T`` the left one.  Returns the space, the gap
    ``1 - max |lambda|`` over the eigenvalues of ``T22`` (``inf`` if ``T22``
    is empty) and the pairing condition ``sqrt(1 + ||X||_2^2)``.
    """
    d = ch.dim_in
    m_r = hermitian_coordinates(to_superoperator(ch).matrix, d)
    t, z, k = scipy.linalg.schur(m_r, output="real", sort=select)
    n = t.shape[0]
    x = np.zeros((k, n - k))
    if 0 < k < n:
        x, scale, info = scipy.linalg.lapack.dtrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        assert info == 0
        x = x / scale
    left = z[:, :k] + z[:, k:] @ x.T
    u = hermitian_basis(d)

    def ops(coordinates):  # the operators U z, unstacked from their columns
        return (u @ coordinates).T.reshape(-1, d, d).transpose(0, 2, 1)

    space = SpectralSpace(
        dim=d, basis=ops(z[:, :k]), dual=OperatorSpace(dim=d, basis=ops(np.linalg.qr(left)[0])),
        left=ops(left),
    )
    interior = np.abs(scipy.linalg.eigvals(t[k:, k:]))
    gap = 1.0 - float(interior.max()) if interior.size else math.inf
    return space, gap, float(np.sqrt(1.0 + np.linalg.norm(x, 2) ** 2))


def superoperator_eigenspace(ch: QuantumChannel, select) -> np.ndarray:
    """Vectorized operators (columns) spanning the eigenvectors of the complex
    superoperator whose eigenvalues ``select(re, im)`` accepts, from one ordered
    complex Schur form: no Hermitian coordinates, so no basis of them, is read.
    The span is the eigenspace when those eigenvalues are semisimple."""
    _, z, k = scipy.linalg.schur(to_superoperator(ch).matrix, output="complex",
                                 sort=lambda w: select(w.real, w.imag))
    return z[:, :k]


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


def unit_span_distance(space: OperatorSpace, dec: AlgebraDecomposition) -> float:
    """``||B - (B A^dag) A||_2`` for the basis ``B`` of a span and the matrix
    units ``A`` of a decomposition scaled by ``1/sqrt(n)``; 1.0 when their
    counts differ.

    With orthonormal units this is the sine of the largest principal angle
    between the two spans; ``verify_decomposition``'s Frobenius distance
    bounds it from above.
    """
    a = np.concatenate([_matrix_units(s, np.eye(s.n)) / np.sqrt(s.n) for s in dec.sectors])
    a = a.reshape(len(a), -1)
    b = space.basis.reshape(space.size, -1)
    if len(a) != len(b):
        return 1.0
    return float(np.linalg.norm(b - (b @ a.conj().T) @ a, 2))


def dense_rotation_certificate(structure, ch: QuantumChannel) -> dict[str, float]:
    """The unitarily-noiseless certificate of a structure under ``ch``, by dense
    products over the flattened orthonormal units ``u_i = V_k (E_ab (x) tau_k)
    V_k^dag / ||tau_k||_F``.

    ``span_leak`` is ``(sum_i ||E(u_i) - sum_j <u_j, E(u_i)> u_j||_F^2)^(1/2)`` and
    ``gram_change`` is ``||C^dag C - 1||_F`` for the matrix ``C`` of ``E`` on the
    unscaled units ``V_k (E_ab (x) tau_k) V_k^dag``.  The package reads both in
    sector coordinates instead, without the ``k^2 d^2`` products.
    """
    sectors, taus = structure.algebra.sectors, structure.distortion_states
    units = np.concatenate([_matrix_units(s, t / np.linalg.norm(t))
                            for s, t in zip(sectors, taus)])
    flat = units.reshape(len(units), -1)
    image = apply_channel(ch, units).reshape(flat.shape)
    coeff = (image.conj() @ flat.T).conj()  # <u_j, E(u_i)>
    scale = np.repeat([np.linalg.norm(t) for t in taus], [s.d ** 2 for s in sectors])
    c = coeff * (scale[:, None] / scale)
    return {"span_leak": float(np.linalg.norm(image - coeff @ flat)),
            "gram_change": float(np.linalg.norm(c.conj().T @ c - np.eye(len(units))))}


def inverse_certificate(m_r: np.ndarray, r: np.ndarray, l: np.ndarray) -> float:
    """``1 / ||(M - 1 + R L^T)^-1||_F`` for bases ``R``, ``L`` of the right and left
    ``lambda = 1`` cluster of a real matrix ``M`` with ``L^T R = 1``; 0 when the
    matrix is singular.

    It bounds the least singular value of ``M - 1 + R L^T`` from below, and with
    it the distance from 1 of every eigenvalue of ``M`` off the cluster.  The
    package computes it only when the Cholesky factorization of the fixed
    points' field-of-values test fails (see :func:`numerical_abscissa`): for
    the peripheral split the squarings of ``M - R L^T`` prove that distance at
    least ``SPECTRAL_GAP``.
    """
    try:
        inverse = np.linalg.inv(m_r - np.eye(len(m_r)) + r @ l.T)
    except np.linalg.LinAlgError:
        return 0.0
    return 1.0 / float(np.linalg.norm(inverse))


def numerical_abscissa(m_r: np.ndarray, r: np.ndarray, l: np.ndarray) -> float:
    """``lambda_max((X + X^T) / 2)`` for ``X = M - R L^T``, from a dense symmetric
    eigensolve: the largest real part over the field of values of ``X``, so at
    least the real part of every eigenvalue of ``M`` off the ``lambda = 1`` cluster.
    The package proves it below ``1 - PERIPHERAL`` by one Cholesky factorization.
    """
    x = m_r - r @ l.T
    return float(np.linalg.eigvalsh((x + x.T) / 2.0)[-1])


def collective_noise(n: int, seed: int) -> QuantumChannel:
    """Collective noise on ``n`` qubits: the Kraus operators ``U_i^{(x)n} / sqrt(3)``
    of three seeded Haar-random SU(2) elements ``U_i``.  The map is unital and not
    self-adjoint, and its fixed algebra is the commutant of all collective rotations."""
    rng = np.random.default_rng(seed)
    ks = []
    for _ in range(3):
        u = unitary_group.rvs(2, random_state=rng)
        u = u / np.sqrt(np.linalg.det(u))
        k = np.ones((1, 1))
        for _ in range(n):
            k = np.kron(k, u)
        ks.append(k / np.sqrt(3.0))
    return channel_from_kraus(ks)


def schur_weyl_sectors(n: int) -> list[tuple[int, int]]:
    """The fixed algebra of :func:`collective_noise` on ``n`` qubits by Schur-Weyl
    duality, as the sorted ``(d_k, n_k)`` of its sectors ``M_{d_k} (x) 1_{n_k}``: one
    per total spin ``j``, with ``d_k = C(n, n/2 - j) - C(n, n/2 - j - 1)`` (the
    multiplicity of spin ``j``) and ``n_k = 2j + 1``.  With ``m = n/2 - j`` running
    over ``0 .. n // 2``, ``C(n, -1) = 0``."""
    return sorted((math.comb(n, m) - (math.comb(n, m - 1) if m else 0), n - 2 * m + 1)
                  for m in range(n // 2 + 1))
