"""Matrix *-algebras: recognition, commutants, and canonical decomposition.

A finite-dimensional *-algebra of operators is unitarily equivalent to a
direct sum of full matrix factors with multiplicity,

    A  ~=  sum_k  M_{d_k} (x) 1_{n_k} ,

and this module recovers that shape numerically by the eigenspace grouping
of Murota, Kanno, Kojima and Kojima (Japan J. Indust. Appl. Math., 2010).
The strategy is randomized but seed-deterministic: one generic element is
drawn per attempt.  Its Hermitian part reads ``sum_k h_k (x) 1_{n_k}``, so its
eigenvalues fall into ``d_k`` clusters of ``n_k`` in each sector: the factor
rows.  The element couples two clusters exactly when they lie in one sector, so
the connected clusters are the sectors, and its coupling blocks transport the
first row of a sector onto the others, fixing the tensor alignment.

No separate closure check runs.  The span of the sector matrix units is a
*-algebra by construction, so the decomposition certifies itself: a span that
is not a *-algebra fails a count or :func:`verify_decomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import DecompositionError, NumericalError, ValidationError
from .spectral import OperatorSpace, _is_orthonormal, operator_space_from_span
from .tolerances import (CLUSTER_REL, DEFAULT_TOL, RANK_REL, SECTOR_TIE_DIGITS, TRANSPORT_FLOOR,
                         TRANSPORT_REL, ToleranceConfig)

__all__ = [
    "Sector",
    "AlgebraDecomposition",
    "canonical_decompose",
    "verify_decomposition",
]

# fresh draws of the generic element before a decomposition fails
DECOMPOSE_ATTEMPTS = 3


@dataclass(frozen=True)
class Sector:
    """One factor ``M_d (x) 1_n`` of an algebra.

    ``isometry`` has shape ``(ambient_dim, d * n)``; its columns are ordered
    factor-major, so algebra elements are ``isometry @ kron(M, eye(n)) @
    isometry^dag``.
    """

    d: int
    n: int
    isometry: np.ndarray


@dataclass(frozen=True)
class AlgebraDecomposition:
    """The sectors of an algebra, larger factors first, and the projector onto
    their joint support.  ``residuals`` holds the :func:`verify_decomposition`
    report, read on the span compressed onto that support, and
    ``algebra_closure``, its ``reconstruction_distance``: how far the span lies
    outside the span of the sector matrix units, closed by construction."""

    ambient_dim: int
    sectors: tuple[Sector, ...]
    support_projector: np.ndarray
    residuals: Mapping[str, float] = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.d for s in self.sectors)

    @property
    def cofactors(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.sectors)

    @property
    def algebra_dim(self) -> int:
        return sum(s.d * s.d for s in self.sectors)

    def support_rank(self) -> int:
        return sum(s.d * s.n for s in self.sectors)

    def element(self, blocks) -> np.ndarray:
        """Assemble the algebra element with factor blocks ``blocks[k]``."""
        if len(blocks) != len(self.sectors):
            raise ValidationError(f"{len(blocks)} blocks for {len(self.sectors)} sectors")
        return sum((_embed(s.isometry, m, np.eye(s.n)) for s, m in zip(self.sectors, blocks)),
                   np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex))


def _embed(v: np.ndarray, x, y) -> np.ndarray:
    """``V (x (x) y) V^dag`` for a sector isometry ``V`` and factor/cofactor
    operators ``x`` and ``y``."""
    return v @ np.kron(np.asarray(x, dtype=complex), y) @ v.conj().T


# ---------------------------------------------------------------------------
# reference checks, not exported: the decomposition below certifies itself
# without them, and no package code calls them.  They stay only while
# BENCHMARK.json lists metrics under their names.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraCheck:
    """Result of :func:`is_algebra`; truthiness follows ``closed``."""

    closed: bool
    worst_residual: float
    worst_pair: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.closed


def is_algebra(space: OperatorSpace, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraCheck:
    """Check closure of a span under products and adjoints.

    Every pairwise product of basis elements (and every adjoint) is projected
    back onto the span; the certificate carries the worst projection residual
    and the offending pair.  Pair ``(i, -1)`` denotes the adjoint of basis
    element ``i``.  This costs ``k^3 r^2`` flops; :func:`canonical_decompose`
    does not call it.
    """
    if space.size == 0:
        return AlgebraCheck(closed=True, worst_residual=0.0, worst_pair=None)
    basis = space.basis
    if not _is_orthonormal(basis):
        raise NumericalError("operator space basis is not orthonormal")
    flat = basis.reshape(len(basis), -1)

    def residuals(ops: np.ndarray) -> np.ndarray:
        v = ops.reshape(flat.shape)
        return np.linalg.norm(v - (v @ flat.conj().T) @ flat, axis=1)

    # column 0: adjoint of b_i; column j + 1: product b_i b_j
    res = np.column_stack([residuals(basis.conj().transpose(0, 2, 1))]
                          + [residuals(basis @ b) for b in basis])
    i, j = np.unravel_index(np.argmax(res), res.shape)
    worst = float(res[i, j])
    return AlgebraCheck(closed=worst <= tol.subspace, worst_residual=worst,
                        worst_pair=(int(i), int(j) - 1) if worst > 0 else None)


def commutant(space: OperatorSpace, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSpace:
    """All operators (on the same ambient space) commuting with every basis
    element, found as the joint null space of the stacked commutator maps."""
    d = space.dim
    if space.size == 0:
        return operator_space_from_span(np.eye(d * d, dtype=complex), d)
    eye = np.eye(d)
    # vec([B, X]) = (1 kron B - B^T kron 1) vec(X) in column stacking, one block per B
    stacked = np.kron(eye, space.basis)
    stacked -= np.kron(space.basis.transpose(0, 2, 1), eye)
    _, s, vh = np.linalg.svd(stacked.reshape(-1, d * d), full_matrices=False)
    cut = max(tol.subspace, s[0] * RANK_REL)
    null_dim = int(np.sum(s <= cut))
    basis = vh[len(vh) - null_dim:].conj().T
    return operator_space_from_span(basis, d)


# ---------------------------------------------------------------------------
# canonical decomposition
# ---------------------------------------------------------------------------

def _eigen_clusters(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of a Hermitian ``h`` and the bounds of the clusters of its
    ascending eigenvalues, cluster ``i`` being ``bounds[i]:bounds[i + 1]``: one
    starts where an eigenvalue exceeds its predecessor by more than
    ``CLUSTER_REL`` times their spread or, below unit spread, by more than an
    absolute ``CLUSTER_REL`` (1e-7)."""
    w, v = np.linalg.eigh(h)
    width = CLUSTER_REL * max(float(w[-1] - w[0]), 1.0)
    return v, np.flatnonzero(np.concatenate(([True], np.diff(w) > width, [True])))


def _random_element_in(ops: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    k = len(ops)
    return np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), ops, axes=1)


def _sector_key(s: Sector) -> tuple:
    """Larger factors first; ties are broken by the sector projector alone
    (its diagonal, then its entries, rounded), never by the random element
    that found the sectors.  :func:`_decompose_on` sorts once, on the lifted
    sectors, so the order does not depend on the basis chosen for the
    support."""
    p = s.isometry @ s.isometry.conj().T
    entries = (-np.concatenate([p.diagonal(), p.ravel()])).view(float)
    return (-s.d, -s.n, *entries.round(SECTOR_TIE_DIGITS).tolist())


def canonical_decompose(
    space: OperatorSpace,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AlgebraDecomposition:
    """Decompose a *-algebra span into matrix factors with multiplicity.

    The input span must be closed under products and adjoints and contain
    its own support projector (the algebra unit).  Closure is not checked
    apart: a span that is not a *-algebra fails the verification of the
    rebuilt matrix units, or a count before it, on every attempt.  Every
    structure analysis shares the routine: the span is compressed onto its
    support, unless that is the whole space, and verified there.

    The sector list is sorted descending by factor dimension, then by
    multiplicity, then by the sector projector, so the order does not depend
    on ``seed``; the isometries are deterministic for a fixed ``seed``.

    Raises:
        ValidationError: if ``seed`` is not a non-negative integer.
        NumericalError: if the basis of ``space`` is not orthonormal.
        DecompositionError: for the zero span, and when every attempt fails:
            the eigenvalue clusters of one sector differ in size, a transport
            between them is rank deficient, the sector dimensions do not add
            up to the span's, or the verification fails.  A span that is not
            a *-algebra fails one of these on every attempt.
    """
    if space.size == 0:
        raise DecompositionError("cannot decompose the zero algebra")
    if not _is_orthonormal(space.basis):
        raise NumericalError("operator space basis is not orthonormal")
    return _decompose_on(space, space.support(), seed, tol)


def _decompose_on(span: OperatorSpace, v: np.ndarray, seed: int,
                  tol: ToleranceConfig) -> AlgebraDecomposition:
    """The algebra of ``v^dag B v`` over the orthonormal basis ``B`` of ``span``,
    for an isometry ``v`` onto its support (a square ``v`` leaves the span as it
    is), with ``support_projector = v v^dag``.  Each attempt sorts its sectors
    once, lifted by ``v``, and verifies them in that order in support
    coordinates, on the compressed span, whose basis is not checked again."""
    local = span if v.shape[0] == v.shape[1] else span.compressed(v)
    if local.size != span.size:
        raise DecompositionError("span dimension changed under support compression",
                                 residuals={"before": float(span.size), "after": float(local.size)})

    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    # a non-generic draw, or a span that is no *-algebra, fails a count or
    # the verification below; every attempt draws afresh
    rng = np.random.default_rng(seed)
    last_error: DecompositionError | None = None
    for _ in range(DECOMPOSE_ATTEMPTS):
        try:
            found = _decompose_once(local, rng)
            algebra_dim = sum(s.d * s.d for s in found)
            if algebra_dim != span.size:
                raise DecompositionError(
                    f"sector dimensions sum to {algebra_dim}, span has {span.size}",
                    residuals={"algebra_dim": float(algebra_dim)},
                )
            pairs = sorted(((s, s if local is span else replace(s, isometry=v @ s.isometry))
                            for s in found), key=lambda pair: _sector_key(pair[1]))
            report = _residuals(local, [s for s, _ in pairs])
            if report["max_residual"] > tol.subspace:
                raise DecompositionError("decomposition failed verification", residuals=report)
        except DecompositionError as exc:
            last_error = exc
            continue
        # the span of the sector matrix units is closed, so equality certifies closure
        return AlgebraDecomposition(
            ambient_dim=span.dim, sectors=tuple(lifted for _, lifted in pairs),
            support_projector=v @ v.conj().T,
            residuals={"algebra_closure": report["reconstruction_distance"], **report})
    raise last_error or DecompositionError("algebra decomposition failed")


def _decompose_once(space: OperatorSpace, rng: np.random.Generator) -> list[Sector]:
    """The sectors of a span with full support, from one generic element ``g``
    and its Hermitian part ``a = (g + g^dag) / 2``.

    Each sector ``M_d (x) 1_n`` holds ``d`` eigenvalue clusters of ``a``, all
    of size ``n``; the clusters partition the support.  Two clusters share a
    sector when the block of ``g`` between them, in ``a``'s eigenbasis,
    exceeds ``TRANSPORT_REL`` times ``||g||_F``.  Those blocks are the
    anti-Hermitian part's, which for a Gaussian draw on a *-closed span is
    independent of ``a``: as generic as a second draw.  The polar factor of
    the block from a sector's first cluster to another carries the first
    cluster's basis onto that factor row.
    """
    g = _random_element_in(space.basis, rng)
    v, bounds = _eigen_clusters((g + g.conj().T) / 2.0)
    g = v.conj().T @ g @ v
    starts, sizes = bounds[:-1], np.diff(bounds)
    weight = np.add.reduceat(np.add.reduceat(np.abs(g) ** 2, starts, axis=0), starts, axis=1)
    linked = weight > (TRANSPORT_REL * np.linalg.norm(g)) ** 2
    linked |= linked.T

    sectors = []
    free = np.ones(len(starts), dtype=bool)
    while free.any():
        # the clusters connected to the first free one, in ascending order
        member = np.arange(len(starts)) == np.argmax(free)
        while not np.array_equal(grown := member | linked[member].any(axis=0), member):
            member = grown
        free &= ~member
        n = int(sizes[member][0])
        if np.any(sizes[member] != n):
            raise DecompositionError(
                "eigenvalue clusters of one sector differ in size",
                residuals={"clusters": float(np.count_nonzero(member))},
            )
        rows = starts[member][:, None] + np.arange(n)  # each cluster's indices
        columns = v[:, rows].transpose(1, 0, 2)  # (clusters, dim, n): their eigenvectors
        if len(rows) > 1:
            # the blocks of g from the first cluster to each other one, and their polar factors
            u, s, vh = np.linalg.svd(g[rows[1:, :, None], rows[0]])
            deficient = s[:, -1] < TRANSPORT_REL * np.maximum(s[:, 0], TRANSPORT_FLOOR)
            if deficient.any():
                raise DecompositionError(
                    "algebra transport between eigenspaces is rank deficient",
                    residuals={"min_singular": float(s[np.argmax(deficient), -1])},
                )
            columns[1:] = columns[1:] @ (u @ vh)
        sectors.append(Sector(len(rows), n, columns.transpose(1, 0, 2).reshape(len(v), -1)))
    return sectors


def _matrix_units(sector: Sector, cofactor: np.ndarray) -> np.ndarray:
    """The ``(d^2, dim, dim)`` stack ``V (E_ab (x) c) V^dag = V_a c V_b^dag`` for
    an ``n x n`` cofactor operator ``c``, ``a`` major, where ``V_a`` holds the
    ``n`` columns of factor row ``a``; ``c = 1_n`` gives the algebra's units."""
    v = sector.isometry.reshape(-1, sector.d, sector.n)
    units = np.einsum("xai,ybi->abxy", v @ cofactor, v.conj())
    return units.reshape(sector.d ** 2, *units.shape[2:])


def _partial_trace_factor(sector: Sector, x: np.ndarray) -> np.ndarray:
    """Trace out the factor of ``V^dag x V`` (``x`` may be a stack), leaving the cofactor part."""
    m = sector.isometry.conj().T @ x @ sector.isometry
    d, n = sector.d, sector.n
    return np.einsum("...aiaj->...ij", m.reshape(*x.shape[:-2], d, n, d, n))


def verify_decomposition(space: OperatorSpace, dec: AlgebraDecomposition) -> dict[str, float]:
    """Residuals certifying a decomposition against the original span.

    In the coordinates of the concatenated sector isometries ``V``, the
    diagonal sector blocks of ``V^dag V - 1`` give ``isometry_residual`` and
    the blocks between sectors ``sector_orthogonality``.
    ``reconstruction_distance`` is the root-sum-square over the basis of its
    :func:`_in_sectors` distances from the span of the matrix units over
    ``sqrt(n)``.  To within the first two residuals it bounds the sine of the
    largest principal angle between the spans; spans of different dimension read 1.

    Raises:
        NumericalError: if the basis of ``space`` is not orthonormal.
    """
    if not _is_orthonormal(space.basis):
        raise NumericalError("operator space basis is not orthonormal")
    return _residuals(space, dec.sectors)


def _in_sectors(sectors, cofactors, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``<u_j, x_l>`` on the units ``u_j = V_k (E_ab (x) c_k) V_k^dag`` of
    :func:`_matrix_units`, ``||c_k||_F = 1``, from the blocks of ``W^dag x W`` (``W = [V_1 ...
    V_m]``), and each ``||x_l - sum_j <u_j, x_l> u_j||_F``, never ``||x_l||^2 - ||coords||^2``."""
    m = (w := np.concatenate([s.isometry for s in sectors], axis=1)).conj().T @ x @ w
    kept, coords, lo = np.zeros_like(m), [], 0
    for s, c in zip(sectors, cofactors):
        b, lo = slice(lo, lo + s.d * s.n), lo + s.d * s.n
        blocks = m[:, b, b].reshape(-1, s.d, s.n, s.d, s.n).transpose(0, 1, 3, 2, 4)
        coords.append(blocks.reshape(len(m), s.d ** 2, -1) @ c.conj().ravel())
        kept[:, b, b] = (coords[-1].reshape(-1, s.d, s.d, 1, 1) * c).transpose(
            0, 1, 3, 2, 4).reshape(len(m), b.stop - b.start, -1)
    distance = np.linalg.norm((x - w @ kept @ w.conj().T).reshape(len(x), -1), axis=1)
    return np.concatenate(coords, axis=1), distance


def _chunk(dim: int) -> int:
    """Operators per chunk of a batched pass over ``dim x dim`` operators: an eighth of S."""
    return -(-dim ** 2 // 8)


def _residuals(space: OperatorSpace, sectors) -> dict[str, float]:
    """The :func:`verify_decomposition` report for an orthonormal basis, via :func:`_in_sectors`."""
    v = np.concatenate([s.isometry for s in sectors], axis=1)
    labels = np.repeat(np.arange(len(sectors)), [s.d * s.n for s in sectors])
    gram, on_block = np.abs(v.conj().T @ v - np.eye(v.shape[1])), labels[:, None] == labels

    step, cofactors = _chunk(space.dim), [np.eye(s.n) / np.sqrt(s.n) for s in sectors]
    recon = 1.0 if sum(s.d * s.d for s in sectors) != space.size else float(np.linalg.norm(
        np.concatenate([_in_sectors(sectors, cofactors, space.basis[lo:lo + step])[1]
                        for lo in range(0, space.size, step)])))

    report = {
        "isometry_residual": float(np.max(gram[on_block], initial=0.0)),
        "sector_orthogonality": float(np.max(gram[~on_block], initial=0.0)),
        "reconstruction_distance": recon,
    }
    report["max_residual"] = max(report.values())
    return report
