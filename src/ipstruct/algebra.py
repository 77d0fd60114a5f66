"""Matrix *-algebras: recognition, commutants, and canonical decomposition.

A finite-dimensional *-algebra of operators is unitarily equivalent to a
direct sum of full matrix factors with multiplicity,

    A  ~=  sum_k  M_{d_k} (x) 1_{n_k} ,

and this module recovers that shape numerically.  The decomposition strategy
is randomized but seed-deterministic: two generic Hermitian elements of the
span give its centre, a generic Hermitian element of the center splits the
support into minimal central sectors, and a generic Hermitian element of each
restricted factor pairs its eigenspaces into the tensor-product coordinates.

No separate closure check runs.  The span of the sector matrix units is a
*-algebra by construction, so the decomposition certifies itself: a span that
is not a *-algebra fails a count or :func:`verify_decomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import DecompositionError, NumericalError
from .spectral import OperatorSpace, operator_space_from_span, subspace_distance
from .tolerances import (BASIS_ORTHONORMAL, CLUSTER_FLOOR, CLUSTER_REL, DEFAULT_TOL,
                         INTEGER_GUARD, RANK_REL, TRANSPORT_FLOOR, TRANSPORT_REL,
                         ToleranceConfig)

__all__ = [
    "Sector",
    "AlgebraDecomposition",
    "canonical_decompose",
    "verify_decomposition",
]

# fresh draws of the centre and sector elements before a decomposition fails
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
    """Sectors of an algebra; ``residuals`` holds the :func:`verify_decomposition`
    report and ``algebra_closure``, its ``reconstruction_distance``: the
    distance from the input span to the span of the sector matrix units,
    which is closed by construction."""

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
        return sum((_embed(s.isometry, m, np.eye(s.n)) for s, m in zip(self.sectors, blocks)),
                   np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex))


def _embed(v: np.ndarray, x, y) -> np.ndarray:
    """``V (x (x) y) V^dag`` for a sector isometry ``V`` and factor/cofactor
    operators ``x`` and ``y``."""
    return v @ np.kron(np.asarray(x, dtype=complex), y) @ v.conj().T


def _stacked_basis(space: OperatorSpace) -> np.ndarray:
    """The basis as a ``(k, dim, dim)`` stack, checked to be orthonormal."""
    basis = np.stack(space.basis)
    flat = basis.reshape(len(basis), -1)
    if np.max(np.abs(flat.conj() @ flat.T - np.eye(len(basis)))) > BASIS_ORTHONORMAL:
        raise NumericalError("operator space basis is not orthonormal")
    return basis


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
    basis = _stacked_basis(space)
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
    rows = []
    for b in space.basis:
        # vec([B, X]) = (1 kron B - B^T kron 1) vec(X) in column stacking
        rows.append(np.kron(eye, b) - np.kron(b.T, eye))
    stacked = np.vstack(rows)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cut = max(tol.subspace, s[0] * RANK_REL)
    null_dim = int(np.sum(s <= cut))
    if null_dim == 0:
        return OperatorSpace(dim=d, basis=())
    basis = vh[len(vh) - null_dim:].conj().T
    return operator_space_from_span(basis, d)


# ---------------------------------------------------------------------------
# canonical decomposition
# ---------------------------------------------------------------------------

def _eigen_clusters(h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvectors of a Hermitian ``h`` and the index groups of its ascending
    eigenvalues, split where neighbours differ by more than ``CLUSTER_REL``
    times their spread."""
    w, v = np.linalg.eigh(h)
    width = max(CLUSTER_REL * max(float(w[-1] - w[0]), 1.0), CLUSTER_FLOOR)
    groups: list[list[int]] = [[0]]
    for idx in range(1, len(w)):
        if w[idx] - w[groups[-1][-1]] <= width:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return v, [np.array(g) for g in groups]


def _random_hermitian_in(ops: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    k = len(ops)
    coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    z = np.tensordot(coeff, ops, axes=1)
    return (z + z.conj().T) / 2.0


def _centre(space: OperatorSpace, rng: np.random.Generator,
            tol: ToleranceConfig) -> np.ndarray:
    """An orthonormal ``(n, dim, dim)`` stack spanning the centre of a span.

    Two generic Hermitian elements ``a_1, a_2`` generate a finite-dimensional
    *-algebra, so whatever commutes with both is central.  The centre is the
    null space of the ``k x k`` Gram matrix of ``c -> [sum_j c_j b_j, a_i]``,
    which costs ``k r^3 + k^2 r^2`` flops.  A non-generic draw only makes the
    null space too large.
    """
    basis = _stacked_basis(space)
    k, r = basis.shape[:2]
    gram = np.zeros((k, k), dtype=complex)
    for _ in range(2):
        a = _random_hermitian_in(basis, rng)
        comm = (basis @ a - a @ basis).reshape(k, r * r)
        gram += comm.conj() @ comm.T
    w, c = np.linalg.eigh(gram)
    cut = max(tol.subspace ** 2, RANK_REL * w[-1])
    return np.tensordot(c[:, w <= cut].T, basis, axes=1)


def _sector_key(s: Sector) -> tuple:
    """Larger factors first; ties are broken by the sector projector alone
    (its diagonal, then its entries, rounded), never by the random element
    that found the sectors."""
    p = s.isometry @ s.isometry.conj().T
    entries = (-np.concatenate([p.diagonal(), p.ravel()])).view(float)
    return (-s.d, -s.n, *entries.round(6).tolist())


def _near_integer(value: float, what: str) -> int:
    nearest = int(round(value))
    if abs(value - nearest) > INTEGER_GUARD:
        raise DecompositionError(
            f"{what} = {value:.6f} is not close to an integer",
            residuals={"integer_distance": abs(value - nearest)},
        )
    return nearest


def canonical_decompose(
    space: OperatorSpace,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AlgebraDecomposition:
    """Decompose a *-algebra span into matrix factors with multiplicity.

    The input span must be closed under products and adjoints and contain
    its own support projector (the algebra unit).  Closure is not checked
    apart: a span that is not a *-algebra fails the verification of the
    rebuilt matrix units, or a count before it, on every attempt.

    The sector list is sorted descending by factor dimension, then by
    multiplicity, then by the sector projector, so the order does not depend
    on ``seed``; the isometries are deterministic for a fixed ``seed``.

    Raises:
        DecompositionError: when eigenvalue clustering stays ambiguous after
            resampling, recovered dimensions fail the integer guard, or the
            span is not a *-algebra.
    """
    if space.size == 0:
        raise DecompositionError("cannot decompose the zero algebra")

    v_supp = space.support()
    r = v_supp.shape[1]
    comp_space = space.compressed(v_supp)
    if comp_space.size != space.size:
        raise DecompositionError(
            "span dimension changed under support compression",
            residuals={"before": float(space.size), "after": float(comp_space.size)},
        )

    # a non-generic draw of the centre, or a span that is no *-algebra, fails
    # a count or the verification below; every attempt draws afresh
    rng = np.random.default_rng(seed)
    last_error: DecompositionError | None = None
    for _ in range(DECOMPOSE_ATTEMPTS):
        try:
            centre = _centre(comp_space, rng, tol)
            if len(centre) == 0:
                raise DecompositionError("algebra has an empty center; is the unit present?")
            sectors = _decompose_once(comp_space, centre, rng)
            dec = AlgebraDecomposition(
                ambient_dim=space.dim,
                sectors=tuple(sorted(
                    (Sector(d=s.d, n=s.n, isometry=v_supp @ s.isometry) for s in sectors),
                    key=_sector_key)),
                support_projector=v_supp @ v_supp.conj().T,
            )
            if dec.algebra_dim != space.size:
                raise DecompositionError(
                    f"sector dimensions sum to {dec.algebra_dim}, span has {space.size}",
                    residuals={"algebra_dim": float(dec.algebra_dim)},
                )
            if dec.support_rank() != r:
                raise DecompositionError(
                    f"sector sizes sum to {dec.support_rank()}, support has rank {r}"
                )
            report = verify_decomposition(space, dec)
            if report["max_residual"] > tol.subspace:
                raise DecompositionError("decomposition failed verification", residuals=report)
        except DecompositionError as exc:
            last_error = exc
            continue
        # the span of the sector matrix units is closed, so equality certifies closure
        return replace(dec, residuals={"algebra_closure": report["reconstruction_distance"],
                                       **report})
    raise last_error or DecompositionError("algebra decomposition failed")


def _decompose_once(comp_space, centre, rng):
    # 1. split the support with a generic Hermitian central element
    v, clusters = _eigen_clusters(_random_hermitian_in(centre, rng))
    if len(clusters) != len(centre):
        raise DecompositionError(
            f"central element produced {len(clusters)} clusters, expected {len(centre)}",
            residuals={"clusters": float(len(clusters))},
        )

    sectors = []
    for cluster in clusters:
        q = v[:, cluster]  # r x m_k
        m_k = q.shape[1]
        local_space = comp_space.compressed(q)
        d_k = _near_integer(np.sqrt(local_space.size), "sqrt(sector algebra dimension)")
        if d_k == 0:
            raise DecompositionError("sector carries the zero algebra")
        n_k = _near_integer(m_k / d_k, "sector multiplicity")
        iso_local = _sector_isometry(local_space, d_k, n_k, rng)
        sectors.append(Sector(d=d_k, n=n_k, isometry=q @ iso_local))
    return sectors


def _sector_isometry(local_space: OperatorSpace, d: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Coordinates in which a single-factor algebra reads ``M_d (x) 1_n``.

    A generic Hermitian algebra element has ``d`` eigenvalues of multiplicity
    ``n``; its eigenspaces are the factor "rows".  Partial isometries taken
    from the algebra transport an orthonormal basis of the first eigenspace
    to all the others, fixing the tensor alignment.
    """
    m = d * n
    if d == 1:
        # abelian factor: any orthonormal basis of the sector works
        return np.eye(m, dtype=complex)
    ops = np.stack(local_space.basis)
    h = _random_hermitian_in(ops, rng)
    v, clusters = _eigen_clusters(h)
    if len(clusters) != d or any(len(c) != n for c in clusters):
        raise DecompositionError(
            "sector element eigenvalues did not split into equal multiplets",
            residuals={"clusters": float(len(clusters))},
        )
    eig_blocks = [v[:, c] for c in clusters]

    coeff = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
    t = np.tensordot(coeff, ops, axes=1)

    w1 = eig_blocks[0]
    columns = [w1]
    for a in range(1, d):
        pa = eig_blocks[a] @ eig_blocks[a].conj().T
        x = pa @ t @ w1
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        if s.size < n or s[-1] < TRANSPORT_REL * max(s[0], TRANSPORT_FLOOR):
            raise DecompositionError(
                "algebra transport between eigenspaces is rank deficient",
                residuals={"min_singular": float(s[-1]) if s.size else 0.0},
            )
        columns.append(u @ vh)
    return np.column_stack(columns)


def _matrix_units(sector: Sector) -> np.ndarray:
    """The ``(d^2, dim, dim)`` stack ``V (E_ab (x) 1_n) V^dag = V_a V_b^dag``,
    ``a`` major, where ``V_a`` holds the ``n`` columns of factor row ``a``."""
    v = sector.isometry.reshape(-1, sector.d, sector.n)
    units = np.einsum("xai,ybi->abxy", v, v.conj())
    return units.reshape(sector.d ** 2, *units.shape[2:])


def verify_decomposition(space: OperatorSpace, dec: AlgebraDecomposition) -> dict[str, float]:
    """Residuals certifying a decomposition against the original span.

    Checks isometry orthonormality, mutual sector orthogonality, and that
    the span rebuilt from matrix units equals the input span.
    """
    iso_res = 0.0
    orth_res = 0.0
    for i, s in enumerate(dec.sectors):
        v = s.isometry
        iso_res = max(iso_res, float(np.max(np.abs(v.conj().T @ v - np.eye(s.d * s.n)))))
        for other in dec.sectors[i + 1:]:
            orth_res = max(orth_res, float(np.max(np.abs(v.conj().T @ other.isometry))))

    rebuilt = np.concatenate([_matrix_units(s) for s in dec.sectors])
    # column-stacked vectorization, as in OperatorSpace.vec_matrix
    recon = subspace_distance(space.vec_matrix(),
                              rebuilt.transpose(0, 2, 1).reshape(len(rebuilt), -1).T)

    report = {
        "isometry_residual": iso_res,
        "sector_orthogonality": orth_res,
        "reconstruction_distance": recon,
    }
    report["max_residual"] = max(report.values())
    return report
