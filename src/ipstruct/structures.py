"""Preserved structures of a channel: noiseless, rotated, recoverable.

The fixed points of a trace-preserving map form a distorted matrix algebra:
restricted to their support they are unitarily equivalent to

    sum_k  M_{d_k} (x) tau_k ,

where each ``tau_k`` is a fixed density operator on a noise-full cofactor.
This module computes that structure for three notions of preservation:

* ``noiseless``            -- fixed points of the channel itself;
* ``unitarily-noiseless``  -- the rotating (unit-modulus eigenvalue) span,
  preserved up to a recurring unitary;
* ``unconditional``        -- fixed points of ``R_hat o E`` where ``R_hat``
  is the recovery built from the channel applied to the identity, the
  unique structure that survives without initialization control.

It also builds transpose-channel recovery maps for arbitrary support
projectors and checks the leak-in condition for initialization-free use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .algebra import AlgebraDecomposition, Sector, _embed, _matrix_units, canonical_decompose
from .channels import (
    QuantumChannel,
    apply_channel,
    apply_superoperator,
    channel_from_kraus,
    compose,
    is_projector,
)
from .errors import DecompositionError, NumericalError, ValidationError
from .spectral import (
    SpectralSpace,
    fixed_space,
    rotating_space,
)
from .tolerances import (DEFAULT_TOL, FIXED_STATE_RESIDUAL, RANK_REL, TAU_MIN_EIG, TAU_TRACE,
                         ToleranceConfig)

__all__ = [
    "FixedPointStructure",
    "InitializationFreeReport",
    "transpose_channel",
    "unconditional_recovery",
    "noiseless_structure",
    "unitarily_noiseless_structure",
    "unconditional_structure",
    "fixed_point_structure",
    "initialization_free_check",
]


@dataclass(frozen=True)
class FixedPointStructure:
    """A distorted-algebra structure ``sum_k M_{d_k} (x) tau_k``.

    ``support_projector`` lives on the analyzed (input) space; sector
    isometries are carried by ``algebra``; ``distortion_states`` aligns with
    ``algebra.sectors``.  ``kind`` is one of ``"noiseless"``,
    ``"unitarily-noiseless"``, ``"unconditional"``.
    """

    kind: str
    support_projector: np.ndarray
    algebra: AlgebraDecomposition
    distortion_states: tuple[np.ndarray, ...]
    residuals: Mapping[str, float]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.algebra.shape

    @property
    def cofactors(self) -> tuple[int, ...]:
        return self.algebra.cofactors

    @property
    def support_rank(self) -> int:
        return self.algebra.support_rank()

    def sample_state(self, blocks, weights=None) -> np.ndarray:
        """Assemble ``sum_k p_k V_k (blocks[k] (x) tau_k) V_k^dag``."""
        return _structure_state(self.algebra.sectors, self.distortion_states, blocks, weights)


def _structure_state(sectors, taus, blocks, weights=None) -> np.ndarray:
    if weights is None:
        weights = [1.0 / len(sectors)] * len(sectors)
    return sum(w * _embed(s.isometry, m, tau)
               for w, s, m, tau in zip(weights, sectors, blocks, taus))


@dataclass(frozen=True)
class InitializationFreeReport:
    """Per-Kraus leak-in residuals ``|P_k K_i (1 - P0)|`` for one sector."""

    initialization_free: bool
    kraus_residuals: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.initialization_free


# ---------------------------------------------------------------------------
# recovery maps
# ---------------------------------------------------------------------------

def _pinv_sqrt(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix on its support."""
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    top = float(np.max(np.abs(w))) if w.size else 0.0
    inv = np.zeros_like(w)
    keep = w > RANK_REL * top if top > 0 else np.zeros_like(w, dtype=bool)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (v * inv) @ v.conj().T


def transpose_channel(ch: QuantumChannel, projector: np.ndarray,
                      tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """Recovery map for a supported subspace: normalize, reverse, project.

    For support projector ``P`` the Kraus operators are
    ``P K_i^dag E(P)^{-1/2}`` (pseudo-inverse square root on the support of
    ``E(P)``).  Composed with the channel, the result acts unitally on the
    subspace: it maps ``P`` back to ``P``.

    Raises:
        ValidationError: if ``projector`` has the wrong shape or is not an
            orthogonal projector.
        NumericalError: if the channel annihilates the subspace
            (``E(P) = 0``), in which case no recovery map exists.
    """
    p = np.asarray(projector, dtype=complex)
    if p.shape != (ch.dim_in, ch.dim_in):
        raise ValidationError(
            f"projector shape {p.shape} does not match channel input {ch.dim_in}"
        )
    if not is_projector(p):
        raise ValidationError("support matrix is not an orthogonal projector")
    image = apply_channel(ch, p)
    mass = float(np.abs(np.trace(image)))
    if mass <= tol.equality:
        raise NumericalError(
            "channel annihilates the subspace; no recovery map exists",
            residuals={"image_mass": mass},
        )
    norm = _pinv_sqrt(image)
    ks = [p @ k.conj().T @ norm for k in ch.kraus]
    return channel_from_kraus(ks, tol=tol)


def unconditional_recovery(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """The input-blind recovery ``E^dag(E(1)^{-1/2} . E(1)^{-1/2})``.

    This is the transpose channel taken over the full input space; for a
    unital channel it reduces to the adjoint.
    """
    return transpose_channel(ch, np.eye(ch.dim_in, dtype=complex), tol=tol)


# ---------------------------------------------------------------------------
# structure pipelines
# ---------------------------------------------------------------------------

def _partial_trace_factor(sector: Sector, x: np.ndarray) -> np.ndarray:
    """Trace out the factor of ``V^dag x V``, leaving the ``n x n`` cofactor part."""
    m = sector.isometry.conj().T @ x @ sector.isometry
    return np.einsum("aiaj->ij", m.reshape(sector.d, sector.n, sector.d, sector.n))


def _structure_from_space(
    space: SpectralSpace,
    fixedness_map: Callable[[np.ndarray], np.ndarray],
    kind: str,
    seed: int,
    tol: ToleranceConfig,
) -> FixedPointStructure:
    vs = space.support()
    p0 = vs @ vs.conj().T

    # compress the adjoint-side span onto the support; this is the algebra
    alg_space = space.dual.compressed(vs)
    if alg_space.size != space.size:
        raise NumericalError(
            "projected adjoint fixed space lost dimensions "
            f"({alg_space.size} vs {space.size})"
        )

    dec_local = canonical_decompose(alg_space, seed=seed, tol=tol)
    sectors = tuple(
        Sector(d=s.d, n=s.n, isometry=vs @ s.isometry) for s in dec_local.sectors
    )
    dec = replace(dec_local, ambient_dim=space.dim, sectors=sectors, support_projector=p0)

    # distortion states: average a seeded pure state on each factor and trace
    # the factor out; cross-check independence from the probe state
    rng = np.random.default_rng(seed + 1)
    taus = []
    tau_cross = 0.0
    for sector in sectors:
        samples = []
        for _ in range(2):
            psi = rng.standard_normal(sector.d) + 1j * rng.standard_normal(sector.d)
            psi /= np.linalg.norm(psi)
            probe = _embed(sector.isometry, np.outer(psi, psi.conj()),
                           np.eye(sector.n) / sector.n)
            image = apply_superoperator(space.projector, probe)
            tau = _partial_trace_factor(sector, image)
            tau = (tau + tau.conj().T) / 2.0
            tr = float(np.real(np.trace(tau)))
            if abs(tr - 1.0) > TAU_TRACE:
                raise NumericalError(
                    f"distortion state trace {tr:.6f} is far from 1",
                    residuals={"tau_trace": tr},
                )
            samples.append(tau / tr)
        tau_cross = max(tau_cross, float(np.max(np.abs(samples[0] - samples[1]))))
        if tau_cross > tol.subspace:
            raise NumericalError(
                "distortion state depends on the probe state",
                residuals={"tau_cross": tau_cross},
            )
        tau = samples[0]
        w = np.linalg.eigvalsh(tau)
        if w.min() < TAU_MIN_EIG:
            raise NumericalError(
                f"distortion state has negative eigenvalue {w.min():.3e}",
                residuals={"tau_min_eig": float(w.min())},
            )
        taus.append(tau)

    # fixedness of assembled structure states under the analyzed map
    fix_res = 0.0
    for trial in range(2):
        blocks = []
        for sector in sectors:
            g = rng.standard_normal((sector.d, sector.d)) \
                + 1j * rng.standard_normal((sector.d, sector.d))
            rho = g @ g.conj().T
            blocks.append(rho / np.trace(rho))
        weights = rng.random(len(sectors)) + 0.1
        weights /= weights.sum()
        state = _structure_state(sectors, taus, blocks, weights)
        image = fixedness_map(state)
        fix_res = max(fix_res, float(np.max(np.abs(image - state))))
    if fix_res > FIXED_STATE_RESIDUAL:
        raise DecompositionError(
            "assembled structure states are not fixed by the analyzed map",
            residuals={"fixed_state_residual": fix_res},
        )

    return FixedPointStructure(
        kind=kind, support_projector=p0, algebra=dec, distortion_states=tuple(taus),
        residuals={"algebra_closure": dec.residuals["algebra_closure"],
                   "tau_cross_check": tau_cross, "fixed_state_residual": fix_res},
    )


def _require_square(ch: QuantumChannel) -> None:
    if not ch.is_square:
        raise ValidationError("structure analysis requires a square channel")


def noiseless_structure(ch: QuantumChannel, seed: int = 0,
                        tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Largest structure fixed outright: algebra shape of ``Fix(E)``.

    Pipeline: fixed spaces of the map and its adjoint, support projector,
    compression of the adjoint side, canonical algebra decomposition,
    distortion-state extraction through the time-averaged channel.
    """
    _require_square(ch)
    return _structure_from_space(
        fixed_space(ch, tol), lambda x: apply_channel(ch, x), "noiseless", seed, tol,
    )


def unitarily_noiseless_structure(ch: QuantumChannel, seed: int = 0,
                                  tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Structure preserved up to a recurring unitary: built from the span of
    unit-modulus eigenoperators instead of the strictly fixed ones.

    Structure states here are fixed by the peripheral spectral projector
    (the channel merely rotates them within the structure), so that map is
    used for both distortion extraction and the fixedness certificate.
    """
    _require_square(ch)
    space = rotating_space(ch, tol)
    return _structure_from_space(
        space, lambda x: apply_superoperator(space.projector, x),
        "unitarily-noiseless", seed, tol,
    )


def unconditional_structure(ch: QuantumChannel, seed: int = 0,
                            tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """The unique structure preserved without initialization control.

    Composes the input-blind recovery with the channel and analyzes the
    fixed points of the composite, which acts on the input space even for
    rectangular channels.  The composite is unital, so the structure always
    has full support.
    """
    comp = compose(unconditional_recovery(ch, tol), ch, tol=tol)
    return _structure_from_space(
        fixed_space(comp, tol), lambda x: apply_channel(comp, x), "unconditional", seed, tol,
    )


def fixed_point_structure(ch: QuantumChannel, seed: int = 0,
                          tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Noiseless structure plus a block-form certificate for the Kraus set.

    In a basis adapted to the support ``P0``, every Kraus operator must be
    block upper triangular -- the support is invariant, so no amplitude
    flows from it into the complement -- and its restriction to ``P0`` must
    commute with the recovered algebra.  Both residuals are recorded in
    ``residuals``.
    """
    structure = noiseless_structure(ch, seed=seed, tol=tol)
    p0 = structure.support_projector
    comp = np.eye(ch.dim_in) - p0

    invariance = 0.0
    for k in ch.kraus:
        invariance = max(invariance, float(np.linalg.norm(comp @ k @ p0)))

    # the units live on P0, so ||[P0 K P0, U]|| is the norm compressed to P0
    units = np.concatenate([_matrix_units(s) for s in structure.algebra.sectors])
    commutation = 0.0
    for k in ch.kraus:
        k_r = p0 @ k @ p0
        comm = (k_r @ units - units @ k_r).reshape(len(units), -1)
        commutation = max(commutation, float(np.max(np.linalg.norm(comm, axis=1))))

    return replace(structure, residuals={**structure.residuals, "kraus_invariance": invariance,
                                         "kraus_commutation": commutation})


def initialization_free_check(ch: QuantumChannel, structure: FixedPointStructure,
                              sector_index: int,
                              tol: ToleranceConfig = DEFAULT_TOL) -> InitializationFreeReport:
    """Whether a sector keeps its information without support initialization.

    A sector survives arbitrary input preparations exactly when no Kraus
    operator carries amplitude from the support complement into the sector:
    ``P_k K_i (1 - P0) = 0`` for all ``i``.
    """
    _require_square(ch)
    sector = structure.algebra.sectors[sector_index]
    p_k = sector.isometry @ sector.isometry.conj().T
    comp = np.eye(ch.dim_in) - structure.support_projector
    residuals = tuple(
        float(np.linalg.norm(p_k @ k @ comp)) for k in ch.kraus
    )
    return InitializationFreeReport(
        initialization_free=max(residuals) < tol.equality,
        kraus_residuals=residuals,
    )
