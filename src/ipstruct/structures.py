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

Each structure is certified against the analyzed map over an orthonormal
basis of the span of its states, with no random draw (README, structure
step).  The module also builds transpose-channel recovery maps for arbitrary
support projectors and checks the leak-in condition for initialization-free
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .algebra import (AlgebraDecomposition, _chunk, _decompose_on, _embed, _in_sectors,
                      _matrix_units, _partial_trace_factor)
from .channels import (
    QuantumChannel,
    _psd_support,
    apply_channel,
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
from .tolerances import DEFAULT_TOL, FIXED_STATE_RESIDUAL, TAU_MIN_EIG, TAU_TRACE, ToleranceConfig

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

    ``support_projector`` lives on the analyzed (input) space; it and the
    sector isometries are carried by ``algebra``; ``distortion_states``
    aligns with ``algebra.sectors``.  ``kind`` is one of ``"noiseless"``,
    ``"unitarily-noiseless"``, ``"unconditional"``.
    """

    kind: str
    algebra: AlgebraDecomposition
    distortion_states: tuple[np.ndarray, ...]
    residuals: Mapping[str, float]

    @property
    def support_projector(self) -> np.ndarray:
        return self.algebra.support_projector

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
        sectors = self.algebra.sectors
        weights = [1.0 / len(sectors)] * len(sectors) if weights is None else weights
        if not len(blocks) == len(weights) == len(sectors):
            raise ValidationError(f"{len(blocks)} blocks and {len(weights)} weights "
                                  f"for {len(sectors)} sectors")
        return sum(w * _embed(s.isometry, m, tau)
                   for w, s, m, tau in zip(weights, sectors, blocks, self.distortion_states))


@dataclass(frozen=True)
class InitializationFreeReport:
    """Per-Kraus leak-in residuals ``||P_k K_i (1 - P0)||_F`` for one sector."""

    initialization_free: bool
    kraus_residuals: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.initialization_free


# ---------------------------------------------------------------------------
# recovery maps
# ---------------------------------------------------------------------------

def _pinv_sqrt(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix on its support."""
    w, v = _psd_support(a)
    return (v / np.sqrt(w)) @ v.conj().T


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
    return channel_from_kraus(p @ ch.kraus.conj().transpose(0, 2, 1) @ norm)


def unconditional_recovery(ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """The input-blind recovery ``E^dag(E(1)^{-1/2} . E(1)^{-1/2})``.

    This is the transpose channel taken over the full input space; for a
    unital channel it reduces to the adjoint.
    """
    return transpose_channel(ch, np.eye(ch.dim_in, dtype=complex), tol=tol)


# ---------------------------------------------------------------------------
# structure pipelines
# ---------------------------------------------------------------------------

def _structure_from_space(
    space: SpectralSpace,
    ch: QuantumChannel,
    kind: str,
    seed: int,
    tol: ToleranceConfig,
) -> FixedPointStructure:
    """Decompose the algebra of ``space.dual`` on the support P0 of ``space``, read each ``tau_k``
    through ``space.project`` and certify the structure against ``ch`` over the whole span of its
    states (a rotation read by :func:`_in_sectors`); only the decomposition draws from ``seed``."""
    dec = _decompose_on(space.dual, space.support(), seed, tol)
    sectors = dec.sectors

    # tau_k: the cofactor states that the d_k diagonal units V_k (E_aa (x) 1/n) V_k^dag
    # leave under the projector, all sent in one call; tau_cross_check is their spread
    images = space.project(np.concatenate(
        [_matrix_units(s, np.eye(s.n) / s.n)[::s.d + 1] for s in sectors]))
    taus, tau_cross = [], 0.0
    for sector, lo in zip(sectors, np.cumsum([0] + [s.d for s in sectors])):
        reduced = _partial_trace_factor(sector, images[lo:lo + sector.d])
        trs = np.real(np.trace(reduced, axis1=1, axis2=2))
        tr = float(trs[np.argmax(np.abs(trs - 1.0))])
        if abs(tr - 1.0) > TAU_TRACE:
            raise NumericalError(
                f"distortion state trace {tr:.6f} is far from 1",
                residuals={"tau_trace": tr},
            )
        reduced = (reduced + reduced.conj().transpose(0, 2, 1)) / (2.0 * trs[:, None, None])
        tau_cross = max(tau_cross, float(np.max(np.abs(reduced - reduced[:, None]))))
        if tau_cross > tol.subspace:
            raise NumericalError(
                "distortion state depends on the probe state",
                residuals={"tau_cross": tau_cross},
            )
        tau = reduced.mean(axis=0)
        w = np.linalg.eigvalsh(tau)
        if w.min() < TAU_MIN_EIG:
            raise NumericalError(
                f"distortion state has negative eigenvalue {w.min():.3e}",
                residuals={"tau_min_eig": float(w.min())},
            )
        taus.append(tau)

    # the map over the orthonormal basis V_k (E_ab (x) tau_k) V_k^dag / ||tau_k||_F of
    # the structure states, in chunks of _chunk(d) operators
    cofactors, step = [t / np.linalg.norm(t) for t in taus], _chunk(space.dim)
    units = np.concatenate([_matrix_units(s, c) for s, c in zip(sectors, cofactors)])
    chunks = ((c, apply_channel(ch, units[c]))
              for c in (slice(lo, lo + step) for lo in range(0, len(units), step)))
    if kind != "unitarily-noiseless":
        certificate = {"fixed_state_residual": math.sqrt(
            sum(np.linalg.norm(image - units[c]) ** 2 for c, image in chunks))}
    else:  # E rotates the states: it must keep their span and act on it unitarily
        scale = np.repeat([np.linalg.norm(t) for t in taus], [s.d ** 2 for s in sectors])
        leak, gram = 0.0, np.zeros((len(units), len(units)), dtype=complex)
        for c, image in chunks:
            coeff, distance = _in_sectors(sectors, cofactors, image)  # <u_j, E(u_i)>
            leak += float(distance @ distance)
            coeff *= scale[c, None] / scale  # E on the units V_k (E_ab (x) tau_k) V_k^dag
            gram += coeff.conj().T @ coeff
        gram[np.diag_indices(len(units))] -= 1.0
        certificate = {"span_leak": math.sqrt(leak), "gram_change": float(np.linalg.norm(gram))}
    if max(certificate.values()) > FIXED_STATE_RESIDUAL:
        raise DecompositionError("the analyzed map does not preserve the structure states",
                                 residuals=certificate)

    return FixedPointStructure(
        kind=kind, algebra=dec, distortion_states=tuple(taus),
        residuals={"algebra_closure": dec.residuals["algebra_closure"],
                   "tau_cross_check": tau_cross, **certificate},
    )


def _require_square(ch: QuantumChannel) -> None:
    if not ch.is_square:
        raise ValidationError("structure analysis requires a square channel")


def noiseless_structure(ch: QuantumChannel, seed: int = 0,
                        tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Largest structure fixed outright: algebra shape of ``Fix(E)``.

    Pipeline: fixed spaces of the map and its adjoint, support projector,
    compression of the adjoint side, canonical algebra decomposition,
    distortion-state extraction through the time-averaged channel, and
    ``fixed_state_residual``: ``E - id`` over the whole structure span.
    """
    _require_square(ch)
    return _structure_from_space(fixed_space(ch), ch, "noiseless", seed, tol)


def unitarily_noiseless_structure(ch: QuantumChannel, seed: int = 0,
                                  tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Structure preserved up to a recurring unitary: built from the span of
    unit-modulus eigenoperators instead of the strictly fixed ones.

    The peripheral projector reads the distortion states.  ``E`` rotates the
    structure states, so its certificate reads how far ``E`` moves their span
    (``span_leak``) and is from unitary on it (``gram_change``).
    """
    _require_square(ch)
    return _structure_from_space(rotating_space(ch), ch, "unitarily-noiseless", seed, tol)


def unconditional_structure(ch: QuantumChannel, seed: int = 0,
                            tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """The unique structure preserved without initialization control.

    Composes the input-blind recovery with the channel and analyzes the
    fixed points of the composite, which acts on the input space even for
    rectangular channels.  The composite is unital, so the structure always
    has full support.
    """
    comp = compose(unconditional_recovery(ch, tol), ch)
    return _structure_from_space(fixed_space(comp), comp, "unconditional", seed, tol)


def fixed_point_structure(ch: QuantumChannel, seed: int = 0,
                          tol: ToleranceConfig = DEFAULT_TOL) -> FixedPointStructure:
    """Noiseless structure plus a block-form certificate for the Kraus set.

    In a basis adapted to the support ``P0``, every Kraus operator must be
    block upper triangular -- the support is invariant, so no amplitude
    flows from it into the complement -- and its restriction to ``P0`` must
    commute with the recovered algebra.  Both residuals, recorded in
    ``residuals``, are root-sum-squares over the Kraus operators, which a
    unitary mixing of the Kraus set leaves unchanged (README, structure step).
    """
    structure = noiseless_structure(ch, seed=seed, tol=tol)
    p0 = structure.support_projector
    invariance = float(np.linalg.norm((np.eye(ch.dim_in) - p0) @ ch.kraus @ p0))

    # the units live on P0, so ||[P0 K P0, U]|| is the norm compressed to P0
    units = np.concatenate([_matrix_units(s, np.eye(s.n)) for s in structure.algebra.sectors])
    squares = sum(np.linalg.norm((k_r @ units - units @ k_r).reshape(len(units), -1), axis=1) ** 2
                  for k_r in p0 @ ch.kraus @ p0)
    commutation = float(np.sqrt(np.max(squares)))

    return replace(structure, residuals={**structure.residuals, "kraus_invariance": invariance,
                                         "kraus_commutation": commutation})


def initialization_free_check(ch: QuantumChannel, structure: FixedPointStructure,
                              sector_index: int,
                              tol: ToleranceConfig = DEFAULT_TOL) -> InitializationFreeReport:
    """Whether a sector keeps its information without support initialization.

    A sector survives arbitrary input preparations exactly when no Kraus
    operator carries amplitude from the support complement into the sector:
    ``P_k K_i (1 - P0) = 0`` for all ``i``.  The verdict reads the norms'
    root-sum-square, which a unitary mixing of the Kraus set leaves unchanged.
    """
    _require_square(ch)
    sectors = structure.algebra.sectors
    if not 0 <= sector_index < len(sectors):
        raise ValidationError(f"sector index {sector_index} outside 0..{len(sectors) - 1}")
    sector = sectors[sector_index]
    p_k = sector.isometry @ sector.isometry.conj().T
    comp = np.eye(ch.dim_in) - structure.support_projector
    residuals = tuple(map(float, np.linalg.norm(p_k @ ch.kraus @ comp, axis=(1, 2))))
    return InitializationFreeReport(
        initialization_free=math.hypot(*residuals) < tol.equality,
        kraus_residuals=residuals,
    )
