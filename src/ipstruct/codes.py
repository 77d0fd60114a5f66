"""Codes (finite sets of density operators) and the preservation hierarchy.

A code is preserved when every weighted distinguishability is unchanged by
the channel, i.e. ``|| E(p rho - (1-p) sigma) ||_1 = || p rho - (1-p) sigma
||_1`` over the convex closure of the code.  Sampling weighted pairs can only
refute this, so the authoritative positive certificate is structural: the
code must sit inside a structure that the transpose-channel recovery makes
noiseless again.  The checks below follow that split: fast sampled
refutation, structural confirmation.

Hierarchy: fixed implies noiseless implies preserved, and preserved is
equivalent to correctable via the transpose recovery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .channels import (
    QuantumChannel,
    apply_channel,
    apply_superoperator,
    channel_from_kraus,
    compose,
    projector_onto_support,
    to_superoperator,
)
from .errors import NumericalError, ValidationError
from .spectral import fixed_space
from .structures import noiseless_structure, transpose_channel
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Code",
    "MixtureLabel",
    "PreservationReport",
    "NoiselessReport",
    "CorrectabilityReport",
    "trace_norm",
    "helstrom_probability",
    "code_support",
    "is_fixed",
    "sampled_preservation_check",
    "is_preserved",
    "is_noiseless",
    "is_correctable_via_transpose",
    "build_fixing_recovery",
]

# p grid for weighted-distance sampling: endpoints plus a decade of interior
# weights; mixtures of listed states draw their weights from a quarter grid
P_GRID = tuple([0.0] + [round(0.1 * k, 1) for k in range(1, 10)] + [1.0])
MIXTURE_WEIGHT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

# a weighted mixture of listed states: ((state_index, weight), ...)
MixtureLabel = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Code:
    """A finite set of density operators on a common space."""

    states: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        if not self.states:
            raise ValidationError("code needs at least one state")
        for i, s in enumerate(self.states):
            if s.shape != (self.dim, self.dim):
                raise ValidationError(f"state {i} has shape {s.shape}, expected ({self.dim}, {self.dim})")
            if np.max(np.abs(s - s.conj().T)) > 1e-9:
                raise ValidationError(f"state {i} is not Hermitian")
            w = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
            if w.min() < -1e-10:
                raise ValidationError(f"state {i} has negative eigenvalue {w.min():.3e}")
            tr = float(np.real(np.trace(s)))
            if abs(tr - 1.0) > 1e-9:
                raise ValidationError(f"state {i} has trace {tr:.12f}")

    @classmethod
    def from_states(cls, states: Sequence[np.ndarray]) -> "Code":
        arr = tuple(np.asarray(s, dtype=complex) for s in states)
        if not arr:
            raise ValidationError("code needs at least one state")
        return cls(states=arr, dim=arr[0].shape[0])


@dataclass(frozen=True)
class PreservationReport:
    verdict: bool
    worst_pair: tuple[MixtureLabel, MixtureLabel, float] | None
    distance_before: float
    distance_after: float

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class NoiselessReport:
    verdict: bool
    failing_map: str | None
    sample: PreservationReport

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class CorrectabilityReport:
    verdict: bool
    recovery: QuantumChannel
    support_projector: np.ndarray
    noiseless: NoiselessReport

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), "nuc"))


def _batched_trace_norm(stack: np.ndarray) -> np.ndarray:
    """Nuclear norms of a stack of matrices in one LAPACK sweep."""
    if stack.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def helstrom_probability(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Optimal success probability for discriminating ``rho`` (prior ``p``)
    from ``sigma`` (prior ``1-p``) with a single measurement."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"prior must lie in [0, 1], got {p}")
    return 0.5 * (1.0 + trace_norm(p * np.asarray(rho) - (1.0 - p) * np.asarray(sigma)))


def code_support(code: Code, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the union of the code states' supports."""
    acc = np.zeros((code.dim, code.dim), dtype=complex)
    for s in code.states:
        acc += s
    return projector_onto_support(acc, tol)


# ---------------------------------------------------------------------------
# sampled weak-condition checks
# ---------------------------------------------------------------------------

def _mixtures(code: Code, include_mixtures: bool) -> list[tuple[MixtureLabel, np.ndarray]]:
    """Listed states plus mixtures of up to three of them whose weights come
    from the quarter grid and sum to one."""
    out: list[tuple[MixtureLabel, np.ndarray]] = [
        (((i, 1.0),), s) for i, s in enumerate(code.states)
    ]
    if not include_mixtures or len(code.states) < 2:
        return out
    indices = range(len(code.states))
    for size in (2, 3):
        for subset in itertools.combinations(indices, size):
            for weights in itertools.product(MIXTURE_WEIGHT_GRID, repeat=size):
                if sum(weights) != 1:
                    continue
                ws = tuple(float(w) for w in weights)
                state = sum(w * code.states[i] for w, i in zip(ws, subset))
                label = tuple(zip(subset, ws))
                out.append((label, state))
    return out


def sampled_preservation_check(
    code: Code,
    ch: QuantumChannel,
    tol: ToleranceConfig = DEFAULT_TOL,
    p_values: Sequence[float] = P_GRID,
    include_mixtures: bool = True,
    apply_map: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> PreservationReport:
    """Search for a weighted pair whose distinguishability shrinks.

    This is a refutation procedure: passing it does not certify
    preservation (that needs the structural route in :func:`is_preserved`),
    but any violation it finds is real.  ``apply_map`` substitutes an
    arbitrary linear map for the channel action, which the noiseless checks
    use for channel powers and averages.
    """
    if apply_map is None:
        if ch.dim_in != code.dim:
            raise ValidationError("code dimension does not match channel input")
        apply_map = lambda x: apply_channel(ch, x)

    collection = _mixtures(code, include_mixtures)
    labels = [lab for lab, _ in collection]
    states = np.stack([s for _, s in collection])
    mapped = np.stack([apply_map(s) for _, s in collection])
    d_out = mapped.shape[1]
    ii, jj = np.triu_indices(len(collection), k=1)
    ps = np.asarray(p_values, dtype=float)

    worst_pair = None
    worst_before = 0.0
    worst_after = 0.0
    worst_drop = 0.0
    # chunk the pair axis so the stacked delta arrays stay modest
    chunk = max(1, int(2_000_000 // max(1, ps.size * states.shape[1] ** 2)))
    for start in range(0, ii.size, chunk):
        sel_i = ii[start:start + chunk]
        sel_j = jj[start:start + chunk]
        w = ps[None, :, None, None]
        before = w * states[sel_i][:, None] - (1.0 - w) * states[sel_j][:, None]
        after = w * mapped[sel_i][:, None] - (1.0 - w) * mapped[sel_j][:, None]
        nb = _batched_trace_norm(before.reshape(-1, *states.shape[1:]))
        na = _batched_trace_norm(after.reshape(-1, d_out, d_out))
        drops = nb.reshape(-1, ps.size) - na.reshape(-1, ps.size)
        k = int(np.argmax(drops))
        if drops.flat[k] > worst_drop:
            worst_drop = float(drops.flat[k])
            pair_k, p_k = divmod(k, ps.size)
            worst_pair = (labels[sel_i[pair_k]], labels[sel_j[pair_k]],
                          float(ps[p_k]))
            worst_before = float(nb.reshape(-1, ps.size)[pair_k, p_k])
            worst_after = float(na.reshape(-1, ps.size)[pair_k, p_k])
    verdict = worst_drop <= tol.subspace
    if verdict and collection:
        # report the first pair as a representative witness
        worst_pair = None
        worst_before = worst_after = 0.0
    return PreservationReport(
        verdict=verdict,
        worst_pair=worst_pair,
        distance_before=worst_before,
        distance_after=worst_after,
    )


def is_fixed(code: Code, ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether every code state satisfies ``E(rho) = rho``."""
    if ch.dim_in != code.dim or ch.dim_out != code.dim:
        return False
    for s in code.states:
        if trace_norm(apply_channel(ch, s) - s) > tol.equality:
            return False
    return True


def is_noiseless(code: Code, ch: QuantumChannel,
                 tol: ToleranceConfig = DEFAULT_TOL) -> NoiselessReport:
    """Whether distinguishability survives arbitrarily many applications.

    It suffices to check the time-averaged channel together with a small
    family of finite mixtures of powers: the identity-channel average, the
    channel itself, and its square.  Each is run through the sampled
    weighted-distance check.
    """
    if not ch.is_square:
        raise ValidationError("noiseless check requires a square channel")
    sup = to_superoperator(ch)
    avg = fixed_space(sup, tol).projector
    eye = np.eye(sup.matrix.shape[0], dtype=complex)
    maps = [
        ("time-average", avg.matrix),
        ("single-step", sup.matrix),
        ("half-identity-mix", 0.5 * (eye + sup.matrix)),
        ("two-step", sup.matrix @ sup.matrix),
    ]
    for name, matrix in maps:
        d = ch.dim_in
        applier = lambda x, m=matrix: (m @ x.reshape(-1, order="F")).reshape((d, d), order="F")
        report = sampled_preservation_check(code, ch, tol=tol, apply_map=applier)
        if not report:
            return NoiselessReport(verdict=False, failing_map=name, sample=report)
    return NoiselessReport(verdict=True, failing_map=None,
                           sample=PreservationReport(True, None, 0.0, 0.0))


def is_correctable_via_transpose(code: Code, ch: QuantumChannel,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> CorrectabilityReport:
    """Whether the transpose recovery over the code support makes the code
    noiseless again.  This coincides with preservation: any code whose
    distinguishability survives the channel is restored by this one fixed
    recovery map, so a negative verdict here is a genuine counterexample."""
    p = code_support(code, tol)
    recovery = transpose_channel(ch, p, tol=tol)
    composite = compose(recovery, ch, tol=tol)
    report = is_noiseless(code, composite, tol=tol)
    return CorrectabilityReport(
        verdict=report.verdict,
        recovery=recovery,
        support_projector=p,
        noiseless=report,
    )


def is_preserved(code: Code, ch: QuantumChannel,
                 tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Whether the code's distinguishability structure survives the channel.

    Combines the sampled refutation (pairs and mixtures of up to three
    listed states over a weight grid) with the structural certificate that
    the transpose recovery restores the code.  A positive verdict requires
    both; a violation from either is returned with its witness.
    """
    sampled = sampled_preservation_check(code, ch, tol=tol)
    if not sampled:
        return sampled
    structural = is_correctable_via_transpose(code, ch, tol=tol)
    if structural.verdict:
        return sampled
    inner = structural.noiseless.sample
    return PreservationReport(
        verdict=False,
        worst_pair=inner.worst_pair,
        distance_before=inner.distance_before,
        distance_after=inner.distance_after,
    )


# ---------------------------------------------------------------------------
# explicit recovery construction
# ---------------------------------------------------------------------------

def _replace_factor_kraus(sector_iso: np.ndarray, d: int, n: int,
                          mu: np.ndarray) -> list[np.ndarray]:
    """Kraus operators for "trace out the cofactor, install ``mu``" on one
    sector, embedded in the ambient space."""
    w, v = np.linalg.eigh((mu + mu.conj().T) / 2.0)
    ops = []
    for m_idx in range(n):
        lam = max(float(w[m_idx]), 0.0)
        if lam == 0.0:
            continue
        target = np.sqrt(lam) * v[:, m_idx]
        for i in range(n):
            basis_vec = np.zeros(n)
            basis_vec[i] = 1.0
            block = np.kron(np.eye(d), np.outer(target, basis_vec))
            ops.append(sector_iso @ block @ sector_iso.conj().T)
    return ops


def build_fixing_recovery(code: Code, ch: QuantumChannel,
                          tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
    """A recovery whose composition with the channel *fixes* the code states.

    The transpose recovery only restores the information-bearing factors;
    the noise-full cofactors still relax toward the structure's own states.
    This routine reads the cofactor states ``mu_k`` the code actually uses
    and appends a gauge reset that reinstalls them, so that
    ``R(E(rho)) = rho`` for every code state.

    Raises:
        ValidationError: if the code is not correctable in the first place.
        NumericalError: if the assembled recovery misses the 1e-7 residual
            contract (indicating the code lacked common cofactor states).
    """
    corr = is_correctable_via_transpose(code, ch, tol=tol)
    if not corr:
        raise ValidationError("code is not preserved; no fixing recovery exists")
    p = corr.support_projector
    composite = compose(corr.recovery, ch, tol=tol)
    structure = noiseless_structure(composite, tol=tol)

    # read the cofactor state each sector carries in the code
    mus = []
    for sector, tau in zip(structure.algebra.sectors, structure.distortion_states):
        mu = None
        for state in code.states:
            m = sector.isometry.conj().T @ state @ sector.isometry
            weight = float(np.real(np.trace(m)))
            if weight < 1e-6:
                continue
            reduced = np.einsum("aiaj->ij", m.reshape(sector.d, sector.n, sector.d, sector.n))
            mu = (reduced + reduced.conj().T) / (2.0 * weight)
            break
        mus.append(mu if mu is not None else tau)

    kraus: list[np.ndarray] = []
    for sector, mu in zip(structure.algebra.sectors, mus):
        kraus.extend(_replace_factor_kraus(sector.isometry, sector.d, sector.n, mu))

    # route anything outside the support to a fixed default state so the
    # reset map is trace preserving on the whole space (never exercised by
    # recovered inputs, whose support lies inside P)
    d = ch.dim_in
    comp = np.eye(d) - structure.support_projector
    comp_rank = int(round(float(np.real(np.trace(comp)))))
    if comp_rank > 0:
        first = structure.algebra.sectors[0]
        default = first.isometry @ np.kron(np.eye(first.d) / first.d, mus[0]) \
            @ first.isometry.conj().T
        w, v = np.linalg.eigh((default + default.conj().T) / 2.0)
        comp_basis = np.linalg.eigh(comp)[1][:, -comp_rank:]
        for m_idx in range(d):
            lam = max(float(w[m_idx]), 0.0)
            if lam == 0.0:
                continue
            target = np.sqrt(lam) * v[:, m_idx]
            for i in range(comp_rank):
                kraus.append(np.outer(target, comp_basis[:, i].conj()))

    reset = channel_from_kraus(kraus, tol=tol)
    recovery = compose(reset, corr.recovery, tol=tol)

    worst = 0.0
    for state in code.states:
        restored = apply_channel(recovery, apply_channel(ch, state))
        worst = max(worst, trace_norm(restored - state))
    if worst > 1e-7:
        raise NumericalError(
            "assembled recovery does not fix the code states",
            residuals={"worst_state_residual": worst},
        )
    return recovery
