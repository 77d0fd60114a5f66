"""Codes (finite sets of density operators) and the preservation hierarchy.

A code is preserved when every weighted distinguishability is unchanged by
the channel, i.e. ``|| E(p rho - (1-p) sigma) ||_1 = || p rho - (1-p) sigma
||_1`` over the convex closure of the code.  Sampling weighted pairs can only
refute this, so the authoritative positive certificate is structural: the
code must sit inside a structure that the transpose-channel recovery makes
noiseless again.  Every sweep level reports a :class:`PreservationReport`:
the verdict, and a witness pair when it is refuted.

Hierarchy: fixed implies noiseless implies preserved, and preserved is
equivalent to correctable via the transpose recovery.  The noiseless check
samples the time average ``P`` alone: for trace non-increasing ``E``, ``P o F
= P`` and so ``||P X||_1 <= ||F X||_1`` for any mixture ``F`` of powers of ``E``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import _embed
from .channels import (
    QuantumChannel,
    apply_channel,
    apply_superoperator,
    channel_from_kraus,
    compose,
    projector_onto_support,
)
from .errors import NumericalError, ValidationError
from .spectral import fixed_space
from .structures import _partial_trace_factor, noiseless_structure, transpose_channel
from .tolerances import (CODE_MIN_EIG, CODE_STATE, COFACTOR_WEIGHT, DEFAULT_TOL,
                         RECOVERY_RESIDUAL, ToleranceConfig)

__all__ = [
    "Code",
    "MixtureLabel",
    "PreservationReport",
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
# weights
P_GRID = tuple([0.0] + [round(0.1 * k, 1) for k in range(1, 10)] + [1.0])
# mixtures of two and of three listed states: every weight tuple from the
# quarter grid {1/4, 1/2, 3/4} that sums to one, in lexicographic order
_MIXTURE_WEIGHTS = {2: ((0.25, 0.75), (0.5, 0.5), (0.75, 0.25)),
                    3: ((0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.5, 0.25, 0.25))}

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
            if not np.all(np.isfinite(s)):
                raise ValidationError(f"state {i} has non-finite entries")
            if np.max(np.abs(s - s.conj().T)) > CODE_STATE:
                raise ValidationError(f"state {i} is not Hermitian")
            w = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
            if w.min() < CODE_MIN_EIG:
                raise ValidationError(f"state {i} has negative eigenvalue {w.min():.3e}")
            tr = float(np.real(np.trace(s)))
            if abs(tr - 1.0) > CODE_STATE:
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
class CorrectabilityReport:
    verdict: bool
    recovery: QuantumChannel
    noiseless: PreservationReport

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), "nuc"))


def _batched_trace_norm(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices in one LAPACK sweep.

    For a Hermitian matrix the singular values are the moduli of the
    eigenvalues, so the norm is the sum of ``|eigvalsh|``, which costs less
    than a batched SVD.  The stack must be Hermitian: ``eigvalsh`` reads
    one triangle only, so a non-Hermitian input would be measured by a
    matrix it is not.  Callers check this (see :func:`_hermitian_stack`);
    the stack is symmetrized as ``(X + X^dag)/2`` here to drop rounding.
    """
    if stack.shape[0] == 0:
        return np.zeros(0)
    herm = stack + stack.conj().swapaxes(-1, -2)
    herm *= 0.5
    return np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


def _hermitian_stack(ops: Sequence[np.ndarray], what: str,
                     tol: ToleranceConfig) -> np.ndarray:
    """Stack operators for the trace-norm sweep, refusing any whose
    anti-Hermitian part ``(X - X^dag)/2`` has an entry above
    ``tol.equality``."""
    stack = np.stack(ops)
    skew = float(np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)))) / 2.0
    if not skew <= tol.equality:
        raise ValidationError(
            f"{what} is not Hermitian (anti-Hermitian part {skew:.3e}); the "
            "weighted-distance check measures Hermitian operators only"
        )
    return stack


def helstrom_probability(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Optimal success probability for discriminating ``rho`` (prior ``p``)
    from ``sigma`` (prior ``1-p``) with a single measurement."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"prior must lie in [0, 1], got {p}")
    return 0.5 * (1.0 + trace_norm(p * np.asarray(rho) - (1.0 - p) * np.asarray(sigma)))


def code_support(code: Code) -> np.ndarray:
    """Projector onto the union of the code states' supports."""
    acc = np.zeros((code.dim, code.dim), dtype=complex)
    for s in code.states:
        acc += s
    return projector_onto_support(acc)


# ---------------------------------------------------------------------------
# sampled weak-condition checks
# ---------------------------------------------------------------------------

def _mixtures(code: Code) -> list[tuple[MixtureLabel, np.ndarray]]:
    """Listed states plus mixtures of two and of three of them whose weights
    come from the quarter grid and sum to one."""
    out: list[tuple[MixtureLabel, np.ndarray]] = [
        (((i, 1.0),), s) for i, s in enumerate(code.states)
    ]
    for size, grid in _MIXTURE_WEIGHTS.items():
        for subset in itertools.combinations(range(len(code.states)), size):
            for ws in grid:
                state = sum(w * code.states[i] for w, i in zip(ws, subset))
                out.append((tuple(zip(subset, ws)), state))
    return out


@dataclass(frozen=True)
class _PairSweep:
    """The weighted pairs of one check, with their trace norms before any
    map (see :func:`_weighted_norms` for the layout of ``before``)."""

    labels: list[MixtureLabel]
    states: np.ndarray
    before: np.ndarray


def _weighted_norms(states: np.ndarray) -> np.ndarray:
    """``|| p X_i - (1-p) X_j ||_1`` with one row per pair ``i < j``, in
    ``np.triu_indices`` order, and one column per prior ``p`` in ``P_GRID``."""
    ii, jj = np.triu_indices(len(states), k=1)
    ps = np.asarray(P_GRID)
    d = states.shape[1]
    out = np.empty((ii.size, ps.size))
    w = ps[None, :, None, None]
    # chunk the pair axis so the stacked difference arrays stay modest
    chunk = max(1, int(2_000_000 // max(1, ps.size * d * d)))
    for start in range(0, ii.size, chunk):
        sel = slice(start, start + chunk)
        diff = w * states[ii[sel]][:, None] - (1.0 - w) * states[jj[sel]][:, None]
        out[sel] = _batched_trace_norm(diff.reshape(-1, d, d)).reshape(-1, ps.size)
    return out


def _pair_sweep(code: Code, tol: ToleranceConfig) -> _PairSweep:
    collection = _mixtures(code)
    states = _hermitian_stack([s for _, s in collection], "code state", tol)
    return _PairSweep(labels=[lab for lab, _ in collection], states=states,
                      before=_weighted_norms(states))


def _compare(sweep: _PairSweep, apply_map: Callable[[np.ndarray], np.ndarray],
             tol: ToleranceConfig) -> PreservationReport:
    """Map every state of the sweep and report the pair whose distance drops
    most, if that drop exceeds ``tol.subspace``.  ``apply_map`` must preserve
    Hermiticity: a mapped state with an anti-Hermitian part above
    ``tol.equality`` raises :class:`ValidationError` rather than being
    measured by its Hermitian part alone."""
    mapped = _hermitian_stack([apply_map(s) for s in sweep.states], "mapped state", tol)
    after = _weighted_norms(mapped)
    drops = sweep.before - after
    if drops.size == 0 or drops.max() <= tol.subspace:
        return PreservationReport(verdict=True, worst_pair=None,
                                  distance_before=0.0, distance_after=0.0)
    # the witness is the first pair in sweep order among those whose drops
    # tie with the largest up to rounding; the verdict used the exact maximum
    k, p_k = np.unravel_index(int(np.argmax(np.round(drops, 12))), drops.shape)
    ii, jj = np.triu_indices(len(sweep.labels), k=1)
    return PreservationReport(
        verdict=False,
        worst_pair=(sweep.labels[ii[k]], sweep.labels[jj[k]], P_GRID[p_k]),
        distance_before=float(sweep.before[k, p_k]),
        distance_after=float(after[k, p_k]),
    )


def sampled_preservation_check(code: Code, ch: QuantumChannel,
                               tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Search for a weighted pair whose distinguishability shrinks.

    The sweep compares every pair of listed states and quarter-grid mixtures
    at every prior in ``P_GRID``.  This is a refutation procedure: passing
    it does not certify preservation (that needs the structural route in
    :func:`is_preserved`), but any violation it finds is real.
    """
    if ch.dim_in != code.dim:
        raise ValidationError("code dimension does not match channel input")
    return _compare(_pair_sweep(code, tol), lambda x: apply_channel(ch, x), tol)


def is_fixed(code: Code, ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether every code state satisfies ``E(rho) = rho``."""
    if ch.dim_in != code.dim:
        raise ValidationError("code dimension does not match channel input")
    if not ch.is_square:
        return False
    residuals = _hermitian_stack([apply_channel(ch, s) - s for s in code.states],
                                 "fixed-point residual", tol)
    return bool(_batched_trace_norm(residuals).max() <= tol.equality)


def is_noiseless(code: Code, ch: QuantumChannel,
                 tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Whether distinguishability survives arbitrarily many applications.

    The time average ``P`` (the Cesaro limit of ``E^n``) decides it alone,
    through the sampled weighted-distance check.  For CP trace non-increasing
    ``E``, ``P`` is CP and trace non-increasing and ``P o F = P`` for every
    mixture of powers ``F`` (``E``, ``E^2``, ``(1 + E)/2``), so each sweep
    operator has ``||P X||_1 = ||P(F X)||_1 <= ||F X||_1``: no ``F`` drops a
    distance further than ``P``.  A map whose ``sum K^dag K`` has an
    eigenvalue above ``1 + tol.equality``, plus a rounding allowance of
    ``len(kraus) * dim * eps`` for the sum, raises :class:`ValidationError`.
    """
    if not ch.is_square:
        raise ValidationError("noiseless check requires a square channel")
    if ch.dim_in != code.dim:
        raise ValidationError("code dimension does not match channel input")
    gain = float(np.linalg.eigvalsh(sum(k.conj().T @ k for k in ch.kraus))[-1])
    rounding = len(ch.kraus) * ch.dim_in * np.finfo(float).eps
    if not gain <= 1.0 + tol.equality + rounding:
        raise ValidationError("noiseless check requires a trace non-increasing map "
                              f"(sum K^dag K has eigenvalue {gain:.12g})")
    avg = fixed_space(ch, tol).projector
    return _compare(_pair_sweep(code, tol), lambda x: apply_superoperator(avg, x), tol)


def is_correctable_via_transpose(code: Code, ch: QuantumChannel,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> CorrectabilityReport:
    """Whether the transpose recovery over the code support makes the code
    noiseless again.  This coincides with preservation: any code whose
    distinguishability survives the channel is restored by this one fixed
    recovery map, so a negative verdict here is a genuine counterexample."""
    if ch.dim_in != code.dim:
        raise ValidationError("code dimension does not match channel input")
    p = code_support(code)
    recovery = transpose_channel(ch, p, tol=tol)
    composite = compose(recovery, ch, tol=tol)
    report = is_noiseless(code, composite, tol=tol)
    return CorrectabilityReport(verdict=report.verdict, recovery=recovery, noiseless=report)


def is_preserved(code: Code, ch: QuantumChannel,
                 tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Whether the code's distinguishability structure survives the channel.

    The structural stage decides the verdict: the transpose recovery ``R``
    must make the code noiseless for ``R o E``
    (:func:`is_correctable_via_transpose`).  The sampled sweep of ``E``
    (:func:`sampled_preservation_check`) runs first only to supply the
    witness that a refuted code reports, a pair whose distance drops under
    ``E`` itself; it never refutes a code that the structural stage passes.
    Proof: ``R`` (``sum R^dag R = Pi <= 1``) and the time average ``P`` of
    ``R o E`` are positive and trace non-increasing, and ``P o (R o E) =
    P``, so for every sweep operator ``||P X||_1 = ||P R (E X)||_1 <= ||E
    X||_1``: the drop under ``E`` is at most the drop under ``P`` at every
    sweep point.
    """
    sampled = sampled_preservation_check(code, ch, tol=tol)
    if not sampled:
        return sampled
    return is_correctable_via_transpose(code, ch, tol=tol).noiseless


# ---------------------------------------------------------------------------
# explicit recovery construction
# ---------------------------------------------------------------------------

def _preparation_kraus(state: np.ndarray, inputs: np.ndarray) -> list[np.ndarray]:
    """Kraus operators ``sqrt(lam) |v><b|`` of "discard, prepare ``state``"
    on the span of the orthonormal columns ``b`` of ``inputs``, over the
    eigenpairs ``(lam, v)`` of ``state`` with ``lam > 0``."""
    w, v = np.linalg.eigh((state + state.conj().T) / 2.0)
    return [np.outer(np.sqrt(lam) * v[:, m], b.conj())
            for m, lam in enumerate(w) if lam > 0.0 for b in inputs.T]


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
        NumericalError: if the assembled recovery misses the ``RECOVERY_RESIDUAL``
            contract (indicating the code lacked common cofactor states).
    """
    corr = is_correctable_via_transpose(code, ch, tol=tol)
    if not corr:
        raise ValidationError("code is not preserved; no fixing recovery exists")
    composite = compose(corr.recovery, ch, tol=tol)
    structure = noiseless_structure(composite, tol=tol)

    # read the cofactor state each sector carries in the code
    mus = []
    for sector, tau in zip(structure.algebra.sectors, structure.distortion_states):
        mu = None
        for state in code.states:
            reduced = _partial_trace_factor(sector, state)
            weight = float(np.real(np.trace(reduced)))
            if weight < COFACTOR_WEIGHT:
                continue
            mu = (reduced + reduced.conj().T) / (2.0 * weight)
            break
        mus.append(mu if mu is not None else tau)

    # per sector: trace out the cofactor and install mu
    kraus: list[np.ndarray] = []
    for sector, mu in zip(structure.algebra.sectors, mus):
        kraus.extend(_embed(sector.isometry, np.eye(sector.d), k)
                     for k in _preparation_kraus(mu, np.eye(sector.n)))

    # route anything outside the support to a fixed default state so the
    # reset map is trace preserving on the whole space (never exercised by
    # recovered inputs, whose support lies inside P)
    comp = np.eye(ch.dim_in) - structure.support_projector
    comp_rank = int(round(float(np.real(np.trace(comp)))))
    if comp_rank > 0:
        first = structure.algebra.sectors[0]
        default = _embed(first.isometry, np.eye(first.d) / first.d, mus[0])
        kraus.extend(_preparation_kraus(default, np.linalg.eigh(comp)[1][:, -comp_rank:]))

    reset = channel_from_kraus(kraus, tol=tol)
    recovery = compose(reset, corr.recovery, tol=tol)

    residuals = _hermitian_stack(
        [apply_channel(recovery, apply_channel(ch, s)) - s for s in code.states],
        "recovery residual", tol)
    worst = float(_batched_trace_norm(residuals).max())
    if worst > RECOVERY_RESIDUAL:
        raise NumericalError(
            "assembled recovery does not fix the code states",
            residuals={"worst_state_residual": worst},
        )
    return recovery
