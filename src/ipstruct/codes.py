"""Codes (finite sets of density operators) and the preservation hierarchy.

A :class:`Code` holds its states as one complex ``(m, dim, dim)`` stack.

A code is preserved when every weighted distinguishability is unchanged by
the channel, i.e. ``|| E(p rho - (1-p) sigma) ||_1 = || p rho - (1-p) sigma
||_1`` over the convex closure of the code.  Sampling weighted pairs can only
refute this, so the authoritative positive certificate is structural: the
code must sit inside a structure that the transpose-channel recovery makes
noiseless again.  Every sweep level reports a :class:`PreservationReport`:
the verdict, and a witness pair when it is refuted.

A sweep level first maps the listed states alone.  A code that the map ``F``
moves by ``r = max_a ||F(rho_a) - rho_a||_1 <= tol.subspace`` passes unswept:
a sweep point ``Y = p X_i - (1-p) X_j`` has coefficients of total modulus at
most 1 over the listed states, so it drops by ``||Y||_1 - ||F Y||_1 <= ||Y -
F Y||_1 <= r``.  Otherwise both sides of the sweep are read through one
weight matrix over the listed states: the mixtures are its rows applied to the
states, and their images, by linearity, its rows applied to the images.  Each
side is measured on its joint range when a certificate allows (see
:func:`_weighted_norms`).

Hierarchy: fixed implies noiseless implies preserved, and preserved is
equivalent to correctable via the transpose recovery.  The noiseless check
samples the time average ``P`` alone: for trace non-increasing ``E``, ``P o F
= P`` and so ``||P X||_1 <= ||F X||_1`` for any mixture ``F`` of powers of ``E``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .algebra import _embed, _partial_trace_factor
from .channels import (
    QuantumChannel,
    _psd_support,
    apply_channel,
    channel_from_kraus,
    compose,
    projector_onto_support,
)
from .errors import NumericalError, ValidationError
from .spectral import SpectralSpace, _joint_support, fixed_space
from .structures import _structure_from_space, transpose_channel
from .tolerances import (CODE_MIN_EIG, CODE_STATE, COFACTOR_WEIGHT, DEFAULT_TOL,
                         RECOVERY_RESIDUAL, SWEEP_COMPRESSION, WITNESS_TIE_DIGITS,
                         ToleranceConfig)

__all__ = [
    "Code",
    "MixtureLabel",
    "PreservationReport",
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
P_GRID = tuple(k / 10 for k in range(11))
# mixtures of two and of three listed states: every weight tuple from the
# quarter grid {1/4, 1/2, 3/4} that sums to one, in lexicographic order
_MIXTURE_WEIGHTS = {2: ((0.25, 0.75), (0.5, 0.5), (0.75, 0.25)),
                    3: ((0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.5, 0.25, 0.25))}

# entries per difference stack of a sweep: 256 KB of complex, which fits in L2
_SWEEP_CHUNK = 2**14

# a weighted mixture of listed states: ((state_index, weight), ...)
MixtureLabel = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class Code:
    """A finite set of density operators on a common space, held as the complex
    ``(m, dim, dim)`` stack ``states``; a stack is kept as given."""

    states: np.ndarray
    dim: int

    def __post_init__(self):
        if len(self.states) == 0:
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
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))

    @classmethod
    def from_states(cls, states: np.ndarray | Iterable[np.ndarray]) -> "Code":
        """A code from states of one shape, stacked once in C order; a stack is kept as given."""
        if not isinstance(states, np.ndarray):
            states = [np.asarray(s, dtype=complex) for s in states]
        if len(states) == 0:
            raise ValidationError("code needs at least one state")
        if any(s.ndim != 2 for s in states):
            raise ValidationError("code states must be matrices")
        return cls(states=states, dim=states[0].shape[0])


@dataclass(frozen=True)
class PreservationReport:
    verdict: bool
    worst_pair: tuple[MixtureLabel, MixtureLabel, float] | None
    distance_before: float
    distance_after: float

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _batched_trace_norm(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices in one LAPACK sweep.

    For a Hermitian matrix the singular values are the moduli of the
    eigenvalues, so the norm is the sum of ``|eigvalsh|``, which costs less
    than a batched SVD.  The stack must be Hermitian: ``eigvalsh`` reads
    one triangle only, so a non-Hermitian input would be measured by a
    matrix it is not.  Callers check this (see :func:`_hermitian_stack`);
    the stack is symmetrized as ``(X + X^dag)/2`` here to drop rounding.

    A 2x2 stack ``[[a, b], [b*, d]]`` takes the closed form: its eigenvalues
    ``(a+d)/2 +- hypot((a-d)/2, |b|)`` have moduli summing to ``|a+d|`` if
    they share a sign, else to ``hypot(a-d, 2|b|)``, whichever is larger.
    """
    if stack.shape[-1] == 2:
        a, d = stack[..., 0, 0].real, stack[..., 1, 1].real
        b = np.abs(stack[..., 0, 1] + stack[..., 1, 0].conj()) / 2
        return np.maximum(np.abs(a + d), np.hypot(a - d, 2 * b))
    herm = stack + stack.conj().swapaxes(-1, -2)
    herm *= 0.5
    return np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


def _hermitian_stack(stack: np.ndarray, what: str, tol: ToleranceConfig) -> np.ndarray:
    """Pass a stack to the trace-norm sweep, refusing it if the anti-Hermitian
    part ``(X - X^dag)/2`` of an operator has an entry above ``tol.equality``."""
    skew = float(np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)))) / 2.0
    if not skew <= tol.equality:
        raise ValidationError(
            f"{what} is not Hermitian (anti-Hermitian part {skew:.3e}); the "
            "weighted-distance check measures Hermitian operators only"
        )
    return stack


def code_support(code: Code) -> np.ndarray:
    """Projector onto the union of the code states' supports."""
    return projector_onto_support(np.sum(code.states, axis=0))


# ---------------------------------------------------------------------------
# sampled weak-condition checks
# ---------------------------------------------------------------------------

def _mixtures(code: Code) -> list[MixtureLabel]:
    """The labels of the swept states: the listed states, then the mixtures of
    two and of three of them whose weights come from the quarter grid and sum
    to one."""
    out: list[MixtureLabel] = [((i, 1.0),) for i in range(len(code.states))]
    for size, grid in _MIXTURE_WEIGHTS.items():
        for subset in itertools.combinations(range(len(code.states)), size):
            out.extend(tuple(zip(subset, ws)) for ws in grid)
    return out


def _weighted_norms(states: np.ndarray) -> np.ndarray:
    """``|| p X_i - (1-p) X_j ||_1`` with one row per pair ``i < j``, in
    ``np.triu_indices`` order, and one column per prior ``p`` in ``P_GRID``.

    The stack is first compressed to ``V^dag X V``, ``V`` the isometry onto
    the joint range of its operators (``spectral._joint_support``), when the
    certificate ``r = max_i ||X_i - Pi X_i Pi||_1``, ``Pi = V V^dag``, is at
    most ``SWEEP_COMPRESSION``; otherwise, and when every operator is zero
    (an empty range), it is measured as given.  This moves no value by more
    than ``r``: a sweep point ``Y = p X_i - (1-p) X_j`` has coefficients of
    total modulus 1 over the stack, and
    ``||V^dag Y V||_1 = ||Pi Y Pi||_1``, so ``| ||Y||_1 - ||V^dag Y V||_1 |
    <= ||Y - Pi Y Pi||_1 <= p r + (1-p) r = r``.  The ``p = 0`` and ``p = 1``
    columns are ``||X_j||_1`` and ``||X_i||_1``, read from one norm per
    operator; only the interior priors are measured per pair.
    """
    n, d = states.shape[:2]
    v = _joint_support(states)
    if 0 < v.shape[1] < d:
        pi = v @ v.conj().T
        if _batched_trace_norm(states - pi @ states @ pi).max() <= SWEEP_COMPRESSION:
            states = v.conj().T @ states @ v
    m = states.shape[1]
    single = _batched_trace_norm(states)
    ii, jj = np.triu_indices(n, k=1)
    out = np.empty((ii.size, len(P_GRID)))
    out[:, 0], out[:, -1] = single[jj], single[ii]
    w = np.asarray(P_GRID[1:-1])[None, :, None, None]
    chunk = max(1, _SWEEP_CHUNK // (w.size * m * m))
    for start in range(0, ii.size, chunk):
        sel = slice(start, start + chunk)
        diff = w * states[ii[sel]][:, None] - (1.0 - w) * states[jj[sel]][:, None]
        out[sel, 1:-1] = _batched_trace_norm(diff.reshape(-1, m, m)).reshape(-1, w.size)
    return out


def _displacement(code: Code, images: np.ndarray) -> float:
    """How far a map moves the code: ``max_a ||F(rho_a) - rho_a||_1`` over
    the listed states, from their images."""
    return float(_batched_trace_norm(images - code.states).max())


def _compare(code: Code, apply_map: Callable[[np.ndarray], np.ndarray],
             tol: ToleranceConfig) -> PreservationReport:
    """Report the pair whose distance drops most under the linear map
    ``apply_map`` (given the stack of code states), if that drop exceeds
    ``tol.subspace``, or pass unswept a code that it moves no further (module
    docstring).  A code state or mapped
    state with an anti-Hermitian part above ``tol.equality`` raises
    :class:`ValidationError`."""
    _hermitian_stack(code.states, "code state", tol)
    images = _hermitian_stack(apply_map(code.states), "mapped state", tol)
    if images.shape[-1] != code.dim or _displacement(code, images) > tol.subspace:
        labels = _mixtures(code)
        # row m writes the m-th swept state over the listed states
        weights = np.array([np.bincount(*zip(*lab), len(code.states)) for lab in labels])
        before = _weighted_norms(np.tensordot(weights, code.states, axes=1))
        after = _weighted_norms(np.tensordot(weights, images, axes=1))
        drops = before - after
        if drops.size and drops.max() > tol.subspace:
            # the witness is the first pair in sweep order among those whose drops
            # tie with the largest up to rounding; the verdict used the exact maximum
            k, p_k = np.unravel_index(np.argmax(np.round(drops, WITNESS_TIE_DIGITS)), drops.shape)
            ii, jj = np.triu_indices(len(labels), k=1)
            return PreservationReport(
                verdict=False,
                worst_pair=(labels[ii[k]], labels[jj[k]], P_GRID[p_k]),
                distance_before=float(before[k, p_k]),
                distance_after=float(after[k, p_k]),
            )
    return PreservationReport(verdict=True, worst_pair=None,
                              distance_before=0.0, distance_after=0.0)


def _require_input(code: Code, ch: QuantumChannel) -> None:
    if ch.dim_in != code.dim:
        raise ValidationError("code dimension does not match channel input")


def sampled_preservation_check(code: Code, ch: QuantumChannel,
                               tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Search for a weighted pair whose distinguishability shrinks.

    The sweep compares every pair of listed states and quarter-grid mixtures
    at every prior in ``P_GRID``.  This is a refutation procedure: passing
    it does not certify preservation (that needs the structural route in
    :func:`is_preserved`), but any violation it finds is real.
    """
    _require_input(code, ch)
    return _compare(code, lambda x: apply_channel(ch, x), tol)


def is_fixed(code: Code, ch: QuantumChannel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether every code state satisfies ``E(rho) = rho``."""
    _require_input(code, ch)
    if not ch.is_square:
        return False
    images = apply_channel(ch, code.states)
    _hermitian_stack(images - code.states, "fixed-point residual", tol)
    return _displacement(code, images) <= tol.equality


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
    _require_input(code, ch)
    return _compare(code, _time_average(ch, tol).project, tol)


def _time_average(ch: QuantumChannel, tol: ToleranceConfig) -> SpectralSpace:
    """The guard of :func:`is_noiseless`, then the fixed space, whose ``project`` is P."""
    k = ch.kraus.reshape(-1, ch.dim_in)  # the stacked rows: sum K^dag K is one product
    gain = float(np.linalg.eigvalsh(k.conj().T @ k)[-1])
    rounding = len(ch.kraus) * ch.dim_in * np.finfo(float).eps
    if not gain <= 1.0 + tol.equality + rounding:
        raise ValidationError("noiseless check requires a trace non-increasing map "
                              f"(sum K^dag K has eigenvalue {gain:.12g})")
    return fixed_space(ch)


def _transpose_stage(code: Code, ch: QuantumChannel,
                     tol: ToleranceConfig) -> tuple[QuantumChannel, QuantumChannel]:
    """The transpose recovery ``R`` over the code support, and ``R o E``."""
    _require_input(code, ch)
    recovery = transpose_channel(ch, code_support(code), tol=tol)
    return recovery, compose(recovery, ch)


def is_correctable_via_transpose(code: Code, ch: QuantumChannel,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> PreservationReport:
    """Whether the transpose recovery over the code support makes the code
    noiseless again: :func:`is_noiseless` of ``R o E``.  This coincides with
    preservation: any code whose distinguishability survives the channel is
    restored by this one fixed recovery map, so a negative verdict here is a
    genuine counterexample."""
    return is_noiseless(code, _transpose_stage(code, ch, tol)[1], tol=tol)


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
    sweep point.  A stage whose map moves no listed state by more than
    ``tol.subspace`` passes without a sweep, which bounds every drop by that.
    """
    sampled = sampled_preservation_check(code, ch, tol=tol)
    if not sampled:
        return sampled
    return is_correctable_via_transpose(code, ch, tol=tol)


# ---------------------------------------------------------------------------
# explicit recovery construction
# ---------------------------------------------------------------------------

def _preparation_kraus(state: np.ndarray, inputs: np.ndarray) -> list[np.ndarray]:
    """Kraus operators ``sqrt(lam) |v><b|`` of "discard, prepare ``state``"
    on the span of the orthonormal columns ``b`` of ``inputs``, over the
    eigenpairs ``(lam, v)`` of ``state`` on its support
    (``channels._psd_support``)."""
    w, v = _psd_support(state)
    return [np.outer(np.sqrt(lam) * v[:, m], b.conj())
            for m, lam in enumerate(w) for b in inputs.T]


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
    transpose, composite = _transpose_stage(code, ch, tol)
    space = _time_average(composite, tol)  # one split serves the check and the structure
    if not _compare(code, space.project, tol):
        raise ValidationError("code is not preserved; no fixing recovery exists")
    structure = _structure_from_space(space, composite, "noiseless", 0, tol)

    # read the cofactor state each sector carries in the code
    mus = []
    for sector, tau in zip(structure.algebra.sectors, structure.distortion_states):
        reduced = _partial_trace_factor(sector, code.states)
        weights = np.real(np.trace(reduced, axis1=1, axis2=2))
        i = int(np.argmax(weights >= COFACTOR_WEIGHT))  # the first state that uses the sector
        mus.append((reduced[i] + reduced[i].conj().T) / (2.0 * weights[i])
                   if weights[i] >= COFACTOR_WEIGHT else tau)

    # per sector: trace out the cofactor and install mu
    kraus = [_embed(s.isometry, np.eye(s.d), k) for s, mu in zip(structure.algebra.sectors, mus)
             for k in _preparation_kraus(mu, np.eye(s.n))]

    # route anything outside the support to a fixed default state so the
    # reset map is trace preserving on the whole space (never exercised by
    # recovered inputs, whose support lies inside P); at full rank 1 - P is
    # rounding alone, which a relative cut would keep
    if structure.support_rank < ch.dim_in:
        first = structure.algebra.sectors[0]
        default = _embed(first.isometry, np.eye(first.d) / first.d, mus[0])
        outside = _psd_support(np.eye(ch.dim_in) - structure.support_projector)[1]
        kraus.extend(_preparation_kraus(default, outside))

    reset = channel_from_kraus(kraus)
    recovery = compose(reset, transpose)

    recovered = apply_channel(recovery, apply_channel(ch, code.states))
    residuals = _hermitian_stack(recovered - code.states, "recovery residual", tol)
    worst = float(_batched_trace_norm(residuals).max())
    if worst > RECOVERY_RESIDUAL:
        raise NumericalError(
            "assembled recovery does not fix the code states",
            residuals={"worst_state_residual": worst},
        )
    return recovery
