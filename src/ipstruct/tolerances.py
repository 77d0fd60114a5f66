"""Centralized numerical tolerances.

All comparisons in this package go through a single :class:`ToleranceConfig`
value so that every threshold has one home.  Functions accept an optional
``tol`` argument and fall back to :data:`DEFAULT_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance knobs shared across the package.

    Attributes:
        equality: absolute tolerance for equality of unit-normalized
            quantities (trace residuals, state comparisons, ...).
        rank_rel: rank cutoff relative to the largest singular value when
            deciding numerical rank of a matrix.
        subspace: residual threshold for span membership, algebra closure
            and subspace-reconstruction checks.
        peripheral: half-width of the band around the unit circle used to
            classify eigenvalues as peripheral, and the clustering width
            for grouping nearly equal eigenvalues.
        cluster_rel: eigenvalue clustering threshold for algebra
            decompositions, relative to the spectral range of the sampled
            element.
        integer_guard: maximum allowed distance from an integer when a
            dimension is recovered from a numerical rank.
        spectral_gap: minimum separation required between unit-modulus
            eigenvalues and the rest of the spectrum before spectral
            projectors are trusted.
        projector: tolerance for "is this matrix a projector" checks.
    """

    equality: float = 1e-9
    rank_rel: float = 1e-10
    subspace: float = 1e-8
    peripheral: float = 1e-8
    cluster_rel: float = 1e-7
    integer_guard: float = 1e-2
    spectral_gap: float = 1e-6
    projector: float = 1e-10

    def with_user_tolerance(self, value: float) -> "ToleranceConfig":
        """Copy with both user-facing comparison thresholds replaced.

        ``equality`` and ``subspace`` are the thresholds that decide
        verdicts; the internal rank/gap guards are left untouched.
        """
        if not value > 0:
            raise ValueError("tolerance must be positive")
        return replace(self, equality=value, subspace=value)


DEFAULT_TOL = ToleranceConfig()
