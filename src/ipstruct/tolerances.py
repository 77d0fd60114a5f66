"""Every numerical threshold of the package, in one module.

Two thresholds decide verdicts and can be chosen per call: ``equality`` and
``subspace`` of a :class:`ToleranceConfig`.  Functions that read either one
take an optional ``tol`` argument and fall back to :data:`DEFAULT_TOL`; on
the command line ``--tol`` replaces both, and every report records them.

Every other cut is a module constant below, the same for every call, with a
line on what it decides.  These cut ranks, eigenvalue clusters, integer
dimensions and input validation: they decide which structure is found, not
how strictly a verdict is judged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """The two verdict thresholds that ``--tol`` sets.

    Attributes:
        equality: absolute tolerance for equality of unit-normalized
            quantities (trace residuals, state comparisons, ...).
        subspace: residual threshold for span membership, algebra closure
            and subspace-reconstruction checks.
    """

    equality: float = 1e-9
    subspace: float = 1e-8

    def with_user_tolerance(self, value: float) -> "ToleranceConfig":
        """Copy with both fields replaced by ``value``, as ``--tol`` does.

        The module constants are not affected.  A value that is not
        positive and finite raises :class:`ValueError`.
        """
        if not 0 < value < float("inf"):
            raise ValueError(f"tolerance must be positive and finite, got {value}")
        return replace(self, equality=value, subspace=value)


DEFAULT_TOL = ToleranceConfig()

RANK_REL = 1e-10  # numerical rank: values below this times the largest are zero
PROJECTOR = 1e-10  # entrywise Hermiticity and idempotency of an orthogonal projector
PERIPHERAL = 1e-8  # |lambda - 1| (or ||lambda| - 1|) below this: fixed (or peripheral)
SPECTRAL_GAP = 1e-6  # least gap between the unit circle and the interior spectrum
PAIRING_CONDITION = 1e12  # largest condition of the fixed-space right/left pairing
CLUSTER_REL = 1e-7  # eigenvalue cluster width, relative to a generic element's spread
CLUSTER_FLOOR = 1e-12  # absolute floor of that width, for an element of tiny spread
INTEGER_GUARD = 1e-2  # a dimension read from a rank ratio is this close to an integer
BASIS_ORTHONORMAL = 1e-8  # entrywise orthonormality of an operator-space basis
TRANSPORT_REL = 1e-8  # factor-row transport: least singular value over the largest
TRANSPORT_FLOOR = 1e-30  # floor of that largest value, so a zero block is deficient
TAU_TRACE = 1e-6  # a distortion state read through the projector has trace 1 to this
TAU_MIN_EIG = -1e-9  # and no eigenvalue below this
FIXED_STATE_RESIDUAL = 1e-6  # structure states move at most this under the analyzed map
CODE_STATE = 1e-9  # a code state is Hermitian entrywise and has trace 1, each to this
CODE_MIN_EIG = -1e-10  # and no eigenvalue below this
COFACTOR_WEIGHT = 1e-6  # a lighter cofactor part of a code state is rounding, not a state
RECOVERY_RESIDUAL = 1e-7  # a fixing recovery restores each code state to this trace distance
STOCHASTIC = 1e-12  # a stochastic matrix: no entry below minus this, column sums 1 to this
OVERLAP_EPS = 1e-12  # inputs are confusable when both reach an output above this
