"""Every numerical threshold of the package, in one module.

Two thresholds decide verdicts and can be chosen per call: ``equality`` and
``subspace`` of a :class:`ToleranceConfig`.  Functions that read either one
take an optional ``tol`` argument and fall back to :data:`DEFAULT_TOL`; on
the command line ``--tol`` replaces both, and every report records them.

Every other cut is a module constant below, the same for every call, with a
line on what it decides.  These cut ranks, eigenvalue clusters, couplings
and input validation: they decide which structure is found, not how
strictly a verdict is judged.
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

# numerical rank: values below this times the largest are zero.  One routine,
# channels._psd_support, cuts every PSD operator; the other users are
# spectral.operator_space_from_span on a span's singular values and the null
# space of algebra.commutant, beside a tol.subspace floor
RANK_REL = 1e-10
PROJECTOR = 1e-10  # entrywise Hermiticity and idempotency of an orthogonal projector
PERIPHERAL = 1e-8  # |lambda - 1| (or ||lambda| - 1|) below this: fixed (or peripheral)
SPECTRAL_GAP = 1e-6  # least gap between the unit circle and the interior spectrum
INVERSE_SHIFT = 1e-12  # delta of the certified solve's M - (1 + delta) I: amplifies lambda = 1 by 1/delta
INVERSE_CUT = 1e-3  # a direction it amplifies by more than this / delta joins the lambda = 1 cluster
CERTIFIED_RESIDUAL = 1e-10  # ||MR - R||_F and ||M^T L - L||_F / ||L||_2 up to this: the cluster holds
SQUARINGS = 8  # squarings of M - R L^T that may prove the rest of the spectrum inside the gap
SELF_ADJOINT = 1e-12  # ||M - M^T||_F up to this: a symmetric eigensolve, off by at most this
PAIRING_CONDITION = 1e12  # largest condition of the fixed-space right/left pairing
CLUSTER_REL = 1e-7  # eigenvalue cluster width relative to a generic element's spread, absolute below spread 1
SECTOR_TIE_DIGITS = 6  # decimals of the projector entries that order sectors of one shape
BASIS_ORTHONORMAL = 1e-8  # entrywise orthonormality of an operator-space basis
TRANSPORT_REL = 1e-8  # row transport: least singular value over the largest; cluster link: block over ||g||_F
TRANSPORT_FLOOR = 1e-30  # floor of that largest value, so a zero block is deficient
TAU_TRACE = 1e-6  # a distortion state read through the projector has trace 1 to this
TAU_MIN_EIG = -1e-9  # and no eigenvalue below this
FIXED_STATE_RESIDUAL = 1e-6  # structure states move at most this under the analyzed map
CODE_STATE = 1e-9  # a code state is Hermitian entrywise and has trace 1, each to this
CODE_MIN_EIG = -1e-10  # and no eigenvalue below this
COFACTOR_WEIGHT = 1e-6  # a lighter cofactor part of a code state is rounding, not a state
RECOVERY_RESIDUAL = 1e-7  # a fixing recovery restores each code state to this trace distance
SWEEP_COMPRESSION = 1e-12  # a sweep reads its states in sector blocks if that moves none further
WITNESS_TIE_DIGITS = 12  # decimals at which sweep drops tie: the first tied pair is the witness
STOCHASTIC = 1e-12  # a stochastic matrix: no entry below minus this, column sums 1 to this
OVERLAP_EPS = 1e-12  # inputs are confusable when both reach an output above this
