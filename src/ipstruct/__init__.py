"""Zero-error structure analysis of quantum and classical channels.

The package answers three questions about a finite-dimensional channel:

* which operator structures pass through it without loss (noiseless,
  unitarily noiseless, or unconditionally preserved), and with what
  matrix-algebra shape;
* whether a given code of density operators is fixed, preserved, noiseless
  or correctable, and how to build the transpose recovery that corrects it;
* for classical stochastic maps, which symbol sets form maximum zero-error
  codes.
"""

from .tolerances import DEFAULT_TOL, ToleranceConfig
from .errors import DecompositionError, NumericalError, ValidationError
from .channels import (
    CptpReport,
    QuantumChannel,
    StochasticChannel,
    Superoperator,
    adjoint,
    apply_channel,
    apply_superoperator,
    channel_from_kraus,
    choi_matrix,
    compose,
    embed_classical,
    is_cptp,
    is_unital,
    restrict_to_subspace,
    to_superoperator,
    unvec,
    vec,
)
from .spectral import (
    OperatorSpace,
    SpectralSpace,
    fixed_space,
    rotating_space,
    subspace_distance,
)
from .algebra import (
    AlgebraDecomposition,
    Sector,
    canonical_decompose,
    verify_decomposition,
)
from .structures import (
    FixedPointStructure,
    InitializationFreeReport,
    fixed_point_structure,
    initialization_free_check,
    noiseless_structure,
    transpose_channel,
    unconditional_recovery,
    unconditional_structure,
    unitarily_noiseless_structure,
)
from .codes import (
    Code,
    CorrectabilityReport,
    PreservationReport,
    build_fixing_recovery,
    helstrom_probability,
    is_correctable_via_transpose,
    is_fixed,
    is_noiseless,
    is_preserved,
    sampled_preservation_check,
    trace_norm,
)
from .classical import (
    Graph,
    adjacency_graph,
    graph_to_channel,
    max_zero_error_code,
    maximum_independent_sets,
)
from . import serialization, zoo

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "ToleranceConfig",
    "ValidationError",
    "NumericalError",
    "DecompositionError",
    "QuantumChannel",
    "StochasticChannel",
    "Superoperator",
    "CptpReport",
    "vec",
    "unvec",
    "channel_from_kraus",
    "to_superoperator",
    "apply_channel",
    "apply_superoperator",
    "adjoint",
    "compose",
    "choi_matrix",
    "is_cptp",
    "is_unital",
    "restrict_to_subspace",
    "embed_classical",
    "OperatorSpace",
    "SpectralSpace",
    "fixed_space",
    "rotating_space",
    "subspace_distance",
    "AlgebraDecomposition",
    "Sector",
    "canonical_decompose",
    "verify_decomposition",
    "FixedPointStructure",
    "InitializationFreeReport",
    "transpose_channel",
    "unconditional_recovery",
    "noiseless_structure",
    "unitarily_noiseless_structure",
    "unconditional_structure",
    "fixed_point_structure",
    "initialization_free_check",
    "Code",
    "PreservationReport",
    "CorrectabilityReport",
    "trace_norm",
    "helstrom_probability",
    "sampled_preservation_check",
    "is_fixed",
    "is_preserved",
    "is_noiseless",
    "is_correctable_via_transpose",
    "build_fixing_recovery",
    "Graph",
    "adjacency_graph",
    "max_zero_error_code",
    "maximum_independent_sets",
    "graph_to_channel",
    "serialization",
    "zoo",
    "__version__",
]
