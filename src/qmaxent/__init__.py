"""Maximum-Tsallis-entropy inference of two-qubit states from Bell-CHSH data.

numpy is imported inside the functions that build arrays, and scipy only inside
the general oracle's solver call, so the scalar closed form and the CLI commands
built on it (``infer``, ``mutual``, ``thermo`` and split ``verify``) load neither;
``tests/test_imports.py`` checks this.
"""

from .errors import (
    BOutOfRange,
    BoundaryDivergence,
    BudgetExhausted,
    ConstraintError,
    DimensionError,
    EmptyGrid,
    FloatRangeExceeded,
    NegativeBracket,
    NotHermitian,
    QOutOfDomain,
    QmaxentError,
    SigmaOutOfRange,
    SingularReference,
    StencilOutOfDomain,
    SupportMismatch,
    UncertaintyViolated,
)
from .smallmat import (
    Spectrum,
    hermitian_eigen,
    kron,
    partial_trace,
    partial_transpose,
    validate_density_matrix,
)
from .bell import (
    B_MAX,
    ChshOperators,
    bell_projectors,
    bell_state,
    chsh_operator,
    chsh_squared,
    pauli,
)
from .inference import (
    ConstraintSet,
    EscortWeights,
    InferredState,
    MuFactors,
    Multipliers,
    escort_weights,
    fixed_point_residual,
    infer_state,
    lagrange_multipliers,
    mu_factors,
    to_density_matrix,
    validate_constraints,
)
from .measures import (
    MutualEntropyResult,
    generalized_kl,
    marginals,
    mutual_entropy,
    mutual_entropy_closed_form,
    mutual_entropy_of_state,
    q_expectation,
    tsallis_entropy,
)
from .entangle import (
    RegionGrid,
    Verdict,
    area_fraction,
    criterion_verdict,
    ppt_verdict,
    scan_region,
)
from .thermo import (
    LegendreReport,
    PurificationPath,
    ThermoPoint,
    entropy_of_state,
    free_energy,
    legendre_report,
    purification_path_check,
)
from .oracle import (
    OracleResult,
    compare_states,
    maxent_general_oracle,
    maxent_split_oracle,
)

__version__ = "0.1.0"
