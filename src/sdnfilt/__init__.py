"""Graph filtering and vertex-level inverse filtering on spatially
distributed networks."""

from .filters import (
    GraphFilter,
    Signal,
    SingularValues,
    SpectralEstimate,
    apply,
    build_denoise_filter,
    build_fig1_filter,
    extreme_singular_values,
    laplacians,
    power_spectral_radius,
)
from .graphs import (
    GenerationError,
    Graph,
    knn_graph,
    random_geometric_graph,
)
from .preconditioners import (
    build_pgda_preconditioner,
    build_spgda_preconditioner,
)
from .sdn import MessageLog, RangeViolationError, SdnNetwork
from .solvers import (
    METHODS,
    NumericError,
    SolveTrace,
    SolverConfig,
    direct_solve_oracle,
    imia_diagonal,
    optimal_step,
    solve,
    solve_stack,
    spectral_radius,
)

__version__ = "0.1.0"
