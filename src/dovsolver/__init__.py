"""Direct operational-vector solver for nonlinear Volterra integral
equations of the first kind on Chebyshev and hybrid block-pulse/Chebyshev
bases."""

from .basis import (
    BasisSpec,
    CoeffVector,
    Interval,
    chebyshev_eval,
    eval_series,
    hcp_eval,
    project,
)
from .expr import EvalError, ParseError, evaluate, parse, unparse
from .opalg import integration_matrix, kernel_matrix, product_matrix
from .oracle import (
    Grid,
    quad_adaptive,
    residual_linf,
    uniform_grid,
    validate_integration_matrix,
    weighted_l2_error,
)
from .solver import (
    Collocation,
    Derivative,
    Diagnostics,
    Invertible,
    Polynomial,
    Problem,
    Solution,
    SolveOptions,
    SolverError,
    assemble_linear_map,
    newton_solve,
    scalar_invert,
    solve,
)

__version__ = "0.1.0"
