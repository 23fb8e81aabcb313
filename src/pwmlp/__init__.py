"""pwmlp: exact construction of single-hidden-layer MLPs that realize
piecewise-constant, piecewise-linear, and piecewise-cubic approximants
of a sampled target on [0, 1], with independent piecewise-polynomial
reference models for verification and convergence-order measurement."""

from .activations import (
    DEFAULT_SLOPE,
    Activation,
    activation_values,
    solve_cubic_coefficients,
)
from .analysis import (
    ConvergenceReport,
    EquivalenceReport,
    ErrorSummary,
    estimate_order,
    measure_error,
    uniform_grid,
    verify_equivalence,
)
from .builders import (
    METHODS,
    CouplingSolution,
    build_network,
    matching_oracle,
    solve_bump_coupling,
)
from .errors import (
    DomainError,
    FormatError,
    NumericalError,
    PwmlpError,
    UsageError,
)
from .grids import KnotGrid, TargetSamples
from .network import (
    Network,
    PiecewiseNetwork,
    compile_network,
    forward_grid,
    load_model,
    save_model,
)
from .oracle import (
    KernelFit,
    KernelKind,
    PiecewiseOracle,
    dense_solve_coupling,
    eval_oracle_grid,
    eval_tensor_product,
    fit_kernel_weights,
    kernel_values,
    reproduction_degree,
    sine_solve_coupling,
)
from .targets import TARGETS, TargetDef, get_target

__version__ = "0.1.0"
