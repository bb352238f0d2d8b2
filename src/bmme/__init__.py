"""Block-alternating Bregman majorization-minimization with extrapolation.

The solver core lives in :mod:`bmme.solver`; :mod:`bmme.bregman` holds the
kernel/divergence primitives and certification helpers. Two ready problem
instances are provided: penalized orthogonal NMF (:mod:`bmme.onmf`) and
exponentially regularized matrix completion (:mod:`bmme.matcomp`).
:mod:`bmme.datakit` generates synthetic data and reads/writes the supported
file formats; :mod:`bmme.verify` contains the independent-oracle self checks.
"""

from .bregman import (
    BlockKernel,
    RelSmoothConstants,
    bregman_divergence,
    check_gradient,
    check_relative_smoothness,
    check_surrogate,
    quadratic_kernel,
)
from .solver import (
    BacktrackingProblem,
    BlockProblem,
    DescentViolation,
    RunResult,
    SolverConfig,
    StopReason,
    SubproblemError,
    Trace,
    initial_state,
    nesterov_next,
    run,
    run_backtracking,
    search_extrapolation,
)

__version__ = "0.1.0"

__all__ = [
    "BacktrackingProblem",
    "BlockKernel",
    "BlockProblem",
    "DescentViolation",
    "RelSmoothConstants",
    "RunResult",
    "SolverConfig",
    "StopReason",
    "SubproblemError",
    "Trace",
    "bregman_divergence",
    "check_gradient",
    "check_relative_smoothness",
    "check_surrogate",
    "initial_state",
    "nesterov_next",
    "quadratic_kernel",
    "run",
    "run_backtracking",
    "search_extrapolation",
    "__version__",
]
