"""Block coordinate descent with a diminishing search radius.

Core pieces: dense tensor kernels (:mod:`drbcd.tensors`), the weight/radius
schedule (:mod:`drbcd.schedule`), the box-and-ball quadratic sub-solver
(:mod:`drbcd.subsolver`), the sweep driver with trace diagnostics
(:mod:`drbcd.driver`), the nonnegative factorization problem and baselines
(:mod:`drbcd.factorization`), deterministic data generation
(:mod:`drbcd.datagen`), and the benchmark harness (:mod:`drbcd.experiment`)
with its CLI (:mod:`drbcd.cli`).
"""

from .datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from .driver import (
    BlockProblem,
    CheckOutcome,
    SolverConfig,
    TraceRecord,
    TraceVerification,
    bcd_dr_sweep,
    classify_point,
    run,
    stationarity_measure,
    verify_trace,
)
from .factorization import (
    FactorModel,
    NtfProblem,
    init_factors,
    mu_sweep,
    run_mu,
)
from .schedule import RadiusSchedule
from .subsolver import (
    BlockSolveResult,
    BoxBallFeasibleSet,
    ProjectionResult,
    QuadraticBlockSubproblem,
    lipschitz_estimate,
    project_ball,
    project_box_ball,
    solve_block_qp,
)
from .tensors import (
    frobenius_norm,
    khatri_rao,
    mttkrp,
    read_ntf1,
    unfold,
    write_ntf1,
)

__version__ = "0.1.0"

__all__ = [
    "BlockProblem",
    "BlockSolveResult",
    "BoxBallFeasibleSet",
    "CheckOutcome",
    "FactorModel",
    "NtfProblem",
    "ProjectionResult",
    "QuadraticBlockSubproblem",
    "RadiusSchedule",
    "SolverConfig",
    "SynthSpec",
    "TraceRecord",
    "TraceVerification",
    "bcd_dr_sweep",
    "classify_point",
    "frobenius_norm",
    "init_factors",
    "khatri_rao",
    "lipschitz_estimate",
    "mttkrp",
    "mu_sweep",
    "project_ball",
    "project_box_ball",
    "read_ntf1",
    "run",
    "run_mu",
    "solve_block_qp",
    "sparse_surrogate",
    "stationarity_measure",
    "synthetic_lowrank",
    "unfold",
    "verify_trace",
    "write_ntf1",
    "__version__",
]
