"""declqr: decide and design completely decentralized LQR state feedback.

Solves continuous-time LQR problems with an eigensolver-free matrix-sign
Riccati solver, tests whether the unconstrained optimal gain respects a given
information pattern, evaluates and synthesizes analytic decentralization
conditions for 2x2, circulant, and second-order block systems, and sweeps
cost/dynamics parameters to map optimal-cost landscapes against the
decentralization loci.
"""

from .decentral import (
    DecentralReport,
    DiagonalCost2x2,
    Verdict,
    circulant_lqr_problem,
    circulant_pair_conditions,
    diagonal_cost_conditions,
    diagonal_riccati_roots,
    find_uniform_gain,
    oracle_check,
    pattern_decentralized,
    position_velocity_neighborhoods,
    single_station_neighborhoods,
    synthesize_diagonal_cost,
    uniform_gain_candidates,
)
from .errors import (
    InputError,
    NonconvergentError,
    ResonantSpectrumError,
    SolverError,
    UnstabilizableError,
)
from .lqr import LqrProblem, closed_loop, solve_lqr
from .matcore import (
    CareResult,
    CareStack,
    bass_stabilizing_gain,
    is_hurwitz,
    solve_care,
    solve_care_stack,
    solve_lyapunov,
)
from .models import (
    ChamberParams,
    ChamberSystem,
    PredatorPreyParams,
    chamber_system,
    diffusion_decentralizing_cost,
    diffusion_operator,
    perf_example_system,
    predator_prey_jacobian,
)
from .secondorder import (
    SecondOrderSolution,
    SecondOrderSystem,
    check_second_order_decentral,
    reduce_and_solve,
)
from .spectral import (
    MAX_RING_SIZE,
    CirculantSpec,
    circulant_eigenvalues,
    circulant_materialize,
    identity_spec,
)
from .sweep import SweepAxis, SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"
