"""Finite-horizon single-pull restless bandits.

Occupancy-measure LP relaxations solved by one direct call into the HiGHS
simplex that scipy ships (the dual simplex for the vertex SPI and meanfield
read, the primal simplex for the bound, which reads only the duals), the
SPI index policy and baselines, a constraint-enforcing simulator, exact
small-instance oracles, and experiment domains.
"""

from .model import (
    ArmModel,
    ArmTables,
    Instance,
    expand_with_dummies,
    load_instance,
    save_instance,
    validate_arm,
    validate_instance,
)
from .lp import (
    DUMMY,
    MEAN_FIELD,
    SPRMAB_LP,
    LpProblem,
    LpSolution,
    build_occupancy_lp,
    solve_lp,
    upper_bound,
)
from .whittle import (
    IndexTable,
    NonConvergent,
    NotIndexable,
    q_difference_indices,
    whittle_index_finite,
    whittle_index_infinite,
)
from .policies import (
    POLICY_NAMES,
    compute_chi,
    greedy_orders,
    make_policy,
    mean_field_orders,
    random_select,
    spi_indices,
    spi_orders,
)
from .simulator import (
    EpisodeResult,
    InfeasibleAction,
    Summary,
    evaluate,
    run_episode,
    step,
)
from .oracle import CapExceeded, exact_optimum, exact_policy_value
from .domains import (
    CPAP,
    EHRENFEST,
    MHMH,
    RANDOM,
    DomainSpec,
    make_instance,
    make_models,
)
from .simplex import SolverStall

__version__ = "0.1.0"
