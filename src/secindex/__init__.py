"""Security indices for DC power-flow measurement systems.

Computes, exactly and in polynomial time under full measurement, the
minimum number (or cost) of measurements an attacker must corrupt to tamper
with a given measurement while keeping the bad-data-detection residual at
zero. The computation reduces to a minimum cut with costly nodes, solved by
a standard min cut on a tripled auxiliary graph; enumeration oracles verify
the pipeline at desk scale and bound its error on partial placements.
"""

from .costly_cut import (
    CostlyCutInstance,
    CostlyCutSolution,
    build_auxiliary,
    dump_auxiliary,
    evaluate_partition,
    solve,
    solve_brute_force,
    solve_fold_nodes,
    solve_ignore_nodes,
)
from .errors import (
    CapacityOverflowError,
    CaseParseError,
    EstimationError,
    InputError,
    InvariantError,
    SizeLimitError,
)
from .indices import (
    IndexEntry,
    IndexReport,
    baseline_fold_nodes,
    baseline_ignore_nodes,
    exactness_condition,
    index_all,
    index_target,
    binary_gap_bound,
)
from .mincut import CutSolution, DiGraph, cut_value, min_cut, min_cut_extremes
from .oracle import (
    OracleResult,
    attack_cost,
    oracle_binary,
    oracle_continuous,
    oracle_continuous_network,
)
from .power_model import (
    AttackVector,
    Gadget3Sat,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    WeightAssignment,
    attack_from_partition,
    bdd_residual,
    build_3sat_gadget,
    build_h,
    cut_lines,
    estimate,
    full_measurement,
    gadget_assignment_dtheta,
    hat_matrix,
    is_observable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
