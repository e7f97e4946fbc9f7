"""The paper's contribution: fine-grained NoC-sprinting.

- :mod:`repro.core.topological` -- Algorithm 1, irregular topological sprinting
- :mod:`repro.core.cdor` -- Algorithm 2, convex dimension-order routing
- :mod:`repro.core.deadlock` -- channel-dependency-graph deadlock checker
- :mod:`repro.core.floorplanning` -- Algorithms 3-4, thermal-aware floorplanning
- :mod:`repro.core.cdor_area` -- CDOR vs DOR gate-level area model
- :mod:`repro.core.sprinting` -- the fine-grained sprint controller
- :mod:`repro.core.gating_policy` -- sprint-aware network power gating
- :mod:`repro.core.system` -- the end-to-end NoC-sprinting system
"""

from repro.core.cdor import (
    CdorRouter,
    ConnectivityBits,
    RoutingError,
    cdor_output_port,
    dor_output_port,
)
from repro.core.cdor_area import cdor_area_overhead, router_area
from repro.core.deadlock import (
    DeadlockReport,
    channel_dependency_graph,
    check_all_sprint_levels,
    check_deadlock_freedom,
)
from repro.core.floorplanning import (
    Floorplan,
    identity_floorplan,
    thermal_aware_floorplan,
    thermal_spread,
)
from repro.core.bypass import BypassPlan, plan_bypass
from repro.core.coschedule import (
    CoScheduledSprint,
    CoScheduleError,
    co_sprint_regions,
    plan_co_sprint,
)
from repro.core.faults import (
    FaultError,
    degraded_topology,
    fault_aware_sprint_region,
    fault_aware_topology,
    link_fault_exclusions,
)
from repro.core.gating_policy import (
    SprintAwareGating,
    sprint_aware_gating,
    xy_wakeups_through_dark,
)
from repro.core.lbdr import LbdrRouter, bit_cost_comparison, derive_lbdr_bits
from repro.core.scheduler import Burst, ScheduleResult, SprintScheduler
from repro.core.sprinting import (
    RetreatPolicy,
    SprintController,
    SprintMode,
    SprintPlan,
)
from repro.core.system import (
    SCHEMES,
    EvaluationReport,
    NetworkEvaluation,
    NoCSprintingSystem,
)
from repro.core.topological import (
    SprintTopology,
    dark_nodes,
    sprint_order,
    sprint_region,
)

__all__ = [
    "CdorRouter",
    "ConnectivityBits",
    "RoutingError",
    "cdor_output_port",
    "dor_output_port",
    "cdor_area_overhead",
    "router_area",
    "DeadlockReport",
    "channel_dependency_graph",
    "check_all_sprint_levels",
    "check_deadlock_freedom",
    "Floorplan",
    "identity_floorplan",
    "thermal_aware_floorplan",
    "thermal_spread",
    "SprintTopology",
    "dark_nodes",
    "sprint_order",
    "sprint_region",
    "SprintAwareGating",
    "sprint_aware_gating",
    "xy_wakeups_through_dark",
    "SprintController",
    "SprintMode",
    "SprintPlan",
    "SCHEMES",
    "EvaluationReport",
    "NetworkEvaluation",
    "NoCSprintingSystem",
    "BypassPlan",
    "plan_bypass",
    "LbdrRouter",
    "bit_cost_comparison",
    "derive_lbdr_bits",
    "Burst",
    "ScheduleResult",
    "SprintScheduler",
    "CoScheduledSprint",
    "CoScheduleError",
    "co_sprint_regions",
    "plan_co_sprint",
    "FaultError",
    "RetreatPolicy",
    "degraded_topology",
    "fault_aware_sprint_region",
    "fault_aware_topology",
    "link_fault_exclusions",
]
