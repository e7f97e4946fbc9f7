"""repro -- a full reproduction of *NoC-Sprinting: Interconnect for
Fine-Grained Sprinting in the Dark Silicon Era* (Zhan, Xie, Sun; DAC 2014).

The package provides:

- :mod:`repro.core` -- the paper's contribution: topological sprinting
  (Algorithm 1), CDOR routing (Algorithm 2), thermal-aware floorplanning
  (Algorithms 3-4), sprint-aware network power gating, the sprint
  controller, and the end-to-end :class:`~repro.core.NoCSprintingSystem`.
- :mod:`repro.noc` -- a cycle-level wormhole VC network simulator
  (booksim/Garnet substitute).
- :mod:`repro.power` -- router/link energy (DSENT substitute) and chip
  power (McPAT substitute) models.
- :mod:`repro.thermal` -- an RC thermal grid (HotSpot substitute) and the
  phase-change-material sprint-duration model.
- :mod:`repro.cmp` -- PARSEC 2.1 workload profiles and the CMP
  execution-time model (gem5 substitute).

Quick start::

    from repro import NoCSprintingSystem

    system = NoCSprintingSystem()
    row = system.evaluate("dedup", "noc_sprinting", simulate_network=True)
    print(row.level, row.speedup, row.network.avg_latency)

The stable entry points (documented in ``docs/api.md``) are re-exported
here: the system facade and its :class:`~repro.core.system.EvaluationReport`,
the declarative :class:`~repro.noc.spec.SimulationSpec` /
:class:`~repro.noc.spec.TrafficSpec` pair with
:func:`~repro.noc.sim.run_simulation`, the sweep engine
(:class:`~repro.exec.SweepRunner`, :class:`~repro.exec.ResultCache`), and
the simulation-engine table
(:func:`~repro.noc.backends.get_backend` /
:func:`~repro.noc.backends.list_backends`), the run-history
observatory (:class:`~repro.telemetry.Ledger`,
:func:`~repro.telemetry.compare_runs`), and the versioned wire codec
behind the ``repro serve`` HTTP API
(:func:`~repro.noc.spec.spec_to_wire` /
:func:`~repro.noc.spec.spec_from_wire`, with
:meth:`EvaluationReport.to_wire` for report documents; see
``docs/service.md``).
"""

from repro.config import NoCConfig, SystemConfig, default_config
from repro.core import (
    CdorRouter,
    NoCSprintingSystem,
    SprintController,
    SprintPlan,
    SprintTopology,
    check_deadlock_freedom,
    sprint_order,
    thermal_aware_floorplan,
)
from repro.core.system import EvaluationReport
from repro.exec import ResultCache, SweepRunner
from repro.noc import SimulationSpec, TrafficSpec, run_simulation
from repro.noc.backends import get_backend, list_backends
from repro.noc.spec import (
    WIRE_VERSION,
    WireFormatError,
    spec_from_wire,
    spec_to_wire,
)
from repro.telemetry import Ledger, RunRecord, compare_runs

__version__ = "1.0.0"

__all__ = [
    # configuration
    "NoCConfig",
    "SystemConfig",
    "default_config",
    # the paper's mechanisms
    "CdorRouter",
    "SprintController",
    "SprintPlan",
    "SprintTopology",
    "check_deadlock_freedom",
    "sprint_order",
    "thermal_aware_floorplan",
    # system facade
    "NoCSprintingSystem",
    "EvaluationReport",
    # declarative simulation + sweep engine
    "SimulationSpec",
    "TrafficSpec",
    "run_simulation",
    "SweepRunner",
    "ResultCache",
    # the versioned wire codec (the `repro serve` contract)
    "WIRE_VERSION",
    "WireFormatError",
    "spec_to_wire",
    "spec_from_wire",
    # simulation engines
    "get_backend",
    "list_backends",
    # run ledger + cross-run diffing
    "Ledger",
    "RunRecord",
    "compare_runs",
    "__version__",
]
