"""The public API surface: every advertised name imports and is real."""

import importlib

import pytest

PACKAGES = {
    "repro": [
        "NoCConfig", "SystemConfig", "default_config", "CdorRouter",
        "NoCSprintingSystem", "SprintController", "SprintPlan",
        "SprintTopology", "check_deadlock_freedom", "sprint_order",
        "thermal_aware_floorplan", "EvaluationReport", "SimulationSpec",
        "TrafficSpec", "run_simulation", "SweepRunner", "ResultCache",
        "get_backend", "list_backends",
        "Ledger", "RunRecord", "compare_runs",
        "WIRE_VERSION", "WireFormatError", "spec_to_wire", "spec_from_wire",
    ],
    "repro.service": [
        "ExperimentService", "ExperimentServer", "SweepTicket",
        "ClientAccounts", "TokenBucket", "RateLimited", "BudgetExhausted",
        "error_payload", "SERVICE_COUNTER_HELP", "SERVICE_GAUGE_HELP",
    ],
    "repro.telemetry": [
        "Telemetry", "Ledger", "RunRecord", "compare_runs", "Comparison",
        "MetricPolicy",
    ],
    "repro.noc.backends": [
        "get_backend", "list_backends", "resolve_backend",
        "ReferenceBackend", "VectorizedBackend",
    ],
    "repro.core": [
        "SprintTopology", "CdorRouter", "LbdrRouter", "Floorplan",
        "SprintController", "SprintScheduler", "NoCSprintingSystem",
        "BypassPlan", "plan_bypass", "co_sprint_regions",
        "fault_aware_topology", "sprint_aware_gating",
    ],
    "repro.noc": [
        "Network", "Router", "Packet", "Flit", "TrafficGenerator",
        "run_simulation", "run_llc_simulation", "zero_load_latency",
        "TraceRecorder", "TraceTraffic", "build_adaptive_table",
        "TimeoutGatingPolicy", "break_even_cycles", "get_backend",
        "list_backends",
    ],
    "repro.power": [
        "RouterPowerModel", "LinkPowerModel", "ChipPowerModel",
        "network_power", "DvfsPlanner", "burst_energy", "TECH_45NM",
    ],
    "repro.thermal": [
        "ThermalGrid", "ThermalParams", "PCMParams", "sprint_phases",
        "sprint_duration", "SprintTransient", "duration_gain",
    ],
    "repro.cmp": [
        "BenchmarkProfile", "PARSEC_PROFILES", "get_profile",
        "profile_workload", "LlcAccessStream", "OnlineParallelismMonitor",
        "traffic_for_workload",
    ],
    "repro.util": [
        "Coord", "manhattan", "euclidean", "is_discretely_convex",
        "format_table", "stream", "RunningStats",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PACKAGES))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PACKAGES[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PACKAGES))
def test_all_lists_are_accurate(module_name):
    module = importlib.import_module(module_name)
    if not hasattr(module, "__all__"):
        pytest.skip(f"{module_name} has no __all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_dataclasses_are_frozen_where_promised():
    """Configuration objects must be immutable (shared across the system)."""
    import dataclasses

    from repro.cmp.perf_model import BenchmarkProfile
    from repro.config import NoCConfig, SystemConfig
    from repro.core.floorplanning import Floorplan
    from repro.thermal.grid import ThermalParams
    from repro.thermal.pcm import PCMParams

    for cls in (NoCConfig, SystemConfig, Floorplan, ThermalParams, PCMParams,
                BenchmarkProfile):
        assert dataclasses.fields(cls)  # is a dataclass
        params = getattr(cls, "__dataclass_params__")
        assert params.frozen, f"{cls.__name__} should be frozen"
