"""Cycle-level NoC simulator (booksim 2.0 / Garnet substitute).

Wormhole, virtual-channel, credit-based flow control, five-stage router
pipeline, synthetic traffic, booksim-style warmup/measure/drain statistics,
and router power gating.
"""

from repro.noc.activity import NetworkActivity, RouterActivity
from repro.noc.backends import get_backend, list_backends
from repro.noc.flit import Flit, Packet, make_flits
from repro.noc.network import Network, Router
from repro.noc.power_gating import (
    StaticGatingPlan,
    TimeoutGatingPolicy,
    break_even_cycles,
    static_plan_for_topology,
)
from repro.noc.llc_sim import LlcSimulationResult, run_llc_simulation
from repro.noc.adaptive import ADAPTIVE_ALGORITHMS, build_adaptive_table
from repro.noc.routing import build_routing_table
from repro.noc.sim import SimulationResult, run_simulation, simulate, zero_load_latency
from repro.noc.spec import SimulationSpec, TrafficSpec, stable_key
from repro.noc.trace import TraceRecorder, TraceTraffic
from repro.noc.traffic import TrafficGenerator

__all__ = [
    "NetworkActivity",
    "RouterActivity",
    "get_backend",
    "list_backends",
    "Flit",
    "Packet",
    "make_flits",
    "Network",
    "Router",
    "StaticGatingPlan",
    "TimeoutGatingPolicy",
    "break_even_cycles",
    "static_plan_for_topology",
    "build_routing_table",
    "LlcSimulationResult",
    "run_llc_simulation",
    "SimulationResult",
    "SimulationSpec",
    "TrafficSpec",
    "run_simulation",
    "simulate",
    "stable_key",
    "zero_load_latency",
    "TrafficGenerator",
    "ADAPTIVE_ALGORITHMS",
    "build_adaptive_table",
    "TraceRecorder",
    "TraceTraffic",
]
