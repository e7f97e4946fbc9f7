"""The cycle-accurate reference backend.

This is the original warmup / measure / drain driver from
:mod:`repro.noc.sim`: it steps live :class:`~repro.noc.network.Network`
routers one cycle at a time and is the semantic ground truth the fast
path is validated against (``tests/test_backends.py`` holds the
cross-backend equivalence suite).

Follows the standard booksim methodology: the network warms up for
``warmup_cycles``, every packet created during the next ``measure_cycles``
is tagged as *measured*, injection continues (the traffic process stays
stationary) until every measured packet has been ejected or the drain
budget runs out.  A run that cannot drain is reported as saturated --
exactly the behaviour behind the "NoC-sprinting saturates earlier"
observation of Figure 11.
"""

from __future__ import annotations

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.network import Network
from repro.noc.result import SimulationResult
from repro.noc.routing import build_table
from repro.noc.spec import SimulationSpec
from repro.noc.traffic import TrafficGenerator
from repro.telemetry import active as _active_telemetry
from repro.util.stats import RunningStats, percentile


class ReferenceBackend:
    """Cycle-accurate simulation of live Router objects."""

    name = "reference"

    def run(
        self, spec: SimulationSpec, *, gating_policy=None, telemetry=None
    ) -> SimulationResult:
        return _execute(
            spec.topology,
            spec.traffic.build(),
            spec.config,
            spec.routing,
            spec.warmup_cycles,
            spec.measure_cycles,
            spec.drain_cycles,
            gating_policy,
            faults=spec.faults,
            telemetry=telemetry,
        )


def _reconfigure(
    network: Network,
    topology: SprintTopology,
    faults,
    cfg: NoCConfig,
    cycle: int,
    counters: dict,
) -> tuple[Network, SprintTopology]:
    """Rebuild the network around the fault set active at ``cycle``.

    Implements the drop-and-retransmit reconfiguration policy: a smaller
    convex region is grown around the faults (falling back towards the
    master when the full level is unreachable), packets whose source and
    destination survive are re-injected at their source NI with their
    original creation timestamps (the retransmission penalty shows up as
    latency), and packets stranded on a dead endpoint are dropped.
    """
    from repro.core.faults import reconfigured_topology

    new_topology = reconfigured_topology(topology, faults, cycle)
    # CDOR is the only routing that is sound on an arbitrary convex
    # region (and equals XY on the full mesh), so reconfigured networks
    # always route CDOR -- including when a recovery restores the
    # planned region
    table = build_table(new_topology, "cdor")

    replacement = Network(new_topology, table, cfg, activity=network.activity)
    replacement.cycle = cycle
    replacement.counting = network.counting
    replacement.on_packet_ejected = network.on_packet_ejected
    for packet, entered in network.extract_in_flight():
        if (
            packet.source in replacement.routers
            and packet.destination in replacement.routers
        ):
            packet.hops = 0
            replacement.inject(packet)
            counters["retransmitted" if entered else "rerouted"] += 1
        else:
            counters["dropped"] += 1
            if packet.measured:
                counters["lost_measured"] += 1
    counters["reconfigurations"] += 1
    return replacement, new_topology


def _execute(
    topology: SprintTopology,
    traffic: TrafficGenerator,
    cfg: NoCConfig,
    routing: str,
    warmup_cycles: int,
    measure_cycles: int,
    drain_cycles: int,
    gating_policy,
    faults=None,
    telemetry=None,
) -> SimulationResult:
    """The warmup / measure / drain loop shared by both entry points."""
    network = Network(topology, build_table(topology, routing), cfg)

    tel = _active_telemetry(telemetry)
    tracer = tel.tracer if tel is not None else None
    interval = tel.sample_interval if tel is not None else 0
    sampling = tel is not None
    inj_flits: dict[int, int] = {}
    ej_flits: dict[int, int] = {}
    gated_cycles: dict[int, int] = {}
    if tracer is not None:
        sim_span = tracer.span(
            "simulate",
            level=topology.level,
            routing=routing,
            rate=round(traffic.injection_rate, 6),
        )
        phase_span = tracer.span("phase:warmup", parent=sim_span.id)

    latency = RunningStats()
    hops = RunningStats()
    latencies: list[int] = []
    ejected = {"measured": 0, "all": 0, "measured_flits": 0}

    def on_eject(packet) -> None:
        ejected["all"] += 1
        if sampling:
            ej_flits[packet.destination] = (
                ej_flits.get(packet.destination, 0) + packet.length
            )
        if packet.measured:
            ejected["measured"] += 1
            ejected["measured_flits"] += packet.length
            latency.add(packet.latency)
            latencies.append(packet.latency)
            hops.add(packet.hops)

    network.on_packet_ejected = on_eject

    boundaries = faults.boundaries() if faults else []
    next_boundary = 0
    counters = {
        "dropped": 0, "retransmitted": 0, "rerouted": 0,
        "lost_measured": 0, "reconfigurations": 0,
    }
    active_topology = topology
    min_level = topology.level if boundaries else 0

    created_measured = 0
    measure_end = warmup_cycles + measure_cycles
    deadline = measure_end + drain_cycles
    while True:
        cycle = network.cycle
        if cycle >= deadline:
            break
        if next_boundary < len(boundaries) and boundaries[next_boundary] == cycle:
            next_boundary += 1
            if tracer is not None:
                reconf_span = tracer.span(
                    "reconfigure", parent=phase_span.id, cycle=cycle
                )
            network, active_topology = _reconfigure(
                network, topology, faults, cfg, cycle, counters
            )
            min_level = min(min_level, active_topology.level)
            if tracer is not None:
                reconf_span.annotate(level=active_topology.level)
                reconf_span.end()
        in_window = warmup_cycles <= cycle < measure_end
        for packet in traffic.packets_for_cycle(cycle, measured=in_window):
            if active_topology is not topology and (
                packet.source not in network.routers
                or packet.destination not in network.routers
            ):
                # the endpoint's router fell out of the degraded region:
                # the packet is lost at the NI before it is ever created
                counters["dropped"] += 1
                continue
            network.inject(packet)
            if sampling:
                inj_flits[packet.source] = (
                    inj_flits.get(packet.source, 0) + packet.length
                )
            if packet.measured:
                created_measured += 1
        if cycle == warmup_cycles:
            network.counting = True
            if tracer is not None:
                phase_span.annotate(end_cycle=cycle)
                phase_span.end()
                phase_span = tracer.span(
                    "phase:measure", parent=sim_span.id, start_cycle=cycle
                )
        if cycle == measure_end:
            network.counting = False
            if tracer is not None:
                phase_span.annotate(end_cycle=cycle)
                phase_span.end()
                phase_span = tracer.span(
                    "phase:drain", parent=sim_span.id, start_cycle=cycle
                )
        if interval and cycle % interval == 0:
            _emit_router_sample(
                tel, sim_span.id, network, cycle,
                inj_flits, ej_flits, gated_cycles, interval,
            )
        if gating_policy is not None:
            gating_policy.step(network)
        network.step()
        if cycle >= measure_end and (
            ejected["measured"] >= created_measured - counters["lost_measured"]
        ):
            break

    saturated = (
        ejected["measured"] < created_measured - counters["lost_measured"]
    )
    endpoints = len(traffic.endpoints)
    if tel is not None:
        _record_sim_metrics(
            tel, network.cycle, created_measured, ejected, counters, saturated,
            inj_flits, ej_flits, gated_cycles,
        )
        if tracer is not None:
            phase_span.annotate(end_cycle=network.cycle)
            phase_span.end()
            sim_span.annotate(
                cycles=network.cycle,
                packets=created_measured,
                saturated=saturated,
                reconfigurations=counters["reconfigurations"],
            )
            sim_span.end()
    return SimulationResult(
        avg_latency=latency.mean if latency.count else 0.0,
        avg_hops=hops.mean if hops.count else 0.0,
        max_latency=int(latency.maximum) if latency.count else 0,
        p50_latency=percentile(latencies, 50) if latencies else 0.0,
        p95_latency=percentile(latencies, 95) if latencies else 0.0,
        p99_latency=percentile(latencies, 99) if latencies else 0.0,
        packets_measured=created_measured,
        packets_ejected=ejected["measured"],
        offered_flits_per_cycle=traffic.injection_rate,
        accepted_flits_per_cycle=(
            ejected["measured_flits"] / (measure_cycles * endpoints)
            if measure_cycles and endpoints
            else 0.0
        ),
        saturated=saturated,
        cycles_run=network.cycle,
        measure_cycles=measure_cycles,
        activity=network.activity,
        endpoint_count=endpoints,
        packets_dropped=counters["dropped"],
        packets_retransmitted=counters["retransmitted"],
        packets_rerouted=counters["rerouted"],
        reconfigurations=counters["reconfigurations"],
        min_region_level=min_level,
    )


def _emit_router_sample(
    tel, span_id, network, cycle, inj_flits, ej_flits, gated_cycles, interval
) -> None:
    """One periodic in-simulation sample: per-router flit counts (cumulative
    injected/ejected), instantaneous buffer occupancy and gating state.

    Gated-cycle counts are accumulated at sampling granularity (a router
    gated at the sample instant is charged the whole interval) -- an
    approximation that keeps the per-cycle hot path untouched.
    """
    routers = {}
    buffered_total = 0
    for node, router in network.routers.items():
        occupancy = router.buffered_flits
        buffered_total += occupancy
        if router.gated:
            gated_cycles[node] = gated_cycles.get(node, 0) + interval
        routers[str(node)] = {
            "inj": inj_flits.get(node, 0),
            "ej": ej_flits.get(node, 0),
            "occ": occupancy,
            "gated": 1 if router.gated else 0,
        }
    tel.metrics.histogram(
        "noc_buffer_occupancy_flits",
        help="total buffered flits at sample instants",
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    ).observe(buffered_total)
    tel.tracer.sample(
        {
            "cycle": cycle,
            "in_flight": network.flits_in_flight,
            "buffered": buffered_total,
            "routers": routers,
        },
        parent=span_id,
    )


def _record_sim_metrics(
    tel, cycles_run, created_measured, ejected, counters, saturated,
    inj_flits, ej_flits, gated_cycles,
) -> None:
    """Fold one finished run into the telemetry metrics registry."""
    metrics = tel.metrics
    metrics.counter("sim_runs_total", help="network simulations executed").inc()
    metrics.counter("sim_cycles_total", help="simulated cycles").inc(cycles_run)
    metrics.counter(
        "sim_packets_measured_total", help="packets tagged in measure windows"
    ).inc(created_measured)
    metrics.counter(
        "sim_packets_ejected_total", help="measured packets ejected"
    ).inc(ejected["measured"])
    metrics.counter(
        "sim_packets_dropped_total", help="packets lost to faults"
    ).inc(counters["dropped"])
    metrics.counter(
        "sim_packets_retransmitted_total", help="packets re-injected after faults"
    ).inc(counters["retransmitted"])
    metrics.counter(
        "sim_reconfigurations_total", help="mid-run network reconfigurations"
    ).inc(counters["reconfigurations"])
    if saturated:
        metrics.counter("sim_saturated_total", help="runs that failed to drain").inc()
    for node, flits in sorted(inj_flits.items()):
        metrics.counter(
            "noc_router_injected_flits_total",
            help="flits injected at each router's NI", router=node,
        ).inc(flits)
    for node, flits in sorted(ej_flits.items()):
        metrics.counter(
            "noc_router_ejected_flits_total",
            help="flits ejected at each router's NI", router=node,
        ).inc(flits)
    for node, cycles in sorted(gated_cycles.items()):
        metrics.counter(
            "noc_router_gated_cycles_total",
            help="cycles spent power-gated (sampled)", router=node,
        ).inc(cycles)


__all__ = ["ReferenceBackend"]
