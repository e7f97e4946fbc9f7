"""The benchmark's sweep workloads, each driven through the public API.

A workload builds its inputs from the seed, runs timed repetitions for a
given number of seconds, then checks its outputs *after* the timed
phase.  Every sweep workload re-simulates a seed-chosen sample of its
points on ``backend="reference"`` and requires field-for-field equality
(``activity`` included); ``fig9-sweep`` also checks the paper's shape.
``service-evaluate`` lives in :mod:`loadgen`.

A run does a fixed amount of work: ``--seconds`` divided by the nominal
cost of one repetition at the reference host speed, so every run -- on
any commit and any host state -- draws its latency samples from the same
mix of points and its percentiles keep their meaning.  Timed figures are
normalized by :class:`harness.HostSpeed` marks taken between units of
work; the raw host-second medians are printed beside them.  A traced run
(``--trace 1``) spends half its budget on the timed phase and half on
identical repetitions run alternately without and with
:class:`layers.LayerTrace`, which gives the per-layer split and the
tracing overhead.

``Run`` collects what the caller prints: the end-to-end metrics, the
per-layer metrics of a traced run, the attempted/failed counts and a few
human-readable lines (medians with their quartiles and sample counts).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from dataclasses import dataclass, field

from harness import (
    PAPER_FIG9_REDUCTION_PCT,
    HostSpeed,
    Scratch,
    derive_seed,
    fig9_grid,
    fig9_reduction,
    median,
    peak_rss_mb,
    tail,
)

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run reports: name -> unit.  A layer the
#: workload does not exercise reads 0 (no time was spent in it).
PER_LAYER = {
    "traffic.ms_per_point": "ms",
    "traffic.share": "fraction",
    "traffic.cycles_drawn_per_cycle_run": "ratio",
    "engine.self_ms_per_point": "ms",
    "engine.ns_per_sim_cycle": "ns",
    "engine.gated_ms_per_point": "ms",
    "engine.faulted_ms_per_point": "ms",
    "engine.adaptive_ms_per_point": "ms",
    "engine.kernel_build_s": "s",
    "assembly.ms_per_point": "ms",
    "spec.cache_key_us": "us",
    "spec.wire_decode_us": "us",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.hit_frac": "fraction",
    "runner.overhead_ms_per_point": "ms",
    "pool.overhead_ms_per_point": "ms",
    "pool.startup_s": "s",
    "sweep.pool_points_per_s": "1/s",
    "fabric.overhead_ms_per_point": "ms",
    "fabric.fixed_s": "s",
    "sweep.fabric_points_per_s": "1/s",
    "http.overhead_ms": "ms",
    "service.warm_p50_ms": "ms",
    "service.warm_tail_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.cold_tail_ms": "ms",
    "service.coalesced_frac": "fraction",
    "service.refused": "count",
    "ledger.append_ms": "ms",
    "loadgen.lag_tail_ms": "ms",
    "accuracy.fig9_error_pp": "pp",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    scratch: Scratch
    tiny: bool = False  # test-sized inputs
    speed: HostSpeed = field(default_factory=HostSpeed)

    def reps(self, nominal_rep_s: float, minimum: int) -> int:
        """Timed repetitions: the whole budget, or half of a traced run."""
        if self.tiny:
            return 1
        budget = self.seconds / 2 if self.trace else self.seconds
        return max(minimum, round(budget / nominal_rep_s))


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def summarize(label: str, values, unit: str, scale: float = 1.0) -> str:
    """``label: median unit (q1, q3, n)`` for one sample set."""
    if not values:
        return f"{label}: no samples"
    vals = [v * scale for v in values]
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (vals[0],) * 3
    return f"{label}: {median(vals):.4g} {unit} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(vals)})"


def latency_metrics(run: Run, samples_ms, what: str) -> None:
    """``p50_ms`` and ``tail_ms`` (highest percentile with ten beyond it)."""
    value, pct, n = tail(samples_ms)
    run.e2e["p50_ms"] = median(samples_ms)
    run.e2e["tail_ms"] = value
    run.lines.append(f"p50_ms = {median(samples_ms):.4f} ms over {n} {what}")
    beyond = n - round(pct * n / 100)
    run.lines.append(f"tail_ms = p{pct:.2f} = {value:.4f} ms over {n} {what} "
                     f"({beyond} samples beyond)")


def throughput(run: Run, label: str, points: int, seconds, raw_s=None) -> None:
    """``points_per_s``: the median rep's rate (normalized when ``raw_s``
    gives the host seconds the normalized ``seconds`` came from)."""
    rates = [points / s for s in seconds]
    run.e2e["points_per_s"] = median(rates)
    if raw_s is None:
        run.lines.append(summarize(f"{label} points_per_s (raw host s)", rates,
                                   "points/s"))
        return
    run.lines.append(summarize(f"{label} points_per_s (normalized)", rates, "points/s"))
    run.lines.append(summarize(f"{label} points_per_s (raw host s)",
                               [points / s for s in raw_s], "points/s"))


def compare_reference(run: Run, samples, label: str) -> None:
    """Re-simulate ``(spec, result, gating_factory)`` on the reference."""
    from repro.noc.sim import simulate

    for spec, result, gating in samples:
        policy = gating() if gating is not None else None
        reference = simulate(spec, gating_policy=policy, backend="reference")
        if reference != result:
            diff = [f.name for f in dataclasses.fields(result)
                    if getattr(result, f.name) != getattr(reference, f.name)]
            run.fail(f"{label}: {spec.cache_key()[:12]} differs from the "
                     f"reference engine in {diff}")
    run.lines.append(f"reference check: {len(samples)} {label} point(s) "
                     "re-simulated on backend=reference")


def pick(seed: int, label: str, population: list, k: int) -> list:
    """A seed-determined sample of ``k`` items from ``population``."""
    rng = random.Random(derive_seed(seed, "check", label))
    return rng.sample(population, min(k, len(population)))


# ----------------------------------------------------------------------
# traced-run helpers
# ----------------------------------------------------------------------
def engine_layers(trace, layers: dict, wall_s: float) -> None:
    """Fill the traffic/engine/assembly/spec/cache/ledger layer metrics.

    Traffic time is the wrapper-corrected burst time under each engine
    span; the engine's self time is its span minus the raw bursts.
    """
    engine = trace.by_name("noc.backends")
    traffic = trace.traffic_seconds()
    traffic_s = raw_s = engine_s = 0.0
    calls = cycles = 0
    by_kind: dict[str, list] = {}
    for span in engine:
        raw, corrected, drawn = traffic.get(span[0], (0.0, 0.0, 0))
        traffic_s += corrected
        raw_s += raw
        calls += drawn
        cycles += span[5].get("cycles", 0)
        engine_s += span[4] - span[3]
        by_kind.setdefault(span[5]["kind"], []).append(span[4] - span[3] - raw)
    if engine:
        layers["traffic.ms_per_point"] = 1e3 * traffic_s / len(engine)
        layers["engine.self_ms_per_point"] = 1e3 * (engine_s - raw_s) / len(engine)
    if wall_s > 0:
        layers["traffic.share"] = traffic_s / wall_s
    if cycles:
        layers["traffic.cycles_drawn_per_cycle_run"] = calls / cycles
        layers["engine.ns_per_sim_cycle"] = 1e9 * (engine_s - raw_s) / cycles
    for kind in ("gated", "faulted", "adaptive"):
        if by_kind.get(kind):
            layers[f"engine.{kind}_ms_per_point"] = 1e3 * statistics.fmean(by_kind[kind])

    def mean_us(spans):
        return 1e6 * statistics.fmean(s[4] - s[3] for s in spans) if spans else 0.0

    layers["assembly.ms_per_point"] = mean_us(trace.by_name("assembly")) / 1e3
    layers["spec.cache_key_us"] = mean_us(trace.by_name("noc.spec", call="cache_key"))
    layers["spec.wire_decode_us"] = mean_us(
        trace.by_name("noc.spec", call="spec_from_wire"))
    layers["cache.get_us"] = mean_us(trace.by_name("exec.cache", call="get")
                                     + trace.by_name("exec.cache", call="get_or_begin"))
    layers["cache.put_us"] = mean_us(trace.by_name("exec.cache", call="put"))
    lookups = trace.counts.get("cache.lookups", 0)
    if lookups:
        layers["cache.hit_frac"] = trace.counts.get("cache.hits", 0) / lookups
    layers["ledger.append_ms"] = mean_us(trace.by_name("telemetry.ledger")) / 1e3


def serial_runner_overhead(trace) -> float:
    """Self time of serial runner spans per point, in ms."""
    spans = trace.by_name("exec.runner", mode="serial")
    points = sum(s[5]["points"] for s in spans)
    return 1e3 * trace.self_time_of(spans) / points if points else 0.0


def traced_repeat(ctx: Context, run: Run, step, nominal_rep_s: float):
    """Run identical reps alternately untraced and traced.

    Enough reps to fill the other half of a traced run; alternating the
    two kinds keeps host-speed drift out of ``trace.overhead_frac``.
    Returns the :class:`layers.LayerTrace` and the traced wall seconds.
    """
    from layers import LayerTrace

    reps = 1 if ctx.tiny else max(1, round(ctx.seconds / 4 / nominal_rep_s))
    trace = LayerTrace()
    untraced_s = traced_s = 0.0
    for rep in range(reps):
        start = time.perf_counter()
        step(rep)
        untraced_s += time.perf_counter() - start
        trace.install()
        try:
            start = time.perf_counter()
            step(rep)
            traced_s += time.perf_counter() - start
        finally:
            trace.remove()
    run.layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return trace, traced_s


# ----------------------------------------------------------------------
# fig9-sweep
# ----------------------------------------------------------------------
def chosen_points(ctx: Context, label: str, reps: int, points: int, k: int) -> set:
    """``(rep, index)`` pairs whose results the reference check re-simulates.

    Chosen from the seed before the timed phase, so a step keeps only
    these results: holding every result of a run would grow the heap,
    and with it the interpreter's garbage-collection pauses, with the
    run's length -- a cost no user sweep of that size pays.
    """
    population = [(rep, i) for rep in range(reps) for i in range(points)]
    return set(pick(ctx.seed, label, population, k))


class Fig9Sweep:
    """The fig-9 PARSEC grid, cold cache, serial runner + power model."""

    name = "fig9-sweep"
    nominal_rep_s = 0.32  # one grid at the reference host speed

    def __init__(self, ctx: Context):
        from repro.core.system import NoCSprintingSystem
        from repro.telemetry import Ledger

        self.ctx = ctx
        self.system = NoCSprintingSystem(ledger=Ledger.disabled(), backend="auto")
        self.grid = fig9_grid(self.system)
        self.ledger = Ledger(directory=ctx.scratch.fresh("ledger"))
        self.keep: set = set()

    def step(self, rep: int) -> dict:
        """One cold-cache grid, as ``benchmarks/bench_fig09`` runs it."""
        from repro.exec import ResultCache, SweepRunner

        epoch = self.ctx.speed.mark()
        seed = derive_seed(self.ctx.seed, self.name, rep)
        specs = [spec.with_seed(seed) for *_, spec in self.grid]
        runner = SweepRunner(workers=1, cache=ResultCache(), ledger=self.ledger)
        start = time.perf_counter()
        report = runner.run(specs)
        per_point, evals = [], {}
        for point in report.points:
            scheme = self.grid[point.index][2]
            t0 = time.perf_counter()
            evals[point.index] = self.system.network_evaluation_for(
                point.spec, point.result, scheme)
            per_point.append(point.wall_time_s + time.perf_counter() - t0)
        wall = time.perf_counter() - start

        rows = []
        for index, (profile, level, scheme, _) in enumerate(self.grid):
            noc, full = evals.get(index), evals.get(index + 1)
            if scheme == "noc_sprinting" and noc is not None and full is not None:
                rows.append((profile.name, level, full.avg_latency, noc.avg_latency))
        mean, problems = fig9_reduction(rows)
        return {
            "epoch": epoch, "wall": wall, "per_point": per_point,
            "error": abs(mean - PAPER_FIG9_REDUCTION_PCT),
            "problems": [f"fig-9 shape: {p}" for p in problems]
                        + [f.describe() for f in report.failures],
            "kept": [(p.spec, p.result, None) for p in report.points
                     if (rep, p.index) in self.keep],
        }

    def run(self, run: Run) -> None:
        ctx = self.ctx
        count, n = ctx.reps(self.nominal_rep_s, 3), len(self.grid)
        self.keep = chosen_points(ctx, self.name, count, n, 2 if ctx.tiny else 4)
        reps = [self.step(rep) for rep in range(count)]
        ctx.speed.mark()
        run.attempted += n * count
        factors = [ctx.speed.factor(r["epoch"]) for r in reps]
        throughput(run, "grid", n, [r["wall"] * f for r, f in zip(reps, factors)],
                   [r["wall"] for r in reps])
        latency_metrics(run, [1e3 * t * f for r, f in zip(reps, factors)
                              for t in r["per_point"]], "fig-9 points")
        for rep, r in enumerate(reps):
            for problem in r["problems"]:
                run.fail(f"rep {rep}: {problem}")
        run.layers["accuracy.fig9_error_pp"] = reps[0]["error"]
        run.lines.append(f"fig9_error_pp = {reps[0]['error']:.3f} pp against the "
                         f"paper's {PAPER_FIG9_REDUCTION_PCT} % (first grid)")
        compare_reference(run, [s for r in reps for s in r["kept"]], "fig-9")
        if ctx.trace:
            from loadgen import service_probe

            self.keep = set()
            trace, traced_s = traced_repeat(ctx, run, self.step, self.nominal_rep_s)
            engine_layers(trace, run.layers, traced_s)
            run.layers["runner.overhead_ms_per_point"] = serial_runner_overhead(trace)
            self.trace_obj = trace
            # the same fig-9 points through the other execution paths, so
            # the gated workloads still measure every layer
            dispatch_probe(ctx, run)
            service_probe(ctx, run, trace)


# ----------------------------------------------------------------------
# capability-mix
# ----------------------------------------------------------------------
LOADED_RATES = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
GATED_LEVELS = (4, 6, 8, 10, 12, 14)
GATED_RATES = (0.05, 0.1)
KINDS = ("faulted", "gated", "loaded")
#: Points simulated between two host-speed marks.
MIX_CHUNK = 5


def faulted_grid(grid) -> list:
    """The fig-9 grid with a mid-measure transient router fault per point.

    The victim is the highest-numbered active non-master node, regions
    below four routers are skipped and duplicate topologies dropped --
    the construction of ``benchmarks/bench_extension_backend``.
    """
    from repro.noc.spec import FaultEvent, FaultSchedule

    out, seen = [], set()
    for *_, spec in grid:
        nodes = sorted(spec.topology.active_nodes)
        if len(nodes) < 4:
            continue
        victim = next(n for n in reversed(nodes) if n != spec.topology.master)
        faulted = dataclasses.replace(spec, faults=FaultSchedule(
            (FaultEvent(cycle=700, node=victim, duration=400),)))
        key = faulted.cache_key()
        if key not in seen:
            seen.add(key)
            out.append(faulted)
    return out


def timeout_gating():
    from repro.noc.power_gating import TimeoutGatingPolicy

    return TimeoutGatingPolicy(idle_timeout=32)


class CapabilityMix:
    """Serial ``simulate(backend="auto")`` over faulted, gated and loaded points."""

    name = "capability-mix"
    nominal_rep_s = 1.85

    def __init__(self, ctx: Context):
        from repro.config import NoCConfig
        from repro.core.topological import SprintTopology
        from repro.noc.spec import SimulationSpec, TrafficSpec

        self.ctx = ctx
        cfg = NoCConfig()
        full = SprintTopology.for_level(4, 4, 16)

        def full_mesh(endpoints, rate, routing, measure):
            return SimulationSpec(
                topology=full, config=cfg, routing=routing, warmup_cycles=300,
                measure_cycles=measure, backend="auto",
                traffic=TrafficSpec(tuple(endpoints), rate, cfg.packet_length_flits))

        kinds = {
            # (a) chained kernel segments plus drop-and-retransmit
            "faulted": [(s, None) for s in faulted_grid(fig9_grid())],
            # (b) region traffic over the full mesh, XY, run-time gating
            "gated": [(full_mesh(SprintTopology.for_level(4, 4, level).active_nodes,
                                 rate, "xy", 1500), timeout_gating)
                      for level in GATED_LEVELS for rate in GATED_RATES],
            # (c) the whole mesh loaded up to near saturation
            "loaded": [(full_mesh(full.active_nodes, rate, routing, 1200), None)
                       for routing in ("west_first", "negative_first", "xy")
                       for rate in LOADED_RATES],
        }
        if ctx.tiny:
            kinds = {kind: points[:2] for kind, points in kinds.items()}
        self.points = [(kind, spec, gating) for kind, points in kinds.items()
                       for spec, gating in points]
        self.keep: set = set()

    def step(self, rep: int) -> dict:
        """The whole mix once, each point under a rep-specific seed."""
        from repro.noc.sim import simulate

        problems, times, kept = [], [], []
        for i, (kind, spec, gating) in enumerate(self.points):
            if i % MIX_CHUNK == 0:
                epoch = self.ctx.speed.mark()
            spec = spec.with_seed(derive_seed(self.ctx.seed, self.name, rep, i))
            start = time.perf_counter()
            try:
                result = simulate(spec, gating_policy=gating() if gating else None)
            except Exception as err:  # noqa: BLE001 -- counted as failed
                problems.append(f"{kind} {spec.cache_key()[:12]}: {err!r}")
                continue
            times.append((kind, time.perf_counter() - start, epoch))
            if kind == "faulted" and result.reconfigurations < 1:
                problems.append(f"faulted point {spec.cache_key()[:12]} never "
                                "reconfigured")
            if (rep, i) in self.keep:
                kept.append((spec, result, gating))
        return {"problems": problems, "times": times, "kept": kept}

    def run(self, run: Run) -> None:
        ctx = self.ctx
        count, n = ctx.reps(self.nominal_rep_s, 3), len(self.points)
        self.keep = set()
        for kind in KINDS:  # the reference check samples every kind
            indices = [i for i, (k, *_) in enumerate(self.points) if k == kind]
            self.keep |= {(rep, indices[j]) for rep, j in chosen_points(
                ctx, f"{self.name}-{kind}", count, len(indices), 1 if ctx.tiny else 2)}
        reps = [self.step(rep) for rep in range(count)]
        ctx.speed.mark()
        run.attempted += n * count
        speed = ctx.speed
        throughput(run, "mix", n,
                   [sum(t * speed.factor(e) for _, t, e in r["times"]) for r in reps],
                   [sum(t for _, t, _ in r["times"]) for r in reps])
        latency_metrics(run, [1e3 * t * speed.factor(e) for r in reps
                              for _, t, e in r["times"]], "mixed points")
        for kind in KINDS:
            run.lines.append(summarize(f"{kind} ms/point (raw)", [
                t for r in reps for k, t, _ in r["times"] if k == kind], "ms", 1e3))
        for rep, r in enumerate(reps):
            for problem in r["problems"]:
                run.fail(f"rep {rep}: {problem}")
        compare_reference(run, [s for r in reps for s in r["kept"]], "mixed")
        if ctx.trace:
            self.keep = set()
            trace, traced_s = traced_repeat(ctx, run, self.step, self.nominal_rep_s)
            engine_layers(trace, run.layers, traced_s)
            self.trace_obj = trace


# ----------------------------------------------------------------------
# parallel-sweep
# ----------------------------------------------------------------------
PARALLEL_RATES = (0.05, 0.1, 0.15, 0.2)
PARALLEL_WORKERS = 2
PATHS = ("pool", "fabric")


class ParallelSweep:
    """~100 short points through a 2-worker pool, then the 2-worker fabric."""

    name = "parallel-sweep"
    nominal_rep_s = 2.6

    def __init__(self, ctx: Context):
        from repro.telemetry import Ledger

        self.ctx = ctx
        self.base = [
            dataclasses.replace(spec, warmup_cycles=200, measure_cycles=600,
                                traffic=dataclasses.replace(spec.traffic,
                                                            injection_rate=rate))
            for *_, spec in fig9_grid() for rate in PARALLEL_RATES
        ]
        if ctx.tiny:
            self.base = self.base[:8]
        self.ledger = Ledger(directory=ctx.scratch.fresh("ledger"))
        self.keep: set = set()

    def specs(self, rep: int) -> list:
        return [spec.with_seed(derive_seed(self.ctx.seed, self.name, rep, i))
                for i, spec in enumerate(self.base)]

    def sweep(self, specs, fabric: bool):
        """One cold sweep of ``specs``.

        Returns ``(report, wall seconds, seconds from the start until each
        result reached this process)``.
        """
        from repro.exec import FabricConfig, ResultCache, SweepRunner

        scratch = self.ctx.scratch
        arrivals = []

        def progress(done, total, point, outcome):
            arrivals.append(time.perf_counter())

        if fabric:
            runner = SweepRunner(
                fabric=FabricConfig(queue_dir=scratch.fresh("queue"),
                                    workers=PARALLEL_WORKERS),
                cache=ResultCache(directory=scratch.fresh("cache")),
                ledger=self.ledger, progress=progress)
        else:
            runner = SweepRunner(workers=PARALLEL_WORKERS, cache=ResultCache(),
                                 ledger=self.ledger, progress=progress)
        start = time.perf_counter()
        report = runner.run(specs)
        return report, time.perf_counter() - start, [t - start for t in arrivals]

    def step(self, rep: int) -> dict:
        """The same cold points through the pool, then through the fabric."""
        specs = self.specs(rep)
        out = {"n": len(specs), "problems": [], "kept": []}
        reports = {}
        for path in PATHS:
            reports[path], out[f"{path}_s"], out[f"{path}_arrivals"] = self.sweep(
                specs, fabric=path == "fabric")
            points = reports[path].points
            out[f"{path}_points_s"] = [p.wall_time_s for p in points]
            out["problems"] += [f"{path}: {f.describe()}" for f in reports[path].failures]
            out["kept"] += [(p.spec, p.result, None) for p in points
                            if (rep, p.index, path) in self.keep]
        out["parallel"] = reports["pool"].parallel
        fabric = {p.index: p.result for p in reports["fabric"].points}
        for p in reports["pool"].points:
            if p.index in fabric and fabric[p.index] != p.result:
                out["problems"].append(
                    f"pool and fabric disagree on {p.spec.cache_key()[:12]}")
        return out

    def run(self, run: Run) -> None:
        ctx = self.ctx
        count, n = ctx.reps(self.nominal_rep_s, 2), len(self.base)
        self.keep = {(rep, i, PATHS[i % 2]) for rep, i in chosen_points(
            ctx, self.name, count, n, 2 if ctx.tiny else 4)}
        reps = [self.step(rep) for rep in range(count)]
        run.attempted += 2 * n * count
        # raw host seconds: the work spans both CPUs, process spawns and
        # queue polls, which a calibration mark on one CPU does not track --
        # normalizing widened the spread between runs several-fold
        throughput(run, "pool+fabric", 2 * n,
                   [r["pool_s"] + r["fabric_s"] for r in reps])
        rates = {path: [n / r[f"{path}_s"] for r in reps] for path in PATHS}
        for path in PATHS:
            run.lines.append(summarize(f"{path} x2 points_per_s (raw host s)",
                                       rates[path], "points/s"))
        if not all(r["parallel"] for r in reps):
            run.lines.append("note: the process pool was unavailable; the "
                             "runner fell back to serial execution")
        # time to each result on the fabric path: mixing in the pool's
        # (about twice as fast) would put the median between two modes
        latency_metrics(run, [1e3 * t for r in reps for t in r["fabric_arrivals"]],
                        "fabric results (time since sweep start)")
        for rep, r in enumerate(reps):
            for problem in r["problems"]:
                run.fail(f"rep {rep}: {problem}")
        compare_reference(run, [s for r in reps for s in r["kept"]], "parallel")
        if ctx.trace:
            self.keep = set()
            self.trace(run, reps)

    def dispatch_layers(self, run: Run, reps: list) -> None:
        """Pool and fabric costs, judged from outside by their walls.

        Worker processes carry no in-process spans.  A two-point sweep gives
        each path's fixed cost, and the per-point overhead is what a
        2-worker wall holds beyond the workers' own simulation time and
        that fixed cost.
        """
        layers = run.layers
        two = self.specs(len(reps))[:2]
        for path in PATHS:
            layers[f"sweep.{path}_points_per_s"] = median(
                [r["n"] / r[f"{path}_s"] for r in reps])
            report, wall, _ = self.sweep(two, fabric=path == "fabric")
            fixed = max(0.0, wall - max(p.wall_time_s for p in report.points))
            layers["pool.startup_s" if path == "pool" else "fabric.fixed_s"] = fixed
            layers[f"{path}.overhead_ms_per_point"] = median([
                1e3 * (r[f"{path}_s"] - fixed
                       - sum(r[f"{path}_points_s"]) / PARALLEL_WORKERS) / r["n"]
                for r in reps])

    def trace(self, run: Run, reps: list) -> None:
        """Dispatch costs from outside, then a traced serial pass in-process."""
        from repro.exec import ResultCache, SweepRunner

        layers = run.layers
        self.dispatch_layers(run, reps)

        # in-process layers: the same points through a serial runner on an
        # on-disk cache, as one fabric worker or the service would run them
        specs = self.specs(0)

        def step(rep):
            SweepRunner(workers=1, ledger=self.ledger, cache=ResultCache(
                directory=self.ctx.scratch.fresh("cache"))).run(specs)

        trace, traced_s = traced_repeat(self.ctx, run, step, self.nominal_rep_s / 2)
        engine_layers(trace, layers, traced_s)
        self.trace_obj = trace


def dispatch_probe(ctx: Context, run: Run) -> None:
    """One ``parallel-sweep`` repetition for the dispatch layers of a traced
    run: the same 96 points through the 2-worker pool and the fabric."""
    sweep = ParallelSweep(ctx)
    rep = sweep.step(0)
    run.attempted += 2 * rep["n"]
    for problem in rep["problems"]:
        run.fail(f"dispatch probe: {problem}")
    sweep.dispatch_layers(run, [rep])


WORKLOADS = {cls.name: cls for cls in (Fig9Sweep, CapabilityMix, ParallelSweep)}


def finish_common(run: Run) -> None:
    run.e2e["peak_rss_mb"] = peak_rss_mb()
