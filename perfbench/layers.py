"""Layer spans for the traced run, recorded from outside the program.

:class:`LayerTrace` wraps public entry points of each layer -- it never
edits ``src/`` -- and records one span per call: name (the layer),
start, end, parent span and the id of the design point or request the
call belongs to.  Spans stay in memory and are written once, at the
end, in the :class:`repro.telemetry.Tracer` JSONL shape, so
``repro report TRACE.jsonl`` lists the top sinks by layer.

``TrafficGenerator.packets_for_cycle`` runs once per simulated cycle, a
microsecond or two each; one span per call would cost more than the
call.  Consecutive calls with nothing else in between are therefore
merged into one ``noc.traffic`` span (a *burst*) that carries the call
count.  A burst closes as soon as any other wrapped call begins or ends,
so its interval holds only traffic generation -- plus the wrapper's own
cost per call, which :meth:`LayerTrace.install` measures so that
:meth:`LayerTrace.traffic_seconds` can take it out again.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: Calls to ``packets_for_cycle`` closer together than this are one burst.
BURST_GAP_S = 20e-6
#: Calls timed to measure the traffic wrapper's own cost.
CALIBRATION_CALLS = 20000


class LayerTrace:
    """Install wrappers with :meth:`install`, remove them with :meth:`remove`."""

    def __init__(self, prefix: str = "b"):
        self.spans: list[list] = []  # [id, parent, name, t0, t1, attrs]
        self._prefix = prefix  # span ids; distinct prefixes let traces merge
        self.counts: dict[str, int] = {}
        self.wrap_cost_s = 0.0       # per traffic call, see install()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._burst: list = [None]   # [span, thread id, calls] or None
        self._keys: dict[int, tuple] = {}  # id(spec) -> (spec, point id)
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _flush_burst(self) -> None:
        burst = self._burst[0]
        if burst is not None:
            self._burst[0] = None
            span, _, calls = burst
            span[5]["calls"] = calls
            self.spans.append(span)

    def _open_burst(self, t0: float, t1: float) -> None:
        self._flush_burst()
        stack = self._stack()
        parent = stack[-1] if stack else None
        attrs = {}
        if parent is not None and "point" in parent[5]:
            attrs["point"] = parent[5]["point"]
        span = [f"{self._prefix}{next(self._ids)}", parent[0] if parent else None,
                "noc.traffic", t0, t1, attrs]
        self._burst[0] = [span, threading.get_ident(), 1]

    def begin(self, name: str, point: str | None = None, **attrs) -> list:
        stack = self._stack()
        self._flush_burst()
        parent = stack[-1] if stack else None
        if point is None and parent is not None:
            point = parent[5].get("point")
        if point is not None:
            attrs["point"] = point
        span = [f"{self._prefix}{next(self._ids)}", parent[0] if parent else None,
                name, time.perf_counter(), None, attrs]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        self._flush_burst()
        span[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def point_of(self, spec) -> str:
        """The point id of a spec: its cache key prefix (memoized; the entry
        holds the spec, so its id cannot be reused by another)."""
        entry = self._keys.get(id(spec))
        if entry is None or entry[0] is not spec:
            entry = self._keys[id(spec)] = (spec, self._original_key(spec)[:12])
        return entry[1]

    # -- wrappers -------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, layer: str, call: str, point_of=None):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            point = point_of(*args, **kwargs) if point_of else None
            span = trace.begin(layer, point, call=call)
            try:
                return fn(*args, **kwargs)
            finally:
                trace.end(span)

        return wrapper

    def _wrap(self, owner, attr: str, layer: str, point_of=None) -> None:
        self._patch(owner, attr, self._spanned(
            owner.__dict__[attr], layer, attr, point_of))

    def _traffic_wrapper(self, draw):
        """The burst-merging wrapper; its fast path touches one list slot
        and two clock reads, so its cost stays small next to the call."""
        clock = time.perf_counter
        ident = threading.get_ident
        slot = self._burst
        open_burst = self._open_burst

        def packets_for_cycle(gen, cycle, measured):
            t0 = clock()
            packets = draw(gen, cycle, measured)
            t1 = clock()
            burst = slot[0]
            if burst is not None and t0 - burst[0][4] < BURST_GAP_S \
                    and burst[1] == ident():
                burst[0][4] = t1
                burst[2] += 1
            else:
                open_burst(t0, t1)
            return packets

        return functools.wraps(draw)(packets_for_cycle)

    def _calibrate(self) -> None:
        """Per-call cost of the traffic wrapper around a do-nothing call."""
        def noop(gen, cycle, measured):
            return ()

        wrapped = self._traffic_wrapper(noop)
        kept = len(self.spans)
        clock = time.perf_counter
        start = clock()
        for cycle in range(CALIBRATION_CALLS):
            noop(None, cycle, True)
        bare = clock() - start
        start = clock()
        for cycle in range(CALIBRATION_CALLS):
            wrapped(None, cycle, True)
        self.wrap_cost_s = max(0.0, (clock() - start - bare) / CALIBRATION_CALLS)
        self._burst[0] = None
        del self.spans[kept:]  # the calibration's own bursts

    def install(self) -> "LayerTrace":
        import repro.exec.runner as runner_mod
        import repro.noc.sim as sim_mod
        import repro.noc.spec as spec_mod
        import repro.service.core as service_core
        from repro.core.system import NoCSprintingSystem
        from repro.exec.cache import ResultCache
        from repro.exec.runner import SweepRunner
        from repro.noc.result import SimulationResult
        from repro.noc.spec import SimulationSpec
        from repro.noc.traffic import TrafficGenerator
        from repro.telemetry.ledger import Ledger

        trace = self
        self._calibrate()
        self._original_key = original_key = SimulationSpec.cache_key

        # traffic: burst-merged spans carrying their call counts
        self._patch(TrafficGenerator, "packets_for_cycle",
                    self._traffic_wrapper(TrafficGenerator.packets_for_cycle))

        # engine: one span per simulate() call, labelled by the engine path
        simulate = sim_mod.simulate

        @functools.wraps(simulate)
        def traced_simulate(spec, gating_policy=None, telemetry=None, backend=None):
            span = trace.begin("noc.backends", trace.point_of(spec),
                               engine=engine_path(spec, gating_policy, backend),
                               kind=point_kind(spec, gating_policy))
            try:
                result = simulate(spec, gating_policy=gating_policy,
                                  telemetry=telemetry, backend=backend)
                span[5]["cycles"] = result.cycles_run
                return result
            finally:
                trace.end(span)

        for module in (sim_mod, runner_mod):
            self._patch(module, "simulate", traced_simulate)

        # result assembly: power model attach and result wire encoding
        self._wrap(NoCSprintingSystem, "network_evaluation_for", "assembly",
                   point_of=lambda system, spec, sim, scheme: trace.point_of(spec))
        self._wrap(SimulationResult, "to_wire", "assembly")

        # spec identity (the key doubles as the point id) and wire codec
        @functools.wraps(original_key)
        def cache_key(spec):
            span = trace.begin("noc.spec", None, call="cache_key")
            try:
                key = original_key(spec)
            finally:
                trace.end(span)
            span[5]["point"] = key[:12]
            trace._keys[id(spec)] = (spec, key[:12])
            return key

        self._patch(SimulationSpec, "cache_key", cache_key)
        decode = self._spanned(spec_mod.spec_from_wire, "noc.spec", "spec_from_wire")
        for module in (spec_mod, service_core):
            self._patch(module, "spec_from_wire", decode)

        # cache I/O, keyed by the entry's content hash; lookups count hits
        for attr in ("get", "get_or_begin", "put"):
            self._patch(ResultCache, attr, self._cache_wrapper(ResultCache, attr))

        # dispatch: serial / process pool (exec.runner) or lease fabric
        run = SweepRunner.run

        @functools.wraps(run)
        def traced_run(runner, specs):
            mode = ("fabric" if runner.fabric is not None
                    else "pool" if runner.workers > 1 else "serial")
            span = trace.begin("exec.fabric" if mode == "fabric" else "exec.runner",
                               None, mode=mode, points=len(specs))
            try:
                return run(runner, specs)
            finally:
                trace.end(span)

        self._patch(SweepRunner, "run", traced_run)
        self._wrap(Ledger, "record", "telemetry.ledger")
        return self

    def _cache_wrapper(self, cls, attr: str):
        original = cls.__dict__[attr]
        trace = self

        @functools.wraps(original)
        def wrapper(cache, key, *args, **kwargs):
            span = trace.begin("exec.cache", key[:12], call=attr)
            try:
                value = original(cache, key, *args, **kwargs)
            finally:
                trace.end(span)
            if attr != "put":
                found = value[0] if attr == "get_or_begin" else value
                trace.count("cache.lookups")
                trace.count("cache.hits", found is not None)
            return value

        return wrapper

    def remove(self) -> None:
        self._flush_burst()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def closed(self) -> list[list]:
        return [span for span in self.spans if span[4] is not None]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by the layer's child spans."""
        spans = self.closed()
        child: dict[str, float] = {}
        for span in spans:
            if span[1] is not None:
                child[span[1]] = child.get(span[1], 0.0) + span[4] - span[3]
        totals: dict[str, float] = {}
        for span in spans:
            own = max(0.0, span[4] - span[3] - child.get(span[0], 0.0))
            totals[span[2]] = totals.get(span[2], 0.0) + own
        return totals

    def self_time_of(self, spans: list[list]) -> float:
        """Summed self time of ``spans`` (their wall minus child spans)."""
        ids = {span[0] for span in spans}
        child = sum(s[4] - s[3] for s in self.closed() if s[1] in ids)
        return max(0.0, sum(s[4] - s[3] for s in spans) - child)

    def by_name(self, name: str, **match) -> list[list]:
        return [span for span in self.closed() if span[2] == name
                and all(span[5].get(k) == v for k, v in match.items())]

    def traffic_seconds(self) -> dict[str, tuple[float, float, int]]:
        """Per span id: ``(raw s, wrapper-corrected s, calls)`` of the
        traffic bursts nested anywhere under that span."""
        spans = self.closed()
        parent_of = {s[0]: s[1] for s in spans}
        totals: dict[str, list] = {}
        for s in spans:
            if s[2] != "noc.traffic":
                continue
            raw, calls = s[4] - s[3], s[5]["calls"]
            ancestor = s[1]
            while ancestor is not None:
                entry = totals.setdefault(ancestor, [0.0, 0.0, 0])
                entry[0] += raw
                entry[1] += max(0.0, raw - calls * self.wrap_cost_s)
                entry[2] += calls
                ancestor = parent_of.get(ancestor)
        return {k: tuple(v) for k, v in totals.items()}

    def save(self, path: str | Path) -> int:
        """Write the spans as Tracer JSONL (begin/end pairs); event count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events = 0
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, t0, t1, attrs in sorted(
                    self.closed(), key=lambda s: s[3]):
                handle.write(json.dumps({
                    "ev": "begin", "id": span_id, "parent": parent, "name": name,
                    "ts": t0 - self._t0, "attrs": attrs}, sort_keys=True) + "\n")
                handle.write(json.dumps({
                    "ev": "end", "id": span_id, "wall_s": t1 - t0,
                    "cpu_s": 0.0, "attrs": {}}, sort_keys=True) + "\n")
                events += 2
        return events


def engine_path(spec, gating_policy=None, backend=None) -> str:
    """Which engine a run takes: ``c-kernel``, ``flat-python`` or ``reference``."""
    from repro.noc.backends import native

    name = backend if backend is not None else spec.backend
    if name == "auto":
        from repro.noc.backends import resolve_backend

        name = resolve_backend(spec, gating_policy=gating_policy).name
    if name != "vectorized":
        return name
    if gating_policy is None and native.available():
        return "c-kernel"
    return "flat-python"


def point_kind(spec, gating_policy=None) -> str:
    """The capability class of a point: gated, faulted, adaptive or plain."""
    if gating_policy is not None:
        return "gated"
    if spec.faults:
        return "faulted"
    if spec.routing in ("west_first", "negative_first"):
        return "adaptive"
    return "plain"
