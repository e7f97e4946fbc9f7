"""``service-evaluate``: an open-loop client against ``repro serve``.

The server runs as a child process with an on-disk cache and ledger in
fresh directories.  The client is this one process with at most two
connections in flight (two sender threads).  Requests are due on a fixed
schedule at :data:`OFFERED_RATE` per second, whether or not earlier ones
have been answered, and each is timed from when it was due, so a stall
shows up in the latency of every request queued behind it.

Four requests in five are *warm*: specs an untimed prefill already
evaluated (a seeded random pick), so the server answers from its cache.
Every fifth is *cold*: a fresh traffic seed, so the server simulates,
writes the cache and appends to its ledger.  A fixed pattern rather than a
coin per slot keeps cold requests 100 ms apart, so the cold tail measures
the engine and not how often two random colds happened to collide.  Every
tenth cold spec is sent twice back to back, one per connection: the
second copy is due :data:`DUPLICATE_GAP_S` after the first and is posted
once ``GET /v1/results/{key}`` shows the first in flight, so it joins that
computation through the service's coalescing.  The loop runs in
:data:`SEGMENT_S` slices with a host-speed mark between them, which
normalizes the cold requests (see ``ServiceEvaluate.segmented_loop``).

Every request asks the server to wait at most :data:`WAIT_S` and, on a
202, polls ``GET /v1/results/{key}`` until the result is there -- the
API's documented contract.  Two copies of a spec can race inside
``ExperimentService.submit`` so that one waiter sleeps on an orphaned
in-flight entry for its whole ``wait_s`` (see README); with the bounded
wait that defect shows as a latency of about :data:`WAIT_S` on the raced
request instead of a 60 s stall.

Each request opens its own connection.  The server writes a response's
headers and body in two ``send`` calls; on a kept-alive connection Nagle's
algorithm then waits for the client's delayed ACK, adding about 40 ms to
every answer -- a property of the TCP stack, not of the service.
"""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import random
import subprocess
import sys
import threading
import time

from harness import derive_seed, fig9_grid, median, tail
from workloads import Context, Run, engine_layers, summarize

#: Offered load, requests per second: about half of what the server
#: answers with both connections kept busy on the 2-core reference host in
#: its slow state (~100/s; ~190/s in its fast state, see README).
OFFERED_RATE = 50.0
COLD_EVERY = 5            # every fifth slot is cold: 80 % warm, colds 100 ms apart
WARM_SEEDS = 2            # warm pool: the 24-point fig-9 grid x 2 seeds
DUPLICATE_EVERY = 10      # every Nth cold spec is sent twice back to back
DUPLICATE_GAP_S = 0.002   # the second copy is due this long after the first
CONNECTIONS = 2
CLIENT = "perfbench"
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
WAIT_S = 2.0              # server-side wait before it answers 202
SEGMENT_S = 1.0           # open-loop slice between two host-speed marks
POLL_S = 0.005            # GET /v1/results period after a 202


class Server:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, cache_dir: str, ledger_dir: str, log_path: str):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
             "--cache-dir", cache_dir, "--ledger-dir", ledger_dir,
             # the per-client limit must sit far above the offered rate
             "--rate", str(100 * OFFERED_RATE), "--burst", str(100 * OFFERED_RATE)],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            self.host, self.port = self._address()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()), daemon=True)
        reader.start()
        try:
            line = lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("repro serve printed no address") from None
        if "http://" not in line:
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
        return host, int(port)

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                status, _ = self.request("GET", "/healthz", timeout=5.0)
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            headers = {"X-Repro-Client": CLIENT}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def evaluate(self, body: bytes, key: str) -> tuple[int, bytes]:
        """``POST /v1/evaluate``; after a 202, poll until the result is done."""
        status, data = self.request("POST", "/v1/evaluate", body)
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        while status == 202 and time.monotonic() < deadline:
            time.sleep(POLL_S)
            status, data = self.request("GET", f"/v1/results/{key}")
        return status, data

    def metrics(self) -> dict:
        from repro.telemetry.report import parse_prometheus

        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(body.decode("utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def counter(snapshot: dict, name: str) -> float:
    """Unlabelled counter value from a parsed Prometheus snapshot."""
    for metric, labels, _, value in snapshot["metrics"]:
        if metric == name and not labels:
            return float(value)
    return 0.0


def open_loop(server: Server, schedule: list, start_in: float = 0.005) -> list:
    """Send ``schedule`` (``(offset_s, body, key, duplicate)``) open-loop.

    A duplicate is posted once the server reports its key in flight or
    done, which the latency includes.

    Returns one ``(lag_s, latency_s, status, body, sent, done)`` tuple per
    slot; lag is how late the sender ran and latency counts from the slot's
    due time.
    """
    results: list = [None] * len(schedule)
    slots = itertools.count()
    origin = time.perf_counter() + start_in

    def sender():
        while True:
            i = next(slots)
            if i >= len(schedule):
                return
            offset, body, key, duplicate = schedule[i]
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                while duplicate and server.request(
                        "GET", f"/v1/results/{key}")[0] == 404:
                    time.sleep(0.001)
                status, data = server.evaluate(body, key)
            except OSError as err:
                status, data = None, repr(err).encode("utf-8")
            done = time.perf_counter()
            results[i] = (sent - due, done - due, status, data, sent, done)

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class ServiceEvaluate:
    """Warm and cold ``POST /v1/evaluate`` at a fixed offered rate."""

    name = "service-evaluate"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.grid = [spec for *_, spec in fig9_grid()]
        if ctx.tiny:
            self.grid = self.grid[:4]
        self.warm = [spec.with_seed(derive_seed(ctx.seed, self.name, "warm", s))
                     for s in range(WARM_SEEDS) for spec in self.grid]
        self.warm_bodies = [encode(spec) for spec in self.warm]
        self.warm_keys = [spec.cache_key() for spec in self.warm]
        self._cold_serial = itertools.count()
        self.server = Server(ctx.scratch.fresh("cache"), ctx.scratch.fresh("ledger"),
                             str(ctx.scratch.path / "serve.log"))

    def close(self) -> None:
        self.server.stop()

    def cold_spec(self):
        i = next(self._cold_serial)
        spec = self.grid[i % len(self.grid)]
        return spec.with_seed(derive_seed(self.ctx.seed, self.name, "cold", i))

    @property
    def rate(self) -> float:
        return OFFERED_RATE / 4 if self.ctx.tiny else OFFERED_RATE

    def schedule(self, seconds: float, label: str):
        """Slots for :func:`open_loop`, plus the ``(kind, spec)`` each sends."""
        rng = random.Random(derive_seed(self.ctx.seed, self.name, label))
        slots, meta, colds = [], [], 0
        for i in range(max(2, int(seconds * self.rate))):
            offset = i / self.rate
            if i % COLD_EVERY != COLD_EVERY // 2:
                j = rng.randrange(len(self.warm))
                slots.append((offset, self.warm_bodies[j], self.warm_keys[j], False))
                meta.append(("warm", self.warm[j]))
                continue
            spec = self.cold_spec()
            body, key = encode(spec), spec.cache_key()
            slots.append((offset, body, key, False))
            meta.append(("cold", spec))
            colds += 1
            if colds % DUPLICATE_EVERY == 0:
                slots.append((offset + DUPLICATE_GAP_S, body, key, True))
                meta.append(("cold", spec))
        return slots, meta

    def segmented_loop(self, slots: list) -> tuple[list, list]:
        """:func:`open_loop` in :data:`SEGMENT_S` slices with a host-speed
        mark between them, taken while no request is in flight (marks taken
        under the benchmark's own load would read its CPU use as host
        slowness).  Returns the results, each slot's normalization and the
        seconds spent in the loop itself."""
        speed = self.ctx.speed
        results, factors, start, loop_s = [], [], 0, 0.0
        while start < len(slots):
            base = slots[start][0]
            end = start
            while end < len(slots) and slots[end][0] - base < SEGMENT_S:
                end += 1
            epoch = speed.mark()
            began = time.perf_counter()
            results += open_loop(self.server, [(offset - base, *rest)
                                               for offset, *rest in slots[start:end]])
            loop_s += time.perf_counter() - began
            factors += [epoch] * (end - start)
            start = end
        speed.mark()
        return results, [speed.factor(epoch) for epoch in factors], loop_s

    def prefill(self, run: Run) -> None:
        for spec, body, key in zip(self.warm, self.warm_bodies, self.warm_keys):
            status, _ = self.server.evaluate(body, key)
            if status != 200:
                run.fail(f"prefill {spec.cache_key()[:12]} answered {status}")

    def run(self, run: Run) -> None:
        ctx = self.ctx
        self.prefill(run)
        slots, meta = self.schedule(ctx.seconds / 2 if ctx.trace else ctx.seconds,
                                    "timed")
        before = self.server.metrics()
        results, factors, loop_s = self.segmented_loop(slots)
        after = self.server.metrics()

        run.attempted += len(results)
        answers = {}
        # warm latency is TCP stack, thread wake-ups and a cache read in two
        # processes, which the calibration loop does not track (normalizing
        # it doubled its spread between runs): raw host milliseconds.  Cold
        # latency is the simulation: normalized like the sweeps.
        warm_ms, cold_ms, lags = [], [], []
        for i, ((kind, spec), (lag, latency, status, data, *_)) in enumerate(
                zip(meta, results)):
            lags.append(1e3 * lag)
            doc = json.loads(data) if status is not None else None
            if status != 200 or doc.get("status") != "done":
                run.fail(f"request {i} ({kind}) answered {status}: {data[:200]!r}")
                continue
            if doc.get("key") != spec.cache_key():
                run.fail(f"request {i}: key {doc.get('key')} is not the spec's")
                continue
            if kind == "warm":
                warm_ms.append(1e3 * latency)
            else:
                cold_ms.append(1e3 * latency * factors[i])
            answers.setdefault(doc["key"], (kind, spec, doc["result"]))
        # answered requests per second of open loop: the offered rate while
        # the server keeps up, lower once requests back up behind it
        run.e2e["points_per_s"] = (len(warm_ms) + len(cold_ms)) / loop_s
        # p50 of the warm requests (HTTP, wire, admission, cache read) and
        # the tail of the cold ones (engine, cache write, ledger)
        run.lines.append(f"offered rate {self.rate:g}/s open loop, {CONNECTIONS} "
                         f"connections, {len(warm_ms)} warm + {len(cold_ms)} cold")
        run.e2e["p50_ms"] = median(warm_ms)
        run.e2e["tail_ms"], pct, n = tail(cold_ms)
        run.lines.append(summarize("p50_ms: warm latency (raw)", warm_ms, "ms"))
        run.lines.append(summarize("cold latency (normalized)", cold_ms, "ms"))
        run.lines.append(f"tail_ms = cold p{pct:.2f} = {run.e2e['tail_ms']:.4f} ms "
                         f"over {n} cold requests ({n - round(pct * n / 100)} beyond)")
        run.lines.append(f"warm tail: p{tail(warm_ms)[1]:.2f} = "
                         f"{tail(warm_ms)[0]:.4f} ms")
        lag_tail, lag_pct, _ = tail(lags)
        run.lines.append(f"sender lag: p50 {median(lags):.3f} ms, "
                         f"p{lag_pct:.2f} {lag_tail:.3f} ms")

        specs = counter(after, "service_specs_total") - counter(before, "service_specs_total")
        coalesced = (counter(after, "service_coalesced_total")
                     - counter(before, "service_coalesced_total"))
        refused = sum(counter(after, name) - counter(before, name) for name in (
            "service_rate_limited_total", "service_budget_refusals_total"))
        run.lines.append(f"server: {specs:.0f} specs admitted, {coalesced:.0f} "
                         f"coalesced, {refused:.0f} refused")
        self.check(run, answers)
        if ctx.trace:
            layers = run.layers
            layers["service.warm_p50_ms"] = median(warm_ms)
            layers["service.warm_tail_ms"] = tail(warm_ms)[0]
            layers["service.cold_p50_ms"] = median(cold_ms)
            layers["service.cold_tail_ms"] = tail(cold_ms)[0]
            layers["service.coalesced_frac"] = coalesced / specs if specs else 0.0
            layers["service.refused"] = refused
            layers["loadgen.lag_tail_ms"] = lag_tail
            self.trace(run, results, meta, median(warm_ms))

    def check(self, run: Run, answers: dict) -> None:
        """HTTP answers must equal the in-process ``to_wire()`` documents."""
        from repro.noc.sim import simulate

        rng = random.Random(derive_seed(self.ctx.seed, self.name, "check"))
        k = 2 if self.ctx.tiny else 6
        for kind in ("warm", "cold"):
            keys = sorted(key for key, (kk, *_) in answers.items() if kk == kind)
            for key in rng.sample(keys, min(k, len(keys))):
                _, spec, result = answers[key]
                expected = json.loads(json.dumps(simulate(spec).to_wire()))
                if result != expected:
                    run.fail(f"{kind} answer for {key[:12]} differs from the "
                             "in-process result")
        run.lines.append(f"answer check: up to {k} warm + {k} cold HTTP results "
                         "compared with in-process to_wire()")

    def trace(self, run: Run, results, meta, warm_http_p50_ms: float) -> None:
        """Request spans from the HTTP loop, then the service in-process.

        The in-process pass runs the same warm and cold documents through
        an :class:`ExperimentService` in this process, untraced and then
        traced (each on a fresh cache), which splits a request into wire
        decode, cache, engine, ledger and result encoding, and gives the
        HTTP overhead as warm HTTP minus warm in-process latency.
        """
        from layers import LayerTrace

        trace = LayerTrace(prefix="s")
        for i, ((kind, _), (_, _, status, _, sent, done)) in enumerate(
                zip(meta, results)):
            trace.spans.append([f"r{i}", None, "service", sent, done,
                                {"point": f"r{i}", "kind": kind, "status": status}])
        warm = [spec.to_wire() for spec in self.warm]
        n_cold = 4 if self.ctx.tiny else 24
        cold = [self.cold_spec().to_wire() for _ in range(n_cold)]
        self._in_process(warm, cold)  # warm-up: first-use costs land here
        untraced = self._in_process(warm, cold)
        traced = self._in_process(warm, cold, trace)
        warm_ms = [1e3 * t for t in untraced["warm"]]
        run.layers["http.overhead_ms"] = warm_http_p50_ms - median(warm_ms)
        run.layers["trace.overhead_frac"] = traced["total"] / untraced["total"] - 1.0
        engine_layers(trace, run.layers, traced["total"])
        run.lines.append(summarize("in-process warm evaluate", warm_ms, "ms"))
        self.trace_obj = trace

    def _in_process(self, warm: list, cold: list, trace=None) -> dict:
        """Evaluate cold then warm documents on a fresh in-process service;
        ``trace`` (a LayerTrace) is installed after the untimed prefill."""
        from repro.exec import ResultCache
        from repro.service import ClientAccounts, ExperimentService
        from repro.telemetry import Ledger

        scratch = self.ctx.scratch
        service = ExperimentService(
            cache=ResultCache(directory=scratch.fresh("cache")),
            ledger=Ledger(directory=scratch.fresh("ledger")),
            accounts=ClientAccounts(rate_per_s=1e6, burst=1e6))

        def evaluate(doc):
            ticket = service.submit([doc], client=CLIENT)
            value = service.wait(ticket.keys[0], timeout_s=REQUEST_TIMEOUT_S)
            return value.to_wire()

        try:
            for doc in warm:
                evaluate(doc)  # prefill, like the HTTP run
            if trace is not None:
                trace.install()
            try:
                start = time.perf_counter()
                times = {"warm": [], "cold": []}
                for kind, docs in (("cold", cold), ("warm", warm)):
                    for doc in docs:
                        t0 = time.perf_counter()
                        evaluate(doc)
                        times[kind].append(time.perf_counter() - t0)
                times["total"] = time.perf_counter() - start
            finally:
                if trace is not None:
                    trace.remove()
        finally:
            service.close()
        return times


#: What the service probe of a traced ``fig9-sweep`` run contributes.
SERVICE_LAYERS = (
    "http.overhead_ms", "service.warm_p50_ms", "service.warm_tail_ms",
    "service.cold_p50_ms", "service.cold_tail_ms", "service.coalesced_frac",
    "service.refused", "loadgen.lag_tail_ms", "spec.wire_decode_us",
)
#: Budget of that probe (half of it is the open loop).
SERVICE_PROBE_S = 8.0


def service_probe(ctx: Context, run: Run, trace) -> None:
    """A short traced ``service-evaluate`` run inside another traced run:
    its service-layer figures, checks and spans join ``run`` and ``trace``."""
    import dataclasses

    sub = Run()
    workload = ServiceEvaluate(dataclasses.replace(
        ctx, seconds=SERVICE_PROBE_S, trace=True))
    try:
        workload.run(sub)
    finally:
        workload.close()
    run.attempted += sub.attempted
    run.failed += sub.failed
    run.problems += [f"service probe: {p}" for p in sub.problems]
    run.lines += [f"service probe: {line}" for line in sub.lines]
    run.layers.update({name: sub.layers[name] for name in SERVICE_LAYERS})
    trace.spans += workload.trace_obj.spans


def encode(spec) -> bytes:
    """The ``POST /v1/evaluate`` body: the wire spec in a bounded-wait envelope."""
    return json.dumps({"spec": spec.to_wire(), "wait_s": WAIT_S}).encode("utf-8")
