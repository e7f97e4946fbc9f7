"""Tests for the two simulation engines and their selection by name.

Covers the fixed engine table (look up / list / the ``"auto"`` alias),
the ``backend`` field as an execution hint outside result identity (the
reference, vectorized and auto variants of one run compare equal and
share one cache key and cache entry), and -- most importantly --
cross-backend equivalence: the vectorized engine must be *bit-identical*
to the reference simulator on every run, fault schedules, gating
policies, adaptive routing and telemetry included.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import ResultCache, SweepRunner
from repro.noc.backends import (
    ReferenceBackend,
    VectorizedBackend,
    get_backend,
    list_backends,
    resolve_backend,
)
from repro.noc.sim import simulate, run_simulation
from repro.noc.spec import (
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TrafficSpec,
)

CFG = NoCConfig()


def make_spec(level=4, rate=0.1, pattern="uniform", seed=0, routing="cdor",
              warmup=200, measure=600, **kwargs):
    topo = SprintTopology.for_level(4, 4, level)
    traffic = TrafficSpec(tuple(topo.active_nodes), rate,
                          CFG.packet_length_flits, pattern=pattern, seed=seed)
    return SimulationSpec(topo, traffic, CFG, routing=routing,
                          warmup_cycles=warmup, measure_cycles=measure, **kwargs)


class TestRegistry:
    """The fixed engine table behind every backend name."""

    def test_builtins_are_registered(self):
        assert list_backends() == ("reference", "vectorized")

    def test_lookup_returns_declared_engines(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)
        assert get_backend("auto") is get_backend("vectorized")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="vectorized"):
            get_backend("gpu")


class TestCacheKeys:
    """The backend is an execution hint: it never reaches result identity."""

    def test_default_backend_absent_from_canonical_form(self):
        from repro.noc.spec import _canonical

        for backend in ("auto", "reference", "vectorized"):
            assert "backend" not in _canonical(make_spec(backend=backend))

    def test_default_and_explicit_reference_share_a_key(self):
        assert make_spec().cache_key() == make_spec(backend="reference").cache_key()

    def test_backend_variants_share_one_identity(self):
        variants = [make_spec(level=8, rate=0.15, seed=4, backend=backend)
                    for backend in ("reference", "vectorized", "auto")]
        assert variants[0] == variants[1] == variants[2]
        assert len({hash(spec) for spec in variants}) == 1
        # one shared cache entry: the second engine's run is a cache hit
        cache = ResultCache()
        first = SweepRunner(cache=cache).run([variants[0]]).points[0]
        second = SweepRunner(cache=cache).run([variants[1]]).points[0]
        assert not first.cached and second.cached
        assert second.result == first.result

    def test_non_default_backend_keys_separately(self):
        # a non-default engine no longer keys separately: one key per run
        assert make_spec().cache_key() == make_spec(backend="vectorized").cache_key()
        assert (make_spec(backend="reference").cache_key()
                == make_spec(backend="vectorized").cache_key())

    def test_with_backend_round_trip(self):
        spec = make_spec()
        fast = spec.with_backend("vectorized")
        assert fast.backend == "vectorized"
        assert fast.with_backend("reference").cache_key() == spec.cache_key()

    def test_empty_backend_rejected(self):
        for name in ("", "gpu"):
            with pytest.raises(ValueError, match="backend"):
                make_spec(backend=name)


class TestAutoBackend:
    """``backend="auto"`` -- the default -- names the fast path."""

    def test_auto_resolves_to_fastest_capable(self):
        assert make_spec().backend == "auto"
        assert resolve_backend(make_spec()).name == "vectorized"
        assert resolve_backend(make_spec(backend="reference")).name == "reference"

    def test_auto_covers_the_full_capability_grid(self):
        faulted = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        adaptive = make_spec(level=16, routing="west_first")
        assert resolve_backend(faulted, gating_policy=object()).name == "vectorized"
        assert resolve_backend(adaptive).name == "vectorized"

    def test_auto_cache_key_is_the_resolved_engines(self):
        auto = make_spec(backend="auto")
        assert auto.cache_key() == make_spec(
            backend=resolve_backend(auto).name).cache_key()

    def test_auto_never_changes_explicit_backend_keys(self):
        explicit = make_spec(backend="vectorized")
        reference = make_spec(backend="reference")
        keys = (explicit.cache_key(), reference.cache_key())
        # resolving the alias leaves the explicit specs and their keys alone
        assert resolve_backend(make_spec()).name == "vectorized"
        assert (explicit.backend, reference.backend) == ("vectorized", "reference")
        assert (explicit.cache_key(), reference.cache_key()) == keys
        assert keys == (make_spec().cache_key(),) * 2

    def test_simulate_accepts_auto(self):
        spec = make_spec(level=8, rate=0.2, seed=5)
        auto = simulate(spec, backend="auto")
        fast = simulate(spec, backend="vectorized")
        assert_identical(auto, fast, "auto override")
        via_field = run_simulation(spec.with_backend("auto"))
        assert_identical(via_field, fast, "auto spec field")


class TestResultCompat:
    def test_pickled_results_keep_their_import_path(self):
        import repro.noc.result
        import repro.noc.sim

        assert repro.noc.sim.SimulationResult is repro.noc.result.SimulationResult


def assert_identical(a, b, label):
    """Every field of two SimulationResults must match exactly."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    assert set(da) == set(db)
    for name in da:
        assert da[name] == db[name], f"{label}: field {name!r} diverges"


EQUIV_CASES = [
    # (level, rate, pattern, routing)
    (16, 0.05, "uniform", "xy"),
    (16, 0.30, "transpose", "xy"),
    (16, 0.15, "bit_complement", "cdor"),
    (8, 0.20, "uniform", "cdor"),
    (4, 0.10, "tornado", "cdor"),
    (4, 0.45, "hotspot", "cdor"),
    (2, 0.25, "neighbor", "cdor"),
    (1, 0.20, "uniform", "cdor"),
    # adaptive turn models (full mesh only)
    (16, 0.30, "transpose", "west_first"),
    (16, 0.40, "uniform", "negative_first"),
]


class TestCrossBackendEquivalence:
    """The acceptance bar: bit-for-bit agreement on the shared feature set."""

    @pytest.mark.parametrize("level,rate,pattern,routing", EQUIV_CASES)
    def test_results_bit_identical(self, level, rate, pattern, routing):
        spec = make_spec(level=level, rate=rate, pattern=pattern,
                         routing=routing, seed=level)
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert_identical(ref, fast, f"L{level} r{rate} {pattern}/{routing}")

    def test_saturated_run_agrees(self):
        spec = make_spec(level=16, rate=1.8, routing="xy",
                         warmup=200, measure=400, drain_cycles=500)
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert ref.saturated and fast.saturated
        assert_identical(ref, fast, "saturated")

    def test_python_fallback_agrees(self, monkeypatch):
        """With the native kernel disabled the vectorized backend runs the
        reference engine and must produce the same bits."""
        from repro.noc.backends import native

        monkeypatch.setenv("REPRO_NOC_NATIVE", "0")
        assert not native.available()
        spec = make_spec(level=8, rate=0.2, seed=3)
        fast = simulate(spec, backend="vectorized")
        monkeypatch.delenv("REPRO_NOC_NATIVE")
        assert_identical(simulate(spec, backend="reference"), fast, "fallback")

    def test_spec_backend_field_selects_engine(self):
        spec = make_spec(level=4, rate=0.1, seed=7)
        via_field = run_simulation(spec.with_backend("vectorized"))
        via_override = run_simulation(spec, backend="vectorized")
        assert_identical(via_field, via_override, "selection")


FAULT_CASES = [
    # (label, level, rate, routing, events)
    ("permanent router", 16, 0.12, "cdor",
     (FaultEvent(cycle=300, node=5),)),
    ("transient router", 16, 0.15, "xy",
     (FaultEvent(cycle=300, node=5, duration=400),)),
    ("two faults", 16, 0.20, "cdor",
     (FaultEvent(cycle=250, node=5),
      FaultEvent(cycle=500, node=10, duration=400))),
    ("link fault", 16, 0.10, "cdor",
     (FaultEvent(cycle=400, kind="link", link=(5, 6)),)),
    ("degraded region", 9, 0.15, "cdor",
     (FaultEvent(cycle=350, node=5),)),
]


class TestFullCapabilityEquivalence:
    """The tentpole bar: the fast path must match the reference bit for bit
    on faulted, gated and adaptively-routed runs -- counters, latency
    distribution and gating statistics included."""

    @pytest.mark.parametrize("label,level,rate,routing,events",
                             FAULT_CASES, ids=[c[0] for c in FAULT_CASES])
    def test_faulted_runs_bit_identical(self, label, level, rate, routing,
                                        events):
        spec = make_spec(level=level, rate=rate, routing=routing, seed=level,
                         faults=FaultSchedule(events))
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert ref.reconfigurations >= 1  # the schedule actually fired
        assert_identical(ref, fast, label)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_faulted_runs_deterministic_across_seeds(self, seed):
        """Seed-swept fault schedules: every seed reproduces exactly on
        re-run and agrees across engines."""
        spec = make_spec(level=16, rate=0.15, warmup=200, measure=400,
                         faults=FaultSchedule(
                             (FaultEvent(cycle=300, node=5, duration=300),))
                         ).with_seed(seed)
        first = simulate(spec, backend="vectorized")
        again = simulate(spec, backend="vectorized")
        assert_identical(first, again, f"rerun seed={seed}")
        assert_identical(simulate(spec, backend="reference"), first,
                         f"cross-engine seed={seed}")

    @staticmethod
    def _gated_pair(spec, **policy):
        from repro.noc.power_gating import TimeoutGatingPolicy

        policy.setdefault("idle_timeout", 16)
        ref_policy = TimeoutGatingPolicy(**policy)
        fast_policy = TimeoutGatingPolicy(**policy)
        ref = simulate(spec, gating_policy=ref_policy, backend="reference")
        fast = simulate(spec, gating_policy=fast_policy, backend="vectorized")
        return ref, fast, ref_policy.stats, fast_policy.stats

    def _assert_gated_pair(self, spec, label, **policy):
        ref, fast, ref_stats, fast_stats = self._gated_pair(spec, **policy)
        assert_identical(ref, fast, label)
        assert dataclasses.asdict(ref_stats) == dataclasses.asdict(fast_stats)
        return ref, ref_stats

    @pytest.mark.parametrize("level,rate", [(16, 0.05), (16, 0.30), (9, 0.08)])
    def test_gated_runs_bit_identical(self, level, rate):
        spec = make_spec(level=level, rate=rate, seed=level)
        ref, fast, ref_stats, fast_stats = self._gated_pair(spec)
        assert ref_stats.gate_events > 0  # the policy actually gated
        assert_identical(ref, fast, f"gated L{level} r{rate}")
        assert dataclasses.asdict(ref_stats) == dataclasses.asdict(fast_stats)

    def test_gated_faulted_run_bit_identical(self):
        spec = make_spec(level=16, rate=0.05, seed=3, faults=FaultSchedule(
            (FaultEvent(cycle=300, node=5, duration=300),)))
        ref, fast, ref_stats, fast_stats = self._gated_pair(spec)
        assert ref.reconfigurations == 2
        assert_identical(ref, fast, "gated+faulted")
        assert dataclasses.asdict(ref_stats) == dataclasses.asdict(fast_stats)

    @pytest.mark.parametrize("idle_timeout", [0, 1, 64])
    def test_gated_timeout_edges(self, idle_timeout):
        spec = make_spec(level=16, rate=0.02, seed=11)
        _, stats = self._assert_gated_pair(spec, f"timeout {idle_timeout}",
                                           idle_timeout=idle_timeout)
        assert stats.gate_events > 0 and stats.wake_events > 0

    def test_gated_protected_nodes(self):
        spec = make_spec(level=16, rate=0.05, seed=12)
        protected = frozenset({0, 5, 10, 15})
        _, stats = self._assert_gated_pair(spec, "protected", idle_timeout=4,
                                           protected_nodes=protected)
        open_stats = self._gated_pair(spec, idle_timeout=4)[2]
        # protected routers are never gated, so fewer gated router-cycles
        assert 0 < stats.gated_router_cycles < open_stats.gated_router_cycles

    @pytest.mark.parametrize("routing", ["west_first", "negative_first"])
    def test_gated_adaptive_routing(self, routing):
        spec = make_spec(level=16, rate=0.2, seed=13, routing=routing)
        _, stats = self._assert_gated_pair(spec, f"gated {routing}",
                                           idle_timeout=8)
        assert stats.gate_events > 0

    def test_gated_saturated_run_grows_the_horizon(self, monkeypatch):
        """A saturated gated run outlasts the first traffic horizon, so the
        kernel reports UNFINISHED and re-runs; the stats of the abandoned
        invocation must not reach the policy."""
        from repro.noc.backends import native

        flags = []
        kernel_run = native._kernel_run

        def spy(*args, **kwargs):
            run = kernel_run(*args, **kwargs)
            flags.append(int(run.out[1]))
            return run

        monkeypatch.setattr(native, "_kernel_run", spy)
        spec = make_spec(level=16, rate=0.5, pattern="hotspot", seed=1,
                         routing="xy", warmup=200, measure=400,
                         drain_cycles=2600)
        ref, stats = self._assert_gated_pair(spec, "gated saturated",
                                             idle_timeout=4)
        assert ref.saturated and stats.gate_events > 0
        if native.available():
            assert flags[0] & native._FLAG_UNFINISHED
            assert not flags[-1] & native._FLAG_UNFINISHED

    def test_reused_policy_accumulates_like_the_reference(self):
        from repro.noc.power_gating import TimeoutGatingPolicy

        specs = [make_spec(level=16, rate=0.05, seed=seed) for seed in (1, 2)]
        policies = {}
        for backend in ("reference", "vectorized"):
            policy = TimeoutGatingPolicy(idle_timeout=16)
            results = [simulate(spec, gating_policy=policy, backend=backend)
                       for spec in specs]
            policies[backend] = (results, dataclasses.asdict(policy.stats))
        for ref, fast in zip(policies["reference"][0], policies["vectorized"][0]):
            assert_identical(ref, fast, "reused policy")
        assert policies["reference"][1] == policies["vectorized"][1]
        single = TimeoutGatingPolicy(idle_timeout=16)
        simulate(specs[0], gating_policy=single, backend="vectorized")
        assert policies["vectorized"][1]["gate_events"] > single.stats.gate_events

    def test_policy_subclass_runs_on_the_reference(self):
        """A subclass may override ``step``, so the vectorized backend must
        hand it to the reference engine rather than run the kernel's rule."""
        from repro.noc.power_gating import TimeoutGatingPolicy

        class EveryOtherCycle(TimeoutGatingPolicy):
            def step(self, network):
                if network.cycle % 2 == 0:
                    super().step(network)

        spec = make_spec(level=16, rate=0.05, seed=14)
        ref_policy = EveryOtherCycle(idle_timeout=8)
        fast_policy = EveryOtherCycle(idle_timeout=8)
        ref = simulate(spec, gating_policy=ref_policy, backend="reference")
        fast = simulate(spec, gating_policy=fast_policy, backend="vectorized")
        assert_identical(ref, fast, "policy subclass")
        assert dataclasses.asdict(ref_policy.stats) \
            == dataclasses.asdict(fast_policy.stats)
        plain = TimeoutGatingPolicy(idle_timeout=8)
        simulate(spec, gating_policy=plain, backend="vectorized")
        assert dataclasses.asdict(plain.stats) \
            != dataclasses.asdict(fast_policy.stats)

    @settings(max_examples=12, deadline=None)
    @given(
        level=st.sampled_from([4, 8, 9, 16]),
        rate=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**16),
        idle_timeout=st.integers(0, 40),
        data=st.data(),
    )
    def test_gated_property(self, level, rate, seed, idle_timeout, data):
        """Short gated runs over random loads, timeouts and protected
        subsets agree with the reference, results and stats alike."""
        nodes = SprintTopology.for_level(4, 4, level).active_nodes
        protected = data.draw(st.frozensets(st.sampled_from(sorted(nodes))))
        spec = make_spec(level=level, rate=rate, seed=seed, warmup=50,
                         measure=150)
        self._assert_gated_pair(spec, "gated property",
                                idle_timeout=idle_timeout,
                                protected_nodes=protected)

    def test_faulted_counters_surface_drops(self):
        spec = make_spec(level=16, rate=0.25, seed=5, faults=FaultSchedule(
            (FaultEvent(cycle=400, node=5),)))
        ref = simulate(spec, backend="reference")
        fast = simulate(spec, backend="vectorized")
        assert fast.packets_dropped == ref.packets_dropped > 0
        assert fast.min_region_level == ref.min_region_level < 16


class TestSamplingParity:
    """Sampled telemetry runs must produce identical sample streams and
    metrics on every backend -- the fast path earns its ``sampling``
    capability by emitting byte-for-byte what the reference emits."""

    @staticmethod
    def _run(spec, backend, interval=100):
        from repro.telemetry import Telemetry

        tel = Telemetry(sample_interval=interval)
        result = simulate(spec, backend=backend, telemetry=tel)
        events = tel.tracer.drain()
        samples = [e["data"] for e in events if e["ev"] == "sample"]
        spans = sorted(e["name"] for e in events if e["ev"] == "begin")
        return result, samples, spans, tel.metrics.snapshot()

    SAMPLED_CASES = [
        dict(level=16, rate=0.30, pattern="transpose", routing="xy", seed=2),
        dict(level=4, rate=0.15, seed=3),
        dict(level=4, rate=0.001, seed=9),  # mostly idle: back-filled rows
        dict(level=1, rate=0.20, seed=7),
        # the tentpole capabilities must sample identically too
        dict(level=16, rate=0.25, seed=4, routing="west_first"),
        dict(level=16, rate=0.12, seed=5,
             faults=FaultSchedule((FaultEvent(cycle=300, node=5),))),
    ]

    @staticmethod
    def _require_kernel(monkeypatch):
        from repro.noc.backends import native

        monkeypatch.delenv("REPRO_NOC_NATIVE", raising=False)
        if not native.available():
            pytest.skip("no C compiler / native kernel disabled")

    @pytest.mark.parametrize("case", SAMPLED_CASES)
    def test_native_kernel_matches_reference(self, case, monkeypatch):
        self._require_kernel(monkeypatch)
        spec = make_spec(**case)
        ref, ref_samples, ref_spans, ref_metrics = self._run(spec, "reference")
        fast, samples, spans, metrics = self._run(spec, "vectorized")
        assert_identical(ref, fast, f"native sampled {case}")
        assert ref_samples == samples
        assert ref_spans == spans
        assert ref_metrics == metrics

    @pytest.mark.parametrize("events", [
        (FaultEvent(cycle=300, node=5, duration=300),),
        (FaultEvent(cycle=300, node=5), FaultEvent(cycle=500, node=9)),
        # boundary landing in the drain window, after the measure flip
        (FaultEvent(cycle=300, node=5, duration=450),),
    ], ids=["transient", "two-permanent", "recovery-in-drain"])
    def test_faulted_span_stream_ordered_identically(self, events):
        """Reconfigure spans must interleave with the phase transitions in
        the reference's exact order (boundary processing precedes the
        phase check at the same cycle), with identical payloads."""
        from repro.telemetry import Telemetry

        spec = make_spec(level=16, rate=0.12, seed=6,
                         faults=FaultSchedule(events))
        streams = {}
        for backend in ("reference", "vectorized"):
            tel = Telemetry(sample_interval=100)
            simulate(spec, backend=backend, telemetry=tel)
            streams[backend] = [
                (e["name"],
                 {k: v for k, v in e.items() if k not in ("id", "parent", "ts")})
                for e in tel.tracer.drain() if e["ev"] == "begin"
            ]
        assert streams["reference"] == streams["vectorized"]
        assert [n for n, _ in streams["reference"]].count("reconfigure") \
            == len(FaultSchedule(events).boundaries())

    def test_saturated_sampled_run_agrees(self, monkeypatch):
        self._require_kernel(monkeypatch)
        spec = make_spec(level=16, rate=1.8, routing="xy",
                         warmup=200, measure=400, drain_cycles=500)
        ref, ref_samples, _, _ = self._run(spec, "reference")
        fast, samples, _, _ = self._run(spec, "vectorized")
        assert ref.saturated and fast.saturated
        assert ref_samples == samples

    @staticmethod
    def _gated_streams(spec):
        """Result, samples, metrics, span stream and policy stats of one
        sampled gated run per backend."""
        from repro.noc.power_gating import TimeoutGatingPolicy
        from repro.telemetry import Telemetry

        streams = {}
        for backend in ("reference", "vectorized"):
            tel = Telemetry(sample_interval=100)
            policy = TimeoutGatingPolicy(idle_timeout=16)
            result = simulate(spec, gating_policy=policy, telemetry=tel,
                              backend=backend)
            events = tel.tracer.drain()
            streams[backend] = (
                dataclasses.asdict(result),
                [e["data"] for e in events if e["ev"] == "sample"],
                tel.metrics.snapshot(),
                [(e["name"], {k: v for k, v in e.items()
                              if k not in ("id", "parent", "ts")})
                 for e in events if e["ev"] == "begin"],
                dataclasses.asdict(policy.stats),
            )
        assert streams["reference"] == streams["vectorized"]
        return streams["reference"]

    def test_gated_sampled_run_agrees(self, monkeypatch):
        self._require_kernel(monkeypatch)
        _, samples, _, _, _ = self._gated_streams(
            make_spec(level=16, rate=0.05, seed=3))
        # gated routers are visible in the sample payloads
        assert any(stats["gated"]
                   for data in samples for stats in data["routers"].values())

    def test_gated_faulted_sampled_run_agrees(self, monkeypatch):
        self._require_kernel(monkeypatch)
        spec = make_spec(level=16, rate=0.05, seed=3, faults=FaultSchedule(
            (FaultEvent(cycle=300, node=5, duration=300),)))
        result, samples, metrics, _, _ = self._gated_streams(spec)
        assert result["reconfigurations"] == 2
        assert any(row[0] == "noc_router_gated_cycles_total"
                   for row in metrics["metrics"])

    def test_sample_payload_shape(self, monkeypatch):
        self._require_kernel(monkeypatch)
        _, samples, _, _ = self._run(make_spec(level=4, rate=0.15), "vectorized")
        assert samples
        for data in samples:
            assert data["cycle"] % 100 == 0
            assert set(data) == {"cycle", "in_flight", "buffered", "routers"}
            assert len(data["routers"]) == 4
            for stats in data["routers"].values():
                assert set(stats) == {"inj", "ej", "occ", "gated"}
                assert stats["gated"] == 0


def _native():
    from repro.noc.backends import native

    if not native.available():
        pytest.skip("no C compiler / native kernel disabled")
    return native


@st.composite
def _latency_samples(draw):
    """(latencies, hops) in ejection order: empty, single, duplicate-heavy,
    3,000 long or arbitrary."""
    import random

    kind = draw(st.sampled_from(["empty", "single", "dups", "long", "any"]))
    if kind == "long":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        top = draw(st.sampled_from([3, 120, 10**6]))
        return ([rng.randint(0, top) for _ in range(3000)],
                [rng.randint(0, 14) for _ in range(3000)])
    size = {"empty": 0, "single": 1}.get(kind)
    values = st.integers(0, 3) if kind == "dups" else st.integers(0, 10**7)
    n = size if size is not None else draw(st.integers(0, 80))
    lat = draw(st.lists(values, min_size=n, max_size=n))
    hops = draw(st.lists(st.integers(0, 14), min_size=n, max_size=n))
    return lat, hops


def _count_kernel_runs(monkeypatch, native):
    """Spy on ``_kernel_run``: the list fills with each call's flags and
    horizon reached."""
    calls = []
    kernel_run = native._kernel_run

    def spy(*args, **kwargs):
        run = kernel_run(*args, **kwargs)
        calls.append((int(run.out[1]), int(run.out[0]), int(run.out[13])))
        return run

    monkeypatch.setattr(native, "_kernel_run", spy)
    return calls


class TestOnDemandKernel:
    """A plain run is one kernel call that draws its own traffic and
    computes the result statistics: the statistics equal the Python
    oracle bit for bit, the draw stops one chunk past the cycles run, and
    a too-small row capacity only costs re-runs, never different bits."""

    @settings(max_examples=150, deadline=None)
    @given(sample=_latency_samples())
    def test_result_stats_match_the_python_oracle(self, sample):
        from repro.util.stats import RunningStats, percentile

        native = _native()
        lat, hops = sample
        latency, hop_stats = RunningStats(), RunningStats()
        for value, hop in zip(lat, hops):
            latency.add(value)
            hop_stats.add(hop)
        want = [
            latency.mean if lat else 0.0,
            hop_stats.mean if lat else 0.0,
            float(int(latency.maximum)) if lat else 0.0,
            *(float(percentile(lat, q)) if lat else 0.0 for q in (50, 95, 99)),
        ]
        got = native._result_stats(native._load(), lat, hops)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_fig9_grid_draws_at_most_one_chunk_past_the_run(self, monkeypatch):
        import re

        from repro.cmp.workloads import all_profiles
        from repro.core.system import NoCSprintingSystem
        from repro.telemetry import Ledger

        native = _native()
        chunk = int(re.search(r"#define DRAW_CHUNK (\d+)",
                              native._KERNEL_SOURCE).group(1))
        # the Figure 9 grid: every workload sprinting on 2+ cores, both schemes
        system = NoCSprintingSystem(ledger=Ledger.disabled(), backend="auto")
        specs = [
            system.simulation_spec(profile, scheme, warmup_cycles=300,
                                   measure_cycles=1200)
            for profile in all_profiles()
            if system.scheme_level(profile, "noc_sprinting") >= 2
            for scheme in ("noc_sprinting", "full_sprinting")
        ]
        assert len(specs) == 24
        calls = _count_kernel_runs(monkeypatch, native)
        for spec in specs:
            del calls[:]
            result = simulate(spec)
            assert len(calls) == 1  # one kernel call, no re-run
            flags, cycles_run, horizon = calls[0]
            assert cycles_run == result.cycles_run
            # rows cover every cycle run, and the draw stops within a chunk
            assert cycles_run <= horizon <= cycles_run + chunk

    @pytest.mark.parametrize("label", ["plain", "gated", "saturated"])
    @pytest.mark.parametrize("first", [0, 1, 40])
    def test_tiny_first_capacity_stays_identical(self, monkeypatch, label,
                                                 first):
        from repro.noc.power_gating import TimeoutGatingPolicy

        native = _native()
        spec = {
            "plain": make_spec(level=16, rate=0.2, seed=21, routing="xy"),
            "gated": make_spec(level=8, rate=0.1, seed=22),
            "saturated": make_spec(level=16, rate=1.8, seed=23, routing="xy",
                                   warmup=100, measure=300, drain_cycles=400),
        }[label]
        policies = ({"reference": TimeoutGatingPolicy(idle_timeout=8),
                     "vectorized": TimeoutGatingPolicy(idle_timeout=8)}
                    if label == "gated" else {})
        ref = simulate(spec, backend="reference",
                       gating_policy=policies.get("reference"))
        monkeypatch.setattr(native, "_first_rows", lambda source, spec: first)
        calls = _count_kernel_runs(monkeypatch, native)
        fast = simulate(spec, backend="vectorized",
                        gating_policy=policies.get("vectorized"))
        assert len(calls) > 1 and calls[0][0] & native._FLAG_UNFINISHED
        assert not calls[-1][0] & native._FLAG_UNFINISHED
        assert_identical(ref, fast, f"{label}, first capacity {first}")
        assert fast.saturated == (label == "saturated")
        if policies:
            assert dataclasses.asdict(policies["reference"].stats) \
                == dataclasses.asdict(policies["vectorized"].stats)

    def test_library_name_covers_source_and_flags(self):
        from repro.noc.backends import native

        assert "-ffp-contract=off" in native._CFLAGS
        assert native._library_path() == native._library_path(native._CFLAGS)
        other = tuple(f for f in native._CFLAGS if f != "-ffp-contract=off")
        assert native._library_path(other) != native._library_path()
        assert native._library_path((*native._CFLAGS, "-g")) \
            != native._library_path()


class TestInvariants:
    """Physical invariants that must hold on every backend."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_deadlock_free_below_saturation(self, backend):
        res = simulate(make_spec(level=16, rate=0.1, routing="cdor"),
                       backend=backend)
        assert not res.saturated
        assert res.packets_ejected == res.packets_measured

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_latency_monotone_in_load(self, backend):
        lat = [simulate(make_spec(level=16, rate=r, routing="xy"),
                        backend=backend).avg_latency
               for r in (0.05, 0.3, 0.6)]
        assert lat[0] < lat[1] < lat[2]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_region_latency_convex_in_level(self, backend):
        """Smaller sprint regions have shorter paths: zero-load-ish latency
        must not increase as the region shrinks (paper Fig. 9 shape)."""
        lat = {level: simulate(make_spec(level=level, rate=0.05), backend=backend
                               ).avg_latency
               for level in (2, 4, 8, 16)}
        assert lat[2] <= lat[4] <= lat[8] <= lat[16]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_activity_covers_exactly_the_region(self, backend):
        res = simulate(make_spec(level=4, rate=0.1), backend=backend)
        assert res.powered_router_count == 4


class TestDriverPlumbing:
    def test_live_generator_pins_reference(self):
        from repro.noc.traffic import TrafficGenerator

        topo = SprintTopology.for_level(4, 4, 4)
        traffic = TrafficGenerator(list(topo.active_nodes), 0.1,
                                   CFG.packet_length_flits)
        with pytest.raises(ValueError, match="reference"):
            run_simulation(topo, traffic, CFG, backend="vectorized")

    def test_cli_sweep_accepts_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--levels", "4", "--rates", "0.1",
                     "--warmup", "100", "--measure", "300", "--drain", "400",
                     "--backend", "vectorized"]) == 0
        assert "grid sweep" in capsys.readouterr().out

    def test_cli_sweep_accepts_auto_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--levels", "16", "--rates", "0.1",
                     "--warmup", "100", "--measure", "300", "--drain", "600",
                     "--backend", "auto", "--fault", "5@200"]) == 0
        out = capsys.readouterr().out
        assert "grid sweep" in out and "min lvl" in out

    def test_cli_backends_matrix(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "vectorized" in out
        assert "native kernel" in out and "auto" in out

    def test_system_backend_parameter(self):
        from repro.core.system import NoCSprintingSystem

        fast = NoCSprintingSystem(backend="vectorized")
        ref = NoCSprintingSystem()
        spec = fast.simulation_spec("dedup", "noc_sprinting",
                                    warmup_cycles=100, measure_cycles=300)
        assert spec.backend == "vectorized"
        a = fast.evaluate("dedup", "noc_sprinting", simulate_network=True,
                          warmup_cycles=200, measure_cycles=600).network
        b = ref.evaluate("dedup", "noc_sprinting", simulate_network=True,
                         warmup_cycles=200, measure_cycles=600).network
        assert a.avg_latency == b.avg_latency
        assert a.total_power_w == b.total_power_w
