"""Tests for the pluggable simulation-backend registry and its engines.

Covers the registry contract (register / look up / list), the capability
model that lets a limited engine decline runs it cannot simulate, the
``backend="auto"`` selection API built on :func:`requirements` /
:func:`supports`, cache-key stability across the backend field's
introduction, and -- most importantly -- cross-backend equivalence: the
vectorized engine must be *bit-identical* to the reference simulator on
every capability, fault schedules, gating policies and adaptive routing
included.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.backends import (
    ALL_CAPABILITIES,
    CAP_ADAPTIVE_ROUTING,
    CAP_FAULTS,
    CAP_GATING,
    CAP_SAMPLING,
    CAP_TRACING,
    BackendCapabilityError,
    ReferenceBackend,
    SimBackend,
    VectorizedBackend,
    check_capabilities,
    get_backend,
    list_backends,
    register_backend,
    required_capabilities,
    requirements,
    resolve_backend,
    supports,
)
from repro.noc.sim import simulate, run_simulation, zero_load_cache, zero_load_latency
from repro.noc.spec import (
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TrafficSpec,
    stable_key,
)

CFG = NoCConfig()


def make_spec(level=4, rate=0.1, pattern="uniform", seed=0, routing="cdor",
              warmup=200, measure=600, **kwargs):
    topo = SprintTopology.for_level(4, 4, level)
    traffic = TrafficSpec(tuple(topo.active_nodes), rate,
                          CFG.packet_length_flits, pattern=pattern, seed=seed)
    return SimulationSpec(topo, traffic, CFG, routing=routing,
                          warmup_cycles=warmup, measure_cycles=measure, **kwargs)


@contextlib.contextmanager
def scratch_backend(name="limited", capabilities=frozenset({CAP_TRACING,
                                                            CAP_SAMPLING}),
                    speed_rank=50):
    """Register a throwaway backend (delegates to the reference engine)."""
    from repro.noc.backends.base import _REGISTRY

    class Scratch:
        def __init__(self):
            self.name = name
            self.capabilities = capabilities
            self.speed_rank = speed_rank

        def run(self, spec, *, gating_policy=None, telemetry=None):
            check_capabilities(self, spec, gating_policy, telemetry)
            return get_backend("reference").run(
                spec, gating_policy=gating_policy, telemetry=telemetry)

    backend = register_backend(Scratch())
    try:
        yield backend
    finally:
        _REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_backends()
        assert "reference" in names and "vectorized" in names
        assert names == tuple(sorted(names))

    def test_lookup_returns_declared_engines(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_engines_satisfy_the_protocol(self):
        for name in list_backends():
            assert isinstance(get_backend(name), SimBackend)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="vectorized"):
            get_backend("gpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ReferenceBackend())

    def test_replace_swaps_and_restores(self):
        original = get_backend("vectorized")
        try:
            swapped = register_backend(VectorizedBackend(), replace=True)
            assert get_backend("vectorized") is swapped
            assert swapped is not original
        finally:
            register_backend(original, replace=True)

    def test_malformed_backends_rejected(self):
        class NoName:
            capabilities = frozenset()
            def run(self, spec, **kw): ...

        class NoRun:
            name = "norun"
            capabilities = frozenset()

        class BadCaps:
            name = "badcaps"
            capabilities = ["faults"]
            def run(self, spec, **kw): ...

        with pytest.raises(ValueError, match="name"):
            register_backend(NoName())
        with pytest.raises(ValueError, match="run"):
            register_backend(NoRun())
        with pytest.raises(ValueError, match="capabilities"):
            register_backend(BadCaps())

    def test_declared_capability_sets(self):
        # both built-in engines now cover the full feature set; capability
        # checks exist for third-party backends that do not
        assert get_backend("reference").capabilities == ALL_CAPABILITIES
        assert get_backend("vectorized").capabilities == ALL_CAPABILITIES


class TestCapabilities:
    def test_plain_spec_needs_nothing(self):
        assert required_capabilities(make_spec()) == frozenset()

    def test_faulty_spec_needs_faults(self):
        spec = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        assert CAP_FAULTS in required_capabilities(spec)

    def test_adaptive_routing_flagged(self):
        spec = make_spec(level=16, routing="west_first")
        assert CAP_ADAPTIVE_ROUTING in required_capabilities(spec)

    def test_gating_policy_flagged(self):
        need = required_capabilities(make_spec(), gating_policy=object())
        assert CAP_GATING in need

    def test_telemetry_needs_tracing_and_sampling(self):
        from repro.telemetry import Telemetry

        tracing = required_capabilities(make_spec(), telemetry=Telemetry())
        assert CAP_TRACING in tracing and CAP_SAMPLING not in tracing
        sampling = required_capabilities(
            make_spec(), telemetry=Telemetry(sample_interval=50))
        assert CAP_SAMPLING in sampling

    def test_vectorized_accepts_full_capability_runs(self):
        engine = get_backend("vectorized")
        faulted = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        check_capabilities(engine, faulted, gating_policy=object())
        check_capabilities(engine, make_spec(level=16, routing="negative_first"))

    def test_limited_backend_declines_with_structured_payload(self):
        spec = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        with scratch_backend() as backend:
            with pytest.raises(BackendCapabilityError) as excinfo:
                check_capabilities(backend, spec, gating_policy=object())
        err = excinfo.value
        assert err.backend == backend.name
        assert err.missing == frozenset({CAP_FAULTS, CAP_GATING})
        # both capable engines are offered as alternatives, plus the hint
        assert set(err.alternatives) >= {"reference", "vectorized"}
        assert "backend='auto'" in str(err)

    def test_supports_uses_declared_capabilities(self):
        spec = make_spec(level=16, routing="west_first")
        assert supports(get_backend("vectorized"), spec)
        assert supports(get_backend("reference"), spec)
        with scratch_backend() as backend:
            assert not supports(backend, spec)
            assert supports(backend, make_spec())

    def test_requirements_public_api(self):
        spec = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        need = requirements(spec, gating_policy=object())
        assert need == frozenset({CAP_FAULTS, CAP_GATING})
        adaptive = requirements(make_spec(level=16, routing="west_first"))
        assert adaptive == frozenset({CAP_ADAPTIVE_ROUTING})
        assert requirements(make_spec()) == frozenset()

    def test_vectorized_accepts_sampling(self):
        from repro.telemetry import Telemetry

        engine = get_backend("vectorized")
        check_capabilities(engine, make_spec(),
                           telemetry=Telemetry(sample_interval=25))

    def test_sampling_refusal_keeps_its_hint(self):
        """A backend without the capability still gets the guidance."""
        from repro.telemetry import Telemetry

        class NoSampling:
            name = "nosampling"
            capabilities = frozenset({CAP_TRACING})
            def run(self, spec, **kw): ...

        with pytest.raises(BackendCapabilityError, match="sample_interval"):
            check_capabilities(NoSampling(), make_spec(),
                               telemetry=Telemetry(sample_interval=25))

    def test_error_carries_structured_fields(self):
        err = BackendCapabilityError("vectorized", frozenset({CAP_FAULTS}))
        assert err.backend == "vectorized"
        assert err.missing == frozenset({CAP_FAULTS})
        assert isinstance(err, ValueError)

    def test_reference_accepts_everything(self):
        engine = get_backend("reference")
        spec = make_spec(level=16, faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        check_capabilities(engine, spec, gating_policy=object())


class TestCacheKeys:
    """Adding the backend field must not invalidate pre-existing caches."""

    def test_default_backend_absent_from_canonical_form(self):
        from repro.noc.spec import _canonical

        payload = _canonical(make_spec())
        assert "backend" not in payload
        assert "backend" in _canonical(make_spec(backend="vectorized"))

    def test_default_and_explicit_reference_share_a_key(self):
        assert make_spec().cache_key() == make_spec(backend="reference").cache_key()

    def test_non_default_backend_keys_separately(self):
        assert make_spec().cache_key() != make_spec(backend="vectorized").cache_key()

    def test_with_backend_round_trip(self):
        spec = make_spec()
        fast = spec.with_backend("vectorized")
        assert fast.backend == "vectorized"
        assert fast.with_backend("reference").cache_key() == spec.cache_key()

    def test_empty_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            make_spec(backend="")

    def test_zero_load_memo_keys_by_backend(self):
        topo = SprintTopology.for_level(4, 4, 4)
        ref = zero_load_latency(topo, CFG, "cdor")
        fast = zero_load_latency(topo, CFG, "cdor", backend="vectorized")
        assert ref == fast  # same analytic model today
        cache = zero_load_cache()
        # the default engine keeps the historical (backend-free) key shape
        assert cache.get(stable_key(("zero_load_latency", topo, CFG, "cdor"))) == ref
        assert cache.get(stable_key(
            ("zero_load_latency", "vectorized", topo, CFG, "cdor"))) == fast


class TestAutoBackend:
    """``backend="auto"`` resolves through the public requirements/supports
    API to the fastest capable engine, without perturbing cache keys."""

    def test_auto_resolves_to_fastest_capable(self):
        assert make_spec(backend="auto").resolved_backend() == "vectorized"
        assert resolve_backend(make_spec()).name == "vectorized"

    def test_auto_covers_the_full_capability_grid(self):
        faulted = make_spec(level=16, backend="auto", faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        adaptive = make_spec(level=16, backend="auto", routing="west_first")
        assert faulted.resolved_backend() == "vectorized"
        assert adaptive.resolved_backend() == "vectorized"

    def test_auto_prefers_higher_speed_rank(self):
        with scratch_backend(name="turbo", capabilities=ALL_CAPABILITIES,
                             speed_rank=99):
            assert make_spec(backend="auto").resolved_backend() == "turbo"

    def test_auto_skips_backends_missing_a_capability(self):
        spec = make_spec(level=16, backend="auto", faults=FaultSchedule(
            (FaultEvent(cycle=100, node=5),)))
        with scratch_backend(name="turbo", speed_rank=99):  # no faults token
            assert spec.resolved_backend() == "vectorized"

    def test_auto_resolution_failure_is_structured(self):
        from repro.noc.backends.base import _REGISTRY

        saved = dict(_REGISTRY)
        try:
            _REGISTRY.clear()
            with scratch_backend():  # tracing/sampling only
                spec = make_spec(level=16, backend="auto", faults=FaultSchedule(
                    (FaultEvent(cycle=100, node=5),)))
                with pytest.raises(BackendCapabilityError, match="auto"):
                    spec.resolved_backend()
        finally:
            _REGISTRY.clear()
            _REGISTRY.update(saved)

    def test_auto_cache_key_is_the_resolved_engines(self):
        auto = make_spec(backend="auto")
        assert auto.cache_key() == make_spec(
            backend=auto.resolved_backend()).cache_key()

    def test_auto_never_changes_explicit_backend_keys(self):
        explicit = make_spec(backend="vectorized")
        default = make_spec()
        keys = (explicit.cache_key(), default.cache_key())
        with scratch_backend(name="turbo", capabilities=ALL_CAPABILITIES,
                             speed_rank=999):
            assert (explicit.cache_key(), default.cache_key()) == keys

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

    def test_cli_rejects_backend_capability_mismatch(self, capsys):
        """Eager grid validation reports *every* incompatible point."""
        from repro.cli import main

        with scratch_backend() as backend:  # no faults capability
            code = main(["sweep", "--levels", "16", "--rates", "0.1", "0.2",
                         "--patterns", "uniform", "transpose",
                         "--backend", backend.name, "--fault", "5@100"])
        out = capsys.readouterr().out
        assert code == 2
        # one line per bad point (4) plus the closing summary line
        assert out.count("invalid sweep grid") == 5
        assert "4 of 4 points" in out
        assert "does not support: faults" in out

    def test_cli_backends_matrix(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "vectorized" in out
        for token in sorted(ALL_CAPABILITIES):
            assert token in out
        assert "auto" in out

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
