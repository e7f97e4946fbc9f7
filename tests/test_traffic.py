"""Tests for synthetic traffic generation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.traffic import TrafficGenerator


class TestValidation:
    def test_needs_endpoints(self):
        with pytest.raises(ValueError):
            TrafficGenerator([], 0.1, 5)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1], -0.1, 5)

    def test_bad_packet_length(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1], 0.1, 0)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1], 0.1, 5, pattern="butterfly")

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1, 2], 0.1, 5, pattern="transpose")

    def test_permutation_needs_two(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0], 0.1, 5, pattern="neighbor")

    def test_hotspot_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1], 0.1, 5, pattern="hotspot", hotspot_fraction=1.5)

    def test_hotspot_endpoint_must_be_member(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1], 0.1, 5, pattern="hotspot", hotspot_endpoint=9)


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = TrafficGenerator([0, 1, 2, 3], 0.3, 5, seed=11)
        b = TrafficGenerator([0, 1, 2, 3], 0.3, 5, seed=11)
        pk_a = [ (p.source, p.destination) for c in range(200) for p in a.packets_for_cycle(c, False)]
        pk_b = [ (p.source, p.destination) for c in range(200) for p in b.packets_for_cycle(c, False)]
        assert pk_a == pk_b

    def test_rate_approximately_honored(self):
        rate, length = 0.4, 5
        gen = TrafficGenerator(list(range(16)), rate, length, seed=3)
        total_flits = sum(
            p.length for c in range(4000) for p in gen.packets_for_cycle(c, False)
        )
        per_node_per_cycle = total_flits / (4000 * 16)
        assert per_node_per_cycle == pytest.approx(rate, rel=0.07)

    def test_zero_rate_generates_nothing(self):
        gen = TrafficGenerator([0, 1], 0.0, 5)
        assert all(not gen.packets_for_cycle(c, False) for c in range(100))

    def test_measured_flag_propagates(self):
        gen = TrafficGenerator([0, 1], 1.0, 1, seed=1)
        packets = gen.packets_for_cycle(0, measured=True)
        assert packets and all(p.measured for p in packets)

    def test_pids_unique_and_increasing(self):
        gen = TrafficGenerator(list(range(8)), 0.8, 2, seed=5)
        pids = [p.pid for c in range(100) for p in gen.packets_for_cycle(c, False)]
        assert pids == sorted(pids)
        assert len(set(pids)) == len(pids)

    def test_no_self_traffic(self):
        gen = TrafficGenerator(list(range(8)), 1.0, 1, seed=9)
        for c in range(200):
            for p in gen.packets_for_cycle(c, False):
                assert p.source != p.destination


class TestPatterns:
    def test_uniform_covers_all_destinations(self):
        gen = TrafficGenerator(list(range(4)), 1.0, 1, "uniform", seed=2)
        dests = {p.destination for c in range(300) for p in gen.packets_for_cycle(c, False)}
        assert dests == {0, 1, 2, 3}

    def test_neighbor_ring(self):
        gen = TrafficGenerator([3, 5, 9], 1.0, 1, "neighbor", seed=2)
        mapping = {}
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                mapping[p.source] = p.destination
        assert mapping == {3: 5, 5: 9, 9: 3}

    def test_bit_complement(self):
        gen = TrafficGenerator([0, 1, 2, 3], 1.0, 1, "bit_complement", seed=2)
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                i = [0, 1, 2, 3].index(p.source)
                assert p.destination == [0, 1, 2, 3][3 - i]

    def test_bit_complement_skips_self_center(self):
        gen = TrafficGenerator([0, 1, 2], 1.0, 1, "bit_complement", seed=2)
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                assert p.source != 1  # middle maps to itself -> skipped

    def test_transpose_full_mesh(self):
        endpoints = list(range(16))
        gen = TrafficGenerator(endpoints, 1.0, 1, "transpose", seed=2)
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                row, col = divmod(p.source, 4)
                assert p.destination == col * 4 + row

    def test_tornado(self):
        endpoints = list(range(8))
        gen = TrafficGenerator(endpoints, 1.0, 1, "tornado", seed=2)
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                assert p.destination == (p.source + 3) % 8

    def test_hotspot_bias(self):
        gen = TrafficGenerator(list(range(8)), 1.0, 1, "hotspot", seed=2,
                               hotspot_fraction=0.9)
        to_hotspot = 0
        total = 0
        for c in range(500):
            for p in gen.packets_for_cycle(c, False):
                total += 1
                if p.destination == 0:
                    to_hotspot += 1
        assert to_hotspot / total > 0.5

    def test_shuffle_rotation(self):
        gen = TrafficGenerator(list(range(8)), 1.0, 1, "shuffle", seed=2)
        for c in range(50):
            for p in gen.packets_for_cycle(c, False):
                i = p.source
                assert p.destination == ((i << 1) | (i >> 2)) & 7

    def test_shuffle_needs_power_of_two(self):
        with pytest.raises(ValueError):
            TrafficGenerator([0, 1, 2], 0.1, 5, pattern="shuffle")

    def test_shuffle_skips_fixed_points(self):
        # endpoints 0 and k-1 map to themselves under rotation
        gen = TrafficGenerator(list(range(8)), 1.0, 1, "shuffle", seed=2)
        for c in range(100):
            for p in gen.packets_for_cycle(c, False):
                assert p.source not in (0, 7)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 16),
        pattern=st.sampled_from(["uniform", "neighbor", "bit_complement", "tornado"]),
        seed=st.integers(0, 100),
    )
    def test_property_destinations_are_endpoints(self, k, pattern, seed):
        endpoints = list(range(0, 2 * k, 2))
        gen = TrafficGenerator(endpoints, 0.9, 2, pattern, seed=seed)
        for c in range(60):
            for p in gen.packets_for_cycle(c, False):
                assert p.source in endpoints
                assert p.destination in endpoints
                assert p.source != p.destination


#: endpoint counts each pattern accepts
_VALID_COUNTS = {
    "uniform": list(range(1, 17)),
    "neighbor": list(range(2, 17)),
    "bit_complement": list(range(2, 17)),
    "tornado": list(range(2, 17)),
    "hotspot": list(range(2, 17)),
    "transpose": [4, 9, 16],
    "shuffle": [2, 4, 8, 16],
}


@st.composite
def _traffic_cases(draw):
    pattern = draw(st.sampled_from(sorted(_VALID_COUNTS)))
    k = draw(st.sampled_from(_VALID_COUNTS[pattern]))
    endpoints = draw(st.permutations(range(64)))[:k]
    length = draw(st.integers(1, 6))
    # rate 0, the ordinary range, and packet probabilities >= 1
    rate = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                          st.floats(float(length), 2.0 * length)))
    return dict(
        endpoints=endpoints, injection_rate=rate, packet_length=length,
        pattern=pattern, seed=draw(st.integers(0, 2**32 - 1)),
        hotspot_fraction=draw(st.one_of(st.just(0.0), st.just(1.0),
                                        st.floats(0.0, 1.0))),
        hotspot_endpoint=draw(st.sampled_from(endpoints)),
    )


class TestKernelTrafficSource:
    """The compiled kernel's traffic source must replay
    ``packets_for_cycle`` exactly: same rows in the same order (row index
    == pid), across any horizon split, ending on the same MT19937 state."""

    @staticmethod
    def _rows(case, cycles, warmup=0, measure_end=0, splits=()):
        """(kernel rows, Python rows, kernel MT state, Python MT state)."""
        from repro.noc.backends import native

        if not native.available():
            pytest.skip("no C compiler / native kernel disabled")
        python = TrafficGenerator(**case)
        source = native._TrafficSource(
            native._load(), TrafficGenerator(**case), case["endpoints"],
            warmup, measure_end,
        )
        for limit in sorted(splits) + [cycles]:
            source.extend_to(limit)
        expected = [
            (c, p.source, p.destination, p.length, int(p.measured), p.pid)
            for c in range(cycles)
            for p in python.packets_for_cycle(c, warmup <= c < measure_end)
        ]
        columns = [col.tolist() for col in source.columns()]
        got = [row + (pid,) for pid, row in enumerate(zip(*columns))]
        return got, expected, source.mt_state(), python.rng_state()

    @pytest.mark.parametrize("seed", range(8))
    def test_probability_compares_the_exact_double(self, seed):
        """A packet probability one ulp either side of the first draw
        splits on the draw's last bit: all 53 bits of random() match."""
        first = TrafficGenerator([0, 1], 0.0, 1, seed=seed).rng_state()
        draw = random.Random()
        draw.setstate(first)
        u = draw.random()
        for rate in (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)):
            case = dict(endpoints=[0, 1], injection_rate=rate,
                        packet_length=1, seed=seed)
            got, expected, _, _ = self._rows(case, cycles=1)
            assert got == expected
            assert any(row[1] == 0 for row in expected) == (rate > u)

    @settings(max_examples=150, deadline=None)
    @given(case=_traffic_cases(),
           warmup=st.integers(0, 60), measure=st.integers(0, 60),
           splits=st.lists(st.integers(0, 150), max_size=4))
    def test_matches_packets_for_cycle(self, case, warmup, measure, splits):
        got, expected, state, python_state = self._rows(
            case, 150, warmup, warmup + measure, splits)
        assert got == expected
        assert state == python_state

    @settings(max_examples=60, deadline=None)
    @given(case=_traffic_cases(),
           warmup=st.integers(0, 60), measure=st.integers(1, 60),
           drain=st.integers(0, 80), first=st.sampled_from([0, 1, 16, 200]))
    def test_kernel_draws_on_demand(self, case, warmup, measure, drain, first):
        """A plain kernel run drawing its own traffic writes exactly the
        rows ``packets_for_cycle`` yields for every cycle it drew -- which
        covers every cycle it ran -- and ends on the same MT19937 state,
        also when a small first row capacity forces re-runs that continue
        the stream."""
        from repro.core.topological import SprintTopology
        from repro.noc.backends import native
        from repro.noc.spec import SimulationSpec, TrafficSpec

        if not native.available():
            pytest.skip("no C compiler / native kernel disabled")
        # the full 8x8 mesh: every endpoint is active, router index == node
        spec = SimulationSpec(
            SprintTopology(8, 8, tuple(range(64))),
            TrafficSpec(tuple(case["endpoints"]), case["injection_rate"],
                        case["packet_length"], case["pattern"], case["seed"],
                        case["hotspot_fraction"], case["hotspot_endpoint"]),
            routing="xy", warmup_cycles=warmup, measure_cycles=measure,
            drain_cycles=drain,
        )
        runs = []
        kernel_run = native._kernel_run

        def spy(*args):
            run = kernel_run(*args)
            runs.append((int(run.out[1]), args[-1]))
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_kernel_run", spy)
            patch.setattr(native, "_first_rows", lambda source, spec: first)
            result = native.execute(spec)
        flags, source = runs[-1]
        assert not flags & native._FLAG_UNFINISHED
        if first == 0:  # nothing fits: the first call must overflow
            assert runs[0][0] & native._FLAG_UNFINISHED
        assert source.horizon >= result.cycles_run
        python = TrafficGenerator(**case)
        expected = [
            (c, p.source, p.destination, p.length, int(p.measured), p.pid)
            for c in range(source.horizon)
            for p in python.packets_for_cycle(c, warmup <= c < warmup + measure)
        ]
        columns = [col.tolist() for col in source.columns()]
        got = [row + (pid,) for pid, row in enumerate(zip(*columns))]
        assert got == expected
        assert source.mt_state() == python.rng_state()
