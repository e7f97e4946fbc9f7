"""Tests for repro.util: rng streams, statistics, tables, directions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.directions import ALL_PORTS, MESH_DIRECTIONS, Direction
from repro.util.geometry import Coord
from repro.util.rng import stream
from repro.util.stats import (
    RunningStats,
    geometric_mean,
    mean,
    percent_change,
    percent_saving,
)
from repro.util.tables import format_series, format_table, render_heatmap


class TestRngStreams:
    def test_same_seed_same_stream(self):
        assert stream(1, "a").random() == stream(1, "a").random()

    def test_different_names_differ(self):
        assert stream(1, "a").random() != stream(1, "b").random()

    def test_different_seeds_differ(self):
        assert stream(1, "a").random() != stream(2, "a").random()

    def test_stable_across_calls(self):
        r = stream(42, "traffic")
        first = [r.random() for _ in range(5)]
        r2 = stream(42, "traffic")
        assert [r2.random() for _ in range(5)] == first


class TestRunningStats:
    def test_mean(self):
        s = RunningStats()
        s.extend([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.count == 3

    def test_min_max(self):
        s = RunningStats()
        s.extend([3.0, -1.0, 2.0])
        assert s.minimum == -1.0
        assert s.maximum == 3.0

    def test_variance_matches_definition(self):
        data = [1.0, 4.0, 9.0, 16.0]
        s = RunningStats()
        s.extend(data)
        mu = sum(data) / len(data)
        var = sum((x - mu) ** 2 for x in data) / (len(data) - 1)
        assert s.variance == pytest.approx(var)
        assert s.stdev == pytest.approx(math.sqrt(var))

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            RunningStats().mean

    def test_small_sample_variance_zero(self):
        s = RunningStats()
        s.add(5.0)
        assert s.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_streaming_matches_batch(self, data):
        s = RunningStats()
        s.extend(data)
        assert s.mean == pytest.approx(sum(data) / len(data), abs=1e-6)

    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6)),
                    max_size=50),
           st.lists(st.floats(-1e6, 1e6), max_size=5))
    def test_extend_is_add_in_order_bit_for_bit(self, data, head):
        """Results are pinned bit-identical across engines, so the batch
        update must do exactly the per-value arithmetic."""
        batch, single = RunningStats(), RunningStats()
        for value in head:
            batch.add(value)
            single.add(value)
        batch.extend(data)
        for value in data:
            single.add(value)
        assert batch == single


class TestScalarStats:
    def test_mean(self):
        assert mean([2.0, 4.0]) == 3.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_percent_change(self):
        assert percent_change(10.0, 5.0) == pytest.approx(-50.0)
        assert percent_saving(10.0, 5.0) == pytest.approx(50.0)

    def test_percent_change_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            percent_change(0.0, 1.0)


class TestTables:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in lines[2]
        assert "y" in lines[3]

    def test_title(self):
        out = format_table(["h"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_series(self):
        out = format_series({"y": [1.0, 2.0]}, "x", [0.1, 0.2])
        assert "0.100" in out and "2.000" in out

    def test_heatmap(self):
        out = render_heatmap([[1.0, 2.0], [3.0, 4.0]])
        assert len(out.splitlines()) == 2


class TestDirections:
    def test_offsets_sum_to_zero(self):
        total = Coord(0, 0)
        for d in MESH_DIRECTIONS:
            total = total + d.offset
        assert total == Coord(0, 0)

    def test_north_is_up(self):
        # origin is the top-left corner, so north decreases y
        assert Direction.NORTH.offset == Coord(0, -1)
        assert Direction.SOUTH.offset == Coord(0, 1)

    def test_opposites(self):
        for d in MESH_DIRECTIONS:
            assert d.opposite.opposite is d
            assert d.opposite.offset == Coord(-d.offset.x, -d.offset.y)

    def test_local_is_self_opposite(self):
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_all_ports(self):
        assert len(ALL_PORTS) == 5
        assert ALL_PORTS[0] is Direction.LOCAL
