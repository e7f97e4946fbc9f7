"""Deadlock-freedom verification of CDOR (the paper's Section 3.2 claim)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdor import CdorRouter
from repro.core.deadlock import (
    channel_dependency_graph,
    check_all_sprint_levels,
    check_deadlock_freedom,
    find_cycle,
)
from repro.core.topological import SprintTopology


def edges(graph):
    return [(held, wanted) for held, successors in graph.items()
            for wanted in successors]


def assert_closed_walk(graph, cycle):
    """``cycle`` is a non-empty closed walk over real edges of ``graph``."""
    assert cycle
    for here, there in zip(cycle, cycle[1:] + cycle[:1]):
        assert there in graph[here], f"{here}->{there} is not an edge"


class TestChannelDependencyGraph:
    def test_two_node_region(self):
        topo = SprintTopology.for_level(4, 4, 2)
        graph = channel_dependency_graph(CdorRouter(topo))
        # only channels 0<->1, no multi-hop deps
        assert len(graph) == 2
        assert sum(len(successors) for successors in graph.values()) == 0

    def test_full_mesh_xy_turns_only(self):
        """On the full mesh CDOR == XY, whose CDG has no NE/SE/NW/SW deps."""
        topo = SprintTopology.for_level(4, 4, 16)
        graph = channel_dependency_graph(CdorRouter(topo))
        for (a, b), (b2, c) in edges(graph):
            assert b == b2
            ca, cb, cc = topo.coord(a), topo.coord(b), topo.coord(c)
            in_vertical = ca.x == cb.x and ca.y != cb.y
            out_horizontal = cb.y == cc.y and cb.x != cc.x
            assert not (in_vertical and out_horizontal), (
                f"Y->X turn {a}->{b}->{c} impossible under plain XY"
            )

    def test_dependencies_share_middle_router(self):
        topo = SprintTopology.for_level(4, 4, 8)
        graph = channel_dependency_graph(CdorRouter(topo))
        for (a, b), (b2, c) in edges(graph):
            assert b == b2


class TestDeadlockFreedom:
    def test_all_levels_4x4(self):
        reports = check_all_sprint_levels(4, 4)
        assert len(reports) == 16
        for level, report in reports.items():
            assert report.acyclic, f"level {level} has cycle {report.cycle}"

    def test_all_levels_4x4_hamming_ordering(self):
        reports = check_all_sprint_levels(4, 4, metric="hamming")
        assert all(r.acyclic for r in reports.values())

    def test_all_masters_4x4(self):
        """Deadlock freedom must hold wherever the master core is placed
        (the paper lists centre, OS core and MC-adjacent placements)."""
        for master in range(16):
            reports = check_all_sprint_levels(4, 4, master=master)
            for level, report in reports.items():
                assert report.acyclic, (
                    f"master {master} level {level}: cycle {report.cycle}"
                )

    def test_sampled_levels_6x6(self):
        for level in (3, 7, 12, 20, 29, 36):
            topo = SprintTopology.for_level(6, 6, level)
            assert check_deadlock_freedom(CdorRouter(topo)).acyclic

    def test_report_counts(self):
        topo = SprintTopology.for_level(4, 4, 4)
        report = check_deadlock_freedom(CdorRouter(topo))
        assert report.acyclic
        assert bool(report) is True
        assert report.channel_count == 8  # 4 bidirectional links
        assert report.dependency_count > 0

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        data=st.data(),
    )
    def test_property_deadlock_free(self, width, height, data):
        master = data.draw(st.integers(0, width * height - 1))
        level = data.draw(st.integers(2, width * height))
        topo = SprintTopology.for_level(width, height, level, master)
        report = check_deadlock_freedom(CdorRouter(topo))
        assert report.acyclic, f"cycle: {report.cycle}"


class TestNonConvexCounterexample:
    """The checker is not vacuous: its own cycle search finds a cycle in
    every hand-built cyclic graph (so a deadlock-prone routing function
    would be caught) and none in an acyclic one."""

    CYCLIC = {
        "triangle": {1: {2}, 2: {3}, 3: {1}},
        "self-loop": {1: {1}},
        "cycle behind a tail": {0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: {2}},
        "cycle reached from a later root": {1: set(), 2: {3}, 3: {2}},
        "cycle after a finished branch": {1: {2, 4}, 2: {3}, 3: set(),
                                          4: {5}, 5: {3, 6}, 6: {4}},
        "turn cycle": {(0, 1): {(1, 5)}, (1, 5): {(5, 4)},
                       (5, 4): {(4, 0)}, (4, 0): {(0, 1)}},
    }
    ACYCLIC = {
        "empty": {},
        "single edge": {1: {2}, 2: set()},
        "diamond": {1: {2, 3}, 2: {4}, 3: {4}, 4: set()},
        "two-way chain": {1: {2}, 2: {3}, 3: set(), 4: {2, 3}},
    }

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    def test_cyclic_graph_yields_closed_walk(self, name):
        graph = self.CYCLIC[name]
        assert_closed_walk(graph, find_cycle(graph))

    @pytest.mark.parametrize("name", sorted(ACYCLIC))
    def test_acyclic_graph_yields_no_cycle(self, name):
        assert find_cycle(self.ACYCLIC[name]) == []

    def test_cdg_checker_detects_cycles(self):
        cycle = find_cycle(self.CYCLIC["cycle behind a tail"])
        assert sorted(cycle) == [2, 3, 4]  # the tail vertex 0->1 is not in it

    def test_deep_chain_does_not_recurse(self):
        n = 50_000
        chain = {i: {i + 1} for i in range(n)}
        chain[n] = set()
        assert find_cycle(chain) == []
        chain[n] = {0}
        assert len(find_cycle(chain)) == n + 1


def networkx_oracle(router):
    """(acyclic, channels, dependencies) of CDOR's CDG, from networkx."""
    topo = router.topology
    graph = nx.DiGraph()
    for source in topo.active_nodes:
        for destination in topo.active_nodes:
            if source == destination:
                continue
            path = router.walk(source, destination)
            channels = list(zip(path, path[1:]))
            graph.add_nodes_from(channels)
            graph.add_edges_from(zip(channels, channels[1:]))
    try:
        nx.find_cycle(graph)
        acyclic = False
    except nx.NetworkXNoCycle:
        acyclic = True
    return acyclic, graph.number_of_nodes(), graph.number_of_edges()


class TestAgainstNetworkxOracle:
    """The repo's own CDG and cycle search agree with networkx on every
    CDOR region of the 4x4 mesh and on sampled 6x6 regions."""

    @staticmethod
    def assert_agrees(topo):
        router = CdorRouter(topo)
        report = check_deadlock_freedom(router)
        expected = networkx_oracle(router)
        assert (report.acyclic, report.channel_count,
                report.dependency_count) == expected

    @pytest.mark.parametrize("metric", ["euclidean", "hamming"])
    def test_every_level_and_master_4x4(self, metric):
        for master in range(16):
            for level in range(1, 17):
                self.assert_agrees(
                    SprintTopology.for_level(4, 4, level, master, metric))

    @pytest.mark.parametrize("level", [3, 7, 12, 20, 29, 36])
    def test_sampled_levels_6x6(self, level):
        self.assert_agrees(SprintTopology.for_level(6, 6, level))


class TestDeadlockFreedomOnDegradedRegions:
    """The mid-run reconfiguration story rests on this: whatever region the
    fault layer retreats to, CDOR on it stays deadlock-free."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        data=st.data(),
    )
    def test_property_degraded_regions_deadlock_free(self, width, height, data):
        from repro.core.faults import degraded_topology

        n = width * height
        faults = data.draw(st.sets(st.integers(1, n - 1), max_size=n // 3))
        level = data.draw(st.integers(1, n))
        topo = degraded_topology(width, height, level, faults)
        assert not set(topo.active_nodes) & faults
        report = check_deadlock_freedom(CdorRouter(topo))
        assert report.acyclic, (
            f"faults {sorted(faults)} level {level}: cycle {report.cycle}"
        )
