"""Channel-dependency-graph deadlock-freedom verification.

Dally & Seitz: a routing function is deadlock-free on a given topology if
its channel dependency graph (CDG) is acyclic.  The CDG has one vertex per
unidirectional physical channel; an edge ``c1 -> c2`` exists when some
packet can hold ``c1`` while requesting ``c2``, i.e. the routing function
forwards a packet arriving over ``c1`` onto ``c2`` at some router for some
destination.

The paper claims CDOR is deadlock-free on the convex regions of Algorithm 1
even though it introduces NE/SE turns that plain X-Y routing forbids: where
such a turn occurs, convexity implies the link that would complete the turn
cycle does not exist.  This module checks the claim mechanically by
enumerating every (source, destination) pair, walking the CDOR path, and
testing the resulting CDG for cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, TypeVar

from repro.core.cdor import CdorRouter
from repro.core.topological import SprintTopology

Channel = tuple[int, int]  # (from-router, to-router), unidirectional
Vertex = TypeVar("Vertex", bound=Hashable)


@dataclass
class DeadlockReport:
    """Outcome of a deadlock-freedom check."""

    acyclic: bool
    channel_count: int
    dependency_count: int
    cycle: list[Channel] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.acyclic


def find_cycle(graph: Mapping[Vertex, Iterable[Vertex]]) -> list[Vertex]:
    """One directed cycle of ``graph`` as its vertices in walk order, or ``[]``.

    ``graph`` maps every vertex, successors included, to its successors; the
    cycle closes from the last vertex back to the first.  The depth-first
    search keeps an explicit stack of successor iterators, so deep graphs
    never hit the recursion limit.
    """
    done: set[Vertex] = set()
    for root in graph:
        if root in done:
            continue
        path, depth = [root], {root: 0}  # depth: grey vertices -> index in path
        stack = [iter(graph[root])]
        while stack:
            for successor in stack[-1]:
                if successor in depth:
                    return path[depth[successor]:]
                if successor not in done:
                    depth[successor] = len(path)
                    path.append(successor)
                    stack.append(iter(graph[successor]))
                    break
            else:
                stack.pop()
                vertex = path.pop()
                del depth[vertex]
                done.add(vertex)
    return []


def channel_dependency_graph(router: CdorRouter) -> dict[Channel, set[Channel]]:
    """Build the CDG of CDOR over the router's sprint topology.

    The graph maps every channel some CDOR path uses to the channels a
    packet holding it may request next.  Only router-to-router channels are
    modelled; injection and ejection channels cannot participate in cycles
    because they are sources/sinks.
    """
    topo = router.topology
    graph: dict[Channel, set[Channel]] = {}
    for source in topo.active_nodes:
        for destination in topo.active_nodes:
            if source == destination:
                continue
            path = router.walk(source, destination)
            channels = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
            for ch in channels:
                graph.setdefault(ch, set())
            for held, wanted in zip(channels, channels[1:]):
                graph[held].add(wanted)
    return graph


def check_deadlock_freedom(router: CdorRouter) -> DeadlockReport:
    """Verify CDOR deadlock freedom on the router's topology."""
    graph = channel_dependency_graph(router)
    cycle = find_cycle(graph)
    return DeadlockReport(
        acyclic=not cycle,
        channel_count=len(graph),
        dependency_count=sum(len(wanted) for wanted in graph.values()),
        cycle=cycle,
    )


def check_all_sprint_levels(
    width: int,
    height: int,
    master: int = 0,
    metric: str = "euclidean",
) -> dict[int, DeadlockReport]:
    """Deadlock reports for every sprint level of a mesh."""
    reports = {}
    for level in range(1, width * height + 1):
        topo = SprintTopology.for_level(width, height, level, master, metric)
        reports[level] = check_deadlock_freedom(CdorRouter(topo))
    return reports
