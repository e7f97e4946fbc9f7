"""On-chip link energy model.

Links are repeated global wires; dynamic energy is proportional to wire
length and flit width, leakage to the repeater count (also length-
proportional).  The thermal-aware floorplan stretches some logical links
beyond one tile pitch; the paper adopts SMART-style clockless repeated
wires (Krishna et al.) so the *delay* stays single-cycle, but the *energy*
still grows with physical length -- this model is where that cost shows up.
"""

from __future__ import annotations

import functools

from repro.config import NoCConfig
from repro.core.floorplanning import Floorplan
from repro.power.router_power import PowerBreakdown
from repro.power.technology import TECH_45NM, TechNode

#: physical tile pitch of one mesh hop, millimetres
TILE_PITCH_MM = 1.0

ENERGY_PER_BIT_PER_MM = 30e-15  # joules, at the reference point
LEAKAGE_PER_MM_W = 0.4e-3  # repeater leakage per mm of 128-bit link


class LinkPowerModel:
    """Energy/power of one unidirectional flit-wide link."""

    def __init__(
        self,
        config: NoCConfig | None = None,
        vdd: float = 1.0,
        frequency_hz: float = 2.0e9,
        tech: TechNode = TECH_45NM,
    ):
        self.config = config or NoCConfig()
        self.vdd = vdd
        self.frequency_hz = frequency_hz
        self.tech = tech
        self._energy_scale = (vdd / tech.vdd_nominal) ** 2
        self._leak_scale = tech.leakage_scale(vdd)

    def traversal_energy(self, length_mm: float = TILE_PITCH_MM) -> float:
        """Energy for one flit to cross a link of the given length."""
        if length_mm <= 0:
            raise ValueError("link length must be positive")
        bits = self.config.flit_width_bits
        return ENERGY_PER_BIT_PER_MM * bits * length_mm * self._energy_scale

    def leakage_power(self, length_mm: float = TILE_PITCH_MM) -> float:
        """Repeater leakage of a powered link."""
        if length_mm <= 0:
            raise ValueError("link length must be positive")
        scale = self.config.flit_width_bits / 128.0
        return LEAKAGE_PER_MM_W * scale * length_mm * self._leak_scale

    def power(
        self, traversals: int, cycles: int, length_mm: float = TILE_PITCH_MM
    ) -> PowerBreakdown:
        """Average link power over a measurement window."""
        if cycles <= 0:
            raise ValueError("need a positive measurement window")
        window_seconds = cycles / self.frequency_hz
        return PowerBreakdown(
            dynamic=traversals * self.traversal_energy(length_mm) / window_seconds,
            leakage=self.leakage_power(length_mm),
        )


def link_lengths_mm(
    topology, floorplan: Floorplan | None = None
) -> dict[tuple[int, int], float]:
    """Physical length of every powered link of a sprint topology.

    Without a floorplan every link is one tile pitch; with a thermal-aware
    floorplan, lengths follow the physical node placement.  Returns a
    fresh dict over a table memoized per ``(topology, floorplan)``.
    """
    return dict(_link_lengths(topology, floorplan))


@functools.lru_cache(maxsize=64)
def _link_lengths(topology, floorplan) -> tuple[tuple[tuple[int, int], float], ...]:
    """``link_lengths_mm``'s items; both arguments are frozen and hashable."""
    if floorplan is None:
        return tuple((link, TILE_PITCH_MM) for link in topology.active_links())
    return tuple(
        ((a, b), max(TILE_PITCH_MM, floorplan.wire_length(a, b) * TILE_PITCH_MM))
        for a, b in topology.active_links()
    )
