"""Tests for the link energy model."""

import pytest

from repro.config import NoCConfig
from repro.core.floorplanning import identity_floorplan, thermal_aware_floorplan
from repro.core.topological import SprintTopology
from repro.power.link_power import TILE_PITCH_MM, LinkPowerModel, link_lengths_mm

CFG = NoCConfig()


class TestLinkModel:
    def test_energy_proportional_to_length(self):
        model = LinkPowerModel(CFG)
        assert model.traversal_energy(2.0) == pytest.approx(2 * model.traversal_energy(1.0))

    def test_leakage_proportional_to_length(self):
        model = LinkPowerModel(CFG)
        assert model.leakage_power(3.0) == pytest.approx(3 * model.leakage_power(1.0))

    def test_voltage_scaling(self):
        ref = LinkPowerModel(CFG, vdd=1.0)
        low = LinkPowerModel(CFG, vdd=0.75)
        assert low.traversal_energy() == pytest.approx(ref.traversal_energy() * 0.75**2)
        assert low.leakage_power() < ref.leakage_power()

    def test_power_window(self):
        model = LinkPowerModel(CFG)
        b = model.power(traversals=1000, cycles=1000)
        assert b.dynamic > 0 and b.leakage > 0

    def test_invalid_inputs(self):
        model = LinkPowerModel(CFG)
        with pytest.raises(ValueError):
            model.traversal_energy(0.0)
        with pytest.raises(ValueError):
            model.leakage_power(-1.0)
        with pytest.raises(ValueError):
            model.power(10, 0)

    def test_wider_flits_cost_more(self):
        narrow = LinkPowerModel(NoCConfig(flit_length_bytes=8))
        wide = LinkPowerModel(NoCConfig(flit_length_bytes=32))
        assert wide.traversal_energy() > narrow.traversal_energy()


class TestLinkLengths:
    def test_identity_all_unit(self):
        topo = SprintTopology.for_level(4, 4, 16)
        lengths = link_lengths_mm(topo)
        assert len(lengths) == 24
        assert all(length == TILE_PITCH_MM for length in lengths.values())

    def test_region_link_count(self):
        topo = SprintTopology.for_level(4, 4, 4)
        assert len(link_lengths_mm(topo)) == 4

    def test_floorplan_stretches(self):
        topo = SprintTopology.for_level(4, 4, 16)
        fp = thermal_aware_floorplan(4, 4)
        lengths = link_lengths_mm(topo, fp)
        assert sum(lengths.values()) > 24 * TILE_PITCH_MM

    def test_identity_floorplan_equivalent_to_none(self):
        topo = SprintTopology.for_level(4, 4, 8)
        assert link_lengths_mm(topo) == link_lengths_mm(topo, identity_floorplan(4, 4))

    def test_mutating_the_result_does_not_poison_the_memo(self):
        topo = SprintTopology.for_level(4, 4, 16)
        fp = thermal_aware_floorplan(4, 4)
        for floorplan in (None, fp):
            first = link_lengths_mm(topo, floorplan)
            expected = dict(first)
            first[(0, 1)] = 99.0
            first.pop((14, 15))
            again = link_lengths_mm(topo, floorplan)
            assert again == expected and again is not first
