"""Start-up stays lean: a simulation run never loads scipy or networkx.

scipy is needed only by a thermal solve and networkx only by the test
oracles, so neither may be imported by ``import repro``, by building a
system, by simulating a fig-9 point or by the deadlock checker.  The
thermal grid builds its conductance matrix on the first solve; its
outputs must stay bit-identical to the eagerly built matrix.
"""

import os
import subprocess
import sys

from repro.core.floorplanning import thermal_aware_floorplan
from repro.core.topological import SprintTopology
from repro.power.chip_power import ChipPowerModel
from repro.thermal.floorplan import sprint_tile_powers
from repro.thermal.grid import ThermalGrid

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

IMPORT_SET_PROBE = """
import sys

import repro
from repro.core import CdorRouter, SprintTopology, check_deadlock_freedom
from repro.core.system import NoCSprintingSystem
from repro.noc.sim import simulate
from repro.telemetry import Ledger

HEAVY = ("scipy", "networkx")

def loaded():
    return sorted(name for name in HEAVY if name in sys.modules)

system = NoCSprintingSystem(ledger=Ledger.disabled())
spec = system.simulation_spec("dedup", "noc_sprinting",
                              warmup_cycles=300, measure_cycles=1200)
evaluation = system.network_evaluation_for(spec, simulate(spec), "noc_sprinting")
assert evaluation.sim.packets_measured > 0
report = check_deadlock_freedom(CdorRouter(SprintTopology.for_level(4, 4, 8)))
assert report.acyclic
print("after-run", loaded())

from repro.thermal import ThermalGrid

ThermalGrid().peak_temperature([1.0] * 16)
print("after-thermal", loaded())
"""


class TestImportSet:
    def test_run_loads_neither_scipy_nor_networkx(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", IMPORT_SET_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=180)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert "after-run []" in lines, proc.stdout
        # positive control: the same probe does see scipy once a solve runs
        assert "after-thermal ['scipy']" in lines, proc.stdout


class TestLazyThermalGrid:
    # float.hex() of the outputs of the eagerly built conductance matrix
    FIG12_PEAKS = {
        "full": "0x1.664cdbd833334p+8",
        "cluster": "0x1.5bca47f1063f3p+8",
        "floorplanned": "0x1.57cf619eb6c24p+8",
    }
    TRANSIENT = {
        "max": "0x1.4c145c58f6c89p+8",
        "min": "0x1.4085ae0d87c1dp+8",
        "sum": "0x1.436ca8192f410p+16",
    }

    @staticmethod
    def fig12_scenarios():
        chip = ChipPowerModel(16)
        topo4 = SprintTopology.for_level(4, 4, 4)
        return {
            "full": sprint_tile_powers(SprintTopology.for_level(4, 4, 16), chip),
            "cluster": sprint_tile_powers(topo4, chip),
            "floorplanned": sprint_tile_powers(
                topo4, chip, thermal_aware_floorplan(4, 4)),
        }

    def test_construction_leaves_conductance_unbuilt(self):
        grid = ThermalGrid()
        assert "_conductance" not in vars(grid)
        grid.peak_temperature([1.0] * 16)
        assert "_conductance" in vars(grid)

    def test_fig12_peaks_bit_identical(self):
        grid = ThermalGrid(4, 4, 4)
        peaks = {name: grid.peak_temperature(powers).hex()
                 for name, powers in self.fig12_scenarios().items()}
        assert peaks == self.FIG12_PEAKS

    def test_transient_bit_identical(self):
        grid = ThermalGrid(4, 4, 4)
        temps = grid.transient(self.fig12_scenarios()["cluster"], duration_s=0.05)
        summary = {"max": float(temps.max()).hex(),
                   "min": float(temps.min()).hex(),
                   "sum": float(temps.sum()).hex()}
        assert summary == self.TRANSIENT
