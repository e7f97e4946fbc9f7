"""Shared plumbing for the repository benchmark: paths, inputs, statistics.

Everything the benchmark writes lives under ``.perfbench/`` at the root of
the checkout (temporary caches, ledgers, fabric queues, the compiled
kernel and trace files); nothing touches ``.repro/`` or the system temp
directory.  :func:`prepare_environment` must run before ``repro`` is
imported, because the kernel cache location is read from ``TMPDIR``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: The paper's reference figure for Fig. 9: mean NoC-sprinting latency
#: reduction over full sprinting on the PARSEC workloads.
PAPER_FIG9_REDUCTION_PCT = 24.5

#: Windows of the fig-9 grid, exactly as ``benchmarks/bench_fig09``.
FIG9_WARMUP = 300
FIG9_MEASURE = 1200


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, broken import)."""


def prepare_environment() -> None:
    """Point temp files into the checkout and make ``repro`` importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    # the runner's default ledger must never be the checkout's .repro/
    os.environ["REPRO_LEDGER_DIR"] = str(tmp / "default-ledger")
    os.environ.pop("REPRO_SWEEP_CHAOS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Scratch:
    """A fresh directory per run; every cache, ledger and queue lives in it."""

    def __init__(self, label: str):
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK / "runs"))
        self._serial = 0

    def fresh(self, name: str) -> str:
        """A new, empty subdirectory (never reused within the run)."""
        self._serial += 1
        path = self.path / f"{name}-{self._serial}"
        path.mkdir()
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``parts``."""
    text = json.dumps([seed, *parts], separators=(",", ":"))
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) & 0x7FFFFFFF


def fig9_grid(system=None):
    """``(profile, level, scheme, spec)`` for the fig-9 PARSEC grid.

    Every workload whose NoC-sprinting level is at least 2, under
    ``noc_sprinting`` and ``full_sprinting`` (24 points), on the fastest
    engine that covers each point (``backend="auto"``).
    """
    from repro.cmp.workloads import all_profiles
    from repro.core.system import NoCSprintingSystem
    from repro.telemetry import Ledger

    system = system or NoCSprintingSystem(ledger=Ledger.disabled(), backend="auto")
    grid = []
    for profile in all_profiles():
        level = system.scheme_level(profile, "noc_sprinting")
        if level < 2:
            continue
        for scheme in ("noc_sprinting", "full_sprinting"):
            grid.append((profile, level, scheme, system.simulation_spec(
                profile, scheme, warmup_cycles=FIG9_WARMUP,
                measure_cycles=FIG9_MEASURE)))
    return grid


def fig9_reduction(rows) -> tuple[float, list[str]]:
    """Mean reduction (%) and the fig-9 shape violations of one grid.

    ``rows`` holds ``(name, level, full_latency, noc_latency)``.  The
    shape is the one ``benchmarks/bench_fig09`` asserts: a mean reduction
    within 15-40 %, NoC-sprinting strictly faster below level 16 and
    identical at level 16.
    """
    reductions = [100.0 * (1.0 - noc / full) for _, _, full, noc in rows]
    mean = sum(reductions) / len(reductions)
    problems = []
    if not 15.0 < mean < 40.0:
        problems.append(f"mean reduction {mean:.2f}% outside 15-40%")
    for name, level, full, noc in rows:
        if level == 16 and abs(full - noc) >= 1e-9:
            problems.append(f"{name}: level-16 networks differ")
        elif level < 16 and not noc < full:
            problems.append(f"{name}: NoC-sprinting not faster")
    return mean, problems


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    still has at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10  # 1-based: ten samples lie strictly above this one
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def host_facts(offered_rate: float | None = None) -> dict:
    """The host properties every figure depends on, printed beside them."""
    from repro.noc.backends import native

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "native_kernel": native.available(),
    }
    if offered_rate is not None:
        facts["offered_rate_per_s"] = offered_rate
    return facts


#: Seconds the calibration loop takes on the reference host (2-core Xeon,
#: Python 3.11, its fast state).  Normalized times are host seconds scaled
#: by ``CALIBRATION_NOMINAL_S / measured``.
CALIBRATION_NOMINAL_S = 0.005
CALIBRATION_REPEATS = 3


def calibration_loop() -> float:
    """Time one fixed stdlib-only workload: seeded draws, list, dict, sort.

    It touches no repository code, so no change to the program can move
    it; it moves only with the host's own speed.
    """
    rng = random.Random(12345)
    start = time.perf_counter()
    picked = []
    for i in range(20000):
        x = rng.random()
        if x < 0.3:
            picked.append((x, i))
    totals: dict = {}
    for x, i in picked:
        totals[i % 97] = totals.get(i % 97, 0.0) + x
    picked.sort()
    return time.perf_counter() - start


class HostSpeed:
    """Reference-speed marks taken between units of timed work.

    The shared hosts this runs on change speed by a fifth or more over
    tens of seconds, with other tenants' load.  A unit of work timed
    between marks ``e`` and ``e + 1`` is normalized by the mean of the two
    marks, so figures from different moments compare as if the host had
    run at its reference speed throughout.
    """

    def __init__(self):
        self.marks: list[float] = []

    def mark(self) -> int:
        """Take a mark (the fastest of a few loops); returns its epoch."""
        self.marks.append(min(calibration_loop() for _ in range(CALIBRATION_REPEATS)))
        return len(self.marks) - 1

    def factor(self, epoch: int) -> float:
        """Multiply a host-seconds figure timed after ``epoch`` by this."""
        after = self.marks[min(epoch + 1, len(self.marks) - 1)]
        return CALIBRATION_NOMINAL_S / ((self.marks[epoch] + after) / 2)

    def describe(self) -> str:
        if not self.marks:
            return "host speed: no marks (every figure is raw host time)"
        factors = [CALIBRATION_NOMINAL_S / m for m in self.marks]
        return (f"host speed: {len(factors)} marks, factor median "
                f"{median(factors):.3f} (min {min(factors):.3f}, "
                f"max {max(factors):.3f})")


def finite(value: float) -> float:
    """Guard a metric against NaN/inf (JSON cannot carry them)."""
    return value if math.isfinite(value) else 0.0
