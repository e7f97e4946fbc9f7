"""Small statistics helpers shared by the simulator and the benches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    minimum: float = field(default=math.inf)
    maximum: float = field(default=-math.inf)

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """``add`` each value in order -- the same arithmetic, inlined."""
        count, mean, m2 = self.count, self._mean, self._m2
        lo, hi = self.minimum, self.maximum
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count, self._mean, self._m2 = count, mean, m2
        self.minimum, self.maximum = lo, hi

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty sample")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance; zero for samples of size < 2."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation.

    Matches numpy's default ('linear') method but works on plain lists
    without materialising an array.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def percent_change(baseline: float, value: float) -> float:
    """Signed percent change of ``value`` relative to ``baseline``.

    Negative means ``value`` is smaller (an improvement for latency/power).
    """
    if baseline == 0:
        raise ValueError("percent change relative to a zero baseline")
    return 100.0 * (value - baseline) / baseline


def percent_saving(baseline: float, value: float) -> float:
    """Percent saved relative to ``baseline`` (positive = saving)."""
    return -percent_change(baseline, value)
