"""Synthetic traffic generation.

Traffic is defined over a list of *endpoints* -- the nodes whose cores are
active and inject/accept packets.  For NoC-sprinting the endpoints are the
convex sprint region; for the full-sprinting comparison of Figure 11 they
are a random subset of the fully-powered mesh.

``injection_rate`` is in flits/cycle/endpoint (the unit the paper uses);
each endpoint runs an independent Bernoulli process generating
``rate / packet_length`` packets per cycle.

Patterns:

- ``uniform``        uniform-random over the other endpoints (paper Fig. 11)
- ``neighbor``       endpoint i -> endpoint (i+1) mod k
- ``bit_complement`` endpoint i -> endpoint (k-1-i)
- ``tornado``        endpoint i -> endpoint (i + ceil(k/2) - 1) mod k
- ``transpose``      grid transpose over the endpoint list (k must be square)
- ``shuffle``        perfect shuffle: rotate the endpoint index left by one
                     bit (k must be a power of two)
- ``hotspot``        a fraction of packets target a hotspot endpoint
                     (defaults to the first endpoint, i.e. the master node),
                     the rest are uniform

The permutation patterns are defined over the endpoint *index space* so
they stay meaningful on irregular sprint regions; on the full mesh with
endpoints 0..N-1 they reduce to the textbook mesh patterns.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.noc.flit import Packet
from repro.util.rng import stream


class TrafficGenerator:
    """Bernoulli packet source over a set of endpoints."""

    def __init__(
        self,
        endpoints: Sequence[int],
        injection_rate: float,
        packet_length: int,
        pattern: str = "uniform",
        seed: int = 0,
        hotspot_fraction: float = 0.5,
        hotspot_endpoint: int | None = None,
    ):
        if not endpoints:
            raise ValueError("traffic needs at least one endpoint")
        if injection_rate < 0:
            raise ValueError("injection rate must be non-negative")
        if packet_length < 1:
            raise ValueError("packet length must be positive")
        if not 0 <= hotspot_fraction <= 1:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.endpoints = list(endpoints)
        self.injection_rate = injection_rate
        self.packet_length = packet_length
        self.pattern = pattern
        self.hotspot_fraction = hotspot_fraction
        self.hotspot_endpoint = (
            hotspot_endpoint if hotspot_endpoint is not None else self.endpoints[0]
        )
        if self.hotspot_endpoint not in self.endpoints:
            raise ValueError("hotspot endpoint must be one of the endpoints")
        self._index = {node: i for i, node in enumerate(self.endpoints)}
        self._rng = stream(seed, f"traffic-{pattern}")
        self._next_pid = 0
        self._packet_probability = injection_rate / packet_length
        self._validate_pattern()

    def _validate_pattern(self) -> None:
        k = len(self.endpoints)
        known = {
            "uniform", "neighbor", "bit_complement", "tornado", "transpose",
            "shuffle", "hotspot",
        }
        if self.pattern not in known:
            raise ValueError(f"unknown traffic pattern {self.pattern!r}")
        if self.pattern == "transpose":
            side = math.isqrt(k)
            if side * side != k:
                raise ValueError("transpose traffic needs a square endpoint count")
        if self.pattern == "shuffle" and (k < 2 or k & (k - 1)):
            raise ValueError("shuffle traffic needs a power-of-two endpoint count")
        if self.pattern != "uniform" and k < 2:
            raise ValueError(f"{self.pattern} traffic needs at least 2 endpoints")

    def rng_state(self) -> tuple:
        """The traffic stream's ``random.getstate()`` as of now.

        Lets another implementation of the same Bernoulli process (the
        compiled kernel's traffic source) continue this exact stream.
        """
        return self._rng.getstate()

    def permutation_target(self, i: int) -> int | None:
        """Endpoint index a permutation pattern sends endpoint ``i`` to.

        None when the endpoint is its own image (no packet); only defined
        for the five deterministic patterns -- ``uniform`` and ``hotspot``
        draw their destinations from the stream.
        """
        k = len(self.endpoints)
        if self.pattern == "neighbor":
            j = (i + 1) % k
        elif self.pattern == "bit_complement":
            j = k - 1 - i
        elif self.pattern == "tornado":
            j = (i + (k + 1) // 2 - 1) % k
        elif self.pattern == "transpose":
            side = math.isqrt(k)
            row, col = divmod(i, side)
            j = col * side + row
        elif self.pattern == "shuffle":
            bits = k.bit_length() - 1
            j = ((i << 1) | (i >> (bits - 1))) & (k - 1)
        else:
            raise ValueError(f"{self.pattern} is not a permutation pattern")
        return None if j == i else j

    def _destination(self, source: int) -> int | None:
        """Destination endpoint for a packet from ``source`` (None = skip)."""
        k = len(self.endpoints)
        i = self._index[source]
        if self.pattern == "uniform":
            if k < 2:
                return None
            j = self._rng.randrange(k - 1)
            if j >= i:
                j += 1
            return self.endpoints[j]
        if self.pattern == "hotspot":
            if self._rng.random() < self.hotspot_fraction:
                j = self._index[self.hotspot_endpoint]
                if j != i:
                    return self.hotspot_endpoint
            if k < 2:
                return None
            j = self._rng.randrange(k - 1)
            if j >= i:
                j += 1
            return self.endpoints[j]
        j = self.permutation_target(i)
        return None if j is None else self.endpoints[j]

    def packets_for_cycle(self, cycle: int, measured: bool) -> list[Packet]:
        """Packets created at this cycle (possibly empty)."""
        packets = []
        for source in self.endpoints:
            if self._rng.random() >= self._packet_probability:
                continue
            destination = self._destination(source)
            if destination is None:
                continue
            packets.append(
                Packet(
                    pid=self._next_pid,
                    source=source,
                    destination=destination,
                    length=self.packet_length,
                    created_at=cycle,
                    measured=measured,
                )
            )
            self._next_pid += 1
        return packets
