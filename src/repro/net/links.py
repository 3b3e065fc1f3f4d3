"""Interchangeable per-hop link models.

The network simulator resolves every hop through a :class:`LinkModel`:

* :class:`PhysicalLink` runs the full physical layer -- a
  :class:`~repro.link.session.LinkSession` protocol exchange over the
  simulated channel pair for the hop's distance.  Faithful, but costs a
  full OFDM encode/channel/decode per packet.
* :class:`CalibratedLink` replays a :class:`LinkCalibration` -- a packet
  error rate and bitrate versus distance table measured *from* the
  physical layer (:func:`calibrate_from_phy`) -- so scenarios with
  thousands of nodes and packets run in seconds while matching the PHY's
  delivery statistics.

The default calibration shipped here (:data:`DEFAULT_LAKE_CALIBRATION`)
was produced by running ``calibrate_from_phy`` at the lake site; the
agreement between the two models on identical scenarios is covered by the
tier-1 tests.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.environments.sites import LAKE, SITE_CATALOG, Site
from repro.utils.progress import progress_sink

#: Fixed per-packet protocol overhead (preamble, feedback, training) used
#: to convert payload size into airtime, matching the packet duration the
#: MAC experiments assume for a 16-bit message at the median bitrate.
DEFAULT_OVERHEAD_S = 0.45


@dataclass(frozen=True)
class LinkOutcome:
    """Result of resolving one hop transmission.

    Attributes
    ----------
    delivered:
        Whether the packet decoded without error at the far end.
    bitrate_bps:
        Coded bitrate used (selected band for the PHY, interpolated for
        the calibrated model).
    packet_error_rate:
        The PER the model drew from (``nan`` for the physical link,
        which decides by actually decoding).
    """

    delivered: bool
    bitrate_bps: float
    packet_error_rate: float = float("nan")


class LinkModel(ABC):
    """Resolves per-hop deliveries and airtimes for the simulator."""

    #: Report/catalog name.
    name: str = "link"

    #: Bitrate used for airtime estimates when no outcome is available.
    nominal_bitrate_bps: float = 1000.0

    @abstractmethod
    def deliver(
        self,
        distance_m: float,
        rng: np.random.Generator,
        size_bits: int = 16,
    ) -> LinkOutcome:
        """Resolve one transmission over ``distance_m``."""

    def deliver_many(
        self,
        distances_m: np.ndarray,
        rng: np.random.Generator,
        size_bits: int = 16,
    ) -> list[LinkOutcome]:
        """Resolve one transmission to each of ``distances_m`` receivers.

        The distances describe a single broadcast's fan-out, resolved in
        array order.  The base implementation loops over
        :meth:`deliver`, so every model keeps its exact per-receiver RNG
        draw sequence; table-driven models override this with a
        vectorized path that consumes the identical generator stream.
        """
        return [self.deliver(float(d), rng, size_bits) for d in distances_m]

    def airtime_s(self, size_bits: int, distance_m: float) -> float:
        """Time the channel is occupied by one packet of ``size_bits``."""
        bitrate = self.expected_bitrate_bps(distance_m)
        if not math.isfinite(bitrate) or bitrate <= 0:
            bitrate = self.nominal_bitrate_bps
        return DEFAULT_OVERHEAD_S + size_bits / bitrate

    def expected_bitrate_bps(self, distance_m: float) -> float:
        """Expected coded bitrate at ``distance_m`` (for airtime estimates)."""
        return self.nominal_bitrate_bps


@dataclass(frozen=True)
class LinkCalibration:
    """PER/bitrate-versus-distance table measured from the physical layer.

    Attributes
    ----------
    site_name:
        Site the table was measured at.
    distances_m:
        Strictly increasing measurement distances.
    packet_error_rate:
        PER observed at each distance.
    bitrate_bps:
        Median selected coded bitrate at each distance.
    packets_per_point:
        Sample size behind each table row.
    """

    site_name: str
    distances_m: tuple[float, ...]
    packet_error_rate: tuple[float, ...]
    bitrate_bps: tuple[float, ...]
    packets_per_point: int = 0

    def __post_init__(self) -> None:
        if not self.distances_m:
            raise ValueError("calibration needs at least one distance")
        lengths = {len(self.distances_m), len(self.packet_error_rate), len(self.bitrate_bps)}
        if len(lengths) != 1:
            raise ValueError("calibration columns must have equal lengths")
        if any(a >= b for a, b in zip(self.distances_m, self.distances_m[1:])):
            raise ValueError("distances_m must be sorted ascending")
        if any(not 0.0 <= p <= 1.0 for p in self.packet_error_rate):
            raise ValueError("packet_error_rate entries must lie in [0, 1]")

    def to_dict(self) -> dict:
        """JSON-safe dictionary form."""
        return {
            "site_name": self.site_name,
            "distances_m": list(self.distances_m),
            "packet_error_rate": list(self.packet_error_rate),
            "bitrate_bps": list(self.bitrate_bps),
            "packets_per_point": self.packets_per_point,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkCalibration":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            site_name=data["site_name"],
            distances_m=tuple(float(d) for d in data["distances_m"]),
            packet_error_rate=tuple(float(p) for p in data["packet_error_rate"]),
            bitrate_bps=tuple(float(b) for b in data["bitrate_bps"]),
            packets_per_point=int(data.get("packets_per_point", 0)),
        )


#: Hop distances (m) a calibration table measures, one row each.
CALIBRATION_DISTANCES_M = (2.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def calibrate_from_phy(
    site: Site | str = LAKE,
    packets_per_point: int = 12,
    seed: int = 0,
    progress: bool | Callable[[str], None] = False,
) -> LinkCalibration:
    """Measure a :class:`LinkCalibration` by running the full PHY.

    For each of :data:`CALIBRATION_DISTANCES_M` within the site's usable
    range a fresh channel pair and
    :class:`~repro.link.session.LinkSession` (seeds derived from ``seed``)
    runs ``packets_per_point`` adaptive exchanges
    (:meth:`~repro.link.session.LinkSession.run_packets`);
    the observed packet error rate and median selected bitrate become one
    table row.  Beyond the last row, :class:`CalibratedLink` holds the
    last row's values.

    ``progress`` enables per-distance progress/ETA lines (``True`` prints
    to stderr; a callable receives each line), which makes interactive
    table rebuilds via ``python -m repro.cli net --packets-per-point N``
    followable now that the frequency-domain fast path has made them
    quick.
    """
    from repro.environments.factory import build_link_pair
    from repro.link.session import LinkSession

    if isinstance(site, str):
        site = SITE_CATALOG[site]
    if packets_per_point < 1:
        raise ValueError("packets_per_point must be at least 1")
    distances = tuple(d for d in CALIBRATION_DISTANCES_M if d <= site.max_range_m)
    emit = progress_sink(progress)
    started = time.perf_counter()
    pers: list[float] = []
    bitrates: list[float] = []
    last_bitrate = LinkModel.nominal_bitrate_bps
    for index, distance in enumerate(distances):
        forward, backward = build_link_pair(
            site=site, distance_m=distance, seed=seed + 101 * index
        )
        session = LinkSession(forward, backward, seed=seed + 101 * index + 1)
        stats = session.run_packets(packets_per_point)
        pers.append(float(stats.packet_error_rate))
        bitrate = stats.median_bitrate_bps
        # All-failure rows have no selected band; reuse the previous row's
        # bitrate so airtime estimates stay finite.
        if np.isfinite(bitrate):
            last_bitrate = float(bitrate)
        bitrates.append(last_bitrate)
        if emit is not None:
            done = index + 1
            elapsed = time.perf_counter() - started
            eta = elapsed / done * (len(distances) - done)
            emit(
                f"calibrate[{site.name}] {distance:g} m: PER {pers[-1]:.1%}, "
                f"{last_bitrate:.0f} bps ({done}/{len(distances)}, "
                f"{elapsed:.1f}s elapsed, eta {eta:.1f}s)"
            )
    return LinkCalibration(
        site_name=site.name,
        distances_m=distances,
        packet_error_rate=tuple(pers),
        bitrate_bps=tuple(bitrates),
        packets_per_point=packets_per_point,
    )


#: Table measured with ``calibrate_from_phy(LAKE, packets_per_point=24,
#: seed=2022)``; regenerate with that call after changing the PHY.  The PER
#: is not monotonic in distance: at 10 m the lake's dense multipath bites
#: hardest, while further out the band adaptation has already retreated to
#: narrow low-rate bands (see the falling bitrate column) that decode
#: reliably again -- the same rate-vs-distance trade the paper's Fig. 12
#: shows.
DEFAULT_LAKE_CALIBRATION = LinkCalibration(
    site_name="lake",
    distances_m=CALIBRATION_DISTANCES_M,
    packet_error_rate=(0.0, 0.0, 0.125, 0.0833, 0.0417, 0.0417),
    bitrate_bps=(1083.3, 950.0, 400.0, 333.3, 300.0, 266.7),
    packets_per_point=24,
)


class CalibratedLink(LinkModel):
    """Fast link model replaying a PHY-measured PER/bitrate table."""

    name = "calibrated"

    #: Cap on the per-distance interpolation memo.  Regular topologies see
    #: a handful of distinct hop distances, but a random deployment has
    #: one per node pair in range, so the memo is bounded to stay O(1)
    #: memory.
    _LOOKUP_CACHE_MAX = 65536

    def __init__(self, calibration: LinkCalibration = DEFAULT_LAKE_CALIBRATION) -> None:
        self.calibration = calibration
        # Array views of the table columns so the batched fan-out path
        # interpolates without re-converting the tuples per broadcast.
        self._table_distances = np.asarray(calibration.distances_m, dtype=float)
        self._table_per = np.asarray(calibration.packet_error_rate, dtype=float)
        self._table_bitrate = np.asarray(calibration.bitrate_bps, dtype=float)
        #: distance -> (per, bitrate, delivered-outcome, dropped-outcome).
        #: Hop distances repeat constantly (static grids have a handful of
        #: values), np.interp costs microseconds per call, and LinkOutcome
        #: is frozen -- so both the interpolation *and* the two possible
        #: outcome objects per distance are memoized.
        self._lookup_cache: dict[
            float, tuple[float, float, LinkOutcome, LinkOutcome]
        ] = {}
        #: (size_bits, distance) -> airtime; same bounded-memo rationale.
        self._airtime_cache: dict[tuple[int, float], float] = {}

    def _lookup(self, distance_m: float) -> tuple[float, float, LinkOutcome, LinkOutcome]:
        """Memoized ``(per, bitrate, ok, dropped)`` at ``distance_m``."""
        cached = self._lookup_cache.get(distance_m)
        if cached is None:
            per = float(np.interp(distance_m, self._table_distances, self._table_per))
            bitrate = float(
                np.interp(distance_m, self._table_distances, self._table_bitrate)
            )
            cached = (
                per,
                bitrate,
                LinkOutcome(True, bitrate, per),
                LinkOutcome(False, bitrate, per),
            )
            if len(self._lookup_cache) >= self._LOOKUP_CACHE_MAX:
                self._lookup_cache.clear()
            self._lookup_cache[distance_m] = cached
        return cached

    def expected_bitrate_bps(self, distance_m: float) -> float:
        return self._lookup(float(distance_m))[1]

    def airtime_s(self, size_bits: int, distance_m: float) -> float:
        """Memoized airtime (deterministic per size/distance pair)."""
        key = (size_bits, distance_m)
        cached = self._airtime_cache.get(key)
        if cached is None:
            cached = LinkModel.airtime_s(self, size_bits, distance_m)
            if len(self._airtime_cache) >= self._LOOKUP_CACHE_MAX:
                self._airtime_cache.clear()
            self._airtime_cache[key] = cached
        return cached

    def deliver(
        self,
        distance_m: float,
        rng: np.random.Generator,
        size_bits: int = 16,
    ) -> LinkOutcome:
        del size_bits  # the table is per-packet; payload size sets airtime only
        per, _, ok, dropped = self._lookup(float(distance_m))
        return ok if rng.random() >= per else dropped

    def deliver_many(
        self,
        distances_m: np.ndarray,
        rng: np.random.Generator,
        size_bits: int = 16,
    ) -> list[LinkOutcome]:
        del size_bits  # the table is per-packet; payload size sets airtime only
        lookup = self._lookup
        resolved = [lookup(float(d)) for d in distances_m]
        # One batched draw consumes the generator stream exactly as the
        # per-receiver scalar ``rng.random()`` loop would, so outcomes are
        # bit-identical to LinkModel.deliver_many.
        draws = rng.random(len(resolved))
        return [
            entry[2] if draw >= entry[0] else entry[3]
            for draw, entry in zip(draws, resolved)
        ]


class PhysicalLink(LinkModel):
    """Link model that runs the full PHY protocol exchange per packet.

    Sessions are cached per :attr:`DISTANCE_QUANTUM_M` of hop distance,
    so a static topology pays channel construction once per hop, not once
    per packet -- and because the per-session packet-pipeline state
    (preamble header, template spectra, channel transfer functions) lives
    on the cached :class:`~repro.link.session.LinkSession`, every delivery
    after the first at a given distance reuses those caches.
    """

    name = "physical"

    #: Hop distances within one quantum share a session (m).
    DISTANCE_QUANTUM_M = 0.5

    def __init__(self, site: Site | str = LAKE, seed: int = 0) -> None:
        if isinstance(site, str):
            site = SITE_CATALOG[site]
        self.site = site
        self.seed = int(seed)
        self._sessions: dict[int, object] = {}

    def _session_for(self, distance_m: float):
        from repro.environments.factory import build_link_pair
        from repro.link.session import LinkSession

        key = max(1, int(round(distance_m / self.DISTANCE_QUANTUM_M)))
        session = self._sessions.get(key)
        if session is None:
            quantized = min(key * self.DISTANCE_QUANTUM_M, self.site.max_range_m)
            forward, backward = build_link_pair(
                site=self.site, distance_m=quantized, seed=self.seed + 7919 * key
            )
            session = LinkSession(
                forward, backward, seed=self.seed + 7919 * key + 1
            )
            self._sessions[key] = session
        return session

    def deliver(
        self,
        distance_m: float,
        rng: np.random.Generator,
        size_bits: int = 16,
    ) -> LinkOutcome:
        del size_bits  # the PHY packet format fixes the payload size
        session = self._session_for(distance_m)
        result = session.run_packet(rng=rng)
        bitrate = result.coded_bitrate_bps
        return LinkOutcome(
            delivered=bool(result.delivered),
            bitrate_bps=float(bitrate) if np.isfinite(bitrate) else self.nominal_bitrate_bps,
        )
