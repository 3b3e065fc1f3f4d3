"""Shallow-water multipath via the image (mirror) method.

The evaluation sites of the paper are shallow (2-15 m deep) bodies of water
where the dominant propagation effects are reflections from the surface and
the bottom (and, at the lake site, from walls and pillars).  The image
method models the channel as a sum of discrete paths: the direct path plus
paths that bounce ``s`` times off the surface and ``b`` times off the
bottom, each with

* a geometric length determined by mirroring the source across the
  boundaries,
* an amplitude reduced by spreading/absorption along that length and by
  the product of the reflection losses, with the pressure-release surface
  contributing a sign flip per surface bounce, and
* a propagation delay ``length / c``.

The resulting tapped-delay-line impulse response exhibits exactly the
frequency-selective fading with deep notches that drives the paper's band
adaptation (Fig. 3), and the notch positions move when the geometry or the
reflection losses change -- reproducing the location dependence of Fig. 3b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.physics import absorption_db_per_km, sound_speed_m_s
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive

#: Thorp absorption at the 2.5 kHz band centre, hoisted out of the per-path
#: loss expressions in :meth:`MultipathModel._tap_data`, which the per-packet
#: drifted impulse-response rebuilds run.  They stay bit-identical to the
#: scalar spreading-plus-absorption amplitude (same float operations);
#: tests/test_fastpath_golden.py pins the identity against the oracle.
_ALPHA_2500_DB_PER_KM = absorption_db_per_km(2500.0)

#: Speed of sound that turns path lengths into delays: Mackenzie's
#: equation for the default water of :func:`~repro.channel.physics.sound_speed_m_s`.
MACKENZIE_SOUND_SPEED_M_S = sound_speed_m_s()

#: Maximum total number of boundary interactions per modelled path.
MAX_BOUNCES = 4


def _family_structure() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Interleaved image orders, the per-slot family flag and the bounce
    counts of every image within :data:`MAX_BOUNCES`."""
    max_order = max(1, (MAX_BOUNCES + 1) // 2)
    orders = np.arange(-max_order, max_order + 1, dtype=float)
    abs_orders = np.abs(orders).astype(int)
    # Interleave (family 1, family 2) per order, matching the original
    # nested-loop enumeration order exactly.
    orders_interleaved = np.repeat(orders, 2)
    is_family2 = np.tile(np.array([False, True]), orders.size)
    surfaces = np.where(
        is_family2,
        np.repeat(np.where(orders >= 0, abs_orders + 1, abs_orders - 1), 2),
        np.repeat(abs_orders, 2),
    )
    bottoms = np.repeat(abs_orders, 2)
    keep = surfaces + bottoms <= MAX_BOUNCES
    structure = (
        orders_interleaved[keep],
        is_family2[keep],
        surfaces[keep],
        bottoms[keep],
    )
    for array in structure:
        array.setflags(write=False)
    return structure


#: The image-family structure.  Only the vertical separations depend on the
#: geometry, so every tap computation (the per-packet drifted-channel
#: rebuilds included) reuses these arrays.
_ORDERS, _IS_FAMILY2, _SURFACES, _BOTTOMS = _family_structure()


@dataclass(frozen=True)
class PropagationPath:
    """One discrete propagation path between transmitter and receiver.

    Attributes
    ----------
    delay_s:
        One-way propagation delay in seconds.
    amplitude:
        Linear amplitude (sign included: surface bounces flip polarity).
    num_surface_bounces, num_bottom_bounces:
        Number of interactions with each boundary.
    length_m:
        Geometric path length in metres.
    """

    delay_s: float
    amplitude: float
    num_surface_bounces: int
    num_bottom_bounces: int
    length_m: float


@dataclass(frozen=True)
class ImageMethodGeometry:
    """Geometry of a shallow-water link.

    Attributes
    ----------
    water_depth_m:
        Total depth of the water column.
    tx_depth_m, rx_depth_m:
        Depths of the transmitter and receiver below the surface.
    horizontal_range_m:
        Horizontal separation between the devices.
    """

    water_depth_m: float
    tx_depth_m: float
    rx_depth_m: float
    horizontal_range_m: float

    def __post_init__(self) -> None:
        require_positive(self.water_depth_m, "water_depth_m")
        require_positive(self.horizontal_range_m, "horizontal_range_m")
        for name, depth in (("tx_depth_m", self.tx_depth_m), ("rx_depth_m", self.rx_depth_m)):
            if not 0 < depth < self.water_depth_m:
                raise ValueError(
                    f"{name} must lie strictly inside the water column "
                    f"(0, {self.water_depth_m}), got {depth}"
                )


@dataclass
class MultipathModel:
    """Image-method multipath model for one site geometry.

    Parameters
    ----------
    geometry:
        Link geometry (depths and range).
    surface_loss_db:
        Loss per surface reflection (roughness-dependent; calm water is
        nearly lossless but flips polarity).
    bottom_loss_db:
        Loss per bottom reflection (sediment-dependent).
    extra_reflectors:
        Number of additional discrete reflectors (walls, pillars, moored
        boats) to add as randomized late arrivals -- the lake and museum
        sites of the paper show this behaviour.
    seed:
        Seed for the randomized extra reflectors.
    """

    geometry: ImageMethodGeometry
    surface_loss_db: float = 1.0
    bottom_loss_db: float = 6.0
    extra_reflectors: int = 0
    seed: int | None = None

    def _tap_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sorted, deduplicated tap arrays ``(delays, amplitudes, surface, bottom, lengths)``.

        The numeric core of :meth:`paths`, kept as plain arrays so the
        per-packet drifted impulse-response rebuilds skip the dataclass
        round trip.  Bit-identical to the original per-path scalar loop:
        ``hypot``/``log10`` vectorize to the same results, while the final
        power laws stay scalar (NumPy's vectorized ``**`` rounds differently
        from its scalar path).
        """
        geom = self.geometry
        depth = geom.water_depth_m
        zs, zr = geom.tx_depth_m, geom.rx_depth_m
        # Both image families for every order m at once, interleaved in the
        # same (m, family) order the original nested loop produced so the
        # stable sort below breaks delay ties identically.
        surfaces_arr, bottoms_arr = _SURFACES, _BOTTOMS
        verticals = 2.0 * depth * _ORDERS + np.where(_IS_FAMILY2, zr + zs, zr - zs)

        lengths = np.hypot(geom.horizontal_range_m, verticals)
        clamped = np.maximum(lengths, 1.0)
        losses = (
            2.0 * 10.0 * np.log10(clamped)
            + _ALPHA_2500_DB_PER_KM * lengths / 1000.0
        )
        bounce_losses = (
            surfaces_arr.astype(float) * self.surface_loss_db
            + bottoms_arr.astype(float) * self.bottom_loss_db
        )
        # The power laws stay scalar per path: NumPy's vectorized ``**``
        # rounds differently from its scalar path, while math.pow is
        # bit-identical to the scalar ``**`` the original loop used and an
        # order of magnitude cheaper than np.float64.__pow__.
        amplitude_list = []
        odd_surface = (surfaces_arr % 2 == 1).tolist()
        for loss, bounce_loss, flip in zip(
            losses.tolist(), bounce_losses.tolist(), odd_surface
        ):
            amplitude = math.pow(10.0, -loss / 20.0) * math.pow(10.0, -bounce_loss / 20.0)
            amplitude_list.append(-amplitude if flip else amplitude)
        amplitudes = np.asarray(amplitude_list)
        delays = lengths / MACKENZIE_SOUND_SPEED_M_S

        extra_delays, extra_amplitudes, extra_lengths = self._extra_reflector_data()
        if extra_delays.size:
            delays = np.concatenate([delays, extra_delays])
            amplitudes = np.concatenate([amplitudes, extra_amplitudes])
            lengths = np.concatenate([lengths, extra_lengths])
            surfaces_arr = np.concatenate(
                [surfaces_arr, np.zeros(extra_delays.size, dtype=int)]
            )
            bottoms_arr = np.concatenate(
                [bottoms_arr, np.zeros(extra_delays.size, dtype=int)]
            )

        order = np.argsort(delays, kind="stable")
        delays = delays[order]
        amplitudes = amplitudes[order].copy()
        lengths = lengths[order]
        surfaces_arr = surfaces_arr[order]
        bottoms_arr = bottoms_arr[order]

        # Merge essentially identical delays (same rule as _deduplicate):
        # the merged tap keeps the first path's delay and sums amplitudes.
        keep = np.ones(delays.size, dtype=bool)
        last = 0
        for i in range(1, delays.size):
            if abs(delays[i] - delays[last]) < 1e-9:
                amplitudes[last] = amplitudes[last] + amplitudes[i]
                keep[i] = False
            else:
                last = i
        if not keep.all():
            delays = delays[keep]
            amplitudes = amplitudes[keep]
            lengths = lengths[keep]
            surfaces_arr = surfaces_arr[keep]
            bottoms_arr = bottoms_arr[keep]
        return delays, amplitudes, surfaces_arr, bottoms_arr, lengths

    def paths(self) -> list[PropagationPath]:
        """Return the discrete propagation paths, earliest first.

        Standard image-method enumeration: for every integer image order
        ``m`` there are two image families, one with vertical separation
        ``2 m D + (zr - zs)`` (equal numbers of surface and bottom bounces)
        and one with ``2 m D + (zr + zs)`` (one extra surface bounce for
        ``m >= 0``, otherwise one extra bottom bounce).  ``m = 0`` of the
        first family is the direct path.
        """
        delays, amplitudes, surfaces, bottoms, lengths = self._tap_data()
        return [
            PropagationPath(
                delay_s=float(delay),
                amplitude=float(amplitude),
                num_surface_bounces=int(surface),
                num_bottom_bounces=int(bottom),
                length_m=float(length),
            )
            for delay, amplitude, surface, bottom, length in zip(
                delays, amplitudes, surfaces, bottoms, lengths
            )
        ]

    def _extra_reflector_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Late arrivals from walls / pillars / moored boats, as tap arrays.

        The three random draws per reflector (detour, loss, polarity) come
        from one batched ``rng.random`` call; NumPy's ``Generator.uniform``
        is exactly ``low + (high - low) * next_double()``, so the values are
        bit-identical to the original per-reflector scalar draws.

        Returns ``(delays, amplitudes, lengths)``.
        """
        if self.extra_reflectors <= 0:
            empty = np.zeros(0)
            return empty, empty, empty
        rng = ensure_rng(self.seed)
        geom = self.geometry
        direct = float(np.hypot(geom.horizontal_range_m, geom.tx_depth_m - geom.rx_depth_m))
        draws = rng.random(3 * self.extra_reflectors)
        detours = 1.5 + (12.0 - 1.5) * draws[0::3]
        lengths = direct + detours
        reflection_losses_db = 4.0 + (12.0 - 4.0) * draws[1::3]
        negate = draws[2::3] < 0.5
        clamped = np.maximum(lengths, 1.0)
        path_losses = (
            2.0 * 10.0 * np.log10(clamped)
            + _ALPHA_2500_DB_PER_KM * lengths / 1000.0
        )
        amplitude_list = []
        for loss, reflection_loss, flip in zip(
            path_losses.tolist(), reflection_losses_db.tolist(), negate.tolist()
        ):
            amplitude = math.pow(10.0, -loss / 20.0) * math.pow(10.0, -reflection_loss / 20.0)
            amplitude_list.append(-amplitude if flip else amplitude)
        amplitudes = np.asarray(amplitude_list)
        return lengths / MACKENZIE_SOUND_SPEED_M_S, amplitudes, lengths

    # ------------------------------------------------------------------ output
    def impulse_response(self, sample_rate_hz: float) -> np.ndarray:
        """Return the sampled impulse response of the multipath channel.

        The earliest path sits at delay 0: the bulk propagation delay is
        removed (the link simulator accounts for absolute propagation delay
        separately).
        """
        require_positive(sample_rate_hz, "sample_rate_hz")
        delays, amplitudes, _, _, _ = self._tap_data()
        if delays.size == 0:
            raise RuntimeError("multipath model produced no paths")
        relative_delays = (delays - delays[0]) * sample_rate_hz
        response = np.zeros(int(np.ceil(relative_delays[-1])) + 2)
        # Linear interpolation spreads each tap over its two neighbouring
        # samples (a fractional delay of the path).  np.add.at
        # accumulates unbuffered in operand order, matching a per-path loop
        # even for coincident indices.  The delays are sorted, so every
        # tap and its +1 neighbour fall inside the response.
        indices = np.floor(relative_delays).astype(int)
        fracs = relative_delays - indices
        # One interleaved scatter-add keeps the accumulation order of the
        # original per-path loop (main tap, then its +1 neighbour) exact.
        targets = np.empty(2 * indices.size, dtype=int)
        targets[0::2] = indices
        targets[1::2] = indices + 1
        contributions = np.empty(2 * indices.size)
        contributions[0::2] = amplitudes * (1.0 - fracs)
        contributions[1::2] = amplitudes * fracs
        np.add.at(response, targets, contributions)
        return response

    def frequency_response_db(
        self, frequencies_hz: np.ndarray, sample_rate_hz: float = 48000.0
    ) -> np.ndarray:
        """Return the channel magnitude response (dB) at given frequencies."""
        impulse = self.impulse_response(sample_rate_hz)
        n_fft = int(2 ** np.ceil(np.log2(max(impulse.size * 4, 1024))))
        spectrum = np.fft.rfft(impulse, n=n_fft)
        grid = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
        frequencies_hz = np.asarray(frequencies_hz, dtype=float)
        magnitude = np.interp(frequencies_hz, grid, np.abs(spectrum))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-12))
