"""End-to-end underwater acoustic channel between two mobile devices.

:class:`UnderwaterAcousticChannel` glues together the pieces of the
simulated testbed: the transmitting device's speaker (level, frequency
response, orientation, waterproof case), the shallow-water multipath
channel, device motion (Doppler plus channel drift within a transmission),
the receiving device's microphone and case, and ambient noise.  Its
:meth:`transmit` method is the single point every experiment pushes
waveforms through.

Reciprocity: the paper observes that underwater the forward and backward
channels differ substantially even for identical phone models (Fig. 3d),
because the speaker and microphone sit at different positions on the
device and centimetre offsets matter at these wavelengths under dense
multipath.  :meth:`reverse` therefore returns a channel with the devices
swapped *and* a slightly perturbed geometry, rather than a mirror image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.channel.motion import STATIC_MOTION, MotionModel, MotionState
from repro.channel.multipath import ImageMethodGeometry, MultipathModel
from repro.channel.noise import AmbientNoiseModel
from repro.devices.case import SOFT_POUCH, WaterproofCase
from repro.devices.models import GALAXY_S9, DeviceModel
from repro.devices.response import FrequencyResponse
from repro.dsp.fastconv import convolve_cascade, convolve_full, convolve_shared
from repro.dsp.resample import apply_doppler, doppler_factor
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_amplitude_ratio


@dataclass(frozen=True)
class ChannelOutput:
    """Everything the channel reports about one transmission.

    Attributes
    ----------
    samples:
        The received waveform (input length plus the channel tail).
    motion:
        The motion state drawn for this transmission.
    doppler:
        The Doppler time-scaling factor that was applied.
    in_band_snr_db:
        Crude overall SNR estimate: received signal power over noise power
        (diagnostic only; the modem makes its own per-bin estimate).
    """

    samples: np.ndarray
    motion: MotionState
    doppler: float
    in_band_snr_db: float


@functools.lru_cache(maxsize=32)
def _device_chain(
    tx_device: DeviceModel,
    tx_case: WaterproofCase,
    rx_device: DeviceModel,
    rx_case: WaterproofCase,
    sample_rate_hz: float,
) -> tuple[FrequencyResponse, np.ndarray]:
    """The speaker-case-microphone-case response and its read-only FIR.

    Designed once per process per chain, keyed by value (the device and
    case dataclasses are frozen): a sweep builds a channel per scenario
    from a handful of catalog devices and cases.
    """
    combined = tx_device.speaker_response.combined_with(
        tx_case.response, label="tx chain"
    ).combined_with(
        rx_device.microphone_response, label="tx+rx chain"
    ).combined_with(rx_case.response, label="device chain")
    fir = combined.as_fir(sample_rate_hz, num_taps=257)
    fir.setflags(write=False)
    return combined, fir


class UnderwaterAcousticChannel:
    """Simulated acoustic link between a transmitting and receiving device."""

    def __init__(
        self,
        multipath: MultipathModel,
        noise: AmbientNoiseModel,
        tx_device: DeviceModel = GALAXY_S9,
        rx_device: DeviceModel = GALAXY_S9,
        tx_case: WaterproofCase = SOFT_POUCH,
        rx_case: WaterproofCase = SOFT_POUCH,
        motion: MotionModel = STATIC_MOTION,
        orientation_deg: float = 0.0,
        sample_rate_hz: float = 48000.0,
        extra_gain_db: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.multipath = multipath
        self.noise = noise
        self.tx_device = tx_device
        self.rx_device = rx_device
        self.tx_case = tx_case
        self.rx_case = rx_case
        self.motion = motion
        self.orientation_deg = float(orientation_deg)
        self.sample_rate_hz = float(sample_rate_hz)
        self.extra_gain_db = float(extra_gain_db)
        self._rng = ensure_rng(seed)
        tx_case.check_depth(multipath.geometry.tx_depth_m)
        rx_case.check_depth(multipath.geometry.rx_depth_m)
        self._rebuild_filters()

    # ------------------------------------------------------------------ setup
    def _rebuild_filters(self) -> None:
        """Look up the cascaded device/case FIR and build the multipath taps."""
        self._device_response, self._device_fir = _device_chain(
            self.tx_device, self.tx_case, self.rx_device, self.rx_case,
            self.sample_rate_hz,
        )
        self._device_fir_delay = (self._device_fir.size - 1) // 2
        self._impulse_response = self.multipath.impulse_response(self.sample_rate_hz)

    @property
    def geometry(self) -> ImageMethodGeometry:
        """Geometry of the underlying multipath model."""
        return self.multipath.geometry

    @property
    def distance_m(self) -> float:
        """Horizontal range between the devices."""
        return self.geometry.horizontal_range_m

    def fixed_gain_db(self) -> float:
        """Frequency-independent part of the link budget (dB)."""
        return (
            self.tx_device.source_level_db
            + self.tx_device.orientation_gain_db(self.orientation_deg)
            - self.tx_case.attenuation_db
            - self.rx_case.attenuation_db
            + self.extra_gain_db
        )

    def _fixed_gain_ratio(self) -> float:
        """Cached ``db_to_amplitude_ratio(self.fixed_gain_db())``.

        The link budget only changes when a device, case, orientation or
        extra gain is swapped, so the per-transmit orientation-pattern
        interpolation is paid once per configuration.  Keyed by value (the
        device/case dataclasses are frozen): an identity key could go stale
        if a replaced object's address were reused.
        """
        key = (
            self.tx_device, self.tx_case, self.rx_case,
            self.orientation_deg, self.extra_gain_db,
        )
        cached = getattr(self, "_gain_ratio_cache", None)
        if cached is None or cached[0] != key:
            cached = (key, db_to_amplitude_ratio(self.fixed_gain_db()))
            self._gain_ratio_cache = cached
        return cached[1]

    # ------------------------------------------------------------- randomness
    def randomize(self, rng: int | np.random.Generator | None = None) -> None:
        """Redraw the small-scale channel realization.

        Jitters the device depths by a few centimetres and redraws the
        randomized extra reflectors, modelling re-submerging the phones or
        natural drift between packets.
        """
        rng = ensure_rng(rng if rng is not None else self._rng)
        geom = self.multipath.geometry
        jitter = lambda value, scale: float(
            np.clip(value + rng.normal(0.0, scale), 0.05, geom.water_depth_m - 0.05)
        )
        # Phones on ropes / selfie sticks move by tens of centimetres between
        # packets, which is enough to decorrelate the multipath notches.
        new_geometry = ImageMethodGeometry(
            water_depth_m=geom.water_depth_m,
            tx_depth_m=jitter(geom.tx_depth_m, 0.15),
            rx_depth_m=jitter(geom.rx_depth_m, 0.15),
            horizontal_range_m=max(0.5, geom.horizontal_range_m + float(rng.normal(0.0, 0.3))),
        )
        self.multipath = replace(
            self.multipath,
            geometry=new_geometry,
            seed=int(rng.integers(0, 2 ** 31 - 1)),
        )
        self._impulse_response = self.multipath.impulse_response(self.sample_rate_hz)

    def _drifted_multipath(self, motion_state: MotionState, rng: np.random.Generator) -> MultipathModel:
        """Multipath model after the channel has drifted during a packet."""
        geom = self.multipath.geometry
        displacement = max(motion_state.displacement_m, 0.02)
        new_geometry = ImageMethodGeometry(
            water_depth_m=geom.water_depth_m,
            tx_depth_m=float(np.clip(
                geom.tx_depth_m + rng.normal(0.0, 0.3 * displacement),
                0.05, geom.water_depth_m - 0.05)),
            rx_depth_m=geom.rx_depth_m,
            horizontal_range_m=max(0.5, geom.horizontal_range_m
                                   - motion_state.radial_speed_m_s * 0.25),
        )
        return replace(
            self.multipath,
            geometry=new_geometry,
            seed=int(rng.integers(0, 2 ** 31 - 1)),
        )

    # --------------------------------------------------------------- transmit
    def transmit(
        self,
        waveform: np.ndarray,
        rng: int | np.random.Generator | None = None,
        include_noise: bool = True,
    ) -> ChannelOutput:
        """Propagate ``waveform`` from the transmitter to the receiver."""
        rng = ensure_rng(rng if rng is not None else self._rng)
        waveform = np.asarray(waveform, dtype=float).ravel()
        if waveform.size == 0:
            raise ValueError("waveform must be non-empty")

        duration_s = waveform.size / self.sample_rate_hz
        motion_state = self.motion.sample(rng, interval_s=duration_s)
        doppler = doppler_factor(motion_state.radial_speed_m_s)

        # Transmit chain: power amplifier level, orientation and case losses.
        scaled = waveform * self._fixed_gain_ratio()

        # Multipath + receive chain.  The tail uses the pre-drift impulse
        # response on purpose: the output length must be predictable before
        # the drifted channel is drawn.
        tail = self._impulse_response.size + self._device_fir.size
        received = self._propagate(scaled, motion_state, doppler, duration_s, rng)

        # Pad to a predictable length: input + channel tail.
        total_length = waveform.size + tail
        if received.size < total_length:
            padded = np.zeros(total_length)
            padded[:received.size] = received
            received = padded
        else:
            received = received[:total_length]

        # np.dot is the fastest way to a sum of squares; the SNR here is a
        # diagnostic (the modem makes its own per-bin estimate), so the
        # different reduction order versus np.mean(x**2) is irrelevant.
        signal_power = float(np.dot(received, received) / received.size) if received.size else 0.0
        if include_noise:
            ambient = self.noise.generate(total_length, self.sample_rate_hz, rng)
            mic_noise = rng.standard_normal(total_length) * db_to_amplitude_ratio(
                self.rx_device.microphone_noise_db
            )
            noise = np.add(ambient, mic_noise, out=mic_noise)
            noise_power = float(np.dot(noise, noise) / noise.size)
            received = np.add(received, noise, out=noise)
        else:
            noise_power = 1e-30
        snr_db = 10.0 * np.log10(max(signal_power, 1e-30) / max(noise_power, 1e-30))
        return ChannelOutput(
            samples=received,
            motion=motion_state,
            doppler=doppler,
            in_band_snr_db=snr_db,
        )

    def _drift_mix(
        self,
        static_part: np.ndarray,
        drifted_part: np.ndarray,
        motion_state: MotionState,
        duration_s: float,
    ) -> np.ndarray:
        """Cross-fade the static and drifted multipath outputs over a packet."""
        length = max(static_part.size, drifted_part.size)
        if static_part.size < length:
            padded = np.zeros(length)
            padded[:static_part.size] = static_part
            static_part = padded
        if drifted_part.size < length:
            padded = np.zeros(length)
            padded[:drifted_part.size] = drifted_part
            drifted_part = padded
        fade_end = min(1.0, motion_state.drift_rate_per_s * duration_s)
        fade = np.linspace(0.0, fade_end, length)
        return (1.0 - fade) * static_part + fade * drifted_part

    def _propagate(
        self,
        scaled: np.ndarray,
        motion_state: MotionState,
        doppler: float,
        duration_s: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Frequency-domain propagation with cached transfer functions.

        The static case (no drift, no Doppler) collapses the whole chain
        into one rFFT, one multiply against the cached combined multipath x
        device-FIR spectrum and one irFFT.  Under motion drift the two
        multipath spectra share a single forward FFT of the packet before
        the time-domain cross-fade; Doppler resampling, which is inherently
        a time-domain warp, falls back to the cached-kernel FIR convolution
        afterwards.
        """
        drifting = motion_state.drift_rate_per_s > 0
        moving = abs(doppler - 1.0) > 1e-9
        if not drifting and not moving:
            received = convolve_cascade(scaled, self._impulse_response, self._device_fir)
            return received[self._device_fir_delay:]

        if drifting:
            drifted_multipath = self._drifted_multipath(motion_state, rng)
            drifted_response = drifted_multipath.impulse_response(self.sample_rate_hz)
            static_part, drifted_part = convolve_shared(
                scaled, (self._impulse_response, drifted_response)
            )
            propagated = self._drift_mix(static_part, drifted_part, motion_state, duration_s)
            # The drift persists: the next transmission starts from the channel
            # the devices have drifted into, so consecutive transmissions (e.g.
            # the preamble and the later data burst) see different channels --
            # exactly the effect the paper's Fig. 16 experiment measures.
            self.multipath = drifted_multipath
            self._impulse_response = drifted_response
        else:
            propagated = convolve_full(scaled, self._impulse_response)

        if moving:
            propagated = apply_doppler(propagated, doppler)

        received = convolve_full(propagated, self._device_fir)
        return received[self._device_fir_delay:]

    # ------------------------------------------------------------ directions
    def reverse(self, seed: int | np.random.Generator | None = None) -> "UnderwaterAcousticChannel":
        """Return the backward-direction channel (Bob -> Alice).

        The devices swap roles and the multipath geometry is perturbed by a
        few centimetres, reflecting the different physical positions of the
        speaker and the microphone on each device.  This intentionally
        breaks reciprocity, as measured in the paper.
        """
        rng = ensure_rng(seed if seed is not None else self._rng)
        geom = self.multipath.geometry
        perturbed_geometry = ImageMethodGeometry(
            water_depth_m=geom.water_depth_m,
            tx_depth_m=float(np.clip(geom.rx_depth_m + rng.normal(0.0, 0.06),
                                     0.05, geom.water_depth_m - 0.05)),
            rx_depth_m=float(np.clip(geom.tx_depth_m + rng.normal(0.0, 0.06),
                                     0.05, geom.water_depth_m - 0.05)),
            horizontal_range_m=max(0.5, geom.horizontal_range_m + float(rng.normal(0.0, 0.05))),
        )
        reverse_multipath = replace(
            self.multipath,
            geometry=perturbed_geometry,
            seed=int(rng.integers(0, 2 ** 31 - 1)),
        )
        return UnderwaterAcousticChannel(
            multipath=reverse_multipath,
            noise=self.noise,
            tx_device=self.rx_device,
            rx_device=self.tx_device,
            tx_case=self.rx_case,
            rx_case=self.tx_case,
            motion=self.motion,
            orientation_deg=self.orientation_deg,
            sample_rate_hz=self.sample_rate_hz,
            extra_gain_db=self.extra_gain_db,
            seed=rng,
        )

    # ------------------------------------------------------------- diagnostics
    def end_to_end_response_db(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Return the end-to-end magnitude response (dB) at given frequencies.

        Includes the device chain, the case losses, the orientation loss and
        the multipath channel -- the quantity plotted in Fig. 3 of the paper.
        """
        frequencies_hz = np.asarray(frequencies_hz, dtype=float)
        device = self._device_response.gain_db(frequencies_hz)
        channel = self.multipath.frequency_response_db(frequencies_hz, self.sample_rate_hz)
        return device + channel + self.fixed_gain_db()
