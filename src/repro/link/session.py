"""Full protocol exchanges between Alice (transmitter) and Bob (receiver).

:class:`LinkSession` drives the sequence of Fig. 5 of the paper over a pair
of simulated channels:

1. Alice transmits the preamble and the receiver-ID header.
2. Bob detects the preamble, estimates per-subcarrier SNR, runs the band
   adaptation algorithm and answers with the two-tone feedback symbol.
3. Alice decodes the feedback and transmits the data burst (training symbol
   plus data symbols) inside the selected band, with the preamble and a
   silence gap in front so Bob's preamble synchronization also serves the
   data symbols.
4. Bob synchronizes, equalizes and decodes the data; bit and packet errors
   are recorded.

The fixed-bandwidth baselines reuse the same machinery but skip the
adaptation/feedback phase and always use their fixed band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.channel import UnderwaterAcousticChannel
from repro.core.adaptation import BandSelection
from repro.core.baselines import FixedBandScheme
from repro.core.modem import AquaModem
from repro.core.rates import SILENCE_SYMBOLS
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class PacketResult:
    """Outcome of one protocol exchange.

    Attributes
    ----------
    delivered:
        ``True`` when the payload was decoded without any bit error.
    preamble_detected:
        Whether Bob's detector found the preamble of the data packet.
    feedback_ok:
        Whether Alice decoded a feedback symbol at all (always ``True`` for
        fixed-band schemes, which need no feedback).
    feedback_exact:
        Whether the band Alice decoded matches the band Bob selected.
    receiver_band:
        The band Bob selected (or the fixed band for baseline schemes).
    transmitter_band:
        The band Alice used for encoding.
    bit_errors, num_payload_bits:
        Payload bit errors after decoding.
    coded_bit_errors, num_coded_bits:
        Errors in the coded bit stream before Viterbi decoding (the
        "uncoded BER" the paper reports).
    coded_bitrate_bps:
        The information bitrate implied by the selected band.
    min_band_snr_db:
        Minimum estimated SNR inside the selected band (from the preamble).
    detection_metric:
        Fine (sliding-correlation) detection metric of the data packet.
    """

    delivered: bool
    preamble_detected: bool
    feedback_ok: bool
    feedback_exact: bool
    receiver_band: BandSelection | None
    transmitter_band: BandSelection | None
    bit_errors: int
    num_payload_bits: int
    coded_bit_errors: int
    num_coded_bits: int
    coded_bitrate_bps: float
    min_band_snr_db: float
    detection_metric: float

    @property
    def is_error(self) -> bool:
        """Whether the packet counts as erroneous (any payload bit wrong)."""
        return not self.delivered


def _rate(events: int, trials: int) -> float:
    """``events / trials``, or NaN when there were no trials."""
    return int(events) / int(trials) if trials else float("nan")


@dataclass
class LinkStatistics:
    """Aggregated statistics over many packets.

    Every aggregate is computed from ``results`` when it is read, so it
    always reflects the current packet list.
    """

    results: list[PacketResult] = field(default_factory=list)

    def add(self, result: PacketResult) -> None:
        """Record one more packet."""
        self.results.append(result)

    # ------------------------------------------------------------------ rates
    @property
    def num_packets(self) -> int:
        """Number of packets recorded."""
        return len(self.results)

    @property
    def packet_error_rate(self) -> float:
        """Fraction of packets with at least one payload bit error."""
        return _rate(sum(r.is_error for r in self.results), len(self.results))

    @property
    def payload_bit_error_rate(self) -> float:
        """Bit error rate of the decoded payloads."""
        return _rate(
            sum(r.bit_errors for r in self.results),
            sum(r.num_payload_bits for r in self.results),
        )

    @property
    def coded_bit_error_rate(self) -> float:
        """Bit error rate of the coded stream before Viterbi decoding."""
        return _rate(
            sum(r.coded_bit_errors for r in self.results),
            sum(r.num_coded_bits for r in self.results),
        )

    @property
    def preamble_detection_rate(self) -> float:
        """Fraction of packets whose preamble was detected."""
        return _rate(sum(r.preamble_detected for r in self.results), len(self.results))

    @property
    def feedback_error_rate(self) -> float:
        """Fraction of packets whose feedback was missing or decoded wrongly."""
        return _rate(
            sum((not r.feedback_ok) or (not r.feedback_exact) for r in self.results),
            len(self.results),
        )

    # --------------------------------------------------------------- bitrates
    @property
    def bitrates_bps(self) -> np.ndarray:
        """Selected coded bitrates of all packets with a known band."""
        rates = np.array([r.coded_bitrate_bps for r in self.results], dtype=float)
        return rates[np.isfinite(rates)]

    @property
    def median_bitrate_bps(self) -> float:
        """Median selected coded bitrate."""
        rates = self.bitrates_bps
        return float(np.median(rates)) if rates.size else float("nan")


class LinkSession:
    """Runs packet exchanges between two devices over simulated channels."""

    def __init__(
        self,
        forward_channel: UnderwaterAcousticChannel,
        backward_channel: UnderwaterAcousticChannel | None = None,
        modem: AquaModem | None = None,
        scheme: FixedBandScheme | str = "adaptive",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.forward_channel = forward_channel
        self.backward_channel = backward_channel or forward_channel.reverse()
        self.modem = modem or AquaModem()
        self.scheme = scheme
        self._rng = ensure_rng(seed)
        # Per-session packet-pipeline state reused across packets: the
        # preamble+header waveform and the silence gap are deterministic for
        # a session, so the first packet builds them.  (The channel
        # transfer-function and preamble template spectra live in the shared
        # caches of repro.dsp.fastconv / TemplateCorrelator.)
        self._header_cache = None
        self._silence_cache: np.ndarray | None = None
        if isinstance(scheme, str) and scheme != "adaptive":
            raise ValueError("scheme must be 'adaptive' or a FixedBandScheme")

    # ------------------------------------------------------------- properties
    @property
    def is_adaptive(self) -> bool:
        """Whether this session uses the paper's band adaptation."""
        return isinstance(self.scheme, str) and self.scheme == "adaptive"

    @property
    def payload_bits(self) -> int:
        """Payload size per packet in bits."""
        return self.modem.protocol_config.payload_bits

    def random_payload(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw a random payload of the configured size."""
        rng = rng or self._rng
        return rng.integers(0, 2, size=self.payload_bits)

    # ----------------------------------------------------------- cached state
    def _header(self):
        """The preamble + receiver-ID header waveform, built once.

        A session models one transmitter/receiver pair, so the header
        always addresses receiver 1.
        """
        if self._header_cache is None:
            self._header_cache = self.modem.build_preamble_and_header(1)
        return self._header_cache

    def _silence(self) -> np.ndarray:
        """The inter-burst silence gap, built once."""
        if self._silence_cache is None:
            silence = np.zeros(
                SILENCE_SYMBOLS * self.modem.ofdm_config.extended_symbol_length
            )
            silence.setflags(write=False)
            self._silence_cache = silence
        return self._silence_cache

    # ---------------------------------------------------------------- running
    def run_packet(
        self,
        payload: np.ndarray | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> PacketResult:
        """Run one full protocol exchange and return its outcome.

        Each packet sees a fresh realization of both channels.
        """
        rng = ensure_rng(rng if rng is not None else self._rng)
        self.forward_channel.randomize(rng)
        self.backward_channel.randomize(rng)
        payload = self.random_payload(rng) if payload is None else np.asarray(payload, dtype=int)

        modem = self.modem
        config = modem.ofdm_config
        header = self._header()

        # ---------------------------------------------------------- phase 1+2
        receiver_band, feedback_ok, feedback_exact, transmitter_band, min_band_snr = (
            self._adaptation_phase(header, rng)
        )
        if receiver_band is None:
            return self._failed_result(payload, preamble_detected=False)
        if transmitter_band is None:
            return self._failed_result(
                payload,
                preamble_detected=True,
                receiver_band=receiver_band,
                feedback_ok=feedback_ok,
                feedback_exact=False,
                min_band_snr=min_band_snr,
            )

        # ------------------------------------------------------------ phase 3
        packet = modem.encode_data(payload, transmitter_band)
        silence = self._silence()
        full_waveform = np.concatenate([header.waveform, silence, packet.waveform])
        forward = self.forward_channel.transmit(full_waveform, rng)
        received = modem.filter_received(forward.samples)
        detection = modem.detect_preamble(received)
        if not detection.detected:
            return self._failed_result(
                payload,
                preamble_detected=False,
                receiver_band=receiver_band,
                feedback_ok=feedback_ok,
                feedback_exact=feedback_exact,
                min_band_snr=min_band_snr,
            )
        data_start = (
            detection.start_index
            + modem.preamble_generator.total_length
            + config.extended_symbol_length  # receiver-ID header symbol
            + silence.size
        )
        coded_reference = modem.decoder.coded_reference_bits(payload)
        try:
            decoded = modem.decode_data(
                received[data_start:], receiver_band, payload.size, apply_bandpass=False
            )
        except ValueError:
            # Band mismatch between the two ends can make the burst shorter
            # than the receiver expects; that is a lost packet.
            return self._failed_result(
                payload,
                preamble_detected=True,
                receiver_band=receiver_band,
                feedback_ok=feedback_ok,
                feedback_exact=feedback_exact,
                min_band_snr=min_band_snr,
                detection_metric=detection.fine_metric,
            )

        bit_errors = int(np.count_nonzero(decoded.bits != payload))
        if feedback_exact and transmitter_band.num_bins == receiver_band.num_bins:
            coded_errors = int(np.count_nonzero(decoded.hard_coded_bits != coded_reference))
        else:
            coded_errors = int(coded_reference.size)
        return PacketResult(
            delivered=bit_errors == 0,
            preamble_detected=True,
            feedback_ok=feedback_ok,
            feedback_exact=feedback_exact,
            receiver_band=receiver_band,
            transmitter_band=transmitter_band,
            bit_errors=bit_errors,
            num_payload_bits=int(payload.size),
            coded_bit_errors=coded_errors,
            num_coded_bits=int(coded_reference.size),
            coded_bitrate_bps=modem.bitrate_for_band(receiver_band),
            min_band_snr_db=min_band_snr,
            detection_metric=detection.fine_metric,
        )

    def _adaptation_phase(self, header, rng):
        """Phases 1 and 2: preamble/SNR estimation and feedback exchange."""
        modem = self.modem
        if not self.is_adaptive:
            band = self.scheme.selection(modem.ofdm_config)
            return band, True, True, band, float("nan")

        forward = self.forward_channel.transmit(header.waveform, rng)
        received = modem.filter_received(forward.samples)
        detection = modem.detect_preamble(received)
        if not detection.detected:
            return None, False, False, None, float("nan")
        estimate = modem.estimate_snr(received, detection.start_index)
        receiver_band = modem.select_band(estimate)
        min_band_snr = float(
            np.min(estimate.snr_for_band(receiver_band.start_bin, receiver_band.end_bin))
        )

        feedback_waveform = modem.build_feedback(receiver_band)
        backward = self.backward_channel.transmit(feedback_waveform, rng)
        feedback_received = modem.filter_received(backward.samples)
        feedback = modem.decode_feedback(feedback_received)
        if not feedback.found:
            return receiver_band, False, False, None, min_band_snr
        transmitter_band = modem.band_from_feedback(feedback)
        feedback_exact = (
            transmitter_band.start_bin == receiver_band.start_bin
            and transmitter_band.end_bin == receiver_band.end_bin
        )
        return receiver_band, True, feedback_exact, transmitter_band, min_band_snr

    def _failed_result(
        self,
        payload: np.ndarray,
        preamble_detected: bool,
        receiver_band: BandSelection | None = None,
        feedback_ok: bool = False,
        feedback_exact: bool = False,
        min_band_snr: float = float("nan"),
        detection_metric: float = 0.0,
    ) -> PacketResult:
        coded_bits = self.modem.decoder.coded_reference_bits(payload)
        bitrate = (
            self.modem.bitrate_for_band(receiver_band) if receiver_band is not None else float("nan")
        )
        return PacketResult(
            delivered=False,
            preamble_detected=preamble_detected,
            feedback_ok=feedback_ok,
            feedback_exact=feedback_exact,
            receiver_band=receiver_band,
            transmitter_band=None,
            bit_errors=int(payload.size),
            num_payload_bits=int(payload.size),
            coded_bit_errors=int(coded_bits.size),
            num_coded_bits=int(coded_bits.size),
            coded_bitrate_bps=bitrate,
            min_band_snr_db=min_band_snr,
            detection_metric=detection_metric,
        )

    def run_packets(self, num_packets: int) -> LinkStatistics:
        """Run ``num_packets`` exchanges, one :meth:`run_packet` call each.

        The protocol is sequential (each packet's channel state depends on
        the previous one), so this is a plain per-packet loop.  What makes
        later packets cheap is per-session state cached on first use -- the
        preamble+header waveform, the silence gap, the preamble template's
        conjugate spectrum and the channel transfer-function spectra --
        which every packet of the session reuses.

        This is the entry point :meth:`repro.experiments.Scenario.run` (and
        so the experiment runner) and
        :func:`repro.net.links.calibrate_from_phy` drive.
        """
        if num_packets <= 0:
            raise ValueError("num_packets must be positive")
        stats = LinkStatistics()
        for _ in range(num_packets):
            stats.add(self.run_packet(rng=self._rng))
        return stats

    # --------------------------------------------------------------- probing
    def probe_channel_stability(self) -> float:
        """Return the Fig. 16 stability metric for one probe.

        Alice transmits a preamble; Bob selects a band from it; Alice then
        transmits a *second* preamble (after the feedback interval) and Bob
        computes the minimum SNR inside the previously selected band using
        that second preamble.  Low values mean the channel changed enough
        that the selected band now contains weak subcarriers.
        """
        rng = self._rng
        modem = self.modem
        header = modem.preamble_generator.waveform()

        first = self.forward_channel.transmit(header, rng)
        received_first = modem.filter_received(first.samples)
        detection_first = modem.detect_preamble(received_first)
        if not detection_first.detected:
            return float("nan")
        estimate_first = modem.estimate_snr(received_first, detection_first.start_index)
        band = modem.select_band(estimate_first)

        second = self.forward_channel.transmit(header, rng)
        received_second = modem.filter_received(second.samples)
        detection_second = modem.detect_preamble(received_second)
        if not detection_second.detected:
            return float("nan")
        estimate_second = modem.estimate_snr(received_second, detection_second.start_index)
        in_band = estimate_second.snr_for_band(band.start_bin, band.end_bin)
        return float(np.min(in_band)) if in_band.size else float("nan")
