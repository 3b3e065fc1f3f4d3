"""The :class:`AquaModem`: the public entry point to the modem.

An :class:`AquaModem` bundles the preamble generator/detector, SNR
estimator, band-adaptation algorithm, feedback codec, tone codec and the
data encoder/decoder behind one object so that application code (and the
link-layer simulator) can drive a packet exchange with a handful of calls:

Transmitter (Alice)                      Receiver (Bob)
-------------------                      --------------
``build_preamble_and_header(bob_id)`` →  ``detect_preamble`` /
                                         ``estimate_snr`` /
                                         ``select_band``
``decode_feedback``                   ←  ``build_feedback``
``encode_data(bits, band)``           →  ``decode_data``
``decode_ack``                        ←  ``build_ack``

The modem is stateless between calls; every method takes and returns plain
arrays and small dataclasses, which keeps it easy to test and to run many
independent simulated exchanges in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import BandSelection, select_frequency_band, selection_from_bins
from repro.core.coding import DataDecoder, DataEncoder, DecodedPacket, EncodedPacket
from repro.core.config import (
    ACK_DOMINANCE_THRESHOLD,
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    SAMPLE_RATE_HZ,
    OFDMConfig,
    ProtocolConfig,
)
from repro.core.feedback import FeedbackCodec, FeedbackDecodeResult
from repro.core.preamble import PreambleDetection, PreambleDetector, PreambleGenerator
from repro.core.rates import bitrate_for_selection
from repro.core.snr import ChannelEstimate, estimate_channel_and_snr
from repro.core.tones import ToneCodec, ToneDecodeResult
from repro.dsp.filters import FIRBandpassFilter


@dataclass(frozen=True)
class PreambleHeader:
    """The transmitted preamble plus receiver-ID header symbol.

    Attributes
    ----------
    waveform:
        Preamble followed by the ID symbol, ready for transmission.
    preamble_length:
        Number of samples belonging to the preamble.
    receiver_id:
        Address the header carries.
    """

    waveform: np.ndarray
    preamble_length: int
    receiver_id: int


class AquaModem:
    """Software acoustic modem for underwater messaging on mobile devices."""

    def __init__(
        self,
        ofdm_config: OFDMConfig | None = None,
        protocol_config: ProtocolConfig | None = None,
        use_differential: bool = True,
        use_interleaving: bool = True,
        use_equalizer: bool = True,
    ) -> None:
        self.ofdm_config = ofdm_config or OFDMConfig()
        self.protocol_config = protocol_config or ProtocolConfig()
        self.preamble_generator = PreambleGenerator(self.ofdm_config)
        self.preamble_detector = PreambleDetector(self.preamble_generator)
        self.feedback_codec = FeedbackCodec(self.ofdm_config)
        self.tone_codec = ToneCodec(self.ofdm_config)
        self.encoder = DataEncoder(
            self.ofdm_config,
            use_differential=use_differential,
            use_interleaving=use_interleaving,
        )
        self.decoder = DataDecoder(
            self.ofdm_config,
            use_differential=use_differential,
            use_interleaving=use_interleaving,
            use_equalizer=use_equalizer,
        )
        self.bandpass = FIRBandpassFilter(BAND_LOW_HZ, BAND_HIGH_HZ, SAMPLE_RATE_HZ)

    # --------------------------------------------------------------- transmit
    def build_preamble_and_header(self, receiver_id: int) -> PreambleHeader:
        """Return the preamble followed by the receiver-ID symbol."""
        preamble = self.preamble_generator.waveform()
        header = self.tone_codec.encode_id(receiver_id)
        return PreambleHeader(
            waveform=np.concatenate([preamble, header]),
            preamble_length=preamble.size,
            receiver_id=int(receiver_id),
        )

    def encode_data(self, payload_bits: np.ndarray, band: BandSelection) -> EncodedPacket:
        """Encode payload bits for transmission in the selected band."""
        return self.encoder.encode(payload_bits, band)

    def build_feedback(self, band: BandSelection) -> np.ndarray:
        """Return the feedback symbol announcing a selected band."""
        return self.feedback_codec.encode(band.start_bin, band.end_bin)

    def build_ack(self) -> np.ndarray:
        """Return the ACK symbol."""
        return self.tone_codec.encode_ack()

    # ---------------------------------------------------------------- receive
    def filter_received(self, received: np.ndarray) -> np.ndarray:
        """Apply the receiver's 1-4 kHz FIR band-pass filter."""
        return self.bandpass.apply(received)

    def detect_preamble(self, received: np.ndarray) -> PreambleDetection:
        """Run the two-stage preamble detector on received audio."""
        return self.preamble_detector.detect(received)

    def decode_header(self, received: np.ndarray, preamble_start: int) -> ToneDecodeResult:
        """Decode the receiver-ID symbol that follows the preamble."""
        start = preamble_start + self.preamble_generator.total_length
        stop = start + self.ofdm_config.extended_symbol_length
        if stop > received.size:
            raise ValueError("received buffer ends before the header symbol")
        return self.tone_codec.decode(received[start:stop])

    def estimate_snr(self, received: np.ndarray, preamble_start: int) -> ChannelEstimate:
        """Estimate per-subcarrier SNR from a detected preamble."""
        symbols = self.preamble_detector.extract_symbols(received, preamble_start)
        return estimate_channel_and_snr(
            symbols, self.preamble_generator.reference_bin_values, self.ofdm_config
        )

    def select_band(self, estimate: ChannelEstimate) -> BandSelection:
        """Run the frequency band adaptation algorithm on an SNR estimate."""
        return select_frequency_band(estimate.snr_db, self.ofdm_config, self.protocol_config)

    def decode_feedback(self, received: np.ndarray) -> FeedbackDecodeResult:
        """Decode the two-tone feedback symbol at the original transmitter."""
        return self.feedback_codec.decode(received)

    def band_from_feedback(self, feedback: FeedbackDecodeResult) -> BandSelection:
        """Convert a decoded feedback result into a band selection."""
        if not feedback.found:
            raise ValueError("cannot build a band from an undetected feedback symbol")
        return selection_from_bins(feedback.start_bin, feedback.end_bin, self.ofdm_config)

    def decode_data(
        self,
        received: np.ndarray,
        band: BandSelection,
        num_payload_bits: int | None = None,
        apply_bandpass: bool = True,
    ) -> DecodedPacket:
        """Decode a data burst (training + data symbols) for a known band."""
        bits = num_payload_bits if num_payload_bits is not None else self.protocol_config.payload_bits
        return self.decoder.decode(received, band, bits, apply_bandpass=apply_bandpass)

    def decode_ack(self, received_symbol: np.ndarray) -> bool:
        """Return whether the received single-tone symbol is an ACK."""
        result = self.tone_codec.decode(received_symbol)
        return result.is_ack and result.dominance > ACK_DOMINANCE_THRESHOLD

    # ------------------------------------------------------------- accounting
    def bitrate_for_band(self, band: BandSelection) -> float:
        """Coded bitrate implied by a selected band (bps)."""
        return bitrate_for_selection(band, self.ofdm_config)
