"""Low-rate FSK SoS beacon mode (paper section 3, "longer ranges").

For ranges beyond what the OFDM mode can reach (the paper demonstrates
113 m) the system falls back to binary frequency-shift keying: a 0 bit is a
single tone at ``f0``, a 1 bit a single tone at ``f1``, with symbol
durations of 200, 100 or 50 ms giving 5, 10 or 20 bps.  A 6-bit user ID
forms an SoS beacon; an 8-bit hand-signal message can also be carried and
takes about a second at these rates.

Decoding is non-coherent: per symbol, the energy at the two candidate
frequencies (measured with the Goertzel algorithm) is compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SAMPLE_RATE_HZ
from repro.utils.validation import require_one_of

#: Bit rates supported by the beacon mode and their symbol durations.
SUPPORTED_RATES_BPS: tuple[int, ...] = (5, 10, 20)


def _goertzel_power(samples: np.ndarray, frequency_hz: float, sample_rate_hz: float) -> float:
    """Return the power of ``samples`` at a single frequency (Goertzel)."""
    n = samples.size
    k = int(round(frequency_hz * n / sample_rate_hz))
    omega = 2.0 * np.pi * k / n
    coeff = 2.0 * np.cos(omega)
    s_prev = 0.0
    s_prev2 = 0.0
    for sample in samples:
        s = sample + coeff * s_prev - s_prev2
        s_prev2 = s_prev
        s_prev = s
    power = s_prev2 ** 2 + s_prev ** 2 - coeff * s_prev * s_prev2
    return float(power) / (n * n)


@dataclass(frozen=True)
class BeaconDecodeResult:
    """Result of decoding an FSK beacon transmission.

    Attributes
    ----------
    bits:
        The decoded bit values.
    confidence:
        Per-bit ratio between the stronger and weaker tone energies (in
        dB); large values mean confident decisions.
    """

    bits: np.ndarray
    confidence: np.ndarray


class FSKBeacon:
    """Binary FSK encoder/decoder for SoS beacons and low-rate messages."""

    #: Tone of a 0 bit and of a 1 bit (Hz), inside the phones' 1.5-4 kHz band.
    F0_HZ = 2000.0
    F1_HZ = 3000.0

    def __init__(self, bit_rate_bps: int = 10) -> None:
        require_one_of(bit_rate_bps, SUPPORTED_RATES_BPS, "bit_rate_bps")
        self.bit_rate_bps = int(bit_rate_bps)

    @property
    def symbol_duration_s(self) -> float:
        """Duration of one FSK symbol in seconds."""
        return 1.0 / self.bit_rate_bps

    @property
    def samples_per_symbol(self) -> int:
        """Number of audio samples per FSK symbol."""
        return int(round(SAMPLE_RATE_HZ / self.bit_rate_bps))

    def encode(self, bits: np.ndarray | list[int]) -> np.ndarray:
        """Return the FSK waveform for ``bits``."""
        bits = np.asarray(bits, dtype=int).ravel()
        if bits.size == 0:
            raise ValueError("bits must be non-empty")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be 0 or 1")
        n = self.samples_per_symbol
        t = np.arange(n) / SAMPLE_RATE_HZ
        # Unit RMS: the beacon uses the same average transmit power as the
        # OFDM mode (whose symbols are normalized to unit mean power).
        peak = np.sqrt(2.0)
        tone0 = peak * np.sin(2.0 * np.pi * self.F0_HZ * t)
        tone1 = peak * np.sin(2.0 * np.pi * self.F1_HZ * t)
        return np.concatenate([tone1 if bit else tone0 for bit in bits])

    def encode_sos(self, user_id: int) -> np.ndarray:
        """Encode a 6-bit user ID as an SoS beacon."""
        if not 0 <= user_id < 64:
            raise ValueError(f"user_id must fit in 6 bits, got {user_id}")
        bits = [(user_id >> (5 - i)) & 1 for i in range(6)]
        return self.encode(bits)

    def decode(self, received: np.ndarray, num_bits: int) -> BeaconDecodeResult:
        """Decode ``num_bits`` FSK symbols from ``received``."""
        received = np.asarray(received, dtype=float).ravel()
        n = self.samples_per_symbol
        if received.size < n * num_bits:
            raise ValueError(
                f"received waveform too short for {num_bits} bits at {self.bit_rate_bps} bps"
            )
        bits = np.empty(num_bits, dtype=int)
        confidence = np.empty(num_bits, dtype=float)
        for i in range(num_bits):
            frame = received[i * n:(i + 1) * n]
            p0 = _goertzel_power(frame, self.F0_HZ, SAMPLE_RATE_HZ)
            p1 = _goertzel_power(frame, self.F1_HZ, SAMPLE_RATE_HZ)
            bits[i] = 1 if p1 > p0 else 0
            stronger, weaker = (p1, p0) if p1 > p0 else (p0, p1)
            confidence[i] = 10.0 * np.log10(max(stronger, 1e-30) / max(weaker, 1e-30))
        return BeaconDecodeResult(bits=bits, confidence=confidence)

    def decode_sos(self, received: np.ndarray) -> tuple[int, BeaconDecodeResult]:
        """Decode a 6-bit SoS beacon, returning ``(user_id, result)``."""
        result = self.decode(received, 6)
        user_id = 0
        for bit in result.bits:
            user_id = (user_id << 1) | int(bit)
        return user_id, result
