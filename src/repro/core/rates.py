"""Bitrate and airtime accounting.

The paper reports the "selected coded bitrate" of a packet, which is the
information rate implied by the selected band: the number of selected
subcarriers times the subcarrier spacing times the 2/3 code rate.  With 60
subcarriers at 50 Hz spacing that is 2 kbps nominal (about 1.8 kbps once
the ~7 % cyclic-prefix overhead is included), and the medians quoted in the
evaluation (133.3 bps, 633.3 bps, ...) are exact multiples of
``50 * 2/3 = 33.3 bps`` per subcarrier.
"""

from __future__ import annotations

from repro.core.adaptation import BandSelection
from repro.core.config import CODE_RATE, NUM_PREAMBLE_SYMBOLS, OFDMConfig

#: Silent symbol slots the transmitter waits for feedback after the header.
SILENCE_SYMBOLS = 2


def coded_bitrate_bps(num_bins: int, config: OFDMConfig | None = None) -> float:
    """Return the coded (information) bitrate for a band of ``num_bins``.

    This is the rate the paper's bitrate CDFs quote; it leaves out the
    cyclic-prefix overhead (on air, the full band carries about 1.8 kbps).
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    config = config or OFDMConfig()
    return num_bins * config.subcarrier_spacing_hz * CODE_RATE


def bitrate_for_selection(
    selection: BandSelection, config: OFDMConfig | None = None
) -> float:
    """Return the coded bitrate implied by a band selection."""
    return coded_bitrate_bps(selection.num_bins, config)


def packet_airtime_s(num_payload_bits: int, num_bins: int) -> float:
    """Return the total airtime of one protocol exchange in seconds.

    This accounts for the preamble, the receiver-ID symbol, the two silent
    symbols while waiting for feedback, the feedback symbol, the training
    symbol and the data symbols -- i.e. the full sequence of Fig. 5, in
    the paper's configuration.
    """
    import numpy as np

    config = OFDMConfig()
    coded_bits = int(np.ceil(num_payload_bits / CODE_RATE))
    data_symbols = int(np.ceil(coded_bits / max(num_bins, 1)))
    total_symbols = (
        NUM_PREAMBLE_SYMBOLS           # preamble
        + 1                            # receiver ID symbol
        + SILENCE_SYMBOLS              # silence while waiting for feedback
        + 1                            # feedback from the receiver
        + 1                            # training symbol
        + data_symbols
    )
    return total_symbols * config.extended_symbol_duration_s


def message_latency_s(
    num_message_bits: int,
    bitrate_bps: float,
) -> float:
    """Return the time to send an application message at a given bitrate.

    Used by the discussion-section latency figures (an 8-bit hand-signal
    message takes about half a second at 25 bps; a 50-character message
    about half a second at 1 kbps).
    """
    if bitrate_bps <= 0:
        raise ValueError("bitrate_bps must be positive")
    if num_message_bits <= 0:
        raise ValueError("num_message_bits must be positive")
    return num_message_bits / bitrate_bps
