"""Forward error correction substrate.

The paper uses a rate-2/3 convolutional code with constraint length 7
followed by bit interleaving across OFDM subcarriers.  We implement the
standard approach of puncturing the (133, 171) octal rate-1/2 mother code
(the same code family used by GSM and satellite systems cited in the
paper) down to rate 2/3 and decoding with a Viterbi decoder that treats
punctured positions as erasures.
"""

from repro.fec.convolutional import (
    ConvolutionalCode,
    PuncturedConvolutionalCode,
    Trellis,
    hard_bits_to_soft,
    trellis_tables,
)
from repro.fec.interleaver import SubcarrierInterleaver

__all__ = [
    "ConvolutionalCode",
    "PuncturedConvolutionalCode",
    "SubcarrierInterleaver",
    "Trellis",
    "hard_bits_to_soft",
    "trellis_tables",
]
