"""Convolutional coding and Viterbi decoding.

The mother code is the ubiquitous constraint-length-7, rate-1/2 code with
generator polynomials 133 and 171 (octal).  Rate 2/3 is obtained with the
standard puncturing pattern ``[[1, 1], [1, 0]]``: for every two input bits
the four mother-code output bits are transmitted except the second output
of the second bit.  The decoder runs a hard/soft-decision Viterbi algorithm
and treats punctured positions as erasures (zero branch-metric
contribution).

The mother code runs unterminated: no tail bits flush the encoder, and
the decoder traces back from the best final state.  That is how the
16-bit AquaApp packets become exactly the paper's 24 coded bits.

The decoder is fully vectorized: all branch metrics are computed up front
with one ``einsum`` over ``(steps, bits, states)`` and the add-compare-
select recursion exploits the trellis butterfly structure -- register
``r = (bit << (K-1)) | state`` maps to next state ``r >> 1``, so the two
branches entering each next state are adjacent in register order and one
``(2, num_states)`` broadcast add plus a pairwise maximum per step replaces
the per-state Python loops.  The test suite keeps the loop implementation
as its golden reference and checks bit-identical equivalence against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def _bits_array(bits: np.ndarray | list[int]) -> np.ndarray:
    arr = np.asarray(bits, dtype=int).ravel()
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must contain only 0s and 1s")
    return arr


def hard_bits_to_soft(values: np.ndarray | list[float]) -> np.ndarray:
    """Map hard 0/1 bits to antipodal -1/+1 soft values, NaN-preserving.

    Inputs whose finite entries are not all in ``{0, 1}`` are treated as
    genuine soft values and returned unchanged (as a float array).  ``NaN``
    entries mark erasures and stay ``NaN`` either way.
    """
    soft = np.asarray(values, dtype=float).ravel()
    finite = soft[~np.isnan(soft)]
    if finite.size == 0 or np.isin(finite, (0.0, 1.0)).all():
        soft = np.where(np.isnan(soft), np.nan, soft * 2.0 - 1.0)
    return soft


@dataclass(frozen=True)
class Trellis:
    """Precomputed trellis tables for one ``(constraint_length, polynomials)``.

    Attributes
    ----------
    next_state:
        ``(num_states, 2)`` next state for each (state, input bit).
    outputs:
        ``(num_states, 2, num_outputs)`` coded output bits per transition.
    register_outputs:
        ``(2 ** constraint_length, num_outputs)`` coded output bits indexed
        by the full shift register ``(bit << (K-1)) | state`` -- the
        table-driven lookup the vectorized encoder uses.
    expected_by_register:
        ``(2, num_states, num_outputs)`` antipodal (+/-1) expected outputs
        indexed ``[bit, state]``; flattening the leading two axes yields
        register order, which is what the butterfly ACS step consumes.
    """

    constraint_length: int
    polynomials: tuple[int, ...]
    next_state: np.ndarray
    outputs: np.ndarray
    register_outputs: np.ndarray
    expected_by_register: np.ndarray

    @property
    def num_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    @property
    def num_outputs(self) -> int:
        return len(self.polynomials)


_TRELLIS_CACHE: dict[tuple[int, tuple[int, ...]], Trellis] = {}


def trellis_tables(constraint_length: int, polynomials: tuple[int, ...]) -> Trellis:
    """Return the (module-wide cached) trellis tables for a code.

    Modem and codec construction happens per experiment -- sometimes per
    packet in sweep workers -- so the tables are built once per
    ``(constraint_length, polynomials)`` and shared by every code instance.
    """
    key = (int(constraint_length), tuple(int(p) for p in polynomials))
    cached = _TRELLIS_CACHE.get(key)
    if cached is not None:
        return cached
    k, polys = key
    num_states = 1 << (k - 1)
    num_outputs = len(polys)
    registers = np.arange(1 << k, dtype=np.int64)
    register_outputs = np.empty((1 << k, num_outputs), dtype=np.int8)
    for i, poly in enumerate(polys):
        masked = registers & poly
        # Parity of the masked register bits (popcount mod 2), vectorized.
        parity = masked
        shift = 1
        while shift < k:
            parity = parity ^ (parity >> shift)
            shift <<= 1
        register_outputs[:, i] = (parity & 1).astype(np.int8)
    # Register r = (bit << (K-1)) | state; next state is r >> 1.
    bit_axis = registers >> (k - 1)
    state_axis = registers & (num_states - 1)
    outputs = np.empty((num_states, 2, num_outputs), dtype=np.int8)
    outputs[state_axis, bit_axis] = register_outputs
    next_state = np.empty((num_states, 2), dtype=np.int32)
    next_state[state_axis, bit_axis] = (registers >> 1).astype(np.int32)
    expected_by_register = (
        register_outputs.astype(float).reshape(2, num_states, num_outputs) * 2.0 - 1.0
    )
    # The tables are shared by every code instance with this key; freeze them
    # so an accidental in-place edit cannot corrupt all future decodes.
    for table in (next_state, outputs, register_outputs, expected_by_register):
        table.setflags(write=False)
    trellis = Trellis(
        constraint_length=k,
        polynomials=polys,
        next_state=next_state,
        outputs=outputs,
        register_outputs=register_outputs,
        expected_by_register=expected_by_register,
    )
    _TRELLIS_CACHE[key] = trellis
    return trellis


class ConvolutionalCode:
    """Rate-1/(number of polynomials) convolutional code with Viterbi decoding.

    Parameters
    ----------
    constraint_length:
        Number of input bits influencing each output (memory + 1).
    polynomials:
        Generator polynomials given in octal-style integers; each produces
        one output stream per input bit.
    """

    def __init__(self, constraint_length: int, polynomials: tuple[int, ...]) -> None:
        if constraint_length < 2:
            raise ValueError("constraint_length must be at least 2")
        if len(polynomials) < 2:
            raise ValueError("need at least two generator polynomials")
        self.constraint_length = int(constraint_length)
        self.polynomials = tuple(int(p) for p in polynomials)
        self.num_outputs = len(self.polynomials)
        self.num_states = 1 << (self.constraint_length - 1)
        self._trellis = trellis_tables(self.constraint_length, self.polynomials)
        self._next_state = self._trellis.next_state
        self._outputs = self._trellis.outputs

    # ------------------------------------------------------------------ encode
    def encode(self, bits: np.ndarray | list[int]) -> np.ndarray:
        """Encode ``bits`` (unterminated) and return the coded bit stream."""
        data = _bits_array(bits)
        if data.size == 0:
            return np.array([], dtype=int)
        # The shift register at step i holds bits b[i-K+1..i]; building all
        # registers at once turns encoding into one sliding-window dot
        # product plus a table lookup.
        k = self.constraint_length
        padded = np.concatenate([np.zeros(k - 1, dtype=np.int64), data])
        windows = np.lib.stride_tricks.sliding_window_view(padded, k)
        registers = windows @ (1 << np.arange(k, dtype=np.int64))
        return self._trellis.register_outputs[registers].astype(int).ravel()

    # ------------------------------------------------------------------ decode
    def decode(
        self,
        soft_bits: np.ndarray | list[float],
        num_data_bits: int | None = None,
    ) -> np.ndarray:
        """Viterbi-decode a stream of soft coded bits.

        Parameters
        ----------
        soft_bits:
            Soft values in the range ``[-1, 1]`` where positive means "this
            coded bit is more likely a 1" (hard bits 0/1 are also accepted
            and mapped to -1/+1).  ``NaN`` marks an erasure (used for
            punctured positions).
        num_data_bits:
            Number of leading data bits to return (default: one per
            trellis step).
        """
        soft = np.asarray(soft_bits, dtype=float).ravel()
        if soft.size % self.num_outputs != 0:
            raise ValueError(
                f"coded stream length {soft.size} is not a multiple of {self.num_outputs}"
            )
        soft = hard_bits_to_soft(soft)
        num_steps = soft.size // self.num_outputs
        if num_steps == 0:
            return np.array([], dtype=int)
        if num_data_bits is None:
            num_data_bits = num_steps
        if num_data_bits < 0 or num_data_bits > num_steps:
            raise ValueError("num_data_bits inconsistent with coded stream length")

        # Branch metrics for every (step, input bit, state) at once:
        # correlation between expected antipodal outputs and received soft
        # values; erasures (NaN) contribute nothing.
        observations = soft.reshape(num_steps, self.num_outputs)
        observations = np.where(np.isnan(observations), 0.0, observations)
        branch = np.einsum(
            "bso,to->tbs", self._trellis.expected_by_register, observations
        )

        num_states = self.num_states
        shift = self.constraint_length - 1
        state_mask = num_states - 1
        path_metric = np.full(num_states, -np.inf)
        path_metric[0] = 0.0
        decisions = np.empty((num_steps, num_states), dtype=np.int8)
        # Add-compare-select via the butterfly structure: candidate metrics
        # in register order are path_metric[state] + branch[bit, state]
        # (one broadcast add); registers 2n and 2n+1 both enter next state
        # n, so a reshape to (num_states, 2) pairs the two competing
        # branches and the comparison picks the survivor.  Ties keep the
        # even register, matching the reference decoder's first-wins rule.
        for step in range(num_steps):
            candidates = (branch[step] + path_metric).reshape(num_states, 2)
            take_odd = candidates[:, 1] > candidates[:, 0]
            decisions[step] = take_odd
            path_metric = np.where(take_odd, candidates[:, 1], candidates[:, 0])

        # Trace back from the best final state.
        state = int(np.argmax(path_metric))
        survivors = decisions.tolist()
        decoded = np.empty(num_steps, dtype=int)
        for step in range(num_steps - 1, -1, -1):
            register = 2 * state + survivors[step][state]
            decoded[step] = register >> shift
            state = register & state_mask
        return decoded[:num_data_bits]


class PuncturedConvolutionalCode:
    """Rate-2/3 punctured convolutional code used by the AquaApp modem.

    Encoding 16 data bits produces 24 coded bits, matching the packet
    accounting in the paper ("16 bits, 24 bits after applying a 2/3
    convolutional code").  To hit exactly that ratio the code is used
    *unterminated* (the short 16-bit packets keep the error bursts bounded
    anyway).
    """

    #: Constraint length and generator polynomials (octal) of the
    #: rate-1/2 mother code.
    CONSTRAINT_LENGTH = 7
    POLYNOMIALS = (0o133, 0o171)

    #: Standard rate-2/3 puncturing pattern for the rate-1/2 mother code.
    PUNCTURE_PATTERN = ((1, 1), (1, 0))

    def __init__(self) -> None:
        self.mother = ConvolutionalCode(self.CONSTRAINT_LENGTH, self.POLYNOMIALS)
        pattern = np.asarray(self.PUNCTURE_PATTERN, dtype=int)
        if pattern.shape[1] != self.mother.num_outputs:
            raise ValueError("puncture pattern width must equal the number of outputs")
        self._pattern = pattern
        self._period = pattern.shape[0]
        self._kept_per_period = int(pattern.sum())

    def coded_length(self, num_data_bits: int) -> int:
        """Return the number of coded bits produced for ``num_data_bits``."""
        full_periods, remainder = divmod(num_data_bits, self._period)
        kept = full_periods * self._kept_per_period
        if remainder:
            kept += int(self._pattern[:remainder].sum())
        return kept

    def _puncture_mask(self, num_input_bits: int) -> np.ndarray:
        """Boolean mask over the mother-code output marking transmitted bits."""
        periods = -(-num_input_bits // self._period)
        tiled = np.tile(self._pattern.astype(bool), (periods, 1))
        return tiled[:num_input_bits].ravel()

    def encode(self, bits: np.ndarray | list[int]) -> np.ndarray:
        """Encode and puncture ``bits``, returning the transmitted coded bits."""
        data = _bits_array(bits)
        mother_out = self.mother.encode(data)
        return mother_out[self._puncture_mask(data.size)]

    def decode(self, soft_bits: np.ndarray | list[float], num_data_bits: int) -> np.ndarray:
        """Depuncture and Viterbi-decode ``soft_bits`` into ``num_data_bits`` bits."""
        soft = np.asarray(soft_bits, dtype=float).ravel()
        expected = self.coded_length(num_data_bits)
        if soft.size != expected:
            raise ValueError(
                f"expected {expected} coded bits for {num_data_bits} data bits, got {soft.size}"
            )
        soft = hard_bits_to_soft(soft)
        mask = self._puncture_mask(num_data_bits)
        depunctured = np.full(mask.size, np.nan)
        depunctured[mask] = soft
        return self.mother.decode(depunctured, num_data_bits=num_data_bits)
