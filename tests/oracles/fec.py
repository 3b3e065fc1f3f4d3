"""Loop-based reference encoder and Viterbi decoder.

The production decoder in :mod:`repro.fec.convolutional` is fully
vectorized; this module keeps a per-state/per-bit Python loop
implementation as an executable specification.  The golden equivalence
tests assert the two produce bit-identical decisions for every input
class (hard, soft, erasures, punctured).
"""

from __future__ import annotations

import numpy as np

from repro.fec.convolutional import (
    ConvolutionalCode,
    PuncturedConvolutionalCode,
    hard_bits_to_soft,
)


def reference_encode(code: ConvolutionalCode, bits: np.ndarray | list[int]) -> np.ndarray:
    """Encode ``bits`` by stepping the shift register one input bit at a time."""
    data = np.asarray(bits, dtype=int).ravel()
    if data.size and not np.all((data == 0) | (data == 1)):
        raise ValueError("bits must contain only 0s and 1s")
    state = 0
    out = np.empty(data.size * code.num_outputs, dtype=int)
    for i, bit in enumerate(data):
        out[i * code.num_outputs:(i + 1) * code.num_outputs] = code._outputs[state, bit]
        state = code._next_state[state, bit]
    return out


def reference_decode(
    code: ConvolutionalCode,
    soft_bits: np.ndarray | list[float],
    num_data_bits: int | None = None,
) -> np.ndarray:
    """Viterbi-decode with explicit per-state add-compare-select loops.

    Mirrors :meth:`ConvolutionalCode.decode` exactly, including the
    first-wins tie-breaking rule (a later branch must be *strictly* better
    to replace the survivor).
    """
    soft = np.asarray(soft_bits, dtype=float).ravel()
    if soft.size % code.num_outputs != 0:
        raise ValueError(
            f"coded stream length {soft.size} is not a multiple of {code.num_outputs}"
        )
    soft = hard_bits_to_soft(soft)
    num_steps = soft.size // code.num_outputs
    if num_steps == 0:
        return np.array([], dtype=int)
    if num_data_bits is None:
        num_data_bits = num_steps
    if num_data_bits < 0 or num_data_bits > num_steps:
        raise ValueError("num_data_bits inconsistent with coded stream length")

    observations = soft.reshape(num_steps, code.num_outputs)
    path_metric = np.full(code.num_states, -np.inf)
    path_metric[0] = 0.0
    decisions = np.zeros((num_steps, code.num_states), dtype=np.int8)
    predecessors = np.zeros((num_steps, code.num_states), dtype=np.int32)

    expected = code._outputs.astype(float) * 2.0 - 1.0  # (state, bit, output)
    for step in range(num_steps):
        obs = observations[step]
        valid = ~np.isnan(obs)
        new_metric = np.full(code.num_states, -np.inf)
        new_decision = np.zeros(code.num_states, dtype=np.int8)
        new_pred = np.zeros(code.num_states, dtype=np.int32)
        if valid.any():
            branch = np.tensordot(expected[:, :, valid], obs[valid], axes=([2], [0]))
        else:
            branch = np.zeros((code.num_states, 2))
        for state in range(code.num_states):
            metric_here = path_metric[state]
            if metric_here == -np.inf:
                continue
            for bit in (0, 1):
                nxt = code._next_state[state, bit]
                candidate = metric_here + branch[state, bit]
                if candidate > new_metric[nxt]:
                    new_metric[nxt] = candidate
                    new_decision[nxt] = bit
                    new_pred[nxt] = state
        path_metric = new_metric
        decisions[step] = new_decision
        predecessors[step] = new_pred

    state = int(np.argmax(path_metric))
    decoded = np.zeros(num_steps, dtype=int)
    for step in range(num_steps - 1, -1, -1):
        decoded[step] = decisions[step, state]
        state = predecessors[step, state]
    return decoded[:num_data_bits]


def reference_punctured_decode(
    code: PuncturedConvolutionalCode,
    soft_bits: np.ndarray | list[float],
    num_data_bits: int,
) -> np.ndarray:
    """Depuncture and decode with the reference loop decoder."""
    soft = np.asarray(soft_bits, dtype=float).ravel()
    expected = code.coded_length(num_data_bits)
    if soft.size != expected:
        raise ValueError(
            f"expected {expected} coded bits for {num_data_bits} data bits, got {soft.size}"
        )
    soft = hard_bits_to_soft(soft)
    mask = code._puncture_mask(num_data_bits)
    depunctured = np.full(mask.size, np.nan)
    depunctured[mask] = soft
    return reference_decode(code.mother, depunctured, num_data_bits=num_data_bits)
