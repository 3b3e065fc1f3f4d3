"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.app.codec import MessageCodec
from repro.core.adaptation import select_frequency_band
from repro.core.config import OFDMConfig, ProtocolConfig
from repro.core.feedback import FeedbackCodec
from repro.core.ofdm import OFDMModulator
from repro.core.tones import ToneCodec
from repro.dsp.sequences import zadoff_chu
from repro.fec.convolutional import PuncturedConvolutionalCode
from repro.fec.interleaver import SubcarrierInterleaver
from repro.utils.units import power_ratio_to_db


CONFIG = OFDMConfig()
PROTOCOL = ProtocolConfig()
CODE = PuncturedConvolutionalCode()
TONE_CODEC = ToneCodec()
FEEDBACK_CODEC = FeedbackCodec()
MODULATOR = OFDMModulator(CONFIG)
MESSAGE_CODEC = MessageCodec()

_examples = settings(max_examples=25)


# ----------------------------------------------------------------- units
@given(st.floats(min_value=-120.0, max_value=120.0))
def test_db_power_roundtrip_property(db):
    assert power_ratio_to_db(10.0 ** (db / 10.0)) == pytest.approx(db, abs=1e-6)


# ------------------------------------------------------------------- FEC
@_examples
@given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
def test_convolutional_code_roundtrip_property(bits):
    if len(bits) % 2 == 1:
        bits = bits + [0]
    coded = CODE.encode(bits)
    assert coded.size == CODE.coded_length(len(bits))
    decoded = CODE.decode(coded, num_data_bits=len(bits))
    np.testing.assert_array_equal(decoded, np.asarray(bits))


@_examples
@given(st.lists(st.integers(0, 1), min_size=16, max_size=16),
       st.integers(min_value=0, max_value=15))
def test_single_coded_bit_flip_is_corrected(bits, flip_position):
    """Early coded-bit flips are always corrected by the unterminated code.

    (Flips in the final constraint length of an unterminated stream have
    weaker protection.)
    """
    coded = CODE.encode(bits).astype(float)
    coded[flip_position] = 1.0 - coded[flip_position]
    decoded = CODE.decode(coded, num_data_bits=16)
    np.testing.assert_array_equal(decoded, np.asarray(bits))


# ------------------------------------------------------------ interleaver
@_examples
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=200))
def test_interleaver_roundtrip_property(bins, num_bits):
    interleaver = SubcarrierInterleaver(bins)
    rng = np.random.default_rng(num_bits)
    bits = rng.integers(0, 2, num_bits)
    grid = interleaver.interleave(bits)
    assert grid.shape[0] == interleaver.num_symbols(num_bits)
    recovered = interleaver.deinterleave(grid, num_bits)
    np.testing.assert_array_equal(recovered, bits)


@given(st.integers(min_value=1, max_value=60))
def test_interleaver_order_is_permutation_property(bins):
    first_symbol = SubcarrierInterleaver(bins).interleave(np.arange(bins))[0]
    assert sorted(first_symbol.tolist()) == list(range(bins))


# ------------------------------------------------------------- adaptation
@_examples
@given(st.lists(st.floats(min_value=-20.0, max_value=40.0),
                min_size=60, max_size=60))
def test_band_selection_invariants_property(snr_values):
    snr = np.array(snr_values)
    band = select_frequency_band(snr, CONFIG, PROTOCOL)
    # Invariants: contiguity, bounds, and the SNR constraint when satisfied.
    assert CONFIG.first_data_bin <= band.start_bin <= band.end_bin <= CONFIG.last_data_bin
    assert band.num_bins == band.end_bin - band.start_bin + 1
    if band.satisfied:
        bonus = PROTOCOL.conservative_lambda * 10.0 * np.log10(60 / band.num_bins)
        selected = snr[band.start_offset:band.end_offset + 1]
        assert np.all(selected + bonus > PROTOCOL.snr_threshold_db)


@_examples
@given(st.lists(st.floats(min_value=-20.0, max_value=40.0),
                min_size=60, max_size=60))
def test_band_selection_maximality_property(snr_values):
    """No strictly wider window may satisfy the constraint."""
    snr = np.array(snr_values)
    band = select_frequency_band(snr, CONFIG, PROTOCOL)
    if not band.satisfied or band.num_bins == 60:
        return
    wider = band.num_bins + 1
    bonus = PROTOCOL.conservative_lambda * 10.0 * np.log10(60 / wider)
    windows = np.lib.stride_tricks.sliding_window_view(snr, wider)
    assert not np.any(windows.min(axis=1) + bonus > PROTOCOL.snr_threshold_db)


# ---------------------------------------------------------------- OFDM / tones
@_examples
@given(st.integers(min_value=0, max_value=59))
def test_tone_codec_roundtrip_property(device_id):
    symbol = TONE_CODEC.encode_id(device_id)
    assert TONE_CODEC.decode(symbol).value == device_id


@_examples
@given(st.integers(min_value=20, max_value=79), st.integers(min_value=20, max_value=79))
def test_feedback_roundtrip_property(bin_a, bin_b):
    # Adjacent end bins are indistinguishable from spectral leakage and are
    # excluded by the decoder design; equal bins (single-tone feedback) and
    # all other separations must round-trip exactly.
    assume(abs(bin_a - bin_b) != 1)
    symbol = FEEDBACK_CODEC.encode(bin_a, bin_b)
    padded = np.concatenate([np.zeros(100), symbol, np.zeros(1200)])
    result = FEEDBACK_CODEC.decode(padded)
    assert result.found
    assert result.start_bin == min(bin_a, bin_b)
    assert result.end_bin == max(bin_a, bin_b)


@_examples
@given(st.integers(min_value=1, max_value=60))
def test_ofdm_power_normalization_property(num_bins):
    bins = CONFIG.data_bins[:num_bins]
    values = np.ones(num_bins, dtype=complex)
    symbol = MODULATOR.modulate(values, bins, add_cyclic_prefix=False)
    assert np.mean(symbol ** 2) == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------- sequences
@given(st.integers(min_value=2, max_value=128), st.integers(min_value=1, max_value=64))
def test_zadoff_chu_constant_amplitude_property(length, root):
    seq = zadoff_chu(length, root)
    assert seq.size == length
    np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-10)


# ------------------------------------------------------------------- codec
@_examples
@given(st.integers(min_value=0, max_value=239),
       st.integers(min_value=0, max_value=239))
def test_message_codec_roundtrip_property(first, second):
    bits = MESSAGE_CODEC.encode_ids([first, second])
    assert bits.size == 16
    assert MESSAGE_CODEC.decode_ids(bits) == [first, second]


@_examples
@given(st.lists(st.integers(0, 239), min_size=1, max_size=2))
def test_message_codec_roundtrip_any_slot_count_property(ids):
    # One-message packets pad the second slot with the reserved empty
    # value, which must vanish again on decode.  (Id 255 itself is the
    # empty marker and excluded from the catalog range by construction.)
    decoded = MESSAGE_CODEC.decode_ids(MESSAGE_CODEC.encode_ids(ids))
    assert decoded == ids


# ----------------------------------------------------- randomized round trips
# Parametrized fuzzing: every seed draws fresh random lengths and payloads,
# and every round trip must be bit-exact -- these are the noiseless
# ("infinite SNR") recovery guarantees the validation harness leans on.

@pytest.mark.parametrize("seed", range(5))
def test_fec_roundtrip_fuzz(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        # The rate-2/3 puncturing works on bit pairs, so lengths are even.
        n = 2 * int(rng.integers(1, 60))
        bits = rng.integers(0, 2, n)
        decoded = CODE.decode(CODE.encode(bits), num_data_bits=n)
        np.testing.assert_array_equal(decoded, bits, err_msg=f"seed={seed} n={n}")


@_examples
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31 - 1))
def test_ofdm_modulate_demodulate_roundtrip_property(num_bins, seed):
    """BPSK values survive modulate_many -> demodulate_many sign-exactly."""
    rng = np.random.default_rng(seed)
    bins = CONFIG.data_bins[:num_bins]
    num_symbols = int(rng.integers(1, 5))
    values = rng.choice([-1.0, 1.0], size=(num_symbols, num_bins)).astype(complex)
    symbols = MODULATOR.modulate_many(values, bins, add_cyclic_prefix=True)
    recovered = MODULATOR.demodulate_many(
        symbols.ravel(), num_symbols, bins, has_cyclic_prefix=True
    )
    assert recovered.shape == values.shape
    # Power normalization scales each symbol; signs (the information) must
    # be recovered exactly and imaginary leakage stay at FFT rounding level.
    assert np.all(np.sign(recovered.real) == values.real)
    assert np.max(np.abs(recovered.imag)) < 1e-9 * np.max(np.abs(recovered.real))


@given(st.integers(min_value=1, max_value=60))
def test_ofdm_single_symbol_matches_batch_property(num_bins):
    rng = np.random.default_rng(num_bins)
    bins = CONFIG.data_bins[:num_bins]
    values = rng.choice([-1.0, 1.0], size=num_bins).astype(complex)
    single = MODULATOR.modulate(values, bins, add_cyclic_prefix=True)
    batch = MODULATOR.modulate_many(values[None, :], bins, add_cyclic_prefix=True)
    np.testing.assert_array_equal(single, batch[0])


def _random_band(rng):
    from repro.core.adaptation import selection_from_bins

    start = int(rng.integers(CONFIG.first_data_bin, CONFIG.last_data_bin + 1))
    end = int(rng.integers(start, CONFIG.last_data_bin + 1))
    return selection_from_bins(start, end, CONFIG)


@pytest.mark.parametrize("seed", range(4))
def test_data_pipeline_roundtrip_fuzz(seed):
    """encode -> decode over a clean channel is bit-exact for random
    payload lengths and random bands (the high-SNR recovery guarantee)."""
    from repro.core.coding import DataDecoder, DataEncoder

    encoder = DataEncoder(CONFIG)
    decoder = DataDecoder(CONFIG)
    rng = np.random.default_rng(2000 + seed)
    for _ in range(3):
        n = int(rng.integers(1, 41))
        payload = rng.integers(0, 2, n)
        band = _random_band(rng)
        packet = encoder.encode(payload, band)
        decoded = decoder.decode(packet.waveform, band, n, apply_bandpass=False)
        np.testing.assert_array_equal(
            decoded.bits, payload,
            err_msg=f"seed={seed} n={n} band=({band.start_bin},{band.end_bin})",
        )
        # The coded stream itself must also be error-free on a clean link.
        np.testing.assert_array_equal(
            decoded.hard_coded_bits, encoder._code.encode(payload)
        )


@pytest.mark.parametrize("use_differential", [True, False])
@pytest.mark.parametrize("use_interleaving", [True, False])
@pytest.mark.parametrize("use_equalizer", [True, False])
def test_data_pipeline_roundtrip_all_toggles(use_differential, use_interleaving,
                                             use_equalizer):
    """Every ablation combination (Fig. 14 / Table 2 knobs) round-trips."""
    from repro.core.coding import DataDecoder, DataEncoder

    encoder = DataEncoder(CONFIG, use_differential=use_differential,
                          use_interleaving=use_interleaving)
    decoder = DataDecoder(CONFIG, use_differential=use_differential,
                          use_interleaving=use_interleaving,
                          use_equalizer=use_equalizer)
    rng = np.random.default_rng(17)
    payload = rng.integers(0, 2, 16)
    band = _random_band(rng)
    packet = encoder.encode(payload, band)
    decoded = decoder.decode(packet.waveform, band, 16, apply_bandpass=False)
    np.testing.assert_array_equal(decoded.bits, payload)


@pytest.mark.parametrize("seed", range(3))
def test_message_to_waveform_roundtrip_fuzz(seed):
    """The full application chain: message ids -> payload bits -> FEC ->
    OFDM waveform -> decode -> message ids, bit-exact on a clean link."""
    from repro.core.coding import DataDecoder, DataEncoder

    encoder = DataEncoder(CONFIG)
    decoder = DataDecoder(CONFIG)
    rng = np.random.default_rng(3000 + seed)
    ids = [int(v) for v in rng.integers(0, 240, rng.integers(1, 3))]
    payload = MESSAGE_CODEC.encode_ids(ids)
    band = _random_band(rng)
    packet = encoder.encode(payload, band)
    decoded = decoder.decode(packet.waveform, band, payload.size,
                             apply_bandpass=False)
    assert MESSAGE_CODEC.decode_ids(decoded.bits) == ids
