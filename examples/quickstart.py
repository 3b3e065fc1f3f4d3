"""Quickstart: one adaptive packet exchange, step by step.

This example walks through the post-preamble feedback protocol (Fig. 5 of
the paper) between two simulated Galaxy S9 phones submerged 1 m deep and
5 m apart at the lake site, printing what each side does at every step:

1. Alice transmits the CAZAC preamble and Bob's ID.
2. Bob detects the preamble, estimates per-subcarrier SNR and selects the
   frequency band to use.
3. Bob feeds the band back as a two-tone OFDM symbol; Alice decodes it.
4. Alice encodes 16 payload bits (two hand-signal messages) inside the band
   and transmits; Bob equalizes, demodulates and Viterbi-decodes them.

It then reruns the same experiment declaratively through
:mod:`repro.experiments` -- the one-scenario version of how the figure
validation (``python -m repro.cli validate``) sweeps whole parameter
grids.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.app.codec import MessageCodec
from repro.app.messages import get_message
from repro.core.config import BAND_HIGH_HZ, BAND_LOW_HZ, SAMPLE_RATE_HZ
from repro.core.modem import AquaModem
from repro.environments import LAKE, build_link_pair
from repro.experiments import ExperimentRunner, Scenario, Sweep


def main() -> None:
    rng = np.random.default_rng(7)
    modem = AquaModem()
    config = modem.ofdm_config

    print("AquaApp quickstart -- one packet, step by step")
    print(f"  OFDM: {config.num_data_bins} subcarriers of "
          f"{config.subcarrier_spacing_hz:.0f} Hz between "
          f"{BAND_LOW_HZ:.0f} and {BAND_HIGH_HZ:.0f} Hz, "
          f"{config.symbol_duration_s * 1000:.0f} ms symbols\n")

    forward, backward = build_link_pair(site=LAKE, distance_m=5.0, seed=7)
    print(f"Channel: {LAKE.description}")
    print(f"  distance 5.0 m, both phones 1 m deep, ambient noise "
          f"{LAKE.noise_level_db:.0f} dB\n")

    # --- Step 1: Alice sends the preamble + receiver ID -------------------
    codec = MessageCodec()
    message_ids = [0, 35]  # "OK?" plus an air/gas message
    payload = codec.encode_ids(message_ids)
    print("Alice wants to send:")
    for message_id in message_ids:
        message = get_message(message_id)
        print(f"  [{message.message_id:3d}] {message.text}  ({message.category})")
    header = modem.build_preamble_and_header(receiver_id=1)
    print(f"\nStep 1: Alice transmits the preamble + header "
          f"({header.waveform.size} samples, "
          f"{header.waveform.size / SAMPLE_RATE_HZ * 1000:.0f} ms)")
    received = modem.filter_received(forward.transmit(header.waveform, rng).samples)

    # --- Step 2: Bob detects and selects a band ---------------------------
    detection = modem.detect_preamble(received)
    print(f"Step 2: Bob detects the preamble at sample {detection.start_index} "
          f"(sliding-correlation metric {detection.fine_metric:.2f})")
    estimate = modem.estimate_snr(received, detection.start_index)
    band = modem.select_band(estimate)
    print(f"        per-subcarrier SNR: median {np.median(estimate.snr_db):.1f} dB, "
          f"min {np.min(estimate.snr_db):.1f} dB, max {np.max(estimate.snr_db):.1f} dB")
    print(f"        selected band: {band.start_frequency_hz:.0f}-"
          f"{band.end_frequency_hz:.0f} Hz ({band.num_bins} subcarriers, "
          f"{modem.bitrate_for_band(band):.0f} bps coded)")

    # --- Step 3: feedback ---------------------------------------------------
    feedback_symbol = modem.build_feedback(band)
    feedback_received = modem.filter_received(backward.transmit(feedback_symbol, rng).samples)
    feedback = modem.decode_feedback(feedback_received)
    alice_band = modem.band_from_feedback(feedback)
    print(f"Step 3: Bob feeds back (f_begin, f_end); Alice decodes "
          f"{alice_band.start_frequency_hz:.0f}-{alice_band.end_frequency_hz:.0f} Hz "
          f"(two-tone power ratio {feedback.peak_power_ratio:.2f})")

    # --- Step 4: data --------------------------------------------------------
    packet = modem.encode_data(payload, alice_band)
    silence = np.zeros(2 * config.extended_symbol_length)
    waveform = np.concatenate([header.waveform, silence, packet.waveform])
    received = modem.filter_received(forward.transmit(waveform, rng).samples)
    detection = modem.detect_preamble(received)
    data_start = (detection.start_index + modem.preamble_generator.total_length
                  + config.extended_symbol_length + silence.size)
    decoded = modem.decode_data(received[data_start:], band, payload.size)
    errors = int(np.count_nonzero(decoded.bits != payload))
    print(f"Step 4: Alice sends {packet.num_payload_bits} payload bits "
          f"({packet.num_coded_bits} coded) in {packet.num_data_symbols} OFDM "
          f"data symbol(s); Bob decodes with {errors} bit error(s)\n")

    if errors == 0:
        decoded_messages = codec.decode_messages(decoded.bits)
        print("Bob's screen shows:")
        for message in decoded_messages:
            print(f"  [{message.message_id:3d}] {message.text}")
    else:
        print("The packet was corrupted; Alice would retransmit after the missing ACK.")

    # --- The declarative way --------------------------------------------
    # The same experiment as a Scenario, plus a two-distance mini sweep run
    # through the experiment runner (a link figure of the validation runs
    # one such Scenario per trial, through the same process pool).
    print("\nThe same link, declaratively (repro.experiments):")
    sweep = (
        Sweep(Scenario(site=LAKE, distance_m=5.0, num_packets=4))
        .over(distance_m=[5.0, 10.0])
        .seeded(7)
    )
    results = ExperimentRunner(max_workers=1).run(sweep)
    print(results.to_table())


if __name__ == "__main__":
    main()
