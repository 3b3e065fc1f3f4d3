"""Multi-diver network: carrier-sense MAC with several transmitters.

A dive group of three divers plus a dive leader (the receiver) all try to
send messages at the same time.  This example runs the discrete-event MAC
simulation of section 2.4 with and without carrier sense and reports the
fraction of packets that collide, reproducing the behaviour of Fig. 19.
It also demonstrates the energy-detection primitive itself: calibrating the
busy threshold from ambient noise and then classifying idle/busy windows.

Run with:  python examples/multi_diver_network.py
"""

from __future__ import annotations

import numpy as np

from repro.environments import BRIDGE
from repro.environments.factory import build_noise_model
from repro.mac.carrier_sense import EnergyDetector
from repro.mac.simulator import MacNetworkSimulator, TransmitterConfig


def carrier_sense_demo() -> None:
    print("Energy-detection carrier sense (bridge site)")
    detector = EnergyDetector()
    noise_model = build_noise_model(BRIDGE)
    ambient = noise_model.generate(3 * 48000, 48000.0, rng=1)
    threshold = detector.calibrate(ambient)
    print(f"  calibrated busy threshold: {threshold:.1f} dB "
          f"(ambient + {detector.THRESHOLD_MARGIN_DB:.0f} dB margin)")
    window = detector.samples_per_measurement
    t = np.arange(window) / 48000.0
    packet = 0.2 * np.sin(2 * np.pi * 2500.0 * t)
    print(f"  idle window classified busy?   {detector.is_busy(ambient[:window])}")
    print(f"  window with a packet busy?     {detector.is_busy(packet + ambient[:window])}\n")


def network_demo() -> None:
    print("Three transmitters, one receiver, 120 packets each (Fig. 19 setup)")
    transmitters = [
        TransmitterConfig(name=f"diver-{i + 1}", distance_to_receiver_m=5.0 + 2.5 * i,
                          num_packets=120)
        for i in range(3)
    ]
    for carrier_sense in (False, True):
        simulator = MacNetworkSimulator(transmitters, carrier_sense=carrier_sense)
        result = simulator.run(seed=11)
        label = "with carrier sense   " if carrier_sense else "without carrier sense"
        print(f"  {label}: {result.collision_fraction:5.1%} of "
              f"{result.num_packets} packets collided")
        for config in transmitters:
            fraction = result.collision_fraction_for(config.name)
            print(f"      {config.name}: {fraction:5.1%}")
    print("\nThe paper measures 53% -> 7% for this three-transmitter network "
          "once carrier sense is enabled (33% -> 5% with two transmitters).")


def main() -> None:
    carrier_sense_demo()
    network_demo()


if __name__ == "__main__":
    main()
