"""Tests for the carrier-sense MAC layer and network simulator."""

import numpy as np
import pytest

from repro.channel.noise import AmbientNoiseModel
from repro.mac.carrier_sense import EnergyDetector
from repro.mac.simulator import (
    MacNetworkSimulator,
    MacSimulationResult,
    TransmissionRecord,
    TransmitterConfig,
)


# --------------------------------------------------------------- energy sense
def test_measurement_window_is_80ms():
    detector = EnergyDetector()
    assert detector.samples_per_measurement == int(0.08 * 48000)


def test_calibration_then_busy_detection(rng):
    detector = EnergyDetector()
    noise = AmbientNoiseModel(level_db=-45.0).generate(48000, 48000.0, rng)
    threshold = detector.calibrate(noise)
    assert np.isfinite(threshold)
    t = np.arange(detector.samples_per_measurement) / 48000.0
    packet = 0.3 * np.sin(2 * np.pi * 2500 * t)
    assert detector.is_busy(packet + noise[: packet.size])
    assert not detector.is_busy(noise[: packet.size])


def test_out_of_band_energy_does_not_trigger(rng):
    detector = EnergyDetector()
    noise = AmbientNoiseModel(level_db=-45.0).generate(48000, 48000.0, rng)
    detector.calibrate(noise)
    t = np.arange(detector.samples_per_measurement) / 48000.0
    # A loud 10 kHz tone lies outside the 1-4 kHz sensing band.
    out_of_band = 0.5 * np.sin(2 * np.pi * 10000 * t)
    assert not detector.is_busy(out_of_band + noise[: out_of_band.size])


def test_is_busy_requires_calibration():
    with pytest.raises(RuntimeError):
        EnergyDetector().is_busy(np.zeros(3840))


def test_calibrate_requires_enough_samples():
    with pytest.raises(ValueError):
        EnergyDetector().calibrate(np.zeros(100))


# ------------------------------------------------------------- MAC simulation
def _transmitters(count, packets=40):
    return [TransmitterConfig(name=f"tx{i}", num_packets=packets) for i in range(count)]


def test_all_packets_get_transmitted():
    sim = MacNetworkSimulator(_transmitters(3, packets=30))
    result = sim.run(seed=1)
    assert result.num_packets == 90


def test_carrier_sense_reduces_collisions_three_transmitters():
    """Fig. 19: with three transmitters carrier sense cuts collisions sharply."""
    with_cs = MacNetworkSimulator(_transmitters(3), carrier_sense=True).run(seed=2)
    without_cs = MacNetworkSimulator(_transmitters(3), carrier_sense=False).run(seed=2)
    assert without_cs.collision_fraction > 0.25
    assert with_cs.collision_fraction < 0.15
    assert with_cs.collision_fraction < without_cs.collision_fraction / 2


def test_carrier_sense_reduces_collisions_two_transmitters():
    with_cs = MacNetworkSimulator(_transmitters(2), carrier_sense=True).run(seed=3)
    without_cs = MacNetworkSimulator(_transmitters(2), carrier_sense=False).run(seed=3)
    assert without_cs.collision_fraction > 0.15
    assert with_cs.collision_fraction < without_cs.collision_fraction


def test_single_transmitter_never_collides():
    result = MacNetworkSimulator(_transmitters(1), carrier_sense=False).run(seed=4)
    assert result.collision_fraction == 0.0


def test_per_transmitter_collision_fraction():
    result = MacNetworkSimulator(_transmitters(2, packets=25), carrier_sense=False).run(seed=5)
    for name in ("tx0", "tx1"):
        fraction = result.collision_fraction_for(name)
        assert 0.0 <= fraction <= 1.0
    assert np.isnan(result.collision_fraction_for("unknown"))


def test_transmissions_are_time_ordered_per_transmitter():
    result = MacNetworkSimulator(_transmitters(2, packets=20)).run(seed=6)
    for name in ("tx0", "tx1"):
        times = [t.start_time_s for t in result.transmissions if t.transmitter == name]
        assert times == sorted(times)
        assert len(times) == 20


def test_collision_definition_symmetry():
    """If packet A collides with B then B collides with A."""
    result = MacNetworkSimulator(_transmitters(3, packets=20), carrier_sense=False).run(seed=7)
    records = result.transmissions
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            overlap = (abs(a.start_time_s - b.start_time_s) < 0.6
                       and a.transmitter != b.transmitter)
            if overlap:
                assert a.collided and b.collided


def test_simulator_validation():
    with pytest.raises(ValueError):
        MacNetworkSimulator([])


def test_result_dataclass_counts():
    records = [
        TransmissionRecord("a", 0.0, 0.6, False),
        TransmissionRecord("b", 0.3, 0.9, True),
    ]
    result = MacSimulationResult(transmissions=records, carrier_sense_enabled=False)
    assert result.num_packets == 2
    assert result.num_collided == 1
    assert result.collision_fraction == pytest.approx(0.5)
