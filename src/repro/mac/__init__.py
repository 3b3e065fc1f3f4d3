"""Carrier-sense MAC layer and multi-transmitter network simulation.

The paper's MAC (section 2.4) is carrier sense with random backoff: every
80 ms a device measures the energy in the 1-4 kHz band; before sending it
requires the channel to be idle, otherwise it waits a random backoff
measured in multiples of the packet duration, extending the backoff
whenever it hears energy during the wait.  Fig. 19 measures the fraction
of collisions with two and three transmitters, with and without carrier
sense.
"""

from repro.mac.carrier_sense import EnergyDetector
from repro.mac.simulator import MacSimulationResult, MacNetworkSimulator, TransmitterConfig

__all__ = [
    "EnergyDetector",
    "MacNetworkSimulator",
    "MacSimulationResult",
    "TransmitterConfig",
]
