"""AquaApp reproduction: underwater acoustic messaging for mobile devices.

This package is a from-scratch Python reproduction of the system described in
"Underwater Messaging Using Mobile Devices" (Chen, Chan, Gollakota,
SIGCOMM 2022).  It contains:

* :mod:`repro.core` -- the paper's primary contribution: an OFDM acoustic
  modem for the 1-4 kHz band with a CAZAC preamble, per-subcarrier SNR
  estimation, frequency-band adaptation, two-tone feedback encoding,
  time-domain MMSE equalization, differential BPSK and rate-2/3
  convolutional coding, plus the FSK SoS beacon mode.
* :mod:`repro.dsp`, :mod:`repro.fec` -- signal processing and forward error
  correction substrates used by the modem.
* :mod:`repro.channel`, :mod:`repro.devices`, :mod:`repro.environments` --
  the simulated underwater acoustic testbed (multipath, noise, Doppler,
  device frequency responses, waterproof cases, evaluation sites).
* :mod:`repro.link` -- the post-preamble feedback protocol run end to end
  between a transmitter and a receiver over simulated channels.
* :mod:`repro.mac` -- the carrier-sense MAC protocol and a discrete-event
  multi-transmitter network simulator.
* :mod:`repro.app` -- the messaging application layer (240 hand-signal
  catalog, message codec, SoS beacons).
* :mod:`repro.analysis` -- the theoretical BPSK BER reference and the
  text-table renderer used by the result tables and the figure validation.
* :mod:`repro.experiments` -- the declarative experiment layer: a frozen
  :class:`~repro.experiments.Scenario` describes one evaluation point, a
  :class:`~repro.experiments.Sweep` expands parameter grids, and an
  :class:`~repro.experiments.ExperimentRunner` executes them across worker
  processes (with deterministic per-scenario seeding and an optional
  on-disk result cache) into a serializable
  :class:`~repro.experiments.ResultSet`.
* :mod:`repro.net` -- the multi-hop network layer: a discrete-event
  simulator for N-node underwater topologies with pluggable routing
  (flooding, static shortest path, greedy geographic forwarding),
  sliding-window ARQ transport (Go-Back-N / selective repeat) and two
  interchangeable link models -- the full PHY per hop, or a fast
  PER-vs-distance table calibrated from it.
* :mod:`repro.validation` -- the Monte-Carlo figure validation harness
  behind ``python -m repro.cli validate``: declarative
  :class:`~repro.validation.FigureSpec` encodings of the paper's key
  figures run as seeded trials with Wilson confidence intervals, gated
  against committed ``VALID_<figure>.json`` envelopes.
"""

from repro.core.config import OFDMConfig, ProtocolConfig
from repro.core.modem import AquaModem
from repro.experiments import (
    ColumnarResultSet,
    ExperimentRunner,
    ModemSpec,
    NetScenario,
    ResultSet,
    RunRecord,
    Scenario,
    Sweep,
    SweepService,
    run_scenario,
)
from repro.link.session import LinkSession, LinkStatistics, PacketResult
from repro.net import (
    AcousticNetTopology,
    ArqConfig,
    CalibratedLink,
    NetworkResult,
    NetworkSimulator,
    PhysicalLink,
)
from repro.validation import (
    FigureSpec,
    MonteCarloRunner,
    ValidationReport,
)

__version__ = "1.5.0"

__all__ = [
    "OFDMConfig",
    "ProtocolConfig",
    "AquaModem",
    "LinkSession",
    "LinkStatistics",
    "PacketResult",
    "Scenario",
    "NetScenario",
    "ModemSpec",
    "Sweep",
    "ColumnarResultSet",
    "ExperimentRunner",
    "ResultSet",
    "RunRecord",
    "SweepService",
    "run_scenario",
    "AcousticNetTopology",
    "ArqConfig",
    "CalibratedLink",
    "NetworkResult",
    "NetworkSimulator",
    "PhysicalLink",
    "FigureSpec",
    "MonteCarloRunner",
    "ValidationReport",
    "__version__",
]
