"""Ablation benches for the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify the contribution of the
individual mechanisms:

* the band-adaptation parameters (SNR threshold epsilon and conservative
  factor lambda),
* interleaving across subcarriers,
* the time-domain MMSE equalizer.

They complement Fig. 14c (which already ablates differential coding).
"""

import numpy as np

from benchmarks._common import print_figure
from repro.core.config import ProtocolConfig
from repro.core.modem import AquaModem
from repro.environments.factory import build_link_pair
from repro.environments.sites import LAKE
from repro.link.session import LinkSession

NUM_PACKETS = 15
DISTANCE_M = 20.0


def _run_with_modem(modem, seed):
    forward, backward = build_link_pair(site=LAKE, distance_m=DISTANCE_M, seed=seed)
    session = LinkSession(forward, backward, modem=modem, seed=seed)
    return session.run_packets(NUM_PACKETS)


def _run_parameters():
    """Sweep epsilon and lambda of the band selection algorithm."""
    rows = []
    results = {}
    configurations = [
        ("paper (eps=7, lambda=0.8)", 7.0, 0.8),
        ("aggressive (eps=3, lambda=1.0)", 3.0, 1.0),
        ("very conservative (eps=12, lambda=0.5)", 12.0, 0.5),
    ]
    for i, (label, eps, lam) in enumerate(configurations):
        protocol = ProtocolConfig(snr_threshold_db=eps, conservative_lambda=lam)
        modem = AquaModem(protocol_config=protocol)
        stats = _run_with_modem(modem, 210 + i)
        results[label] = stats
        rows.append([label, f"{stats.packet_error_rate:.2f}",
                     f"{stats.median_bitrate_bps:.0f}"])
    return rows, results


def _run_components():
    """Disable one receive-chain component at a time."""
    rows = []
    results = {}
    variants = [
        ("full system", AquaModem()),
        ("no interleaving", AquaModem(use_interleaving=False)),
        ("no equalizer", AquaModem(use_equalizer=False)),
        ("no differential coding", AquaModem(use_differential=False)),
    ]
    for i, (label, modem) in enumerate(variants):
        stats = _run_with_modem(modem, 230 + i)
        results[label] = stats
        rows.append([label, f"{stats.packet_error_rate:.2f}",
                     f"{stats.coded_bit_error_rate:.3f}"])
    return rows, results


def test_ablation_band_adaptation_parameters(benchmark):
    rows, results = benchmark.pedantic(_run_parameters, rounds=1, iterations=1)
    table = print_figure(
        f"Ablation -- band selection parameters (lake, {DISTANCE_M:.0f} m)",
        ["configuration", "PER", "median bitrate (bps)"],
        rows,
        notes="Aggressive settings pick wider bands (higher bitrate, higher PER); "
              "very conservative settings sacrifice bitrate for reliability.",
    )
    benchmark.extra_info["table"] = table
    aggressive = results["aggressive (eps=3, lambda=1.0)"]
    conservative = results["very conservative (eps=12, lambda=0.5)"]
    assert aggressive.median_bitrate_bps >= conservative.median_bitrate_bps


def test_ablation_receive_chain_components(benchmark):
    rows, results = benchmark.pedantic(_run_components, rounds=1, iterations=1)
    table = print_figure(
        f"Ablation -- receive chain components (lake, {DISTANCE_M:.0f} m)",
        ["variant", "PER", "uncoded BER"],
        rows,
        notes="Removing the equalizer or differential coding degrades the link; "
              "interleaving matters most when errors cluster on subcarriers.",
    )
    benchmark.extra_info["table"] = table
    full = results["full system"]
    no_equalizer = results["no equalizer"]
    assert full.packet_error_rate <= no_equalizer.packet_error_rate + 0.2
