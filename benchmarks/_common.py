"""Shared helpers for the benchmark harness.

Each ``bench_fig*.py`` file regenerates one figure of the paper's evaluation:
it sweeps the same parameters, prints the same rows/series the figure
reports, and lets pytest-benchmark time the underlying simulation.  The
helpers here keep the individual benchmarks short and consistent.

Experiment points are declared with :mod:`repro.experiments` --
:class:`~repro.experiments.Scenario` / :class:`~repro.experiments.Sweep`
describe a figure's grid and :func:`runner` executes it across worker
processes.  :func:`run_link` remains as a thin compatibility shim for the
benchmarks that still drive single points imperatively.

Packet counts are deliberately smaller than the paper's (which used 100-500
packets per point measured over hours in real water) so that the whole
benchmark suite completes in minutes; the trends are stable at these counts.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.metrics import format_table
from repro.channel.motion import MotionModel, STATIC_MOTION
from repro.core.baselines import FixedBandScheme
from repro.core.modem import AquaModem
from repro.devices.case import SOFT_POUCH, WaterproofCase
from repro.devices.models import GALAXY_S9, DeviceModel
from repro.environments.sites import Site
from repro.experiments import ExperimentRunner, Scenario
from repro.link.session import LinkStatistics

#: Default number of packets per configuration point.
DEFAULT_PACKETS = 25

#: Percentiles printed for bitrate CDFs.
CDF_PERCENTILES = (10, 25, 50, 75, 90)

#: Scheme axis shared by most figures: the adaptive scheme plus the three
#: fixed-bandwidth baselines, in the order the figure legends use.
ALL_SCHEMES = ("adaptive", "fixed-3k", "fixed-1.5k", "fixed-0.5k")


def runner(max_workers: int | None = None) -> ExperimentRunner:
    """Experiment runner for benchmark sweeps.

    Parallelism defaults to the machine's core count (scenarios are
    independent and seeded individually, so results are bit-identical to a
    serial run); set ``REPRO_BENCH_WORKERS=1`` to force serial execution.
    """
    if max_workers is None:
        env = os.environ.get("REPRO_BENCH_WORKERS")
        if env:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_BENCH_WORKERS must be an integer, got {env!r}"
                ) from None
    return ExperimentRunner(max_workers=max_workers)


def run_link(
    site: Site,
    distance_m: float,
    scheme: FixedBandScheme | str = "adaptive",
    num_packets: int = DEFAULT_PACKETS,
    seed: int = 0,
    motion: MotionModel = STATIC_MOTION,
    tx_depth_m: float = 1.0,
    rx_depth_m: float | None = None,
    orientation_deg: float = 0.0,
    tx_device: DeviceModel = GALAXY_S9,
    rx_device: DeviceModel = GALAXY_S9,
    case: WaterproofCase = SOFT_POUCH,
    modem: AquaModem | None = None,
) -> LinkStatistics:
    """Run one experiment point and return its link statistics.

    Legacy shim kept for the not-yet-migrated benchmarks; new code should
    declare a :class:`~repro.experiments.Scenario` instead (and go through
    :class:`~repro.experiments.ExperimentRunner` for whole grids).  The
    ``modem`` override bypasses the declarative
    :class:`~repro.experiments.ModemSpec`, so it runs the session directly.
    """
    scenario = Scenario(
        site=site,
        distance_m=distance_m,
        scheme=scheme,
        num_packets=num_packets,
        seed=seed,
        motion=motion,
        tx_depth_m=tx_depth_m,
        rx_depth_m=rx_depth_m,
        orientation_deg=orientation_deg,
        tx_device=tx_device,
        rx_device=rx_device,
        case=case,
    )
    return scenario.build_session(modem=modem).run_packets(num_packets)


def scheme_label(scheme: FixedBandScheme | str) -> str:
    """Human-readable label for a scheme."""
    return "adaptive (ours)" if isinstance(scheme, str) else scheme.name


def cdf_row(values: np.ndarray) -> list[str]:
    """Return formatted percentile values for a bitrate CDF row."""
    if values.size == 0:
        return ["n/a"] * len(CDF_PERCENTILES)
    return [f"{np.percentile(values, p):.0f}" for p in CDF_PERCENTILES]


#: All figure tables produced during this benchmark session, in order.  The
#: conftest terminal-summary hook prints them after the timing table so they
#: appear in ``bench_output.txt`` even though pytest captures per-test stdout,
#: and they are also written to ``benchmarks/results/figure_tables.txt``.
FIGURE_TABLES: list[str] = []

#: Whether the persistent results file has been truncated by this process /
#: session yet.  The first append of a session opens the file in ``"w"``
#: mode, so the file never grows without bound across benchmark runs; the
#: conftest ``pytest_sessionstart`` hook resets the flag so one pytest
#: session truncates exactly once, however many benchmarks it runs.
_RESULTS_FILE_FRESH = False


def print_figure(title: str, headers: list[str], rows: list[list[object]], notes: str = "") -> str:
    """Print a figure table and return it as a string (for extra_info)."""
    table = format_table(headers, rows)
    banner = "=" * len(title)
    text = f"\n{title}\n{banner}\n{table}\n"
    if notes:
        text += f"{notes}\n"
    print(text)
    FIGURE_TABLES.append(text)
    _append_to_results_file(text)
    return text


def reset_results_file() -> None:
    """Start a fresh results file for this session.

    Removes the previous session's file immediately (so a session that
    produces no tables does not leave stale ones behind) and makes the next
    figure table start the file over.
    """
    global _RESULTS_FILE_FRESH
    _RESULTS_FILE_FRESH = False
    import pathlib

    results = pathlib.Path(__file__).parent / "results" / "figure_tables.txt"
    results.unlink(missing_ok=True)


def _append_to_results_file(text: str) -> None:
    """Append a figure table to the persistent results file.

    The first write of a session truncates the file (see
    :data:`_RESULTS_FILE_FRESH`).
    """
    import pathlib

    global _RESULTS_FILE_FRESH
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    mode = "a" if _RESULTS_FILE_FRESH else "w"
    with open(results_dir / "figure_tables.txt", mode, encoding="utf-8") as handle:
        handle.write(text)
    _RESULTS_FILE_FRESH = True
