"""Declarative experiment API: scenarios, sweeps and a parallel runner.

This package is the experiment-orchestration layer of the reproduction.
Instead of hand-rolling loops around ``build_link_pair`` + ``LinkSession``,
an evaluation point is declared as a :class:`Scenario`, families of points
are expanded with :class:`Sweep`, and :class:`ExperimentRunner` executes
them -- across processes when that pays off -- returning a serializable
:class:`ResultSet`.

Worked example -- the paper's range sweep (Fig. 12) in a few lines::

    from repro.experiments import ExperimentRunner, Scenario, Sweep

    base = Scenario(site="lake", num_packets=25)
    sweep = (
        Sweep(base)
        .paired(distance_m=[5.0, 10.0, 20.0, 30.0], seed=[80, 81, 82, 83])
        .over(scheme=["adaptive", "fixed-3k", "fixed-1.5k", "fixed-0.5k"])
    )                                   # 16 scenarios
    results = ExperimentRunner(max_workers=4).run(sweep)

    adaptive_30m = results.lookup(distance_m=30.0, scheme="adaptive")
    print(adaptive_30m.packet_error_rate, adaptive_30m.median_bitrate_bps)
    print(results.where(scheme="adaptive").to_table())
    results.save("range_sweep.json")

Every scenario carries its own seed, so a parallel run is bit-identical
to a serial run of the same sweep, and the runner's optional on-disk JSON
cache (``cache_dir=...``) makes re-running a partially finished campaign
free for the points already computed.

:class:`ResultSet` is the one result store and query path.  Its subclass
:class:`ColumnarResultSet` (from :meth:`ExperimentRunner.run_columnar`)
adds the compact ``.npz`` artifact form, which :class:`SweepService`
keeps beside each finished job.
"""

from repro.experiments.columnar import ColumnarResultSet
from repro.experiments.net_scenario import NetScenario
from repro.experiments.records import DEFAULT_TABLE_COLUMNS, ResultSet, RunRecord
from repro.experiments.runner import CacheMissWarning, ExperimentRunner
from repro.experiments.scenario import SCHEME_CATALOG, ModemSpec, Scenario, run_scenario
from repro.experiments.service import SweepJob, SweepService
from repro.experiments.sweep import Sweep

__all__ = [
    "CacheMissWarning",
    "ColumnarResultSet",
    "DEFAULT_TABLE_COLUMNS",
    "ExperimentRunner",
    "ModemSpec",
    "NetScenario",
    "ResultSet",
    "RunRecord",
    "SCHEME_CATALOG",
    "Scenario",
    "Sweep",
    "SweepJob",
    "SweepService",
    "run_scenario",
]
