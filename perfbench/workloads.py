"""The three benchmark workloads and their correctness checks.

Every workload builds its inputs from the workload seed alone and runs in
*passes*: one pass is the workload's fixed set of operations, and every
pass after the first re-serves inputs already served, so it is checked
against the first.  A pass returns a :class:`PassResult`; the runner in
``run.py`` repeats passes for the requested time and reduces them to
metrics.

Each timed operation is split into *steps* at points the program itself
reports: a scenario finished by the runner, a record yielded by the
service, 20 000 events drained by the simulator.  A step has a key that is
the same in every pass, so ``run.py`` can take each step's best time over
the passes.

* ``link-sweep`` -- a serial link sweep over a 16-point grid, 4 seed replicas (PHY only).
* ``net-250`` -- the default ``cli net --nodes 250`` scenario over
  consecutive seeds (net engine only).
* ``service-warm`` -- a 192-scenario ``SweepService`` job served from a
  warm per-scenario cache, then replayed from its artifact (pipeline
  only).
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from layers import ROOT

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass measured and checked."""

    #: ``(key, seconds)`` of each step of the pass's timed operations.
    steps: list[tuple] = field(default_factory=list)
    #: Operations the steps make up.
    ops: int = 1
    #: Steps of operations that re-served an input served before, and the
    #: operations they make up.
    repeat_steps: list[tuple] = field(default_factory=list)
    repeat_ops: int = 1
    #: Work items completed by the timed operations (packets, events or
    #: records).
    work: float = 0.0
    #: Summed wall time of the pass's timed operations.
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Outcome metrics; deterministic per seed.
    outcome: dict = field(default_factory=dict)
    #: Layer counts taken from the program's own results.
    counts: dict = field(default_factory=dict)


def _record_text(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


def _link_outcome(records) -> dict:
    """Delivered share and mean per-packet goodput of link records."""
    packets = sum(r.num_packets for r in records)
    delivered = sum(r.delivered for r in records)
    goodput = 0.0
    for record in records:
        for rate, ok in zip(record.bitrates_bps, record.delivered_flags):
            if ok and math.isfinite(rate):
                goodput += rate
    return {"success_ratio": delivered / packets, "goodput_bps": goodput / packets}


def _steps(marks: list[float], label=None) -> list[tuple]:
    """Durations between consecutive time marks, keyed by position."""
    return [
        ((label, index), end - start)
        for index, (start, end) in enumerate(zip(marks, marks[1:]))
    ]


def _direct_run_matches(scenario, reference_text: str) -> bool:
    """Whether a direct ``Scenario.run()`` reproduces a recorded result."""
    from repro.experiments import RunRecord

    record = RunRecord.from_statistics(scenario, scenario.run())
    return _record_text(record) == reference_text


class LinkSweep:
    """Serial ``run_columnar`` over a 16-point link sweep, no cache.

    The grid runs in four seed replicas of 5 packets per scenario: the
    same 320 packets as one replica of 20, but with four times as many
    channel draws, which narrows the seed-to-seed spread of the outcome
    metrics and of the sweep's cost.
    """

    name = "link-sweep"
    sites = ("lake", "park")
    distances_m = (5.0, 10.0, 20.0, 30.0)
    schemes = ("adaptive", "fixed-3k")
    replicas = 4
    packets = 5
    #: The warm-up lives in this process, so it is redone after a
    #: set-up run in a child process.
    process_local_setup = True
    aliases = {
        "op_s.ref": "link.sweep_s (whole sweep)",
        "work_per_s.ref": "link.packets_per_s",
        "success_ratio": "1 - link.per",
        "goodput_bps": "link goodput per packet",
    }

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        from repro.experiments import Scenario

        self.seed = seed
        grid = [
            (site, distance, scheme)
            for _ in range(self.replicas)
            for site in self.sites
            for distance in self.distances_m
            for scheme in self.schemes
        ]
        self.scenarios = [
            Scenario(
                site=site, distance_m=distance, scheme=scheme,
                num_packets=self.packets, seed=seed * 10_000 + 10 * index,
            )
            for index, (site, distance, scheme) in enumerate(grid)
        ]
        self._reference: list[str] | None = None

    def setup(self) -> None:
        """Warm process-level caches with one-packet runs of each kind."""
        from repro.experiments import ExperimentRunner

        warmup = [
            s.replace(num_packets=1, seed=s.seed + 5)
            for s in self.scenarios
            if s.distance_m == self.distances_m[0]
        ]
        ExperimentRunner(max_workers=1).run(warmup)

    def prepare(self) -> None:
        pass

    def run_pass(self, recorder) -> PassResult:
        from repro.experiments import ExperimentRunner

        # The runner reports each finished scenario; those reports split
        # the sweep into one step per scenario, plus the final append.
        marks = [clock()]
        with recorder.span(ROOT):
            results = ExperimentRunner(max_workers=1).run_columnar(
                self.scenarios, progress=lambda _line: marks.append(clock())
            )
        marks.append(clock())
        records = list(results)
        texts = [_record_text(r) for r in records]
        result = PassResult(
            steps=_steps(marks),
            work=float(sum(r.num_packets for r in records)),
            wall_s=marks[-1] - marks[0],
            attempted=len(self.scenarios),
            outcome=_link_outcome(records),
        )
        if self._reference is None:
            self._reference = texts
        else:
            result.repeat_steps = result.steps
        if len(texts) != len(self._reference):
            result.failed = len(self.scenarios)
        else:
            result.failed = sum(a != b for a, b in zip(texts, self._reference))
        return result

    def finish(self) -> tuple[int, int]:
        """One scenario, re-run directly, must match its swept record."""
        index = self.seed % len(self.scenarios)
        ok = _direct_run_matches(self.scenarios[index], self._reference[index])
        return 1, int(not ok)


class Net250:
    """``build_simulator`` + ``build_traffic`` + ``run`` of ``cli net --nodes 250``.

    250 nodes rather than 1000 keep a pass near one second, so every step
    is timed about twenty times in a run; a 1000-node run takes 1.3-2.2 s
    and its best time wandered by 24% between processes, against 8% at
    250 nodes.
    """

    name = "net-250"
    nodes = 250
    seeds_per_pass = 4
    process_local_setup = True
    aliases = {
        "op_s.ref": "net.run_s",
        "work_per_s.ref": "scheduler events per second",
        "success_ratio": "net.pdr",
        "goodput_bps": "network goodput",
    }

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        from repro.experiments import NetScenario

        self.scenarios = [
            NetScenario(num_nodes=self.nodes, seed=self.seeds_per_pass * seed + k)
            for k in range(self.seeds_per_pass)
        ]
        self._reference: dict[int, str] = {}

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self, recorder) -> PassResult:
        result = PassResult(ops=len(self.scenarios), repeat_ops=len(self.scenarios))
        counts = {
            "net.scheduler.events": 0, "net.transport.retransmissions": 0,
            "net.transport.aborted_flows": 0, "net.collisions": 0, "net.transmissions": 0,
        }
        offered = delivered = 0
        goodputs = []
        for scenario in self.scenarios:
            # Steps: build_simulator, build_traffic, then one per 20 000
            # events the simulator reports as drained, then the rest.
            marks = [clock()]
            with recorder.span(ROOT):
                simulator = scenario.build_simulator()
                marks.append(clock())
                traffic = scenario.build_traffic()
                marks.append(clock())
                run = simulator.run(traffic=traffic, progress=lambda _line: marks.append(clock()))
            marks.append(clock())
            steps = _steps(marks, scenario.seed)
            data = run.to_dict()
            text = json.dumps(data, sort_keys=True)
            ok = data["delivered"] <= data["offered"] and run.num_events > 0
            reference = self._reference.get(scenario.seed)
            if reference is None:
                self._reference[scenario.seed] = text
            else:
                result.repeat_steps += steps
                ok = ok and text == reference
            result.steps += steps
            result.work += run.num_events
            result.wall_s += marks[-1] - marks[0]
            result.attempted += 1
            result.failed += int(not ok)
            offered += data["offered"]
            delivered += data["delivered"]
            goodputs.append(run.metrics.goodput_bps(run.duration_s))
            counts["net.scheduler.events"] += run.num_events
            counts["net.transport.retransmissions"] += run.total_retransmissions
            counts["net.transport.aborted_flows"] += run.aborted_flows
            counts["net.collisions"] += data["collisions"]
            counts["net.transmissions"] += data["transmissions"]
        result.outcome = {
            "success_ratio": delivered / offered,
            "goodput_bps": float(np.mean(goodputs)),
        }
        result.counts = counts
        return result

    def finish(self) -> tuple[int, int]:
        return 0, 0


class ServiceWarm:
    """A ``SweepService`` job over a warm cache, then its artifact replay."""

    name = "service-warm"
    sites = ("lake", "park")
    distances_m = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    schemes = ("adaptive", "fixed-3k")
    replicas = 8  # 2 x 6 x 2 x 8 = 192 one-packet scenarios
    #: A replay takes ~0.1 s, so each job is replayed several times to give
    #: its median enough samples.
    replays = 5
    #: The warm cache lives on disk, so a child's set-up is reused.
    process_local_setup = False
    aliases = {
        "op_s.ref": "service.job_s",
        "repeat_s.ref": "service.replay_s",
        "work_per_s.ref": "records streamed per second",
        "success_ratio": "service.cache_hit_ratio",
        "goodput_bps": "link goodput of the served records",
    }

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        from repro.experiments import Scenario

        self.seed = seed
        self.root = pathlib.Path(workdir) / "service"
        grid = [
            (site, distance, scheme)
            for _ in range(self.replicas)
            for site in self.sites
            for distance in self.distances_m
            for scheme in self.schemes
        ]
        self.scenarios = [
            Scenario(
                site=site, distance_m=distance, scheme=scheme,
                num_packets=1, seed=seed * 10_000 + 10 * index,
            )
            for index, (site, distance, scheme) in enumerate(grid)
        ]
        self._reference: list[str] | None = None
        self._job_id: str | None = None

    def setup(self) -> None:
        """Fill the per-scenario cache (the only PHY work of the workload)."""
        from repro.experiments import ExperimentRunner

        ExperimentRunner(max_workers=1, cache_dir=self.root / "cache").run(self.scenarios)

    def prepare(self) -> None:
        """Open the service and read the runner's records as the reference."""
        from repro.experiments import ExperimentRunner, SweepService

        self.service = SweepService(self.root, max_workers=1)
        runner = ExperimentRunner(max_workers=1, cache_dir=self.service.cache_dir)
        self._reference = [_record_text(r) for r in runner.run(self.scenarios)]

    def _manifest_bytes(self, job_id: str, seen: list) -> int:
        """Size of the job manifest if it changed since it was last seen."""
        try:
            stat = (self.service.jobs_dir / job_id / "manifest.json").stat()
        except OSError:
            return 0
        key = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        if seen and seen[-1] == key:
            return 0
        seen.append(key)
        return stat.st_size

    def run_pass(self, recorder) -> PassResult:
        service = self.service
        if self._job_id is not None:
            shutil.rmtree(service.jobs_dir / self._job_id, ignore_errors=True)
        manifest_bytes = 0
        seen: list = []
        # Steps: the submit, one per streamed record, then the artifact
        # writes after the last record.
        marks = [clock()]
        streamed = []
        with recorder.span(ROOT):
            job = service.submit(self.scenarios)
            marks.append(clock())
            if recorder.enabled:
                manifest_bytes += self._manifest_bytes(job.job_id, seen)
                for record in service.stream(job.job_id):
                    streamed.append(record)
                    manifest_bytes += self._manifest_bytes(job.job_id, seen)
                    marks.append(clock())
                manifest_bytes += self._manifest_bytes(job.job_id, seen)
            else:
                for record in service.stream(job.job_id):
                    streamed.append(record)
                    marks.append(clock())
        marks.append(clock())
        self._job_id = job.job_id
        texts = [_record_text(r) for r in streamed]
        final = service.poll(job.job_id)
        total = len(self.scenarios)
        job_ok = texts == self._reference and final.done and final.cache_hits == total
        replay_s, replays_failed = [], 0
        for _ in range(self.replays):
            start = clock()
            with recorder.span(ROOT):
                again = service.submit(self.scenarios)
                replayed = list(service.stream(again.job_id))
            replay_s.append(clock() - start)
            replays_failed += not (again.done and [_record_text(r) for r in replayed] == texts)
        outcome = _link_outcome(streamed)
        outcome["success_ratio"] = final.cache_hits / total
        return PassResult(
            steps=_steps(marks),
            repeat_steps=[("replay", t) for t in replay_s],
            work=float(len(streamed)),
            wall_s=marks[-1] - marks[0] + sum(replay_s),
            attempted=1 + self.replays,
            failed=int(not job_ok) + replays_failed,
            outcome=outcome,
            counts={"experiments.service.manifest_bytes": manifest_bytes},
        )

    def finish(self) -> tuple[int, int]:
        """The cache must hold what a direct simulation produces."""
        index = self.seed % len(self.scenarios)
        ok = _direct_run_matches(self.scenarios[index], self._reference[index])
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (LinkSweep, Net250, ServiceWarm)}
