"""Streaming sweep service: submit -> job handle -> poll/stream -> fetch.

:class:`SweepService` wraps :class:`~repro.experiments.runner.\
ExperimentRunner` in a small simulation-as-a-service front end, the shape
SRMCA-style serving systems use for long-running simulation campaigns:

* :meth:`~SweepService.submit` registers a sweep as a *job* -- a
  content-addressed directory holding a JSON manifest with the full
  scenario descriptions, so the job is re-runnable from any process --
  and returns a :class:`SweepJob` handle;
* :meth:`~SweepService.stream` drives the runner's
  :meth:`~repro.experiments.runner.ExperimentRunner.iter_run` and yields
  records as they complete, updating the manifest's progress counters
  after every record so a concurrent :meth:`~SweepService.poll` sees the
  job advance;
* on completion the service writes one artifact beside the manifest,
  ``results.npz`` (the ``.npz`` form of
  :class:`~repro.experiments.columnar.ColumnarResultSet`), and later
  submissions of the same sweep are served from it without simulating
  anything; :meth:`~SweepService.fetch` exports it as ``.npz`` or JSON.

Everything is content-addressed by the existing scenario hash: the job id
is the hash of the ordered scenario-hash list (plus the package version,
so artifacts can never leak across simulation-code changes), and the
per-scenario JSON cache under ``<root>/cache`` is the same cache
:class:`ExperimentRunner` uses everywhere else, so a sweep run through
the CLI warms the service and vice versa.

The service is deliberately synchronous and single-process: determinism
is the point (a streamed job equals a blocking run byte for byte), and
callers that want concurrency run several service processes against the
same root -- the manifest and artifacts are plain files.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.experiments.columnar import ColumnarResultSet
from repro.experiments.records import RunRecord
from repro.experiments.runner import ExperimentRunner, warn_cache_miss
from repro.experiments.scenario import Scenario, content_hash

#: Manifest schema version (bump on layout changes).  Version 1 scenario
#: entries carry keys :meth:`Scenario.from_dict` no longer accepts.
MANIFEST_VERSION = 2


@dataclass(frozen=True)
class SweepJob:
    """Handle to one submitted sweep.

    Attributes
    ----------
    job_id:
        Content hash of the ordered scenario hashes + package version.
    state:
        ``"submitted"`` (work remains), ``"done"`` (artifacts on disk) or
        ``"failed"`` (a scenario raised; see :attr:`error`).
    total, completed, cache_hits:
        Progress counters; ``cache_hits`` counts per-scenario JSON cache
        hits observed while the job streamed.
    label:
        Optional human-readable tag from submission time.
    error:
        Failure description when :attr:`state` is ``"failed"``.
    """

    job_id: str
    state: str
    total: int
    completed: int
    cache_hits: int
    label: str = ""
    error: str = ""

    @property
    def done(self) -> bool:
        """Whether the job's artifacts are complete and on disk."""
        return self.state == "done"


class SweepService:
    """File-backed submit/poll/stream/fetch front end over the runner.

    Parameters
    ----------
    root:
        Service directory; gets a ``cache/`` (shared per-scenario JSON
        cache) and a ``jobs/`` (one directory per job id) subtree.
    max_workers:
        Forwarded to :class:`ExperimentRunner`.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        max_workers: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.root = pathlib.Path(root)
        self.cache_dir = self.root / "cache"
        self.jobs_dir = self.root / "jobs"
        self.max_workers = max_workers

    # ------------------------------------------------------------- plumbing
    def _job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def _manifest_path(self, job_id: str) -> pathlib.Path:
        return self._job_dir(job_id) / "manifest.json"

    def artifact_path(self, job_id: str) -> pathlib.Path:
        """Path of a job's result artifact (``results.npz``)."""
        return self._job_dir(job_id) / "results.npz"

    @staticmethod
    def job_id_for(scenarios: list[Scenario]) -> str:
        """Content-addressed job id of a scenario list (order-sensitive)."""
        from repro import __version__

        return content_hash({
            "scenario_hashes": [s.scenario_hash() for s in scenarios],
            "version": __version__,
        })

    def _read_manifest(self, job_id: str) -> dict:
        path = self._manifest_path(job_id)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"unknown job {job_id!r}") from None
        if data.get("manifest_version") != MANIFEST_VERSION:
            raise ValueError(
                f"job {job_id}: unsupported manifest version "
                f"{data.get('manifest_version')!r}"
            )
        return data

    def _write_manifest(self, job_id: str, data: dict) -> None:
        path = self._manifest_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")

    @staticmethod
    def _handle(data: dict) -> SweepJob:
        return SweepJob(
            job_id=data["job_id"],
            state=data["state"],
            total=int(data["total"]),
            completed=int(data["completed"]),
            cache_hits=int(data["cache_hits"]),
            label=data.get("label", ""),
            error=data.get("error", ""),
        )

    def _load_artifact(self, job_id: str) -> ColumnarResultSet | None:
        """The job's result artifact, or ``None`` when absent/corrupt."""
        path = self.artifact_path(job_id)
        if not path.exists():
            return None
        try:
            return ColumnarResultSet.load_npz(path)
        except ValueError as error:
            warn_cache_miss(path, "npz-corrupt", str(error))
            return None

    # ------------------------------------------------------------ lifecycle
    def submit(self, scenarios, label: str = "") -> SweepJob:
        """Register a sweep as a job and return its handle.

        Submission is idempotent: the job id is content-addressed, so
        resubmitting the same sweep returns the existing job -- already
        ``done`` when its artifacts are on disk (a completed job with a
        corrupt artifact is reset to ``submitted`` with a warning, and
        streaming it re-runs the sweep).
        """
        ordered = list(scenarios)
        job_id = self.job_id_for(ordered)
        try:
            data = self._read_manifest(job_id)
        except KeyError:
            data = None
        if data is not None and data["state"] == "done":
            if self._load_artifact(job_id) is not None:
                return self._handle(data)
            data["state"] = "submitted"  # artifact rotted: force a re-run
            data["completed"] = 0
            self._write_manifest(job_id, data)
            return self._handle(data)
        if data is not None and data["state"] == "submitted":
            return self._handle(data)
        from repro import __version__

        data = {
            "manifest_version": MANIFEST_VERSION,
            "job_id": job_id,
            "state": "submitted",
            "label": label,
            "version": __version__,
            "total": len(ordered),
            "completed": 0,
            "cache_hits": 0,
            "error": "",
            "scenario_hashes": [s.scenario_hash() for s in ordered],
            "scenarios": [s.to_dict() for s in ordered],
        }
        self._write_manifest(job_id, data)
        return self._handle(data)

    def poll(self, job_id: str) -> SweepJob:
        """The job's current state, straight from its manifest."""
        return self._handle(self._read_manifest(job_id))

    def list_jobs(self) -> list[SweepJob]:
        """Handles of every job under the service root, by job id."""
        jobs = []
        for manifest in sorted(self.jobs_dir.glob("*/manifest.json")):
            jobs.append(self._handle(self._read_manifest(manifest.parent.name)))
        return jobs

    def stream(
        self,
        job_id: str,
        progress: bool | Callable[[str], None] | None = None,
    ) -> Iterator[RunRecord]:
        """Yield the job's records in order, executing what is missing.

        A ``done`` job streams straight from its on-disk artifact (no
        simulation).  Otherwise the runner's ``iter_run`` drives the
        sweep -- per-scenario cache hits included -- the manifest's
        ``completed`` counter advances after every yielded record, and
        the ``results.npz`` artifact is written when the last record
        lands.  On an execution error the job is marked ``failed`` (with
        the error recorded) and the exception re-raised.
        """
        data = self._read_manifest(job_id)
        if data["state"] == "done":
            artifact = self._load_artifact(job_id)
            if artifact is not None:
                yield from artifact
                return
            data["state"] = "submitted"
            data["completed"] = 0
            self._write_manifest(job_id, data)
        scenarios = [Scenario.from_dict(entry) for entry in data["scenarios"]]
        runner = ExperimentRunner(
            max_workers=self.max_workers, cache_dir=self.cache_dir
        )
        results = ColumnarResultSet()
        data["state"] = "submitted"
        data["completed"] = 0
        data["error"] = ""
        self._write_manifest(job_id, data)
        try:
            stream = runner.iter_run(scenarios, progress=progress)
            data["cache_hits"] = runner.last_cache_hits
            for record in stream:
                results.append(record)
                data["completed"] = len(results)
                self._write_manifest(job_id, data)
                yield record
        except Exception as error:
            data["state"] = "failed"
            data["error"] = f"{type(error).__name__}: {error}"
            self._write_manifest(job_id, data)
            raise
        results.save_npz(self.artifact_path(job_id))
        data["state"] = "done"
        self._write_manifest(job_id, data)

    def result(self, job_id: str) -> ColumnarResultSet:
        """The job's full result set, running the sweep if needed."""
        data = self._read_manifest(job_id)
        if data["state"] == "done":
            artifact = self._load_artifact(job_id)
            if artifact is not None:
                return artifact
        return ColumnarResultSet(self.stream(job_id))

    def fetch(self, job_id: str, out: str | pathlib.Path) -> pathlib.Path:
        """Export a finished job's results to ``out``, timing included.

        The format follows the suffix (:meth:`ColumnarResultSet.save`):
        ``.npz`` writes the artifact form, anything else JSON.  The job
        must be ``done``.
        """
        job = self.poll(job_id)
        if not job.done:
            raise RuntimeError(
                f"job {job_id} is {job.state}; stream it to completion first"
            )
        return self.result(job_id).save(out, include_timing=True)
