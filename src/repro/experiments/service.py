"""Streaming sweep service: submit -> job handle -> poll/stream -> fetch.

:class:`SweepService` wraps :class:`~repro.experiments.runner.\
ExperimentRunner` in a small simulation-as-a-service front end, the shape
SRMCA-style serving systems use for long-running simulation campaigns:

* :meth:`~SweepService.submit` registers a sweep as a *job* -- a
  content-addressed directory whose ``manifest.json`` holds the full
  scenario descriptions, so the job is re-runnable from any process --
  and returns a :class:`SweepJob` handle;
* :meth:`~SweepService.stream` drives the runner's
  :meth:`~repro.experiments.runner.ExperimentRunner.iter_run` and yields
  records as they complete, replacing the job's small ``progress.json``
  wherever a concurrent :meth:`~SweepService.poll` could see the job
  wait -- before each record that must be simulated, and after the
  last -- while a record served from the per-scenario cache is yielded
  at once and reaches the file with the next write;
* on completion the service writes one artifact beside the manifest,
  ``results.npz`` (the ``.npz`` form of
  :class:`~repro.experiments.columnar.ColumnarResultSet`), and later
  submissions of the same sweep are served from it without simulating
  anything; :meth:`~SweepService.fetch` exports it as ``.npz`` or JSON.

A resubmitted finished job reads and verifies its artifact once:
:meth:`~SweepService.submit` decodes it (every loader check) and hands
the set to the next :meth:`~SweepService.stream` or
:meth:`~SweepService.result` of that job, which takes it only if the
file still holds the bytes that were decoded and drops it after that
one read.  Any other read decodes the file again, so a rotten or
replaced artifact is seen as such.

Everything is content-addressed by the existing scenario hash: the job id
is the hash of the ordered scenario-hash list (plus the package's code
digest, so artifacts can never leak across code changes), and the
per-scenario JSON cache under ``<root>/cache`` is the same cache
:class:`ExperimentRunner` uses everywhere else, so a sweep run through
the CLI warms the service and vice versa.

The manifest is written once, at submission; what changes while a job
runs lives in the progress record (state, counters, error), a few dozen
bytes whatever the job size.  A job whose records all come from the
cache replaces it a fixed handful of times whatever its size, and one
that simulates every record replaces it once per record.  Its
``completed`` count only tells observers how far the job has got: every
stream counts from 0 again.  Every job file is written through
:func:`~repro.utils.atomic.atomic_write`, so a killed service leaves each
file whole, old or new, and the next stream of the job finishes it.  A
manifest without a progress record (a kill between submission's two
writes) reads as a fresh ``submitted`` job.

The service is deliberately synchronous and single-process: determinism
is the point (a streamed job equals a blocking run byte for byte), and
callers that want concurrency run several service processes against the
same root -- the job files and artifacts are plain files.
"""

from __future__ import annotations

import io
import json
import pathlib
from dataclasses import dataclass
from typing import Iterator

from repro.experiments.columnar import ColumnarResultSet
from repro.experiments.records import RunRecord
from repro.experiments.runner import ExperimentRunner, code_digest, warn_cache_miss
from repro.experiments.scenario import Scenario, content_hash
from repro.utils.atomic import atomic_write

#: Manifest schema version (bump on layout changes).  Version 1 scenario
#: entries carry keys :meth:`Scenario.from_dict` no longer accepts;
#: version 2 manifests held the progress counters themselves.
MANIFEST_VERSION = 3

#: The progress record of a job nothing has streamed yet.
_FRESH = {"state": "submitted", "completed": 0, "cache_hits": 0, "error": ""}
_STATES = ("submitted", "done", "failed")


def _is_count(value, limit: int | None = None) -> bool:
    """Whether a decoded JSON value is a count in ``[0, limit]``."""
    return type(value) is int and 0 <= value and (limit is None or value <= limit)


def _read_json(path: pathlib.Path, job_id: str, what: str):
    """A job file's decoded JSON; ``ValueError`` when it cannot be decoded.

    A missing file raises :class:`FileNotFoundError` for the caller to
    interpret.
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as error:
        raise ValueError(f"job {job_id}: unreadable {what}: {error}") from None


def _write_json(path: pathlib.Path, data: dict) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(data))


@dataclass(frozen=True)
class SweepJob:
    """Handle to one submitted sweep.

    Attributes
    ----------
    job_id:
        Content hash of the ordered scenario hashes + code digest.
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
        #: ``(job id, artifact bytes, result set)`` the last :meth:`submit`
        #: verified, for the next artifact read to take once.
        self._verified: tuple[str, bytes, ColumnarResultSet] | None = None

    # ------------------------------------------------------------- plumbing
    def _job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def _manifest_path(self, job_id: str) -> pathlib.Path:
        return self._job_dir(job_id) / "manifest.json"

    def _progress_path(self, job_id: str) -> pathlib.Path:
        return self._job_dir(job_id) / "progress.json"

    def artifact_path(self, job_id: str) -> pathlib.Path:
        """Path of a job's result artifact (``results.npz``)."""
        return self._job_dir(job_id) / "results.npz"

    @staticmethod
    def job_id_for(scenario_hashes: list[str]) -> str:
        """Content-addressed job id of an ordered scenario-hash list.

        Takes :meth:`Scenario.scenario_hash` values, not scenarios, so a
        submission hashes each scenario once.  The id also covers the
        package's :func:`~repro.experiments.runner.code_digest`, so a job
        run by other code is another job.
        """
        hashes = list(scenario_hashes)
        if not all(isinstance(digest, str) for digest in hashes):
            raise TypeError("job_id_for takes scenario hashes, not scenarios")
        return content_hash({"scenario_hashes": hashes, "code": code_digest()})

    def _read_manifest(self, job_id: str) -> dict:
        """The job's manifest, checked for version and consistency.

        Raises :class:`KeyError` for an unknown job and
        :class:`ValueError` for an older version or an unreadable or
        inconsistent file.
        """
        try:
            data = _read_json(self._manifest_path(job_id), job_id, "manifest")
        except FileNotFoundError:
            raise KeyError(f"unknown job {job_id!r}") from None
        if not isinstance(data, dict):
            raise ValueError(f"job {job_id}: corrupt manifest: not a JSON object")
        if data.get("manifest_version") != MANIFEST_VERSION:
            raise ValueError(
                f"job {job_id}: unsupported manifest version "
                f"{data.get('manifest_version')!r}"
            )
        hashes, scenarios = data.get("scenario_hashes"), data.get("scenarios")
        if not (
            data.get("job_id") == job_id
            and isinstance(data.get("label"), str)
            and isinstance(hashes, list)
            and isinstance(scenarios, list)
            and _is_count(data.get("total"))
            and data["total"] == len(hashes) == len(scenarios)
        ):
            raise ValueError(f"job {job_id}: corrupt manifest")
        return data

    def _read_progress(self, job_id: str, total: int) -> dict:
        """The job's progress record; a fresh one when none was written."""
        try:
            data = _read_json(self._progress_path(job_id), job_id, "progress record")
        except FileNotFoundError:
            return dict(_FRESH)
        if not (
            isinstance(data, dict)
            and data.keys() == _FRESH.keys()
            and data["state"] in _STATES
            and isinstance(data["error"], str)
            and _is_count(data["completed"], total)
            and _is_count(data["cache_hits"], total)
            and (data["state"] != "done" or data["completed"] == total)
        ):
            raise ValueError(f"job {job_id}: corrupt progress record")
        return data

    def _write_progress(self, job_id: str, progress: dict) -> None:
        _write_json(self._progress_path(job_id), progress)

    @staticmethod
    def _handle(manifest: dict, progress: dict) -> SweepJob:
        return SweepJob(
            job_id=manifest["job_id"],
            state=progress["state"],
            total=manifest["total"],
            completed=progress["completed"],
            cache_hits=progress["cache_hits"],
            label=manifest["label"],
            error=progress["error"],
        )

    def _load_artifact(self, job_id: str) -> tuple[bytes, ColumnarResultSet] | None:
        """The job's artifact bytes and the set decoded from them.

        ``None`` when the artifact is absent or corrupt (a corrupt one
        warns).  The set :meth:`submit` verified last is taken instead of
        decoding again when the file still holds the bytes it was decoded
        from; it is dropped by this read either way, so each verified set
        serves one read.
        """
        verified, self._verified = self._verified, None
        path = self.artifact_path(job_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            warn_cache_miss(path, "npz-corrupt", str(error))
            return None
        if verified is not None and verified[:2] == (job_id, data):
            return data, verified[2]
        try:
            return data, ColumnarResultSet.load_npz(io.BytesIO(data))
        except ValueError as error:
            warn_cache_miss(path, "npz-corrupt", str(error))
            return None

    # ------------------------------------------------------------ lifecycle
    def submit(self, scenarios, label: str = "") -> SweepJob:
        """Register a sweep as a job and return its handle.

        Submission is idempotent: the job id is content-addressed, so
        resubmitting the same sweep returns the existing job, label
        included -- already ``done`` when its artifacts are on disk (a
        completed job with a corrupt artifact is reset to ``submitted``
        with a warning, and streaming it re-runs the sweep); a ``failed``
        job is reset to ``submitted``.  A ``done`` job's artifact is
        verified here and handed to the next read of the job.
        """
        self._verified = None
        ordered = list(scenarios)
        hashes = [s.scenario_hash() for s in ordered]
        job_id = self.job_id_for(hashes)
        try:
            manifest = self._read_manifest(job_id)
        except KeyError:
            manifest = None
        if manifest is not None:
            if manifest["scenario_hashes"] != hashes:
                raise ValueError(f"job {job_id}: corrupt manifest: other scenarios")
            progress = self._read_progress(job_id, manifest["total"])
            if progress["state"] == "done":
                loaded = self._load_artifact(job_id)
                if loaded is None:
                    # The artifact rotted: force a re-run.
                    progress = dict(progress, state="submitted", completed=0)
                    self._write_progress(job_id, progress)
                else:
                    self._verified = (job_id, *loaded)
            elif progress["state"] == "failed":
                progress = dict(_FRESH)
                self._write_progress(job_id, progress)
            return self._handle(manifest, progress)
        from repro import __version__

        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "job_id": job_id,
            "label": label,
            "version": __version__,
            "total": len(ordered),
            "scenario_hashes": hashes,
            "scenarios": [s.to_dict() for s in ordered],
        }
        _write_json(self._manifest_path(job_id), manifest)
        self._write_progress(job_id, _FRESH)
        return self._handle(manifest, _FRESH)

    def poll(self, job_id: str) -> SweepJob:
        """The job's current state, from its manifest and progress record."""
        manifest = self._read_manifest(job_id)
        return self._handle(manifest, self._read_progress(job_id, manifest["total"]))

    def list_jobs(self) -> list[SweepJob]:
        """Handles of every job under the service root, by job id."""
        return [
            self.poll(manifest.parent.name)
            for manifest in sorted(self.jobs_dir.glob("*/manifest.json"))
        ]

    def stream(self, job_id: str) -> Iterator[RunRecord]:
        """Yield the job's records in order, executing what is missing.

        A ``done`` job streams straight from its on-disk artifact (no
        simulation).  Otherwise the runner's ``iter_run`` drives the
        sweep -- per-scenario cache hits included -- and the progress
        record is replaced at stream start, after each record the next
        of which must be simulated (so while record ``k + 1`` runs,
        :meth:`poll` reads ``completed == k``), after the last record and
        at ``done`` or ``failed``.  Records served from the cache are
        yielded at once and counted in memory until the next write.  The
        ``results.npz`` artifact is written when the last record lands.
        Each scenario decoded from the manifest must hash to the
        manifest's entry for it, or the manifest is refused as corrupt.
        On an execution error the job is marked ``failed`` (with the
        error recorded) and the exception re-raised.
        """
        manifest = self._read_manifest(job_id)
        if self._read_progress(job_id, manifest["total"])["state"] == "done":
            loaded = self._load_artifact(job_id)
            if loaded is not None:
                yield from loaded[1]
                return
        try:
            scenarios = [Scenario.from_dict(entry) for entry in manifest["scenarios"]]
        except (AttributeError, TypeError, KeyError) as error:
            raise ValueError(
                f"job {job_id}: corrupt manifest: undecodable scenario: {error}"
            ) from None
        for index, (scenario, digest) in enumerate(
            zip(scenarios, manifest["scenario_hashes"])
        ):
            if scenario.scenario_hash() != digest:
                raise ValueError(
                    f"job {job_id}: corrupt manifest: scenario {index} does not "
                    f"match its hash"
                )
        runner = ExperimentRunner(
            max_workers=self.max_workers, cache_dir=self.cache_dir
        )
        results = ColumnarResultSet()
        status = dict(_FRESH)
        try:
            records = runner.iter_run(scenarios)
            # A record from the cache arrives at once, so a reader can see
            # the job wait only while a record is simulated: the count is
            # written before each simulation and after the last record,
            # and cached records reach the file with the next write.
            next_is_cached = runner.last_cached[1:] + (False,)
            status["cache_hits"] = runner.last_cache_hits
            self._write_progress(job_id, status)
            for record, skip_write in zip(records, next_is_cached):
                results.append(record)
                status["completed"] = len(results)
                if not skip_write:
                    self._write_progress(job_id, status)
                yield record
        except Exception as error:
            status["state"] = "failed"
            status["error"] = f"{type(error).__name__}: {error}"
            self._write_progress(job_id, status)
            raise
        results.save_npz(self.artifact_path(job_id))
        status["state"] = "done"
        self._write_progress(job_id, status)

    def result(self, job_id: str) -> ColumnarResultSet:
        """The job's full result set, running the sweep if needed."""
        if self.poll(job_id).done:
            loaded = self._load_artifact(job_id)
            if loaded is not None:
                return loaded[1]
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
