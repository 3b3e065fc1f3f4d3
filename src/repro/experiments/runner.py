"""Parallel scenario execution with an optional on-disk result cache.

:class:`ExperimentRunner` turns a list of scenarios (or a
:class:`~repro.experiments.sweep.Sweep`) into run records:

* scenarios are independent -- each carries its own seed and builds its
  own channels -- so :func:`ordered_map` dispatches them to a
  :class:`concurrent.futures.ProcessPoolExecutor` in chunks and yields
  the records in submission order; it is the package's one process
  pool, and :mod:`repro.validation` runs its Monte-Carlo trials
  through it too;
* because seeding is per scenario, a parallel run is bit-identical to a
  serial run of the same scenarios (``max_workers=1`` short-circuits the
  pool entirely, which is also the fallback when only one scenario is
  pending);
* with ``cache_dir`` set, finished records are written to
  ``<cache_dir>/<scenario_hash>-<code digest>.json`` and later runs of
  the same scenario (same hash, same code) are served from disk without
  re-simulating.  The code digest (:func:`code_digest`) is a SHA-256 over
  every source file of the package, so any edit to the code -- a
  docstring included -- invalidates every entry, and a cached sweep can
  never silently report numbers computed by other code.  Entries are
  replaced atomically (:func:`~repro.utils.atomic.atomic_write`), so two
  workers writing one entry, or a killed run, leave a whole file; an
  entry that does not decode into a record of its scenario is a miss --
  re-simulated and rewritten -- with a reason-coded
  :class:`CacheMissWarning`.

The primitive API is :meth:`ExperimentRunner.iter_run`: a generator that
yields records one by one as pool futures complete, in deterministic
submission order, so consumers (the streaming sweep service, live
progress displays) see results while later scenarios are still running.
The blocking :meth:`ExperimentRunner.run` /
:meth:`ExperimentRunner.run_columnar` are thin collectors over it; the
second returns a :class:`~repro.experiments.columnar.ColumnarResultSet`,
which can also be saved as ``.npz``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator

from repro.dsp import load_scipy_kernels
from repro.experiments.columnar import ColumnarResultSet
from repro.experiments.records import ResultSet, RunRecord
from repro.experiments.scenario import Scenario, run_scenario
from repro.utils.progress import progress_sink


class CacheMissWarning(UserWarning):
    """A cache entry existed but could not be used (it will be rebuilt).

    Carries a machine-readable :attr:`reason` code -- ``"json-decode"``
    (truncated/garbled JSON), ``"schema"`` (well-formed JSON that does not
    decode into a record), ``"os-error"`` (unreadable file) or
    ``"npz-corrupt"`` (bad columnar artifact) -- so logs and tests can
    distinguish corruption flavours without parsing prose.
    """

    def __init__(self, path, reason: str, detail: str = "") -> None:
        self.path = pathlib.Path(path)
        self.reason = reason
        message = f"ignoring corrupt cache entry {path} [{reason}]"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def warn_cache_miss(path, reason: str, detail: str = "") -> None:
    """Emit a :class:`CacheMissWarning` (shared by runner and service)."""
    warnings.warn(CacheMissWarning(path, reason, detail), stacklevel=3)


@functools.cache
def code_digest() -> str:
    """Hex SHA-256 over the package's source: every ``repro/**/*.py``.

    Each file enters as its path relative to the package root, its size
    and its bytes, in path order, so the digest names the code a result
    came from.  Computed on first use, once per process, and never at
    import: a run that keys nothing on the code does not pay for it.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _execute_scenario(scenario: Scenario) -> RunRecord:
    """Run one scenario and wrap it into a record (process-pool target)."""
    started = time.perf_counter()
    stats = run_scenario(scenario)
    return RunRecord.from_statistics(scenario, stats, elapsed_s=time.perf_counter() - started)


def ordered_map(function: Callable, items: list, max_workers: int | None) -> Iterator:
    """``function`` over ``items``, yielded lazily in input order.

    The one place work fans out to worker processes.  ``max_workers`` of
    ``None`` picks ``min(len(items), cpu count)``; at most one worker, or
    at most one item, runs a plain in-process ``map``.  Otherwise the
    items go to a :class:`ProcessPoolExecutor` in balanced chunks, so
    every worker receives a few: pickling overhead is amortized on large
    batches without starving workers on small ones.  ``function`` must be
    a module-level callable and its items picklable.

    With any item to run, the PHY's SciPy kernels load first, so forked
    workers inherit them and a serial run's first item is not timed with
    the import.
    """
    if not items:
        return
    load_scipy_kernels()
    workers = max_workers
    if workers is None:
        workers = min(len(items), os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        yield from map(function, items)
        return
    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map yields in submission order as chunks finish.
        yield from pool.map(function, items, chunksize=chunk)


class ExperimentRunner:
    """Executes scenarios, in parallel when it pays off.

    Parameters
    ----------
    max_workers:
        Worker processes to use.  ``None`` picks ``min(num scenarios,
        cpu count)``; ``0`` or ``1`` forces serial in-process execution.
    cache_dir:
        Directory for the JSON result cache; ``None`` disables caching.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache_dir: str | pathlib.Path | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.max_workers = max_workers
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        #: Per scenario of the most recent run/iter_run, in order, whether
        #: it was served from the cache.
        self.last_cached: tuple[bool, ...] = ()

    @property
    def last_cache_hits(self) -> int:
        """Number of cache hits during the most recent run/iter_run."""
        return sum(self.last_cached)

    # -------------------------------------------------------------- caching
    def _cache_path(self, scenario: Scenario) -> pathlib.Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{scenario.scenario_hash()}-{code_digest()}.json"

    def _load_cached(self, scenario: Scenario) -> RunRecord | None:
        if self.cache_dir is None:
            return None
        path = self._cache_path(scenario)
        if not path.exists():
            return None
        try:
            record = ResultSet.load(path).records[0]
        except json.JSONDecodeError as error:
            warn_cache_miss(path, "json-decode", str(error))
            return None
        except (ValueError, KeyError, IndexError, LookupError, TypeError) as error:
            warn_cache_miss(path, "schema", str(error))
            return None
        except OSError as error:
            warn_cache_miss(path, "os-error", str(error))
            return None
        # The entry must hold the scenario its name promises: anything else
        # is damage (or, far less likely, a hash collision).
        if record.scenario != scenario:
            warn_cache_miss(path, "schema", "entry holds another scenario")
            return None
        # Bind the record to the requested instance, whose memoized
        # canonical text the artifact writer reuses, and let the decoded
        # copy go.
        record.scenario = scenario
        return record

    def _store_cached(self, record: RunRecord) -> None:
        if self.cache_dir is None:
            return
        ResultSet([record]).save(self._cache_path(record.scenario), include_timing=True)

    # -------------------------------------------------------------- running
    def iter_run(
        self,
        scenarios: Iterable[Scenario],
        progress: bool | Callable[[str], None] | None = None,
    ) -> Iterator[RunRecord]:
        """Execute the scenarios, yielding records as they complete.

        Records come out in deterministic submission order -- the same
        order, with byte-identical contents, as the blocking :meth:`run`
        -- but each one is yielded as soon as it (and every earlier one)
        is available, so a consumer can process, persist or display
        results while later scenarios are still executing.

        The cache is resolved eagerly when ``iter_run`` is called (so
        :attr:`last_cached` and :attr:`last_cache_hits` are correct
        immediately); simulation work happens lazily as the generator is
        consumed.

        ``progress`` emits one line per record (cache hits included)
        with elapsed/ETA: ``True`` prints it to stderr, a callable
        receives it, ``None`` is silent.
        """
        ordered = list(scenarios)
        slots = [self._load_cached(scenario) for scenario in ordered]
        self.last_cached = tuple(record is not None for record in slots)
        pending = [
            (index, scenario)
            for index, scenario in enumerate(ordered)
            if slots[index] is None
        ]
        return self._stream(ordered, slots, pending, progress_sink(progress))

    def _stream(
        self,
        ordered: list[Scenario],
        slots: list[RunRecord | None],
        pending: list[tuple[int, Scenario]],
        emit: Callable[[str], None] | None,
    ) -> Iterator[RunRecord]:
        total = len(ordered)
        started = time.perf_counter()
        done = 0
        pending_results = zip(
            pending,
            ordered_map(
                _execute_scenario,
                [scenario for _, scenario in pending],
                self.max_workers,
            ),
        )
        for index in range(total):
            record = slots[index]
            if record is None:
                (slot_index, _), record = next(pending_results)
                assert slot_index == index
                slots[index] = record
                self._store_cached(record)
            done += 1
            if emit is not None:
                elapsed = time.perf_counter() - started
                eta = elapsed / done * (total - done)
                emit(
                    f"sweep {done}/{total}: {record.scenario.describe()} "
                    f"({elapsed:.1f}s elapsed, eta {eta:.1f}s)"
                )
            yield record

    def run(
        self,
        scenarios: Iterable[Scenario],
        progress: bool | Callable[[str], None] | None = None,
    ) -> ResultSet:
        """Execute the scenarios and return their records in order.

        A blocking collector over :meth:`iter_run`; the two produce
        byte-identical records in identical order.
        """
        return ResultSet(list(self.iter_run(scenarios, progress=progress)))

    def run_columnar(
        self,
        scenarios: Iterable[Scenario],
        progress: bool | Callable[[str], None] | None = None,
    ) -> ColumnarResultSet:
        """Execute the scenarios into a :class:`ColumnarResultSet`.

        The same records as :meth:`run`, in a result set that can also
        write the ``.npz`` artifact (:meth:`ColumnarResultSet.save_npz`).
        """
        return ColumnarResultSet(self.iter_run(scenarios, progress=progress))
