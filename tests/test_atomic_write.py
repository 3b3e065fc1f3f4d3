"""Every in-place writer replaces its file atomically (repro.utils.atomic)."""

import builtins
import errno
import os
import pathlib

import pytest

import repro.utils.atomic as atomic_module
from repro.cli import main
from repro.experiments import ColumnarResultSet, ResultSet, RunRecord, Scenario, SweepService
from repro.faults import FaultSchedule
from repro.trace import Trace, TraceEvent
from repro.utils import atomic_write
from repro.validation import FigureReport, ValidationReport, write_envelope
from repro.validation.montecarlo import FigureResult


class _FailingHandle:
    """A file handle whose writes fail once a few bytes have gone through."""

    def __init__(self, handle):
        self._handle = handle
        self._budget = 16

    def write(self, data):
        if len(data) > self._budget:
            self._handle.write(data[: self._budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget -= len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


def _record(variant):
    return RunRecord(
        scenario=Scenario(site="lake", num_packets=1, seed=variant),
        num_packets=1,
        delivered=variant % 2,
        packet_error_rate=1.0 - variant % 2,
        payload_bit_error_rate=0.0,
        coded_bit_error_rate=0.0,
        preamble_detection_rate=1.0,
        feedback_error_rate=0.0,
        bitrates_bps=(500.0 + variant,),
        band_starts_hz=(1000.0,),
        band_ends_hz=(3000.0,),
        min_band_snrs_db=(6.0,),
        delivered_flags=(bool(variant % 2),),
        elapsed_s=0.5,
    )


def _figure(variant):
    return FigureResult(figure="range", axis="distance_m", trials=variant + 1,
                        quick=False, points=())


def _trace(variant):
    return Trace(events=[TraceEvent(time_s=1.0 + variant, event="send", uid=variant,
                                    source="n1", destination="n0", size_bits=16)],
                 meta={"variant": variant})


def _job_progress(directory, variant):
    # The submission writes the progress record; streaming the job then
    # replaces it before the first record.
    service = SweepService(directory / "svc", max_workers=1)
    scenarios = [Scenario(site="bridge", num_packets=1, seed=3)]
    job = service.submit(scenarios)
    if variant:
        list(service.stream(job.job_id))
    return service.jobs_dir / job.job_id / "progress.json"


def _cli_json(directory, variant):
    path = directory / "net.json"
    assert main(["net", "--nodes", "3", "--topology", "line", "--spacing", "30",
                 "--range", "12", "--routing", "shortest-path", "--arq", "none",
                 "--traffic", "cbr", "--rate", "0.05", "--duration", str(60 + 40 * variant),
                 "--destination", "n2", "--json", str(path)]) == 0
    return path


#: Each writer, given a directory and a variant, writes one file (different
#: bytes per variant) and returns its path.
WRITERS = {
    "cache-entry": lambda d, v: ResultSet([_record(v)]).save(
        d / "entry.json", include_timing=True),
    "npz-artifact": lambda d, v: ColumnarResultSet([_record(v)]).save_npz(d / "results.npz"),
    "valid-envelope": lambda d, v: write_envelope(_figure(v), d),
    "validation-report": lambda d, v: ValidationReport(
        [FigureReport(result=_figure(v))]).save(d / "report.json"),
    "trace-jsonl": lambda d, v: Trace.save_jsonl(_trace(v), d / "run.jsonl"),
    "trace-npz": lambda d, v: Trace.save_npz(_trace(v), d / "run.npz"),
    "fault-schedule": lambda d, v: FaultSchedule(seed=v).save(d / "faults.json"),
    "job-progress": _job_progress,
    "cli-json": _cli_json,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_failing_partway_leaves_the_previous_file(writer, tmp_path, monkeypatch):
    write = WRITERS[writer]
    path = pathlib.Path(write(tmp_path, 0))
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))

    def failing_open(*args, **kwargs):
        return _FailingHandle(builtins.open(*args, **kwargs))

    monkeypatch.setattr(atomic_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(tmp_path, 1)
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing  # no temporary file behind
    monkeypatch.undo()
    write(tmp_path, 1)
    assert path.read_bytes() != before


def test_atomic_write_creates_parents_and_replaces_whole_files(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    with atomic_write(path, binary=True) as handle:
        handle.write(b"first")
    with atomic_write(path, binary=True) as handle:
        handle.write(b"second")
    assert path.read_bytes() == b"second"
    assert os.listdir(path.parent) == ["out.bin"]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_trace_npz_lands_at_the_path_it_returns(tmp_path):
    path = tmp_path / "bare"
    assert _trace(0).save_npz(path) == str(path)
    assert Trace.load_npz(path).meta == {"variant": 0}
    assert os.listdir(tmp_path) == ["bare"]
