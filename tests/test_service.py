"""Tests for the streaming sweep service (repro.experiments.service)."""

import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_module
from repro.experiments import (
    ColumnarResultSet,
    ExperimentRunner,
    ResultSet,
    Scenario,
    Sweep,
    SweepService,
)
from repro.experiments.runner import CacheMissWarning


def _scenarios(n=3, packets=2, seed=11):
    return (
        Sweep(Scenario(site="bridge", num_packets=packets))
        .over(distance_m=[4.0 + i for i in range(n)])
        .seeded(seed)
        .scenarios()
    )


def _complete(service, scenarios, **kwargs):
    job = service.submit(scenarios, **kwargs)
    records = list(service.stream(job.job_id))
    return job, records


# ------------------------------------------------------------- submission
def test_submit_is_content_addressed_and_idempotent(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    scenarios = _scenarios(2)
    job = service.submit(scenarios, label="first")
    assert job.job_id == SweepService.job_id_for([s.scenario_hash() for s in scenarios])
    assert job.state == "submitted"
    assert job.total == 2 and job.completed == 0
    assert job.label == "first"
    assert not job.done
    # Same sweep, same job -- the original label survives.
    again = service.submit(scenarios, label="second")
    assert again.job_id == job.job_id
    assert again.label == "first"
    # A different sweep is a different job.
    other = service.submit(_scenarios(3))
    assert other.job_id != job.job_id
    assert {j.job_id for j in service.list_jobs()} == {job.job_id, other.job_id}


def test_poll_unknown_job_raises(tmp_path):
    service = SweepService(tmp_path)
    with pytest.raises(KeyError, match="unknown job"):
        service.poll("deadbeefdeadbeef")


# -------------------------------------------------------------- streaming
def test_stream_matches_blocking_runner(tmp_path):
    scenarios = _scenarios(3)
    service = SweepService(tmp_path / "svc", max_workers=1)
    job, records = _complete(service, scenarios)
    reference = ExperimentRunner(max_workers=1).run(scenarios)
    assert ResultSet(records) == reference
    assert [r.scenario for r in records] == scenarios
    final = service.poll(job.job_id)
    assert final.done and final.completed == final.total == 3
    # One artifact per job beside its manifest and progress record: the
    # JSON form is rendered on fetch, not stored.
    job_dir = service.artifact_path(job.job_id).parent
    assert sorted(p.name for p in job_dir.iterdir()) == [
        "manifest.json", "progress.json", "results.npz"
    ]
    assert service.result(job.job_id) == reference


def test_poll_sees_progress_between_records(tmp_path):
    scenarios = _scenarios(3)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios)
    completed = []
    for _ in service.stream(job.job_id):
        completed.append(service.poll(job.job_id).completed)
    assert completed == [1, 2, 3]
    assert service.poll(job.job_id).done


def test_poll_reads_the_records_yielded_before_each_simulation(tmp_path, monkeypatch):
    # Cold at 0, 3 and 4, warm at 1, 2 and 5: cached records are yielded
    # without a write, yet whenever a record is simulated, poll reads as
    # many completed records as the stream has yielded.
    scenarios = _scenarios(6, packets=1)
    service = SweepService(tmp_path, max_workers=1)
    warm = [scenarios[i] for i in (1, 2, 5)]
    ExperimentRunner(max_workers=1, cache_dir=service.cache_dir).run(warm)
    job = service.submit(scenarios)
    yielded, seen = [], []
    simulate = runner_module.run_scenario

    def polling(scenario):
        seen.append((len(yielded), service.poll(job.job_id).completed))
        return simulate(scenario)

    monkeypatch.setattr(runner_module, "run_scenario", polling)
    for record in service.stream(job.job_id):
        yielded.append(record)
    assert seen == [(0, 0), (3, 3), (4, 4)]
    final = service.poll(job.job_id)
    assert final.done and final.completed == final.total == 6
    assert final.cache_hits == 3


def test_a_warm_job_replaces_progress_a_fixed_number_of_times(tmp_path, monkeypatch):
    import repro.experiments.service as service_module

    scenarios = [Scenario(site="bridge", num_packets=1, seed=k) for k in range(40)]
    service = SweepService(tmp_path, max_workers=1)
    # Warm the cache with one simulation's statistics for every scenario:
    # the entries only have to exist.
    stats = runner_module.run_scenario(scenarios[0])
    monkeypatch.setattr(runner_module, "run_scenario", lambda scenario: stats)
    ExperimentRunner(max_workers=1, cache_dir=service.cache_dir).run(scenarios)

    def _boom(scenario):
        raise AssertionError("a warm job must not simulate")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    writes = []
    write_json = service_module._write_json

    def counted(path, data):
        writes.append(path.name)
        write_json(path, data)

    monkeypatch.setattr(service_module, "_write_json", counted)
    counts = []
    for n in (4, 40):
        writes.clear()
        job, records = _complete(service, scenarios[:n])
        final = service.poll(job.job_id)
        assert len(records) == n and final.done and final.cache_hits == n
        counts.append(writes.count("progress.json"))
    # Submission, stream start, after the last record, done.
    assert counts == [4, 4]


def test_done_job_streams_from_artifact_without_simulating(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)

    def _boom(scenario):
        raise AssertionError("a done job must not re-simulate")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    resubmitted = service.submit(scenarios)
    assert resubmitted.done
    replayed = list(service.stream(job.job_id))
    assert replayed == records


def test_scenario_cache_is_shared_with_runner(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    # Warm the per-scenario cache through a plain runner pointed at the
    # service's cache directory -- the service must pick the entries up.
    ExperimentRunner(max_workers=1, cache_dir=service.cache_dir).run(scenarios)
    job, _ = _complete(service, scenarios)
    assert service.poll(job.job_id).cache_hits == 2


def test_a_warm_job_serializes_each_scenario_three_times(tmp_path, monkeypatch):
    service = SweepService(tmp_path, max_workers=1)
    ExperimentRunner(max_workers=1, cache_dir=service.cache_dir).run(_scenarios(4))
    calls = []
    to_dict = Scenario.to_dict

    def counted(scenario):
        calls.append(scenario)
        return to_dict(scenario)

    monkeypatch.setattr(Scenario, "to_dict", counted)
    _complete(service, _scenarios(4))
    # Per scenario: submit's hash, the manifest entry and stream's check of
    # the decoded manifest entry against its hash.  The cache hits and the
    # artifact's scenario table reuse the hashed instances' serialization.
    assert len(calls) == 3 * 4


# ---------------------------------------------------------------- fetches
def test_fetch_exports_both_artifact_forms(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path / "svc", max_workers=1)
    job, records = _complete(service, scenarios)
    npz_out = service.fetch(job.job_id, tmp_path / "out.npz")
    json_out = service.fetch(job.job_id, tmp_path / "out.json")
    assert ColumnarResultSet.load_npz(npz_out) == ResultSet(records)
    assert ResultSet.load(json_out) == ResultSet(records)


def test_fetch_requires_a_finished_job(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(2))
    with pytest.raises(RuntimeError, match="stream it to completion"):
        service.fetch(job.job_id, tmp_path / "out.npz")


# ------------------------------------------------------------- robustness
def test_corrupt_artifact_is_treated_as_a_miss(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    service.artifact_path(job.job_id).write_bytes(b"rotten bytes")
    with pytest.warns(CacheMissWarning) as caught:
        resubmitted = service.submit(scenarios)
    assert caught[0].message.reason == "npz-corrupt"
    assert resubmitted.state == "submitted"
    # Re-streaming re-runs the sweep (served from the per-scenario JSON
    # cache) and heals the artifact.
    replayed = list(service.stream(job.job_id))
    assert replayed == records
    assert service.poll(job.job_id).cache_hits == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheMissWarning)
        assert service.submit(scenarios).done


def _count_loads(monkeypatch):
    """Record every ``ColumnarResultSet.load_npz`` call from now on."""
    calls = []
    load = ColumnarResultSet.load_npz.__func__

    def counted(cls, source):
        calls.append(source)
        return load(cls, source)

    monkeypatch.setattr(ColumnarResultSet, "load_npz", classmethod(counted))
    return calls


def test_a_replay_verifies_the_artifact_once(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    loads = _count_loads(monkeypatch)
    assert service.submit(scenarios).done
    assert list(service.stream(job.job_id)) == records
    assert len(loads) == 1
    # The verified set serves one read; the next read verifies the file.
    assert list(service.stream(job.job_id)) == records
    assert len(loads) == 2
    assert service.submit(scenarios).done
    assert service.result(job.job_id) == ResultSet(records)
    assert len(loads) == 3


def test_an_artifact_rotting_after_submit_is_a_miss_for_stream(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    assert service.submit(scenarios).done
    service.artifact_path(job.job_id).write_bytes(b"rotten bytes")
    with pytest.warns(CacheMissWarning) as caught:
        replayed = list(service.stream(job.job_id))
    assert caught[0].message.reason == "npz-corrupt"
    # Re-run from the per-scenario JSON cache, which heals the artifact.
    assert replayed == records
    assert service.poll(job.job_id).cache_hits == 2
    assert ColumnarResultSet.load_npz(service.artifact_path(job.job_id)) == ResultSet(records)


def test_an_artifact_replaced_after_submit_is_read_again(tmp_path):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job, records = _complete(service, scenarios)
    other = ColumnarResultSet(records[::-1]).save_npz(tmp_path / "other.npz")
    assert service.submit(scenarios).done
    # Written in place: the same file now holds another valid artifact.
    service.artifact_path(job.job_id).write_bytes(other.read_bytes())
    assert list(service.stream(job.job_id)) == records[::-1]


def test_a_verified_set_serves_only_its_own_job(tmp_path, monkeypatch):
    service = SweepService(tmp_path, max_workers=1)
    first, second = _scenarios(2, seed=11), _scenarios(2, seed=12)
    job_a, records_a = _complete(service, first)
    job_b, records_b = _complete(service, second)
    assert records_a != records_b
    loads = _count_loads(monkeypatch)
    assert service.submit(first).done
    assert list(service.stream(job_b.job_id)) == records_b
    assert len(loads) == 2
    # Job B's read dropped job A's verified set: A is read again.
    assert list(service.stream(job_a.job_id)) == records_a
    assert len(loads) == 3
    # Even when B's file holds A's very bytes, B's read decodes its file.
    service.artifact_path(job_b.job_id).write_bytes(
        service.artifact_path(job_a.job_id).read_bytes()
    )
    assert service.submit(first).done
    assert list(service.stream(job_b.job_id)) == records_a
    assert len(loads) == 5


def test_failed_job_records_the_error_and_recovers(tmp_path, monkeypatch):
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios)

    def _boom(scenario):
        raise RuntimeError("transducer on fire")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    with pytest.raises(RuntimeError, match="transducer on fire"):
        list(service.stream(job.job_id))
    failed = service.poll(job.job_id)
    assert failed.state == "failed"
    assert "transducer on fire" in failed.error
    # Once the fault clears, the same job streams to completion.
    monkeypatch.undo()
    records = list(service.stream(job.job_id))
    assert len(records) == 2
    final = service.poll(job.job_id)
    assert final.done and final.error == ""


def test_manifest_version_gate(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    scenarios = _scenarios(1)
    job = service.submit(scenarios)
    path = service.jobs_dir / job.job_id / "manifest.json"
    data = json.loads(path.read_text())
    # Version 1 manifests hold scenario entries that no longer decode;
    # version 2 manifests held the progress counters themselves.
    for version in (1, 2, 99):
        data["manifest_version"] = version
        path.write_text(json.dumps(data))
        for call in (
            lambda: service.poll(job.job_id),
            lambda: service.submit(scenarios),
            lambda: list(service.stream(job.job_id)),
            service.list_jobs,
        ):
            with pytest.raises(ValueError, match=f"unsupported manifest version {version}"):
                call()


# ------------------------------------------------------------ job layout
def test_manifest_is_written_once_and_progress_replaced_per_record(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(3))
    job_dir = service.jobs_dir / job.job_id
    manifest = job_dir / "manifest.json"

    def identity(path):
        stat = path.stat()
        return stat.st_ino, stat.st_mtime_ns, stat.st_size

    submitted = identity(manifest)
    sizes = []
    for _ in service.stream(job.job_id):
        assert identity(manifest) == submitted
        progress = json.loads((job_dir / "progress.json").read_text())
        assert set(progress) == {"state", "completed", "cache_hits", "error"}
        sizes.append((job_dir / "progress.json").stat().st_size)
    assert service.poll(job.job_id).done
    assert identity(manifest) == submitted
    assert max(sizes) < 100


def test_progress_record_size_does_not_depend_on_the_job_size(tmp_path):
    service = SweepService(tmp_path, max_workers=1)
    sizes = set()
    for n in (1, 300):
        job = service.submit([Scenario(site="bridge", num_packets=1, seed=k) for k in range(n)])
        path = service.jobs_dir / job.job_id / "progress.json"
        assert "scenario" not in path.read_text()
        sizes.add(path.stat().st_size)
    assert len(sizes) == 1


def test_manifest_without_progress_record_reads_as_a_fresh_job(tmp_path):
    # A kill between submission's two writes leaves only the manifest.
    scenarios = _scenarios(2)
    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(scenarios, label="cut")
    (service.jobs_dir / job.job_id / "progress.json").unlink()
    assert service.poll(job.job_id) == job
    assert service.submit(scenarios) == job
    assert len(list(service.stream(job.job_id))) == 2
    assert service.poll(job.job_id).done


@pytest.mark.parametrize("name, key, value, message", [
    ("manifest.json", "total", 3, "corrupt manifest"),
    ("manifest.json", "job_id", "0123456789abcdef", "corrupt manifest"),
    ("manifest.json", "label", None, "corrupt manifest"),
    ("manifest.json", "scenarios", {}, "corrupt manifest"),
    ("progress.json", "completed", 3, "corrupt progress record"),
    ("progress.json", "cache_hits", -1, "corrupt progress record"),
    ("progress.json", "state", "running", "corrupt progress record"),
    ("progress.json", "error", 0, "corrupt progress record"),
    # A decodable scenario entry edited away from its hash (5 m -> 7 m).
    ("manifest.json", ("scenarios", 1, "distance_m"), 7.0, "does not match its hash"),
])
def test_inconsistent_job_files_are_refused(tmp_path, name, key, value, message):
    service = SweepService(tmp_path, max_workers=1)
    scenarios = _scenarios(2)
    job = service.submit(scenarios)
    path = service.jobs_dir / job.job_id / name
    data = json.loads(path.read_text())
    *parents, leaf = key if isinstance(key, tuple) else (key,)
    target = data
    for step in parents:
        target = target[step]
    target[leaf] = value
    path.write_text(json.dumps(data))
    calls = [lambda: list(service.stream(job.job_id))]
    if not parents:
        # Job-level fields are checked by every reader; scenario entries
        # are decoded only to run them.
        calls += [lambda: service.poll(job.job_id), lambda: service.submit(scenarios)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.fixture(scope="module")
def finished_job(tmp_path_factory):
    service = SweepService(tmp_path_factory.mktemp("svc"), max_workers=1)
    scenarios = _scenarios(2, packets=1)
    job, _ = _complete(service, scenarios)
    return service, scenarios, job.job_id


@settings(max_examples=60)
@given(
    name=st.sampled_from(["manifest.json", "progress.json"]),
    flip=st.booleans(),
    where=st.floats(min_value=0.0, max_value=1.0),
    bit=st.integers(min_value=0, max_value=7),
)
@example(name="manifest.json", flip=False, where=0.0, bit=0)
@example(name="progress.json", flip=False, where=0.5, bit=0)
def test_corrupt_job_files_raise_only_key_or_value_errors(finished_job, name, flip, where, bit):
    service, scenarios, job_id = finished_job
    path = service.jobs_dir / job_id / name
    original = path.read_bytes()
    index = min(int(where * len(original)), len(original) - 1)
    if flip:
        corrupt = bytearray(original)
        corrupt[index] ^= 1 << bit
    else:
        corrupt = original[:index]
    path.write_bytes(bytes(corrupt))
    try:
        try:
            job = service.poll(job_id)
        except (KeyError, ValueError):
            pass
        else:  # what a poll reports is consistent
            assert job.job_id == job_id and job.total == 2
            assert job.state in ("submitted", "done", "failed")
            assert 0 <= job.completed <= 2 and 0 <= job.cache_hits <= 2
            assert job.completed == 2 or not job.done
        for call in (lambda: service.submit(scenarios), service.list_jobs):
            try:
                call()
            except (KeyError, ValueError):
                pass
    finally:
        path.write_bytes(original)
