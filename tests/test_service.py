"""Tests for the streaming sweep service (repro.experiments.service)."""

import warnings

import pytest

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
    assert job.job_id == SweepService.job_id_for(scenarios)
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
    # One artifact per job: the JSON form is rendered on fetch, not stored.
    job_dir = service.artifact_path(job.job_id).parent
    assert sorted(p.name for p in job_dir.iterdir()) == ["manifest.json", "results.npz"]
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
    import json

    service = SweepService(tmp_path, max_workers=1)
    job = service.submit(_scenarios(1))
    path = service.jobs_dir / job.job_id / "manifest.json"
    data = json.loads(path.read_text())
    # Version 1 manifests hold scenario entries that no longer decode.
    for version in (1, 99):
        data["manifest_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="manifest version"):
            service.poll(job.job_id)
