"""The start-up contract: only the PHY loads SciPy, and never its signal stack.

Importing SciPy costs a large share of a short run's wall time, so
``import repro`` and the commands that never run the PHY (``net``,
``jobs``, ``trace replay``) must not load any ``scipy`` module; the PHY's
FFT and Toeplitz kernels load on their first call, and no PHY run loads
``scipy.signal`` (the filter designs are numpy).  Neither do they hash
the package source: the code digest is computed by the first cache use.  Each check runs in a
fresh interpreter, since this test process holds SciPy already.  The
probes start together and run side by side, which keeps the module at a
few seconds.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.experiments.runner as runner_module
from repro.experiments import Scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACE_FIXTURE = ROOT / "tests" / "data" / "trace_fixture_9node.jsonl"

_PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def subpackages():
    return sorted({".".join(m.split(".")[:2]) for m in scipy_modules()})
"""

#: Imports the package and the CLI, then runs each command of argv[1] (a
#: JSON object of name -> argument list) through ``repro.cli.main``.
_CLI_PROBE = _PRELUDE + """
report = {}
import repro
report["import repro"] = scipy_modules()
import repro.cli
report["import repro.cli"] = scipy_modules()
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    report[name] = [code, scipy_modules()]
from repro.experiments.runner import code_digest
report["code digests"] = code_digest.cache_info().currsize
print(json.dumps(report))
"""

_RUN_PROBE = _PRELUDE + """
from repro.experiments import Scenario
before = subpackages()
Scenario(num_packets=1).run()
print(json.dumps({"before": before, "after": subpackages()}))
"""

_PREFORK_PROBE = _PRELUDE + """
from repro.experiments import runner
runner.load_scipy_kernels()
print(json.dumps(subpackages()))
"""


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """Start every probe interpreter at once; map name -> (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    commands = {
        "net": ["net", "--nodes", "20", "--seed", "1"],
        "jobs": ["jobs", "--jobs", str(tmp_path_factory.mktemp("empty-root"))],
        "trace replay": [
            "trace", "replay", "--trace", str(TRACE_FIXTURE), "--check-roundtrip",
        ],
    }
    scripts = {
        "cli": [_CLI_PROBE, json.dumps(commands)],
        "run": [_RUN_PROBE],
        "prefork": [_PREFORK_PROBE],
    }
    started = {
        name: subprocess.Popen(
            [sys.executable, "-c", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for name, argv in scripts.items()
    }
    outputs = {}
    try:
        for name, process in started.items():
            stdout, stderr = process.communicate(timeout=120)
            outputs[name] = (process.returncode, stdout, stderr)
    finally:
        for process in started.values():
            if process.poll() is None:
                process.kill()
                process.communicate()
    return outputs


def _report(probes, name: str):
    """The JSON report a probe printed last; fails on a crashed probe."""
    code, stdout, stderr = probes[name]
    assert code == 0, f"{name} probe failed:\n{stderr}"
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("statement", ["import repro", "import repro.cli"])
def test_import_loads_no_scipy(probes, statement):
    assert _report(probes, "cli")[statement] == []


@pytest.mark.parametrize("command", ["net", "jobs", "trace replay"])
def test_commands_without_the_phy_load_no_scipy(probes, command):
    code, modules = _report(probes, "cli")[command]
    assert code == 0
    assert modules == []


def test_import_and_commands_without_a_cache_compute_no_code_digest(probes):
    # The digest keys cache entries and job ids only; hashing the package
    # source at import, or in a net run, would charge every process.
    assert _report(probes, "cli")["code digests"] == 0


def test_prefork_load_covers_every_subpackage_a_phy_run_loads(probes):
    run = _report(probes, "run")
    assert run["before"] == []
    assert "scipy.fft" in run["after"]  # the PHY does load SciPy's FFT
    missing = sorted(set(run["after"]) - set(_report(probes, "prefork")))
    assert not missing, f"workers would import these after the fork: {missing}"


@pytest.mark.parametrize(
    "subpackage", ["scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize"]
)
def test_a_phy_run_loads_no_signal_stack(probes, subpackage):
    # The filter designs are numpy: a packet needs only SciPy's FFT and
    # Toeplitz kernels, not the signal stack and what it pulls in.
    assert subpackage not in _report(probes, "run")["after"]


def test_no_src_module_imports_scipy_signal():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(name == "scipy.signal" or name.startswith("scipy.signal.")
                   for name in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, f"scipy.signal imported at {offenders}"


def test_runner_loads_the_kernels_before_it_forks(monkeypatch):
    events = []

    class RecordingPool:
        """Stands in for the process pool, running chunks in-process."""

        def __init__(self, max_workers):
            events.append("fork")

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, items, chunksize):
            return map(function, items)

    monkeypatch.setattr(runner_module, "load_scipy_kernels", lambda: events.append("load"))
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", RecordingPool)
    scenarios = [Scenario(distance_m=d, num_packets=1) for d in (4.0, 5.0)]
    records = runner_module.ExperimentRunner(max_workers=2).run(scenarios)
    assert len(records) == 2
    assert events == ["load", "fork"]


def test_serial_runner_loads_the_kernels_before_its_first_scenario(monkeypatch, tmp_path):
    events = []
    execute = runner_module._execute_scenario

    def recording_execute(scenario):
        events.append("run")
        return execute(scenario)

    monkeypatch.setattr(runner_module, "load_scipy_kernels", lambda: events.append("load"))
    monkeypatch.setattr(runner_module, "_execute_scenario", recording_execute)
    scenarios = [Scenario(distance_m=d, num_packets=1) for d in (4.0, 5.0)]
    runner = runner_module.ExperimentRunner(max_workers=1, cache_dir=tmp_path)
    assert len(runner.run(scenarios)) == 2
    assert events == ["load", "run", "run"]
    # Served wholly from the cache, a run has no work and loads nothing.
    events.clear()
    assert len(runner.run(scenarios)) == 2
    assert runner.last_cache_hits == 2
    assert events == []
