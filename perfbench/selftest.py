"""Self-tests of the benchmark harness.

Run from the root of a checkout (takes a few seconds)::

    python3 perfbench/selftest.py

Checks, on shrunken versions of the three workloads:

* the traced pass leaves every outcome metric bit-identical;
* the layers' self times sum to the traced end-to-end time within 5%;
* every patched method is restored, and every layer boundary still exists;
* the span recorder's self-time arithmetic on a toy call tree;
* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import layers
import run
import workloads
from spans import SpanRecorder

TOLERANCE = 0.05


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Toy:
    def outer(self):
        _busy(0.02)
        self.inner()
        return list(self.stream())

    def inner(self):
        _busy(0.01)

    def stream(self):
        yield 1
        _busy(0.01)
        yield 2

    @classmethod
    def build(cls):
        _busy(0.005)
        return cls()


def check_recorder() -> None:
    originals = {name: Toy.__dict__[name] for name in ("outer", "inner", "stream", "build")}
    recorder = SpanRecorder()
    try:
        for name in ("outer", "inner", "stream", "build"):
            assert recorder.patch(f"toy.{name}", __name__, f"Toy.{name}")
        assert not recorder.patch("toy.gone", __name__, "Toy.missing")
        recorder.enabled = True
        start = time.perf_counter()
        with recorder.span("root"):
            assert Toy.build().outer() == [1, 2]
        wall = time.perf_counter() - start
    finally:
        recorder.restore()
    own = recorder.self_times()
    assert abs(sum(own.values()) - wall) < 0.002, (own, wall)
    assert 0.019 < own["toy.outer"] < 0.03, own
    assert 0.009 < own["toy.inner"] < 0.015, own
    assert 0.009 < own["toy.stream"] < 0.015, own
    assert 0.004 < own["toy.build"] < 0.01, own
    assert recorder.calls["toy.stream"] == 1 and recorder.num_spans == 8
    assert recorder.missing == [f"{__name__}.Toy.missing"]
    assert not recorder.unrestored()
    assert all(Toy.__dict__[name] is original for name, original in originals.items())
    print("ok   span recorder: self times, generators, classmethods, restore")


class SmallLink(workloads.LinkSweep):
    distances_m = (5.0, 20.0)
    replicas = 1
    packets = 2


class SmallNet(workloads.Net250):
    nodes = 100
    seeds_per_pass = 2


class SmallService(workloads.ServiceWarm):
    distances_m = (5.0, 20.0)
    replicas = 1


HOME_LAYERS = {
    SmallLink: ("channel.transmit.self_s", "core.preamble.detect.self_s", "fec.decode.self_s"),
    SmallNet: ("net.scheduler.self_s", "net.routing.self_s", "net.scheduler.events"),
    SmallService: ("experiments.service.stream.self_s", "experiments.records.load.calls",
                   "experiments.service.manifest_bytes"),
}


def check_workload(workload_cls, workdir) -> None:
    args = argparse.Namespace(seed=3, seconds=0.0)
    recorder = SpanRecorder()
    metrics, attempted, failed, consistent = run.run_traced(workload_cls, args, recorder, workdir)
    name = workload_cls.__mro__[1].name
    assert failed == 0 and attempted > 0, (name, attempted, failed)
    assert consistent, f"{name}: outcomes changed under tracing or a patch was not restored"
    assert not recorder.missing, f"{name}: boundaries not found: {recorder.missing}"
    assert not recorder.unrestored(), recorder.unrestored()
    assert [n for n, _ in layers.per_layer_names()] == list(metrics)
    ratio = metrics["trace.self_sum_ratio"][0]
    assert abs(ratio - 1.0) <= TOLERANCE, f"{name}: layer self times cover {ratio:.3f} of the traced time"
    for metric in HOME_LAYERS[workload_cls]:
        assert metrics[metric][0] > 0, f"{name}: {metric} is zero"
    print(f"ok   {name}: outcomes equal under tracing, self-time sum {ratio:.4f}, all restored")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == layers.per_layer_names(), "per_layer differs from run.py --trace 1"
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(run.END_TO_END_UNITS), e2e ^ set(run.END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]], metric
    print("ok   BENCHMARK.json matches the metrics run.py prints")


def main() -> int:
    run.load_program()
    check_recorder()
    check_benchmark_json()
    workdir = run.WORK_DIR / f"selftest-{os.getpid()}"
    try:
        for workload_cls in HOME_LAYERS:
            target = workdir / workload_cls.__name__
            target.mkdir(parents=True)
            check_workload(workload_cls, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
