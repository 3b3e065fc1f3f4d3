"""End-to-end benchmark of the reproduction: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload link-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``perfbench/README.md``).  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero, and no JSON line is
printed, when the code under test cannot be found or a run breaks.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("link-sweep", "net-250", "service-warm")
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Passes every untraced run makes at least (the second one re-serves the
#: first one's inputs and is checked against it).
MIN_PASSES = 2
#: Reference-kernel timings after every pass, and the kernel time that
#: defines the reference host speed (about its best on the VM described in
#: ``README.md``).
KERNEL_REPEATS = 3
REFERENCE_KERNEL_S = 0.020
#: Thread pool variables pinned to 1 before numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
    "op_s.ref": "s",
    "repeat_s.ref": "s",
    "work_per_s.ref": "1/s",
    "success_ratio": "ratio",
    "goodput_bps": "bps",
}

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure for this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=pathlib.Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def fingerprint() -> dict:
    """Machine and library identity of this run."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def time_setups(args, workdir: pathlib.Path) -> tuple[list[float], pathlib.Path]:
    """Time fresh-process set-ups; keep the last one's directory."""
    samples, kept = [], None
    for index in range(SETUP_REPEATS):
        target = workdir / f"setup-{index}"
        start = clock()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--workdir", str(target)],
            check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
        samples.append(clock() - start)
        if kept is not None:
            shutil.rmtree(kept, ignore_errors=True)
        kept = target
    return samples, kept


def best_total_s(steps) -> float:
    """Sum over step keys of each key's shortest time.

    Load from other tenants of the host only ever slows a step down, and
    comes in bursts shorter than a pass, so the shortest of a step's
    repeats is far steadier between runs than its median.
    """
    best: dict = {}
    for key, seconds in steps:
        best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


def reference_kernel() -> None:
    """A fixed event-queue loop (heap, dict, random draws) of ~20 ms.

    It does not touch the program under test, so its best time in a run
    measures only how fast the host is lending its CPU during that run.
    """
    heap, state, rng = [], {}, random.Random(1)
    for index in range(2000):
        heapq.heappush(heap, (rng.random(), index))
    for _ in range(25_000):
        when, index = heapq.heappop(heap)
        state[index] = state.get(index, 0) + 1
        heapq.heappush(heap, (when + rng.random(), index * 7919 % 5000))


def time_kernel(repeats: int) -> list[float]:
    """Kernel times, with the cyclic GC off so the program's heap is not scanned."""
    samples = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = clock()
            reference_kernel()
            samples.append(clock() - start)
    finally:
        gc.enable()
    return samples


def end_to_end(passes, setups, kernel, extra_attempted, extra_failed) -> tuple[dict, int, int]:
    first = passes[0]
    op_total = best_total_s(step for p in passes for step in p.steps)
    repeat_total = best_total_s(step for p in passes for step in p.repeat_steps)
    # Host load moves the kernel and the program alike for a whole run; the
    # ratio to the kernel's best time states each time at reference speed.
    scale = REFERENCE_KERNEL_S / min(kernel)
    print(f"# raw best times: op {op_total / first.ops:.6g} s, repeat "
          f"{repeat_total / first.repeat_ops:.6g} s, kernel {min(kernel):.6g} s")
    attempted = sum(p.attempted for p in passes) + extra_attempted
    failed = sum(p.failed for p in passes) + extra_failed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "op_s.ref": op_total / first.ops * scale,
        "repeat_s.ref": repeat_total / first.repeat_ops * scale,
        "work_per_s.ref": first.work / (op_total * scale),
        "success_ratio": first.outcome["success_ratio"],
        "goodput_bps": first.outcome["goodput_bps"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, attempted, failed


def run_untraced(workload_cls, args, recorder, workdir) -> tuple[dict, int, int, bool]:
    # The set-up runs in child processes first; a workload whose set-up
    # state is on disk continues from the last child's.
    setups, setup_dir = time_setups(args, workdir)
    workload = workload_cls(args.seed, setup_dir)
    if workload.process_local_setup:
        workload.setup()
    workload.prepare()
    passes, kernel = [], []
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < args.seconds:
        gc.collect()
        passes.append(workload.run_pass(recorder))
        kernel += time_kernel(KERNEL_REPEATS)
    extra_attempted, extra_failed = workload.finish()
    metrics, attempted, failed = end_to_end(passes, setups, kernel, extra_attempted, extra_failed)
    outcomes_equal = all(p.outcome == passes[0].outcome for p in passes)
    return metrics, attempted, failed, outcomes_equal


def run_traced(workload_cls, args, recorder, workdir) -> tuple[dict, int, int, bool]:
    import layers

    workload = workload_cls(args.seed, workdir)
    workload.setup()
    workload.prepare()
    # A first untraced pass warms process caches, so that the untraced and
    # traced passes compared below both run warm.
    start = clock()
    reference = workload.run_pass(recorder)
    untraced, traced, unrestored = [], [], []
    cpu_s = 0.0

    def untraced_pass() -> None:
        nonlocal cpu_s
        gc.collect()
        cpu_start = time.process_time()
        untraced.append(workload.run_pass(recorder))
        cpu_s += time.process_time() - cpu_start

    def traced_pass() -> None:
        gc.collect()
        layers.install(recorder)
        recorder.enabled = True
        try:
            traced.append(workload.run_pass(recorder))
        finally:
            recorder.restore()
        unrestored.extend(recorder.unrestored())

    while not traced or clock() - start < args.seconds:
        # Alternate which side of a pair runs first, so drift and warm-up
        # effects fall on both sides of the overhead comparison.
        pair = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for step in pair:
            step()
    extra_attempted, extra_failed = workload.finish()
    passes = [reference] + untraced + traced
    attempted = sum(p.attempted for p in passes) + extra_attempted
    failed = sum(p.failed for p in passes) + extra_failed
    outcomes_equal = all(p.outcome == reference.outcome for p in passes)
    counts: dict = {}
    for p in traced:
        for name, value in p.counts.items():
            counts[name] = counts.get(name, 0) + value
    metrics = layers.per_layer_metrics(
        recorder,
        passes=len(traced),
        workload_counts=counts,
        traced_wall_s=sum(p.wall_s for p in traced),
        untraced_wall_s=sum(p.wall_s for p in untraced),
        cpu_s=cpu_s,
    )
    if recorder.missing:
        print("# untraced boundaries (not found):", ", ".join(sorted(set(recorder.missing))))
    if unrestored:
        print("# NOT RESTORED:", ", ".join(sorted(set(unrestored))))
    return metrics, attempted, failed, outcomes_equal and not unrestored


def write_trace(recorder, args, fp: dict, metrics: dict) -> pathlib.Path:
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    np.savez_compressed(
        path,
        fingerprint=np.asarray(json.dumps(fp)),
        metrics=np.asarray(json.dumps(metrics)),
        **recorder.arrays(),
    )
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    load_program()
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed, args.workdir).setup()
        return 0

    fp = fingerprint()
    print("# fingerprint", json.dumps(fp, sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    recorder = SpanRecorder()
    try:
        workdir.mkdir()
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, consistent = run(workload_cls, args, recorder, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.trace:
        print(f"# spans written to {write_trace(recorder, args, fp, metrics).relative_to(ROOT)}")
    if not consistent:
        failed += 1
        print("# outcome metrics differ between passes or a patch was not restored")
    aliases = workload_cls.aliases
    for name, (value, unit) in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"# {name:42s} {value:.6g} {unit}{alias}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
