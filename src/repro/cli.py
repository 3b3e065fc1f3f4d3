"""Command-line interface for the AquaApp reproduction.

Provides quick access to the most common experiments without writing any
code::

    python -m repro.cli link --site lake --distance 10 --packets 20
    python -m repro.cli sweep --site lake --distance 5 10 20 --scheme adaptive fixed-3k
    python -m repro.cli net --nodes 50 --routing greedy --traffic poisson
    python -m repro.cli trace capture --nodes 9 --out run.jsonl
    python -m repro.cli trace compare --trace run.jsonl --b-link physical
    python -m repro.cli sos --distance 100 --rate 10 --repetitions 5
    python -m repro.cli mac --transmitters 3 --packets 120
    python -m repro.cli validate --quick --compare-reference
    python -m repro.cli sites

Each subcommand prints a small report mirroring the metrics the paper uses
(selected bitrate, PER, BER, detection rates, collision fractions).  The
``sweep`` subcommand expands a parameter grid with
:mod:`repro.experiments` and runs it across worker processes;
``validate`` runs the :mod:`repro.validation` Monte-Carlo figure harness
against the committed ``VALID_<figure>.json`` envelopes.  Timing lives
outside the package, in the end-to-end benchmark ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.app.sos import SosBeaconService
from repro.channel.motion import MOTION_PRESETS
from repro.environments.factory import build_channel
from repro.environments.sites import SITE_CATALOG
from repro.experiments import SCHEME_CATALOG, ExperimentRunner, Scenario, Sweep
from repro.mac.simulator import MacNetworkSimulator, TransmitterConfig
from repro.utils.atomic import atomic_write


def _add_link_parser(subparsers) -> None:
    parser = subparsers.add_parser("link", help="run adaptive packet exchanges over one link")
    parser.add_argument("--site", choices=sorted(SITE_CATALOG), default="lake")
    parser.add_argument("--distance", type=float, default=5.0, help="distance in metres")
    parser.add_argument("--depth", type=float, default=1.0, help="device depth in metres")
    parser.add_argument("--packets", type=int, default=20)
    parser.add_argument("--motion", choices=sorted(MOTION_PRESETS), default="static")
    parser.add_argument("--scheme", choices=sorted(SCHEME_CATALOG), default="adaptive")
    parser.add_argument("--seed", type=int, default=0)


def _add_sweep_grid_args(parser) -> None:
    """Grid axis flags shared by the sweep and serve subcommands."""
    parser.add_argument("--site", nargs="+", choices=sorted(SITE_CATALOG), default=["lake"])
    parser.add_argument("--distance", nargs="+", type=float, default=[5.0],
                        help="distances in metres")
    parser.add_argument("--depth", nargs="+", type=float, default=[1.0],
                        help="device depths in metres")
    parser.add_argument("--orientation", nargs="+", type=float, default=[0.0],
                        help="azimuth offsets in degrees")
    parser.add_argument("--motion", nargs="+", choices=sorted(MOTION_PRESETS),
                        default=["static"])
    parser.add_argument("--scheme", nargs="+", choices=sorted(SCHEME_CATALOG),
                        default=["adaptive"])
    parser.add_argument("--packets", type=int, default=20, help="packets per scenario")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario i uses seed + i")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per core, capped "
                             "at the number of scenarios; 1 = serial)")


def _add_sweep_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep",
        help="run a declarative grid of link experiments, in parallel",
        description="Expand a parameter grid into scenarios and run them with "
                    "the experiment runner.  Every axis flag accepts several "
                    "values; the grid is their cartesian product, and each "
                    "scenario gets a deterministic seed derived from --seed.",
    )
    _add_sweep_grid_args(parser)
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="cache results as JSON under DIR, keyed by scenario hash")
    parser.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                        help="also write the result set to FILE as JSON")
    parser.add_argument("--npz", metavar="FILE", dest="npz_path", default=None,
                        help="also write the result set to FILE as a "
                             "columnar .npz artifact")
    parser.add_argument("--stream", action="store_true",
                        help="print a progress/ETA line to stderr as each "
                             "scenario completes")


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="submit a sweep to the streaming job service and stream results",
        description="Submit the parameter grid as a content-addressed job "
                    "under --jobs, stream its records as they complete, and "
                    "leave a results.npz artifact behind (`jobs --fetch` "
                    "exports it as .npz or JSON).  Resubmitting an identical "
                    "grid is served entirely from the artifact (a 100% "
                    "cache hit).",
    )
    _add_sweep_grid_args(parser)
    parser.add_argument("--jobs", metavar="DIR", dest="jobs_dir", required=True,
                        help="service root directory (holds jobs/ and cache/)")
    parser.add_argument("--label", default="", help="human-readable job tag")


def _add_jobs_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "jobs",
        help="inspect the sweep job service: list, show, fetch artifacts",
    )
    parser.add_argument("--jobs", metavar="DIR", dest="jobs_dir", required=True,
                        help="service root directory (holds jobs/ and cache/)")
    parser.add_argument("--show", metavar="JOB_ID", default=None,
                        help="print one job's state and (when done) its table")
    parser.add_argument("--fetch", metavar="JOB_ID", default=None,
                        help="export a finished job's results to --out")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="destination for --fetch (.npz = columnar "
                             "artifact, anything else = JSON)")


def _add_net_scenario_args(parser) -> None:
    """Flags describing one NetScenario (shared by net/trace subcommands)."""
    from repro.experiments.net_scenario import (
        ARQ_KINDS,
        LINK_KINDS,
        TOPOLOGY_KINDS,
        TRAFFIC_KINDS,
    )
    from repro.net.congestion import CC_KINDS
    from repro.net.routing import ROUTING_CATALOG

    parser.add_argument("--site", choices=sorted(SITE_CATALOG), default="lake")
    parser.add_argument("--nodes", type=int, default=9, help="deployment size")
    parser.add_argument("--topology", choices=TOPOLOGY_KINDS, default="grid")
    parser.add_argument("--spacing", type=float, default=8.0,
                        help="node spacing in metres")
    parser.add_argument("--range", dest="comm_range", type=float, default=12.0,
                        help="neighbour range in metres")
    parser.add_argument("--routing", choices=sorted(ROUTING_CATALOG), default="greedy")
    parser.add_argument("--link", choices=LINK_KINDS, default="calibrated")
    parser.add_argument("--arq", choices=ARQ_KINDS, default="go-back-n")
    parser.add_argument("--window", type=int, default=4,
                        help="ARQ window size (segments in flight)")
    parser.add_argument("--timeout", type=float, default=6.0,
                        help="ARQ retransmission timeout in seconds (the "
                             "reno controller adapts from this initial "
                             "value)")
    parser.add_argument("--max-retries", type=int, default=4,
                        help="retransmissions per segment before a flow "
                             "aborts")
    parser.add_argument("--cc", choices=CC_KINDS, default="fixed",
                        help="per-flow congestion controller: 'fixed' is the "
                             "legacy constant window, 'reno' the AIMD "
                             "controller with adaptive RTO")
    parser.add_argument("--flows", type=int, default=None,
                        help="run N concurrent convergecast flows (the N "
                             "nodes farthest from the destination, default "
                             "n0, all send through shared relays)")
    parser.add_argument("--queue-capacity", type=int, default=None,
                        help="bound every node's transmit buffer to this "
                             "many packets (tail drop, reported as queue "
                             "drops)")
    parser.add_argument("--traffic", choices=TRAFFIC_KINDS, default="poisson")
    parser.add_argument("--rate", type=float, default=0.02,
                        help="messages per second per source")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="traffic horizon in seconds (simulated)")
    parser.add_argument("--destination", default=None,
                        help="fixed destination node (default: random peers)")
    parser.add_argument("--ttl", type=int, default=8,
                        help="hop budget per packet copy (raise for large "
                             "deployments, e.g. 80 for a 1000-node grid)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="inject a repro.faults schedule (JSON) into the "
                             "run: node crashes/recoveries, link blackouts "
                             "and degradations, noise bursts, energy "
                             "depletion, seeded churn")
    parser.add_argument("--no-repair", action="store_true",
                        help="with --faults: disable the resilience response "
                             "(liveness tracking, route repair, proactive "
                             "aborts, SOS re-flooding) -- the chaos A/B "
                             "baseline")


def _net_scenario_from_args(args, **forced):
    """Build the NetScenario the shared flags describe."""
    from repro.experiments.net_scenario import NetScenario

    fields = dict(
        site=args.site,
        topology=args.topology,
        num_nodes=args.nodes,
        spacing_m=args.spacing,
        comm_range_m=args.comm_range,
        routing=args.routing,
        link=args.link,
        arq=args.arq,
        window_size=args.window,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        cc=args.cc,
        num_flows=args.flows,
        queue_capacity=args.queue_capacity,
        traffic=args.traffic,
        rate_msgs_per_s=args.rate,
        duration_s=args.duration,
        destination=args.destination,
        ttl=args.ttl,
        seed=args.seed,
    )
    faults_path = getattr(args, "faults", None)
    if faults_path:
        from repro.faults import load_schedule

        schedule = load_schedule(faults_path)
        if getattr(args, "no_repair", False):
            schedule = schedule.with_repair(False)
        fields["faults_json"] = schedule.to_json()
    fields.update(forced)
    return NetScenario(**fields)


def _add_net_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "net",
        help="simulate a multi-hop underwater network",
        description="Run one repro.net scenario: N nodes at a site, a "
                    "routing protocol, a per-hop link model (full PHY or "
                    "the PHY-calibrated fast table), optional sliding-window "
                    "ARQ and a traffic workload.  Prints PDR, end-to-end "
                    "latency, hop counts and an energy proxy.",
    )
    _add_net_scenario_args(parser)
    parser.add_argument("--packets-per-point", type=int, default=None,
                        help="with --link calibrated: rebuild the PER/bitrate "
                             "table from the full PHY with this many packets "
                             "per distance (progress/ETA printed) instead of "
                             "replaying the baked lake table")
    parser.add_argument("--quick", action="store_true",
                        help="cap the traffic horizon at 30 simulated seconds "
                             "-- the CI smoke mode for large deployments "
                             "(e.g. `net --nodes 1000 --quick`)")
    parser.add_argument("--progress", action="store_true",
                        help="print progress/ETA lines while the event queue "
                             "drains (long runs)")
    parser.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                        help="also write the result summary to FILE as JSON")


def _add_trace_parser(subparsers) -> None:
    from repro.experiments.net_scenario import ARQ_KINDS, LINK_KINDS
    from repro.net.routing import ROUTING_CATALOG

    parser = subparsers.add_parser(
        "trace",
        help="capture, replay, synthesize and compare app-layer traces",
        description="The repro.trace workflows: `capture` records a network "
                    "run as a portable trace (JSON lines, or columnar .npz "
                    "by extension), `replay` feeds a trace back through any "
                    "stack configuration deterministically, `synth` expands "
                    "a parameterized user population into a replayable "
                    "trace, and `compare` replays one trace against two "
                    "stacks and reports the QoE deltas (latency "
                    "percentiles, message QoE score, SOS deadline misses).",
    )
    trace_sub = parser.add_subparsers(dest="trace_command", required=True)

    capture = trace_sub.add_parser(
        "capture", help="run a scenario and record its app-layer trace")
    _add_net_scenario_args(capture)
    capture.add_argument("--out", required=True, metavar="FILE",
                         help="trace file to write (.jsonl or .npz)")
    capture.add_argument("--progress", action="store_true",
                         help="print progress/ETA lines during the run")

    replay = trace_sub.add_parser(
        "replay", help="replay a trace against a (possibly modified) stack")
    replay.add_argument("--trace", required=True, dest="trace_path",
                        metavar="FILE", help="trace file (.jsonl or .npz)")
    replay.add_argument("--link", choices=LINK_KINDS, default=None,
                        help="override the captured stack's link model")
    replay.add_argument("--routing", choices=sorted(ROUTING_CATALOG), default=None,
                        help="override the captured stack's routing")
    replay.add_argument("--arq", choices=ARQ_KINDS, default=None,
                        help="override the captured stack's ARQ mode")
    replay.add_argument("--seed", type=int, default=None,
                        help="override the captured stack's seed")
    replay.add_argument("--check-roundtrip", action="store_true",
                        help="assert the replay reproduces the capture run's "
                             "metrics bit for bit (no overrides allowed); "
                             "exit 1 on any difference")
    replay.add_argument("--progress", action="store_true",
                        help="print progress/ETA lines during the replay")
    replay.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                        help="also write the result + QoE report as JSON")

    synth = trace_sub.add_parser(
        "synth", help="synthesize a user-population workload into a trace")
    _add_net_scenario_args(synth)
    synth.add_argument("--group-size", type=int, default=4,
                       help="users per dive group / vessel crew")
    synth.add_argument("--duty", type=float, default=0.35,
                       help="fraction of time a user is in an active session")
    synth.add_argument("--session", type=float, default=120.0,
                       help="mean active-session length in seconds")
    synth.add_argument("--diurnal-period", type=float, default=None,
                       help="activity-cycle period in seconds "
                            "(default: duration/2)")
    synth.add_argument("--diurnal-depth", type=float, default=0.8,
                       help="rate swing of the activity cycle in [0, 1]")
    synth.add_argument("--size-mean", type=float, default=16.0,
                       help="lognormal message-size scale in bits")
    synth.add_argument("--size-sigma", type=float, default=1.0,
                       help="lognormal shape (heavier tail when larger)")
    synth.add_argument("--out", required=True, metavar="FILE",
                       help="trace file to write (.jsonl or .npz)")

    compare = trace_sub.add_parser(
        "compare", help="replay one trace against two stacks, report QoE deltas")
    compare.add_argument("--trace", required=True, dest="trace_path",
                         metavar="FILE", help="trace file (.jsonl or .npz)")
    for side, default_hint in (("a", "the captured stack"),
                               ("b", "the full-PHY reference")):
        compare.add_argument(f"--{side}-link", choices=LINK_KINDS, default=None,
                             help=f"stack {side.upper()} link model "
                                  f"(default: {default_hint})")
        compare.add_argument(f"--{side}-routing", choices=sorted(ROUTING_CATALOG),
                             default=None,
                             help=f"stack {side.upper()} routing override")
        compare.add_argument(f"--{side}-arq", choices=ARQ_KINDS, default=None,
                             help=f"stack {side.upper()} ARQ override")
    compare.add_argument("--tau", type=float, default=None,
                         help="QoE latency decay constant in seconds "
                              "(default: 30)")
    compare.add_argument("--sos-deadline", type=float, default=None,
                         help="SOS alert delivery deadline in seconds "
                              "(default: 60)")
    compare.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                         help="also write the comparison as JSON")


def _add_validate_parser(subparsers) -> None:
    from repro.validation import available_figures

    parser = subparsers.add_parser(
        "validate",
        help="Monte-Carlo validation of the paper figures with CI gates",
        description="Run each figure spec as N seeded trials per grid "
                    "point, report 95% Wilson/normal confidence intervals "
                    "per metric, check the paper's claims on the pooled "
                    "estimates (exit 1 on a failed claim), and optionally "
                    "gate the headline metrics against the committed "
                    "VALID_<figure>.json envelopes.",
    )
    parser.add_argument("--figure", nargs="+", choices=available_figures(),
                        default=None, help="figures to run (default: all)")
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte-Carlo trials per grid point "
                             "(default: 5, or 2 with --quick)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed offsetting every trial seed")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: quick grid subsets, fewer "
                             "trials/packets")
    parser.add_argument("--compare-reference", action="store_true",
                        help="gate headline metrics against the committed "
                             "VALID_<figure>.json envelopes (exit 1 on fail)")
    parser.add_argument("--write-reference", action="store_true",
                        help="(re)write VALID_<figure>.json from this run -- "
                             "do this after an intentional physics change")
    parser.add_argument("--reference-dir", metavar="DIR", default=".",
                        help="directory of the VALID_*.json envelopes "
                             "(default: current directory)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the trials (default: one "
                             "per CPU; 1 runs them in this process)")
    parser.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                        help="also write the validation report to FILE as JSON")


def _add_sos_parser(subparsers) -> None:
    parser = subparsers.add_parser("sos", help="broadcast SoS beacons over a long-range link")
    parser.add_argument("--site", choices=sorted(SITE_CATALOG), default="beach")
    parser.add_argument("--distance", type=float, default=100.0)
    parser.add_argument("--rate", type=int, choices=[5, 10, 20], default=10)
    parser.add_argument("--user-id", type=int, default=27)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)


def _add_chaos_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help="fault-injection A/B: same faults with repair on vs off",
        description="Run one repro.net scenario twice under the same fault "
                    "schedule -- once with the resilience response enabled "
                    "(liveness tracking, route repair, proactive aborts, SOS "
                    "re-flooding) and once with it disabled -- and compare "
                    "delivery, latency and per-reason drop/abort counters.  "
                    "Without --faults, a seeded random churn schedule is "
                    "generated from --churn-rate/--mean-downtime.",
    )
    _add_net_scenario_args(parser)
    parser.add_argument("--churn-rate", type=float, default=0.002,
                        help="without --faults: per-node crash rate in "
                             "crashes per second (exponential up-times)")
    parser.add_argument("--mean-downtime", type=float, default=60.0,
                        help="without --faults: mean outage length in "
                             "seconds (exponential down-times)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="without --faults: seed for the generated churn "
                             "schedule (independent of the scenario seed)")
    parser.add_argument("--json", metavar="FILE", dest="json_path", default=None,
                        help="also write both runs' metrics and the schedule "
                             "to FILE as JSON")


def _add_mac_parser(subparsers) -> None:
    parser = subparsers.add_parser("mac", help="simulate the carrier-sense MAC")
    parser.add_argument("--transmitters", type=int, default=3)
    parser.add_argument("--packets", type=int, default=120)
    parser.add_argument("--no-carrier-sense", action="store_true")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AquaApp reproduction: underwater messaging experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_link_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_jobs_parser(subparsers)
    _add_net_parser(subparsers)
    _add_trace_parser(subparsers)
    _add_validate_parser(subparsers)
    _add_sos_parser(subparsers)
    _add_chaos_parser(subparsers)
    _add_mac_parser(subparsers)
    subparsers.add_parser("sites", help="list the simulated evaluation sites")
    return parser


# --------------------------------------------------------------------- commands
def _run_link(args) -> int:
    try:
        scenario = Scenario(
            site=args.site, distance_m=args.distance, tx_depth_m=args.depth,
            motion=args.motion, scheme=args.scheme, num_packets=args.packets,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = scenario.run()
    print(f"site={scenario.site.name} distance={args.distance} m depth={args.depth} m "
          f"motion={args.motion} scheme={args.scheme} packets={args.packets}")
    print(f"  packet error rate        : {stats.packet_error_rate:.1%}")
    print(f"  median coded bitrate     : {stats.median_bitrate_bps:.0f} bps")
    print(f"  uncoded (coded-stream) BER: {stats.coded_bit_error_rate:.3f}")
    print(f"  preamble detection rate  : {stats.preamble_detection_rate:.1%}")
    print(f"  feedback error rate      : {stats.feedback_error_rate:.1%}")
    return 0


def _grid_scenarios(args) -> list[Scenario]:
    """Expand the shared sweep/serve grid flags into scenarios."""
    sweep = (
        Sweep(Scenario(num_packets=args.packets))
        .over(
            site=args.site,
            distance_m=args.distance,
            tx_depth_m=args.depth,
            orientation_deg=args.orientation,
            motion=args.motion,
            scheme=args.scheme,
        )
        .seeded(args.seed)
    )
    return sweep.scenarios()


def _run_sweep(args) -> int:
    try:
        scenarios = _grid_scenarios(args)
        runner = ExperimentRunner(max_workers=args.workers, cache_dir=args.cache)
    except ValueError as error:
        # Invalid grid parameters (bad distance/range, worker count, ...);
        # genuine simulation errors during the run keep their tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = runner.run_columnar(scenarios, progress=True if args.stream else None)
    workers = args.workers if args.workers is not None else "auto"
    print(f"{len(scenarios)} scenario(s), {args.packets} packets each, "
          f"workers={workers}"
          + (f", cache hits {runner.last_cache_hits}/{len(scenarios)}"
             if args.cache else ""))
    print(results.to_table())
    print(f"  total simulated work     : {results.total_elapsed_s:.1f} s")
    if args.json_path:
        path = results.save(args.json_path)
        print(f"  results written to       : {path}")
    if args.npz_path:
        path = results.save_npz(args.npz_path)
        print(f"  columnar artifact        : {path}")
    return 0


def _run_serve(args) -> int:
    from repro.experiments.service import SweepService

    try:
        scenarios = _grid_scenarios(args)
        service = SweepService(args.jobs_dir, max_workers=args.workers)
        # An older-version or unreadable job directory for this grid is
        # refused here, as `cli jobs` refuses it.
        job = service.submit(scenarios, label=args.label)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    served_from_artifact = job.done
    print(f"job {job.job_id}: {job.total} scenario(s), state={job.state}")
    count = 0
    for record in service.stream(job.job_id):
        count += 1
        print(f"  [{count}/{job.total}] {record.scenario.describe()} "
              f"per={record.packet_error_rate:.2f} "
              f"median_bps={record.median_bitrate_bps:.0f}")
    final = service.poll(job.job_id)
    # Streaming a finished job touches no simulator at all; report it as
    # the full-sweep cache hit it is.
    hits = final.total if served_from_artifact else final.cache_hits
    print(f"job {job.job_id} done: cache hits {hits}/{final.total} "
          f"(artifact: {service.artifact_path(job.job_id)})")
    return 0


def _run_jobs(args) -> int:
    from repro.experiments.service import SweepService

    service = SweepService(args.jobs_dir)
    if args.fetch:
        if not args.out:
            print("error: --fetch requires --out", file=sys.stderr)
            return 2
        try:
            path = service.fetch(args.fetch, args.out)
        except (KeyError, RuntimeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"job {args.fetch} artifact written to {path}")
        return 0
    if args.show:
        try:
            job = service.poll(args.show)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"job {job.job_id}: state={job.state} "
              f"completed={job.completed}/{job.total} "
              f"cache_hits={job.cache_hits}"
              + (f" label={job.label}" if job.label else ""))
        if job.done:
            print(service.result(job.job_id).to_table())
        return 0
    try:
        jobs = service.list_jobs()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(f"{job.job_id}  {job.state:9s} {job.completed}/{job.total}"
              + (f"  {job.label}" if job.label else ""))
    return 0


def _run_validate(args) -> int:
    from repro.validation import (
        FigureReport,
        MonteCarloRunner,
        ValidationReport,
        available_figures,
        check_against_envelope,
        evaluate_claims,
        get_figure,
        load_envelope,
        valid_json_path,
        write_envelope,
    )

    if args.trials is not None and args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    if args.compare_reference and args.write_reference:
        print("error: --compare-reference and --write-reference are exclusive",
              file=sys.stderr)
        return 2
    if args.write_reference and args.quick:
        # A quick-grid envelope would only cover the quick axis subset, so
        # every later full-grid comparison would fail on the missing
        # points; references must come from full runs (see README).
        print("error: --write-reference needs a full run (drop --quick)",
              file=sys.stderr)
        return 2
    # Each named figure runs once, in first-seen order.
    figures = list(dict.fromkeys(args.figure or available_figures()))
    trials = args.trials if args.trials is not None else (2 if args.quick else 5)
    # Read every envelope before the first trial, so a missing one fails
    # at once rather than after the figures before it have run.
    envelopes = {}
    if args.compare_reference:
        for name in figures:
            envelope_path = valid_json_path(name, args.reference_dir)
            try:
                envelopes[name] = load_envelope(envelope_path)
            except (OSError, ValueError, KeyError) as error:
                print(f"error: cannot read envelope {envelope_path}: {error}",
                      file=sys.stderr)
                return 2

    try:
        runner = MonteCarloRunner(
            trials=trials,
            base_seed=args.seed,
            max_workers=args.workers,
            progress=lambda message: print(f"  [mc] {message}", file=sys.stderr),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = ValidationReport()
    for name in figures:
        spec = get_figure(name)
        result = runner.run(spec, quick=args.quick)
        figure_report = FigureReport(
            result=result, claims=evaluate_claims(spec, result)
        )
        if args.compare_reference:
            figure_report.checks = check_against_envelope(result, envelopes[name], spec)
            figure_report.compared = True
        if args.write_reference:
            path = write_envelope(result, args.reference_dir)
            print(f"  envelope written: {path}", file=sys.stderr)
        report.add(figure_report)

    print(report.to_markdown())
    if args.json_path:
        path = report.save(args.json_path)
        print(f"report written to {path}")
    failures = [
        f"  {fig.result.figure}: {failure}"
        for fig in report.figures
        for failure in (
            [check.describe() for check in fig.checks if not check.passed]
            + [f"{c.claim.panel} {c.claim.describe()} -> FAIL ({c.reproduced()})"
               for c in fig.claims if not c.passed]
        )
    ]
    if failures:
        print("VALIDATION GATE FAILED:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    if args.compare_reference:
        print("validation gate passed")
    return 0


def _write_json(path, payload, sort_keys: bool = False) -> None:
    """Write a ``--json`` report atomically."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=sort_keys)


def _run_net(args) -> int:
    try:
        forced = dict(
            calibration_packets_per_point=args.packets_per_point,
            calibration_progress=args.packets_per_point is not None,
        )
        if args.quick:
            forced["duration_s"] = min(args.duration, 30.0)
        scenario = _net_scenario_from_args(args, **forced)
        simulator = scenario.build_simulator()
    except (OSError, ValueError) as error:
        # Bad scenario parameters or an unreadable --faults schedule.
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = simulator.run(traffic=scenario.build_traffic(), progress=args.progress)
    print(scenario.describe())
    print(result.describe())
    if args.json_path:
        _write_json(args.json_path, result.to_dict())
        print(f"  results written to       : {args.json_path}")
    return 0


def _trace_capture(args) -> int:
    from repro.trace import capture_scenario, save_trace

    scenario = _net_scenario_from_args(args)
    result, trace = capture_scenario(scenario, progress=args.progress)
    print(scenario.describe())
    print(result.describe())
    print(trace.summary())
    path = save_trace(trace, args.out)
    print(f"  trace written to         : {path}")
    return 0


def _trace_replay(args) -> int:
    from repro.trace import (
        check_roundtrip,
        load_trace,
        qoe_report,
        replay_trace,
        scenario_from_trace,
    )
    from repro.utils.jsonsafe import nan_to_none

    trace = load_trace(args.trace_path)
    overrides = {
        key: value
        for key in ("link", "routing", "arq", "seed")
        if (value := getattr(args, key)) is not None
    }
    if args.check_roundtrip:
        if overrides:
            print("error: --check-roundtrip replays the captured stack; "
                  "drop the stack overrides", file=sys.stderr)
            return 2
        identical, captured, replayed = check_roundtrip(trace)
        if identical:
            print(f"roundtrip OK: replay reproduced all "
                  f"{len(replayed)} capture metrics bit for bit")
            return 0
        print("ROUNDTRIP FAILED: replayed metrics differ from capture:",
              file=sys.stderr)
        for key in sorted(set(captured) | set(replayed)):
            if captured.get(key) != replayed.get(key):
                print(f"  {key}: captured {captured.get(key)!r} "
                      f"!= replayed {replayed.get(key)!r}", file=sys.stderr)
        return 1
    scenario = scenario_from_trace(trace, **overrides)
    result = replay_trace(trace, scenario=scenario, progress=args.progress)
    report = qoe_report(result.metrics)
    print(scenario.describe())
    print(result.describe())
    print(report.summary())
    if args.json_path:
        payload = {
            "scenario": scenario.to_dict(),
            "metrics": result.to_dict(),
            "qoe": report.to_dict(),
        }
        _write_json(args.json_path, nan_to_none(payload))
        print(f"  results written to       : {args.json_path}")
    return 0


def _trace_synth(args) -> int:
    from repro.trace import PopulationWorkload, save_trace, synthesize_trace

    scenario = _net_scenario_from_args(args, traffic="population")
    workload = PopulationWorkload(
        duration_s=args.duration,
        base_rate_msgs_per_s=args.rate,
        group_size=args.group_size,
        activity_duty=args.duty,
        mean_session_s=args.session,
        diurnal_period_s=(
            args.diurnal_period if args.diurnal_period is not None
            else args.duration / 2.0
        ),
        diurnal_depth=args.diurnal_depth,
        size_mean_bits=args.size_mean,
        size_sigma=args.size_sigma,
    )
    trace = synthesize_trace(
        workload,
        scenario.build_topology(),
        seed=args.seed,
        meta={"scenario": scenario.to_dict()},
    )
    print(scenario.describe())
    print(trace.summary())
    path = save_trace(trace, args.out)
    print(f"  trace written to         : {path}")
    return 0


def _trace_compare(args) -> int:
    from repro.trace import (
        DEFAULT_LATENCY_TAU_S,
        DEFAULT_SOS_DEADLINE_S,
        compare_stacks,
        load_trace,
        scenario_from_trace,
    )
    from repro.utils.jsonsafe import nan_to_none

    trace = load_trace(args.trace_path)
    base = scenario_from_trace(trace)

    def side_scenario(side: str):
        # A defaults to the recorded stack, B to its full-PHY reference:
        # the fast-path-vs-reference comparison the committed fixture is
        # gated on.
        overrides = {
            key: value
            for key in ("link", "routing", "arq")
            if (value := getattr(args, f"{side}_{key}")) is not None
        }
        if side == "b" and not overrides:
            overrides = {"link": "physical"}
        return base.replace(**overrides) if overrides else base

    delta = compare_stacks(
        trace,
        scenario_a=side_scenario("a"),
        scenario_b=side_scenario("b"),
        latency_tau_s=(
            args.tau if args.tau is not None else DEFAULT_LATENCY_TAU_S
        ),
        sos_deadline_s=(
            args.sos_deadline if args.sos_deadline is not None
            else DEFAULT_SOS_DEADLINE_S
        ),
    )
    print(f"trace: {trace.summary()}")
    print(delta.to_markdown())
    if args.json_path:
        _write_json(args.json_path, nan_to_none(delta.to_dict()))
        print(f"  comparison written to    : {args.json_path}")
    return 0


def _run_trace(args) -> int:
    handlers = {
        "capture": _trace_capture,
        "replay": _trace_replay,
        "synth": _trace_synth,
        "compare": _trace_compare,
    }
    try:
        return handlers[args.trace_command](args)
    except (OSError, ValueError) as error:
        # Bad scenario parameters, unreadable/foreign trace files, traces
        # missing the metadata a mode needs -- all user-input problems.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_sos(args) -> int:
    site = SITE_CATALOG[args.site]
    try:
        channel = build_channel(site=site, distance_m=args.distance, seed=args.seed)
        service = SosBeaconService(channel, bit_rate_bps=args.rate, seed=args.seed + 1)
        # Rejects a bad repetition count or user id before transmitting.
        receptions = service.broadcast_many(args.user_id, args.repetitions)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    correct = sum(r.user_id == args.user_id for r in receptions)
    errors = sum(r.bit_errors for r in receptions)
    confidence = float(np.mean([r.mean_confidence_db for r in receptions]))
    print(f"site={site.name} distance={args.distance} m rate={args.rate} bps "
          f"user_id={args.user_id} repetitions={args.repetitions}")
    print(f"  beacon duration          : {service.beacon_duration_s:.2f} s")
    print(f"  correctly decoded IDs    : {correct}/{args.repetitions}")
    print(f"  bit errors               : {errors}/{6 * args.repetitions}")
    print(f"  mean tone margin         : {confidence:.1f} dB")
    return 0


def _run_mac(args) -> int:
    transmitters = [
        TransmitterConfig(name=f"tx{i}", distance_to_receiver_m=5.0 + 2.5 * i,
                          num_packets=args.packets)
        for i in range(args.transmitters)
    ]
    try:
        simulator = MacNetworkSimulator(transmitters, carrier_sense=not args.no_carrier_sense)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = simulator.run(seed=args.seed)
    mode = "disabled" if args.no_carrier_sense else "enabled"
    print(f"{args.transmitters} transmitters x {args.packets} packets, carrier sense {mode}")
    print(f"  collided packets         : {result.num_collided}/{result.num_packets} "
          f"({result.collision_fraction:.1%})")
    for config in transmitters:
        print(f"    {config.name}: {result.collision_fraction_for(config.name):.1%}")
    return 0


def _run_chaos(args) -> int:
    from repro.faults import ChurnProcess, FaultSchedule, load_schedule
    from repro.utils.jsonsafe import nan_to_none

    try:
        if args.faults:
            schedule = load_schedule(args.faults)
        else:
            # Protect the SOS source / default sink so the A/B compares
            # repair quality, not luck about whether endpoints survived.
            protect = ["n0"]
            if args.destination and args.destination not in protect:
                protect.append(args.destination)
            schedule = FaultSchedule(
                churn=ChurnProcess(
                    rate_per_node_per_s=args.churn_rate,
                    mean_downtime_s=args.mean_downtime,
                    end_s=args.duration,
                    seed=args.fault_seed,
                    protect=tuple(protect),
                )
            )
        base = _net_scenario_from_args(args, faults_json="")
        names = tuple(base.build_topology().names)
        num_events = len(schedule.expand(names))
        results = {}
        for key, repair in (("repair_on", True), ("repair_off", False)):
            results[key] = base.with_faults(schedule.with_repair(repair)).run()
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    on, off = results["repair_on"].metrics, results["repair_off"].metrics
    print(base.describe())
    print(f"fault schedule: {num_events} events "
          f"(beacon {schedule.beacon_interval_s:g} s x {schedule.miss_threshold})")
    print(f"  {'':26s}{'repair on':>12s}{'repair off':>12s}")
    print(f"  {'delivered / offered':26s}"
          f"{f'{on.delivered}/{on.offered}':>12s}"
          f"{f'{off.delivered}/{off.offered}':>12s}")
    print(f"  {'packet delivery ratio':26s}"
          f"{on.packet_delivery_ratio:>12.1%}{off.packet_delivery_ratio:>12.1%}")
    print(f"  {'node crashes':26s}{on.node_crashes:>12d}{off.node_crashes:>12d}")
    print(f"  {'route repairs':26s}{len(on.repair_times_s):>12d}"
          f"{len(off.repair_times_s):>12d}")
    repair_time = (
        f"{on.mean_time_to_repair_s:.1f} s"
        if on.repair_times_s
        else "n/a"
    )
    print(f"  {'mean time to repair':26s}{repair_time:>12s}{'n/a':>12s}")
    for title, attr in (("drops", "drop_reasons"), ("aborts", "abort_reasons")):
        reasons = sorted(set(getattr(on, attr)) | set(getattr(off, attr)))
        for reason in reasons:
            print(f"  {f'{title}: {reason}':26s}"
                  f"{getattr(on, attr).get(reason, 0):>12d}"
                  f"{getattr(off, attr).get(reason, 0):>12d}")
    if args.json_path:
        payload = {
            "scenario": base.to_dict(),
            "schedule": schedule.to_dict(),
            "repair_on": results["repair_on"].to_dict(),
            "repair_off": results["repair_off"].to_dict(),
        }
        _write_json(args.json_path, nan_to_none(payload), sort_keys=True)
        print(f"  results written to       : {args.json_path}")
    return 0


def _run_sites(_args) -> int:
    for site in SITE_CATALOG.values():
        print(f"{site.name:7s} depth {site.water_depth_m:4.1f} m  "
              f"max range {site.max_range_m:5.0f} m  "
              f"noise {site.noise_level_db:5.1f} dB  -- {site.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    args = build_parser().parse_args(argv)
    handlers = {
        "link": _run_link,
        "sweep": _run_sweep,
        "serve": _run_serve,
        "jobs": _run_jobs,
        "net": _run_net,
        "trace": _run_trace,
        "validate": _run_validate,
        "sos": _run_sos,
        "chaos": _run_chaos,
        "mac": _run_mac,
        "sites": _run_sites,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
