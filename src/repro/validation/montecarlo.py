"""Monte-Carlo execution of figure specs with confidence intervals.

:class:`MonteCarloRunner` turns a :class:`~repro.validation.figures.\
FigureSpec` into a :class:`FigureResult`: every grid point is simulated
``trials`` times with deterministic per-(point, trial) seeds, the raw
Bernoulli counts and continuous values are pooled, and each metric is
summarized into a :class:`~repro.validation.stats.MetricSummary` with a
95% Wilson (proportions) or normal (continuous) confidence interval.

Link figures expand into ordinary :class:`~repro.experiments.Scenario`
grids and run through :class:`~repro.experiments.ExperimentRunner`, so
they inherit its process-pool parallelism and on-disk result cache; every
other kind runs its trials in-process (each trial is already a whole
simulation, cheap relative to a link grid).  A figure's variants run at
every (point, trial) on that cell's seed, and their metrics are pooled
under ``metric@variant`` names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.runner import ExperimentRunner
from repro.validation.claims import variant_metric
from repro.validation.executors import (
    EXECUTORS,
    TrialOutcome,
    link_outcome,
    link_scenario,
)
from repro.validation.figures import FigureSpec, get_figure
from repro.validation.stats import (
    MetricSummary,
    summarize_continuous,
    summarize_proportion,
)


@dataclass(frozen=True)
class PointEstimate:
    """Monte-Carlo summaries of every metric at one grid point."""

    axis_value: float
    n_trials: int
    summaries: dict[str, MetricSummary]

    def summary(self, metric: str) -> MetricSummary:
        """Summary of one metric; raises for unknown names."""
        try:
            return self.summaries[metric]
        except KeyError:
            raise KeyError(
                f"no metric {metric!r} at axis value {self.axis_value:g}; "
                f"have: {', '.join(sorted(self.summaries))}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "axis_value": self.axis_value,
            "n_trials": self.n_trials,
            "summaries": {name: s.to_dict() for name, s in self.summaries.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointEstimate":
        return cls(
            axis_value=float(data["axis_value"]),
            n_trials=int(data["n_trials"]),
            summaries={
                name: MetricSummary.from_dict(entry)
                for name, entry in data["summaries"].items()
            },
        )


@dataclass(frozen=True)
class FigureResult:
    """One figure's Monte-Carlo run: per-point metric summaries."""

    figure: str
    axis: str
    trials: int
    quick: bool
    points: tuple[PointEstimate, ...]
    elapsed_s: float = field(default=0.0, compare=False)

    def point(self, axis_value: float) -> PointEstimate:
        """The estimate at one axis value; raises if absent."""
        for point in self.points:
            if point.axis_value == axis_value:
                return point
        raise LookupError(
            f"figure {self.figure} has no point at {axis_value:g}; "
            f"axis values: {[p.axis_value for p in self.points]}"
        )

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "axis": self.axis,
            "trials": self.trials,
            "quick": self.quick,
            "points": [p.to_dict() for p in self.points],
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FigureResult":
        return cls(
            figure=str(data["figure"]),
            axis=str(data["axis"]),
            trials=int(data["trials"]),
            quick=bool(data["quick"]),
            points=tuple(PointEstimate.from_dict(p) for p in data["points"]),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


def summarize_point(
    axis_value: float, outcomes: list[TrialOutcome]
) -> PointEstimate:
    """Pool one grid point's trial outcomes into metric summaries."""
    summaries: dict[str, MetricSummary] = {}
    if outcomes:
        for name in outcomes[0].counts:
            counts = [tuple(o.counts[name]) for o in outcomes]
            summaries[name] = summarize_proportion(name, counts)
        for name in outcomes[0].values:
            values = [float(o.values[name]) for o in outcomes]
            summaries[name] = summarize_continuous(name, values)
    return PointEstimate(
        axis_value=float(axis_value), n_trials=len(outcomes), summaries=summaries
    )


class MonteCarloRunner:
    """Runs figure specs as seeded Monte-Carlo campaigns.

    Parameters
    ----------
    trials:
        Monte-Carlo repetitions per grid point.
    base_seed:
        Offset added to every per-(point, trial) seed, so independent
        campaigns can be drawn without touching the specs.
    max_workers, cache_dir:
        Forwarded to the :class:`ExperimentRunner` behind link figures.
    progress:
        Optional callback ``progress(message)`` invoked per grid point
        (and per completed link scenario batch) for CLI feedback.
    """

    def __init__(
        self,
        trials: int = 5,
        base_seed: int = 0,
        max_workers: int | None = None,
        cache_dir=None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.trials = int(trials)
        self.base_seed = int(base_seed)
        self.max_workers = max_workers
        self.cache_dir = cache_dir
        self.progress = progress
        # In-process record memo keyed by scenario hash, shared across
        # every run() call on this runner: figures with identical grids
        # (ber_vs_snr and throughput_vs_distance sweep the same scenarios)
        # reuse records instead of re-simulating the link PHY.
        self._memo: dict[str, object] = {}

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ---------------------------------------------------------------- running
    def run(self, figure: FigureSpec | str, quick: bool = False) -> FigureResult:
        """Execute one figure and summarize it per grid point."""
        spec = get_figure(figure) if isinstance(figure, str) else figure
        started = time.perf_counter()
        grid = spec.grid(quick=quick)
        variants = {name: spec.for_variant(name) for name in spec.variant_names(quick)}
        if spec.kind == "link":
            outcomes = self._run_link(spec, grid, variants, quick)
        else:
            execute = EXECUTORS[spec.kind]
            outcomes = {}
            for axis_value in grid:
                outcomes[axis_value] = [
                    _merge_variants({
                        name: execute(variant, axis_value, trial, self.base_seed, quick)
                        for name, variant in variants.items()
                    })
                    for trial in range(self.trials)
                ]
                self._emit(
                    f"{spec.name}: {spec.axis}={axis_value:g} done "
                    f"({self.trials} trials)"
                )
        points = [summarize_point(value, outcomes[value]) for value in grid]
        return FigureResult(
            figure=spec.name,
            axis=spec.axis,
            trials=self.trials,
            quick=bool(quick),
            points=tuple(points),
            elapsed_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------- link
    def run_link_records(self, scenarios) -> list:
        """Run link scenarios through the runner, reusing memoized records.

        Only scenarios whose hash is not in the in-process memo are
        simulated; results come back in input order.
        """
        pending = []
        seen = set()
        for scenario in scenarios:
            key = scenario.scenario_hash()
            if key not in self._memo and key not in seen:
                pending.append(scenario)
                seen.add(key)
        if pending:
            runner = ExperimentRunner(
                max_workers=self.max_workers, cache_dir=self.cache_dir
            )
            # Stream rather than block: each record enters the memo the
            # moment it completes, so a progress consumer (or an exception
            # later in the sweep) still leaves the finished prefix reusable.
            for record in runner.iter_run(pending, progress=self.progress):
                self._memo[record.scenario.scenario_hash()] = record
        return [self._memo[s.scenario_hash()] for s in scenarios]

    def _run_link(
        self, spec: FigureSpec, grid, variants: dict, quick: bool
    ) -> dict:
        cells = [
            (axis_value, name, trial)
            for axis_value in grid
            for name in variants
            for trial in range(self.trials)
        ]
        scenarios = [
            link_scenario(variants[name], axis_value, trial, self.base_seed, quick)
            for axis_value, name, trial in cells
        ]
        known = sum(1 for s in scenarios if s.scenario_hash() in self._memo)
        records = self.run_link_records(scenarios)
        self._emit(
            f"{spec.name}: {len(scenarios)} scenarios "
            f"({known} reused from this run)"
        )
        trials: dict = {}
        for (axis_value, name, trial), record in zip(cells, records):
            trials.setdefault((axis_value, trial), {})[name] = link_outcome(record)
        return {
            axis_value: [
                _merge_variants(trials[axis_value, trial]) for trial in range(self.trials)
            ]
            for axis_value in grid
        }


def _merge_variants(outcomes: dict[str, TrialOutcome]) -> TrialOutcome:
    """One trial's outcomes under every variant, as ``metric@variant`` samples."""
    return TrialOutcome(
        counts={
            variant_metric(metric, name): count
            for name, outcome in outcomes.items()
            for metric, count in outcome.counts.items()
        },
        values={
            variant_metric(metric, name): value
            for name, outcome in outcomes.items()
            for metric, value in outcome.values.items()
        },
    )


__all__ = [
    "FigureResult",
    "MonteCarloRunner",
    "PointEstimate",
    "summarize_point",
]
