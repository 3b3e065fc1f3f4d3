"""Monte-Carlo execution of figure specs with confidence intervals.

:class:`MonteCarloRunner` turns a :class:`~repro.validation.figures.\
FigureSpec` into a :class:`FigureResult`: every grid point is simulated
``trials`` times with deterministic per-(point, trial) seeds, the raw
Bernoulli counts and continuous values are pooled, and each metric is
summarized into a :class:`~repro.validation.stats.MetricSummary` with a
95% Wilson (proportions) or normal (continuous) confidence interval.

Every figure kind runs one way: each (point, trial, variant) cell is one
call of the kind's executor (:data:`~repro.validation.executors.\
EXECUTORS`), and the cells a runner has not run yet go through
:func:`~repro.experiments.runner.ordered_map`, in worker processes when
``max_workers`` allows.  Outcomes are memoized by what a trial depends
on -- kind, axis, axis value, cell seed, mode and the variant's
parameters resolved for the mode -- so figures sharing a cell
(``ber_vs_snr`` and ``throughput_vs_distance`` sweep one link grid) run
it once per runner.  A figure's variants run at every (point, trial) on
that cell's seed, and their metrics are pooled under ``metric@variant``
names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.runner import ordered_map
from repro.validation.claims import variant_metric
from repro.validation.executors import EXECUTORS, TrialOutcome
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
    max_workers:
        Worker processes for the trials, as in
        :func:`~repro.experiments.runner.ordered_map` (``None``: one per
        CPU; ``0`` or ``1``: in process).
    progress:
        Optional callback ``progress(message)`` invoked per trial run
        and per figure for CLI feedback.
    """

    def __init__(
        self,
        trials: int = 5,
        base_seed: int = 0,
        max_workers: int | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.trials = int(trials)
        self.base_seed = int(base_seed)
        self.max_workers = max_workers
        self.progress = progress
        # Trial outcomes by _trial_key, shared across every run() call on
        # this runner, so a cell two figures share runs once.
        self._memo: dict[tuple, TrialOutcome] = {}

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self, figure: FigureSpec | str, quick: bool = False) -> FigureResult:
        """Execute one figure and summarize it per grid point."""
        spec = get_figure(figure) if isinstance(figure, str) else figure
        started = time.perf_counter()
        grid = spec.grid(quick=quick)
        variants = {name: spec.for_variant(name) for name in spec.variant_names(quick)}
        cells = {
            (axis_value, trial, name): (variant, axis_value, trial, self.base_seed, quick)
            for axis_value in grid
            for trial in range(self.trials)
            for name, variant in variants.items()
        }
        keys = {cell: _trial_key(*task) for cell, task in cells.items()}
        pending = {}
        for cell, key in keys.items():
            if key not in self._memo:
                pending.setdefault(key, cells[cell])
        outcomes = ordered_map(_run_trial, list(pending.values()), self.max_workers)
        for done, (key, outcome) in enumerate(zip(pending, outcomes), start=1):
            self._memo[key] = outcome
            self._emit(
                f"{spec.name}: trial {done}/{len(pending)} done "
                f"({spec.axis}={pending[key][1]:g})"
            )
        self._emit(
            f"{spec.name}: {len(cells)} trials "
            f"({len(cells) - len(pending)} reused from this run)"
        )
        points = [
            summarize_point(axis_value, [
                _merge_variants({
                    name: self._memo[keys[axis_value, trial, name]] for name in variants
                })
                for trial in range(self.trials)
            ])
            for axis_value in grid
        ]
        return FigureResult(
            figure=spec.name,
            axis=spec.axis,
            trials=self.trials,
            quick=bool(quick),
            points=tuple(points),
            elapsed_s=time.perf_counter() - started,
        )


def _trial_key(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> tuple:
    """Everything one trial's outcome depends on.

    An executor reads only its spec's kind, axis and parameters (resolved
    for the mode), the axis value and the cell seed, so two cells -- of
    one figure or of two -- that agree on these have equal outcomes.
    """
    params = {
        key: spec.param(key, quick=quick)
        for key in spec.params
        if not key.startswith("quick_")
    }
    seed = spec.point_seed(axis_value, trial, base_seed)
    return (spec.kind, spec.axis, axis_value, seed, quick, tuple(sorted(params.items())))


def _run_trial(task: tuple) -> TrialOutcome:
    """Run one ``(spec, axis value, trial, base seed, quick)`` trial
    with its kind's executor (a process-pool target)."""
    spec = task[0]
    return EXECUTORS[spec.kind](*task)


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
