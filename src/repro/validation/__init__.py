"""Monte-Carlo statistical validation of the paper-figure reproduction.

This package turns "does the reproduction still match the paper?" into a
CI-gated check, the way network simulators such as ns-3 validate
releases:

* :class:`~repro.validation.figures.FigureSpec` -- declarative registry
  of the paper's key figures (grid, metrics, headline metric, gate
  tolerance);
* :class:`~repro.validation.montecarlo.MonteCarloRunner` -- N seeded
  trials per grid point through :mod:`repro.experiments`, pooled into
  95% Wilson / normal confidence intervals per metric;
* :mod:`~repro.validation.report` -- committed ``VALID_<figure>.json``
  envelopes (the expected behaviour) plus JSON/markdown
  :class:`~repro.validation.report.ValidationReport` rendering, and the
  interval-overlap gate between a fresh run and the envelopes.

Driven by ``python -m repro.cli validate``.
"""

from repro.validation.figures import (
    FIGURE_REGISTRY,
    FigureSpec,
    TrialOutcome,
    available_figures,
    get_figure,
)
from repro.validation.montecarlo import (
    FigureResult,
    MonteCarloRunner,
    PointEstimate,
    summarize_point,
)
from repro.validation.report import (
    FigureReport,
    PointCheck,
    ValidationReport,
    check_against_envelope,
    load_envelope,
    valid_json_path,
    write_envelope,
)
from repro.validation.stats import (
    MetricSummary,
    intervals_overlap,
    normal_interval,
    summarize_continuous,
    summarize_proportion,
    wilson_interval,
)

__all__ = [
    "FIGURE_REGISTRY",
    "FigureReport",
    "FigureResult",
    "FigureSpec",
    "MetricSummary",
    "MonteCarloRunner",
    "PointCheck",
    "PointEstimate",
    "TrialOutcome",
    "ValidationReport",
    "available_figures",
    "check_against_envelope",
    "get_figure",
    "intervals_overlap",
    "load_envelope",
    "normal_interval",
    "summarize_continuous",
    "summarize_point",
    "summarize_proportion",
    "valid_json_path",
    "wilson_interval",
    "write_envelope",
]
