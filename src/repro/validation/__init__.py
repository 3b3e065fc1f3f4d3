"""Monte-Carlo statistical validation of the paper-figure reproduction.

This package turns "does the reproduction still match the paper?" into a
CI-gated check, the way network simulators such as ns-3 validate
releases:

* :class:`~repro.validation.figures.FigureSpec` -- declarative registry
  of the paper's figures (grid, variants, metrics, headline metric, gate
  tolerance) and their paper claims
  (:class:`~repro.validation.claims.Claim`), run by the per-kind trial
  executors of :mod:`~repro.validation.executors`;
* :class:`~repro.validation.montecarlo.MonteCarloRunner` -- N seeded
  trials per grid point, every kind through the experiment runner's
  process pool, pooled into 95% Wilson / normal confidence intervals per
  metric;
* :mod:`~repro.validation.report` -- committed ``VALID_<figure>.json``
  envelopes (the expected behaviour) plus JSON/markdown
  :class:`~repro.validation.report.ValidationReport` rendering with the
  paper-vs-reproduction claims table, and the interval-overlap gate
  between a fresh run and the envelopes.

Driven by ``python -m repro.cli validate``.
"""

from repro.validation.claims import Claim, ClaimCheck, Term, evaluate_claims
from repro.validation.executors import EXECUTORS, TrialOutcome
from repro.validation.figures import (
    FIGURE_REGISTRY,
    FigureSpec,
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
    "EXECUTORS",
    "FIGURE_REGISTRY",
    "Claim",
    "ClaimCheck",
    "FigureReport",
    "FigureResult",
    "FigureSpec",
    "MetricSummary",
    "MonteCarloRunner",
    "PointCheck",
    "PointEstimate",
    "Term",
    "TrialOutcome",
    "ValidationReport",
    "available_figures",
    "check_against_envelope",
    "evaluate_claims",
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
