"""Validation reports and the committed ``VALID_*.json`` envelopes.

The envelope files are one JSON file per figure at the repo root
(``VALID_<figure>.json``), each with a ``schema_version`` field, the
settings the reference run used, and per-point statistics.  A committed
envelope is the *expected* behaviour of the reproduction: a fresh
Monte-Carlo run passes a point when its headline confidence interval,
widened by the figure's declared tolerance, overlaps the envelope's
interval.  Refactors that preserve the physics therefore stay green
across machine and sampling noise, while a genuine behaviour change (a
decoder regression, a channel-model edit) pushes the intervals apart and
fails the gate.

:class:`ValidationReport` aggregates figure results, per-point envelope
checks and the paper claims evaluated on each result into one object
with JSON and markdown-table rendering for the CLI and CI.  Its
paper-vs-reproduction table lists every evaluated claim with the paper's
value, the reproduced estimates and a pass / FAIL / known-gap verdict;
a FAIL fails the report like a failed envelope check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.atomic import atomic_write
from repro.validation.claims import ClaimCheck, variant_metric
from repro.validation.figures import FigureSpec, get_figure
from repro.validation.montecarlo import FigureResult, PointEstimate
from repro.validation.stats import MetricSummary, intervals_overlap, nan_to_none

SCHEMA_VERSION = 1


# ------------------------------------------------------------------ envelopes
def valid_json_path(figure: str, directory: str | Path = ".") -> Path:
    """The conventional ``VALID_<figure>.json`` path for a figure."""
    return Path(directory) / f"VALID_{figure}.json"


def write_envelope(
    result: FigureResult, directory: str | Path = "."
) -> Path:
    """Write a figure's Monte-Carlo result as its committed envelope, atomically."""
    spec = get_figure(result.figure)
    path = valid_json_path(result.figure, directory)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "figure": result.figure,
        "headline": spec.headline,
        "tolerance": spec.tolerance,
        "created_unix": time.time(),
        "result": result.to_dict(),
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    return path


def load_envelope(path: str | Path) -> FigureResult:
    """Load the reference :class:`FigureResult` from a ``VALID_*.json``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "result" not in data:
        raise ValueError(f"{path} is not a VALID_*.json envelope")
    return FigureResult.from_dict(data["result"])


# --------------------------------------------------------------------- checks
@dataclass(frozen=True)
class PointCheck:
    """Gate outcome of one grid point against the committed envelope."""

    axis_value: float
    metric: str
    measured: MetricSummary
    expected: MetricSummary
    tolerance: float
    passed: bool

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.metric} at {self.axis_value:g}: measured "
            f"{self.measured.format_value()} vs "
            f"envelope {self.expected.format_value()} "
            f"(+/-{self.tolerance:g}) -> {status}"
        )


def check_against_envelope(
    result: FigureResult, envelope: FigureResult, spec: FigureSpec | None = None
) -> list[PointCheck]:
    """Gate a fresh result against the committed envelope, point by point.

    Only axis values present in both runs are compared (quick runs sweep
    a subset of the full grid); a fresh point (or variant) missing from
    the envelope is a failure -- it means the committed reference
    predates the figure's current grid and must be regenerated.  The
    headline is checked under every variant the run covered.
    """
    spec = spec if spec is not None else get_figure(result.figure)
    envelope_points = {p.axis_value: p for p in envelope.points}
    checks = []
    for point in result.points:
        expected_point: PointEstimate | None = envelope_points.get(point.axis_value)
        for name in spec.variant_names(result.quick):
            metric = variant_metric(spec.headline, name)
            measured = point.summary(metric)
            expected = (
                expected_point.summaries.get(metric) if expected_point else None
            )
            if expected is None:
                expected = MetricSummary(
                    name=metric, kind=measured.kind,
                    mean=float("nan"), std=float("nan"),
                    ci_low=float("nan"), ci_high=float("nan"), n_trials=0,
                )
            passed = intervals_overlap(
                measured.ci_low, measured.ci_high,
                expected.ci_low, expected.ci_high,
                slack=spec.tolerance,
            )
            checks.append(
                PointCheck(
                    axis_value=point.axis_value,
                    metric=metric,
                    measured=measured,
                    expected=expected,
                    tolerance=spec.tolerance,
                    passed=passed,
                )
            )
    return checks


# --------------------------------------------------------------------- report
@dataclass
class FigureReport:
    """One figure's contribution to a validation report."""

    result: FigureResult
    checks: list[PointCheck] = field(default_factory=list)
    compared: bool = False
    claims: list[ClaimCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """False when an envelope check or a paper claim failed."""
        return all(check.passed for check in self.checks) and all(
            check.passed for check in self.claims
        )

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "compared": self.compared,
            "passed": self.passed,
            "claims": [check.to_dict() for check in self.claims],
            "checks": [
                {
                    "axis_value": c.axis_value,
                    "metric": c.metric,
                    "passed": c.passed,
                    "measured_mean": nan_to_none(c.measured.mean),
                    "measured_ci": [nan_to_none(c.measured.ci_low), nan_to_none(c.measured.ci_high)],
                    "expected_mean": nan_to_none(c.expected.mean),
                    "expected_ci": [nan_to_none(c.expected.ci_low), nan_to_none(c.expected.ci_high)],
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
        }


@dataclass
class ValidationReport:
    """Aggregate of every figure of one run."""

    figures: list[FigureReport] = field(default_factory=list)

    def add(self, report: FigureReport) -> None:
        self.figures.append(report)

    @property
    def passed(self) -> bool:
        """Every envelope check and every paper claim passed."""
        return all(f.passed for f in self.figures)

    # ------------------------------------------------------------- rendering
    def to_markdown(self) -> str:
        """Markdown tables, one per figure, then the paper claims."""
        lines: list[str] = []
        for fig in self.figures:
            spec = get_figure(fig.result.figure)
            mode = "quick" if fig.result.quick else "full"
            lines.append(
                f"### {spec.title} (`{fig.result.figure}`, {mode}, "
                f"{fig.result.trials} trials/point)"
            )
            lines.append("")
            variants = spec.variant_names(fig.result.quick)
            named = variants != ("",)
            header = [spec.axis] + (["variant"] if named else []) + [
                f"{m} (95% CI)" for m in spec.metrics
            ]
            if fig.compared:
                header.append("envelope gate")
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            checks = {(c.axis_value, c.metric): c for c in fig.checks}
            for point in fig.result.points:
                for name in variants:
                    row = [f"{point.axis_value:g}"] + ([name] if named else [])
                    for metric in spec.metrics:
                        summary = point.summary(variant_metric(metric, name))
                        row.append(summary.format_value())
                    if fig.compared:
                        check = checks.get(
                            (point.axis_value, variant_metric(spec.headline, name))
                        )
                        row.append(
                            "-" if check is None
                            else ("pass" if check.passed else "**FAIL**")
                        )
                    lines.append("| " + " | ".join(row) + " |")
            lines.append("")
        lines.extend(self._claims_markdown())
        return "\n".join(lines)

    def _claims_markdown(self) -> list[str]:
        """The paper-vs-reproduction table and the known gaps."""
        rows = [
            f"| {fig.result.figure} | {c.claim.panel} | `{c.claim.describe()}` "
            f"| {c.claim.paper} | {c.reproduced()} | "
            + (c.status if c.passed else f"**{c.status}**") + " |"
            for fig in self.figures for c in fig.claims
        ]
        specs = [get_figure(fig.result.figure) for fig in self.figures]
        skipped = sum(len(s.claims) for s in specs) - len(rows)
        gaps = [
            f"- {spec.name} {entry.panel} `{entry.describe()}`: {entry.gap}"
            for spec in specs for entry in spec.claims if entry.gap
        ]
        lines = []
        if rows:
            lines += [
                "### Paper claims: paper vs reproduction (pooled mean [95% CI])",
                "",
                "| figure | panel | claim | paper | reproduced | verdict |",
                "|---|---|---|---|---|---|",
                *rows,
                "",
            ]
        if skipped:
            lines += [f"{skipped} claims read cells outside the quick grid "
                      "and were not evaluated.", ""]
        if gaps:
            lines += ["Known gaps (reported, not gated):", "", *gaps, ""]
        return lines

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "passed": self.passed,
            "figures": [f.to_dict() for f in self.figures],
        }

    def save(self, path: str | Path) -> Path:
        """Write the report as JSON, atomically, and return the path."""
        path = Path(path)
        with atomic_write(path) as handle:
            handle.write(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
