"""Paper claims: the shapes a figure's Monte-Carlo estimates must show.

Each :class:`Claim` of a :class:`~repro.validation.figures.FigureSpec`
cites the paper panel it reproduces, quotes the paper's number, and
states one shape as a chain comparison ``t0 op t1 [op t2 ...]`` over
:class:`Term` values read off the figure's result:

* monotone along the axis -- one metric at successive axis values;
* ``A <= B`` -- against another metric, another variant or a constant;
* inside a band -- ``low < A < high``.

A term is a pooled Monte-Carlo estimate (the pooled proportion or the
trial mean, never one seed's draw), a constant, or an aggregate of
terms.  The verdict compares those estimates.  It deliberately does not
test confidence-interval overlap: with a handful of trials the intervals
of two clearly different estimates still overlap (pooled over 8 seeds of
25 lake packets, an adaptive PER of 0.120 [0.071, 0.193] against a
fixed-band 0.065 [0.036, 0.116]), so an overlap rule would pass claims
the estimates contradict.  The intervals are reported beside every
verdict instead.

A claim the model cannot meet today carries a ``gap`` note -- the value
a full run measured and the model code it points at.  It is evaluated
and reported like any other claim but does not fail the gate, and the
report says when its claim holds again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from repro.utils.jsonsafe import nan_to_none

#: The comparison a claim chains between consecutive terms.
OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: Aggregates a term can take over its sub-terms.
AGGREGATES = ("min", "max", "sum", "mean", "spread", "distinct")

NAN = float("nan")


def variant_metric(metric: str, variant: str) -> str:
    """Result key of ``metric`` measured under ``variant``.

    The unnamed default variant keeps the bare metric name, so figures
    without variants report exactly the names their executor produces.
    """
    return f"{metric}@{variant}" if variant else metric


@dataclass(frozen=True)
class Term:
    """One operand of a claim: ``times * value + plus``.

    ``value`` is one result cell when ``metric`` is set (``variant`` of
    the figure, axis value ``at``; ``None`` on a one-point grid), the
    aggregate ``fn`` of the sub-terms ``of`` when ``fn`` is set, and 0
    otherwise -- a constant ``plus``.
    """

    metric: str = ""
    variant: str = ""
    at: float | None = None
    fn: str = ""
    of: tuple["Term", ...] = ()
    times: float = 1.0
    plus: float = 0.0

    def __post_init__(self) -> None:
        if (self.fn or self.of) and (
            self.fn not in AGGREGATES or not self.of or self.metric
        ):
            raise ValueError(f"bad aggregate term {self!r}")
        if self.times <= 0:
            raise ValueError("a term's scale must be positive")

    @property
    def constant(self) -> bool:
        return not self.metric and not self.fn

    def cells(self) -> list["Term"]:
        """Every metric cell this term reads."""
        if self.metric:
            return [self]
        return [cell for term in self.of for cell in term.cells()]

    def describe(self) -> str:
        if self.metric:
            text = variant_metric(self.metric, self.variant)
            text += "" if self.at is None else f"({self.at:g})"
        elif self.fn:
            text = f"{self.fn}({', '.join(t.describe() for t in self.of)})"
        else:
            return f"{self.plus:g}"
        if self.times != 1.0:
            text = f"{self.times:g} * {text}"
        return text + (f" + {self.plus:g}" if self.plus else "")

    def estimate(self, lookup) -> tuple[float, float, float]:
        """``(value, ci_low, ci_high)``; ``lookup(term)`` reads a cell's summary."""
        if self.metric:
            summary = lookup(self)
            estimate = summary.mean, summary.ci_low, summary.ci_high
        elif self.fn:
            estimate = _aggregate(self.fn, [t.estimate(lookup) for t in self.of])
        else:
            return self.plus, self.plus, self.plus
        return tuple(self.times * v + self.plus for v in estimate)


def _aggregate(fn: str, parts: list[tuple[float, float, float]]):
    """``(value, ci_low, ci_high)`` of an aggregate of term estimates.

    ``min``/``max`` report the interval of the extreme term; ``sum`` and
    ``mean`` combine the terms' half-widths in quadrature (independent
    estimates); ``spread`` and ``distinct`` (the count of distinct
    rounded values) carry no interval.
    """
    values = [value for value, _, _ in parts]
    if any(math.isnan(v) for v in values):
        return NAN, NAN, NAN
    if fn in ("min", "max"):
        return (min if fn == "min" else max)(parts, key=lambda p: p[0])
    if fn in ("sum", "mean"):
        scale = 1.0 if fn == "sum" else 1.0 / len(parts)
        total = sum(values)
        low = total - math.sqrt(sum((v - lo) ** 2 for v, lo, _ in parts))
        high = total + math.sqrt(sum((hi - v) ** 2 for v, _, hi in parts))
        return scale * total, scale * low, scale * high
    if fn == "spread":
        return max(values) - min(values), NAN, NAN
    return float(len({round(v) for v in values})), NAN, NAN


def cell(metric: str, variant: str = "", at: float | None = None, **affine) -> Term:
    """A result cell: ``metric`` under ``variant`` at axis value ``at``."""
    return Term(metric=metric, variant=variant, at=at, **affine)


def agg(fn: str, *terms, **affine) -> Term:
    """An aggregate over terms (numbers become constants)."""
    return Term(fn=fn, of=tuple(_term(t) for t in terms), **affine)


def _term(value) -> Term:
    return value if isinstance(value, Term) else Term(plus=float(value))


@dataclass(frozen=True)
class Claim:
    """One paper claim as a chain comparison over terms.

    Attributes
    ----------
    panel:
        Figure panel (or section) of the paper it reproduces.
    paper:
        The paper's number, quoted.
    terms, op:
        The chain ``terms[0] op terms[1] op ...``; every link must hold.
    gap:
        Known-gap note -- the value a full run measured and the model
        code it points at; empty for a gated claim.
    """

    panel: str
    paper: str
    terms: tuple[Term, ...]
    op: str
    gap: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(f"unknown claim operator {self.op!r}")
        if len(self.terms) < 2 or all(t.constant for t in self.terms):
            raise ValueError("a claim compares at least two terms, one measured")
        if not self.panel or not self.paper:
            raise ValueError("a claim names its paper panel and value")

    def cells(self) -> list[Term]:
        return [cell for term in self.terms for cell in term.cells()]

    def describe(self) -> str:
        return f" {self.op} ".join(term.describe() for term in self.terms)


def claim(panel: str, paper: str, *chain, gap: str = "") -> Claim:
    """``claim(panel, paper, a, "<=", b[, "<=", c])``: terms alternate with
    one repeated operator; numbers become constants."""
    ops = set(chain[1::2])
    if len(ops) != 1:
        raise ValueError(f"a claim chains one operator, got {sorted(ops)}")
    return Claim(panel, paper, tuple(_term(t) for t in chain[::2]), ops.pop(), gap)


@dataclass(frozen=True)
class ClaimCheck:
    """A claim evaluated on one figure result."""

    claim: Claim
    estimates: tuple[tuple[float, float, float], ...] = field(repr=False)
    holds: bool

    @property
    def passed(self) -> bool:
        """Gate outcome: a known gap never fails it."""
        return self.holds or bool(self.claim.gap)

    @property
    def status(self) -> str:
        if self.claim.gap:
            return "known gap: claim now holds" if self.holds else "known gap"
        return "pass" if self.holds else "FAIL"

    def reproduced(self) -> str:
        """Each measured term as ``mean [ci_low, ci_high]``."""
        parts = []
        for term, (value, low, high) in zip(self.claim.terms, self.estimates):
            if term.constant:
                continue
            text = f"{value:.4g}"
            if not (math.isnan(low) or low == high == value):
                text += f" [{low:.4g}, {high:.4g}]"
            parts.append(text)
        return " vs ".join(parts)

    def to_dict(self) -> dict:
        return {
            "panel": self.claim.panel,
            "claim": self.claim.describe(),
            "paper": self.claim.paper,
            "terms": [
                [nan_to_none(v) for v in estimate] for estimate in self.estimates
            ],
            "reproduced": self.reproduced(),
            "status": self.status,
            "gap": self.claim.gap or None,
        }


def evaluate_claims(spec, result) -> list[ClaimCheck]:
    """Evaluate every claim of ``spec`` on its Monte-Carlo ``result``.

    A claim reading a cell the run did not produce is skipped on a quick
    run (its grid is a subset) and raises on a full run, which must
    produce every cell its claims read.
    """
    points = {point.axis_value: point for point in result.points}

    def lookup(term: Term):
        at = spec.values[0] if term.at is None else term.at
        return points[float(at)].summary(variant_metric(term.metric, term.variant))

    checks = []
    for entry in spec.claims:
        try:
            estimates = tuple(term.estimate(lookup) for term in entry.terms)
        except LookupError:
            if result.quick:
                continue
            raise
        compare = OPERATORS[entry.op]
        values = [value for value, _, _ in estimates]
        holds = all(compare(a, b) for a, b in zip(values, values[1:]))
        checks.append(ClaimCheck(entry, estimates, holds))
    return checks
