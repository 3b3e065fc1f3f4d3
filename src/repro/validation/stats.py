"""Statistical summaries for Monte-Carlo figure validation.

Two metric families cover everything the figures report:

* **proportions** (packet error rate, preamble detection rate, BER, PDR,
  SoS ID detection): Bernoulli successes pooled over all trials of a grid
  point, summarized with a Wilson score interval.  Wilson is the standard
  choice for simulation validation (ns-3's release checks use it too)
  because unlike the Wald interval it behaves at the boundaries -- a run
  with 0 errors out of 200 bits still yields a meaningful, non-degenerate
  upper bound.  Because pooled outcomes cluster (bits within a packet,
  packets within a trial's channel realization), the pooled sample size
  is first deflated by an estimated :func:`design_effect` so the claimed
  95% coverage survives whole-packet failure modes.
* **continuous values** (goodput, median bitrate, latency, tone margin):
  per-trial values summarized with a normal-approximation interval of the
  mean (t would need scipy.stats at import time; with the >=2 trials the
  harness runs, z at the same confidence is marginally narrower and we
  widen envelopes by an explicit tolerance anyway).

Both summarize into :class:`MetricSummary`, the JSON-safe unit the
reports and the committed ``VALID_*.json`` envelopes are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.jsonsafe import nan_to_none, none_to_nan

#: z of the 95% confidence level every interval uses.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score confidence interval for a binomial proportion.

    Returns ``(low, high)``; both ``nan`` when ``trials`` is zero.
    """
    if successes < 0 or trials < 0:
        raise ValueError("successes and trials must be non-negative")
    if successes > trials:
        raise ValueError(f"successes ({successes}) exceed trials ({trials})")
    if trials == 0:
        return float("nan"), float("nan")
    p = successes / trials
    z = Z_95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


def normal_interval(mean: float, std: float, n: int) -> tuple[float, float]:
    """95% normal-approximation confidence interval of a sample mean."""
    if n <= 0:
        return float("nan"), float("nan")
    if n == 1 or not math.isfinite(std):
        # A single trial (or undefined spread) carries no interval
        # information; degenerate interval at the point estimate.
        return mean, mean
    margin = Z_95 * std / math.sqrt(n)
    return mean - margin, mean + margin


def _mean_std(values: list[float]) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return float("nan"), float("nan")
    mean = sum(finite) / len(finite)
    var = sum((v - mean) ** 2 for v in finite) / len(finite)
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class MetricSummary:
    """Monte-Carlo summary of one metric at one grid point.

    Attributes
    ----------
    name:
        Metric identifier (``"coded_ber"``, ``"goodput_bps"``, ...).
    kind:
        ``"proportion"`` (Wilson CI over pooled Bernoulli counts) or
        ``"continuous"`` (normal CI of the per-trial mean).
    mean:
        Point estimate: pooled proportion, or mean of the trial values.
    std:
        Population standard deviation of the per-trial values.
    ci_low, ci_high:
        95% confidence interval bounds.
    n_trials:
        Number of Monte-Carlo trials behind the summary.
    successes, total:
        Pooled Bernoulli counts (proportions only; 0/0 otherwise).
    """

    name: str
    kind: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_trials: int
    successes: int = 0
    total: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("proportion", "continuous"):
            raise ValueError(f"unknown metric kind {self.kind!r}")

    def format_value(self) -> str:
        """``mean [ci_low, ci_high]`` with kind-appropriate precision."""
        if self.kind == "proportion":
            return f"{self.mean:.4f} [{self.ci_low:.4f}, {self.ci_high:.4f}]"
        # Sub-unit values (fairness indices, theoretical BERs) keep three
        # significant digits; larger ones (dB, bps, seconds) one decimal.
        fmt = ".3g" if abs(self.mean) < 1.0 else ".1f"
        return f"{self.mean:{fmt}} [{self.ci_low:{fmt}}, {self.ci_high:{fmt}}]"

    def to_dict(self) -> dict:
        """JSON-safe dictionary form (NaN kept: json emits ``NaN`` tokens
        only with ``allow_nan``, so the writers replace them)."""
        data = {
            "name": self.name,
            "kind": self.kind,
            "mean": nan_to_none(self.mean),
            "std": nan_to_none(self.std),
            "ci_low": nan_to_none(self.ci_low),
            "ci_high": nan_to_none(self.ci_high),
            "n_trials": self.n_trials,
        }
        if self.kind == "proportion":
            data["successes"] = self.successes
            data["total"] = self.total
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            mean=none_to_nan(data["mean"]),
            std=none_to_nan(data["std"]),
            ci_low=none_to_nan(data["ci_low"]),
            ci_high=none_to_nan(data["ci_high"]),
            n_trials=int(data["n_trials"]),
            successes=int(data.get("successes", 0)),
            total=int(data.get("total", 0)),
        )


def design_effect(counts: list[tuple[int, int]]) -> float:
    """Rao-Scott-style variance inflation for clustered Bernoulli counts.

    The pooled outcomes are *not* independent draws: bits share a packet
    (a failed packet flips all of its bits at once) and packets share a
    trial's channel realization.  Treating them as independent would make
    the Wilson interval far too narrow exactly where whole-packet loss
    dominates.  The design effect is estimated from the data itself as
    the ratio of the observed between-trial variance of the proportions
    to the variance a binomial of the same size would show; dividing the
    pooled sample size by it yields the effective number of independent
    draws.  Clamped to >= 1 so the corrected interval can never be
    narrower than the naive one, and to 1 when fewer than two trials (or
    a degenerate 0/1 proportion) leave nothing to estimate from.
    """
    trials = [(s, t) for s, t in counts if t > 0]
    successes = sum(s for s, _ in trials)
    total = sum(t for _, t in trials)
    if len(trials) < 2 or total == 0:
        return 1.0
    p = successes / total
    if p <= 0.0 or p >= 1.0:
        return 1.0
    per_trial = [s / t for s, t in trials]
    mean = sum(per_trial) / len(per_trial)
    observed = sum((v - mean) ** 2 for v in per_trial) / (len(per_trial) - 1)
    binomial = sum(p * (1 - p) / t for _, t in trials) / len(trials)
    if binomial <= 0.0 or observed <= 0.0:
        return 1.0
    return max(1.0, observed / binomial)


def summarize_proportion(name: str, counts: list[tuple[int, int]]) -> MetricSummary:
    """Summarize per-trial ``(successes, total)`` Bernoulli counts.

    The Wilson interval is computed over the pooled counts deflated by
    the :func:`design_effect` (bits cluster in packets, packets in
    trials; see there), while ``std`` reports the spread of the
    per-trial proportions so reports can show run-to-run variability
    alongside the pooled CI.
    """
    successes = sum(s for s, _ in counts)
    total = sum(t for _, t in counts)
    per_trial = [s / t for s, t in counts if t > 0]
    _, std = _mean_std(per_trial)
    mean = successes / total if total else float("nan")
    deff = design_effect(counts)
    effective_total = max(1, round(total / deff)) if total else 0
    effective_successes = min(effective_total, round(mean * effective_total)) if total else 0
    ci_low, ci_high = wilson_interval(effective_successes, effective_total)
    return MetricSummary(
        name=name,
        kind="proportion",
        mean=mean,
        std=std,
        ci_low=ci_low,
        ci_high=ci_high,
        n_trials=len(counts),
        successes=successes,
        total=total,
    )


def summarize_continuous(name: str, values: list[float]) -> MetricSummary:
    """Summarize per-trial continuous values (NaN trials dropped)."""
    mean, std = _mean_std(values)
    finite = sum(1 for v in values if math.isfinite(v))
    ci_low, ci_high = normal_interval(mean, std, finite)
    return MetricSummary(
        name=name,
        kind="continuous",
        mean=mean,
        std=std,
        ci_low=ci_low,
        ci_high=ci_high,
        n_trials=len(values),
    )


def intervals_overlap(
    low_a: float, high_a: float, low_b: float, high_b: float, slack: float = 0.0
) -> bool:
    """Whether ``[low_a, high_a]`` widened by ``slack`` meets ``[low_b, high_b]``.

    NaN bounds (no data) never overlap -- a point with no measurements
    must read as a failure, not a silent pass.
    """
    if any(math.isnan(v) for v in (low_a, high_a, low_b, high_b)):
        return False
    return (low_a - slack) <= high_b and (high_a + slack) >= low_b
