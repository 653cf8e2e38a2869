"""Scoring-performance evaluation with class-balanced metrics.

A raw confusion matrix weights classes by prevalence, which is exactly what a
stage scorer must not do, so every binary metric here is derived from the
row-normalized ("class-balanced") matrix: each true class contributes one
unit of weight regardless of how many epochs it has.

One-vs-all derivation, for stage c on the row-normalized matrix R:
    sensitivity_c = R[c][c]
    FPR_c         = mean of the four off-diagonal entries in column c
    precision_c   = sensitivity_c / (sensitivity_c + FPR_c)
    accuracy_c    = (sensitivity_c + (1 - FPR_c)) / 2
    f1_c          = harmonic mean of precision_c and sensitivity_c
Averaging (rather than summing) the off-diagonal column entries keeps every
negative class at unit weight, matching the per-class precision/accuracy
values this pipeline is validated against; the naive column-sum reading gives
a very different N1 precision and fails that validation.

Overall accuracy defaults to raw trace/total; a class-balanced variant (mean
sensitivity) is available since both readings are defensible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .edf_ingest import N_STAGES, STAGES, SleepStage
from .fileio import write_atomic, write_csv, write_json

METRIC_NAMES = (
    "precision_mean", "precision_worst",
    "sensitivity_mean", "sensitivity_worst",
    "f1_mean", "f1_worst",
    "accuracy_mean", "accuracy_worst",
    "overall_accuracy",
)


class MetricError(ValueError):
    pass


def confusion(predicted, expert) -> np.ndarray:
    """Count matrix with rows = expert stage, columns = algorithm stage."""
    predicted = np.asarray(predicted, dtype=np.int64)
    expert = np.asarray(expert, dtype=np.int64)
    if len(predicted) != len(expert):
        raise MetricError(f"length mismatch: {len(predicted)} predicted, {len(expert)} expert")
    for name, stages in (("predicted", predicted), ("expert", expert)):
        if stages.size and (stages.min() < 0 or stages.max() >= N_STAGES):
            raise MetricError(f"{name} stage outside 0..{N_STAGES - 1}")
    flat = np.bincount(expert * N_STAGES + predicted, minlength=N_STAGES * N_STAGES)
    return flat.reshape(N_STAGES, N_STAGES)


def empty_stage_rows(counts: np.ndarray) -> list[SleepStage]:
    """Stages with no epochs, in any matrix of a stack."""
    empty = (counts.sum(axis=-1) == 0).reshape(-1, N_STAGES).any(axis=0)
    return [STAGES[i] for i in np.flatnonzero(empty)]


def row_normalize(counts: np.ndarray) -> np.ndarray:
    """Each nonzero row scaled to sum 1; all-zero rows stay zero. Leading
    axes, if any, index a stack of matrices."""
    counts = np.asarray(counts, dtype=np.float64)
    sums = counts.sum(axis=-1, keepdims=True)
    return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def _unbox(values: np.ndarray) -> np.ndarray | float:
    """A float for one matrix's value, the array for a stack's."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass
class ClassMetrics:
    """Per-stage metrics on the last axis, after the stack axes, if any; `mean`,
    `worst` and `as_dict` give floats for one matrix, arrays for a stack."""

    sensitivity: np.ndarray
    precision: np.ndarray
    f1: np.ndarray
    accuracy: np.ndarray
    overall_accuracy: np.ndarray | float

    def mean(self, metric: str) -> np.ndarray | float:
        return _unbox(getattr(self, metric).mean(axis=-1))

    def worst(self, metric: str) -> np.ndarray | float:
        return _unbox(getattr(self, metric).min(axis=-1))

    def as_dict(self) -> dict[str, np.ndarray | float]:
        d = {}
        for metric in ("precision", "sensitivity", "f1", "accuracy"):
            d[f"{metric}_mean"] = self.mean(metric)
            d[f"{metric}_worst"] = self.worst(metric)
        d["overall_accuracy"] = self.overall_accuracy
        return d

    def per_stage_dict(self) -> dict[str, dict[str, float]]:
        return {
            stage.name: {
                "sensitivity": float(self.sensitivity[stage]),
                "precision": float(self.precision[stage]),
                "f1": float(self.f1[stage]),
                "accuracy": float(self.accuracy[stage]),
            }
            for stage in STAGES
        }


def _raw_overall(counts: np.ndarray) -> np.ndarray | float:
    return _unbox(np.trace(counts, axis1=-2, axis2=-1) / counts.sum(axis=(-2, -1)))


def _one_vs_all(counts: np.ndarray, stages: np.ndarray | slice) -> ClassMetrics:
    """One-vs-all metrics of each selected stage against the other selected ones.

    `counts` is one matrix or a stack of them. `stages` indexes the rows and
    columns compared. Rows are normalized over all five predicted columns, so
    predictions that land on an unselected stage still count as errors.
    Overall accuracy is trace/total of the raw counts.
    """
    r = row_normalize(counts[..., stages, :])[..., stages]
    k = r.shape[-1]
    sens = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # Off-diagonal entries of each column, summed in row order; the order is
    # fixed because model selection compares mean F1 values exactly.
    off_diagonal = np.swapaxes(r, -1, -2)[..., ~np.eye(k, dtype=bool)]
    fpr = off_diagonal.reshape(*r.shape[:-2], k, k - 1).sum(axis=-1) / (k - 1)
    # A stage can go entirely unpredicted (zero column): 0/0 resolves to 0,
    # the continuous extension, so a useless class scores 0 rather than NaN.
    prec = np.divide(sens, sens + fpr, out=np.zeros_like(sens), where=(sens + fpr) > 0)
    acc = (sens + (1.0 - fpr)) / 2.0
    f1 = np.divide(2.0 * prec * sens, prec + sens,
                   out=np.zeros_like(sens), where=(prec + sens) > 0)
    return ClassMetrics(sens, prec, f1, acc, _raw_overall(counts))


def class_metrics(counts: np.ndarray, overall: str = "raw") -> ClassMetrics:
    """One-vs-all metric suite on the class-balanced matrix (all five stages).

    `counts` is one (5, 5) matrix or a stack (..., 5, 5), scored matrix by
    matrix. Raises MetricError if a stage has no epochs in any of them.
    `overall` selects the overall-accuracy reading: "raw" = trace/total of
    the raw counts, "balanced" = mean per-stage sensitivity.
    """
    counts = np.asarray(counts)
    empty = empty_stage_rows(counts)
    if empty:
        raise MetricError(f"no epochs for stage(s): {', '.join(s.name for s in empty)}")
    if overall not in ("raw", "balanced"):
        raise MetricError(f"unknown overall-accuracy mode {overall!r}")
    metrics = _one_vs_all(counts, slice(None))
    if overall == "balanced":
        metrics.overall_accuracy = metrics.mean("sensitivity")
    return metrics


def validation_scores(counts: np.ndarray) -> tuple[float, float]:
    """(mean F1, raw overall accuracy), averaged over the stages present.

    The model-selection metric must stay defined even when a validation split
    happens to lack a stage, so the one-vs-all reduction runs over the present
    stages only; with a single present stage, mean F1 is its sensitivity.
    Test-set reports use the strict :func:`class_metrics`.
    """
    counts = np.asarray(counts)
    present = np.flatnonzero(counts.sum(axis=1) > 0)
    if present.size == 0:
        raise MetricError("confusion matrix is empty")
    overall = _raw_overall(counts)
    if present.size == 1:
        return float(counts[present[0], present[0]] / counts.sum()), overall
    return _one_vs_all(counts, present).mean("f1"), overall


@dataclass(frozen=True)
class MetricInterval:
    mean: float
    lower: float
    upper: float


@dataclass
class BootstrapResult:
    intervals: dict[str, MetricInterval]
    excluded: dict[str, int]
    n_samples: int


def _order_stat_bounds(values: np.ndarray) -> tuple[float, float]:
    """95% bounds as exact order statistics (positions 26/975 of 1000)."""
    ordered = np.sort(values)
    m = len(ordered)
    lo = math.floor(0.025 * m) + 1
    hi = math.ceil(0.975 * m)
    return float(ordered[lo - 1]), float(ordered[hi - 1])


def bootstrap_ci(
    per_recording: list[np.ndarray] | np.ndarray,
    n_samples: int = 1000,
    seed: int = 0,
    overall: str = "raw",
) -> BootstrapResult:
    """Bootstrap confidence intervals across per-recording confusion matrices.

    Each sample draws recording indices with replacement and sums their
    matrices; one :func:`class_metrics` call scores all samples. Reported per
    metric: the mean across samples and the order-statistic bounds (never
    interpolated). Samples with an empty stage row are excluded from every
    metric but raw overall accuracy and the exclusion counted. Sample streams
    derive deterministically from (seed, sample index), so results do not
    depend on evaluation order.
    """
    matrices = np.asarray(per_recording, dtype=np.int64)
    n = matrices.shape[0]
    if n < 2:
        raise MetricError("bootstrap needs at least 2 recordings")
    if n_samples < 1:
        raise MetricError(f"bootstrap needs at least 1 sample, got {n_samples}")
    picks = np.stack([np.random.default_rng([seed, i]).integers(0, n, size=n)
                      for i in range(n_samples)])
    totals = matrices[picks].sum(axis=1)
    defined = (totals.sum(axis=-1) > 0).all(axis=-1)
    if not defined.any():
        raise MetricError("every bootstrap sample has an empty stage row")
    values = class_metrics(totals[defined], overall=overall).as_dict()
    excluded = {name: int(n_samples - defined.sum()) for name in METRIC_NAMES}
    if overall == "raw":  # the one metric an empty stage row leaves defined
        values["overall_accuracy"] = _raw_overall(totals)
        excluded["overall_accuracy"] = 0
    intervals = {name: MetricInterval(float(np.mean(values[name])),
                                      *_order_stat_bounds(values[name]))
                 for name in METRIC_NAMES}
    return BootstrapResult(intervals, excluded, n_samples)


def _in_bed_span(labels: list[SleepStage], lights_out: int) -> tuple[int, int]:
    if not 0 <= lights_out < len(labels):
        raise MetricError(f"lights-out epoch {lights_out} outside 0..{len(labels) - 1}")
    non_w = [i for i in range(lights_out, len(labels)) if labels[i] != SleepStage.W]
    if not non_w:
        raise MetricError("no sleep onset: no non-W epoch after lights out")
    return lights_out, non_w[-1]


def sleep_efficiency(labels: list[SleepStage], lights_out: int) -> float:
    """Percent of time in bed spent asleep.

    Time in bed runs from lights-out through the last non-W epoch (there is no
    lights-on marker); asleep means any non-W stage.
    """
    start, end = _in_bed_span(labels, lights_out)
    span = labels[start:end + 1]
    asleep = sum(1 for s in span if s != SleepStage.W)
    return 100.0 * asleep / len(span)


def transitional_fraction(labels: list[SleepStage], lights_out: int) -> float:
    """Percent of in-bed epochs whose neighbor (within the span) differs."""
    start, end = _in_bed_span(labels, lights_out)
    span = labels[start:end + 1]
    n = len(span)
    transitional = 0
    for i in range(n):
        prev_diff = i > 0 and span[i - 1] != span[i]
        next_diff = i < n - 1 and span[i + 1] != span[i]
        if prev_diff or next_diff:
            transitional += 1
    return 100.0 * transitional / n


# --- ordinary least squares with an F-test p-value ---------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise MetricError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_test_sf(f_stat: float, d1: int, d2: int) -> float:
    """Upper tail of the F distribution, P(F > f_stat)."""
    if math.isinf(f_stat):
        return 0.0
    x = d2 / (d2 + d1 * f_stat)
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    p_value: float


def linreg_r2(x, y) -> RegressionResult:
    """OLS line fit with R^2 and the slope's F-test p-value (df 1, n-2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 3 or len(y) != n:
        raise MetricError(f"need >= 3 paired points, got {len(x)}/{len(y)}")
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise MetricError("degenerate predictor: x is constant")
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    syy = float(((y - y.mean()) ** 2).sum())
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    ss_res = syy - slope * sxy
    r2 = 1.0 if syy == 0.0 else 1.0 - ss_res / syy
    r2 = min(max(r2, 0.0), 1.0)
    if r2 >= 1.0:
        p = 0.0
    else:
        f_stat = (n - 2) * r2 / (1.0 - r2)
        p = f_test_sf(f_stat, 1, n - 2)
    p = min(max(p, math.ulp(0.0)), 1.0)
    return RegressionResult(slope, intercept, r2, p)


# --- hypnogram export ---------------------------------------------------------

def export_hypnogram(labels: list[SleepStage], path: Path) -> None:
    """CSV `index,stage` plus an SVG step plot next to it."""
    path = Path(path)
    write_csv(path, [("index", "stage"), *((i, stage.name) for i, stage in enumerate(labels))])
    write_atomic(path.with_suffix(".svg"), hypnogram_svg(labels).encode("utf-8"))


def hypnogram_svg(labels: list[SleepStage]) -> str:
    """Step plot of the stage sequence; one horizontal band per stage."""
    width, height, margin = 960, 220, 30
    n = max(len(labels), 1)
    # Conventional display order, deepest sleep lowest.
    level_order = [SleepStage.W, SleepStage.R, SleepStage.N1, SleepStage.N2, SleepStage.N3]
    y_of = {stage: margin + i * (height - 2 * margin) / (N_STAGES - 1)
            for i, stage in enumerate(level_order)}
    x_of = lambda i: margin + i * (width - 2 * margin) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for stage, y in y_of.items():
        parts.append(
            f'<text x="4" y="{y + 4:.1f}" font-size="12" font-family="sans-serif">'
            f'{stage.name}</text>')
    if labels:
        points = []
        for i, stage in enumerate(labels):
            y = y_of[stage]
            points.append(f"{x_of(i):.2f},{y:.2f}")
            points.append(f"{x_of(i + 1):.2f},{y:.2f}")
        parts.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5" '
            f'points="{" ".join(points)}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# --- report files -------------------------------------------------------------

def write_metrics_report(
    counts: np.ndarray,
    metrics: ClassMetrics,
    boot: BootstrapResult | None,
    out_dir: Path,
    regressions: dict[str, RegressionResult] | None = None,
    missing_folds: list[int] = (),
) -> None:
    """JSON at full precision plus CSVs rounded to 0.1 percentage points.

    `boot` is None when the counts come from one recording, which leaves
    nothing to resample; `missing_folds` names the folds the counts lack.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "confusion_counts": np.asarray(counts).tolist(),
        "confusion_row_normalized": row_normalize(counts).tolist(),
        "per_stage": metrics.per_stage_dict(),
        "summary": metrics.as_dict(),
        "missing_folds": list(missing_folds),
    }
    if boot is not None:
        report |= {
            "bootstrap": {name: {"mean": iv.mean, "lower": iv.lower, "upper": iv.upper}
                          for name, iv in boot.intervals.items()},
            "bootstrap_excluded": boot.excluded,
            "bootstrap_samples": boot.n_samples,
        }
    if regressions:
        report["regressions"] = {
            name: {"slope": r.slope, "intercept": r.intercept,
                   "r_squared": r.r_squared, "p_value": r.p_value}
            for name, r in regressions.items()
        }
    write_json(out_dir / "metrics.json", report)

    r = row_normalize(counts)
    rows = [["expert\\algorithm"] + [s.name for s in STAGES]]
    for i, stage in enumerate(STAGES):
        rows.append([stage.name] + [f"{int(counts[i][j])} ({100 * r[i][j]:.1f}%)"
                                    for j in range(N_STAGES)])
    write_csv(out_dir / "confusion.csv", rows)

    rows = [["metric", "value", "bootstrap_mean", "ci_lower", "ci_upper"]]
    for name in METRIC_NAMES:
        iv = boot.intervals[name] if boot else None
        rows.append([name, f"{100 * metrics.as_dict()[name]:.1f}"] +
                    ([f"{100 * v:.1f}" for v in (iv.mean, iv.lower, iv.upper)] if iv
                     else [""] * 3))
    write_csv(out_dir / "summary.csv", rows)

    if regressions:
        rows = [["predictor_metric", "r_squared", "p_value", "slope", "intercept"]]
        rows += [[name, f"{reg.r_squared:.4f}", f"{reg.p_value:.4f}",
                  f"{reg.slope:.6g}", f"{reg.intercept:.6g}"]
                 for name, reg in regressions.items()]
        write_csv(out_dir / "regressions.csv", rows)
