"""Prediction scoring and measure comparison across seller/context pairs.

The error of a prediction is its signed deviation from the real rate as a
percentage of the 5-point scale.  A comparison run scores every requested
measure on every (seller, known, unknown) pair against the unknown
context's real aggregate, and summarizes mean absolute error per measure
plus the correlation between a seller's rate difference and the weighted
measure's error.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .dataset import RATE_MAX, TrustProfile
from .errors import (
    ArityError,
    ContextTrustError,
    DegenerateInputError,
    UnknownSellerError,
)
from .ontology import OntologyTree
from .similarity import PathMode
from .trust import predict_for_pair

Pair = tuple[str, str, str]  # seller, known context, unknown context


class EvaluationRecord(NamedTuple):
    """One prediction trial of one measure on one seller/context pair.

    The fields are the report's columns, in order: four text columns, then
    six numbers.
    """

    seller: str
    known: str
    unknown: str
    measure: str
    similarity: float
    predicted: float
    real: float
    signed_error_pct: float
    abs_error_pct: float
    rate_difference: float


REPORT_HEADER = ",".join(EvaluationRecord._fields)
_ROW = ",".join(["%s"] * 4 + ["%.6f"] * 6) + "\n"
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')


@dataclass(frozen=True)
class ComparisonReport:
    records: tuple[EvaluationRecord, ...]
    mean_abs_error: dict[str, float]
    # Correlation of rate difference against the weighted measure's absolute
    # error; None when not computable (no weighted rows, or degenerate data).
    rate_diff_error_pearson: Optional[float]


def error_percentage(predicted: float, real_rate: float) -> float:
    """Signed prediction error as a percentage of the 5-point scale."""
    return (predicted - real_rate) / RATE_MAX * 100.0


def rate_difference(profile: TrustProfile, c1: str, c2: str) -> float:
    """Absolute difference between a seller's real aggregates in two contexts."""
    return abs(profile.aggregate(c1) - profile.aggregate(c2))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    The (n-1) normalization cancels between numerator and denominator, so
    only the centered sums appear.
    """
    if len(xs) != len(ys):
        raise ArityError(f"sequence lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ArityError(f"need at least 2 points, got {len(xs)}")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInputError("a sequence has zero variance")
    r = sum(p * q for p, q in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return min(1.0, max(-1.0, r))


def run_comparison(
    profiles: Mapping[str, TrustProfile],
    tree: OntologyTree,
    measures: Sequence[str],
    pairs: Sequence[Pair],
    mode: PathMode = PathMode.PRODUCT,
) -> ComparisonReport:
    """Score every measure on every pair; rows ordered by pair then measure."""
    records: list[EvaluationRecord] = []
    for seller, known, unknown in pairs:
        try:
            profile = profiles.get(seller)
            if profile is None:
                raise UnknownSellerError(f"no profile for seller {seller!r}")
            real = profile.aggregate(unknown)
            diff = rate_difference(profile, known, unknown)
            for measure in measures:
                prediction = predict_for_pair(profile, tree, measure, known, unknown, mode)
                signed = error_percentage(prediction.predicted_rate, real)
                records.append(EvaluationRecord(
                    seller, known, unknown, measure, prediction.similarity,
                    prediction.predicted_rate, real, signed, abs(signed), diff,
                ))
        except ContextTrustError as exc:
            raise type(exc)(f"pair ({seller}, {known}, {unknown}): {exc}") from exc

    mean_abs: dict[str, float] = {}
    for measure in measures:
        errors = [r.abs_error_pct for r in records if r.measure == measure]
        if errors:
            mean_abs[measure] = sum(errors) / len(errors)

    correlation: Optional[float] = None
    weighted_rows = [r for r in records if r.measure == "weighted"]
    if len(weighted_rows) >= 2:
        try:
            correlation = pearson(
                [r.rate_difference for r in weighted_rows],
                [r.abs_error_pct for r in weighted_rows],
            )
        except DegenerateInputError:
            correlation = None
    return ComparisonReport(
        records=tuple(records),
        mean_abs_error=mean_abs,
        rate_diff_error_pearson=correlation,
    )


def report_to_csv(report: ComparisonReport) -> str:
    """Render the report rows as CSV (floats at 6 decimal places).

    Each row is one %-format; a row whose text fields need quoting goes
    through ``csv.writer`` instead.
    """
    text = _with_header(map(_ROW.__mod__, report.records))
    lines = len(report.records) + 1
    # Numbers render without commas, quotes or line breaks, so any extra one is in a text field.
    if '"' in text or "\r" in text or text.count(",") != 9 * lines or text.count("\n") != lines:
        text = _with_header(map(_csv_row, report.records))
    return text


def _with_header(rows: Iterable[str]) -> str:
    # Written one row at a time: a joined list would hold every row string at once.
    buffer = io.StringIO()
    buffer.write(REPORT_HEADER + "\n")
    buffer.writelines(rows)
    return buffer.getvalue()


def _csv_row(record: EvaluationRecord) -> str:
    if not _NEEDS_QUOTING.search("".join(record[:4])):
        return _ROW % record
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(
        [*record[:4], *("%.6f" % value for value in record[4:])]
    )
    return buffer.getvalue()


def format_summary(report: ComparisonReport) -> str:
    """Human-readable per-measure summary table."""
    lines = ["measure      mean_abs_error_pct"]
    for measure, value in report.mean_abs_error.items():
        lines.append(f"{measure:<12} {value:.6f}")
    if report.rate_diff_error_pearson is not None:
        lines.append(
            f"pearson(rate_difference, weighted abs error) = "
            f"{report.rate_diff_error_pearson:.6f}"
        )
    else:
        lines.append("pearson(rate_difference, weighted abs error) = n/a")
    return "\n".join(lines) + "\n"
