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
from array import array
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from .dataset import RATE_MAX, TrustProfile
from .errors import (
    ArityError,
    ContextTrustError,
    DegenerateInputError,
    DomainError,
    UnknownSellerError,
)
from .ontology import OntologyTree
from .similarity import TREE_MEASURES, PathMode, tree_measure
from .trust import predict_trust
# Unused here; bench/tracing.py patches this name. ROADMAP item 1 drops it.
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
_BLOCK_ROWS = 4096  # rows rendered and joined at a time by report_to_csv


@dataclass(frozen=True)
class ComparisonReport:
    records: tuple[EvaluationRecord, ...]
    mean_abs_error: dict[str, float]
    # Correlation of rate difference against the weighted measure's absolute
    # error; None with fewer than two weighted rows or with zero variance.
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
    if not measures or len(set(measures)) != len(measures) or not set(measures) <= set(TREE_MEASURES):
        raise DomainError(
            f"measures {list(measures)} must be distinct, one or more, each in {TREE_MEASURES}"
        )
    # The summary's inputs, filled as the rows are scored: errors by measure, one diff a pair.
    errors = {measure: array("d") for measure in measures}
    differences = array("d")
    scorers = [(measure, tree_measure(measure, mode), errors[measure]) for measure in measures]
    records: list[EvaluationRecord] = []
    for seller, known, unknown in pairs:
        try:
            profile = profiles.get(seller)
            if profile is None:
                raise UnknownSellerError(f"no profile for seller {seller!r}")
            # Each rate read once; unknown first, so a missing unknown context is reported first.
            real = profile.aggregate(unknown)
            known_rate = profile.aggregate(known)
            diff = abs(known_rate - real)  # rate_difference's value
            for measure, score, measure_errors in scorers:
                similarity = score(tree, known, unknown)
                predicted = predict_trust(known_rate, similarity)
                signed = error_percentage(predicted, real)
                error = abs(signed)
                measure_errors.append(error)
                records.append(EvaluationRecord(
                    seller, known, unknown, measure, similarity,
                    predicted, real, signed, error, diff,
                ))
            differences.append(diff)
        except ContextTrustError as exc:
            raise type(exc)(f"pair ({seller}, {known}, {unknown}): {exc}") from exc

    # sum() over the array, not a running total: from Python 3.12 sum() is compensated.
    mean_abs = {measure: sum(e) / len(e) for measure, e in errors.items() if e}
    correlation: Optional[float] = None
    if len(errors.get("weighted", ())) >= 2:
        try:
            correlation = pearson(differences, errors["weighted"])
        except DegenerateInputError:
            pass
    return ComparisonReport(
        records=tuple(records),
        mean_abs_error=mean_abs,
        rate_diff_error_pearson=correlation,
    )


def report_to_csv(report: ComparisonReport) -> str:
    """Render the report rows as CSV (floats at 6 decimal places).

    Each row is one %-format; if a text field needs quoting, ``csv.writer``
    writes every row instead.
    """
    # Joined a block at a time: one join over all rows would hold every row string at
    # once, and a StringIO over-allocates as it grows.
    records = report.records
    blocks = [REPORT_HEADER + "\n"]
    for start in range(0, len(records), _BLOCK_ROWS):
        blocks.append("".join(map(_ROW.__mod__, records[start:start + _BLOCK_ROWS])))
    text = "".join(blocks)
    lines = len(records) + 1
    # Numbers render without commas, quotes or line breaks, so any extra one is in a text field.
    if '"' in text or "\r" in text or text.count(",") != 9 * lines or text.count("\n") != lines:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(EvaluationRecord._fields)
        writer.writerows([*r[:4], *("%.6f" % v for v in r[4:])] for r in records)
        text = buffer.getvalue()
    return text


def format_summary(report: ComparisonReport) -> str:
    """Human-readable per-measure summary table."""
    lines = ["measure      mean_abs_error_pct"]
    for measure, value in report.mean_abs_error.items():
        lines.append(f"{measure:<12} {value:.6f}")
    value = report.rate_diff_error_pearson
    shown = "n/a" if value is None else f"{value:.6f}"
    lines.append(f"pearson(rate_difference, weighted abs error) = {shown}")
    return "\n".join(lines) + "\n"
