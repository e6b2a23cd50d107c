"""Trust prediction (known rate times context similarity), its scoring, and measure comparison.

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
from functools import partial
from typing import Mapping, NamedTuple, Optional, Sequence

from .dataset import RATE_MAX, RATE_MIN, TrustProfile
from .errors import (
    ArityError,
    ContextTrustError,
    DegenerateInputError,
    DomainError,
    UnknownSellerError,
)
from .ontology import OntologyTree
from .similarity import TREE_MEASURES, PathMode, tree_measure

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


@dataclass(frozen=True)
class ComparisonReport:
    """The rows of a comparison, and the summary's inputs in row order.

    ``errors`` holds each measure's ``abs_error_pct`` values and ``differences`` each
    pair's ``rate_difference``; the reports of consecutive runs concatenate into one.
    """

    records: tuple[EvaluationRecord, ...]
    errors: dict[str, array]
    differences: array

    @property
    def mean_abs_error(self) -> dict[str, float]:
        # sum() over the array, not a running total: from Python 3.12 sum() is compensated.
        return {measure: sum(e) / len(e) for measure, e in self.errors.items() if e}

    @property
    def rate_diff_error_pearson(self) -> Optional[float]:
        """Correlation of rate difference against the weighted measure's absolute error.

        None with fewer than two weighted rows or with zero variance.
        """
        weighted = self.errors.get("weighted", ())
        if len(weighted) < 2:
            return None
        try:
            return pearson(self.differences, weighted)
        except DegenerateInputError:
            return None


def predict_trust(known_rate: float, similarity: float) -> float:
    """Known rate scaled by similarity, capped at the top of the rating scale.

    Similarities above 1 (reciprocal path mode) can push the raw product
    past the ceiling.  Near-floor similarities can push it below the scale's
    minimum; such a value is returned as is, so the result lies in (0, RATE_MAX].
    """
    if similarity <= 0:
        raise DomainError(f"similarity must be positive, got {similarity}")
    if not RATE_MIN <= known_rate <= RATE_MAX:
        raise DomainError(f"known rate {known_rate} outside [{RATE_MIN}, {RATE_MAX}]")
    return min(float(RATE_MAX), known_rate * similarity)


def predict_for_pair(
    profile: TrustProfile,
    tree: OntologyTree,
    measure: str,
    known: str,
    unknown: str,
    mode: PathMode | str = PathMode.PRODUCT,
) -> float:
    """The predicted rate in unknown: known's rate times the tree measure of the pair."""
    known_rate = profile.aggregate(known)
    return predict_trust(known_rate, tree_measure(measure, mode)(tree, known, unknown))


def error_percentage(predicted: float, real_rate: float) -> float:
    """Signed prediction error as a percentage of the 5-point scale."""
    return (predicted - real_rate) / RATE_MAX * 100.0


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
    mode: PathMode | str = PathMode.PRODUCT,
) -> ComparisonReport:
    """Score every measure on every pair; rows ordered by pair then measure.

    A pair's rates are read and its known rate checked once, before its first measure, so
    a known rate off the scale is reported ahead of a fault in the tree.  Each row's
    prediction and error are ``predict_trust``'s and ``error_percentage``'s, taken inline:
    those two are the one-row references the rows are tested against.
    """
    if not measures or len(set(measures)) != len(measures) or not set(measures) <= set(TREE_MEASURES):
        raise DomainError(
            f"measures {list(measures)} must be distinct, one or more, each in {TREE_MEASURES}"
        )
    # The summary's inputs, filled as the rows are scored: errors by measure, one diff a pair.
    errors = {measure: array("d") for measure in measures}
    differences = array("d")
    scorers = [(measure, tree_measure(measure, mode), errors[measure].append) for measure in measures]
    # The C constructor NamedTuple._make uses, not the generated Python __new__.
    record = partial(tuple.__new__, EvaluationRecord)
    records: list[EvaluationRecord] = []
    add_record, add_difference, cap = records.append, differences.append, float(RATE_MAX)
    for seller, known, unknown in pairs:
        try:
            profile = profiles.get(seller)
            if profile is None:
                raise UnknownSellerError(f"no profile for seller {seller!r}")
            contexts = profile.contexts
            try:
                real, known_rate = contexts[unknown].aggregate, contexts[known].aggregate
            except KeyError:  # aggregate names the missing context, the unknown one first
                real, known_rate = profile.aggregate(unknown), profile.aggregate(known)
            if not RATE_MIN <= known_rate <= RATE_MAX:
                raise DomainError(f"known rate {known_rate} outside [{RATE_MIN}, {RATE_MAX}]")
            diff = abs(known_rate - real)  # the rate_difference column
            for measure, score, add_error in scorers:
                similarity = score(tree, known, unknown)
                if similarity <= 0:
                    raise DomainError(f"similarity must be positive, got {similarity}")
                predicted = known_rate * similarity
                if not predicted < cap:  # min(cap, predicted), without a call
                    predicted = cap
                signed = (predicted - real) / RATE_MAX * 100.0
                error = abs(signed)
                add_error(error)
                add_record(record((
                    seller, known, unknown, measure, similarity,
                    predicted, real, signed, error, diff,
                )))
            add_difference(diff)
        except ContextTrustError as exc:
            raise type(exc)(f"pair ({seller}, {known}, {unknown}): {exc}") from exc
    return ComparisonReport(tuple(records), errors, differences)


def report_rows(report: ComparisonReport) -> str:
    """The CSV text of the report's rows (floats at 6 decimal places), with no header.

    Each row is one %-format; a report whose text fields need quoting is written by
    ``csv.writer`` instead, which writes the same text for a row that needs none.
    """
    records = report.records
    text, rows = "".join(map(_ROW.__mod__, records)), len(records)
    # Numbers render without commas, quotes or line breaks: any extra one is in a text field.
    if '"' in text or "\r" in text or text.count(",") != 9 * rows or text.count("\n") != rows:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows([*r[:4], *("%.6f" % v for v in r[4:])] for r in records)
        text = buffer.getvalue()
    return text


def report_to_csv(report: ComparisonReport) -> str:
    """The whole report as one string: the header, then the report_rows text."""
    return REPORT_HEADER + "\n" + report_rows(report)


def format_summary(report: ComparisonReport) -> str:
    """Human-readable per-measure summary table."""
    lines = ["measure      mean_abs_error_pct"]
    for measure, value in report.mean_abs_error.items():
        lines.append(f"{measure:<12} {value:.6f}")
    value = report.rate_diff_error_pearson
    shown = "n/a" if value is None else f"{value:.6f}"
    lines.append(f"pearson(rate_difference, weighted abs error) = {shown}")
    return "\n".join(lines) + "\n"
