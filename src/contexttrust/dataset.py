"""Review CSV ingestion and per-seller trust profiles.

Review files are UTF-8 CSV with the exact header
``Context,Rate,Date,Description,Link``; the seller identity comes from the
file name or an explicit argument, never from the file itself.  Dates and
links are carried verbatim and never interpreted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError, MissingContextError, RowError, SchemaError

REVIEW_HEADER = ("Context", "Rate", "Date", "Description", "Link")
RATE_MIN, RATE_MAX = 1, 5  # the rating scale, inclusive


class Review(NamedTuple):
    """One review row; a tuple whose fields follow ``REVIEW_HEADER``'s order."""

    context: str
    rate: int
    date: str
    description: str
    link: str


@dataclass(frozen=True)
class ContextRatings:
    """How many reviews a seller received in one context, and their mean rate."""

    count: int
    aggregate: float


@dataclass(frozen=True)
class TrustProfile:
    seller: str
    contexts: dict[str, ContextRatings]

    def aggregate(self, context: str) -> float:
        if context not in self.contexts:
            raise MissingContextError(
                f"seller {self.seller!r} has no ratings in context {context!r}"
            )
        return self.contexts[context].aggregate


def parse_reviews(text: str, seller: str = "", source: str = "<string>") -> list[Review]:
    """Parse review CSV text into Reviews, in document order.

    ``source`` names the text in error messages.
    """
    prefix = f"{source} (seller {seller})" if seller else source

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{prefix}: file is empty, expected header row") from None
    if tuple(header) != REVIEW_HEADER:
        raise SchemaError(
            f"{prefix}: header must be {','.join(REVIEW_HEADER)}, got {','.join(header)}"
        )

    reviews: list[Review] = []
    for number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(REVIEW_HEADER):
            raise SchemaError(
                f"{prefix}: row {number}: expected {len(REVIEW_HEADER)} columns, got {len(row)}"
            )
        context, rate_text, date, description, link = row
        context = context.strip()
        if not context:
            raise RowError(f"{prefix}: row {number}: empty context")
        try:
            rate = int(rate_text.strip())
        except ValueError:
            raise RowError(
                f"{prefix}: row {number}: rate {rate_text!r} is not an integer"
            ) from None
        if not RATE_MIN <= rate <= RATE_MAX:
            raise RowError(f"{prefix}: row {number}: rate {rate} outside {RATE_MIN}..{RATE_MAX}")
        reviews.append(Review(context, rate, date, description, link))
    return reviews


def load_reviews(path: str | Path, seller: str = "") -> list[Review]:
    """Read and parse one review CSV file (a leading BOM is ignored)."""
    path = Path(path)
    return parse_reviews(path.read_text(encoding="utf-8-sig"), seller=seller, source=str(path))


def serialize_reviews(reviews: Sequence[Review]) -> str:
    """Write reviews back to CSV text (header included)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REVIEW_HEADER)
    writer.writerows(reviews)
    return buffer.getvalue()


def build_profiles(reviews_by_seller: Mapping[str, Sequence[Review]]) -> dict[str, TrustProfile]:
    """Group reviews by seller then context; the aggregate is the mean rate."""
    profiles: dict[str, TrustProfile] = {}
    for seller, reviews in reviews_by_seller.items():
        grouped: dict[str, list[int]] = {}
        for review in reviews:
            grouped.setdefault(review.context, []).append(review.rate)
        contexts = {
            context: ContextRatings(count=len(rates), aggregate=sum(rates) / len(rates))
            for context, rates in grouped.items()
        }
        profiles[seller] = TrustProfile(seller=seller, contexts=contexts)
    return profiles


def filter_profiles(
    profiles: Mapping[str, TrustProfile],
    min_contexts: int = 1,
    min_ratings: int = 1,
) -> dict[str, TrustProfile]:
    """Drop thin contexts, then sellers left with too few contexts."""
    if min_contexts < 1 or min_ratings < 1:
        raise DomainError(
            f"thresholds must be >= 1, got min_contexts={min_contexts}, min_ratings={min_ratings}"
        )
    kept: dict[str, TrustProfile] = {}
    for seller, profile in profiles.items():
        contexts = {c: r for c, r in profile.contexts.items() if r.count >= min_ratings}
        if len(contexts) >= min_contexts:
            kept[seller] = TrustProfile(seller=seller, contexts=contexts)
    return kept
