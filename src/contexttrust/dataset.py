"""Review CSV ingestion and per-seller trust profiles.

Review files are UTF-8 CSV with the header
``Context,Rate,Date,Description,Link``; the seller identity comes from the
file name or an explicit argument, never from the file itself.  Dates and
links are carried verbatim and never interpreted.  ``csv_rows`` reads every
CSV input, the pairs file included.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError, MissingContextError, RowError, SchemaError, decode_input

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


def csv_rows(text: str, source: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The rows after the header of CSV ``text``, each with the line it starts on.

    Blank rows are skipped.  The header's fields, stripped, must equal ``header``, and every
    row must have as many fields.  A NUL byte, or what csv cannot read, is refused by its
    line.  Each fault is a ``SchemaError`` that starts with ``source``.
    """
    nul = text.find("\0")
    if nul >= 0:  # csv reads NUL as a character from 3.11 on, but refuses it on 3.10
        line = text.count("\n", 0, nul) + 1
        raise SchemaError(f"{source}: line {line}: line contains NUL")
    reader = csv.reader(io.StringIO(text))
    try:
        got = next(reader, None)
        if got is None:
            raise SchemaError(f"{source}: file is empty, expected header row")
        if [field.strip() for field in got] != list(header):
            raise SchemaError(f"{source}: header must be {','.join(header)}, got {','.join(got)}")
        line = reader.line_num
        for row in reader:
            # A quoted field may span lines, so a row starts past the last one read before it.
            number, line = line + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{source}: line {number}: expected {len(header)} columns, got {len(row)}"
                )
            yield number, row
    except csv.Error as exc:  # a field over csv's size limit
        raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from exc


def parse_reviews(text: str, seller: str = "", source: str = "<string>") -> list[Review]:
    """Parse review CSV text into Reviews, in document order.

    ``source`` names the text in error messages.
    """
    prefix = f"{source} (seller {seller})" if seller else source
    review = partial(tuple.__new__, Review)  # the C constructor, not the generated __new__
    reviews: list[Review] = []
    for number, (context, rate_text, date, description, link) in csv_rows(
        text, prefix, REVIEW_HEADER
    ):
        context = context.strip()
        if not context:
            raise RowError(f"{prefix}: line {number}: empty context")
        try:
            rate = int(rate_text.strip())
        except ValueError:
            raise RowError(
                f"{prefix}: line {number}: rate {rate_text!r} is not an integer"
            ) from None
        if not RATE_MIN <= rate <= RATE_MAX:
            raise RowError(f"{prefix}: line {number}: rate {rate} outside {RATE_MIN}..{RATE_MAX}")
        reviews.append(review((context, rate, date, description, link)))
    return reviews


def load_reviews(path: str | Path, seller: str = "") -> list[Review]:
    """Read and parse one review CSV file (a leading BOM is ignored)."""
    text = decode_input(Path(path).read_bytes(), path, SchemaError)
    return parse_reviews(text, seller=seller, source=str(path))


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
