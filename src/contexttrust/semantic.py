"""Co-occurrence relatedness between terms, and the hit-count plumbing behind it.

The distance between two terms is computed from how often they appear alone
and together in some indexed document collection (a search engine, an offline
corpus, or a prepared table).  The similarity score is one minus that
distance, clamped to a configurable floor so it stays usable as an edge
weight in products.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import urllib.parse
import urllib.request
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    ConfigError,
    CorpusError,
    InvalidCountsError,
    MissingPairError,
    ProviderError,
    UndefinedTermError,
)

DEFAULT_EPSILON = 0.01

PROVIDER_KINDS = ("static", "corpus", "remote")


@dataclass(frozen=True)
class HitCounts:
    """Document counts for a term pair: each term alone, both together, total.

    fx and fy are the number of documents containing the first and second
    term, fxy the number containing both, and m the total number of
    retrievable documents.
    """

    fx: int
    fy: int
    fxy: int
    m: int

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "fxy", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidCountsError(f"{name} must be an integer, got {value!r}")
        if self.m <= 0:
            raise InvalidCountsError(f"total document count m must be positive, got {self.m}")
        if self.fx < 0 or self.fy < 0 or self.fxy < 0:
            raise InvalidCountsError(
                f"counts must be non-negative, got ({self.fx}, {self.fy}, {self.fxy})"
            )
        if self.fxy > min(self.fx, self.fy):
            raise InvalidCountsError(
                f"co-occurrence count {self.fxy} exceeds min({self.fx}, {self.fy})"
            )
        if max(self.fx, self.fy) > self.m:
            raise InvalidCountsError(
                f"single-term count {max(self.fx, self.fy)} exceeds total {self.m}"
            )

    def swapped(self) -> "HitCounts":
        """The same pair with the term roles exchanged."""
        return HitCounts(self.fy, self.fx, self.fxy, self.m)


def ngd(counts: HitCounts) -> float:
    """Normalized co-occurrence distance between the two counted terms.

    Returns ``math.inf`` when the terms never co-occur.  Base-10 logs are
    used so that power-of-ten counts produce exact decimal values; the
    result is independent of the base.
    """
    if counts.fx == 0 or counts.fy == 0:
        term = "first" if counts.fx == 0 else "second"
        raise UndefinedTermError(f"the {term} term has a zero hit count")
    if counts.fxy == 0:
        return math.inf
    log_fx = math.log10(counts.fx)
    log_fy = math.log10(counts.fy)
    numerator = max(log_fx, log_fy) - math.log10(counts.fxy)
    denominator = math.log10(counts.m) - min(log_fx, log_fy)
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else math.inf
    return numerator / denominator


def nss(counts: HitCounts, epsilon: float = DEFAULT_EPSILON) -> float:
    """Similarity score: one minus the co-occurrence distance, clamped to [epsilon, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    distance = ngd(counts)
    if math.isinf(distance):
        return epsilon
    return min(1.0, max(epsilon, 1.0 - distance))


def _phrase_pattern(term: str) -> re.Pattern[str]:
    # Whole-word match; a multi-word term matches as a contiguous phrase.
    words = term.lower().split()
    if not words:
        raise ValueError("term is empty")
    inner = r"\W+".join(re.escape(word) for word in words)
    return re.compile(rf"(?<!\w){inner}(?!\w)", re.IGNORECASE | re.UNICODE)


def _corpus_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise CorpusError(f"corpus directory not found: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise CorpusError(f"corpus directory is empty: {directory}")
    return files


def corpus_counts(directory: str | Path, x: str, y: str) -> HitCounts:
    """Count documents in a directory containing x, y, and both.

    A document matches when the term occurs as a case-insensitive whole-word
    token (contiguous phrase for multi-word terms).
    """
    files = _corpus_files(Path(directory))
    pattern_x = _phrase_pattern(x)
    pattern_y = _phrase_pattern(y)
    fx = fy = fxy = 0
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"cannot read corpus document {path}: {exc}") from exc
        has_x = pattern_x.search(text) is not None
        has_y = pattern_y.search(text) is not None
        fx += has_x
        fy += has_y
        fxy += has_x and has_y
    return HitCounts(fx, fy, fxy, len(files))


def _pair_key(x: str, y: str) -> tuple[str, str]:
    a, b = sorted((x.strip().lower(), y.strip().lower()))
    return a, b


class PairCache:
    """Persistent term-pair cache: one TSV line per pair.

    Line format: ``term_a<TAB>term_b<TAB>fx<TAB>fy<TAB>fxy<TAB>m`` with the
    terms lowercased and lexicographically ordered.  Reads are lock-free on
    the in-memory table; writes are serialized and appended to the file.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str], HitCounts] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._entries.update(read_counts_table(self.path))

    def get(self, x: str, y: str) -> Optional[HitCounts]:
        key = _pair_key(x, y)
        counts = self._entries.get(key)
        if counts is None:
            return None
        return counts if key[0] == x.strip().lower() else counts.swapped()

    def put(self, x: str, y: str, counts: HitCounts) -> None:
        key = _pair_key(x, y)
        stored = counts if key[0] == x.strip().lower() else counts.swapped()
        with self._lock:
            self._entries[key] = stored
            if self.path is not None:
                line = format_counts_line(key[0], key[1], stored)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")


def format_counts_line(term_a: str, term_b: str, counts: HitCounts) -> str:
    return f"{term_a}\t{term_b}\t{counts.fx}\t{counts.fy}\t{counts.fxy}\t{counts.m}"


def read_counts_table(path: str | Path) -> dict[tuple[str, str], HitCounts]:
    """Read a pair-counts TSV (cache file and static table share the format)."""
    table: dict[tuple[str, str], HitCounts] = {}
    text = Path(path).read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ConfigError(f"{path}: line {number}: expected 6 tab-separated fields")
        term_a, term_b = fields[0].strip().lower(), fields[1].strip().lower()
        try:
            fx, fy, fxy, m = (int(f) for f in fields[2:])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: counts must be integers") from exc
        if (term_a, term_b) != tuple(sorted((term_a, term_b))):
            term_a, term_b = term_b, term_a
            fx, fy = fy, fx
        try:
            table[(term_a, term_b)] = HitCounts(fx, fy, fxy, m)
        except InvalidCountsError as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from exc
    return table


class CountProvider(ABC):
    """Answers document counts for a term pair."""

    @abstractmethod
    def counts(self, x: str, y: str) -> HitCounts:
        raise NotImplementedError


class StaticTableProvider(CountProvider):
    """Counts served from a fixed pair table; unknown pairs are an error."""

    def __init__(self, table: dict[tuple[str, str], HitCounts]):
        self._table = dict(table)

    @classmethod
    def from_file(cls, path: str | Path) -> "StaticTableProvider":
        return cls(read_counts_table(path))

    def counts(self, x: str, y: str) -> HitCounts:
        key = _pair_key(x, y)
        entry = self._table.get(key)
        if entry is None:
            raise MissingPairError(f"no counts for pair ({x}, {y})")
        return entry if key[0] == x.strip().lower() else entry.swapped()


class CorpusProvider(CountProvider):
    """Counts obtained by scanning a directory of text documents."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def counts(self, x: str, y: str) -> HitCounts:
        return corpus_counts(self.directory, x, y)


def _default_transport(url: str, timeout: float = 30.0) -> str:
    request = urllib.request.Request(url, headers={"User-Agent": "contexttrust/0.1"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode("utf-8", errors="replace")


def _extract_count(body: str, json_path: Optional[str], regex: Optional[str]) -> int:
    if json_path is not None:
        value = json.loads(body)
        for part in json_path.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ProviderError(f"response has no key path {json_path!r}")
            value = value[part]
        return int(value)
    assert regex is not None
    match = re.search(regex, body)
    if match is None:
        raise ProviderError(f"response does not match extraction pattern {regex!r}")
    return int(match.group(1).replace(",", ""))


class RemoteProvider(CountProvider):
    """Counts from a search endpoint, one HTTP query per term and pair.

    Consecutive upstream requests are serialized and spaced by the
    configured minimum interval.  Each query is retried a bounded number of
    times; a count is never invented on failure.
    """

    def __init__(
        self,
        endpoint: str,
        m: int,
        json_path: Optional[str] = None,
        regex: Optional[str] = None,
        interval_ms: int = 0,
        retries: int = 3,
        api_key: Optional[str] = None,
        transport: Optional[Callable[[str], str]] = None,
    ):
        if (json_path is None) == (regex is None):
            raise ConfigError("exactly one of json_path or regex must be set")
        if interval_ms < 0:
            raise ConfigError(f"interval_ms must be >= 0, got {interval_ms}")
        if m <= 0:
            raise ConfigError(f"fixed total m must be positive, got {m}")
        if retries < 1:
            raise ConfigError(f"retries must be >= 1, got {retries}")
        self.endpoint = endpoint
        self.m = m
        self.json_path = json_path
        self.regex = regex
        self.interval = interval_ms / 1000.0
        self.retries = retries
        self.api_key = api_key
        self._transport = transport or _default_transport
        self._lock = threading.Lock()
        self._last_request = 0.0

    def _url(self, query: str) -> str:
        url = self.endpoint.replace("{query}", urllib.parse.quote(query, safe=""))
        if "{key}" in url:
            if self.api_key is None:
                raise ConfigError("endpoint expects {key} but no credential is configured")
            url = url.replace("{key}", urllib.parse.quote(self.api_key, safe=""))
        return url

    def _query_count(self, query: str) -> int:
        url = self._url(query)
        last_error: Exception | None = None
        for _ in range(self.retries):
            with self._lock:
                wait = self._last_request + self.interval - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                try:
                    body = self._transport(url)
                except Exception as exc:
                    self._last_request = time.monotonic()
                    last_error = exc
                    continue
                self._last_request = time.monotonic()
            try:
                return _extract_count(body, self.json_path, self.regex)
            except (ProviderError, ValueError, json.JSONDecodeError) as exc:
                last_error = exc
        raise ProviderError(f"query {query!r} failed after {self.retries} attempts: {last_error}")

    def counts(self, x: str, y: str) -> HitCounts:
        qx, qy = f'"{x}"', f'"{y}"'
        fx = self._query_count(qx)
        if x.strip().lower() == y.strip().lower():
            return HitCounts(fx, fx, fx, self.m)
        fy = self._query_count(qy)
        fxy = self._query_count(f"{qx} {qy}")
        try:
            return HitCounts(fx, fy, fxy, self.m)
        except InvalidCountsError as exc:
            raise ProviderError(f"engine returned inconsistent counts for ({x}, {y}): {exc}") from exc


class CachedProvider(CountProvider):
    """Serves counts from a cache, delegating misses to an inner provider."""

    def __init__(self, inner: CountProvider, cache: PairCache):
        self.inner = inner
        self.cache = cache

    def counts(self, x: str, y: str) -> HitCounts:
        hit = self.cache.get(x, y)
        if hit is not None:
            return hit
        counts = self.inner.counts(x, y)
        self.cache.put(x, y, counts)
        return counts


@dataclass(frozen=True)
class ProviderConfig:
    """Which provider to build and how; loaded from a JSON config document."""

    kind: str
    table: Optional[Path] = None
    directory: Optional[Path] = None
    endpoint: Optional[str] = None
    json_path: Optional[str] = None
    regex: Optional[str] = None
    interval_ms: int = 0
    m: Optional[int] = None
    api_key_env: Optional[str] = None
    retries: int = 3


def load_provider_config(path: str | Path) -> ProviderConfig:
    """Read a provider config; relative paths resolve against the config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read provider config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: provider config must be a JSON object")
    kind = raw.get("kind")
    if kind not in PROVIDER_KINDS:
        raise ConfigError(f"{path}: kind must be one of {PROVIDER_KINDS}, got {kind!r}")
    base = path.parent

    def resolve(key: str) -> Optional[Path]:
        value = raw.get(key)
        if value is None:
            return None
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate

    extract = raw.get("extract") or {}
    config = ProviderConfig(
        kind=kind,
        table=resolve("table"),
        directory=resolve("directory"),
        endpoint=raw.get("endpoint"),
        json_path=extract.get("json_path"),
        regex=extract.get("regex"),
        interval_ms=int(raw.get("interval_ms", 0)),
        m=int(raw["m"]) if "m" in raw else None,
        api_key_env=raw.get("api_key_env"),
        retries=int(raw.get("retries", 3)),
    )
    if kind == "static" and config.table is None:
        raise ConfigError(f"{path}: static provider requires a 'table' path")
    if kind == "corpus" and config.directory is None:
        raise ConfigError(f"{path}: corpus provider requires a 'directory' path")
    if kind == "remote":
        if config.endpoint is None or "{query}" not in config.endpoint:
            raise ConfigError(f"{path}: remote provider requires an endpoint with {{query}}")
        if config.m is None:
            raise ConfigError(f"{path}: remote provider requires a fixed total 'm'")
    return config


def make_provider(
    config: ProviderConfig,
    transport: Optional[Callable[[str], str]] = None,
) -> CountProvider:
    """Instantiate the provider a config describes."""
    if config.kind == "static":
        return StaticTableProvider.from_file(config.table)
    if config.kind == "corpus":
        return CorpusProvider(config.directory)
    if config.kind == "remote":
        api_key = os.environ.get(config.api_key_env) if config.api_key_env else None
        return RemoteProvider(
            endpoint=config.endpoint,
            m=config.m,
            json_path=config.json_path,
            regex=config.regex,
            interval_ms=config.interval_ms,
            retries=config.retries,
            api_key=api_key,
            transport=transport,
        )
    raise ConfigError(f"unknown provider kind {config.kind!r}")

