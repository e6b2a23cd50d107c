"""Co-occurrence relatedness between terms, and the hit-count plumbing behind it.

The distance between two terms is computed from how often they appear alone
and together in some indexed document collection (a search engine, an offline
corpus, or a prepared table).  The similarity score is one minus that
distance, clamped to a configurable floor so it stays usable as an edge
weight in products.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
import time
import urllib.parse
import warnings
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    ConfigError,
    CorpusError,
    DomainError,
    InvalidCountsError,
    MissingPairError,
    ProviderError,
    UndefinedTermError,
    decode_input,
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
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    if counts.fxy == 0:
        return epsilon  # an unseen term too, since fxy <= min(fx, fy)
    return min(1.0, max(epsilon, 1.0 - ngd(counts)))


_TOKEN = re.compile(r"\w+")

# bytes.translate table for an ASCII document: A-Z to lowercase, [0-9a-z_] kept, every
# other byte to a space.  Among ASCII characters \w is exactly [0-9A-Za-z_], so on ASCII
# text ``data.translate(_ASCII_WORD_BYTES).split()`` yields the tokens of
# ``_TOKEN.findall(text.lower())``, tokenised in C without the regex engine.  A document is
# tokenised only when its text is ASCII, so the only bytes above 127 are a leading BOM's.
_ASCII_WORD_BYTES = bytes(
    ord(chr(code).lower()) if chr(code).isalnum() or chr(code) == "_" else ord(" ")
    for code in range(128)
).ljust(256)


def _phrase_pattern(term: str) -> re.Pattern[str]:
    # Whole-word match; a multi-word term matches as a contiguous phrase.
    inner = r"\W+".join(re.escape(word) for word in term.lower().split())
    return re.compile(rf"(?<!\w){inner}(?!\w)", re.IGNORECASE | re.UNICODE)


def _term(text: str) -> str:
    """A term as every provider and table compares it: stripped and lowercased, never blank."""
    term = text.strip().lower()
    if not term:
        raise DomainError("term is empty")
    return term


def _pair_key(x: str, y: str) -> tuple[tuple[str, str], bool]:
    """A pair's table key (normalized terms in sorted order), and whether x sorts second.

    A term no table line can hold (blank, with a tab or line break inside, or starting
    with the ``#`` that marks a comment line) is a DomainError, so it reaches neither a
    provider nor a cache file.
    """
    a, b = _term(x), _term(y)
    for term in (a, b):
        if "\t" in term or len(term.splitlines()) > 1:
            raise DomainError(f"term {term!r} has a tab or line break inside")
        if term.startswith("#"):
            raise DomainError(f"term {term!r} starts with '#', which marks a comment line")
    return ((b, a), True) if b < a else ((a, b), False)


def _oriented(x: str, y: str, counts: HitCounts) -> tuple[tuple[str, str], HitCounts]:
    """The table key of the pair (x, y), and its counts in the key's term order."""
    key, flipped = _pair_key(x, y)
    return key, counts.swapped() if flipped else counts


def _lookup(table: dict[tuple[str, str], HitCounts], x: str, y: str) -> Optional[HitCounts]:
    key, flipped = _pair_key(x, y)
    counts = table.get(key)
    return counts.swapped() if flipped and counts is not None else counts


class PairCache:
    """Persistent term-pair cache: one UTF-8 TSV line per pair, after an optional BOM.

    Line format: ``term_a<TAB>term_b<TAB>fx<TAB>fy<TAB>fxy<TAB>m`` with the terms lowercased and
    lexicographically ordered.  Bytes that are not UTF-8, read at the load or by a later
    ``put``, are a ConfigError.  Every ``put`` appends one whole line, so a last line without
    its newline was cut off by a run that died mid-write: the load drops it with a warning, and
    the next ``put`` cuts it.  Runs may share a file: each put holds an exclusive ``flock``,
    reads the lines appended since, and appends its pair only if no line read holds it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], HitCounts] = {}
        self._end = self._lines = 0  # the bytes and the count of the whole lines read
        if self.path.exists():
            with open(self.path, "rb") as handle:
                torn = self._read(handle.fileno())
            if torn:
                warnings.warn(
                    f"{self.path}: dropped a torn last line without a newline: {torn!r}",
                    stacklevel=2,
                )

    def _read(self, fd: int) -> bytes:
        """Read the whole lines past ``_end`` into the entries; return a torn line after them."""
        size = os.fstat(fd).st_size
        if size < self._end:  # replaced or cut by hand: read it again from the start
            self._entries, self._end, self._lines = {}, 0, 0
        data = os.pread(fd, size - self._end, self._end)
        end = data.rfind(b"\n") + 1
        text = decode_input(data[:end], self.path, ConfigError, self._end)
        self._lines = _parse_counts_table(text, self.path, self._entries, self._lines)
        self._end += end
        return data[end:]

    def get(self, x: str, y: str) -> Optional[HitCounts]:
        return _lookup(self._entries, x, y)

    def put(self, x: str, y: str, counts: HitCounts) -> None:
        key, stored = _oriented(x, y, counts)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd is closed
            if self._read(fd):
                os.ftruncate(fd, self._end)
            if key not in self._entries:
                line = f"{key[0]}\t{key[1]}\t{stored.fx}\t{stored.fy}\t{stored.fxy}\t{stored.m}\n"
                os.write(fd, line.encode("utf-8"))
                self._read(fd)  # takes in the line just written
        finally:
            os.close(fd)


def _parse_counts_table(
    text: str, path: str | Path, table: dict[tuple[str, str], HitCounts], number: int
) -> int:
    """Add a pair-counts TSV's lines, numbered after ``number``, to table; return the last
    number.  The cache file and static table share the format."""
    for number, raw in enumerate(text.splitlines(), start=number + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ConfigError(f"{path}: line {number}: expected 6 tab-separated fields")
        try:
            key, counts = _oriented(fields[0], fields[1], HitCounts(*(int(f) for f in fields[2:])))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: counts must be integers") from exc
        except (InvalidCountsError, DomainError) as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from exc
        if table.setdefault(key, counts) != counts:
            raise ConfigError(f"{path}: line {number}: pair {key} repeats with other counts")
    return number


class CountProvider(ABC):
    """Answers document counts for a term pair."""

    @abstractmethod
    def counts(self, x: str, y: str) -> HitCounts:
        raise NotImplementedError


class StaticTableProvider(CountProvider):
    """Counts served from a fixed pair table, keyed as lookups are; unknown pairs are an error."""

    def __init__(self, table: dict[tuple[str, str], HitCounts]):
        self._table: dict[tuple[str, str], HitCounts] = {}
        for (x, y), counts in table.items():
            key, counts = _oriented(x, y, counts)
            if self._table.setdefault(key, counts) != counts:
                raise ConfigError(f"pair {key} repeats with other counts, as ({x}, {y})")

    @classmethod
    def from_file(cls, path: str | Path) -> "StaticTableProvider":
        table: dict[tuple[str, str], HitCounts] = {}
        _parse_counts_table(decode_input(Path(path).read_bytes(), path, ConfigError), path, table, 0)
        return cls(table)

    def counts(self, x: str, y: str) -> HitCounts:
        counts = _lookup(self._table, x, y)
        if counts is None:
            raise MissingPairError(f"no counts for pair ({x}, {y})")
        return counts


_READ_SIZE = 1 << 16  # the bytes asked for by each read of a corpus document


def _is_file(entry: os.DirEntry) -> bool:
    """Whether a directory entry is a file or a symlink to one, as ``Path.is_file`` says."""
    try:
        return entry.is_file()
    except OSError:  # a symlink loop; a broken link is already False
        return False


class CorpusProvider(CountProvider):
    """Counts obtained from a directory of text documents, listed and read at the first lookup.

    A document matches a term it contains as a case-insensitive whole word (a multi-word
    term as a contiguous phrase).  Every lookup counts the same documents and m.

    The documents are indexed in one pass: each token of an ASCII document lists the
    numbers of the documents that hold it.  Each term's matching documents are found once,
    at its first lookup, and kept as a frozenset of their numbers.  The token index
    proposes candidates and ``_phrase_pattern`` decides, except for an ASCII one-token term
    on an ASCII document, where the index is exact: the regex folds case per character
    (``ſ`` matches ``s``, the Kelvin sign matches ``k``), which a lookup of lowercased
    tokens cannot follow.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._docs_by_term: dict[str, frozenset[int]] = {}

    @cached_property
    def _index(self) -> tuple[list[str], dict[bytes, list[int]], frozenset[int]]:
        """Each document's text, each token's ASCII documents, and the non-ASCII documents."""
        if not self.directory.is_dir():
            raise CorpusError(f"corpus directory not found: {self.directory}")
        dir_fd = os.open(self.directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            with os.scandir(dir_fd) as entries:
                names = sorted(entry.name for entry in entries if _is_file(entry))
            if not names:
                raise CorpusError(f"corpus directory is empty: {self.directory}")
            texts: list[str] = []
            tokens: defaultdict[bytes, list[int]] = defaultdict(list)
            non_ascii = []
            for i, name in enumerate(names):
                path = os.path.join(self.directory, name)
                try:
                    fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
                    try:
                        chunks = []
                        while chunk := os.read(fd, _READ_SIZE):
                            chunks.append(chunk)
                    finally:
                        os.close(fd)
                except OSError as exc:
                    raise CorpusError(f"cannot read corpus document {path}: {exc}") from exc
                data = b"".join(chunks)  # line endings kept: \r and \n are non-word
                text = decode_input(data, path, CorpusError)
                texts.append(text)
                if not text.isascii():
                    non_ascii.append(i)
                    continue
                for token in set(data.translate(_ASCII_WORD_BYTES).split()):
                    tokens[token].append(i)
        finally:
            os.close(dir_fd)
        return texts, tokens, frozenset(non_ascii)

    def _docs_with(self, term: str) -> frozenset[int]:
        texts, tokens, non_ascii = self._index
        lowered = term.lower()
        words = _TOKEN.findall(lowered)
        found, confirm = frozenset(), range(len(texts))
        if term.isascii() and words:
            # Every \w run of a match is a whole token of an ASCII document.
            first, *rest = (tokens.get(word.encode(), ()) for word in words)
            candidates = frozenset(first).intersection(*rest)
            if len(words) == 1 and lowered.split() == words:
                found, confirm = candidates, non_ascii
            else:
                confirm = candidates | non_ascii
        if confirm:
            search = _phrase_pattern(term).search
            found = found.union(n for n in confirm if search(texts[n]))
        return found

    def counts(self, x: str, y: str) -> HitCounts:
        x, y = _term(x), _term(y)  # a blank term is a DomainError before the corpus is read
        for term in (x, y):
            if term not in self._docs_by_term:
                self._docs_by_term[term] = self._docs_with(term)
        dx, dy = self._docs_by_term[x], self._docs_by_term[y]
        return HitCounts(len(dx), len(dy), len(dx & dy), len(self._index[0]))


def _default_transport(url: str) -> str:
    # Imported here: urllib.request (with http.client, ssl and email) is most of the
    # package's import time, and only a remote query without a transport needs it.
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": "contexttrust/0.1"})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as exc:
        exc.close()  # an error status still holds the open connection
        raise


def _extract_count(body: str, json_path: Optional[str], regex: Optional[str]) -> int:
    """The count a response body reports; a malformed body or value raises ProviderError."""
    if json_path is not None:
        try:
            value = json.loads(body)
        except ValueError as exc:
            raise ProviderError(f"response is not JSON: {exc}") from exc
        for part in json_path.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ProviderError(f"response has no key path {json_path!r}")
            value = value[part]
    else:
        match = re.search(regex, body)
        if match is None or match.group(1) is None:
            raise ProviderError(f"response does not match extraction pattern {regex!r}")
        value = match.group(1).replace(",", "")
    try:
        return _integer(value)
    except (TypeError, ValueError):
        raise ProviderError(f"response count {value!r} is not an integer") from None


def _check_remote_options(options: dict[str, object]) -> None:
    """Every rule on a remote provider's options, keyed as RemoteProvider's keywords."""
    if "{query}" not in options.get("endpoint", ""):
        raise ConfigError("remote provider requires an endpoint with {query}")
    if options.get("m") is None:
        raise ConfigError("remote provider requires a fixed total 'm'")
    if options["m"] <= 0:
        raise ConfigError(f"fixed total m must be positive, got {options['m']}")
    if options.get("interval_ms", 0) < 0:
        raise ConfigError(f"interval_ms must be >= 0, got {options['interval_ms']}")
    if options.get("retries", 1) < 1:
        raise ConfigError(f"retries must be >= 1, got {options['retries']}")
    if (options.get("json_path") is None) == (options.get("regex") is None):
        raise ConfigError("exactly one of json_path or regex must be set")
    if options.get("regex") is not None:
        try:
            groups = re.compile(options["regex"]).groups
        except re.error as exc:
            raise ConfigError(f"'regex' does not compile: {exc}") from exc
        if groups < 1:
            raise ConfigError("'regex' needs a capture group for the count")


class RemoteProvider(CountProvider):
    """Counts from a search endpoint, one HTTP query per term and pair.

    Request starts, a retry's included, are at least ``interval_ms`` apart; waiting for a
    response counts toward that.  A start is never early, and a paced one lands within µs
    of its due time: each wait sleeps short by the last sleep's overrun, then spins.  Only a
    transport failure is retried; no count is invented.
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
        _check_remote_options(dict(
            endpoint=endpoint, m=m, json_path=json_path, regex=regex,
            interval_ms=interval_ms, retries=retries,
        ))
        self.endpoint = endpoint
        self.m = m
        self.json_path = json_path
        self.regex = regex
        self.interval = interval_ms / 1000.0
        self.retries = retries
        self.api_key = api_key
        self._transport = transport or _default_transport
        self._last_start = 0.0
        self._overrun = 0.0  # how far past its end the last pacing sleep woke

    def _url(self, query: str) -> str:
        url = self.endpoint.replace("{query}", urllib.parse.quote(query, safe=""))
        if "{key}" in url:
            if self.api_key is None:
                raise ConfigError("endpoint expects {key} but no credential is configured")
            url = url.replace("{key}", urllib.parse.quote(self.api_key, safe=""))
        return url

    def _query_count(self, query: str) -> int:
        """One query's count; only a transport failure is retried."""
        url = self._url(query)
        last_error: Exception | None = None
        for _ in range(self.retries):
            due = self._last_start + self.interval
            wait = due - time.monotonic()
            if wait > 0:
                # A sleep wakes late by tens of µs: wake early by the last sleep's overrun
                # and spin the rest of the way, so the request starts at its due time.
                early = min(self._overrun, wait)
                time.sleep(wait - early)
                self._overrun = time.monotonic() - (due - early)
                while time.monotonic() < due:
                    pass
            self._last_start = time.monotonic()
            try:
                body = self._transport(url)
            except Exception as exc:
                last_error = exc
                continue
            try:
                return _extract_count(body, self.json_path, self.regex)
            except ProviderError as exc:
                raise ProviderError(f"query {query!r}: {exc}") from exc
        raise ProviderError(f"query {query!r} failed after {self.retries} attempts: {last_error}")

    def counts(self, x: str, y: str) -> HitCounts:
        same = _term(x) == _term(y)  # a blank term is a DomainError before any query
        if '"' in x + y:  # it would end the term's phrase query early
            raise DomainError(f"a remote query term cannot hold a double quote: ({x!r}, {y!r})")
        qx, qy = f'"{x}"', f'"{y}"'
        fx = self._query_count(qx)
        fy, fxy = (fx, fx) if same else (self._query_count(qy), self._query_count(f"{qx} {qy}"))
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


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value: object) -> int:
    """A JSON integer, an integral float (``1e10``) or an integer string, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is int or isinstance(value, str):
        return int(value)
    # A bool, a fraction, infinity, null or a container is not an integer.
    raise TypeError(f"expected an integer, got {value!r}")


# Each remote key is a RemoteProvider keyword, except api_key_env (see make_provider).
_REMOTE_KEYS = {
    "endpoint": _text, "m": _integer, "interval_ms": _integer, "retries": _integer,
    "api_key_env": _text,
}
_EXTRACT_KEYS = {"json_path": _text, "regex": _text}


@dataclass(frozen=True)
class ProviderConfig:
    """Which provider to build, and the keyword arguments of its constructor."""

    kind: str
    options: dict[str, object]


def load_provider_config(path: str | Path) -> ProviderConfig:
    """Read a provider config; relative paths resolve against the config file."""
    path = Path(path)
    try:
        raw = json.loads(decode_input(path.read_bytes(), path, ConfigError))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read provider config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: provider config must be a JSON object")
    kind = raw.get("kind")
    if kind not in PROVIDER_KINDS:
        raise ConfigError(f"{path}: kind must be one of {PROVIDER_KINDS}, got {kind!r}")

    def read(source: dict, key: str, convert: Callable[[object], object]) -> object:
        try:
            return convert(source[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {source[key]!r}") from exc

    if kind != "remote":
        key = "table" if kind == "static" else "directory"
        if raw.get(key) is None or not str(raw[key]).strip():
            raise ConfigError(f"{path}: {kind} provider requires a {key!r} path")
        return ProviderConfig(kind, {key: path.parent / read(raw, key, _text)})
    extract = raw.get("extract") or {}
    if not isinstance(extract, dict):
        raise ConfigError(f"{path}: 'extract' must be a JSON object, got {extract!r}")
    options = {
        key: read(source, key, convert)
        for source, keys in ((raw, _REMOTE_KEYS), (extract, _EXTRACT_KEYS))
        for key, convert in keys.items()
        if source.get(key) is not None
    }
    try:
        _check_remote_options(options)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ProviderConfig(kind, options)


def make_provider(
    config: ProviderConfig, transport: Optional[Callable[[str], str]] = None
) -> CountProvider:
    """Instantiate the provider a config describes."""
    if config.kind == "static":
        return StaticTableProvider.from_file(config.options["table"])
    if config.kind == "corpus":
        return CorpusProvider(**config.options)
    if config.kind == "remote":
        options = dict(config.options)
        api_key = os.environ.get(options.pop("api_key_env", ""))
        return RemoteProvider(**options, api_key=api_key, transport=transport)
    raise ConfigError(f"unknown provider kind {config.kind!r}")
