"""Exception hierarchy shared by all contexttrust modules, and the input-file decoder."""


class ContextTrustError(Exception):
    """Base class for every error raised by this package."""


class TreeParseError(ContextTrustError):
    """A tree document line could not be parsed; message carries the line number."""


class TreeValidationError(ContextTrustError):
    """A parsed tree violates the rooted-tree structure or a weight bound."""


class UnknownNodeError(ContextTrustError):
    """A node id was looked up that does not exist in the tree."""


class InvalidCountsError(ContextTrustError):
    """A hit-count tuple violates its consistency invariants."""


class UndefinedTermError(ContextTrustError):
    """A term has a zero hit count, so co-occurrence distance is undefined."""


class MissingPairError(ContextTrustError):
    """A static counts table has no entry for the requested term pair."""


class CorpusError(ContextTrustError):
    """The document corpus is empty or a document cannot be read."""


class ProviderError(ContextTrustError):
    """A count provider failed to produce usable counts."""


class ConfigError(ContextTrustError):
    """A provider configuration document is malformed or incomplete."""


class InvalidContextError(ContextTrustError):
    """A keyword or task context failed its construction invariants."""


class MissingWeightError(ContextTrustError):
    """An edge on the queried path carries no weight."""


class ArityError(ContextTrustError):
    """Two sequences that must have matching (and sufficient) length do not."""


class SchemaError(ContextTrustError):
    """A CSV input does not match the expected column layout."""


class RowError(ContextTrustError):
    """A review CSV row holds an invalid value; message carries the row number."""


class DomainError(ContextTrustError):
    """An argument lies outside the domain an operation is defined on."""


class MissingContextError(ContextTrustError):
    """A trust profile has no ratings for the requested context."""


class UnknownSellerError(ContextTrustError):
    """No trust profile exists for the requested seller."""


class DegenerateInputError(ContextTrustError):
    """A statistic is undefined on the given data (e.g. zero variance)."""


def decode_input(data: bytes, path: object, error: type[ContextTrustError], offset: int = 0) -> str:
    """The text of bytes that start ``offset`` bytes into the input file ``path``.

    Every input file is UTF-8, and a BOM at its start (offset 0 only) is dropped.  A byte
    that is not UTF-8 raises ``error``, naming the file and the byte's offset in it.
    """
    try:
        return data.decode("utf-8").removeprefix("" if offset else "\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {offset + exc.start} ({exc.reason})") from exc
