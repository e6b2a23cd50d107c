import fcntl
import gc
import http.server
import itertools
import json
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contexttrust
from helpers import DATA_DIR, valid_hit_counts
from contexttrust import semantic
from contexttrust.errors import (
    ConfigError,
    CorpusError,
    DomainError,
    InvalidCountsError,
    MissingPairError,
    ProviderError,
    UndefinedTermError,
    decode_input,
)
from contexttrust.semantic import (
    CachedProvider,
    CorpusProvider,
    CountProvider,
    HitCounts,
    PairCache,
    ProviderConfig,
    RemoteProvider,
    StaticTableProvider,
    _ASCII_WORD_BYTES,
    _ASCII_WORDS,
    _TOKEN,
    _phrase_pattern,
    load_provider_config,
    make_provider,
    ngd,
    nss,
)


def exact_ngd(c: HitCounts) -> Decimal:
    """The distance in natural logs at 60 significant digits (fxy > 0, min(fx, fy) < m)."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln_fx, ln_fy, ln_fxy, ln_m = (Decimal(n).ln() for n in (c.fx, c.fy, c.fxy, c.m))
        return (max(ln_fx, ln_fy) - ln_fxy) / (ln_m - min(ln_fx, ln_fy))


# --- hit count validation ----------------------------------------------------

def test_counts_reject_cooccurrence_above_singles():
    with pytest.raises(InvalidCountsError):
        HitCounts(10, 5, 6, 100)


def test_counts_reject_term_count_above_total():
    with pytest.raises(InvalidCountsError):
        HitCounts(101, 5, 5, 100)


def test_counts_reject_nonpositive_total():
    with pytest.raises(InvalidCountsError):
        HitCounts(0, 0, 0, 0)


def test_counts_reject_negative_values():
    with pytest.raises(InvalidCountsError):
        HitCounts(-1, 5, 0, 100)


def test_counts_reject_non_integers():
    with pytest.raises(InvalidCountsError):
        HitCounts(1.5, 5, 1, 100)


# --- distance and similarity --------------------------------------------------

def test_ngd_hand_computed_value():
    assert ngd(HitCounts(1000, 100, 100, 10**6)) == pytest.approx(0.25)


def test_ngd_identical_counts_is_zero():
    assert ngd(HitCounts(7, 7, 7, 1000)) == 0.0


def test_ngd_zero_cooccurrence_is_infinite():
    assert math.isinf(ngd(HitCounts(1000, 100, 0, 10**6)))


def test_ngd_zero_term_count_is_undefined():
    with pytest.raises(UndefinedTermError):
        ngd(HitCounts(0, 10, 0, 100))
    with pytest.raises(UndefinedTermError):
        ngd(HitCounts(10, 0, 0, 100))


def test_ngd_zero_over_zero_is_zero():
    assert ngd(HitCounts(100, 100, 100, 100)) == 0.0


def test_ngd_positive_over_zero_is_infinite():
    assert math.isinf(ngd(HitCounts(10, 10, 5, 10)))


def test_nss_hand_computed_value():
    assert nss(HitCounts(1000, 100, 100, 10**6)) == pytest.approx(0.75)


def test_nss_identical_counts_is_one():
    assert nss(HitCounts(7, 7, 7, 1000)) == 1.0


def test_nss_zero_cooccurrence_hits_floor():
    assert nss(HitCounts(1000, 100, 0, 10**6)) == 0.01
    assert nss(HitCounts(1000, 100, 0, 10**6), epsilon=0.2) == 0.2
    # An unseen term has no co-occurrence either: the floor, where ngd is undefined.
    assert nss(HitCounts(0, 10, 0, 100)) == 0.01
    assert nss(HitCounts(10, 0, 0, 100)) == 0.01


def test_nss_clamps_distance_past_one():
    # Raw score would be negative here.
    assert ngd(HitCounts(10**6, 10**6, 1, 10**7)) > 1
    assert nss(HitCounts(10**6, 10**6, 1, 10**7)) == 0.01


def test_nss_rejects_bad_epsilon():
    # The same rule, and the same error, as weigh_tree's.
    for epsilon in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\]"):
            nss(HitCounts(7, 7, 7, 1000), epsilon=epsilon)


@given(valid_hit_counts())
def test_ngd_symmetry_is_exact(counts):
    if counts.fxy == 0:
        assert math.isinf(ngd(counts)) and math.isinf(ngd(counts.swapped()))
    else:
        assert ngd(counts) == ngd(counts.swapped())


@given(valid_hit_counts())
@example(HitCounts(454, 454, 1, 455))  # ln m - ln min(fx, fy) cancels to about 0.0022
def test_ngd_log_base_invariance(counts):
    ours = ngd(counts)
    if counts.fxy == 0:
        assert ours == math.inf
    elif counts.fx == counts.fy == counts.m:
        # The denominator is exactly 0: the same documents are distance 0, else unbounded.
        assert ours == (0.0 if counts.fxy == counts.m else math.inf)
    else:
        # Rounding in the logs scales with ln m and ln max(fx, fy); dividing by
        # ln m - ln min(fx, fy) magnifies it where that difference cancels.
        exact = exact_ngd(counts)
        ln_fx, ln_fy, ln_m = (math.log(n) for n in (counts.fx, counts.fy, counts.m))
        conditioning = (ln_m + max(ln_fx, ln_fy)) / (ln_m - min(ln_fx, ln_fy))
        bound = 4 * sys.float_info.epsilon * conditioning * (1 + float(exact))
        assert abs(Decimal(ours) - exact) <= Decimal(bound)


@given(valid_hit_counts(), st.data())
def test_ngd_monotone_in_cooccurrence(counts, data):
    cap = min(counts.fx, counts.fy)
    lo = data.draw(st.integers(min_value=1, max_value=cap))
    hi = data.draw(st.integers(min_value=lo, max_value=cap))
    low = HitCounts(counts.fx, counts.fy, lo, counts.m)
    high = HitCounts(counts.fx, counts.fy, hi, counts.m)
    assert ngd(high) <= ngd(low)
    assert nss(high) >= nss(low)


@given(valid_hit_counts())
def test_nss_range(counts):
    if counts.fxy > 0:
        assert 0.01 <= nss(counts) <= 1.0


# --- corpus scanning ----------------------------------------------------------

@pytest.fixture
def tiny_corpus(tmp_path):
    directory = tmp_path / "docs"
    directory.mkdir()
    docs = ["laptop bag", "laptop computer sale", "phone case"]
    for i, text in enumerate(docs):
        (directory / f"d{i}.txt").write_text(text, encoding="utf-8")
    return directory


def test_corpus_counts_brute_checked(tiny_corpus):
    assert CorpusProvider(tiny_corpus).counts("laptop", "computer") == HitCounts(2, 1, 1, 3)


def test_corpus_counts_same_term(tiny_corpus):
    assert CorpusProvider(tiny_corpus).counts("laptop", "laptop") == HitCounts(2, 2, 2, 3)


def test_corpus_counts_absent_term_gives_zero(tiny_corpus):
    counts = CorpusProvider(tiny_corpus).counts("zzz", "laptop")
    assert counts.fx == 0
    with pytest.raises(UndefinedTermError):
        ngd(counts)


def test_corpus_counts_case_insensitive(tiny_corpus):
    assert CorpusProvider(tiny_corpus).counts("LAPTOP", "Computer").fx == 2


def test_corpus_counts_whole_word_only(tiny_corpus):
    assert CorpusProvider(tiny_corpus).counts("top", "lap").fx == 0


def test_corpus_counts_multiword_phrase(tiny_corpus):
    assert CorpusProvider(tiny_corpus).counts("laptop computer", "phone").fx == 1
    assert CorpusProvider(tiny_corpus).counts("laptop sale", "phone").fx == 0


def test_corpus_counts_empty_directory(tmp_path):
    with pytest.raises(CorpusError, match="empty"):
        CorpusProvider(tmp_path).counts("a", "b")


def test_corpus_counts_missing_directory(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        CorpusProvider(tmp_path / "absent").counts("a", "b")


def test_corpus_counts_unreadable_document(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe invalid")
    with pytest.raises(CorpusError, match="bad.txt"):
        CorpusProvider(tmp_path).counts("a", "b")


def test_corpus_document_unreadable_after_the_listing_is_named(tmp_path, monkeypatch):
    # The document is listed as a file, then swapped for a directory before it is read.
    (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
    swapped = tmp_path / "b.txt"
    swapped.write_text("beta", encoding="utf-8")
    is_file = semantic._is_file

    def listed_then_swapped(entry):
        listed = is_file(entry)
        if entry.name == swapped.name:
            swapped.unlink()
            swapped.mkdir()
        return listed

    monkeypatch.setattr(semantic, "_is_file", listed_then_swapped)
    with pytest.raises(CorpusError) as raised:
        CorpusProvider(tmp_path).counts("alpha", "beta")
    assert str(raised.value).startswith(f"cannot read corpus document {swapped}: ")
    assert isinstance(raised.value.__cause__, IsADirectoryError)


def test_corpus_document_set_is_fixed_at_first_lookup(tiny_corpus):
    provider = CorpusProvider(tiny_corpus)
    before = provider.counts("laptop", "phone")
    (tiny_corpus / "d3.txt").write_text("laptop phone", encoding="utf-8")
    assert provider.counts("laptop", "phone") == before == HitCounts(2, 1, 0, 3)


LINE_DOCS = ["laptop\nbag", "laptop computer\nsale\n", "phone\ncase\nlaptop"]
LINE_TERMS = ["laptop", "bag", "laptop bag", "computer sale", "case laptop", "sale"]


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_corpus_line_endings_count_as_their_lf_versions(tmp_path, ending):
    # Documents are read as written; a two-word phrase may span the line break.
    providers = []
    for name, newline in (("lf", "\n"), ("other", ending)):
        directory = tmp_path / name
        directory.mkdir()
        for i, text in enumerate(LINE_DOCS):
            (directory / f"d{i}.txt").write_bytes(text.replace("\n", newline).encode())
        providers.append(CorpusProvider(directory))
    lf, other = providers
    for x, y in itertools.product(LINE_TERMS, repeat=2):
        assert other.counts(x, y) == lf.counts(x, y), (x, y)
    assert lf.counts("laptop bag", "case laptop") == HitCounts(1, 1, 0, 3)


def test_corpus_document_may_start_with_bom(tmp_path):
    providers = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        directory = tmp_path / name
        directory.mkdir()
        for i, text in enumerate(LINE_DOCS):
            (directory / f"d{i}.txt").write_text(bom + text, encoding="utf-8")
        providers.append(CorpusProvider(directory))
    plain, with_bom = providers
    for x, y in itertools.product(LINE_TERMS, repeat=2):
        assert with_bom.counts(x, y) == plain.counts(x, y), (x, y)
    assert with_bom._index[2] == 0  # no document is left non-ASCII by its BOM


def test_corpus_skips_subdirectories_and_follows_symlinks_to_files(tmp_path):
    directory = tmp_path / "docs"
    (directory / "sub").mkdir(parents=True)
    (directory / "sub" / "d9.txt").write_text("laptop phone", encoding="utf-8")
    (directory / "a.txt").write_text("laptop bag", encoding="utf-8")
    (tmp_path / "outside.txt").write_text("phone laptop", encoding="utf-8")
    (directory / "b.txt").symlink_to(tmp_path / "outside.txt")
    (directory / "c.txt").symlink_to(tmp_path / "gone.txt")
    (directory / "d.txt").symlink_to(directory / "e.txt")
    (directory / "e.txt").symlink_to(directory / "d.txt")
    assert CorpusProvider(directory).counts("laptop", "phone") == HitCounts(2, 1, 1, 2)


def test_corpus_builds_phrase_patterns_only_where_the_index_cannot_decide(tiny_corpus, monkeypatch):
    built = []

    def counting_pattern(term):
        built.append(term)
        return _phrase_pattern(term)

    monkeypatch.setattr("contexttrust.semantic._phrase_pattern", counting_pattern)
    provider = CorpusProvider(tiny_corpus)
    assert provider.counts("laptop", "Phone") == HitCounts(2, 1, 0, 3)
    assert built == []
    assert provider.counts("laptop computer", "phone") == HitCounts(1, 1, 0, 3)
    assert built == ["laptop computer"]
    (tiny_corpus / "d3.txt").write_text("caf\u00e9 laptop", encoding="utf-8")
    assert CorpusProvider(tiny_corpus).counts("laptop", "phone") == HitCounts(3, 1, 0, 4)
    assert built == ["laptop computer", "laptop", "phone"]


def test_corpus_finds_each_term_once_whatever_its_case_or_spaces(monkeypatch):
    scanned = []
    docs_with = CorpusProvider._docs_with

    def counting_docs_with(self, term):
        scanned.append(term)
        return docs_with(self, term)

    monkeypatch.setattr(CorpusProvider, "_docs_with", counting_docs_with)
    provider = CorpusProvider(DATA_DIR / "corpus")
    first = provider.counts("Laptop", "computer")
    assert provider.counts("laptop", "Computer ") == first
    assert scanned == ["laptop", "computer"]


@pytest.mark.parametrize("pair", [("", "x"), ("x", " \t")])
def test_corpus_blank_term_is_refused_before_the_corpus_is_read(tmp_path, pair):
    with pytest.raises(DomainError, match="term is empty"):
        CorpusProvider(tmp_path / "missing").counts(*pair)


# Words whose case folding differs between re.IGNORECASE and str.lower(): the long s
# and the Kelvin sign fold to ASCII letters, and the dotted capital I lowers to two
# characters.  Punctuated and multi-word entries exercise the phrase pattern.
FOLDING_WORDS = ["s", "S", "ſ", "star", "ſtar", "tar", "k", "K", "\u212a", "i", "I", "İ", "ı",
                 "ß", "ss", "ẞ", "é", "É", "e", "c", "c++", "++", "a", "a_b", "1", "-", "x", "x y"]


def corpus_documents():
    others = [" ", " ", ".", "-", "\n", ", ", "_", "7", "\t", "'", "\x0b", "\x1f", "\x7f"]
    pieces = st.sampled_from(FOLDING_WORDS + others)
    return st.lists(st.lists(pieces, max_size=8).map("".join), min_size=1, max_size=6)


def test_ascii_word_table_tokenises_as_the_regex():
    for char in map(chr, range(128)):
        # The table's own rule: a \w character lowercased, any other one a space.
        word_char = char.lower() if _TOKEN.fullmatch(char) else " "
        assert char.translate(_ASCII_WORDS) == word_char, repr(char)
        text = f"Ab{char}cD"
        expected = set(_TOKEN.findall(text.lower()))
        assert set(text.translate(_ASCII_WORDS).split()) == expected, repr(char)
        # The byte table is the same rule, byte for byte.
        byte = char.encode("ascii")
        assert _ASCII_WORD_BYTES[ord(char)] == ord(_ASCII_WORDS[ord(char)]), repr(char)
        assert byte.translate(_ASCII_WORD_BYTES) == word_char.encode("ascii"), repr(char)
        data = text.encode("ascii").translate(_ASCII_WORD_BYTES)
        assert {token.decode("ascii") for token in data.split()} == expected, repr(char)
    # A leading BOM's bytes, the only non-ASCII ones tokenised, separate words.
    assert _ASCII_WORD_BYTES[128:] == b" " * 128


def regex_counts(documents, x, y):
    """The counts of the pair (x, y) from a phrase-pattern search of each whole text."""
    has_x = [_phrase_pattern(x).search(text) is not None for text in documents]
    has_y = [_phrase_pattern(y).search(text) is not None for text in documents]
    both = sum(a and b for a, b in zip(has_x, has_y))
    return HitCounts(sum(has_x), sum(has_y), both, len(documents))


def corpus_of(directory, documents):
    directory.mkdir()
    for i, text in enumerate(documents):
        (directory / f"d{i:03d}.txt").write_text(text, encoding="utf-8")
    return CorpusProvider(directory)


@settings(deadline=None)
@example(documents=["a star", "a ſtar", "STAR"], terms=["star", "ſtar"])
@example(documents=["a \u212a", "k", "ı i", "İ"], terms=["k", "K", "\u212a", "i", "İ"])
@example(documents=["c", "c++ x", "++", "x-y", "x, y", "é c++ x y"], terms=["c++", "++", "c", "x y"])
@example(documents=["a_b", "a7", "x\x7fy", "x'y\x0b1", "1\x1fs\ts"], terms=["a_b", "a", "x", "1", "s"])
@given(
    documents=corpus_documents(),
    terms=st.lists(
        st.lists(st.sampled_from(FOLDING_WORDS), min_size=1, max_size=3).map(" ".join),
        min_size=1, max_size=5,
    ),
)
def test_corpus_counts_equal_per_document_regex(documents, terms):
    with tempfile.TemporaryDirectory() as directory:
        for i, text in enumerate(documents):
            Path(directory, f"d{i}.txt").write_text(text, encoding="utf-8")
        provider = CorpusProvider(directory)
        for x, y in itertools.product(terms, repeat=2):
            assert provider.counts(x, y) == regex_counts(documents, x, y), (x, y)


def test_corpus_document_longer_than_three_reads_counts_as_its_whole_text(tmp_path):
    # Each read boundary falls inside a phrase: in its first word, just after it, and in
    # its second word.  The last term ends the file.
    size = semantic._READ_SIZE
    doc = bytearray(b"filler\n" * (3 * size // 7 + 8))
    phrases = {"alpha beta": 3, "gamma delta": 5, "epsilon zeta": 9}
    for k, (phrase, before) in enumerate(phrases.items(), start=1):
        start = k * size - before
        doc[start - 1:start + len(phrase) + 1] = f" {phrase} ".encode("ascii")
    doc += b" omega"
    assert len(doc) > 3 * size
    big = doc.decode("ascii")
    documents = [big, "alpha", "beta gamma", "delta\nomega", "zeta epsilon"]
    provider = corpus_of(tmp_path / "docs", documents)
    terms = [*phrases, "alpha", "gamma", "delta", "zeta", "omega", "filler", "eps"]
    for x, y in itertools.product(terms, repeat=2):
        assert provider.counts(x, y) == regex_counts(documents, x, y), (x, y)
    assert provider.counts("gamma delta", "omega") == HitCounts(1, 2, 1, 5)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 29, 30, 31, 64, 65, 257])
def test_corpus_counts_at_bitset_byte_and_digit_edges(tmp_path, m):
    # Bitsets are built and walked a byte at a time and held as ints of 30-bit digits.  Every
    # third document is non-ASCII, so the index leaves it to the phrase pattern, as it does
    # every document for a phrase or a non-ASCII term.
    documents = []
    for i in range(m):
        words = ["first"] * (i == 0) + ["last"] * (i == m - 1) + ["every"] * (i % 2 == 0)
        documents.append(" ".join(words + ["caf\u00e9"] * (i % 3 == 2) + ["word"]))
    provider = corpus_of(tmp_path / "docs", documents)
    terms = ["first", "last", "every", "word", "every word", "last word", "caf\u00e9 word"]
    for x, y in itertools.product(terms, repeat=2):
        assert provider.counts(x, y) == regex_counts(documents, x, y), (x, y)
    assert provider.counts("every", "last").fx == (m + 1) // 2


# --- static tables and caching --------------------------------------------------

def test_static_table_lookup_and_orientation(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("laptop\tphone\t1000000\t800000\t100000\t10000000000\n", encoding="utf-8")
    provider = StaticTableProvider.from_file(table)
    assert provider.counts("laptop", "phone") == HitCounts(10**6, 8 * 10**5, 10**5, 10**10)
    assert provider.counts("phone", "laptop") == HitCounts(8 * 10**5, 10**6, 10**5, 10**10)
    assert provider.counts(" PHONE ", "Laptop\t") == HitCounts(8 * 10**5, 10**6, 10**5, 10**10)


def test_static_table_miss(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\t1\t1\t1\t10\n", encoding="utf-8")
    with pytest.raises(MissingPairError, match="laptop"):
        StaticTableProvider.from_file(table).counts("laptop", "phone")


def test_counts_table_rejects_bad_rows(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\t1\t1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        StaticTableProvider.from_file(table)
    table.write_text("a\tb\tx\t1\t1\t10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="integers"):
        StaticTableProvider.from_file(table)
    table.write_text("a\tb\t5\t5\t9\t10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        StaticTableProvider.from_file(table)


def test_static_table_may_lack_final_newline(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\t3\t2\t1\t10\nc\td\t5\t5\t5\t300", encoding="utf-8")
    assert StaticTableProvider.from_file(table).counts("c", "d") == HitCounts(5, 5, 5, 300)


def test_counts_table_may_start_with_bom(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\t3\t2\t1\t10\n", encoding="utf-8-sig")
    assert StaticTableProvider.from_file(table).counts("a", "b") == HitCounts(3, 2, 1, 10)


def test_counts_table_normalizes_unsorted_rows(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("zebra\tant\t100\t50\t10\t1000\n", encoding="utf-8")
    provider = StaticTableProvider.from_file(table)
    assert provider.counts("zebra", "ant") == HitCounts(100, 50, 10, 1000)
    assert provider.counts("ant", "zebra") == HitCounts(50, 100, 10, 1000)


COUNTS_LOOKUPS = {
    "table": lambda path: StaticTableProvider.from_file(path).counts,
    "cache": lambda path: PairCache(path).get,
}


@pytest.mark.parametrize("kind", COUNTS_LOOKUPS)
def test_counts_table_refuses_a_pair_repeated_with_other_counts(tmp_path, kind):
    # "B A 2 4" is (4, 2) in the key's order, against "a b 3 2" on line 1.
    path = tmp_path / "counts.tsv"
    path.write_text("a\tb\t3\t2\t1\t10\nB\tA\t2\t4\t1\t10\n", encoding="utf-8")
    before = path.read_bytes()
    with pytest.raises(ConfigError, match=r"counts\.tsv: line 2: pair \('a', 'b'\) repeats"):
        COUNTS_LOOKUPS[kind](path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", COUNTS_LOOKUPS)
def test_counts_table_accepts_a_pair_repeated_with_the_same_counts(tmp_path, kind):
    path = tmp_path / "counts.tsv"
    path.write_text("a\tb\t3\t2\t1\t10\nB\tA\t2\t3\t1\t10\na\tb\t3\t2\t1\t10\n", encoding="utf-8")
    assert COUNTS_LOOKUPS[kind](path)("b", "a") == HitCounts(2, 3, 1, 10)


def test_static_table_from_a_dict_keys_pairs_as_lookups_do():
    provider = StaticTableProvider({("laptop", "Computer"): HitCounts(5, 9, 2, 10)})
    assert provider.counts("laptop", "computer") == HitCounts(5, 9, 2, 10)
    assert provider.counts("computer", "laptop") == HitCounts(9, 5, 2, 10)
    with pytest.raises(DomainError, match="tab"):
        StaticTableProvider({("lap\ttop", "computer"): HitCounts(5, 9, 2, 10)})


def test_static_table_from_a_dict_refuses_a_pair_given_twice_with_other_counts():
    # ("B", "A") keys as ("a", "b") with its counts swapped to (4, 2, 1, 10).
    conflicting = {("a", "b"): HitCounts(3, 2, 1, 10), ("B", "A"): HitCounts(2, 4, 1, 10)}
    with pytest.raises(ConfigError, match=r"pair \('a', 'b'\) repeats with other counts, as \(B, A\)"):
        StaticTableProvider(conflicting)
    same = StaticTableProvider({("a", "b"): HitCounts(3, 2, 1, 10), ("B", "A"): HitCounts(2, 3, 1, 10)})
    assert same.counts("b", "a") == HitCounts(2, 3, 1, 10)


class CountingProvider(CountProvider):
    def __init__(self, inner: CountProvider):
        self.inner = inner
        self.calls = 0

    def counts(self, x, y):
        self.calls += 1
        return self.inner.counts(x, y)


def test_cache_serves_second_call_without_provider(tiny_corpus, tmp_path):
    provider = CountingProvider(CorpusProvider(tiny_corpus))
    cached = CachedProvider(provider, PairCache(tmp_path / "cache.tsv"))
    first = cached.counts("laptop", "computer")
    second = cached.counts("laptop", "computer")
    assert provider.calls == 1
    assert first == second


def test_cache_round_trips_orientation(tmp_path):
    cache = PairCache(tmp_path / "cache.tsv")
    cache.put("zebra", "ant", HitCounts(100, 50, 10, 1000))
    assert cache.get("zebra", "ant") == HitCounts(100, 50, 10, 1000)
    assert cache.get("ant", "zebra") == HitCounts(50, 100, 10, 1000)
    assert cache.get("ZEBRA", "Ant") == HitCounts(100, 50, 10, 1000)


def test_cache_persists_across_instances(tmp_path):
    path = tmp_path / "cache.tsv"
    PairCache(path).put("a", "b", HitCounts(3, 2, 1, 10))
    reloaded = PairCache(path)
    assert reloaded.get("a", "b") == HitCounts(3, 2, 1, 10)


def test_cache_may_start_with_bom(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a\tb\t3\t2\t1\t10\n", encoding="utf-8-sig")
    cache = PairCache(path)
    cache.put("c", "d", HitCounts(4, 4, 4, 10))
    reloaded = PairCache(path)
    assert reloaded.get("a", "b") == HitCounts(3, 2, 1, 10)
    assert reloaded.get("c", "d") == HitCounts(4, 4, 4, 10)


# A run killed inside put: "c d 5 5 5 300" cut after "30", and a term cut inside "é".
TORN_TAILS = [b"c\td\t5\t5\t5\t30", "caf\u00e9".encode()[:-1]]


@pytest.mark.parametrize("tail", TORN_TAILS, ids=["inside-m", "inside-character"])
def test_cache_drops_torn_last_line(tmp_path, tail):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\n" + tail)
    with pytest.warns(UserWarning, match="cache.tsv"):
        cache = PairCache(path)
    assert cache.get("a", "b") == HitCounts(3, 2, 1, 10)
    assert cache.get("c", "d") is None


@pytest.mark.parametrize("tail", TORN_TAILS, ids=["inside-m", "inside-character"])
def test_cache_put_after_torn_line_starts_a_fresh_line(tmp_path, tail):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\n" + tail)
    with pytest.warns(UserWarning):
        cache = PairCache(path)
    cache.put("e", "f", HitCounts(1, 1, 1, 10))
    assert path.read_text(encoding="utf-8") == "a\tb\t3\t2\t1\t10\ne\tf\t1\t1\t1\t10\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = PairCache(path)
    assert reloaded.get("e", "f") == HitCounts(1, 1, 1, 10)


def test_cache_single_run_warns_once_and_cuts_its_torn_line_once(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\nc\td\t1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = PairCache(path)
        for term in "efg":
            cache.put(term, "z", HitCounts(1, 1, 1, 10))
    assert [str(w.message) for w in caught] == [
        f"{path}: dropped a torn last line without a newline: b'c\\td\\t1'"
    ]
    assert path.read_text(encoding="utf-8") == (
        "a\tb\t3\t2\t1\t10\ne\tz\t1\t1\t1\t10\nf\tz\t1\t1\t1\t10\ng\tz\t1\t1\t1\t10\n"
    )


def test_cache_two_runs_on_one_torn_file_keep_every_line(tmp_path):
    # Both runs load the torn file; the second one's first put must not cut the first's lines.
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\nc\td\t1")
    with pytest.warns(UserWarning):
        first, second = PairCache(path), PairCache(path)
    for term in "efg":
        first.put(term, "z", HitCounts(1, 1, 1, 10))
    assert len(path.read_text(encoding="utf-8").splitlines()) == 4
    second.put("h", "z", HitCounts(1, 1, 1, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = PairCache(path)
    assert path.read_text(encoding="utf-8").count("\n") == 5
    for x, y in (("a", "b"), ("e", "z"), ("f", "z"), ("g", "z"), ("h", "z")):
        assert reloaded.get(x, y) is not None


def test_cache_two_runs_putting_one_pair_keep_the_first_line(tmp_path):
    # Both runs miss ("laptop", "phone") and fetch it; an endpoint's count drifted between.
    path = tmp_path / "cache.tsv"
    first, second = PairCache(path), PairCache(path)
    first.put("laptop", "phone", HitCounts(100, 50, 10, 1000))
    second.put("phone", "laptop", HitCounts(50, 101, 10, 1000))
    assert path.read_text(encoding="utf-8") == "laptop\tphone\t100\t50\t10\t1000\n"
    for cache in (first, second, PairCache(path)):
        assert cache.get("laptop", "phone") == HitCounts(100, 50, 10, 1000)


def test_cache_one_run_putting_one_pair_twice_keeps_the_first_line(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = PairCache(path)
    cache.put("a", "b", HitCounts(3, 2, 1, 10))
    cache.put("B", "A", HitCounts(3, 3, 1, 10))
    assert path.read_text(encoding="utf-8") == "a\tb\t3\t2\t1\t10\n"
    assert cache.get("a", "b") == PairCache(path).get("a", "b") == HitCounts(3, 2, 1, 10)


def test_cache_put_cuts_a_torn_line_left_after_the_load(tmp_path):
    # Another run dies mid-write after this one loaded the file.
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\n")
    cache = PairCache(path)
    with open(path, "ab") as handle:
        handle.write(b"c\td\t1")
    cache.put("e", "f", HitCounts(1, 1, 1, 10))
    assert path.read_text(encoding="utf-8") == "a\tb\t3\t2\t1\t10\ne\tf\t1\t1\t1\t10\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = PairCache(path)
    assert reloaded.get("e", "f") == HitCounts(1, 1, 1, 10)


def test_cache_put_reads_a_file_cut_below_its_lines_again(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\nc\td\t4\t4\t4\t10\n")
    cache = PairCache(path)
    path.write_bytes(b"a\tb\t3\t3\t1\t10\n")  # replaced by hand with a shorter file
    cache.put("e", "f", HitCounts(1, 1, 1, 10))
    assert cache.get("a", "b") == HitCounts(3, 3, 1, 10)
    assert cache.get("c", "d") is None
    assert PairCache(path).get("e", "f") == HitCounts(1, 1, 1, 10)


def test_cache_put_refuses_a_line_appended_with_other_counts_by_its_line_number(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\n")
    cache = PairCache(path)
    with open(path, "ab") as handle:
        handle.write(b"# a comment\nB\tA\t2\t4\t1\t10\n")
    with pytest.raises(ConfigError, match=r"cache\.tsv: line 3: pair \('a', 'b'\) repeats"):
        cache.put("e", "f", HitCounts(1, 1, 1, 10))


def test_cache_put_refuses_a_non_utf8_line_appended_after_the_load_and_unlocks(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"a\tb\t3\t2\t1\t10\n")
    cache, other = PairCache(path), PairCache(path)
    with open(path, "ab") as handle:
        handle.write("caf\u00e9\tx\t3\t2\t1\t10\n".encode("cp1252"))
    with pytest.raises(ConfigError, match=r"cache\.tsv: not UTF-8 at byte 16 "):
        cache.put("e", "f", HitCounts(1, 1, 1, 10))
    fd = os.open(path, os.O_RDWR)
    try:  # the failed put let go of its lock
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)
    os.truncate(path, 13)  # the bad line cut by hand
    other.put("e", "f", HitCounts(1, 1, 1, 10))
    assert path.read_bytes() == b"a\tb\t3\t2\t1\t10\ne\tf\t1\t1\t1\t10\n"


def test_decode_input_drops_a_bom_only_at_the_start_of_the_file():
    bom = "\ufeffa".encode()
    assert decode_input(bom, "f", ConfigError) == "a"
    assert decode_input(bom, "f", ConfigError, offset=7) == "\ufeffa"
    with pytest.raises(CorpusError, match=r"^f: not UTF-8 at byte 9 \(invalid start byte\)$"):
        decode_input(b"ab\xff", "f", CorpusError, offset=7)


# Loads the cache named by argv[1], then puts 200 pairs named after argv[2] with fx argv[3],
# waiting for a line on stdin before the 1st and the 101st put and printing "half" after the
# 100th.
CACHE_CHILD = """
import sys, warnings
from contexttrust.semantic import HitCounts, PairCache
warnings.simplefilter("ignore")
cache = PairCache(sys.argv[1])
print("loaded", flush=True)
for i in range(200):
    if i % 100 == 0:
        sys.stdin.readline()
    cache.put(f"{sys.argv[2]}{i}", "x", HitCounts(int(sys.argv[3]), 1, 1, 10))
    if i == 99:
        print("half", flush=True)
"""


def _line_from(child) -> str:
    assert select.select([child.stdout], [], [], 60)[0], "no line from the child in 60 s"
    return child.stdout.readline()


def _two_children_on_one_torn_cache(path, p_args, q_args) -> list[str]:
    """Run CACHE_CHILD as p and q on a torn cache at path; return the file's lines."""
    path.write_bytes(b"a\tb\t3\t2\t1\t10\nc\td\t1")
    env = dict(os.environ, PYTHONPATH=str(Path(contexttrust.__file__).parents[1]))
    children = [
        subprocess.Popen([sys.executable, "-c", CACHE_CHILD, str(path), *args], env=env,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for args in (p_args, q_args)
    ]
    try:
        for child in children:  # both hold the torn fragment before either puts
            assert _line_from(child) == "loaded\n"
        for child in children:  # p puts 100, then q's first put meets p's lines
            child.stdin.write("go\n")
            child.stdin.flush()
            assert _line_from(child) == "half\n"
        for child in children:  # then both put their last 100 at once
            child.stdin.write("go\n")
            child.stdin.flush()
        for child in children:
            child.communicate(timeout=60)
            assert child.returncode == 0
    finally:
        for child in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""  # the file ends with a whole line
    assert lines[0] == "a\tb\t3\t2\t1\t10"
    return lines[1:]


def test_cache_two_processes_on_one_torn_file_keep_every_line(tmp_path):
    lines = _two_children_on_one_torn_cache(tmp_path / "cache.tsv", ("p", "1"), ("q", "1"))
    expected = {f"{name}{i}\tx\t1\t1\t1\t10" for name in "pq" for i in range(200)}
    assert len(lines) == 400 and set(lines) == expected


def test_cache_two_processes_putting_the_same_pairs_write_each_once(tmp_path):
    # p and q put the same 200 pairs with fx 1 and 2: q's first 100 meet p's lines, and
    # the last 100 race.
    path = tmp_path / "cache.tsv"
    lines = _two_children_on_one_torn_cache(path, ("s", "1"), ("s", "2"))
    assert sorted(line.split("\t")[0] for line in lines) == sorted(f"s{i}" for i in range(200))
    assert {f"s{i}\tx\t1\t1\t1\t10" for i in range(100)} <= set(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = PairCache(path)
    assert all(reloaded.get(f"s{i}", "x").fx in (1, 2) for i in range(200))


def test_counts_table_blank_term_is_an_error(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a\t\t3\t2\t1\t10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1: term is empty"):
        PairCache(path)


def test_cache_refuses_a_term_read_back_as_a_comment(tmp_path):
    # "#tag" sorts first, so its line would start with "#" and be skipped on reload.
    path = tmp_path / "cache.tsv"
    cache = PairCache(path)
    for x, y in (("#tag", "b"), ("b", " #Tag")):
        with pytest.raises(DomainError, match="comment"):
            cache.put(x, y, HitCounts(1, 1, 1, 10))
    assert not path.exists()


def test_counts_table_hash_term_is_an_error(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text("a\t#b\t3\t2\t1\t10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1: term '#b' starts with '#'"):
        StaticTableProvider.from_file(path)


def test_cache_malformed_line_before_the_last_is_an_error(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("a\tb\t3\t2\nc\td\t5\t5\t5\t300\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        PairCache(path)


def test_warm_cache_equals_cold_cache(tiny_corpus, tmp_path):
    provider = CorpusProvider(tiny_corpus)
    cold = CachedProvider(provider, PairCache(tmp_path / "c1.tsv")).counts("laptop", "phone")
    warm_provider = CachedProvider(provider, PairCache(tmp_path / "c2.tsv"))
    warm_provider.counts("laptop", "phone")
    warm = warm_provider.counts("laptop", "phone")
    assert cold == warm


def test_cached_provider_survives_source_removal(tiny_corpus, tmp_path):
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus_copy)
    cache = PairCache(tmp_path / "cache.tsv")
    cached = CachedProvider(CorpusProvider(corpus_copy), cache)
    before = cached.counts("laptop", "computer")
    shutil.rmtree(corpus_copy)
    assert cached.counts("laptop", "computer") == before


@pytest.mark.parametrize("term", ["a\tb", "a\nb", "a\r\nb", "a\u2028b", "  ", "#tag"])
def test_cached_provider_refuses_a_term_no_cache_line_can_hold(tmp_path, term):
    # A cache line is tab-separated and read with splitlines, and a "#" line is a
    # comment; such a term would write a line that every later load rejects or skips.
    path = tmp_path / "cache.tsv"
    path.write_text("a\tb\t3\t2\t1\t10\n", encoding="utf-8")
    queries = []

    def transport(url):
        queries.append(url)
        return json.dumps({"n": 1})

    engine = RemoteProvider("https://e.test/s?q={query}", m=10, json_path="n", transport=transport)
    cached = CachedProvider(engine, PairCache(path))
    for x, y in ((term, "c"), ("c", term)):
        with pytest.raises(DomainError, match="tab or line break|empty|comment"):
            cached.counts(x, y)
    assert queries == []
    assert path.read_text(encoding="utf-8") == "a\tb\t3\t2\t1\t10\n"


# --- remote provider -----------------------------------------------------------

class FakeTransport:
    def __init__(self, count_for_query, failures=0):
        self.count_for_query = count_for_query
        self.failures = failures
        self.urls = []

    def __call__(self, url):
        self.urls.append(url)
        if self.failures > 0:
            self.failures -= 1
            raise IOError("connection reset")
        from urllib.parse import parse_qs, urlparse

        query = parse_qs(urlparse(url).query)["q"][0]
        return json.dumps({"stats": {"total": self.count_for_query(query)}})


def remote(transport, **overrides):
    kwargs = dict(
        endpoint="https://engine.test/search?q={query}",
        m=10**10,
        json_path="stats.total",
        interval_ms=0,
        transport=transport,
    )
    kwargs.update(overrides)
    return RemoteProvider(**kwargs)


def test_remote_issues_three_queries():
    counts_by_query = {'"laptop"': 1000, '"phone"': 800, '"laptop" "phone"': 100}
    transport = FakeTransport(lambda q: counts_by_query[q])
    provider = remote(transport)
    assert provider.counts("laptop", "phone") == HitCounts(1000, 800, 100, 10**10)
    assert len(transport.urls) == 3


def test_remote_same_term_single_query():
    transport = FakeTransport(lambda q: 42)
    provider = remote(transport)
    assert provider.counts("laptop", "laptop") == HitCounts(42, 42, 42, 10**10)
    assert len(transport.urls) == 1


def test_remote_retries_then_succeeds():
    transport = FakeTransport(lambda q: 5, failures=2)
    provider = remote(transport, retries=3)
    assert provider.counts("a", "a").fx == 5
    assert len(transport.urls) == 3


def test_remote_fails_after_bounded_retries():
    transport = FakeTransport(lambda q: 5, failures=99)
    provider = remote(transport, retries=3)
    with pytest.raises(ProviderError, match="after 3 attempts"):
        provider.counts("a", "a")
    assert len(transport.urls) == 3


def test_remote_regex_extraction():
    def transport(url):
        return "<b>about 12,345 results</b>"

    provider = remote(transport, json_path=None, regex=r"about ([\d,]+) results")
    assert provider.counts("a", "a").fx == 12345


@pytest.mark.parametrize(
    "body, extract",
    [
        ("no digits here", {"json_path": None, "regex": r"(\d+)?"}),
        ('{"stats": {"total": null}}', {}),
        ('{"stats": {"total": [3]}}', {}),
        ('{"stats": {"total": "many"}}', {}),
        ('{"stats": {"total": Infinity}}', {}),
        ("<html>busy</html>", {}),
        ('{"stats": {}}', {}),
        ('{"stats": {"total": 12.7}}', {}),
        ('{"stats": {"total": true}}', {}),
    ],
    ids=["regex-group-unset", "null", "list", "text", "infinity", "not-json", "no-key",
         "fraction", "boolean"],
)
def test_malformed_body_fails_at_once_as_provider_error(body, extract):
    calls = []

    def transport(url):
        calls.append(url)
        return body

    provider = remote(transport, retries=3, **extract)
    with pytest.raises(ProviderError, match="query"):
        provider.counts("a", "a")
    assert len(calls) == 1


def test_remote_inconsistent_counts_rejected():
    # A pair count above a term's count, and a term paired with itself whose one count
    # is negative or above m.
    for y, counts_by_query in [
        ("b", {'"a"': 10, '"b"': 10, '"a" "b"': 500}),
        ("a", {'"a"': -5}),
        ("a", {'"a"': 10**10 + 1}),
    ]:
        provider = remote(FakeTransport(counts_by_query.__getitem__))
        with pytest.raises(ProviderError, match="inconsistent"):
            provider.counts("a", y)


@pytest.mark.parametrize("x, y", [("", "x"), ("x", "  ")])
def test_remote_blank_term_sends_no_query(x, y):
    transport = FakeTransport(lambda q: 5)
    with pytest.raises(DomainError, match="empty"):
        remote(transport).counts(x, y)
    assert transport.urls == []


def test_default_transport_closes_a_failed_response():
    class Unavailable(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_error(503)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Unavailable)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    # No transport given: each attempt goes through _default_transport, and the retry
    # loop keeps the last error in a reference cycle that only the collector frees.
    provider = remote(None, endpoint=f"http://127.0.0.1:{server.server_port}/?q={{query}}",
                      retries=2)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ProviderError, match="after 2 attempts: HTTP Error 503"):
                provider.counts("a", "a")
            gc.collect()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_remote_honors_min_interval():
    import time

    stamps = []

    def transport(url):
        stamps.append(time.monotonic())
        return json.dumps({"stats": {"total": 3}})

    provider = remote(transport, interval_ms=30)
    provider.counts("a", "b")
    assert len(stamps) == 3
    assert stamps[1] - stamps[0] >= 0.029
    assert stamps[2] - stamps[1] >= 0.029


class FakeClock:
    """Stands in for ``semantic.time``: sleeps and slow transports move it, nothing waits."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def paced_transport(clock, took, failures=0):
    """A transport that takes ``took`` seconds of fake time, failing the first ``failures``."""
    starts = []

    def transport(url):
        starts.append(clock.now)
        clock.now += took
        if len(starts) <= failures:
            raise IOError("connection reset")
        return json.dumps({"stats": {"total": 3}})

    return transport, starts


def test_remote_slower_transport_than_interval_gets_no_sleep(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("contexttrust.semantic.time", clock)
    transport, starts = paced_transport(clock, took=0.05)
    remote(transport, interval_ms=30).counts("a", "b")
    assert len(starts) == 3
    assert clock.sleeps == []


def test_remote_interval_counts_the_time_spent_waiting_for_a_response(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("contexttrust.semantic.time", clock)
    transport, starts = paced_transport(clock, took=0.4 * 0.05)
    remote(transport, interval_ms=50).counts("a", "b")
    assert clock.sleeps == [pytest.approx(0.6 * 0.05)] * 2
    assert [b - a for a, b in zip(starts, starts[1:])] == [pytest.approx(0.05)] * 2


def test_remote_retry_starts_an_interval_after_the_failed_attempt(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("contexttrust.semantic.time", clock)
    transport, starts = paced_transport(clock, took=0.4 * 0.03, failures=1)
    assert remote(transport, interval_ms=30, retries=2).counts("a", "a").fx == 3
    assert len(starts) == 2
    assert starts[1] - starts[0] >= 0.03 - 1e-9


class LateClock(FakeClock):
    """A FakeClock whose every sleep wakes 70 µs late (sleep number ``late_at`` by ``late_by``
    instead), and whose every reading takes 1 µs, so a spin on it ends."""

    def __init__(self, late_at, late_by):
        super().__init__()
        self.late_at, self.late_by = late_at, late_by

    def monotonic(self):
        self.now += 1e-6
        return self.now

    def sleep(self, seconds):
        super().sleep(seconds)
        self.now += self.late_by if len(self.sleeps) == self.late_at else 70e-6


def test_remote_starts_land_on_their_due_time_when_sleeps_wake_late(monkeypatch):
    interval = 0.001
    clock = LateClock(late_at=8, late_by=10 * interval)
    monkeypatch.setattr("contexttrust.semantic.time", clock)
    transport, starts = paced_transport(clock, took=0.4 * interval)
    provider = remote(transport, interval_ms=1)
    for i in range(8):
        provider.counts(f"x{i}", f"y{i}")
    assert len(starts) == 24 and len(clock.sleeps) == 23  # one sleep before each later start
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert min(gaps) >= interval
    # The second start is the first sleep's: nothing is known yet of how late it wakes.
    # Gap 7 follows the 10-interval overrun; the next start is on time again.
    assert gaps[7] > 10 * interval
    on_time = gaps[1:7] + gaps[8:]
    assert all(gap - interval <= 5e-6 for gap in on_time), gaps


@pytest.mark.parametrize("x, y", [('12" monitor', "screen"), ("screen", '12" monitor'),
                                  ('12" monitor', '12" monitor')])
def test_remote_double_quote_term_sends_no_query(x, y):
    transport = FakeTransport(lambda q: 5)
    with pytest.raises(DomainError, match="double quote"):
        remote(transport).counts(x, y)
    assert transport.urls == []
    # Only the phrase query cannot hold it: a table still serves the pair.
    table = StaticTableProvider({('12" monitor', "screen"): HitCounts(4, 9, 2, 10)})
    assert table.counts("screen", '12" monitor') == HitCounts(9, 4, 2, 10)


def test_remote_requires_exactly_one_extraction_rule():
    with pytest.raises(ConfigError):
        remote(lambda url: "", json_path=None, regex=None)
    with pytest.raises(ConfigError):
        remote(lambda url: "", json_path="a", regex="b")
    with pytest.raises(ConfigError, match="{query}"):
        remote(lambda url: "", endpoint="https://e.test/search")
    with pytest.raises(ConfigError, match="capture group"):
        remote(lambda url: "", json_path=None, regex=r"\d+")


def test_remote_key_placeholder_requires_credential():
    provider = remote(lambda url: "", endpoint="https://e.test/s?q={query}&key={key}")
    with pytest.raises(ConfigError, match="credential"):
        provider.counts("a", "b")


# --- provider config ------------------------------------------------------------

def test_load_static_config_resolves_relative_paths(tmp_path):
    (tmp_path / "t.tsv").write_text("a\tb\t1\t1\t1\t10\n", encoding="utf-8")
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"kind": "static", "table": "t.tsv"}), encoding="utf-8")
    config = load_provider_config(config_path)
    provider = make_provider(config)
    assert provider.counts("a", "b") == HitCounts(1, 1, 1, 10)


def test_load_corpus_config(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "d.txt").write_text("laptop", encoding="utf-8")
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"kind": "corpus", "directory": "docs"}), encoding="utf-8")
    provider = make_provider(load_provider_config(config_path))
    assert provider.counts("laptop", "laptop") == HitCounts(1, 1, 1, 1)


def test_config_may_start_with_bom(tmp_path):
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"kind": "corpus", "directory": "docs"}),
                           encoding="utf-8-sig")
    config = load_provider_config(config_path)
    assert config.options == {"directory": tmp_path / "docs"}


def test_config_paths_may_be_absolute(tmp_path):
    data = tmp_path / "data"
    (data / "docs").mkdir(parents=True)
    (data / "docs" / "d.txt").write_text("a b", encoding="utf-8")
    (data / "t.tsv").write_text("a\tb\t1\t1\t1\t10\n", encoding="utf-8")
    (tmp_path / "conf").mkdir()
    config_path = tmp_path / "conf" / "p.json"
    for payload, counts in [
        ({"kind": "static", "table": str(data / "t.tsv")}, HitCounts(1, 1, 1, 10)),
        ({"kind": "corpus", "directory": str(data / "docs")}, HitCounts(1, 1, 1, 1)),
    ]:
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert make_provider(load_provider_config(config_path)).counts("a", "b") == counts


def test_config_ignores_keys_of_other_kinds(tmp_path):
    (tmp_path / "t.tsv").write_text("a\tb\t1\t1\t1\t10\n", encoding="utf-8")
    config_path = tmp_path / "p.json"
    payload = {"kind": "static", "table": "t.tsv", "interval_ms": "x", "m": "ten", "extract": "n"}
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    assert make_provider(load_provider_config(config_path)).counts("a", "b") == HitCounts(1, 1, 1, 10)


def test_remote_config_env_credential(tmp_path, monkeypatch):
    config_path = tmp_path / "p.json"
    config_path.write_text(
        json.dumps(
            {
                "kind": "remote",
                "endpoint": "https://e.test/s?q={query}&key={key}",
                "extract": {"json_path": "stats.total"},
                "m": 1000,
                "api_key_env": "ENGINE_KEY",
            }
        ),
        encoding="utf-8",
    )
    monkeypatch.setenv("ENGINE_KEY", "s3cret")
    seen = []

    def transport(url):
        seen.append(url)
        return json.dumps({"stats": {"total": 3}})

    config = load_provider_config(config_path)
    assert "s3cret" not in repr(config)
    provider = make_provider(config, transport=transport)
    provider.counts("a", "a")
    assert "key=s3cret" in seen[0]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "nonsense"}, "kind"),
        ({"kind": "static"}, "table"),
        ({"kind": "corpus"}, "directory"),
        ({"kind": "remote", "endpoint": "https://e.test/s", "m": 10}, "{query}"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}"}, "'m'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": "ten"}, "'m'"),
        ({"kind": "corpus", "directory": 5}, "'directory'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10, "extract": "n"},
         "'extract'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10,
          "interval_ms": "x"}, "'interval_ms'"),
        ({"kind": "remote", "endpoint": ["{query}"], "m": 10}, "'endpoint'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10,
          "extract": {"json_path": 5}}, "'json_path'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10,
          "extract": {"regex": "("}}, "'regex' does not compile"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10,
          "extract": {"regex": r"\d+"}}, "'regex' needs a capture group"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 0,
          "extract": {"json_path": "n"}}, "m must be positive"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10, "retries": 0,
          "extract": {"json_path": "n"}}, "retries must be >= 1"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10, "interval_ms": -1,
          "extract": {"json_path": "n"}}, "interval_ms must be >= 0"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10,
          "extract": {"json_path": "n", "regex": "(n)"}}, "exactly one of json_path or regex"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": True,
          "extract": {"json_path": "n"}}, "'m'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10, "retries": 2.7,
          "extract": {"json_path": "n"}}, "'retries'"),
        ({"kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": 10, "interval_ms": 1.9,
          "extract": {"json_path": "n"}}, "'interval_ms'"),
    ],
)
def test_bad_configs_are_rejected(tmp_path, payload, message):
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as raised:
        load_provider_config(config_path)
    assert str(config_path) in str(raised.value)


@pytest.mark.parametrize("kind, key", [("static", "table"), ("corpus", "directory")])
@pytest.mark.parametrize("blank", ["", "  "])
def test_blank_config_path_is_refused(tmp_path, kind, key, blank):
    # Resolved against the config file, a blank path would name the config's own folder.
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"kind": kind, key: blank}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"requires a '{key}' path") as raised:
        load_provider_config(config_path)
    assert str(config_path) in str(raised.value)


@pytest.mark.parametrize("text, message", [
    ("{not json", "cannot read provider config"),
    ('["corpus"]', "must be a JSON object"),
])
def test_config_that_is_not_a_json_object_is_refused(tmp_path, text, message):
    config_path = tmp_path / "p.json"
    config_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as raised:
        load_provider_config(config_path)
    assert str(config_path) in str(raised.value)


def test_make_provider_refuses_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown provider kind 'x'"):
        make_provider(ProviderConfig("x", {}))


@pytest.mark.parametrize("value, expected", [(1e10, 10**10), ("10", 10)])
def test_remote_config_integer_keys_accept_integral_floats_and_strings(tmp_path, value, expected):
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({
        "kind": "remote", "endpoint": "https://e.test/s?q={query}", "m": value,
        "extract": {"json_path": "n"},
    }), encoding="utf-8")
    m = load_provider_config(config_path).options["m"]
    assert m == expected and type(m) is int
