"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Expected values marked as hand-computed were derived with
independent arithmetic (brute-force scans, explicit substitution) before
the library was built, then frozen here.
"""

import math
import random
import re
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DATA_DIR, chain_tree, random_tree, tree_with_pair, valid_hit_counts
from contexttrust.cli import main as cli_main
from contexttrust.dataset import Review, build_profiles, filter_profiles, load_reviews
from contexttrust.errors import DegenerateInputError
from contexttrust.evaluation import error_percentage, pearson, predict_trust, run_comparison
from contexttrust.ontology import load_tree, parse_tree, dump_tree, weigh_tree
from contexttrust.semantic import (
    CachedProvider,
    CorpusProvider,
    HitCounts,
    PairCache,
    StaticTableProvider,
    ngd,
    nss,
)
from contexttrust.similarity import (
    KeywordContext,
    PathMode,
    TaskContext,
    inverse_distance_similarity,
    keyword_similarity,
    shared_path_ratio,
    task_similarity,
    weighted_path_similarity,
)

EVALFIX = DATA_DIR / "evalfix"


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"[criterion {number:02d}] PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_inverse_distance_golden():
    with criterion(1, "three intermediate nodes give similarity 1/3", budget_seconds=1.0):
        tree = chain_tree([None] * 4)  # c0 .. c4: three interior nodes
        assert inverse_distance_similarity(tree, "c0", "c4") == 1 / 3


def test_criterion_02_shared_path_ratio_golden():
    with criterion(2, "siblings below a depth-2 parent give ratio 3/5", budget_seconds=1.0):
        tree = parse_tree("root\tmid1\nmid1\tmid2\nmid2\ts1\nmid2\ts2\n")
        assert shared_path_ratio(tree, "s1", "s2") == 3 / 5


def _natural_log_ngd(c):
    if c.fxy == 0:
        return math.inf
    num = max(math.log(c.fx), math.log(c.fy)) - math.log(c.fxy)
    den = math.log(c.m) - min(math.log(c.fx), math.log(c.fy))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _random_counts(rng, min_fxy=0):
    m = rng.randint(2, 10**12)
    fx = rng.randint(1, m)
    fy = rng.randint(1, m)
    fxy = rng.randint(min_fxy, min(fx, fy)) if min(fx, fy) >= min_fxy else min_fxy
    return HitCounts(fx, fy, fxy, m)


def test_criterion_03_distance_properties():
    with criterion(3, "distance symmetry, log-base invariance, monotonicity", budget_seconds=5.0):
        rng = random.Random(1318)
        for _ in range(1000):
            counts = _random_counts(rng)
            ours, swapped = ngd(counts), ngd(counts.swapped())
            if math.isinf(ours):
                assert math.isinf(swapped)
            else:
                assert ours == swapped
            oracle = _natural_log_ngd(counts)
            if math.isinf(oracle):
                assert math.isinf(ours)
            else:
                assert abs(ours - oracle) < 1e-9
        for _ in range(1000):
            counts = _random_counts(rng, min_fxy=1)
            cap = min(counts.fx, counts.fy)
            lower = rng.randint(1, counts.fxy)
            low = HitCounts(counts.fx, counts.fy, lower, counts.m)
            high = HitCounts(counts.fx, counts.fy, rng.randint(counts.fxy, cap), counts.m)
            assert ngd(high) <= ngd(low)
            assert nss(high) >= nss(low)


def _scan_oracle(directory, term):
    # Independent formulation: token lists and sliding windows, no regex.
    wanted = [w.lower() for w in term.split()]
    hits = 0
    for path in sorted(directory.iterdir()):
        tokens = re.findall(r"\w+", path.read_text(encoding="utf-8").lower())
        n = len(wanted)
        found = any(tokens[i : i + n] == wanted for i in range(len(tokens) - n + 1))
        hits += found
    return hits


def test_criterion_04_corpus_provider_matches_brute_force(tmp_path):
    with criterion(4, "corpus provider equals brute-force scan on 100 pairs", budget_seconds=10.0):
        corpus = DATA_DIR / "corpus"
        docs = sorted(corpus.iterdir())
        assert len(docs) >= 50
        vocabulary = [
            "laptop", "notebook", "computer", "keyboard", "mouse", "monitor",
            "camera", "lens", "tripod", "phone", "charger", "cable",
            "book", "novel", "paperback", "shelf", "lamp", "desk",
            "tablet", "stylus", "headphones", "speaker", "router", "printer",
            "backpack", "router cable", "laptop computer", "new keyboard",
            "missingword",
        ]
        provider = CachedProvider(CorpusProvider(corpus), PairCache(tmp_path / "cache.tsv"))
        rng = random.Random(92)
        for _ in range(100):
            x, y = rng.choice(vocabulary), rng.choice(vocabulary)
            counts = provider.counts(x, y)
            fx, fy = _scan_oracle(corpus, x), _scan_oracle(corpus, y)
            assert counts.fx == fx
            assert counts.fy == fy
            assert counts.m == len(docs)
            both = 0
            wanted_x, wanted_y = x.lower().split(), y.lower().split()
            for path in docs:
                tokens = re.findall(r"\w+", path.read_text(encoding="utf-8").lower())

                def has(wanted):
                    n = len(wanted)
                    return any(tokens[i : i + n] == wanted for i in range(len(tokens) - n + 1))

                both += has(wanted_x) and has(wanted_y)
            assert counts.fxy == both


def test_criterion_05_keyword_golden():
    with criterion(5, "pdf/doc keyword sets give similarity 1/2"):
        ka = KeywordContext(["write", "pdf", "file"])
        kb = KeywordContext(["write", "doc", "file"])
        assert keyword_similarity(ka, kb) == 0.5


def test_criterion_06_error_percentage_goldens():
    with criterion(6, "error percentage: (4,3) -> +20 and (x,x) -> 0"):
        assert error_percentage(4.0, 3.0) == 20.0
        for value in (1.0, 2.9, 3.7, 5.0):
            assert error_percentage(value, value) == 0.0


def test_criterion_07_review_ingestion_golden():
    with criterion(7, "ten bundled laptop rows parse to the known rates, mean 2.9"):
        reviews = load_reviews(DATA_DIR / "laptop_reviews.csv")
        assert [r.rate for r in reviews] == [4, 5, 1, 3, 1, 5, 1, 1, 4, 4]
        profile = build_profiles({"seller": reviews})["seller"]
        assert profile.aggregate("Laptop") == 2.9


def test_criterion_08_weighted_beats_inverse_distance_on_fixture():
    with criterion(
        8, "fixture: weighted product error strictly below inverse-distance error",
        budget_seconds=5.0,
    ):
        tree = load_tree(EVALFIX / "store_tree.tsv")
        provider = StaticTableProvider.from_file(EVALFIX / "counts.tsv")
        weighted_tree, notes = weigh_tree(tree, provider)
        assert notes == []
        profiles = filter_profiles(
            build_profiles(
                {
                    seller: load_reviews(EVALFIX / f"{seller}.csv", seller=seller)
                    for seller in ("techmart", "pageturner", "allgoods")
                }
            ),
            min_contexts=2,
            min_ratings=5,
        )
        pairs = [
            ("techmart", "Laptop", "Computers"),
            ("techmart", "Laptop", "Electronics"),
            ("pageturner", "Books", "Electronics"),
            ("techmart", "Computers", "Electronics"),
            ("allgoods", "Laptop", "Books"),
        ]
        report = run_comparison(profiles, weighted_tree, ["weighted", "eq1"], pairs)
        assert len(report.records) == 10
        weighted_mean = report.mean_abs_error["weighted"]
        eq1_mean = report.mean_abs_error["eq1"]
        # Frozen from the pre-build hand computation of this fixture.
        assert weighted_mean == pytest.approx(14.0756, abs=1e-6)
        assert eq1_mean == pytest.approx(28.4, abs=1e-9)
        assert weighted_mean < eq1_mean
        assert report.rate_diff_error_pearson == pytest.approx(-0.481445, abs=1e-6)


def test_criterion_09_pearson_properties():
    with criterion(9, "pearson affine invariance (1e-9) and 0.8 golden"):
        assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8, abs=1e-9)
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(3, 25)
            xs = [rng.uniform(-50, 50) for _ in range(n)]
            ys = [rng.uniform(-50, 50) for _ in range(n)]
            try:
                base = pearson(xs, ys)
            except DegenerateInputError:
                continue
            scale, shift = rng.uniform(0.01, 20), rng.uniform(-30, 30)
            assert abs(pearson([scale * x + shift for x in xs], ys) - base) < 1e-9
            assert abs(pearson(xs, [scale * y + shift for y in ys]) - base) < 1e-9


def test_criterion_10_eval_cli_is_deterministic(tmp_path, capsys):
    with criterion(10, "consecutive eval runs produce byte-identical reports"):
        weighted = tmp_path / "weighted.tsv"
        assert cli_main([
            "weigh",
            "--tree", str(EVALFIX / "store_tree.tsv"),
            "--provider", str(EVALFIX / "provider.json"),
            "--out", str(weighted),
        ]) == 0
        reports = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code = cli_main([
                "eval",
                "--tree", str(weighted),
                "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
                "--reviews", f"pageturner={EVALFIX / 'pageturner.csv'}",
                "--reviews", f"allgoods={EVALFIX / 'allgoods.csv'}",
                "--pairs", str(EVALFIX / "pairs.csv"),
                "--measure", "weighted",
                "--measure", "eq1",
                "--min-contexts", "2",
                "--min-ratings", "5",
                "--out", str(out),
            ])
            assert code == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert len(reports[0]) > 0


# --- criterion 11: randomized invariant battery, >= 500 cases per property ---

PROPERTY_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(tree_with_pair(max_nodes=25, weighted=True))
def _tree_measures_symmetric_and_self_one(tree_pair):
    tree, a, b = tree_pair
    for fn in (
        weighted_path_similarity,
        inverse_distance_similarity,
        shared_path_ratio,
    ):
        assert fn(tree, a, b) == pytest.approx(fn(tree, b, a))
        assert fn(tree, a, a) == 1.0


@PROPERTY_SETTINGS
@given(
    st.sets(st.sampled_from("abcdefgh"), min_size=1),
    st.sets(st.sampled_from("abcdefgh"), min_size=1),
    st.lists(st.floats(0, 1), min_size=3, max_size=3),
    st.lists(st.floats(0, 1), min_size=3, max_size=3),
)
def _set_measures_symmetric_and_self_one(terms_a, terms_b, attrs_a, attrs_b):
    ka, kb = KeywordContext(terms_a), KeywordContext(terms_b)
    assert keyword_similarity(ka, kb) == keyword_similarity(kb, ka)
    assert keyword_similarity(ka, ka) == 1.0
    ta, tb = TaskContext(attrs_a), TaskContext(attrs_b)
    assert task_similarity(ta, tb) == pytest.approx(task_similarity(tb, ta))
    assert task_similarity(ta, ta) == 1.0


@PROPERTY_SETTINGS
@given(valid_hit_counts(), st.floats(min_value=1, max_value=5),
       st.floats(min_value=1e-3, max_value=4))
def _clamping_ranges(counts, rate, sim):
    if counts.fxy > 0:
        assert 0.01 <= nss(counts) <= 1.0
    else:
        assert nss(counts) == 0.01
    assert 0.0 <= predict_trust(rate, sim) <= 5.0


@PROPERTY_SETTINGS
@given(tree_with_pair(max_nodes=25, weighted=True))
def _weighted_mode_ranges(tree_pair):
    tree, a, b = tree_pair
    assert 0.0 < weighted_path_similarity(tree, a, b) <= 1.0
    assert weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL) >= 1.0
    assert 0.0 < shared_path_ratio(tree, a, b) <= 1.0


@PROPERTY_SETTINGS
@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=20))
def _uniform_tree_similarity_strictly_decreases(w, length):
    tree = chain_tree([w] * length)
    values = [weighted_path_similarity(tree, "c0", f"c{k}") for k in range(1, length + 1)]
    assert all(left > right for left, right in zip(values, values[1:]))


@PROPERTY_SETTINGS
@given(
    st.dictionaries(
        st.sampled_from(["s1", "s2", "s3"]),
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 5)), max_size=25),
    ),
    st.integers(1, 3),
    st.integers(1, 4),
)
def _filter_idempotent(spec, min_contexts, min_ratings):
    profiles = build_profiles(
        {
            seller: [Review(ctx, rate, "d", "t", "l") for ctx, rate in rows]
            for seller, rows in spec.items()
        }
    )
    once = filter_profiles(profiles, min_contexts, min_ratings)
    assert filter_profiles(once, min_contexts, min_ratings) == once


@PROPERTY_SETTINGS
@given(random_tree(max_nodes=25, weighted=True))
def _tree_round_trip(tree):
    assert parse_tree(dump_tree(tree)) == tree


def test_criterion_11_invariant_battery():
    with criterion(
        11, "module invariants hold over 500 randomized cases each", budget_seconds=60.0
    ):
        _tree_measures_symmetric_and_self_one()
        _set_measures_symmetric_and_self_one()
        _clamping_ranges()
        _weighted_mode_ranges()
        _uniform_tree_similarity_strictly_decreases()
        _filter_idempotent()
        _tree_round_trip()
