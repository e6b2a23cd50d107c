import csv
import io
import random
import statistics
from array import array

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import chain_tree
from contexttrust.dataset import ContextRatings, Review, TrustProfile, build_profiles
from contexttrust.errors import (
    ArityError,
    DegenerateInputError,
    DomainError,
    MissingContextError,
    UnknownNodeError,
    UnknownSellerError,
)
from contexttrust import cli, evaluation
from contexttrust.evaluation import (
    REPORT_HEADER,
    ComparisonReport,
    EvaluationRecord,
    error_percentage,
    format_summary,
    pearson,
    predict_for_pair,
    report_to_csv,
    run_comparison,
)
from contexttrust.ontology import OntologyTree
from contexttrust.similarity import PathMode, tree_measure


def profiles_from(spec):
    return build_profiles(
        {
            seller: [
                Review(context, rate, "1-Jan-10", "t", "l")
                for context, rates in contexts.items()
                for rate in rates
            ]
            for seller, contexts in spec.items()
        }
    )


# --- error percentage ----------------------------------------------------------

def test_error_percentage_hand_computed():
    assert error_percentage(4.0, 3.0) == pytest.approx(20.0)


def test_error_percentage_exact_match_is_zero():
    assert error_percentage(2.9, 2.9) == 0.0


def test_error_percentage_signed():
    assert error_percentage(2.32, 2.9) == pytest.approx(-11.6)


@given(st.floats(min_value=0, max_value=5), st.floats(min_value=1, max_value=5))
def test_error_percentage_range(predicted, real):
    value = error_percentage(predicted, real)
    assert -100.0 <= value <= 100.0


# --- rate difference -------------------------------------------------------------

def test_rate_difference_values():
    # Aggregates 4.5 and 2.9; the column holds each pair's difference, either way round.
    profiles = profiles_from({"s": {"a": (4, 5), "b": (4, 5, 1, 3, 1, 5, 1, 1, 4, 4)}})
    tree = OntologyTree.from_edges([("a", "b", 0.5)])
    pairs = [("s", "a", "b"), ("s", "b", "a"), ("s", "a", "a")]
    report = run_comparison(profiles, tree, ["eq1"], pairs)
    differences = [record.rate_difference for record in report.records]
    assert differences == [pytest.approx(1.6), pytest.approx(1.6), 0.0]


def test_rate_difference_missing_context():
    profiles = profiles_from({"s": {"a": (4,)}})
    tree = OntologyTree.from_edges([("a", "zzz", 0.5)])
    with pytest.raises(MissingContextError):
        run_comparison(profiles, tree, ["eq1"], [("s", "a", "zzz")])


# --- pearson ----------------------------------------------------------------------

def test_pearson_perfect_positive():
    xs = [1.0, 2.0, 5.0, 7.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    xs = [1.0, 2.0, 5.0, 7.0]
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_hand_computed_golden():
    assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8, abs=1e-9)


def test_pearson_length_mismatch():
    with pytest.raises(ArityError):
        pearson([1, 2], [1, 2, 3])


def test_pearson_needs_two_points():
    with pytest.raises(ArityError):
        pearson([1], [1])


def test_pearson_zero_variance():
    with pytest.raises(DegenerateInputError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInputError):
        pearson([1, 2, 3], [4, 4, 4])


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=30),
)
def test_pearson_matches_stdlib(xs):
    assume(max(xs) - min(xs) > 1e-6)
    ys = [x * 0.7 + ((-1) ** i) * (i + 1) for i, x in enumerate(xs)]
    assume(max(ys) - min(ys) > 1e-6)
    assert pearson(xs, ys) == pytest.approx(statistics.correlation(xs, ys), abs=1e-9)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=20),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
def test_pearson_positive_affine_invariance(xs, scale, shift):
    assume(max(xs) - min(xs) > 1e-6)
    ys = [((-1) ** i) * x + i for i, x in enumerate(xs)]
    assume(max(ys) - min(ys) > 1e-6)
    base = pearson(xs, ys)
    assert pearson([scale * x + shift for x in xs], ys) == pytest.approx(base, abs=1e-9)
    assert pearson(xs, [scale * y + shift for y in ys]) == pytest.approx(base, abs=1e-9)


# --- comparison runs -----------------------------------------------------------------

@pytest.fixture
def small_setup():
    tree = chain_tree([0.9, 0.8])
    profiles = profiles_from({"s": {"c0": (4, 4), "c1": (4, 3), "c2": (2, 3)}})
    return profiles, tree


def test_identity_pair_scores_zero(small_setup):
    profiles, tree = small_setup
    report = run_comparison(profiles, tree, ["weighted", "eq1", "shared"], [("s", "c1", "c1")])
    assert all(r.abs_error_pct == 0.0 for r in report.records)


def test_empty_pairs_give_empty_report(small_setup):
    profiles, tree = small_setup
    report = run_comparison(profiles, tree, ["weighted", "eq1"], [])
    assert report.records == ()
    assert report.mean_abs_error == {}
    assert report.rate_diff_error_pearson is None


@pytest.mark.parametrize("measures", [
    [],
    ["weighted", "weighted"],
    ["weighted", "eq1", "weighted"],
    ["keyword"],
    ["weighted", "task"],
])
@pytest.mark.parametrize("pairs", [[], [("s", "c0", "c2")]])
def test_measures_checked_once_before_any_pair(small_setup, measures, pairs):
    profiles, tree = small_setup
    with pytest.raises(DomainError, match="measures") as caught:
        run_comparison(profiles, tree, measures, pairs)
    assert "pair (" not in str(caught.value)


def test_rows_ordered_by_pair_then_measure(small_setup):
    profiles, tree = small_setup
    pairs = [("s", "c0", "c2"), ("s", "c1", "c2")]
    report = run_comparison(profiles, tree, ["weighted", "eq1"], pairs)
    assert len(report.records) == 4
    keys = [(r.known, r.measure) for r in report.records]
    assert keys == [("c0", "weighted"), ("c0", "eq1"), ("c1", "weighted"), ("c1", "eq1")]


def test_comparison_values_hand_checked(small_setup):
    profiles, tree = small_setup
    report = run_comparison(profiles, tree, ["weighted"], [("s", "c0", "c2")])
    (row,) = report.records
    # known 4.0, similarity 0.72, real 2.5 -> signed (2.88 - 2.5) / 5 * 100
    assert row.similarity == pytest.approx(0.72)
    assert row.predicted == pytest.approx(2.88)
    assert row.real == pytest.approx(2.5)
    assert row.signed_error_pct == pytest.approx(7.6)
    assert row.rate_difference == pytest.approx(1.5)
    assert report.mean_abs_error["weighted"] == pytest.approx(7.6)


def test_comparison_is_deterministic(small_setup):
    profiles, tree = small_setup
    pairs = [("s", "c0", "c2"), ("s", "c2", "c0")]
    first = run_comparison(profiles, tree, ["weighted", "eq1"], pairs)
    second = run_comparison(profiles, tree, ["weighted", "eq1"], pairs)
    assert first == second


def test_unknown_seller_names_pair(small_setup):
    profiles, tree = small_setup
    with pytest.raises(UnknownSellerError, match="ghost"):
        run_comparison(profiles, tree, ["weighted"], [("ghost", "c0", "c1")])


def test_missing_context_names_pair(small_setup):
    profiles, tree = small_setup
    with pytest.raises(MissingContextError, match="pair"):
        run_comparison(profiles, tree, ["weighted"], [("s", "c0", "zzz")])


def test_missing_unknown_context_is_reported_before_a_missing_known_one(small_setup):
    profiles, tree = small_setup
    with pytest.raises(MissingContextError, match="in context 'zzz'"):
        run_comparison(profiles, tree, ["weighted"], [("s", "yyy", "zzz")])
    with pytest.raises(MissingContextError, match="in context 'yyy'"):
        run_comparison(profiles, tree, ["weighted"], [("s", "yyy", "c0")])


def test_unknown_tree_node_names_pair():
    tree = chain_tree([0.9])
    profiles = profiles_from({"s": {"c0": (4,), "offtree": (3,)}})
    with pytest.raises(UnknownNodeError, match="pair"):
        run_comparison(profiles, tree, ["weighted"], [("s", "c0", "offtree")])


@pytest.mark.parametrize("rate", [7.0, 0.5])
def test_known_rate_off_the_scale_names_pair(rate):
    # build_profiles cannot make such a rate; a hand-built profile can.
    tree = chain_tree([0.9, 0.8])
    profile = TrustProfile("s", {"c0": ContextRatings(1, rate), "c2": ContextRatings(1, 3.0)})
    with pytest.raises(DomainError, match=rf"^pair \(s, c0, c2\): known rate {rate} outside"):
        run_comparison({"s": profile}, tree, ["weighted", "eq1"], [("s", "c0", "c2")])


def test_known_rate_off_the_scale_is_reported_before_an_unknown_node():
    # A pair's rates are checked once, before its first measure meets the tree.
    tree = chain_tree([0.9])
    contexts = {"offtree": ContextRatings(1, 7.0), "c0": ContextRatings(1, 3.0)}
    profiles = {"s": TrustProfile("s", contexts)}
    with pytest.raises(DomainError, match=r"^pair \(s, offtree, c0\): known rate 7.0") as caught:
        run_comparison(profiles, tree, ["weighted"], [("s", "offtree", "c0")])
    assert type(caught.value) is DomainError
    with pytest.raises(UnknownNodeError, match=r"^pair \(s, c0, offtree\): "):
        run_comparison(profiles, tree, ["weighted"], [("s", "c0", "offtree")])


def test_underflowed_weighted_similarity_names_pair():
    tree = chain_tree([0.01] * 200)  # 1e-400 is below the smallest float
    profiles = profiles_from({"s": {"c0": (4,), "c200": (3,)}})
    message = r"^pair \(s, c0, c200\): similarity must be positive, got 0.0$"
    with pytest.raises(DomainError, match=message) as caught:
        run_comparison(profiles, tree, ["eq1", "weighted"], [("s", "c0", "c200")])
    assert type(caught.value) is DomainError


def test_degenerate_pearson_reported_absent(small_setup):
    profiles, tree = small_setup
    # Two identical pairs: rate differences have zero variance.
    pairs = [("s", "c0", "c2"), ("s", "c0", "c2")]
    report = run_comparison(profiles, tree, ["weighted"], pairs)
    assert report.rate_diff_error_pearson is None


def test_pearson_absent_without_weighted_measure(small_setup):
    profiles, tree = small_setup
    pairs = [("s", "c0", "c2"), ("s", "c1", "c2")]
    report = run_comparison(profiles, tree, ["eq1"], pairs)
    assert report.rate_diff_error_pearson is None


def summary_from_records(report, measures):
    """The summary recomputed from the rows: filter by measure, sum a list, then pearson."""
    mean_abs = {}
    for measure in measures:
        errors = [r.abs_error_pct for r in report.records if r.measure == measure]
        if errors:
            mean_abs[measure] = sum(errors) / len(errors)
    weighted_rows = [r for r in report.records if r.measure == "weighted"]
    correlation = None
    if len(weighted_rows) >= 2:
        try:
            correlation = pearson(
                [r.rate_difference for r in weighted_rows],
                [r.abs_error_pct for r in weighted_rows],
            )
        except DegenerateInputError:
            pass
    return mean_abs, correlation


def random_setup(seed):
    """Three sellers rating every node of a seven-node tree with random weights."""
    rng = random.Random(seed)
    edges = [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("e", "f")]
    tree = OntologyTree.from_edges([(p, c, rng.uniform(0.1, 0.95)) for p, c in edges])
    contexts = ["r", "a", "b", "c", "d", "e", "f"]
    profiles = profiles_from({
        f"s{i}": {c: [rng.randint(1, 5) for _ in range(rng.randint(1, 4))] for c in contexts}
        for i in range(3)
    })
    pairs = [
        (f"s{rng.randrange(3)}", rng.choice(contexts), rng.choice(contexts)) for _ in range(40)
    ]
    return profiles, tree, pairs


@pytest.mark.parametrize("measures", [
    ["weighted", "eq1", "shared"], ["eq1", "shared"], ["shared", "eq1", "weighted"], ["weighted"],
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_summary_equals_a_recomputation_from_the_records(measures, seed):
    profiles, tree, pairs = random_setup(seed)
    cases = {"none": [], "one": pairs[:1], "two": pairs[:2], "equal": [pairs[0]] * 3, "all": pairs}
    correlations = {}
    for name, chosen in cases.items():
        report = run_comparison(profiles, tree, measures, chosen)
        mean_abs, correlation = summary_from_records(report, measures)
        assert report.mean_abs_error == mean_abs
        assert list(report.mean_abs_error) == list(mean_abs)
        assert report.rate_diff_error_pearson == correlation
        correlations[name] = correlation
    # Three equal pairs have zero variance; the full list has a correlation when weighted is in.
    assert correlations["equal"] is None
    assert (correlations["all"] is None) == ("weighted" not in measures)


@pytest.mark.parametrize("mode", list(PathMode))
@pytest.mark.parametrize("measures", [
    ["weighted", "eq1", "shared"], ["eq1", "shared"], ["shared", "eq1", "weighted"], ["weighted"],
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_records_equal_predict_for_pair_and_rate_difference(measures, seed, mode):
    # The comparison reads a pair's rates once and predicts inline; each row must still be
    # the one-row API's.
    profiles, tree, pairs = random_setup(seed)
    report = run_comparison(profiles, tree, measures, pairs, mode)
    assert len(report.records) == len(pairs) * len(measures)
    for record in report.records:
        profile = profiles[record.seller]
        known, unknown = record.known, record.unknown
        assert record.similarity == tree_measure(record.measure, mode)(tree, known, unknown)
        assert record.predicted == predict_for_pair(
            profile, tree, record.measure, known, unknown, mode
        )
        assert record.signed_error_pct == error_percentage(record.predicted, record.real)
        assert record.abs_error_pct == abs(record.signed_error_pct)
        assert record.real == profile.aggregate(unknown)
        assert record.rate_difference == abs(profile.aggregate(known) - profile.aggregate(unknown))


def test_report_csv_layout(small_setup):
    profiles, tree = small_setup
    report = run_comparison(profiles, tree, ["weighted"], [("s", "c0", "c2")])
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1].startswith("s,c0,c2,weighted,0.720000,2.880000,2.500000,")
    assert len(lines) == 2


def csv_writer_text(records):
    """The report as csv.writer writes it: every row, the header first."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EvaluationRecord._fields)
    writer.writerows([*r[:4], *map("{:.6f}".format, r[4:])] for r in records)
    return buffer.getvalue()


def test_report_csv_quotes_text_like_csv_writer():
    numbers = (0.72, 2.88, 2.5, 7.6, 7.6, 1.0)
    records = (
        EvaluationRecord("plain", "c0", "c1", "weighted", *numbers),
        EvaluationRecord('Smith, "Jr"', "c0", "Books, used", "weighted", *numbers),
        EvaluationRecord("s", 'say "hi"', "line\nbreak", "eq1", *numbers),
        EvaluationRecord("s", "carriage\rreturn", "c1", "eq1", *numbers),
    )
    assert report_to_csv(ComparisonReport(records, {}, array("d"))) == csv_writer_text(records)


def block_records(count, last_text=None):
    """count rows that need no quoting; the last one's text fields replaced if given."""
    numbers = (0.72, 2.88, 2.5, 7.6, 7.6, 1.0)
    records = [EvaluationRecord("s%d" % i, "c0", "c1", "eq1", *numbers) for i in range(count)]
    if last_text is not None:
        records[-1] = EvaluationRecord(*last_text, *numbers)
    return tuple(records)


# Sizes at the edge of eval's block, which cli cuts before the report is rendered.
@pytest.mark.parametrize("count", [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_report_csv_at_block_edges_equals_one_format_per_row(count, monkeypatch):
    # The csv.writer fallback would mend a lost or doubled row, so it must not run here.
    monkeypatch.setattr(evaluation.csv, "writer", lambda *a, **k: pytest.fail("fallback ran"))
    records = block_records(count)
    expected = REPORT_HEADER + "\n" + "".join(evaluation._ROW % r for r in records)
    assert report_to_csv(ComparisonReport(records, {}, array("d"))) == expected


def test_report_csv_quoting_in_the_last_block_switches_every_row():
    records = block_records(cli._BLOCK_ROWS + 1, ("s", "Books, used", "c1", "eq1"))
    text = report_to_csv(ComparisonReport(records, {}, array("d")))
    assert text == csv_writer_text(records)
    assert text.endswith('s,"Books, used",c1,eq1,0.720000,2.880000,2.500000,'
                         '7.600000,7.600000,1.000000\n')


def test_run_comparison_records_are_evaluation_records_of_ten_fields(small_setup):
    # The records are built by tuple.__new__, which checks no arity.
    profiles, tree = small_setup
    pairs = [("s", "c0", "c2"), ("s", "c1", "c0"), ("s", "c2", "c2")]
    report = run_comparison(profiles, tree, ["weighted", "eq1", "shared"], pairs)
    assert len(report.records) == 9
    for record in report.records:
        assert type(record) is EvaluationRecord
        assert len(record) == len(EvaluationRecord._fields) == 10
        assert record.rate_difference == record[9]


def test_summary_lists_measures(small_setup):
    profiles, tree = small_setup
    report = run_comparison(
        profiles, tree, ["weighted", "eq1"], [("s", "c0", "c2"), ("s", "c1", "c0")]
    )
    summary = format_summary(report)
    assert "weighted" in summary and "eq1" in summary
    assert "pearson" in summary
