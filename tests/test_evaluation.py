import csv
import io
import statistics

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import chain_tree
from contexttrust.dataset import Review, build_profiles
from contexttrust.errors import (
    ArityError,
    DegenerateInputError,
    MissingContextError,
    UnknownNodeError,
    UnknownSellerError,
)
from contexttrust.evaluation import (
    REPORT_HEADER,
    ComparisonReport,
    EvaluationRecord,
    error_percentage,
    format_summary,
    pearson,
    rate_difference,
    report_to_csv,
    run_comparison,
)


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
    # Aggregates 4.5 and 2.9.
    profiles = profiles_from({"s": {"a": (4, 5), "b": (4, 5, 1, 3, 1, 5, 1, 1, 4, 4)}})
    profile = profiles["s"]
    assert rate_difference(profile, "a", "b") == pytest.approx(1.6)
    assert rate_difference(profile, "b", "a") == pytest.approx(1.6)
    assert rate_difference(profile, "a", "a") == 0.0


def test_rate_difference_missing_context():
    profile = profiles_from({"s": {"a": (4,)}})["s"]
    with pytest.raises(MissingContextError):
        rate_difference(profile, "a", "zzz")


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


def test_unknown_tree_node_names_pair():
    tree = chain_tree([0.9])
    profiles = profiles_from({"s": {"c0": (4,), "offtree": (3,)}})
    with pytest.raises(UnknownNodeError, match="pair"):
        run_comparison(profiles, tree, ["weighted"], [("s", "c0", "offtree")])


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


def test_report_csv_layout(small_setup):
    profiles, tree = small_setup
    report = run_comparison(profiles, tree, ["weighted"], [("s", "c0", "c2")])
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1].startswith("s,c0,c2,weighted,0.720000,2.880000,2.500000,")
    assert len(lines) == 2


def test_report_csv_quotes_text_like_csv_writer():
    numbers = (0.72, 2.88, 2.5, 7.6, 7.6, 1.0)
    records = (
        EvaluationRecord("plain", "c0", "c1", "weighted", *numbers),
        EvaluationRecord('Smith, "Jr"', "c0", "Books, used", "weighted", *numbers),
        EvaluationRecord("s", 'say "hi"', "line\nbreak", "eq1", *numbers),
        EvaluationRecord("s", "carriage\rreturn", "c1", "eq1", *numbers),
    )
    report = ComparisonReport(records, {}, None)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EvaluationRecord._fields)
    writer.writerows([*r[:4], *map("{:.6f}".format, r[4:])] for r in records)
    assert report_to_csv(report) == buffer.getvalue()


def test_summary_lists_measures(small_setup):
    profiles, tree = small_setup
    report = run_comparison(
        profiles, tree, ["weighted", "eq1"], [("s", "c0", "c2"), ("s", "c1", "c0")]
    )
    summary = format_summary(report)
    assert "weighted" in summary and "eq1" in summary
    assert "pearson" in summary
