import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import chain_tree, tree_with_pair
from contexttrust.dataset import Review, build_profiles
from contexttrust.errors import DomainError, MissingContextError, UnknownNodeError
from contexttrust.similarity import PathMode, tree_measure
from contexttrust.evaluation import predict_for_pair, predict_trust


def profile_with(context_rates):
    reviews = [
        Review(context, rate, "1-Jan-10", "t", "l")
        for context, rates in context_rates.items()
        for rate in rates
    ]
    return build_profiles({"shop": reviews})["shop"]


def test_predict_hand_computed():
    assert predict_trust(2.9, 0.8) == pytest.approx(2.32)


def test_predict_identity_similarity():
    assert predict_trust(3.7, 1.0) == 3.7


def test_predict_clamps_at_ceiling():
    assert predict_trust(4.0, 1.5) == 5.0


def test_predict_rejects_nonpositive_similarity():
    with pytest.raises(DomainError):
        predict_trust(3.0, 0.0)
    with pytest.raises(DomainError):
        predict_trust(3.0, -0.2)


def test_predict_rejects_out_of_range_rate():
    with pytest.raises(DomainError):
        predict_trust(0.5, 0.9)
    with pytest.raises(DomainError):
        predict_trust(5.5, 0.9)


@given(
    st.floats(min_value=1, max_value=5),
    st.floats(min_value=0.001, max_value=3),
    st.floats(min_value=0, max_value=0.5),
)
def test_predict_monotone_in_both_arguments(rate, sim, bump):
    base = predict_trust(rate, sim)
    assert predict_trust(min(5.0, rate + bump), sim) >= base
    assert predict_trust(rate, sim + bump) >= base


@given(st.floats(min_value=1, max_value=5), st.floats(min_value=1e-6, max_value=10))
def test_predict_stays_in_rating_range(rate, sim):
    assert 0.0 <= predict_trust(rate, sim) <= 5.0


def test_pair_identity_returns_known_aggregate():
    tree = chain_tree([0.9, 0.9])
    profile = profile_with({"c0": (4, 5)})
    for measure in ("weighted", "eq1", "shared"):
        assert predict_for_pair(profile, tree, measure, "c0", "c0") == 4.5
        assert tree_measure(measure)(tree, "c0", "c0") == 1.0


def test_pair_uniform_tree_hand_composition():
    tree = chain_tree([0.9, 0.9])
    profile = profile_with({"c0": (4, 5, 1, 3, 1, 5, 1, 1, 4, 4)})  # mean 2.9
    assert tree_measure("weighted")(tree, "c0", "c2") == pytest.approx(0.81)
    assert predict_for_pair(profile, tree, "weighted", "c0", "c2") == pytest.approx(2.349)
    assert profile.aggregate("c0") == pytest.approx(2.9)


def test_pair_unknown_tree_node():
    tree = chain_tree([0.9])
    profile = profile_with({"c0": (4,)})
    with pytest.raises(UnknownNodeError):
        predict_for_pair(profile, tree, "weighted", "c0", "ghost")


def test_pair_context_missing_from_profile():
    tree = chain_tree([0.9])
    profile = profile_with({"c1": (4,)})
    with pytest.raises(MissingContextError, match="'c0'"):
        predict_for_pair(profile, tree, "weighted", "c0", "c1")


@given(tree_with_pair(weighted=True), st.lists(st.integers(1, 5), min_size=1, max_size=10))
def test_product_mode_never_exceeds_known(tree_pair, rates):
    tree, a, b = tree_pair
    profile = profile_with({a: rates})
    rate = predict_for_pair(profile, tree, "weighted", a, b, PathMode.PRODUCT)
    assert rate <= profile.aggregate(a)
    assert 0.0 <= rate <= 5.0
