import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_root_set,
    brute_force_unique_path,
    chain_tree,
    oriented_edges,
    tree_edge_lists,
    tree_with_pair,
)
from contexttrust.errors import (
    ArityError,
    DomainError,
    InvalidContextError,
    MissingWeightError,
    UnknownNodeError,
)
from contexttrust.ontology import OntologyTree, parse_tree, path_between
from contexttrust.similarity import (
    KeywordContext,
    TREE_MEASURES,
    PathMode,
    TaskContext,
    inverse_distance_similarity,
    keyword_similarity,
    shared_path_ratio,
    task_similarity,
    tree_similarity,
    weighted_path_similarity,
)


@pytest.fixture(scope="module")
def sibling_tree():
    # Two siblings whose common parent sits two levels below the root.
    return parse_tree("root\tmid1\nmid1\tmid2\nmid2\ts1\nmid2\ts2\n")


# --- weighted path ------------------------------------------------------------

def test_weighted_product_golden():
    tree = chain_tree([0.9, 0.8])
    assert weighted_path_similarity(tree, "c0", "c2") == pytest.approx(0.72)


def test_weighted_reciprocal_golden():
    tree = chain_tree([0.9, 0.8])
    value = weighted_path_similarity(tree, "c0", "c2", PathMode.RECIPROCAL)
    assert value == pytest.approx(1 / 0.72)


def test_reciprocal_of_underflowed_product_is_rejected():
    tree = chain_tree([0.01] * 200)  # 1e-400 is below the smallest float
    assert weighted_path_similarity(tree, "c0", "c200") == 0.0
    with pytest.raises(DomainError, match="'c0' -> 'c200'"):
        weighted_path_similarity(tree, "c0", "c200", PathMode.RECIPROCAL)


def test_weighted_identity_is_one_in_both_modes():
    tree = chain_tree([0.9, 0.8])
    assert weighted_path_similarity(tree, "c1", "c1") == 1.0
    assert weighted_path_similarity(tree, "c1", "c1", PathMode.RECIPROCAL) == 1.0


def test_weighted_missing_weight_names_edge():
    tree = chain_tree([0.9, None])
    with pytest.raises(MissingWeightError, match="'c1', 'c2'"):
        weighted_path_similarity(tree, "c0", "c2")


def test_weighted_missing_weights_on_both_sides_name_the_first_in_path_order():
    # r -> x -> a and r -> y -> b; (r, x) is unweighted on a's side, (y, b) on b's.
    tree = OntologyTree.from_edges(
        [("r", "x", None), ("x", "a", 0.5), ("r", "y", 0.5), ("y", "b", None)]
    )
    with pytest.raises(MissingWeightError, match=r"^edge \('r', 'x'\) carries no weight$"):
        weighted_path_similarity(tree, "a", "b")
    with pytest.raises(MissingWeightError, match=r"^edge \('y', 'b'\) carries no weight$"):
        weighted_path_similarity(tree, "b", "a")


@st.composite
def tree_pair_that_may_underflow(draw):
    """(tree, a, b) whose weights are moderate or tiny, so a few tiny ones underflow."""
    edges = draw(tree_edge_lists(max_nodes=30))
    weight = st.one_of(st.floats(min_value=0.05, max_value=0.95), st.floats(1e-300, 1e-100))
    tree = OntologyTree.from_edges([(parent, child, draw(weight)) for parent, child, _ in edges])
    names = sorted(tree.nodes)
    return tree, draw(st.sampled_from(names)), draw(st.sampled_from(names))


@settings(max_examples=200)
@given(tree_pair_that_may_underflow())
def test_weighted_equals_the_product_over_path_between_edges(tree_pair):
    # The climb multiplies in path_between's edge order, so the floats are equal, not close.
    tree, a, b = tree_pair
    edges = path_between(tree, a, b).edges
    product = left_to_right_product(tree.weights[edge] for edge in edges)
    assert weighted_path_similarity(tree, a, b) == product
    if product == 0.0:
        message = f"path {a!r} -> {b!r} ({len(edges)} edges) underflows"
        with pytest.raises(DomainError, match=re.escape(message)):
            weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL)
    else:
        assert weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL) == 1.0 / product


def test_weighted_unknown_node():
    tree = chain_tree([0.9])
    with pytest.raises(UnknownNodeError):
        weighted_path_similarity(tree, "c0", "nope")


# --- inverse intermediate distance ---------------------------------------------

def test_inverse_distance_three_intermediates():
    tree = chain_tree([None] * 4)  # c0..c4: three nodes between the ends
    assert inverse_distance_similarity(tree, "c0", "c4") == pytest.approx(1 / 3)


def test_inverse_distance_identity_is_one():
    tree = chain_tree([None])
    assert inverse_distance_similarity(tree, "c0", "c0") == 1.0


def test_inverse_distance_adjacent_is_one():
    tree = chain_tree([None, None])
    assert inverse_distance_similarity(tree, "c0", "c1") == 1.0


def test_inverse_distance_deep_pair(cs_tree):
    assert inverse_distance_similarity(cs_tree, "VHDL", "Java") == pytest.approx(0.2)


# --- shared root-path ratio -----------------------------------------------------

def test_shared_ratio_sibling_golden(sibling_tree):
    # Root paths of 4 nodes each, sharing 3: 3 / 5.
    assert shared_path_ratio(sibling_tree, "s1", "s2") == pytest.approx(0.6)


def test_shared_ratio_identity(sibling_tree):
    assert shared_path_ratio(sibling_tree, "s1", "s1") == 1.0


def test_shared_ratio_root_to_depth_two_leaf():
    tree = chain_tree([None, None])
    assert shared_path_ratio(tree, "c0", "c2") == pytest.approx(1 / 3)


# --- keyword and task contexts ----------------------------------------------------

def test_keyword_golden_half():
    ka = KeywordContext(["write", "pdf", "file"])
    kb = KeywordContext(["write", "doc", "file"])
    assert keyword_similarity(ka, kb) == 0.5


def test_keyword_identical_sets():
    ka = KeywordContext(["login", "user"])
    assert keyword_similarity(ka, KeywordContext(["user", "login"])) == 1.0


def test_keyword_disjoint_sets():
    assert keyword_similarity(KeywordContext(["a"]), KeywordContext(["b"])) == 0.0


def test_keyword_normalizes_case_and_space():
    assert KeywordContext([" Write ", "PDF"]).keywords == frozenset({"write", "pdf"})


def test_keyword_rejects_empty_inputs():
    with pytest.raises(InvalidContextError):
        KeywordContext([])
    with pytest.raises(InvalidContextError):
        KeywordContext(["ok", "  "])


def test_task_identical_vectors():
    assert task_similarity(TaskContext([0.2, 0.4]), TaskContext([0.2, 0.4])) == 1.0


def test_task_opposite_vectors():
    assert task_similarity(TaskContext([0, 0]), TaskContext([1, 1])) == 0.0


def test_task_hand_computed():
    assert task_similarity(TaskContext([0.5, 0.5]), TaskContext([0.7, 0.1])) == pytest.approx(0.7)


def test_task_arity_mismatch():
    with pytest.raises(ArityError):
        task_similarity(TaskContext([0.1]), TaskContext([0.1, 0.2]))


def test_task_rejects_out_of_range_attribute():
    with pytest.raises(InvalidContextError):
        TaskContext([0.5, 1.2])
    with pytest.raises(InvalidContextError):
        TaskContext([])


# --- dispatch ---------------------------------------------------------------------

def test_tree_similarity_dispatch(cs_tree):
    assert tree_similarity(cs_tree, "VHDL", "Java", "eq1") == pytest.approx(0.2)
    with pytest.raises(DomainError, match="keyword"):
        tree_similarity(cs_tree, "VHDL", "Java", "keyword")


# --- properties -------------------------------------------------------------------

@given(tree_with_pair(weighted=True))
def test_tree_measures_are_symmetric(tree_pair):
    tree, a, b = tree_pair
    for measure in ("weighted", "eq1", "shared"):
        assert tree_similarity(tree, a, b, measure) == pytest.approx(
            tree_similarity(tree, b, a, measure)
        )
    forward = weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL)
    backward = weighted_path_similarity(tree, b, a, PathMode.RECIPROCAL)
    assert forward == pytest.approx(backward)


@given(tree_with_pair(weighted=True))
def test_tree_measures_self_similarity_is_one(tree_pair):
    tree, a, _ = tree_pair
    for measure in ("weighted", "eq1", "shared"):
        assert tree_similarity(tree, a, a, measure) == 1.0
    assert weighted_path_similarity(tree, a, a, PathMode.RECIPROCAL) == 1.0


@given(tree_with_pair(weighted=True))
def test_product_never_exceeds_min_edge_weight(tree_pair):
    tree, a, b = tree_pair
    from contexttrust.ontology import path_between

    path = path_between(tree, a, b)
    if not path.edges:
        return
    minimum = min(tree.weights[e] for e in path.edges)
    assert weighted_path_similarity(tree, a, b) <= minimum + 1e-12


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=20))
def test_appending_unit_weight_edge_is_noop(weights):
    base = chain_tree(weights)
    extended = chain_tree(weights + [1.0])
    last = f"c{len(weights)}"
    assert weighted_path_similarity(extended, "c0", f"c{len(weights) + 1}") == \
        weighted_path_similarity(base, "c0", last)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=2, max_value=30),
)
def test_uniform_weights_decrease_with_path_length(w, length):
    tree = chain_tree([w] * length)
    values = [weighted_path_similarity(tree, "c0", f"c{k}") for k in range(1, length + 1)]
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


@given(tree_with_pair(weighted=True))
def test_measure_ranges(tree_pair):
    tree, a, b = tree_pair
    assert 0.0 < weighted_path_similarity(tree, a, b) <= 1.0
    assert weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL) >= 1.0
    assert 0.0 < inverse_distance_similarity(tree, a, b) <= 1.0
    assert 0.0 < shared_path_ratio(tree, a, b) <= 1.0


@given(
    st.sets(st.sampled_from("abcdefgh"), min_size=1),
    st.sets(st.sampled_from("abcdefgh"), min_size=1),
)
def test_keyword_symmetry_and_range(terms_a, terms_b):
    ka, kb = KeywordContext(terms_a), KeywordContext(terms_b)
    value = keyword_similarity(ka, kb)
    assert value == keyword_similarity(kb, ka)
    assert 0.0 <= value <= 1.0
    assert keyword_similarity(ka, ka) == 1.0


@given(st.data())
def test_task_symmetry_and_range(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    attrs = st.lists(st.floats(min_value=0, max_value=1), min_size=n, max_size=n)
    ta, tb = TaskContext(data.draw(attrs)), TaskContext(data.draw(attrs))
    value = task_similarity(ta, tb)
    assert value == pytest.approx(task_similarity(tb, ta))
    assert -1e-12 <= value <= 1.0 + 1e-12
    assert task_similarity(ta, ta) == 1.0


@settings(max_examples=150)
@given(tree_with_pair(max_nodes=30, weighted=True))
def test_measures_match_explicit_path_enumeration(tree_pair):
    # Independent recomputation from the brute-force path, not the LCA walk.
    # The LCA walk must give the same floats, so equality is exact.
    tree, a, b = tree_pair
    nodes = brute_force_unique_path(tree, a, b)

    product = 1.0
    for edge in oriented_edges(tree, nodes):
        product *= tree.weights[edge]
    assert weighted_path_similarity(tree, a, b) == product

    intermediates = max(0, len(nodes) - 2)
    assert inverse_distance_similarity(tree, a, b) == 1.0 / max(1, intermediates)

    sa, sb = brute_force_root_set(tree, a), brute_force_root_set(tree, b)
    assert shared_path_ratio(tree, a, b) == len(sa & sb) / len(sa | sb)


@given(tree_with_pair(weighted=True))
def test_tree_measures_reject_unknown_nodes(tree_pair):
    tree, a, _ = tree_pair
    for measure in TREE_MEASURES:
        with pytest.raises(UnknownNodeError, match="'ghost'"):
            tree_similarity(tree, "ghost", a, measure)
        with pytest.raises(UnknownNodeError, match="'ghost'"):
            tree_similarity(tree, a, "ghost", measure)


def left_to_right_product(weights):
    product = 1.0
    for weight in weights:
        product *= weight
    return product


def test_tree_measures_on_a_deep_chain():
    # 5000 nodes, depth 4999: far past the default recursion limit.  Uneven
    # weights, so that a product taken in another order may differ.
    weights = [0.999 - (i % 7) * 1e-4 for i in range(4999)]
    tree = chain_tree(weights)
    assert weighted_path_similarity(tree, "c0", "c4999") == left_to_right_product(weights)
    assert weighted_path_similarity(tree, "c4999", "c0") == left_to_right_product(weights[::-1])
    assert inverse_distance_similarity(tree, "c0", "c4999") == 1 / 4998
    assert shared_path_ratio(tree, "c0", "c4999") == 1 / 5000

    middle = weights[1000:4000]
    assert weighted_path_similarity(tree, "c1000", "c4000") == left_to_right_product(middle)
    assert inverse_distance_similarity(tree, "c4000", "c1000") == 1 / 2999
    assert shared_path_ratio(tree, "c1000", "c4000") == 1001 / 4001
