import random
import re
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_measures,
    brute_force_root_set,
    brute_force_unique_path,
    chain_tree,
    oriented_edges,
    random_tree,
    tree_edge_lists,
    tree_nodes,
    tree_with_pair,
)
from contexttrust.errors import (
    ArityError,
    DomainError,
    InvalidContextError,
    MissingWeightError,
    UnknownNodeError,
)
from contexttrust import evaluation, similarity
from contexttrust.dataset import Review, build_profiles
from contexttrust.ontology import (
    OntologyTree,
    _meet,
    intermediate_count,
    parse_tree,
    path_between,
    weigh_tree,
)
from contexttrust.semantic import HitCounts, StaticTableProvider
from contexttrust.similarity import (
    KeywordContext,
    TREE_MEASURES,
    PathMode,
    TaskContext,
    inverse_distance_similarity,
    keyword_similarity,
    shared_path_ratio,
    task_similarity,
    tree_measure,
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


def predict_from_rate_one(tree, a, b, mode):
    profile = build_profiles({"s": [Review(a, 1, "d", "t", "l")]})["s"]
    return evaluation.predict_for_pair(profile, tree, "weighted", a, b, mode)


MODE_ENTRY_POINTS = {
    "weighted_path_similarity": weighted_path_similarity,
    "tree_measure": lambda tree, a, b, mode: tree_measure("weighted", mode)(tree, a, b),
    "predict_for_pair": predict_from_rate_one,  # known rate 1, so the prediction is the measure
}


@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
@pytest.mark.parametrize("mode, expected", [
    ("reciprocal", 4.0), ("product", 0.25), (PathMode.RECIPROCAL, 4.0), (PathMode.PRODUCT, 0.25),
])
def test_a_mode_given_as_its_string_value_is_that_mode(entry, mode, expected):
    tree = chain_tree([0.5, 0.5])
    assert MODE_ENTRY_POINTS[entry](tree, "c0", "c2", mode) == expected


@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
@pytest.mark.parametrize("mode", ["bogus", "Reciprocal", "", None, 1])
def test_a_mode_that_names_no_path_mode_is_refused(entry, mode):
    tree = chain_tree([0.5, 0.5])
    with pytest.raises(DomainError, match=re.escape(f"mode {mode!r} must be one of")):
        MODE_ENTRY_POINTS[entry](tree, "c0", "c2", mode)


def test_tree_measure_reads_a_string_mode_once():
    # Eval's weighted calls test the mode by identity, so tree_measure hands them a member.
    assert tree_measure("weighted", "product") is weighted_path_similarity
    assert tree_measure("weighted", "reciprocal").keywords == {"mode": PathMode.RECIPROCAL}
    assert tree_measure("weighted", "reciprocal").keywords["mode"] is PathMode.RECIPROCAL
    assert tree_measure("eq1", "reciprocal") is inverse_distance_similarity
    with pytest.raises(DomainError, match="mode 'bogus'"):
        tree_measure("shared", "bogus")


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


def test_weighted_reads_each_trees_own_weights():
    # The measure reads weights from root paths each tree remembers from its own ``weights``;
    # a tree made by weigh_tree or replace must not see the memo of the tree it came from.
    tree = parse_tree("r\tx\nx\ta\nr\tb\n")
    for _ in range(2):  # the second query reads the remembered paths
        with pytest.raises(MissingWeightError, match=r"^edge \('x', 'a'\) carries no weight$"):
            weighted_path_similarity(tree, "a", "b")
    table = {("r", "x"): HitCounts(90, 80, 70, 1000), ("x", "a"): HitCounts(60, 50, 20, 1000),
             ("r", "b"): HitCounts(40, 30, 10, 1000)}
    weighted, _ = weigh_tree(tree, StaticTableProvider(table))
    full = weighted_path_similarity(weighted, "a", "b")
    # Both made after the map of the tree they come from was read.
    reweighted = replace(tree, weights=dict(weighted.weights))
    halved = replace(weighted, weights={edge: w / 2 for edge, w in weighted.weights.items()})
    assert weighted_path_similarity(halved, "a", "b") == full / 8  # three edges, each halved
    for a, b in [("a", "b"), ("b", "a"), ("a", "x"), ("r", "a")]:
        for view in (weighted, reweighted, halved):
            edges = path_between(view, a, b).edges
            product = left_to_right_product(view.weights[edge] for edge in edges)
            assert weighted_path_similarity(view, a, b) == product
        assert weighted_path_similarity(halved, a, b) < weighted_path_similarity(weighted, a, b)
    with pytest.raises(MissingWeightError, match=r"^edge \('x', 'a'\) carries no weight$"):
        weighted_path_similarity(tree, "a", "b")
    with pytest.raises(MissingWeightError, match=r"^edge \('r', 'b'\) carries no weight$"):
        weighted_path_similarity(tree, "r", "b")
    assert tree._root_paths.keys() == {"a", "b", "r"}
    assert weighted._root_paths.keys() == {"a", "b", "x", "r"}


@st.composite
def tree_pair_that_may_underflow(draw):
    """(tree, a, b) whose weights are moderate or tiny, so a few tiny ones underflow."""
    edges = draw(tree_edge_lists(max_nodes=30))
    weight = st.one_of(st.floats(min_value=0.05, max_value=0.95), st.floats(1e-300, 1e-100))
    tree = OntologyTree.from_edges([(parent, child, draw(weight)) for parent, child, _ in edges])
    names = sorted(tree_nodes(tree))
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
    assert tree_measure("eq1")(cs_tree, "VHDL", "Java") == pytest.approx(0.2)
    with pytest.raises(DomainError, match="keyword"):
        tree_measure("keyword")


# --- properties -------------------------------------------------------------------

@given(tree_with_pair(weighted=True))
def test_tree_measures_are_symmetric(tree_pair):
    tree, a, b = tree_pair
    for measure in ("weighted", "eq1", "shared"):
        assert tree_measure(measure)(tree, a, b) == pytest.approx(tree_measure(measure)(tree, b, a))
    forward = weighted_path_similarity(tree, a, b, PathMode.RECIPROCAL)
    backward = weighted_path_similarity(tree, b, a, PathMode.RECIPROCAL)
    assert forward == pytest.approx(backward)


@given(tree_with_pair(weighted=True))
def test_tree_measures_self_similarity_is_one(tree_pair):
    tree, a, _ = tree_pair
    for measure in ("weighted", "eq1", "shared"):
        assert tree_measure(measure)(tree, a, a) == 1.0
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
            tree_measure(measure)(tree, "ghost", a)
        with pytest.raises(UnknownNodeError, match="'ghost'"):
            tree_measure(measure)(tree, a, "ghost")


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


# --- every path query against parent-pointer walks ------------------------------------

def _walk_up(tree, node):
    """node, its parent, ... the root: one parent lookup a step, nothing remembered."""
    walk = [node]
    while walk[-1] in tree.parents:
        walk.append(tree.parents[walk[-1]])
    return walk


def _oracle_climbs(tree, a, b):
    up_a, up_b = _walk_up(tree, a), [b]
    above_a = set(up_a)
    while up_b[-1] not in above_a:
        up_b.append(tree.parents[up_b[-1]])
    return up_a[:up_a.index(up_b[-1]) + 1], up_b


def _oracle_edges(tree, a, b):
    up_a, up_b = _oracle_climbs(tree, a, b)
    ascending = [(parent, child) for child, parent in zip(up_a, up_a[1:])]
    descending = [(parent, child) for child, parent in zip(up_b, up_b[1:])][::-1]
    return ascending + descending


def _oracle_weighted(tree, a, b, mode):
    edges = _oracle_edges(tree, a, b)
    product = 1.0
    for edge in edges:
        if tree.weights[edge] is None:
            raise MissingWeightError(f"edge {edge!r} carries no weight")
        product *= tree.weights[edge]
    if mode is PathMode.PRODUCT:
        return product
    if product == 0.0:
        raise DomainError(
            f"weight product on the path {a!r} -> {b!r} ({len(edges)} edges) "
            "underflows to 0, so its reciprocal is undefined"
        )
    return 1.0 / product


def _oracle_measures(tree, a, b, mode):
    """Each tree measure's value, or what it raises, by name."""
    up_a, up_b = _oracle_climbs(tree, a, b)
    shared = len(_walk_up(tree, up_a[-1]))
    return {
        "weighted": _outcome(_oracle_weighted, tree, a, b, mode),
        "eq1": 1.0 / max(1, len(up_a) + len(up_b) - 3),
        "shared": shared / (len(_walk_up(tree, a)) + len(_walk_up(tree, b)) - shared),
    }


def _outcome(query, *args):
    """A query's value, or the type and message of what it raised."""
    try:
        return query(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tree_with_query_pairs(draw):
    """A tree of 1-300 nodes, from bushy to one deep chain, some edges unweighted or tiny.

    The pairs put a node beside itself, beside one of its ancestors, or beside any node.
    """
    # Drawn from one seed: hypothesis-drawn sizes and shares would cluster on the small ones.
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = rng.choice([1, 2, 3, 8, 30, 100, 300])
    chain_share = rng.choice([0.0, 0.5, 0.95, 1.0])
    unweighted_share = rng.choice([0.0, 0.0, 0.02, 0.2])
    tiny_share = rng.choice([0.0, 0.1, 0.5])
    edges = []
    for i in range(1, n):
        parent = i - 1 if rng.random() < chain_share else rng.randrange(i)
        roll = rng.random()
        if roll < unweighted_share:
            weight = None
        elif roll < unweighted_share + tiny_share:
            weight = rng.uniform(1e-300, 1e-100)
        else:
            weight = rng.uniform(0.05, 0.95)
        edges.append((f"n{parent}", f"n{i}", weight))
    tree = OntologyTree.from_edges(edges) if edges else OntologyTree.from_edges([], "n0")
    pairs = []
    for _ in range(8):
        a = f"n{rng.randrange(n)}"
        ancestors = _walk_up(tree, a)[1:] or [a]
        pairs.append((a, rng.choice([a, rng.choice(ancestors), f"n{rng.randrange(n)}"])))
    return tree, pairs


@settings(max_examples=200, deadline=None)
@given(tree_with_query_pairs())
def test_path_queries_and_measures_match_parent_pointer_walks(tree_pairs):
    # Several queries on one tree, each pair both ways, so later ones read remembered paths.
    tree, pairs = tree_pairs
    for a, b in pairs + [(b, a) for a, b in pairs]:
        up_a, up_b = _oracle_climbs(tree, a, b)
        assert path_between(tree, a, tree.root).nodes == tuple(_walk_up(tree, a))
        assert intermediate_count(tree, a, b) == max(0, len(up_a) + len(up_b) - 3)
        path = path_between(tree, a, b)
        assert path.nodes == (*up_a, *up_b[-2::-1])
        assert path.edges == tuple(_oracle_edges(tree, a, b))
        for mode in PathMode:
            expected = _oracle_measures(tree, a, b, mode)
            assert _outcome(weighted_path_similarity, tree, a, b, mode) == expected["weighted"]
            for measure in TREE_MEASURES:
                assert _outcome(tree_measure(measure, mode), tree, a, b) == expected[measure]


# --- the last pair met ------------------------------------------------------------------

@st.composite
def tree_with_call_sequence(draw):
    """A weighted tree and the (a, b) pairs of a run of queries on it, in call order.

    A pair may repeat an earlier one (the same string objects), put a node beside itself,
    or hold the root; a name may be a copy, equal to the node's name but another object.
    """
    tree = draw(random_tree(max_nodes=20, weighted=True))
    names = sorted(tree_nodes(tree))
    copies = {name: "".join(list(name)) for name in names}  # every name has 2+ characters
    assert all(copies[name] is not name for name in names)
    node = st.sampled_from(names) | st.just(tree.root)
    step = st.tuples(node, st.none() | node, st.booleans(), st.booleans(), st.none() | st.integers(0, 99))
    pairs = []
    for a, b, copy_a, copy_b, again in draw(st.lists(step, min_size=1, max_size=12)):
        if again is not None and pairs:
            pairs.append(pairs[again % len(pairs)])
            continue
        b = a if b is None else b
        pairs.append((copies[a] if copy_a else a, copies[b] if copy_b else b))
    return tree, pairs


@settings(max_examples=150, deadline=None)
@given(tree_with_call_sequence())
def test_last_pair_met_never_answers_for_another_pair(tree_pairs):
    # Each measure in each mode, then the next pair: most calls read the last pair's meet.
    tree, pairs = tree_pairs
    for a, b in pairs:
        assert path_between(tree, a, b).nodes == tuple(brute_force_unique_path(tree, a, b))
        for mode in PathMode:
            expected = brute_force_measures(tree, a, b, mode)
            for measure in TREE_MEASURES:
                assert tree_measure(measure, mode)(tree, a, b) == expected[measure]


def test_one_pair_met_twice_is_one_meet():
    tree = chain_tree([0.9, 0.8, 0.7])
    assert _meet(tree, "c1", "c3") is _meet(tree, "c1", "c3")


@pytest.mark.parametrize("measure", TREE_MEASURES)
def test_unknown_node_raises_right_after_the_last_pair_is_read(measure):
    tree, score = chain_tree([0.9, 0.8]), tree_measure(measure)
    first = score(tree, "c0", "c2")
    assert score(tree, "c0", "c2") == first
    with pytest.raises(UnknownNodeError, match="'ghost'"):
        score(tree, "c0", "ghost")
    with pytest.raises(UnknownNodeError, match="'ghost'"):
        score(tree, "ghost", "c2")
    assert score(tree, "c0", "c2") == first


def test_threads_sharing_one_tree_each_get_their_own_pairs_measures():
    # More threads than cores and a tiny switch interval, so that threads swap between
    # reading the last pair and replacing it; an entry torn across two pairs shows here.
    rng = random.Random(7)
    tree = OntologyTree.from_edges(
        (f"n{rng.randrange(i)}", f"n{i}", rng.uniform(0.05, 0.95)) for i in range(1, 200)
    )
    names = sorted(tree_nodes(tree))
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(8)]
    expected = {pair: brute_force_measures(tree, *pair, PathMode.PRODUCT) for pair in pairs}
    faults = []

    def query(order):  # every thread queries the same pairs, each in its own order
        for _ in range(300):
            for pair in order:
                got = {m: tree_measure(m)(tree, *pair) for m in TREE_MEASURES}
                if got != expected[pair]:
                    faults.append((pair, got))

    orders = [rng.sample(pairs, len(pairs)) for _ in range(6)]
    threads = [threading.Thread(target=query, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert faults == []


def test_replaced_tree_starts_without_a_last_pair():
    tree = chain_tree([0.5, 0.5])
    assert weighted_path_similarity(tree, "c0", "c2") == 0.25
    heavier = replace(tree, weights=dict.fromkeys(tree.weights, 0.9))
    assert "_last_meet" not in vars(heavier)
    assert weighted_path_similarity(heavier, "c0", "c2") == 0.9 * 0.9
    assert weighted_path_similarity(tree, "c0", "c2") == 0.25


# --- tree_measure -----------------------------------------------------------------------

@pytest.mark.parametrize("measure", ["keyword", "task", "cosine"])
def test_tree_measure_rejects_other_measures(measure):
    message = f"measure {measure!r} does not apply to tree nodes; expected one of {TREE_MEASURES}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        tree_measure(measure)


def test_tree_measure_reads_the_module_namespace_when_called(monkeypatch):
    # A wrapper put in the module (as a tracer does) is the function a caller gets.
    def wrapped(tree, a, b):
        return 0.25  # the unwrapped ratio of c0 and c1 is 0.5
    monkeypatch.setattr(similarity, "shared_path_ratio", wrapped)
    assert tree_measure("shared") is wrapped
    # predict_for_pair takes its measure through tree_measure, so it meets the wrapper too.
    profile = build_profiles({"s": [Review("c0", 4, "d", "t", "l")]})["s"]
    assert evaluation.predict_for_pair(profile, chain_tree([0.9]), "shared", "c0", "c1") == 1.0
