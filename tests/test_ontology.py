import pytest
from hypothesis import given, settings

from helpers import (
    brute_force_root_set,
    brute_force_root_walk,
    brute_force_unique_path,
    chain_tree,
    oriented_edges,
    random_tree,
    tree_nodes,
    tree_with_pair,
)
from contexttrust.errors import (
    DomainError,
    MissingPairError,
    TreeParseError,
    TreeValidationError,
    UnknownNodeError,
)
from contexttrust.ontology import (
    OntologyTree,
    dump_tree,
    intermediate_count,
    load_tree,
    parse_tree,
    path_between,
    weigh_tree,
)
from contexttrust.semantic import CountProvider, HitCounts


class FixedCountsProvider(CountProvider):
    def __init__(self, counts: HitCounts):
        self.fixed = counts
        self.calls = 0

    def counts(self, x: str, y: str) -> HitCounts:
        self.calls += 1
        return self.fixed


class TableProvider(CountProvider):
    def __init__(self, table):
        self.table = table

    def counts(self, x: str, y: str) -> HitCounts:
        key = tuple(sorted((x.lower(), y.lower())))
        if key not in self.table:
            raise MissingPairError(f"no counts for pair ({x}, {y})")
        return self.table[key]


# --- parsing and validation -------------------------------------------------

def test_load_cs_tree(cs_tree):
    assert cs_tree.root == "ComputerScience"
    assert len(tree_nodes(cs_tree)) == 7
    assert cs_tree.parents["Java"] == "ObjectOriented"
    # The root's children, in document order.
    assert [c for p, c in cs_tree.weights if p == cs_tree.root] == ["Software", "Hardware"]


def test_single_token_line_declares_one_node_tree():
    tree = parse_tree("R\n")
    assert tree.root == "R"
    assert list(tree_nodes(tree)) == ["R"]
    assert tree.weights == {}


def test_two_single_token_lines_are_rejected():
    with pytest.raises(TreeValidationError, match="multiple isolated roots"):
        parse_tree("A\nB\n")


def test_one_node_tree_round_trips():
    tree = parse_tree("R\n")
    assert dump_tree(tree) == "R\n"
    assert parse_tree(dump_tree(tree)) == tree


def test_comments_and_blank_lines_are_skipped():
    tree = parse_tree("# heading\n\nA\tB\n  # indented comment\nA\tC\n")
    assert sorted(tree_nodes(tree)) == ["A", "B", "C"]


def test_weight_column_is_parsed():
    tree = parse_tree("A\tB\t0.25\nA\tC\n")
    assert tree.weights[("A", "B")] == 0.25
    assert tree.weights[("A", "C")] is None


def test_malformed_line_reports_line_number():
    with pytest.raises(TreeParseError, match="line 2"):
        parse_tree("A\tB\nA\tC\t0.5\textra\n")


def test_bad_weight_reports_line_number():
    with pytest.raises(TreeParseError, match="line 1"):
        parse_tree("A\tB\theavy\n")


def test_empty_field_is_a_parse_error():
    with pytest.raises(TreeParseError, match="empty field"):
        parse_tree("A\t\t0.5\n")


def test_child_with_two_parents_is_rejected():
    with pytest.raises(TreeValidationError, match="'X'"):
        parse_tree("A\tX\nB\tX\nA\tB\n")


def test_two_roots_are_rejected():
    with pytest.raises(TreeValidationError, match="multiple roots"):
        parse_tree("A\tB\nC\tD\n")


def test_cycle_has_no_root():
    with pytest.raises(TreeValidationError, match="no root"):
        parse_tree("A\tB\nB\tC\nC\tA\n")


def test_self_loop_is_rejected():
    with pytest.raises(TreeValidationError, match="self-loop"):
        parse_tree("A\tA\n")


@pytest.mark.parametrize("weight", ["0", "1.5", "-0.1"])
def test_weight_outside_unit_interval_is_rejected(weight):
    with pytest.raises(TreeValidationError, match="outside"):
        parse_tree(f"A\tB\t{weight}\n")


def test_lone_root_alongside_edges_is_rejected():
    with pytest.raises(TreeValidationError, match="isolated root"):
        parse_tree("R\nA\tB\n")


def test_empty_document_is_rejected():
    with pytest.raises(TreeValidationError, match="no nodes"):
        parse_tree("# only a comment\n")


def test_duplicate_edge_is_rejected():
    with pytest.raises(TreeValidationError):
        parse_tree("A\tB\nA\tB\n")


def test_nodes_unreachable_from_root_are_named():
    # B and C are each other's parent: no root of their own, and no path from R.
    with pytest.raises(TreeValidationError) as raised:
        parse_tree("R\tA\nB\tC\nC\tB\n")
    assert str(raised.value) == "<string>: nodes unreachable from root 'R': 'B', 'C'"


def test_round_trip_preserves_tree(tmp_path, cs_tree):
    text = dump_tree(cs_tree)
    assert parse_tree(text) == cs_tree
    path = tmp_path / "tree.tsv"
    path.write_text(text, encoding="utf-8")
    assert load_tree(path) == cs_tree


@pytest.mark.parametrize("edges, label", [
    ([("A", "#x", 0.5), ("#x", "B", 0.5)], "#x"),  # read back without B
    ([("#r", "A", 0.5)], "#r"),  # read back as a tree with no nodes
])
def test_from_edges_refuses_a_parent_label_read_back_as_a_comment(edges, label):
    with pytest.raises(TreeValidationError, match=f"'{label}' starts a line with '#'"):
        OntologyTree.from_edges(edges)


def test_from_edges_refuses_a_lone_root_read_back_as_a_comment():
    with pytest.raises(TreeValidationError, match="'#r' starts a line with '#'"):
        OntologyTree.from_edges([], lone_root="#r")


def test_from_edges_keeps_a_child_label_starting_with_hash():
    tree = OntologyTree.from_edges([("A", "#x", 0.5)])
    assert parse_tree(dump_tree(tree)) == tree


@pytest.mark.parametrize("edges, lone_root", [
    ([("A", "", None)], None),
    ([(" ", "B", None)], None),
    ([], "\t"),
])
def test_from_edges_refuses_a_blank_label(edges, lone_root):
    with pytest.raises(TreeValidationError, match="node label is empty"):
        OntologyTree.from_edges(edges, lone_root=lone_root)


def test_from_edges_refuses_a_label_with_a_tab_inside():
    # Written back as the line X<TAB>A<TAB>0.5: the edge X -> A with weight 0.5.
    with pytest.raises(TreeValidationError, match=r"'A\\t0.5' has a tab inside"):
        OntologyTree.from_edges([("X", "A\t0.5", None)])


@pytest.mark.parametrize("label", ["A\nB", "A\r", "A\x0bB", "A\x1cB", "A\u2028B"])
def test_from_edges_refuses_a_label_with_a_line_break_inside(label):
    with pytest.raises(TreeValidationError, match="has a line break inside") as raised:
        OntologyTree.from_edges([("X", label, None)])
    assert repr(label) in str(raised.value)


@pytest.mark.parametrize("label", [" B ", "B ", "\u3000B"])
def test_from_edges_refuses_a_label_with_whitespace_around_it(label):
    # parse_tree strips each field, so " B " would read back as B.
    with pytest.raises(TreeValidationError, match="has whitespace around it") as raised:
        OntologyTree.from_edges([("X", label, None)])
    assert repr(label) in str(raised.value)


def test_round_trip_preserves_weights():
    tree = parse_tree("A\tB\t0.123456789012\nA\tC\t0.5\n")
    assert parse_tree(dump_tree(tree)) == tree


def test_require_is_case_sensitive(cs_tree):
    assert cs_tree.require("Java") == "Java"
    with pytest.raises(UnknownNodeError):
        cs_tree.require("java")


def test_node_names_are_case_sensitive():
    tree = parse_tree("root\tJava\nroot\tJAVA\n")
    assert tree_nodes(tree) == {"root", "Java", "JAVA"}
    assert tree.require("JAVA") == "JAVA"
    with pytest.raises(UnknownNodeError):
        tree.require("java")


def test_tree_file_may_start_with_bom(tmp_path):
    path = tmp_path / "tree.tsv"
    path.write_text("\ufeffStore\tElectronics\nStore\tBooks\n", encoding="utf-8")
    tree = load_tree(path)
    assert tree.root == "Store"
    assert tree_nodes(tree) == {"Store", "Electronics", "Books"}


# --- path queries -----------------------------------------------------------

def test_cross_branch_path_golden(cs_tree):
    # Frozen from the brute-force simple-path oracle on the 7-node tree.
    expected = ["VHDL", "Hardware", "ComputerScience", "Software",
                "ProgrammingLanguage", "ObjectOriented", "Java"]
    assert brute_force_unique_path(cs_tree, "VHDL", "Java") == expected
    path = path_between(cs_tree, "VHDL", "Java")
    assert list(path.nodes) == expected
    assert len(path.edges) == 6


def test_identity_path(cs_tree):
    path = path_between(cs_tree, "Software", "Software")
    assert path.nodes == ("Software",)
    assert path.edges == ()


def test_parent_child_path_has_one_edge(cs_tree):
    path = path_between(cs_tree, "Java", "ObjectOriented")
    assert len(path.edges) == 1
    assert path.edges[0] == ("ObjectOriented", "Java")


def test_path_is_reverse_of_swapped_arguments(cs_tree):
    forward = path_between(cs_tree, "VHDL", "Java")
    backward = path_between(cs_tree, "Java", "VHDL")
    assert forward.nodes == tuple(reversed(backward.nodes))
    assert forward.edges == tuple(reversed(backward.edges))


def test_unknown_node_is_reported(cs_tree):
    with pytest.raises(UnknownNodeError, match="'Basket'"):
        path_between(cs_tree, "Basket", "Java")


def test_intermediate_counts(cs_tree):
    assert intermediate_count(cs_tree, "VHDL", "Java") == 5
    assert intermediate_count(cs_tree, "Java", "Java") == 0
    assert intermediate_count(cs_tree, "Java", "ObjectOriented") == 0


def test_root_path_goldens(cs_tree):
    # A path to the root is the node's root path, node first.
    assert path_between(cs_tree, "Java", cs_tree.root).nodes == (
        "Java", "ObjectOriented", "ProgrammingLanguage", "Software", "ComputerScience"
    )
    assert path_between(cs_tree, "ComputerScience", cs_tree.root).nodes == ("ComputerScience",)
    assert len(path_between(cs_tree, "VHDL", cs_tree.root).nodes) == 3


@given(tree_with_pair())
def test_path_reversal_symmetry(tree_pair):
    tree, a, b = tree_pair
    forward = path_between(tree, a, b)
    backward = path_between(tree, b, a)
    assert forward.nodes == tuple(reversed(backward.nodes))


@settings(max_examples=200)
@given(tree_with_pair())
def test_path_matches_brute_force_enumeration(tree_pair):
    tree, a, b = tree_pair
    expected = brute_force_unique_path(tree, a, b)
    path = path_between(tree, a, b)
    assert list(path.nodes) == expected
    assert list(path.edges) == oriented_edges(tree, expected)
    assert intermediate_count(tree, a, b) == max(0, len(expected) - 2)


@given(tree_with_pair())
def test_lca_and_depths_match_brute_force(tree_pair):
    tree, a, b = tree_pair
    depths = {n: len(path_between(tree, n, tree.root).nodes) - 1 for n in tree_nodes(tree)}
    assert depths == {n: len(brute_force_root_set(tree, n)) - 1 for n in tree_nodes(tree)}
    common = brute_force_root_set(tree, a) & brute_force_root_set(tree, b)
    lca = min(path_between(tree, a, b).nodes, key=depths.get)  # the path's top node
    assert lca in common
    assert depths[lca] == len(common) - 1
    for node in tree_nodes(tree):
        assert list(path_between(tree, node, tree.root).nodes) == brute_force_root_walk(tree, node)
    # Read from the root down, the two root paths agree down to the LCA, then part for good.
    down_a, down_b = brute_force_root_walk(tree, a)[::-1], brute_force_root_walk(tree, b)[::-1]
    assert lca == [u for u, v in zip(down_a, down_b) if u == v][-1]


@given(tree_with_pair())
def test_path_queries_reject_unknown_nodes(tree_pair):
    tree, a, _ = tree_pair
    for query in (path_between, intermediate_count):
        with pytest.raises(UnknownNodeError, match="'ghost'"):
            query(tree, "ghost", a)
        with pytest.raises(UnknownNodeError, match="'ghost'"):
            query(tree, a, "ghost")
    with pytest.raises(UnknownNodeError, match="'ghost'"):
        path_between(tree, "ghost", tree.root)


def test_deep_chain_depths_survive_weighing():
    # 5000 nodes, depth 4999: every walk must be a loop, not a recursion.
    tree = chain_tree([None] * 4999)
    assert tree_nodes(tree) == {f"c{i}" for i in range(5000)}
    weighted, _ = weigh_tree(tree, FixedCountsProvider(HitCounts(10, 1, 1, 10**10)))
    for i in (0, 2500, 4999):
        assert len(path_between(weighted, f"c{i}", weighted.root).nodes) - 1 == i
    # c2500 is c4999's ancestor, so the path only climbs.
    assert path_between(weighted, "c4999", "c2500").nodes == tuple(
        f"c{i}" for i in range(4999, 2499, -1)
    )
    assert intermediate_count(weighted, "c0", "c4999") == 4998
    assert len(path_between(weighted, "c4999", "c0").edges) == 4999
    # Root paths are remembered for the queried nodes only, and weighing remembers none.
    assert weighted._root_paths.keys() == {"c0", "c2500", "c4999"}
    assert "_root_paths" not in vars(tree)


@given(random_tree(weighted=True))
def test_tree_round_trip_property(tree):
    assert parse_tree(dump_tree(tree)) == tree


# --- weighting --------------------------------------------------------------

def test_constant_provider_weights_every_edge(cs_tree):
    provider = FixedCountsProvider(HitCounts(10, 1, 1, 10**10))  # similarity 0.9
    weighted, notes = weigh_tree(cs_tree, provider)
    assert notes == []
    assert provider.calls == 6
    assert set(weighted.weights) == set(cs_tree.weights)
    assert all(w == 0.9 for w in weighted.weights.values())


def test_weigh_preserves_shape(cs_tree):
    provider = FixedCountsProvider(HitCounts(10, 1, 1, 10**10))
    weighted, _ = weigh_tree(cs_tree, provider)
    assert weighted.root == cs_tree.root
    assert tree_nodes(weighted) == tree_nodes(cs_tree)
    assert weighted.parents == cs_tree.parents
    assert cs_tree.weights[("Hardware", "VHDL")] is None  # input untouched


def test_weigh_hand_computed_weight():
    tree = parse_tree("Computer\tSoftware\n")
    provider = FixedCountsProvider(HitCounts(1000, 100, 100, 10**6))
    weighted, _ = weigh_tree(tree, provider)
    assert weighted.weights[("Computer", "Software")] == pytest.approx(0.75)


def test_zero_cooccurrence_edge_gets_floor_and_annotation():
    tree = parse_tree("A\tB\n")
    weighted, notes = weigh_tree(tree, FixedCountsProvider(HitCounts(10, 10, 0, 100)))
    assert weighted.weights[("A", "B")] == 0.01
    assert len(notes) == 1
    assert (notes[0].parent, notes[0].child) == ("A", "B")
    assert "co-occurrence" in notes[0].reason


def test_weigh_respects_custom_epsilon():
    tree = parse_tree("A\tB\n")
    weighted, notes = weigh_tree(
        tree, FixedCountsProvider(HitCounts(10, 10, 0, 100)), epsilon=0.2
    )
    assert weighted.weights[("A", "B")] == 0.2
    assert len(notes) == 1


@pytest.mark.parametrize("epsilon", [0.0, 2.0])
@pytest.mark.parametrize("fxy", [0, 1])
def test_weigh_rejects_epsilon_outside_unit_interval_before_lookup(cs_tree, epsilon, fxy):
    # With fxy = 0 every edge would take the floor value itself, which no tree accepts.
    provider = FixedCountsProvider(HitCounts(10, 10, fxy, 100))
    with pytest.raises(DomainError, match="epsilon"):
        weigh_tree(cs_tree, provider, epsilon=epsilon)
    assert provider.calls == 0


def test_clamped_similarity_is_annotated():
    # Distance past 1 drags the raw score negative; it is floored and noted.
    tree = parse_tree("A\tB\n")
    weighted, notes = weigh_tree(
        tree, FixedCountsProvider(HitCounts(10**6, 10**6, 1, 10**7))
    )
    assert weighted.weights[("A", "B")] == 0.01
    assert len(notes) == 1
    assert "floor" in notes[0].reason


def test_provider_failure_names_edge(cs_tree):
    table = {}  # every pair missing
    with pytest.raises(MissingPairError, match="'ComputerScience' -> 'Software'"):
        weigh_tree(cs_tree, TableProvider(table))


def test_unseen_term_degenerates_to_floor():
    # fx = 0 forces fxy = 0, so the edge lands on the floor with a note.
    tree = parse_tree("A\tB\n")
    weighted, notes = weigh_tree(tree, FixedCountsProvider(HitCounts(0, 10, 0, 100)))
    assert weighted.weights[("A", "B")] == 0.01
    assert len(notes) == 1


def test_weigh_overwrites_existing_weights():
    tree = parse_tree("A\tB\t0.123\n")
    provider = FixedCountsProvider(HitCounts(10, 1, 1, 10**10))
    weighted, _ = weigh_tree(tree, provider)
    assert weighted.weights[("A", "B")] == 0.9


@settings(max_examples=100)
@given(random_tree(max_nodes=20))
def test_weigh_only_touches_weights(tree):
    provider = FixedCountsProvider(HitCounts(1000, 100, 100, 10**6))
    weighted, _ = weigh_tree(tree, provider)
    assert tree_nodes(weighted) == tree_nodes(tree)
    assert weighted.parents == tree.parents
    assert list(weighted.weights) == list(tree.weights)
    assert weighted.root == tree.root
    assert all(0.01 <= w <= 1.0 for w in weighted.weights.values())
