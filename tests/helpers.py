"""Shared test data, tree strategies, and brute-force oracles."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Optional

from hypothesis import strategies as st

from contexttrust.dataset import REVIEW_HEADER
from contexttrust.ontology import OntologyTree
from contexttrust.similarity import PathMode

DATA_DIR = Path(__file__).parent / "data"

# An input file's bytes for its text as written with LF or CRLF line endings, or after a BOM.
LINE_FORMS = {
    "lf": lambda text: text.encode(),
    "crlf": lambda text: text.replace("\n", "\r\n").encode(),
    "bom": lambda text: ("\ufeff" + text).encode(),
}
# What str.splitlines breaks a line at besides LF, CRLF and CR; inside a line of an input
# file each is a character like any other.
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def reviews_to_csv(reviews) -> str:
    """Review CSV text, header first, each Review written as its tuple of fields."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REVIEW_HEADER)
    writer.writerows(reviews)
    return buffer.getvalue()


def chain_tree(weights: list[Optional[float]]) -> OntologyTree:
    """A path graph c0 -> c1 -> ... with the given edge weights."""
    edges = [(f"c{i}", f"c{i + 1}", w) for i, w in enumerate(weights)]
    return OntologyTree.from_edges(edges)


def tree_nodes(tree: OntologyTree) -> set[str]:
    """Every node of the tree: each child, and the root."""
    return tree.parents.keys() | {tree.root}


def brute_force_simple_paths(tree: OntologyTree, a: str, b: str) -> list[list[str]]:
    """All simple a-b paths found by exhaustive DFS on the undirected edges."""
    adjacency: dict[str, set[str]] = {name: set() for name in tree_nodes(tree)}
    for child, parent in tree.parents.items():
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    found: list[list[str]] = []

    def walk(node: str, path: list[str]) -> None:
        if node == b:
            found.append(path.copy())
            return
        for neighbor in sorted(adjacency[node]):
            if neighbor not in path:
                path.append(neighbor)
                walk(neighbor, path)
                path.pop()

    walk(a, [a])
    return found


def brute_force_unique_path(tree: OntologyTree, a: str, b: str) -> list[str]:
    paths = brute_force_simple_paths(tree, a, b)
    assert len(paths) == 1, f"expected one simple path, found {len(paths)}"
    return paths[0]


def oriented_edges(tree: OntologyTree, nodes: list[str]) -> list[tuple[str, str]]:
    """The (parent, child) edges along a node sequence, in path order."""
    return [(v, u) if tree.parents.get(u) == v else (u, v) for u, v in zip(nodes, nodes[1:])]


def brute_force_root_walk(tree: OntologyTree, node: str) -> list[str]:
    """Node's inclusive root path, node first, by plain parent lookups."""
    walk = [node]
    while node in tree.parents:
        node = tree.parents[node]
        walk.append(node)
    return walk


def brute_force_root_set(tree: OntologyTree, node: str) -> set[str]:
    """The nodes of node's inclusive root path."""
    return set(brute_force_root_walk(tree, node))


def brute_force_measures(tree: OntologyTree, a: str, b: str, mode: PathMode) -> dict[str, float]:
    """Each tree measure of a and b on a tree whose every edge is weighted, by name.

    The weights multiply left to right along the one simple a-b path, from 1.0.
    """
    nodes = brute_force_unique_path(tree, a, b)
    product = 1.0
    for edge in oriented_edges(tree, nodes):
        product *= tree.weights[edge]
    root_a, root_b = brute_force_root_set(tree, a), brute_force_root_set(tree, b)
    return {
        "weighted": product if mode is PathMode.PRODUCT else 1.0 / product,
        "eq1": 1.0 / max(1, len(nodes) - 2),
        "shared": len(root_a & root_b) / len(root_a | root_b),
    }


@st.composite
def tree_edge_lists(draw, max_nodes: int = 50, weighted: bool = False):
    """Random rooted trees as edge triples; node i attaches to a lower-numbered parent."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        weight = draw(st.floats(min_value=0.05, max_value=0.95)) if weighted else None
        edges.append((f"n{parent}", f"n{i}", weight))
    return edges


@st.composite
def random_tree(draw, max_nodes: int = 50, weighted: bool = False) -> OntologyTree:
    return OntologyTree.from_edges(draw(tree_edge_lists(max_nodes, weighted)))


@st.composite
def tree_with_pair(draw, max_nodes: int = 50, weighted: bool = False):
    """(tree, a, b) with a and b drawn from the tree's nodes."""
    tree = draw(random_tree(max_nodes, weighted))
    names = sorted(tree_nodes(tree))
    a = draw(st.sampled_from(names))
    b = draw(st.sampled_from(names))
    return tree, a, b


@st.composite
def valid_hit_counts(draw, max_m: int = 10**12):
    from contexttrust.semantic import HitCounts

    m = draw(st.integers(min_value=2, max_value=max_m))
    fx = draw(st.integers(min_value=1, max_value=m))
    fy = draw(st.integers(min_value=1, max_value=m))
    fxy = draw(st.integers(min_value=0, max_value=min(fx, fy)))
    return HitCounts(fx, fy, fxy, m)
