"""Shared test data, tree strategies, and brute-force oracles."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from hypothesis import strategies as st

from contexttrust.ontology import OntologyTree

DATA_DIR = Path(__file__).parent / "data"


def chain_tree(weights: list[Optional[float]]) -> OntologyTree:
    """A path graph c0 -> c1 -> ... with the given edge weights."""
    edges = [(f"c{i}", f"c{i + 1}", w) for i, w in enumerate(weights)]
    return OntologyTree.from_edges(edges)


def brute_force_simple_paths(tree: OntologyTree, a: str, b: str) -> list[list[str]]:
    """All simple a-b paths found by exhaustive DFS on the undirected edges."""
    adjacency: dict[str, set[str]] = {name: set() for name in tree.nodes}
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
    names = sorted(tree.nodes)
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
