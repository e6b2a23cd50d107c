"""Rooted concept trees: parsing, validation, path queries, edge weighting.

A tree document is UTF-8 text, one edge per line as ``parent<TAB>child``
with an optional third tab-separated weight in (0, 1].  Lines whose first
non-blank character is ``#`` are comments.  A line with a single token
declares an isolated root and is only legal for a one-node tree.  The root
is inferred as the unique node that never appears as a child.

Loaded trees are immutable; every operation that "changes" a tree returns a
new one.  Path queries fill a per-tree memo of root paths whose entries are
idempotent, so concurrent reads need no coordination: a race computes one twice.
Each tree also keeps the last pair it met, keyed by the identity of the two names,
in one slot that a single assignment replaces: a race only bisects a pair again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from .errors import (
    ContextTrustError,
    DomainError,
    ProviderError,
    TreeParseError,
    TreeValidationError,
    UnknownNodeError,
    decode_input,
)
from .semantic import DEFAULT_EPSILON, CountProvider, nss

Edge = tuple[str, str]
RootPath = tuple[tuple[str, ...], tuple[Optional[float], ...]]  # nodes, edge weights; root first
Meet = tuple[RootPath, RootPath, int]  # a's root path, b's, and their common ancestor's depth


@dataclass(frozen=True)
class NodePath:
    """The unique simple path between two nodes, through their lowest common ancestor.

    ``edges`` holds the traversed edges in path order, each in its canonical
    (parent, child) orientation.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]


def _check_label(name: str, head: bool) -> None:
    # Refuse what dump_tree cannot write back as the same tree: parse_tree splits fields
    # at tabs and lines at line breaks, strips each field, and skips a line whose first
    # field starts with '#'.  A head (a parent or a lone root) starts a dump_tree line.
    if not name.strip():
        raise TreeValidationError("node label is empty")
    if "\t" in name:
        raise TreeValidationError(f"node label {name!r} has a tab inside")
    if name.splitlines() != [name]:
        raise TreeValidationError(f"node label {name!r} has a line break inside")
    if name != name.strip():
        raise TreeValidationError(f"node label {name!r} has whitespace around it")
    if head and name.startswith("#"):
        raise TreeValidationError(
            f"node label {name!r} starts a line with '#', which marks a comment"
        )


@dataclass(frozen=True)
class OntologyTree:
    """A validated rooted tree.  ``_root_paths`` memoises each queried node's root path and
    its edge weights, root first: one O(depth) climb at a node's first query, O(queried nodes
    x depth) memory in all.  ``_last_meet`` holds one ``(a, b, meet)`` entry, the last pair
    met: O(1) memory.  A query hits it only when a and b are the entry's own string objects,
    which the entry keeps alive, so a hit is never another pair's; it is replaced by one
    assignment, so a concurrent reader sees a whole entry and a race costs one bisection.  A
    tree made by ``replace`` (as ``weigh_tree`` returns) starts both memos empty."""

    root: str
    parents: dict[str, str]
    weights: dict[Edge, Optional[float]]  # every edge, in document order

    @cached_property
    def _root_paths(self) -> dict[str, RootPath]:
        return {}

    @cached_property
    def _last_meet(self) -> list[tuple[Optional[str], Optional[str], Optional[Meet]]]:
        return [(None, None, None)]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, Optional[float]]],
        lone_root: Optional[str] = None,
    ) -> "OntologyTree":
        """Build and validate a tree from (parent, child, weight) triples.

        ``lone_root`` declares a single-node tree and excludes any edges.
        """
        edges = list(edges)
        if lone_root is not None:
            if edges:
                raise TreeValidationError(f"isolated root {lone_root!r} declared alongside edges")
            _check_label(lone_root, head=True)
            return cls(root=lone_root, parents={}, weights={})
        if not edges:
            raise TreeValidationError("tree has no nodes")

        parents: dict[str, str] = {}
        children: dict[str, list[str]] = {}
        weights: dict[Edge, Optional[float]] = {}
        for parent, child, weight in edges:
            _check_label(parent, head=True)
            _check_label(child, head=False)
            if parent == child:
                raise TreeValidationError(f"self-loop on node {parent!r}")
            if child in parents:
                raise TreeValidationError(
                    f"node {child!r} is assigned to two parents "
                    f"({parents[child]!r} and {parent!r})"
                )
            if weight is not None and not 0.0 < weight <= 1.0:
                raise TreeValidationError(
                    f"edge ({parent!r}, {child!r}) weight {weight} outside (0, 1]"
                )
            parents[child] = parent
            children.setdefault(parent, []).append(child)
            weights[(parent, child)] = weight

        # A root is never a child, so the parent column lists every root in document order.
        roots = [name for name in children if name not in parents]
        if not roots:
            raise TreeValidationError("no root: every node has a parent (cycle)")
        if len(roots) > 1:
            raise TreeValidationError(f"multiple roots: {', '.join(repr(r) for r in roots)}")
        root = roots[0]

        # One walk from the root proves every node reachable.
        reached, frontier = {root}, [root]
        while frontier:
            below = children.get(frontier.pop(), ())
            reached.update(below)
            frontier.extend(below)
        if len(reached) != len(parents) + 1:
            # Every node but the root has a parent, so the unreachable ones are all children.
            missing = sorted(parents.keys() - reached)
            raise TreeValidationError(
                f"nodes unreachable from root {root!r}: {', '.join(repr(n) for n in missing)}"
            )

        return cls(root=root, parents=parents, weights=weights)

    def require(self, node_id: str) -> str:
        if node_id != self.root and node_id not in self.parents:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        return node_id


def parse_tree(text: str, source: str = "<string>") -> OntologyTree:
    """Parse a tree document from text."""
    edges: list[tuple[str, str, Optional[float]]] = []
    lone_roots: list[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in raw.split("\t")]
        if any(not f for f in fields):
            raise TreeParseError(f"{source}: line {number}: empty field")
        if len(fields) == 1:
            lone_roots.append(fields[0])
            continue
        if len(fields) not in (2, 3):
            raise TreeParseError(
                f"{source}: line {number}: expected 'parent<TAB>child[<TAB>weight]'"
            )
        weight: Optional[float] = None
        if len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError as exc:
                raise TreeParseError(
                    f"{source}: line {number}: weight {fields[2]!r} is not a number"
                ) from exc
        edges.append((fields[0], fields[1], weight))

    if len(lone_roots) > 1:
        raise TreeValidationError(f"{source}: multiple isolated roots declared: {lone_roots}")
    try:
        return OntologyTree.from_edges(edges, lone_root=lone_roots[0] if lone_roots else None)
    except TreeValidationError as exc:
        raise TreeValidationError(f"{source}: {exc}") from exc


def load_tree(path: str | Path) -> OntologyTree:
    """Load and validate a tree document from a file."""
    path = Path(path)
    return parse_tree(decode_input(path.read_bytes(), path, TreeParseError), source=str(path))


def dump_tree(tree: OntologyTree) -> str:
    """Serialize a tree back to the document format (weights at full precision)."""
    if not tree.weights:
        return tree.root + "\n"
    lines = [f"{p}\t{c}" if w is None else f"{p}\t{c}\t{w!r}" for (p, c), w in tree.weights.items()]
    return "\n".join(lines) + "\n"


def _remember(tree: OntologyTree, node: str) -> RootPath:
    """Climb node to the root once; memoise its root path and edge weights, root first."""
    path, parents = [tree.require(node)], tree.parents
    while path[-1] in parents:
        path.append(parents[path[-1]])
    path.reverse()
    entry = (tuple(path), tuple(map(tree.weights.get, zip(path, path[1:]))))
    tree._root_paths[node] = entry
    return entry


def _meet(tree: OntologyTree, a: str, b: str) -> Meet:
    """a's and b's root paths and edge weights (root first), and their common ancestor's depth."""
    last = tree._last_meet
    last_a, last_b, meet = last[0]
    if a is last_a and b is last_b:
        return meet
    memo = tree._root_paths
    entry_a = memo.get(a) or _remember(tree, a)
    entry_b = memo.get(b) or _remember(tree, b)
    path_a, path_b = entry_a[0], entry_b[0]
    # The paths agree from the root down to the ancestor and never again below it.
    low, high = 0, min(len(path_a), len(path_b))
    while high - low > 1:
        middle = (low + high) // 2
        if path_a[middle] == path_b[middle]:
            low = middle
        else:
            high = middle
    meet = entry_a, entry_b, low
    last[0] = (a, b, meet)  # one assignment: a reader sees the old entry or the new one
    return meet


def path_between(tree: OntologyTree, a: str, b: str) -> NodePath:
    """The unique path a -> lowest common ancestor -> b, read off the two root paths."""
    (path_a, _), (path_b, _), lca = _meet(tree, a, b)
    up_a, up_b = path_a[lca:][::-1], path_b[lca:][::-1]  # each lists a child before its parent
    edges = (*zip(up_a[1:], up_a), *reversed([*zip(up_b[1:], up_b)]))
    return NodePath(nodes=(*up_a, *reversed(up_b[:-1])), edges=edges)


def intermediate_count(tree: OntologyTree, a: str, b: str) -> int:
    """Number of nodes strictly between a and b on their unique path."""
    (path_a, _), (path_b, _), lca = _meet(tree, a, b)
    return max(0, len(path_a) + len(path_b) - 2 * lca - 3)


@dataclass(frozen=True)
class EdgeAnnotation:
    """Why an edge weight was forced to the floor value."""

    parent: str
    child: str
    reason: str


def weigh_tree(
    tree: OntologyTree,
    provider: CountProvider,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[OntologyTree, list[EdgeAnnotation]]:
    """Weight every edge with the similarity score of its end labels.

    Returns a new tree of identical shape plus annotations for the edges
    whose score degenerated to the floor (zero co-occurrence, or a distance
    past 1 clamped back up).  ``epsilon`` must lie in (0, 1], like every weight.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    weights: dict[Edge, Optional[float]] = {}
    annotations: list[EdgeAnnotation] = []
    for parent, child in tree.weights:
        try:
            counts = provider.counts(parent, child)
        except ContextTrustError as exc:
            raise type(exc)(f"edge ({parent!r} -> {child!r}): {exc}") from exc
        except Exception as exc:
            raise ProviderError(f"edge ({parent!r} -> {child!r}): {exc}") from exc
        weights[(parent, child)] = weight = nss(counts, epsilon)
        if weight == epsilon:
            reason = "zero co-occurrence" if counts.fxy == 0 else "similarity clamped to floor"
            annotations.append(EdgeAnnotation(parent, child, reason))
    return replace(tree, weights=weights), annotations
