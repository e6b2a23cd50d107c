"""The five context-to-context similarity measures.

Three operate on ontology-tree nodes (weighted path product, inverse
intermediate-node distance, shared root-path ratio) and two on alternative
context representations (keyword sets, task attribute vectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable

from .errors import ArityError, DomainError, InvalidContextError, MissingWeightError
from .ontology import OntologyTree, _meet, intermediate_count, path_between


class PathMode(str, Enum):
    """How edge weights along a path combine into a similarity."""

    PRODUCT = "product"
    RECIPROCAL = "reciprocal"


TREE_MEASURES = ("weighted", "eq1", "shared")
ALL_MEASURES = TREE_MEASURES + ("keyword", "task")


@dataclass(frozen=True)
class KeywordContext:
    """A context described by a set of keywords."""

    keywords: frozenset[str]

    def __init__(self, keywords: Iterable[str]):
        normalized = frozenset(k.strip().lower() for k in keywords)
        if not normalized:
            raise InvalidContextError("keyword context must have at least one keyword")
        if "" in normalized:
            raise InvalidContextError("keyword context contains an empty keyword")
        object.__setattr__(self, "keywords", normalized)


@dataclass(frozen=True)
class TaskContext:
    """A context described by an attribute vector, each attribute in [0, 1]."""

    attributes: tuple[float, ...]

    def __init__(self, attributes: Iterable[float]):
        values = tuple(float(a) for a in attributes)
        if not values:
            raise InvalidContextError("task context must have at least one attribute")
        for value in values:
            if not 0.0 <= value <= 1.0:
                raise InvalidContextError(f"task attribute {value} outside [0, 1]")
        object.__setattr__(self, "attributes", values)


def weighted_path_similarity(
    tree: OntologyTree, a: str, b: str, mode: PathMode = PathMode.PRODUCT
) -> float:
    """Similarity from the edge weights on the unique a-b path.

    Product mode multiplies the weights (a value in (0, 1], or 0.0 once a
    long path of small weights underflows); reciprocal mode returns one over
    that product (a value >= 1) and rejects an underflowed one.  Identical
    nodes give 1 in both modes, the empty product.
    """
    (_, weights_a), (_, weights_b), lca = _meet(tree, a, b)
    up, down = weights_a[lca:], weights_b[lca:]
    try:
        # a's edges going up, then b's going down: path_between's order, so the same floats.
        product = math.prod(down, start=math.prod(reversed(up), start=1.0))
    except TypeError:  # a None weight
        edge = next(e for e in path_between(tree, a, b).edges if tree.weights[e] is None)
        raise MissingWeightError(f"edge {edge!r} carries no weight") from None
    if mode is PathMode.RECIPROCAL:
        if product == 0.0:
            raise DomainError(
                f"weight product on the path {a!r} -> {b!r} ({len(up) + len(down)} edges) "
                "underflows to 0, so its reciprocal is undefined"
            )
        return 1.0 / product
    return product


def inverse_distance_similarity(tree: OntologyTree, a: str, b: str) -> float:
    """One over the number of intermediate nodes between a and b, floored at 1.

    The floor makes adjacent nodes (and a node with itself) maximally similar.
    """
    return 1.0 / max(1, intermediate_count(tree, a, b))


def shared_path_ratio(tree: OntologyTree, a: str, b: str) -> float:
    """Shared over total nodes of the two inclusive root paths."""
    # The two inclusive root paths share the LCA's, one node more than its depth.
    (path_a, _), (path_b, _), lca = _meet(tree, a, b)
    return (lca + 1) / (len(path_a) + len(path_b) - lca - 1)


def keyword_similarity(ka: KeywordContext, kb: KeywordContext) -> float:
    """Intersection over union of the two keyword sets."""
    return len(ka.keywords & kb.keywords) / len(ka.keywords | kb.keywords)


def task_similarity(ta: TaskContext, tb: TaskContext) -> float:
    """One minus the mean absolute difference of paired attributes."""
    if len(ta.attributes) != len(tb.attributes):
        raise ArityError(f"attribute counts differ: {len(ta.attributes)} vs {len(tb.attributes)}")
    n = len(ta.attributes)
    return 1.0 - sum(abs(p - q) for p, q in zip(ta.attributes, tb.attributes)) / n


def tree_measure(
    measure: str, mode: PathMode = PathMode.PRODUCT
) -> Callable[[OntologyTree, str, str], float]:
    """The tree-based measure named ``measure``, as a function of (tree, a, b).

    Read from this module's namespace at each call, so a wrapper put there is returned.
    """
    if measure == "weighted":
        return partial(weighted_path_similarity, mode=mode)
    if measure == "eq1":
        return inverse_distance_similarity
    if measure == "shared":
        return shared_path_ratio
    raise DomainError(
        f"measure {measure!r} does not apply to tree nodes; expected one of {TREE_MEASURES}"
    )


def tree_similarity(
    tree: OntologyTree, a: str, b: str, measure: str, mode: PathMode = PathMode.PRODUCT
) -> float:
    """One of the tree-based measures, by name."""
    return tree_measure(measure, mode)(tree, a, b)
