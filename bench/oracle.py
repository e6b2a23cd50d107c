"""Expected outputs, computed without the package under test.

The weigh oracle scores each edge from the generator's own term-to-document
sets with its own copy of the paper's distance.  The eval oracle walks
parent links to find each path and recomputes every measure, prediction and
error.  Each ``check_*`` function returns a list of problems; empty means
the output is correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable, Mapping, Sequence

EPSILON = 0.01
RATE_CEILING = 5.0
NOTE = re.compile(r"note: edge \((.+) -> (.+)\) forced to floor: (.+)")


def distance(fx: int, fy: int, fxy: int, m: int) -> float:
    """Normalized co-occurrence distance; inf when the terms never co-occur."""
    if fxy == 0:
        return math.inf
    log_x, log_y = math.log10(fx), math.log10(fy)
    numerator = max(log_x, log_y) - math.log10(fxy)
    denominator = math.log10(m) - min(log_x, log_y)
    if denominator == 0:
        return 0.0 if numerator == 0 else math.inf
    return numerator / denominator


def expected_weights(
    edges: Sequence[tuple[str, str]],
    counts: Callable[[str, str], tuple[int, int, int, int]],
    epsilon: float = EPSILON,
) -> tuple[dict[tuple[str, str], float], set[tuple[str, str, str]]]:
    """Edge weights and floor notes (parent, child, reason) for a tree."""
    weights, notes = {}, set()
    for parent, child in edges:
        fx, fy, fxy, m = counts(parent, child)
        if fxy == 0:
            weights[(parent, child)] = epsilon
            notes.add((parent, child, "zero co-occurrence"))
            continue
        d = distance(fx, fy, fxy, m)
        weight = epsilon if math.isinf(d) else min(1.0, max(epsilon, 1.0 - d))
        weights[(parent, child)] = weight
        if weight == epsilon:
            notes.add((parent, child, "similarity clamped to floor"))
    return weights, notes


def check_weigh(out_file: Path, stdout: str, weights, notes) -> list[str]:
    problems = []
    got = {}
    for line in out_file.read_text(encoding="utf-8").splitlines():
        parent, child, weight = line.split("\t")
        got[(parent, child)] = float(weight)
    if set(got) != set(weights):
        problems.append(f"weighted tree has {len(got)} edges, expected {len(weights)}")
    for edge, expected in weights.items():
        if edge in got and abs(got[edge] - expected) > 1e-12:
            problems.append(f"edge {edge}: weight {got[edge]!r}, expected {expected!r}")
    got_notes = {m.groups() for m in map(NOTE.fullmatch, stdout.splitlines()) if m}
    if got_notes != notes:
        problems.append(f"floor notes differ: got {len(got_notes)}, expected {len(notes)}")
    return problems[:5]


def root_path(parents: Mapping[str, str], node: str) -> list[str]:
    path = [node]
    while path[-1] in parents:
        path.append(parents[path[-1]])
    return path


def similarities(parents, weights, a: str, b: str) -> dict[str, float]:
    """weighted, eq1 and shared similarity of two nodes, by walking parent links."""
    up_a, up_b = root_path(parents, a), root_path(parents, b)
    on_b = {node: depth for depth, node in enumerate(up_b)}
    depth_a = next(d for d, node in enumerate(up_a) if node in on_b)
    depth_b = on_b[up_a[depth_a]]
    product = 1.0
    for node in up_a[:depth_a]:
        product *= weights[(parents[node], node)]
    for node in reversed(up_b[:depth_b]):
        product *= weights[(parents[node], node)]
    intermediate = max(0, depth_a + depth_b - 1)
    set_a, set_b = set(up_a), set(up_b)
    return {
        "weighted": product,
        "eq1": 1.0 / max(1, intermediate),
        "shared": len(set_a & set_b) / len(set_a | set_b),
    }


def expected_eval(
    parents: Mapping[str, str],
    weights: Mapping[tuple[str, str], float],
    rates: Mapping[str, Mapping[str, Sequence[int]]],
    pairs: Sequence[tuple[str, str, str]],
    measures: Sequence[str],
    min_contexts: int,
    min_ratings: int,
) -> tuple[int, dict[str, float]]:
    """Report row count and mean absolute error (percent of scale) per measure."""
    aggregates = {}
    for seller, contexts in rates.items():
        kept = {c: sum(r) / len(r) for c, r in contexts.items() if len(r) >= min_ratings}
        if len(kept) >= min_contexts:
            aggregates[seller] = kept
    errors: dict[str, list[float]] = {m: [] for m in measures}
    for seller, known, unknown in pairs:
        real, known_rate = aggregates[seller][unknown], aggregates[seller][known]
        sims = similarities(parents, weights, known, unknown)
        for measure in measures:
            predicted = min(RATE_CEILING, max(0.0, known_rate * sims[measure]))
            errors[measure].append(abs(predicted - real) / 5.0 * 100.0)
    mae = {m: sum(e) / len(e) for m, e in errors.items()}
    return len(pairs) * len(measures), mae


def check_eval(report: Path, stdout: str, rows: int, mae: Mapping[str, float]) -> list[str]:
    problems = []
    lines = report.read_text(encoding="utf-8").splitlines()
    if len(lines) - 1 != rows:
        problems.append(f"report has {len(lines) - 1} rows, expected {rows}")
    printed = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2 and parts[0] in mae:
            printed[parts[0]] = float(parts[1])
    for measure, expected in mae.items():
        if measure not in printed:
            problems.append(f"summary lacks measure {measure}")
        elif abs(printed[measure] - expected) > 1e-6:
            problems.append(f"{measure} MAE {printed[measure]}, expected {expected:.6f}")
    return problems
