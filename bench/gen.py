"""Seeded synthetic inputs for the benchmark workloads.

Each generator takes a ``random.Random``, writes the files the program reads
into a work directory, and returns what the oracle needs to check the
program's output.  The same seed gives byte-identical files.  Nothing here
imports the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]


def make_words(rng: random.Random, n: int, syllables: int = 3) -> list[str]:
    """n distinct lowercase pseudo-words of the given syllable count."""
    base = len(SYLLABLES)
    words = []
    for index in rng.sample(range(base**syllables), n):
        parts = []
        for _ in range(syllables):
            index, digit = divmod(index, base)
            parts.append(SYLLABLES[digit])
        words.append("".join(parts))
    return words


def random_tree(rng: random.Random, labels: list[str]) -> list[tuple[str, str]]:
    """(parent, child) edges of a random recursive tree rooted at labels[0]."""
    return [(labels[rng.randrange(i)], labels[i]) for i in range(1, len(labels))]


def write_tree(path: Path, edges, weights=None) -> None:
    lines = []
    for parent, child in edges:
        if weights is None:
            lines.append(f"{parent}\t{child}")
        else:
            lines.append(f"{parent}\t{child}\t{weights[(parent, child)]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- weigh workloads -------------------------------------------------------


@dataclass
class WeighInputs:
    tree: Path
    edges: list[tuple[str, str]]
    term_docs: dict[str, frozenset[int]]  # lowercased label -> ids of documents holding it
    m: int


# Tokens per document.  Every token has six letters, so a document's size
# does not depend on the seed, and neither does the work of scanning it.
DOC_TOKENS = 36


def _documents(rng: random.Random, edges, n_docs: int) -> list[list[str]]:
    """Token lists: a random root-to-node path (each term kept with p=0.9) plus noise.

    Noise is drawn from a vocabulary disjoint from the labels, and now and
    then one off-path label is mixed in, so counts are not purely tree-shaped.
    """
    parent = {child: p for p, child in edges}
    labels = [edges[0][0]] + [child for _, child in edges]
    taken = set(labels)
    noise = [w for w in make_words(random.Random(rng.random()), 2000 + len(labels))
             if w.capitalize() not in taken][:2000]
    docs = []
    for _ in range(n_docs):
        node = rng.choice(labels)
        path = [node]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        tokens = [term for term in path if rng.random() < 0.9]
        if rng.random() < 0.3:
            tokens.append(rng.choice(labels))
        tokens += rng.choices(noise, k=DOC_TOKENS - len(tokens))
        rng.shuffle(tokens)
        docs.append(tokens)
    return docs


def _term_docs(labels: list[str], docs: list[list[str]]) -> dict[str, frozenset[int]]:
    index: dict[str, set[int]] = {label.lower(): set() for label in labels}
    for doc_id, tokens in enumerate(docs):
        for token in tokens:
            if token in index:
                index[token].add(doc_id)
    return {term: frozenset(ids) for term, ids in index.items()}


def _render(rng: random.Random, tokens: list[str]) -> str:
    """Sentences of 6-10 words, first word capitalised, so matching must ignore case."""
    sentences = []
    i = 0
    while i < len(tokens):
        size = rng.randint(6, 10)
        chunk = tokens[i : i + size]
        sentences.append(" ".join([chunk[0].capitalize()] + chunk[1:]) + ".")
        i += size
    return " ".join(sentences) + "\n"


def _weigh_tree(rng: random.Random, work: Path, nodes: int, n_docs: int):
    labels = [w.capitalize() for w in make_words(rng, nodes)]
    edges = random_tree(rng, labels)
    tree = work / "tree.tsv"
    write_tree(tree, edges)
    docs = [[t.lower() for t in tokens] for tokens in _documents(rng, edges, n_docs)]
    return tree, labels, edges, docs


def weigh_corpus(rng: random.Random, work: Path, nodes: int, docs: int) -> WeighInputs:
    """Tree, a directory of text documents, and a corpus provider config."""
    tree, labels, edges, token_lists = _weigh_tree(rng, work, nodes, docs)
    corpus = work / "corpus"
    corpus.mkdir()
    width = len(str(docs))
    for doc_id, tokens in enumerate(token_lists):
        (corpus / f"doc{doc_id:0{width}d}.txt").write_text(_render(rng, tokens), encoding="utf-8")
    (work / "provider.json").write_text(
        json.dumps({"kind": "corpus", "directory": "corpus"}) + "\n", encoding="utf-8"
    )
    return WeighInputs(tree, edges, _term_docs(labels, token_lists), len(token_lists))


def pair_counts(inputs: WeighInputs, x: str, y: str) -> tuple[int, int, int]:
    dx, dy = inputs.term_docs[x.lower()], inputs.term_docs[y.lower()]
    return len(dx), len(dy), len(dx & dy)


def weigh_remote(
    rng: random.Random, work: Path, nodes: int, docs: int, cached_share: float
) -> WeighInputs:
    """Tree, the endpoint's term index, and a pair cache holding a share of the edges.

    The provider config names the endpoint's port, so it is written once the
    endpoint runs (see ``write_remote_config``).
    """
    tree, labels, edges, token_lists = _weigh_tree(rng, work, nodes, docs)
    inputs = WeighInputs(tree, edges, _term_docs(labels, token_lists), len(token_lists))
    write_index(work / "index.json", inputs)
    lines = []
    for parent, child in rng.sample(edges, round(len(edges) * cached_share)):
        (a, fa), (b, fb) = sorted([(parent.lower(), parent), (child.lower(), child)])
        fx, fy, fxy = pair_counts(inputs, fa, fb)
        lines.append(f"{a}\t{b}\t{fx}\t{fy}\t{fxy}\t{inputs.m}\n")
    (work / "cache.tsv").write_text("".join(lines), encoding="utf-8")
    return inputs


def write_index(path: Path, inputs: WeighInputs) -> None:
    """The endpoint's view of the collection: each term's document ids."""
    terms = {term: sorted(ids) for term, ids in inputs.term_docs.items()}
    path.write_text(json.dumps({"terms": terms}, sort_keys=True), encoding="utf-8")


def write_remote_config(work: Path, url: str, m: int, interval_ms: int) -> Path:
    path = work / "provider.json"
    config = {
        "kind": "remote",
        "endpoint": url + "/search?q={query}",
        "extract": {"json_path": "count"},
        "interval_ms": interval_ms,
        "m": m,
    }
    path.write_text(json.dumps(config) + "\n", encoding="utf-8")
    return path


# --- eval workload ---------------------------------------------------------


@dataclass
class EvalInputs:
    tree: Path
    parents: dict[str, str]
    weights: dict[tuple[str, str], float]
    reviews: list[tuple[str, Path]]  # (seller, csv path)
    rates: dict[str, dict[str, list[int]]]  # seller -> context -> rates
    pairs_file: Path
    pairs: list[tuple[str, str, str]]


def _split_tree(rng: random.Random, labels: list[str], branches: int):
    """A root with ``branches`` subtrees; half are split finely, half coarsely.

    Fine branches grow up to depth 9 with strongly related concepts (weights
    near 1); coarse ones stop at depth 2 with weaker links.  That is the case
    where counting intermediate nodes misjudges distance.
    """
    root = labels[0]
    edges, weights = [], {}
    depth = {root: 0}
    open_nodes: list[list[str]] = []  # per branch: nodes that may still take children
    for b in range(branches):
        head = labels[1 + b]
        edges.append((root, head))
        weights[(root, head)] = round(rng.uniform(0.3, 0.6), 6)
        depth[head] = 1
        open_nodes.append([head])
    for label in labels[1 + branches :]:
        b = rng.randrange(branches)
        fine = b % 2 == 0
        parent = rng.choice(open_nodes[b])
        depth[label] = depth[parent] + 1
        if depth[label] < (10 if fine else 3):
            open_nodes[b].append(label)
        weight = rng.uniform(0.85, 0.99) if fine else rng.uniform(0.35, 0.7)
        edges.append((parent, label))
        weights[(parent, label)] = round(weight, 6)
    return edges, weights


def eval_large(
    rng: random.Random, work: Path, nodes: int, sellers: int, reviews: int, pairs: int
) -> EvalInputs:
    """A pre-weighted tree, one review CSV per seller, and a pairs file.

    Each seller rates 25 contexts with at least 5 reviews each (kept by
    ``--min-ratings 5``) and 5 thin contexts with 2 reviews each (dropped).
    Pairs only name kept contexts.
    """
    labels = [w.capitalize() for w in make_words(rng, nodes)]
    edges, weights = _split_tree(rng, labels, branches=8)
    tree = work / "tree.tsv"
    write_tree(tree, edges, weights)
    parents = {child: parent for parent, child in edges}

    review_dir = work / "reviews"
    review_dir.mkdir()
    words = make_words(rng, 200, syllables=2)
    all_rates: dict[str, dict[str, list[int]]] = {}
    review_files = []
    kept_contexts = {}
    for s in range(sellers):
        seller = f"seller{s:03d}"
        contexts = rng.sample(labels, 30)
        main, thin = contexts[:25], contexts[25:]
        counts = {c: 5 for c in main}
        for c in rng.choices(main, k=reviews - 5 * len(main) - 2 * len(thin)):
            counts[c] += 1
        counts.update({c: 2 for c in thin})
        base = rng.uniform(2.0, 5.0)
        rows = []
        rates: dict[str, list[int]] = {}
        for context, n in counts.items():
            mean = base + rng.uniform(-1.5, 1.0)
            for _ in range(n):
                rate = min(5, max(1, round(rng.gauss(mean, 0.7))))
                rates.setdefault(context, []).append(rate)
                day, month = rng.randint(1, 28), rng.choice(["Jan", "Feb", "Mar", "Apr"])
                rows.append((context, rate, f"{day}-{month}-10",
                             " ".join(rng.choices(words, k=3)),
                             f"https://reviews.example/{seller}/{len(rows)}"))
        rng.shuffle(rows)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["Context", "Rate", "Date", "Description", "Link"])
        writer.writerows(rows)
        path = review_dir / f"{seller}.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        review_files.append((seller, path))
        all_rates[seller] = rates
        kept_contexts[seller] = main

    pair_rows = []
    seller_names = [seller for seller, _ in review_files]
    for _ in range(pairs):
        seller = rng.choice(seller_names)
        known, unknown = rng.sample(kept_contexts[seller], 2)
        pair_rows.append((seller, known, unknown))
    pairs_file = work / "pairs.csv"
    pairs_file.write_text(
        "seller,known,unknown\n" + "".join(f"{s},{k},{u}\n" for s, k, u in pair_rows),
        encoding="utf-8",
    )
    return EvalInputs(tree, parents, weights, review_files, all_rates, pairs_file, pair_rows)
