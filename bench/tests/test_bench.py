"""Self-tests of the benchmark: generator, oracle, endpoint and tracer.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

import pytest

import endpoint
import gen
import oracle
import reference
import run
import tracing
from contexttrust import ontology, semantic, similarity

EVALFIX = Path(__file__).resolve().parents[2] / "tests" / "data" / "evalfix"

SMALL = {
    "weigh-corpus": {"nodes": 30, "docs": 60},
    "weigh-remote": {"nodes": 40, "docs": 80, "cached_share": 0.5,
                     "interval_ms": 0, "fail_every": 3},
    "eval-large": {"nodes": 120, "sellers": 4, "reviews": 160, "pairs": 50},
}


def _generate(name: str, seed: int, work: Path) -> None:
    rng = random.Random(f"{name}:{seed}")
    p = SMALL[name]
    if name == "weigh-corpus":
        gen.weigh_corpus(rng, work, p["nodes"], p["docs"])
    elif name == "weigh-remote":
        gen.weigh_remote(rng, work, p["nodes"], p["docs"], p["cached_share"])
    else:
        gen.eval_large(rng, work, p["nodes"], p["sellers"], p["reviews"], p["pairs"])


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for work, seed in ((first, 5), (second, 5), (other, 6)):
        work.mkdir()
        _generate(name, seed, work)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_corpus_size_does_not_depend_on_seed(tmp_path):
    tokens = set()
    for seed in (1, 2, 3):
        work = tmp_path / str(seed)
        work.mkdir()
        gen.weigh_corpus(random.Random(seed), work, nodes=30, docs=60)
        tokens.add(sum(len(p.read_text(encoding="utf-8").split())
                       for p in (work / "corpus").iterdir()))
    assert tokens == {60 * gen.DOC_TOKENS}


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return list(csv.reader(handle))


def test_oracle_reproduces_evalfix_result():
    table = {}
    for line in (EVALFIX / "counts.tsv").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            a, b, fx, fy, fxy, m = line.split("\t")
            table[(a, b)] = (int(fx), int(fy), int(fxy), int(m))

    def counts(x, y):
        fx, fy, fxy, m = table[tuple(sorted((x.lower(), y.lower())))]
        return (fx, fy, fxy, m) if x.lower() < y.lower() else (fy, fx, fxy, m)

    edges = [
        tuple(line.split("\t")[:2])
        for line in (EVALFIX / "store_tree.tsv").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    weights, _ = oracle.expected_weights(edges, counts)
    rates = {}
    for seller in ("techmart", "pageturner", "allgoods"):
        for context, rate, *_ in _read_rows(EVALFIX / f"{seller}.csv")[1:]:
            rates.setdefault(seller, {}).setdefault(context, []).append(int(rate))
    pairs = [tuple(row) for row in _read_rows(EVALFIX / "pairs.csv")[1:]]
    parents = {child: parent for parent, child in edges}

    rows, mae = oracle.expected_eval(parents, weights, rates, pairs, ("weighted", "eq1"), 2, 5)

    assert rows == 2 * len(pairs)
    assert round(mae["weighted"], 2) == 14.08
    assert round(mae["eq1"], 2) == 28.40


def test_endpoint_counts_equal_corpus_provider(tmp_path):
    inputs = gen.weigh_corpus(random.Random(11), tmp_path, nodes=25, docs=50)
    gen.write_index(tmp_path / "index.json", inputs)
    corpus = semantic.CorpusProvider(tmp_path / "corpus")
    with endpoint.Endpoint(tmp_path / "index.json", seed=11, fail_every=3) as server:
        config = gen.write_remote_config(tmp_path, server.url, inputs.m, interval_ms=0)
        remote = semantic.make_provider(semantic.load_provider_config(config))
        for parent, child in inputs.edges:
            assert remote.counts(parent, child) == corpus.counts(parent, child)
        stats = server.stats()
    assert stats["failed"] > 0
    assert stats["requests"] == 3 * len(inputs.edges) + stats["failed"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_commands_pass_oracle_and_trace_restores_modules(name, tmp_path):
    originals = (ontology.load_tree, similarity.path_between, semantic.PairCache)
    kind = run.Eval if name == "eval-large" else run.Weigh
    workload = kind(name, 3, SMALL[name])
    runner = run.Runner(workload)
    try:
        run.setup(workload, runner, tmp_path, repeats=1, ref=reference.Reference(tmp_path))
        runner.command()
        queries = workload.queries
        tracer = tracing.Tracer(request=runner.attempted + 1)
        runner.command(tracer)
    finally:
        workload.close()
    assert (runner.attempted, runner.failed) == (3, 0)
    assert (ontology.load_tree, similarity.path_between, semantic.PairCache) == originals

    layers = tracer.layer_metrics()
    if name == "eval-large":
        assert layers["evaluation.rows"] == workload.items
        assert layers["similarity.calls"] == workload.items
        assert layers["dataset.reviews"] == SMALL[name]["sellers"] * SMALL[name]["reviews"]
    else:
        edges = len(workload.inputs.edges)
        assert layers["ontology.load_tree_s"] > 0
        if name == "weigh-corpus":
            assert layers["semantic.counts_calls"] == edges
            assert layers["semantic.bytes_read"] > 0
        else:
            assert layers["semantic.cache.hits"] + layers["semantic.cache.misses"] == edges
            assert layers["semantic.remote.queries"] == queries > 0
            assert layers["semantic.remote.retries"] > 0


def test_read_io_delta_excludes_its_own_read(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"x" * 12345)
    rchar, _, own = tracing.read_io()
    target.read_bytes()
    assert tracing.read_io()[0] - rchar - own == 12345
