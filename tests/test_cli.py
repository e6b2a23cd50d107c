import csv
import gc
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from helpers import DATA_DIR, chain_tree
from contexttrust import cli, dataset, evaluation, semantic, similarity
from contexttrust.cli import main
from contexttrust.errors import MissingContextError, SchemaError
from contexttrust.ontology import dump_tree, load_tree

EVALFIX = DATA_DIR / "evalfix"
MAKE_PROVIDER = semantic.make_provider
LOAD_REVIEWS = dataset.load_reviews


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def weigh_fixture_tree(capsys, tmp_path):
    out = tmp_path / "weighted.tsv"
    code, stdout, stderr = run(
        capsys,
        "weigh",
        "--tree", EVALFIX / "store_tree.tsv",
        "--provider", EVALFIX / "provider.json",
        "--out", out,
    )
    assert code == 0, stderr
    return out, stdout


def eval_args(tree, out, measures=("weighted", "eq1")):
    return [
        "eval",
        "--tree", tree,
        "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
        "--reviews", f"pageturner={EVALFIX / 'pageturner.csv'}",
        "--reviews", f"allgoods={EVALFIX / 'allgoods.csv'}",
        "--pairs", EVALFIX / "pairs.csv",
        *(arg for measure in measures for arg in ("--measure", measure)),
        "--min-contexts", "2",
        "--min-ratings", "5",
        "--out", out,
    ]


# --- weigh ---------------------------------------------------------------------

def test_weigh_writes_expected_weights(capsys, tmp_path):
    out, stdout = weigh_fixture_tree(capsys, tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    weights = {(p, c): w for p, c, w in (line.split("\t") for line in lines)}
    assert weights[("Store", "Electronics")] == "0.9"
    assert weights[("Portables", "Laptop")] == "0.9"
    assert weights[("Store", "Media")] == "0.5"
    assert weights[("Media", "Books")] == "0.5"
    assert "Store\tElectronics\t0.900000" in stdout


def test_weigh_missing_pair_exits_nonzero(capsys, tmp_path):
    table = tmp_path / "partial.tsv"
    table.write_text("electronics\tstore\t10\t1\t1\t10000000000\n", encoding="utf-8")
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "static", "table": "partial.tsv"}), encoding="utf-8")
    out = tmp_path / "weighted.tsv"
    code, _, stderr = run(
        capsys,
        "weigh",
        "--tree", EVALFIX / "store_tree.tsv",
        "--provider", config,
        "--out", out,
    )
    assert code == 1
    assert "Electronics" in stderr and "Computers" in stderr
    assert not out.exists()


def test_weigh_warm_cache_needs_no_provider(capsys, tmp_path):
    corpus = tmp_path / "docs"
    corpus.mkdir()
    (corpus / "d0.txt").write_text("alpha beta gadget", encoding="utf-8")
    (corpus / "d1.txt").write_text("alpha gadget", encoding="utf-8")
    (corpus / "d2.txt").write_text("beta", encoding="utf-8")
    tree = tmp_path / "tree.tsv"
    tree.write_text("alpha\tbeta\nalpha\tgadget\n", encoding="utf-8")
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "corpus", "directory": "docs"}), encoding="utf-8")
    cache = tmp_path / "cache.tsv"
    out1 = tmp_path / "w1.tsv"
    code, _, _ = run(capsys, "weigh", "--tree", tree, "--provider", config,
                     "--cache", cache, "--out", out1)
    assert code == 0
    assert cache.exists()

    shutil.rmtree(corpus)  # provider alone can no longer answer
    out2 = tmp_path / "w2.tsv"
    code, _, stderr = run(capsys, "weigh", "--tree", tree, "--provider", config,
                          "--cache", cache, "--out", out2)
    assert code == 0, stderr
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cache", ["", "  "])
def test_weigh_blank_cache_path_exits_nonzero(capsys, tmp_path, monkeypatch, cache):
    monkeypatch.chdir(tmp_path)  # a cache file opened at a blank path would land here
    code, stdout, stderr = run(capsys, "weigh", "--tree", EVALFIX / "store_tree.tsv",
                               "--provider", EVALFIX / "provider.json",
                               "--cache", cache, "--out", tmp_path / "w.tsv")
    assert (code, stdout) == (1, "")
    assert "contexttrust:" in stderr and "--cache" in stderr
    assert list(tmp_path.iterdir()) == []


class KilledAfter(Exception):
    """Stands in for a run that dies part way through weighing."""


def recording_provider(monkeypatch, fail_after=None):
    """Make the CLI's provider record each lookup, and raise after fail_after of them."""
    lookups = []

    class Recording(semantic.CountProvider):
        def __init__(self, inner):
            self.inner = inner

        def counts(self, x, y):
            if fail_after is not None and len(lookups) == fail_after:
                raise KilledAfter(f"killed after {fail_after} edges")
            lookups.append((x, y))
            return self.inner.counts(x, y)

    monkeypatch.setattr(semantic, "make_provider", lambda config: Recording(MAKE_PROVIDER(config)))
    return lookups


@pytest.mark.parametrize("k", [1, 3, 5])
def test_weigh_resumes_from_cache_after_a_kill(capsys, tmp_path, monkeypatch, k):
    tree = EVALFIX / "store_tree.tsv"
    edges = list(load_tree(tree).weights)
    reference, out, cache = tmp_path / "reference.tsv", tmp_path / "out.tsv", tmp_path / "cache.tsv"
    weigh = ["weigh", "--tree", tree, "--provider", EVALFIX / "provider.json"]
    code, expected_stdout, stderr = run(capsys, *weigh, "--out", reference)
    assert code == 0, stderr

    out.write_text("earlier output\n", encoding="utf-8")
    first = recording_provider(monkeypatch, fail_after=k)
    code, stdout, stderr = run(capsys, *weigh, "--cache", cache, "--out", out)
    assert (code, stdout) == (1, "")
    assert f"killed after {k} edges" in stderr
    assert first == edges[:k]
    assert out.read_text(encoding="utf-8") == "earlier output\n"

    resumed = recording_provider(monkeypatch)
    code, stdout, stderr = run(capsys, *weigh, "--cache", cache, "--out", out)
    assert code == 0, stderr
    assert resumed == edges[k:]
    assert stdout == expected_stdout
    assert out.read_bytes() == reference.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.tsv", "out.tsv", "reference.tsv"]


def test_weigh_annotates_floor_edges(capsys, tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("alpha\tbeta\t10\t10\t0\t100\n", encoding="utf-8")
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "static", "table": "t.tsv"}), encoding="utf-8")
    tree = tmp_path / "tree.tsv"
    tree.write_text("alpha\tbeta\n", encoding="utf-8")
    out = tmp_path / "w.tsv"
    code, stdout, _ = run(capsys, "weigh", "--tree", tree, "--provider", config,
                          "--epsilon", "0.05", "--out", out)
    assert code == 0
    assert "forced to floor" in stdout
    assert out.read_text(encoding="utf-8") == "alpha\tbeta\t0.05\n"


def test_weigh_rejects_bad_epsilon(capsys, tmp_path):
    code, _, stderr = run(capsys, "weigh", "--tree", EVALFIX / "store_tree.tsv",
                          "--provider", EVALFIX / "provider.json",
                          "--epsilon", "1.5", "--out", tmp_path / "w.tsv")
    assert code == 1
    assert "epsilon" in stderr


# --- sim -----------------------------------------------------------------------

def test_sim_weighted_product(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\t0.9\nb\tc\t0.8\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "sim", "--tree", tree, "--measure", "weighted", "a", "c")
    assert code == 0
    assert stdout.strip() == "0.720000"


def test_sim_reciprocal_mode(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\t0.9\nb\tc\t0.8\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "sim", "--tree", tree, "--measure", "weighted",
                          "--mode", "reciprocal", "a", "c")
    assert code == 0
    assert stdout.strip() == "1.388889"


def test_sim_inverse_distance(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\nb\tc\nc\td\nd\te\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "sim", "--tree", tree, "--measure", "eq1", "a", "e")
    assert code == 0
    assert stdout.strip() == "0.333333"


def test_sim_shared_path_ratio(capsys, tmp_path):
    # Root paths c-b-a and d-a share one node of four.
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\nb\tc\na\td\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "sim", "--tree", tree, "--measure", "shared", "c", "d")
    assert code == 0
    value = similarity.tree_measure("shared")(load_tree(tree), "c", "d")
    assert stdout == f"{value:.6f}\n" == "0.250000\n"


def test_sim_identity(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\t0.9\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "sim", "--tree", tree, "--measure", "weighted", "b", "b")
    assert code == 0
    assert stdout.strip() == "1.000000"


def test_sim_keyword_sets(capsys):
    code, stdout, _ = run(capsys, "sim", "--measure", "keyword",
                          "write,pdf,file", "write,doc,file")
    assert code == 0
    assert stdout.strip() == "0.500000"


def test_sim_task_vectors(capsys):
    code, stdout, _ = run(capsys, "sim", "--measure", "task", "0.5,0.5", "0.7,0.1")
    assert code == 0
    assert stdout.strip() == "0.700000"


def test_sim_task_vector_must_be_numeric(capsys):
    code, stdout, stderr = run(capsys, "sim", "--measure", "task", "0.5,high", "0.7,0.1")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("contexttrust:") and "'0.5,high'" in stderr


def test_sim_tree_measure_requires_tree(capsys):
    code, _, stderr = run(capsys, "sim", "--measure", "weighted", "a", "b")
    assert code == 1
    assert "--tree" in stderr


def test_sim_unknown_node_fails(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\t0.9\n", encoding="utf-8")
    code, _, stderr = run(capsys, "sim", "--tree", tree, "--measure", "weighted", "a", "zz")
    assert code == 1
    assert "zz" in stderr


def test_sim_reciprocal_underflow_fails(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text(dump_tree(chain_tree([0.01] * 200)), encoding="utf-8")
    code, stdout, stderr = run(capsys, "sim", "--tree", tree, "--measure", "weighted",
                               "--mode", "reciprocal", "c0", "c200")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("contexttrust:") and "c200" in stderr


def test_sim_missing_weight_fails(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text("a\tb\n", encoding="utf-8")
    code, _, stderr = run(capsys, "sim", "--tree", tree, "--measure", "weighted", "a", "b")
    assert code == 1
    assert "weight" in stderr


# --- predict --------------------------------------------------------------------

def test_predict_identity_prints_aggregate(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "predict", "--tree", tree,
        "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
        "techmart", "Laptop", "Laptop",
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "5.000000"


def test_predict_across_contexts(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "predict", "--tree", tree,
        "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
        "techmart", "Laptop", "Computers",
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "4.050000"


def test_predict_reciprocal_mode_reaches_the_prediction(capsys, tmp_path):
    # evalfix's first pair: in product mode Laptop's 5 scales down to 4.05; in reciprocal
    # mode the similarity is above 1 and the prediction is capped at the scale's top.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    with open(EVALFIX / "pairs.csv", encoding="utf-8", newline="") as handle:
        seller, known, unknown = list(csv.reader(handle))[1]
    reviews = f"{seller}={EVALFIX / f'{seller}.csv'}"
    profile = dataset.build_profiles({seller: dataset.load_reviews(EVALFIX / f"{seller}.csv")})
    printed = {}
    for mode in similarity.PathMode:
        code, stdout, stderr = run(capsys, "predict", "--tree", tree, "--reviews", reviews,
                                   "--mode", mode.value, seller, known, unknown)
        assert code == 0, stderr
        rate = evaluation.predict_for_pair(profile[seller], load_tree(tree), "weighted",
                                           known, unknown, mode)
        assert stdout == f"{rate:.6f}\n", mode
        printed[mode.value] = stdout
    assert printed == {"product": "4.050000\n", "reciprocal": "5.000000\n"}


@pytest.mark.parametrize("measure, golden",[("eq1", "2.500000"), ("shared", "2.000000")],
                         ids=["eq1", "shared"])
def test_predict_eq1_and_shared(capsys, tmp_path, measure, golden):
    # Laptop (rated 5) lies two nodes below Electronics: eq1 0.5, shared 2 of 5 nodes.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "predict", "--tree", tree, "--measure", measure,
        "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
        "techmart", "Laptop", "Electronics",
    )
    assert code == 0
    value = similarity.tree_measure(measure)(load_tree(tree), "Laptop", "Electronics")
    known = dataset.build_profiles({"s": dataset.load_reviews(EVALFIX / "techmart.csv")})["s"]
    assert stdout == f"{min(5.0, known.aggregate('Laptop') * value):.6f}\n" == golden + "\n"


def test_predict_seller_from_file_stem(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "predict", "--tree", tree,
        "--reviews", EVALFIX / "techmart.csv",
        "techmart", "Laptop", "Laptop",
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "5.000000"


@pytest.mark.parametrize("name", ["", "  "])
def test_eval_blank_reviews_seller_exits_nonzero_and_spares_out(capsys, tmp_path, name):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    spec = f"{name}={EVALFIX / 'techmart.csv'}"
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path), "--reviews", spec)
    assert code == 1
    assert stdout == ""
    assert f"--reviews {spec!r}: the seller name is blank" in stderr
    assert report_path.read_bytes() == b"old report\n"


@pytest.mark.parametrize("spec", [
    f"techmart={EVALFIX / 'techmart.csv'}",
    str(EVALFIX / "techmart.csv"),  # the seller named by the file stem
    f"techmart={EVALFIX / '..' / 'evalfix' / 'techmart.csv'}",
], ids=["named", "stem", "another-spelling"])
def test_eval_repeated_reviews_file_exits_nonzero_and_spares_out(capsys, tmp_path, spec):
    # Read twice, each rating would count twice and thin contexts would pass --min-ratings.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path), "--reviews", spec)
    assert code == 1
    assert stdout == ""
    assert f"--reviews {spec!r}: this file is already read for 'techmart'" in stderr
    assert report_path.read_bytes() == b"old report\n"


def test_two_reviews_files_for_one_seller_merge(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    header, *rows = (EVALFIX / "techmart.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    halves = []
    for name, chosen in (("first.csv", rows[::2]), ("second.csv", rows[1::2])):
        (tmp_path / name).write_text(header + "".join(chosen), encoding="utf-8")
        halves += ["--reviews", f"techmart={tmp_path / name}"]
    outputs = []
    for reviews in (["--reviews", f"techmart={EVALFIX / 'techmart.csv'}"], halves):
        code, stdout, stderr = run(
            capsys, "predict", "--tree", tree, "--min-ratings", "5", *reviews,
            "techmart", "Laptop", "Computers",
        )
        assert code == 0, stderr
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_padded_reviews_seller_is_the_plain_name(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    outputs = set()
    for name in ("techmart", " techmart", "techmart\t"):
        code, stdout, stderr = run(
            capsys, "predict", "--tree", tree,
            "--reviews", f"{name}={EVALFIX / 'techmart.csv'}",
            "techmart", "Laptop", "Computers",
        )
        assert code == 0, stderr
        outputs.add(stdout)
    assert len(outputs) == 1


def test_predict_unknown_seller(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, _, stderr = run(
        capsys, "predict", "--tree", tree,
        "--reviews", f"techmart={EVALFIX / 'techmart.csv'}",
        "ghost", "Laptop", "Laptop",
    )
    assert code == 1
    assert "ghost" in stderr


# --- eval -----------------------------------------------------------------------

def test_eval_fixture_summary_and_report(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path))
    assert code == 0, stderr
    assert "weighted     14.075600" in stdout
    assert "eq1          28.400000" in stdout
    assert "pearson" in stdout

    lines = report_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 11  # header + 5 pairs x 2 measures
    first = lines[1].split(",")
    assert first[:4] == ["techmart", "Laptop", "Computers", "weighted"]
    assert first[4] == "0.810000"
    assert first[5] == "4.050000"


def test_eval_fixture_matches_golden_files(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path))
    assert code == 0, stderr
    assert report_path.read_bytes() == (EVALFIX / "report.csv").read_bytes()
    assert stdout == (EVALFIX / "summary.txt").read_text(encoding="utf-8")


def test_eval_fixture_three_measures_match_golden_files(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    measures = ("weighted", "eq1", "shared")
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path, measures))
    assert code == 0, stderr
    assert report_path.read_bytes() == (EVALFIX / "report_shared.csv").read_bytes()
    assert stdout == (EVALFIX / "summary_shared.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", list(similarity.PathMode))
def test_eval_scores_each_row_by_one_call_through_the_similarity_namespace(
    capsys, tmp_path, monkeypatch, mode
):
    # A tracer counts measure calls by wrapping these names in similarity (bench/tracing.py):
    # eval must reach them there, one call per report row.
    calls, wrappers = {}, {}
    for measure, name in (("weighted", "weighted_path_similarity"),
                          ("eq1", "inverse_distance_similarity"), ("shared", "shared_path_ratio")):
        def counted(*args, measure=measure, original=getattr(similarity, name), **kwargs):
            calls[measure] = calls.get(measure, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(similarity, name, counted)
        wrappers[measure] = counted
    for path_mode in similarity.PathMode:
        for measure, wrapper in wrappers.items():
            scorer = similarity.tree_measure(measure, path_mode)
            if measure == "weighted" and path_mode is similarity.PathMode.RECIPROCAL:
                assert scorer.keywords == {"mode": path_mode}
                scorer = scorer.func  # the mode rides on a partial of the wrapped name
            assert scorer is wrapper
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    args = eval_args(tree, report_path, ("weighted", "eq1", "shared"))
    code, _, stderr = run(capsys, *args, "--mode", mode.value)
    assert code == 0, stderr
    rows = report_path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 15
    assert calls == {measure: 5 for measure in wrappers}
    assert sum(calls.values()) == len(rows)


def test_eval_runs_are_byte_identical(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    assert run(capsys, *eval_args(tree, first))[0] == 0
    assert run(capsys, *eval_args(tree, second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_eval_write_spares_tmp_file_and_keeps_mode(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    user_file = tmp_path / "report.csv.tmp"
    user_file.write_text("keep me\n", encoding="utf-8")
    assert run(capsys, *eval_args(tree, report_path))[0] == 0
    assert user_file.read_text(encoding="utf-8") == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.csv", "report.csv.tmp", "weighted.tsv"
    ]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(report_path.stat().st_mode) == 0o666 & ~umask


def test_eval_repeated_measure_exits_nonzero_and_spares_out(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path, ("weighted", "weighted")))
    assert code == 1
    assert stdout == ""
    assert "must be distinct" in stderr
    assert report_path.read_bytes() == b"old report\n"


def test_eval_underflowed_weighted_similarity_exits_nonzero_and_spares_out(capsys, tmp_path):
    tree = tmp_path / "tree.tsv"
    tree.write_text(dump_tree(chain_tree([0.01] * 200)), encoding="utf-8")
    reviews = tmp_path / "s.csv"
    reviews.write_text("Context,Rate,Date,Description,Link\nc0,4,d,t,l\nc200,3,d,t,l\n",
                       encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    write_pairs(pairs, [["s", "c0", "c200"]])
    report_path = tmp_path / "report.csv"
    code, stdout, stderr = run(capsys, "eval", "--tree", tree, "--reviews", f"s={reviews}",
                               "--pairs", pairs, "--measure", "weighted", "--out", report_path)
    assert (code, stdout) == (1, "")
    assert stderr == "contexttrust: pair (s, c0, c200): similarity must be positive, got 0.0\n"
    assert not report_path.exists()


def test_write_atomic_writes_a_multi_slice_text_whole(tmp_path):
    target = tmp_path / "big.csv"
    text = "".join("row %07d,\u00e9t\u00e9\n" % i for i in range(300_000))
    assert len(text.encode("utf-8")) > 5 << 20
    cli._write_atomic(target, [text])
    assert target.read_bytes() == text.encode("utf-8")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_write_atomic_encoding_failure_past_the_first_slice_keeps_the_old_file(tmp_path):
    target = tmp_path / "big.csv"
    target.write_bytes(b"old\n")
    text = "a" * ((1 << 18) + 5) + "\ud800" + "b" * 10
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(target, [text])
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_write_atomic_makes_no_whole_copy_of_the_text(tmp_path):
    # eval bounds each chunk (one block, cli._BLOCK_ROWS rows), so the chunks must not be joined.
    text = "0123456789abcde\n" * (1 << 19)  # 8 MiB
    chunks = (text[start:start + (1 << 16)] for start in range(0, len(text), 1 << 16))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli._write_atomic(tmp_path / "big.csv", chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1 << 20
    assert (tmp_path / "big.csv").stat().st_size == len(text)


def test_write_atomic_writes_its_chunks_in_order(tmp_path):
    target = tmp_path / "chunks.csv"
    chunks = ["head\n", "", "\u00e9" * ((1 << 18) + 17), "x", "tail\n"]
    cli._write_atomic(target, iter(chunks))
    assert target.read_bytes() == "".join(chunks).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["chunks.csv"]


CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(semantic.__file__).parents[1]))
# Scripts that run eval through cli.main in a child process with os.fsync wrapped, which
# _write_atomic calls once its sibling is written and before it replaces --out.
BOTH_WRITING = """
import os, sys, time
from pathlib import Path
from contexttrust import cli
barrier, fsync = Path(sys.argv[1]), os.fsync  # a directory each run marks itself in
def fsync_once_both_write(fd):  # hold each run in _write_atomic until both are in it
    (barrier / str(os.getpid())).touch()
    deadline = time.monotonic() + 30
    while len(list(barrier.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    fsync(fd)
os.fsync = fsync_once_both_write
sys.exit(cli.main(sys.argv[2:]))
"""
HANGING = """
import os, sys, time
from contexttrust import cli
def hang(fd):
    print("in _write_atomic", flush=True)
    time.sleep(60)
os.fsync = hang
sys.exit(cli.main(sys.argv[1:]))
"""


def test_two_runs_writing_one_out_leave_one_whole_report_and_no_sibling(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    out, barrier = tmp_path / "report.csv", tmp_path / "barrier"
    barrier.mkdir()
    runs = [eval_args(tree, out, measures) for measures in (("weighted",), ("eq1", "shared"))]
    expected = []
    for argv in runs:  # each report alone, written in this process
        assert run(capsys, *argv)[0] == 0
        expected.append(out.read_text(encoding="utf-8"))
    assert expected[0] != expected[1]
    out.unlink()
    children = [
        subprocess.Popen([sys.executable, "-c", BOTH_WRITING, str(barrier), *map(str, argv)],
                         env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for argv in runs
    ]
    results = [child.communicate(timeout=60) for child in children]
    assert [child.returncode for child in children] == [0, 0], results
    assert len(list(barrier.iterdir())) == 2  # both were inside _write_atomic at once
    assert out.read_text(encoding="utf-8") in expected
    assert not list(tmp_path.glob(".report.csv.*.tmp"))


def test_run_killed_inside_write_atomic_leaves_out_and_its_own_sibling(capsys, tmp_path):
    # SIGKILL runs no finally: the sibling stays, and no later run deletes another's sibling.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    out = tmp_path / "report.csv"
    argv = [str(a) for a in eval_args(tree, out)]
    assert run(capsys, *argv)[0] == 0
    report = out.read_bytes()
    out.write_bytes(b"old report\n")
    child = subprocess.Popen([sys.executable, "-c", HANGING, *argv],
                             env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "in _write_atomic\n"
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert out.read_bytes() == b"old report\n"
    (sibling,) = tmp_path.glob(".report.csv.*.tmp")
    assert sibling.read_bytes() == report  # written and flushed, never renamed


def write_pairs(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["seller", "known", "unknown"])
        writer.writerows(rows)


SMITH = 'Smith, "Jr"'


def test_eval_report_over_several_blocks_with_a_quoted_seller(capsys, tmp_path):
    # Two measures, so 2 rows a pair: the seller needs quoting in blocks 1 and 3, not in 2.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    smith = [(SMITH, "Laptop", "Computers"), (SMITH, "Computers", "Electronics")] * 50
    plain = [("pageturner", "Books", "Electronics"), ("allgoods", "Laptop", "Books")] * 2000
    pairs = tmp_path / "pairs.csv"
    write_pairs(pairs, smith + plain + smith)
    report_path = tmp_path / "report.csv"
    argv = eval_args(tree, report_path)
    techmart = argv.index(f"techmart={EVALFIX / 'techmart.csv'}")
    argv[techmart] = f"{SMITH}={EVALFIX / 'techmart.csv'}"
    argv[argv.index("--pairs") + 1] = pairs
    assert run(capsys, *argv)[0] == 0
    args = cli.build_parser().parse_args([str(a) for a in argv])
    report = evaluation.run_comparison(
        cli._load_profiles(args), load_tree(tree), ["weighted", "eq1"], cli._read_pairs(pairs)
    )
    assert len(report.records) > 2 * cli._BLOCK_ROWS
    expected = evaluation.report_to_csv(report)
    assert report_path.read_text(encoding="utf-8") == expected
    assert expected.count('"Smith, ""Jr""",') == 4 * len(smith)


@pytest.mark.parametrize("block", [0, 1])
def test_report_csv_quoting_in_one_early_block_equals_csv_writer_over_every_row(
    block, capsys, tmp_path, monkeypatch
):
    # Three blocks of two pairs; only the first, or only the middle one, holds the quoted seller.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    rows = [("pageturner", "Books", "Electronics"), ("allgoods", "Laptop", "Books")] * 3
    rows[2 * block] = (SMITH, "Laptop", "Computers")
    pairs = tmp_path / "pairs.csv"
    write_pairs(pairs, rows)
    report_path = tmp_path / "report.csv"
    argv = eval_args(tree, report_path)
    techmart = argv.index(f"techmart={EVALFIX / 'techmart.csv'}")
    argv[techmart] = f"{SMITH}={EVALFIX / 'techmart.csv'}"
    argv[argv.index("--pairs") + 1] = pairs
    args = cli.build_parser().parse_args([str(a) for a in argv])
    whole = evaluation.run_comparison(
        cli._load_profiles(args), load_tree(tree), ["weighted", "eq1"], cli._read_pairs(pairs)
    )
    expected = evaluation.report_to_csv(whole)  # csv.writer over every row
    assert expected.count('"Smith, ""Jr""",') == 2
    written = []

    class CountingWriter:
        def __init__(self, *args, **kwargs):
            self.writer = csv_writer(*args, **kwargs)

        def writerows(self, rows):
            rows = list(rows)
            written.append(len(rows))
            self.writer.writerows(rows)

    csv_writer = evaluation.csv.writer
    monkeypatch.setattr(evaluation.csv, "writer", CountingWriter)
    assert run(capsys, *argv)[0] == 0
    assert written == [cli._BLOCK_ROWS]  # the other blocks stay one %-format a row
    assert report_path.read_text(encoding="utf-8") == expected


def test_eval_unencodable_name_in_the_second_block_exits_nonzero_and_spares_out(
    capsys, tmp_path, monkeypatch
):
    # A lone surrogate can come from argv; the report's first block is written before it fails.
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    name = "s\ud800"
    pairs = [("techmart", "Laptop", "Computers")] * (cli._BLOCK_ROWS // 2)
    pairs.append((name, "Laptop", "Computers"))
    monkeypatch.setattr(cli, "_read_pairs", lambda path: pairs)
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    argv = eval_args(tree, report_path) + ["--reviews", f"{name}={EVALFIX / 'techmart.csv'}"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert "surrogates not allowed" in stderr
    assert report_path.read_bytes() == b"old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "weighted.tsv"]


THREE = ("weighted", "eq1", "shared")


def fixture_pairs_in_blocks(capsys, tmp_path, monkeypatch, rows):
    """eval args over 37 fixture pairs in random order, three measures, 7 rows a block.

    7 rows a block is 2 pairs a block: 37 pairs leave a last block of one pair.
    """
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    pairs = tmp_path / "pairs.csv"
    fixture = cli._read_pairs(EVALFIX / "pairs.csv")
    write_pairs(pairs, random.Random(5).choices(fixture, k=37) + rows)
    argv = eval_args(tree, tmp_path / "report.csv", THREE)
    argv[argv.index("--pairs") + 1] = pairs
    args = cli.build_parser().parse_args([str(a) for a in argv])
    return argv, (cli._load_profiles(args), load_tree(tree), list(THREE), cli._read_pairs(pairs))


def test_eval_in_blocks_writes_and_summarizes_what_one_call_does(capsys, tmp_path, monkeypatch):
    argv, inputs = fixture_pairs_in_blocks(capsys, tmp_path, monkeypatch, [])
    whole = evaluation.run_comparison(*inputs)
    assert len(whole.records) % cli._BLOCK_ROWS and len(whole.records) % 6
    run_comparison, format_summary = evaluation.run_comparison, evaluation.format_summary
    blocks, summaries = [], []

    def scored(profiles, tree, measures, pairs, mode):
        assert len(pairs) * len(measures) <= cli._BLOCK_ROWS
        assert [block() for block in blocks] == [None] * len(blocks)  # each earlier one freed
        report = run_comparison(profiles, tree, measures, pairs, mode)
        blocks.append(weakref.ref(report))
        return report

    monkeypatch.setattr(evaluation, "run_comparison", scored)
    monkeypatch.setattr(evaluation, "format_summary",
                        lambda report: summaries.append(report) or format_summary(report))
    code, stdout, stderr = run(capsys, *argv)
    assert code == 0, stderr
    assert len(blocks) == 19
    assert (tmp_path / "report.csv").read_text(encoding="utf-8") == evaluation.report_to_csv(whole)
    (summary,) = summaries
    assert summary.mean_abs_error == whole.mean_abs_error
    assert summary.rate_diff_error_pearson == whole.rate_diff_error_pearson is not None
    assert stdout == format_summary(whole)


def test_eval_pair_failing_in_the_last_block_spares_out_and_leaves_no_temp_file(
    capsys, tmp_path, monkeypatch
):
    bad = ["techmart", "Laptop", "Books"]  # techmart has no Books ratings
    argv, inputs = fixture_pairs_in_blocks(capsys, tmp_path, monkeypatch, [bad])
    with pytest.raises(MissingContextError) as whole:
        evaluation.run_comparison(*inputs)
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    assert run(capsys, *argv) == (1, "", f"contexttrust: {whole.value}\n")
    assert str(whole.value).startswith("pair (techmart, Laptop, Books): ")
    assert report_path.read_bytes() == b"old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv", "report.csv", "weighted.tsv"]


def test_eval_out_in_a_missing_directory_is_reported_before_a_bad_pair(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    pairs = tmp_path / "pairs.csv"
    write_pairs(pairs, [["techmart", "Laptop", "Books"]])
    argv = eval_args(tree, tmp_path / "missing" / "report.csv")
    argv[argv.index("--pairs") + 1] = pairs
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"contexttrust: \[Errno 2\] .*missing/\.report\.csv\.\w+\.tmp'\n", stderr)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["sim", "--measure", "keyword", "a,b", "b,c"], 0),
    (["sim", "--measure", "weighted", "a", "b"], 1),  # no --tree
])
def test_main_leaves_the_collector_as_it_found_it(capsys, enabled, argv, code):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_command_runs_with_the_collector_paused(capsys, monkeypatch):
    seen = []

    def keyword_similarity(a, b):
        seen.append(gc.isenabled())
        return 0.5

    monkeypatch.setattr(similarity, "keyword_similarity", keyword_similarity)
    assert gc.isenabled()
    assert run(capsys, "sim", "--measure", "keyword", "a", "b") == (0, "0.500000\n", "")
    assert seen == [False]
    assert gc.isenabled()


def test_eval_empty_pairs_writes_header_only(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("seller,known,unknown\n", encoding="utf-8")
    report_path = tmp_path / "report.csv"
    argv = eval_args(tree, report_path)
    argv[argv.index("--pairs") + 1] = pairs
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert report_path.read_text(encoding="utf-8").splitlines() == [
        "seller,known,unknown,measure,similarity,predicted,real,"
        "signed_error_pct,abs_error_pct,rate_difference"
    ]
    assert stdout == (
        "measure      mean_abs_error_pct\n"
        "pearson(rate_difference, weighted abs error) = n/a\n"
    )


def test_eval_empty_pairs_still_refuses_a_repeated_measure(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("seller,known,unknown\n", encoding="utf-8")
    report_path = tmp_path / "report.csv"
    report_path.write_bytes(b"old report\n")
    argv = eval_args(tree, report_path, ("weighted", "weighted"))
    argv[argv.index("--pairs") + 1] = pairs
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert "must be distinct" in stderr
    assert report_path.read_bytes() == b"old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv", "report.csv", "weighted.tsv"]


def test_eval_no_eligible_sellers(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    argv = eval_args(tree, report_path)
    argv[argv.index("--min-ratings") + 1] = "500"
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert "no eligible sellers" in stderr
    assert not report_path.exists()


def test_eval_bad_pairs_header(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("a,b\n", encoding="utf-8")
    argv = eval_args(tree, tmp_path / "report.csv")
    argv[argv.index("--pairs") + 1] = pairs
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert f"{pairs}: header must be seller,known,unknown, got a,b" in stderr


def test_read_pairs_refuses_an_empty_file(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(pairs))}: file is empty"):
        cli._read_pairs(pairs)


def test_read_pairs_skips_blank_rows_and_strips_fields(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("seller,known,unknown\n\n s , Laptop ,Books\n\n", encoding="utf-8")
    assert cli._read_pairs(pairs) == [("s", "Laptop", "Books")]


def test_read_pairs_refuses_a_row_with_two_columns(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("seller,known,unknown\ns,Laptop,Books\ns,Laptop\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 3: expected 3 columns"):
        cli._read_pairs(pairs)


@pytest.mark.parametrize("row", [",Laptop,Books", "s, ,Books", "s,Laptop,"])
def test_read_pairs_refuses_a_row_with_a_blank_field(tmp_path, row):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"seller,known,unknown\ns,Laptop,Books\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pairs\.csv: line 3: a field is blank"):
        cli._read_pairs(pairs)


@pytest.mark.parametrize("row, fault", [
    ("s, ,Books", "a field is blank"),
    ("s,Books", "expected 3 columns, got 2"),
])
def test_read_pairs_names_a_fault_after_a_two_line_field_by_the_line_its_row_starts_on(
    tmp_path, row, fault
):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f'seller,known,unknown\ns,"Lap\ntop",Books\n{row}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(pairs))}: line 4: {fault}$"):
        cli._read_pairs(pairs)


def test_read_pairs_keeps_one_string_per_name(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("seller,known,unknown\ns,Laptop,Books\ns ,Books,Laptop\n", encoding="utf-8")
    (s1, laptop1, books1), (s2, books2, laptop2) = cli._read_pairs(pairs)
    assert s1 is s2 and laptop1 is laptop2 and books1 is books2


@pytest.mark.parametrize("field", ["x" * 200_000, "a\0b"], ids=["oversized", "nul"])
def test_read_pairs_refuses_what_csv_cannot_read_by_its_line(tmp_path, field):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"seller,known,unknown\ns,Laptop,Books\ns,{field},Books\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pairs\.csv: line 3: "):
        cli._read_pairs(pairs)


# Both CSV inputs, each with its header and one valid row, read through dataset.csv_rows.
CSV_INPUTS = {
    "reviews": (LOAD_REVIEWS, dataset.REVIEW_HEADER, "Laptop,4,x,y,z"),
    "pairs": (cli._read_pairs, ("seller", "known", "unknown"), "s,Laptop,Books"),
}


@pytest.mark.parametrize("fault", ["empty", "header", "short-row", "spaced-header"])
@pytest.mark.parametrize("read, header, row", CSV_INPUTS.values(), ids=CSV_INPUTS)
def test_both_csv_readers_give_one_fault_one_message(tmp_path, read, header, row, fault):
    names = ",".join(header)
    text, message = {
        "empty": ("", "file is empty, expected header row"),
        "header": ("a,b\n", f"header must be {names}, got a,b"),
        "short-row": (f"{names}\n{row}\nx\n", f"line 3: expected {len(header)} columns, got 1"),
        "spaced-header": (" , ".join(header) + f" \n{row}\n", None),
    }[fault]
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    if message is None:  # a header is compared with its fields stripped
        assert len(read(path)) == 1
        return
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read(path)


# --- input files that are not UTF-8 ----------------------------------------------

# Each input file, and the command that reads it. A 0xff byte is put at the start of the
# file's second line, so the message names the byte by its offset past the first line.
BAD_BYTE_INPUTS = {
    "tree": ("weigh", "store_tree.tsv"),
    "counts-table": ("weigh", "counts.tsv"),
    "provider-config": ("weigh", "provider.json"),
    "pair-cache": ("weigh", "cache.tsv"),
    "reviews": ("eval", "techmart.csv"),
    "pairs": ("eval", "pairs.csv"),
}


@pytest.mark.parametrize("command, name", BAD_BYTE_INPUTS.values(), ids=BAD_BYTE_INPUTS)
def test_an_input_file_that_is_not_utf8_exits_1_naming_it(capsys, tmp_path, command, name):
    inputs = tmp_path / "inputs"
    shutil.copytree(EVALFIX, inputs)
    (inputs / "cache.tsv").write_text("laptop\tportables\t10000\t1000\t1000\t10000000000000\n"
                                      "books\tmedia\t500\t5000\t100\t10000000000000\n",
                                      encoding="utf-8")
    out = tmp_path / "out.txt"
    out.write_text("left alone\n", encoding="utf-8")
    if command == "weigh":
        argv = ["weigh", "--tree", EVALFIX / "store_tree.tsv", "--provider",
                EVALFIX / "provider.json", "--cache", EVALFIX / "cache.tsv", "--out", out]
    else:
        argv = eval_args(weigh_fixture_tree(capsys, tmp_path)[0], out)
    argv = [str(arg).replace(str(EVALFIX), str(inputs)) for arg in argv]
    data = (inputs / name).read_bytes()
    start = data.index(b"\n") + 1
    (inputs / name).write_bytes(data[:start] + b"\xff" + data[start:])
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr == f"contexttrust: {inputs / name}: not UTF-8 at byte {start} (invalid start byte)\n"
    assert "Traceback" not in stderr and stdout == ""
    assert out.read_text(encoding="utf-8") == "left alone\n"


# --- one parser per process ------------------------------------------------------

def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "sim", "--measure", "keyword", "a,b", "b,c")[0] == 0
    assert run(capsys, "sim", "--measure", "task", "0.5,0.5", "0.7,0.1")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_eval_runs_in_one_process_keep_their_own_flags(capsys, tmp_path, monkeypatch):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    loaded = []

    def recording_load_reviews(path, seller=""):
        loaded.append(seller)
        return LOAD_REVIEWS(path, seller=seller)

    monkeypatch.setattr("contexttrust.dataset.load_reviews", recording_load_reviews)
    runs = [
        (("weighted", "eq1", "shared"), "report_shared.csv", "summary_shared.txt"),
        (("weighted", "eq1"), "report.csv", "summary.txt"),
    ]
    for measures, report, summary in runs:
        loaded.clear()
        report_path = tmp_path / report
        code, stdout, stderr = run(capsys, *eval_args(tree, report_path, measures))
        assert code == 0, stderr
        assert report_path.read_bytes() == (EVALFIX / report).read_bytes()
        assert stdout == (EVALFIX / summary).read_text(encoding="utf-8")
        assert loaded == ["techmart", "pageturner", "allgoods"]


def test_a_usage_error_leaves_the_next_call_alone(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    report_path = tmp_path / "report.csv"
    bad = eval_args(tree, tmp_path / "bad.csv", ("weighted", "eq1", "shared", "nonsense"))
    with pytest.raises(SystemExit) as raised:
        main([str(a) for a in ["--no-such-flag", *bad]])
    assert raised.value.code == 2
    with pytest.raises(SystemExit) as raised:
        main([str(a) for a in bad])
    assert raised.value.code == 2
    code, stdout, stderr = run(capsys, *eval_args(tree, report_path))
    assert code == 0, stderr
    assert report_path.read_bytes() == (EVALFIX / "report.csv").read_bytes()
    assert stdout == (EVALFIX / "summary.txt").read_text(encoding="utf-8")
    assert not (tmp_path / "bad.csv").exists()


# --- counts ----------------------------------------------------------------------

def test_counts_prints_tab_separated(capsys):
    code, stdout, _ = run(
        capsys, "counts", "--provider", EVALFIX / "provider.json", "laptop", "portables"
    )
    assert code == 0
    assert stdout.strip() == "10000\t1000\t1000\t10000000000000"


def test_counts_missing_pair(capsys):
    code, _, stderr = run(
        capsys, "counts", "--provider", EVALFIX / "provider.json", "laptop", "zeppelin"
    )
    assert code == 1
    assert "zeppelin" in stderr


def test_counts_bad_config_value_exits_nonzero(capsys, tmp_path):
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "remote", "endpoint": "https://e.test/s?q={query}",
                                  "m": "ten", "extract": {"json_path": "n"}}), encoding="utf-8")
    code, _, stderr = run(capsys, "counts", "--provider", config, "a", "b")
    assert code == 1
    assert stderr.startswith("contexttrust:")
    assert "'m'" in stderr


def test_counts_blank_term_exits_nonzero(capsys, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "d0.txt").write_text("alpha beta", encoding="utf-8")
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "corpus", "directory": "docs"}), encoding="utf-8")
    code, _, stderr = run(capsys, "counts", "--provider", config, "  ", "alpha")
    assert code == 1
    assert stderr.startswith("contexttrust:") and "empty" in stderr


@pytest.mark.parametrize("term", ["a\tb", "a\nb"])
def test_counts_term_with_tab_or_line_break_leaves_the_cache_loadable(capsys, tmp_path, term):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "d0.txt").write_text("alpha beta", encoding="utf-8")
    config = tmp_path / "provider.json"
    config.write_text(json.dumps({"kind": "corpus", "directory": "docs"}), encoding="utf-8")
    cache = tmp_path / "c.tsv"
    code, _, stderr = run(capsys, "counts", "--provider", config, "--cache", cache, term, "c")
    assert code == 1
    assert stderr.startswith("contexttrust:") and "tab or line break" in stderr
    code, stdout, stderr = run(capsys, "counts", "--provider", config, "--cache", cache,
                               "alpha", "beta")
    assert code == 0, stderr
    assert stdout == "1\t1\t1\t1\n"


# --- general ----------------------------------------------------------------------

def test_readme_library_example_runs_on_the_fixture(capsys, monkeypatch):
    readme = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    monkeypatch.chdir(EVALFIX)
    exec(compile(example, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(4.05)


def test_missing_input_file_exits_nonzero(capsys, tmp_path):
    code, _, stderr = run(capsys, "sim", "--tree", tmp_path / "nope.tsv",
                          "--measure", "eq1", "a", "b")
    assert code == 1
    assert stderr.startswith("contexttrust:")


def test_python_dash_m_runs_main():
    result = subprocess.run(
        [sys.executable, "-m", "contexttrust.cli", "counts",
         "--provider", str(EVALFIX / "provider.json"), "portables", "laptop"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "1000\t10000\t1000\t10000000000000\n", ""
    )


def test_importing_the_cli_leaves_urllib_request_unloaded():
    # Only a remote query over the default transport needs urllib.request.
    script = "import sys, contexttrust.cli; print('urllib.request' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "False\n"
