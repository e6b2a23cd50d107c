import json
import os
import shutil
import stat

import pytest

from helpers import DATA_DIR, chain_tree
from contexttrust import semantic
from contexttrust.cli import main
from contexttrust.ontology import dump_tree, load_tree

EVALFIX = DATA_DIR / "evalfix"
MAKE_PROVIDER = semantic.make_provider


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
    edges = [(p, c) for p, c, _ in load_tree(tree).edge_list()]
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


def test_predict_seller_from_file_stem(capsys, tmp_path):
    tree, _ = weigh_fixture_tree(capsys, tmp_path)
    code, stdout, _ = run(
        capsys, "predict", "--tree", tree,
        "--reviews", EVALFIX / "techmart.csv",
        "techmart", "Laptop", "Laptop",
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "5.000000"


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
    assert "n/a" in stdout


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
    assert "pairs header" in stderr


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


# --- general ----------------------------------------------------------------------

def test_missing_input_file_exits_nonzero(capsys, tmp_path):
    code, _, stderr = run(capsys, "sim", "--tree", tmp_path / "nope.tsv",
                          "--measure", "eq1", "a", "b")
    assert code == 1
    assert stderr.startswith("contexttrust:")
