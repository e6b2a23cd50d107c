"""Command-line interface wiring the library end to end.

Subcommands:
  weigh    weight a tree's edges from co-occurrence counts and write it back out
  sim      print the similarity between two contexts under a chosen measure
  predict  predict a seller's rate in an unknown context from a known one
  eval     score measures over seller/context pairs and write a report CSV
  counts   inspect the hit counts a provider returns for a term pair

All numeric output is printed with 6 decimal places.  On any error the
process exits nonzero without touching the designated output file.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import dataset, evaluation, ontology, semantic, similarity
from .errors import ContextTrustError, DomainError, SchemaError, decode_input
from .similarity import ALL_MEASURES, PathMode, TREE_MEASURES

_PAIRS_HEADER = ("seller", "known", "unknown")
_BLOCK_ROWS = 4096  # report rows eval scores, renders and holds at a time


def _write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    # A unique sibling name: no reader sees a partial file, no other file is clobbered.
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp makes 0600; keep a plain write's mode
            handle.writelines(chunks)
            handle.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def _build_provider(args: argparse.Namespace) -> semantic.CountProvider:
    config = semantic.load_provider_config(args.provider)
    provider = semantic.make_provider(config)
    if args.cache is not None:
        if not args.cache.strip():
            raise DomainError("--cache needs a file path")
        provider = semantic.CachedProvider(provider, semantic.PairCache(args.cache))
    return provider


def _load_profiles(args: argparse.Namespace) -> dict[str, dataset.TrustProfile]:
    reviews_by_seller: dict[str, list[dataset.Review]] = {}
    sources: set[tuple[str, Path]] = set()
    for spec in args.reviews:
        seller, path = spec.split("=", 1) if "=" in spec else (Path(spec).stem, spec)
        seller = seller.strip()  # as _read_pairs strips the names it reads
        if not seller:
            raise DomainError(f"--reviews {spec!r}: the seller name is blank")
        source = (seller, Path(path).resolve())
        if source in sources:  # read twice, every rating would count twice
            raise DomainError(f"--reviews {spec!r}: this file is already read for {seller!r}")
        sources.add(source)
        reviews_by_seller.setdefault(seller, []).extend(dataset.load_reviews(path, seller=seller))
    profiles = dataset.build_profiles(reviews_by_seller)
    return dataset.filter_profiles(profiles, args.min_contexts, args.min_ratings)


def _read_pairs(path: str | Path) -> list[evaluation.Pair]:
    text = decode_input(Path(path).read_bytes(), path, SchemaError)
    shared = {}.setdefault  # one string object per distinct name, kept by every row
    pairs: list[evaluation.Pair] = []
    for number, (seller, known, unknown) in dataset.csv_rows(text, str(path), _PAIRS_HEADER):
        seller, known, unknown = seller.strip(), known.strip(), unknown.strip()
        if not (seller and known and unknown):
            raise SchemaError(f"{path}: line {number}: a field is blank")
        pairs.append((shared(seller, seller), shared(known, known), shared(unknown, unknown)))
    return pairs


def _cmd_weigh(args: argparse.Namespace) -> int:
    tree = ontology.load_tree(args.tree)
    provider = _build_provider(args)
    weighted, annotations = ontology.weigh_tree(tree, provider, epsilon=args.epsilon)
    document = ontology.dump_tree(weighted)
    _write_atomic(args.out, [document])
    for (parent, child), weight in weighted.weights.items():
        print(f"{parent}\t{child}\t{weight:.6f}")
    for note in annotations:
        print(f"note: edge ({note.parent} -> {note.child}) forced to floor: {note.reason}")
    return 0


def _parse_task_vector(text: str) -> similarity.TaskContext:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"task context {text!r} is not a comma-separated number list") from None
    return similarity.TaskContext(values)


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.measure in TREE_MEASURES:
        if args.tree is None:
            raise DomainError(f"--tree is required for measure {args.measure!r}")
        tree = ontology.load_tree(args.tree)
        value = similarity.tree_measure(args.measure, args.mode)(tree, args.a, args.b)
    elif args.measure == "keyword":
        value = similarity.keyword_similarity(
            similarity.KeywordContext(args.a.split(",")),
            similarity.KeywordContext(args.b.split(",")),
        )
    else:  # task
        value = similarity.task_similarity(_parse_task_vector(args.a), _parse_task_vector(args.b))
    print(f"{value:.6f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    tree = ontology.load_tree(args.tree)
    profile = _load_profiles(args).get(args.seller)
    if profile is None:
        raise DomainError(f"no eligible profile for seller {args.seller!r} after filtering")
    rate = evaluation.predict_for_pair(
        profile, tree, args.measure, args.known, args.unknown, args.mode
    )
    print(f"{rate:.6f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    tree = ontology.load_tree(args.tree)
    profiles = _load_profiles(args)
    if not profiles:
        raise DomainError(
            "no eligible sellers: every profile fell below the context/rating thresholds"
        )
    measures = args.measure or ["weighted", "eq1"]
    pairs = _read_pairs(args.pairs)
    step = max(1, _BLOCK_ROWS // len(measures))  # pairs a block
    # The summary's inputs, in row order, gathered from every block's report.
    summary = evaluation.ComparisonReport((), {m: array("d") for m in measures}, array("d"))

    def score(start: int) -> str:
        # A block's report is freed on return, before the next block is scored.
        report = evaluation.run_comparison(
            profiles, tree, measures, pairs[start:start + step], args.mode
        )
        for measure, errors in report.errors.items():
            summary.errors[measure].extend(errors)
        summary.differences.extend(report.differences)
        return evaluation.report_rows(report)

    # At least one block, so that an empty pairs file still has its measures checked.
    blocks = map(score, range(0, max(len(pairs), 1), step))
    _write_atomic(args.out, itertools.chain([evaluation.REPORT_HEADER + "\n"], blocks))
    sys.stdout.write(evaluation.format_summary(summary))
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    provider = _build_provider(args)
    counts = provider.counts(args.x, args.y)
    print(f"{counts.fx}\t{counts.fy}\t{counts.fxy}\t{counts.m}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Sharing it is safe: argparse keeps parse state in the returned Namespace, not in
    the parser, so one call's flags never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="contexttrust",
        description="Weighted ontology trees, context similarity, and trust prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once.
    provider_flags = argparse.ArgumentParser(add_help=False)
    provider_flags.add_argument("--provider", required=True, help="provider config (JSON)")
    provider_flags.add_argument("--cache", help="pair-counts cache file (TSV)")
    mode_flags = argparse.ArgumentParser(add_help=False)
    mode_flags.add_argument("--mode", choices=[m.value for m in PathMode], default="product")
    profile_flags = argparse.ArgumentParser(add_help=False)
    profile_flags.add_argument("--tree", required=True, help="tree document")
    profile_flags.add_argument("--reviews", action="append", required=True,
                               metavar="[SELLER=]PATH",
                               help="review CSV; seller defaults to the file stem")
    profile_flags.add_argument("--min-contexts", type=int, default=1,
                               help="drop sellers with fewer surviving contexts (default 1)")
    profile_flags.add_argument("--min-ratings", type=int, default=1,
                               help="drop contexts with fewer reviews (default 1)")

    p_weigh = sub.add_parser("weigh", parents=[provider_flags],
                             help="weight a tree's edges from co-occurrence counts")
    p_weigh.add_argument("--tree", required=True, help="tree document to weight")
    p_weigh.add_argument("--epsilon", type=float, default=semantic.DEFAULT_EPSILON,
                         help="weight floor for degenerate similarities (default 0.01)")
    p_weigh.add_argument("--out", required=True, help="where to write the weighted tree")
    p_weigh.set_defaults(func=_cmd_weigh)

    p_sim = sub.add_parser("sim", parents=[mode_flags], help="similarity between two contexts")
    p_sim.add_argument("--tree", help="tree document (tree measures only)")
    p_sim.add_argument("--measure", choices=ALL_MEASURES, default="weighted")
    p_sim.add_argument("a", help="node id, keyword list, or attribute vector")
    p_sim.add_argument("b", help="node id, keyword list, or attribute vector")
    p_sim.set_defaults(func=_cmd_sim)

    p_predict = sub.add_parser("predict", parents=[profile_flags, mode_flags],
                               help="predict a rate for an unknown context")
    p_predict.add_argument("--measure", choices=TREE_MEASURES, default="weighted")
    p_predict.add_argument("seller")
    p_predict.add_argument("known")
    p_predict.add_argument("unknown")
    p_predict.set_defaults(func=_cmd_predict)

    p_eval = sub.add_parser("eval", parents=[profile_flags, mode_flags],
                            help="compare measures over seller/context pairs")
    p_eval.add_argument("--pairs", required=True, help="CSV of seller,known,unknown")
    p_eval.add_argument("--measure", action="append", choices=TREE_MEASURES,
                        help="repeatable; default: weighted and eq1")
    p_eval.add_argument("--out", required=True, help="where to write the report CSV")
    p_eval.set_defaults(func=_cmd_eval)

    p_counts = sub.add_parser("counts", parents=[provider_flags],
                              help="inspect hit counts for a term pair")
    p_counts.add_argument("x")
    p_counts.add_argument("y")
    p_counts.set_defaults(func=_cmd_counts)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # A command frees what it builds by reference counting; collector passes over its
    # many live rows would find no cycle to free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ContextTrustError, OSError, UnicodeEncodeError) as exc:
        print(f"contexttrust: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
