"""Seeded benchmark of the contexttrust ``weigh`` and ``eval`` commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's inputs
from the seed, sets up (input generation plus one warm-up command, repeated
and the median taken), then runs the command through ``cli.main`` in this
process, one at a time, for S seconds: a closed loop with one client.  Every
output is checked against an oracle that does not use the package.  A fixed
reference task runs after each untraced command and gauges the host's speed;
the end-to-end times are scaled by it (reference.py).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced commands and reports the per-layer metrics
from the traced ones (see tracing.py).  Metric names, units and directions come
from BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the same
numbers for people, and failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import endpoint
import gen
import oracle
import tracing
from reference import REF_S, Reference

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

# Sizes chosen so that one command takes 1-2 s on a 2-core machine, which
# gives 15-30 samples per run.  A 300-node x 2000-document corpus (about 32 s
# per command) is too slow to repeat and is not a workload.
WORKLOADS = {
    # Corpus scanning does nearly all the work: each edge reads every document.
    "weigh-corpus": {"nodes": 150, "docs": 300},
    # Remote lookups beside a half-full pair cache, retries and rate limiting.
    "weigh-remote": {"nodes": 400, "docs": 1600, "cached_share": 0.5,
                     "interval_ms": 1, "fail_every": 20},
    # No count lookups: path queries, similarity, prediction, ingestion, report.
    "eval-large": {"nodes": 3000, "sellers": 50, "reviews": 400, "pairs": 20000},
}
EVAL_MEASURES = ("weighted", "eq1", "shared")
MIN_CONTEXTS, MIN_RATINGS = 2, 5
SETUP_REPEATS = 3
MIN_SAMPLES = 3


class Weigh:
    """The weigh command over a corpus or a remote provider."""

    def __init__(self, name: str, seed: int, params: dict):
        self.name, self.seed, self.params = name, seed, params
        self.remote = name == "weigh-remote"
        self.endpoint = None
        self.queries = 0

    def generate(self, work: Path) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        p = self.params
        if self.remote:
            self.inputs = gen.weigh_remote(rng, work, p["nodes"], p["docs"], p["cached_share"])
        else:
            self.inputs = gen.weigh_corpus(rng, work, p["nodes"], p["docs"])
        self.work = work
        self.items = len(self.inputs.edges)

        def counts(x, y):
            return (*gen.pair_counts(self.inputs, x, y), self.inputs.m)

        self.weights, self.notes = oracle.expected_weights(self.inputs.edges, counts)

    def start(self) -> None:
        """Start the endpoint (once, untimed) and point the provider config at it."""
        if self.remote:
            if self.endpoint is None:
                self.endpoint = endpoint.Endpoint(
                    self.work / "index.json", self.seed, self.params["fail_every"]
                )
            gen.write_remote_config(
                self.work, self.endpoint.url, self.inputs.m, self.params["interval_ms"]
            )

    def argv(self) -> list[str]:
        args = ["weigh", "--tree", str(self.inputs.tree),
                "--provider", str(self.work / "provider.json"),
                "--out", str(self.work / "weighted.tsv")]
        if self.remote:
            args += ["--cache", str(self.work / "run-cache.tsv")]
        return args

    def before(self) -> None:
        (self.work / "weighted.tsv").unlink(missing_ok=True)
        if self.remote:
            shutil.copyfile(self.work / "cache.tsv", self.work / "run-cache.tsv")
            self.endpoint.reset()

    def check(self, stdout: str) -> list[str]:
        """Problems with the last command's output; also reads the endpoint's request count."""
        if self.remote:
            self.queries = self.endpoint.stats()["requests"]
        return oracle.check_weigh(self.work / "weighted.tsv", stdout, self.weights, self.notes)

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()


class Eval:
    """The eval command with three measures over a large pre-weighted tree."""

    def __init__(self, name: str, seed: int, params: dict):
        self.name, self.seed, self.params = name, seed, params
        self.queries = 0

    def generate(self, work: Path) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        p = self.params
        self.inputs = gen.eval_large(rng, work, p["nodes"], p["sellers"], p["reviews"], p["pairs"])
        self.work = work
        i = self.inputs
        self.items, self.mae = oracle.expected_eval(
            i.parents, i.weights, i.rates, i.pairs, EVAL_MEASURES, MIN_CONTEXTS, MIN_RATINGS
        )

    def start(self) -> None:
        pass

    def argv(self) -> list[str]:
        args = ["eval", "--tree", str(self.inputs.tree), "--pairs", str(self.inputs.pairs_file),
                "--min-contexts", str(MIN_CONTEXTS), "--min-ratings", str(MIN_RATINGS),
                "--out", str(self.work / "report.csv")]
        for seller, path in self.inputs.reviews:
            args += ["--reviews", f"{seller}={path}"]
        for measure in EVAL_MEASURES:
            args += ["--measure", measure]
        return args

    def before(self) -> None:
        (self.work / "report.csv").unlink(missing_ok=True)

    def check(self, stdout: str) -> list[str]:
        return oracle.check_eval(self.work / "report.csv", stdout, self.items, self.mae)

    def close(self) -> None:
        pass


class Runner:
    """Runs commands one at a time and counts the ones that fail."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def command(self, tracer=None) -> float:
        from contexttrust import cli

        w = self.workload
        w.before()
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(w.argv())
                else:
                    with tracer:
                        code = cli.main(w.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception:
            err.write(traceback.format_exc())
            code = "exception"
        wall = time.perf_counter() - start
        self.attempted += 1
        problems = [f"exit code {code}: {err.getvalue().strip()}"] if code not in (0, None) else []
        problems = problems or w.check(out.getvalue())
        if problems:
            self.failed += 1
            print(f"FAILED {w.name} command {self.attempted}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
        return wall


def setup(workload, runner: Runner, work: Path, repeats: int, ref: Reference):
    """Median over repeats of input generation plus one warm-up command.

    Returns the median and the reference task's times, one run after each
    repeat.
    """
    times, refs = [], []
    for rep in range(repeats):
        rep_dir = work / f"rep{rep}"
        rep_dir.mkdir()
        start = time.perf_counter()
        workload.generate(rep_dir)
        generated = time.perf_counter() - start
        workload.start()  # the endpoint's start-up stays out of the set-up time
        times.append(generated + runner.command())
        refs.append(ref.run())
    return statistics.median(times), refs


def measure(workload, runner: Runner, seconds: float, traced: bool, ref: Reference):
    """Commands for the given seconds, alternating untraced and traced ones if asked.

    Each untraced command is followed by one run of the reference task.
    Returns the untraced and traced wall times, the reference task's times,
    the layer metrics of each traced command, the upstream queries of each
    untraced one, and the tracer of the first traced command (the only one
    whose spans are kept).
    """
    untraced, traced_walls, refs, layers, queries = [], [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_SAMPLES
           or (traced and len(traced_walls) < MIN_SAMPLES)):
        untraced.append(runner.command())
        queries.append(workload.queries)
        refs.append(ref.run())
        if traced:
            tracer = tracing.Tracer(request=runner.attempted + 1)
            traced_walls.append(runner.command(tracer))
            layers.append(tracer.layer_metrics())
            first = first or tracer
    return untraced, traced_walls, refs, layers, queries, first


def write_spans(path: Path, tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, request in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "contexttrust").is_dir():
        print(f"bench: no package source at {ROOT / 'src' / 'contexttrust'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The endpoint is on loopback; never send its requests through a proxy.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    # One CPU for this process and the endpoint it starts, so that the
    # reference task gauges the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    params = WORKLOADS[args.workload]
    kind = Eval if args.workload == "eval-large" else Weigh
    workload = kind(args.workload, args.seed, params)
    runner = Runner(workload)
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        ref = Reference(work)
        setup_raw, setup_refs = setup(workload, runner, work, 1 if args.trace else SETUP_REPEATS, ref)
        untraced, traced, refs, layers, queries, first = measure(
            workload, runner, args.seconds, bool(args.trace), ref
        )
        if first is not None:
            write_spans(WORK_ROOT / f"trace-{args.workload}.jsonl", first)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    # Means, not medians: the host's speed drifts, and a run's median jumps
    # with whichever phase held more of it, while the mean moves with their
    # mix.  The times are scaled to the host's speed at the baseline, as
    # gauged by the reference task run beside them (reference.py).  The
    # provider's rate-limit waits, one interval before each query, last as
    # long on a slow host as on a fast one, so they are left out of the scaling.
    raw_wall = statistics.fmean(untraced)
    host_slowdown = statistics.fmean(refs) / REF_S
    waits = statistics.fmean(queries) * params.get("interval_ms", 0) / 1000
    wall = waits + (raw_wall - waits) / host_slowdown
    setup_slowdown = statistics.fmean(setup_refs) / REF_S
    values = {
        "setup_s": waits + (setup_raw - waits) / setup_slowdown,
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries_per_edge": statistics.median(queries) / workload.items,
    }
    if layers:
        for name in layers[0]:
            values[name] = statistics.median(m[name] for m in layers)
        values["trace.overhead_s"] = statistics.fmean(traced) - raw_wall

    item = "edges" if isinstance(workload, Weigh) else "rows"
    print(f"{args.workload} seed {args.seed}: {workload.items} {item} per command, "
          f"{len(untraced)} untraced and {len(traced)} traced commands, "
          f"ops_failed_ratio {runner.failed / runner.attempted:.4f} "
          f"({runner.failed}/{runner.attempted}), "
          f"queries_per_edge {values['queries_per_edge']:.6f}")
    print(f"  unscaled: set-up {setup_raw:.4f} s, wall {raw_wall:.4f} s, of which "
          f"rate-limit waits {waits:.4f} s; host slowdown {host_slowdown:.4f} "
          f"(reference task {statistics.fmean(refs):.4f} s against {REF_S} s at the baseline)")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:<36} {values[name]:>14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
