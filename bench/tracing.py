"""Spans around the package's public layer calls, for the traced run only.

While a ``Tracer`` is entered it replaces attributes of the contexttrust
modules with timing wrappers, and it restores them on exit; nothing in the
package changes.  A wrapper is installed where the caller looks the name up,
so ``path_between`` is wrapped in both ``ontology`` and ``similarity`` and
``predict_for_pair`` in ``evaluation``.  Spans stay in memory as
``(name, start, end, parent index, request id)`` tuples until the run ends.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from typing import Callable


def read_io() -> tuple[int, int, int]:
    """(rchar, wchar, size of this read) of this process, from /proc/self/io.

    The read itself is counted in rchar after it returns, so a delta taken
    around a call subtracts the size of the first read.
    """
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        data = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(": ") for line in data.decode().splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(data)


class Tracer:
    """Records the spans and counts of one traced command."""

    def __init__(self, request: int):
        self.request = request
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []

    def span(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrap fn in a span; ``count(result)`` may add to the counters."""
        spans, stack, perf_counter = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if count is not None:
                count(result)
            return result

        return traced

    def _add(self, key: str, amount: Callable) -> Callable:
        def count(result):
            self.counts[key] += amount(result)
        return count

    def __enter__(self) -> "Tracer":
        from contexttrust import cli, dataset, evaluation, ontology, semantic, similarity

        span, add = self.span, self._add
        path = span("ontology.path_between", ontology.path_between,
                    add("path_edges", lambda p: len(p.edges)))
        patches = [
            (cli, "main", span("cli.main", cli.main)),
            (cli, "_read_pairs", span("cli.read_pairs", cli._read_pairs)),
            (cli, "_write_atomic", span("cli.write_atomic", cli._write_atomic)),
            (ontology, "load_tree", span("ontology.load_tree", ontology.load_tree)),
            (ontology, "weigh_tree", span("ontology.weigh_tree", ontology.weigh_tree)),
            (ontology, "dump_tree", span("ontology.dump_tree", ontology.dump_tree)),
            (ontology, "path_between", path),
            (similarity, "path_between", path),
            (similarity, "weighted_path_similarity",
             span("similarity.weighted", similarity.weighted_path_similarity)),
            (similarity, "inverse_distance_similarity",
             span("similarity.eq1", similarity.inverse_distance_similarity)),
            (similarity, "shared_path_ratio",
             span("similarity.shared", similarity.shared_path_ratio)),
            (evaluation, "predict_for_pair",
             span("trust.predict_for_pair", evaluation.predict_for_pair)),
            (dataset, "parse_reviews",
             span("dataset.parse_reviews", dataset.parse_reviews, add("reviews", len))),
            (dataset, "build_profiles", span("dataset.build_profiles", dataset.build_profiles)),
            (dataset, "filter_profiles", span("dataset.filter_profiles", dataset.filter_profiles)),
            (evaluation, "run_comparison", span("evaluation.run_comparison",
             evaluation.run_comparison, add("rows", lambda r: len(r.records)))),
            (evaluation, "report_to_csv", span("evaluation.report_to_csv", evaluation.report_to_csv)),
            (evaluation, "format_summary",
             span("evaluation.format_summary", evaluation.format_summary)),
            (semantic, "make_provider", self._make_provider(semantic)),
            (semantic, "PairCache", self._pair_cache(semantic.PairCache)),
        ]
        for module, name, wrapper in patches:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _make_provider(self, semantic) -> Callable:
        """A make_provider that counts remote queries and wraps the provider's counts."""
        original, tracer = semantic.make_provider, self

        def counting_transport(url: str) -> str:
            tracer.counts["queries"] += 1
            try:
                return semantic._default_transport(url)
            except Exception:
                tracer.counts["retries"] += 1
                raise

        class TracedProvider(semantic.CountProvider):
            def __init__(self, inner):
                self.counts_span = tracer.span("semantic.counts", inner.counts)

            def counts(self, x, y):
                rchar, _, own = read_io()
                try:
                    return self.counts_span(x, y)
                finally:
                    tracer.counts["bytes_read"] += read_io()[0] - rchar - own

        def make_provider(config, transport=None):
            if config.kind == "remote":
                transport = tracer.span("semantic.transport", counting_transport)
            return TracedProvider(original(config, transport))

        return make_provider

    def _pair_cache(self, base: type) -> type:
        tracer = self

        class TracedPairCache(base):
            def __init__(self, path=None):
                tracer.span("semantic.cache.load", super().__init__)(path)

            def get(self, x, y):
                hit = tracer.span("semantic.cache.get", super().get)(x, y)
                tracer.counts["hits" if hit is not None else "misses"] += 1
                return hit

            def put(self, x, y, counts):
                _, wchar, _ = read_io()
                tracer.span("semantic.cache.put", super().put)(x, y, counts)
                tracer.counts["bytes_written"] += read_io()[1] - wchar

        return TracedPairCache

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this command, from its spans and counts."""
        total: dict[str, float] = defaultdict(float)
        children: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[self.spans[parent][0]] += end - start

        def own(name: str) -> float:
            return total[name] - children[name]

        c = self.counts
        lookups = c["hits"] + c["misses"]
        return {
            "semantic.counts_calls": calls["semantic.counts"],
            "semantic.counts_s": total["semantic.counts"],
            "semantic.bytes_read": c["bytes_read"],
            "semantic.remote.queries": c["queries"],
            "semantic.remote.retries": c["retries"],
            "semantic.remote.transport_s": total["semantic.transport"],
            "semantic.remote.wait_s": own("semantic.counts") if c["queries"] else 0.0,
            "semantic.cache.load_s": total["semantic.cache.load"],
            "semantic.cache.hits": c["hits"],
            "semantic.cache.misses": c["misses"],
            "semantic.cache.hit_ratio": c["hits"] / lookups if lookups else 0.0,
            "semantic.cache.put_s": total["semantic.cache.put"],
            "semantic.cache.bytes_written": c["bytes_written"],
            "ontology.load_tree_s": total["ontology.load_tree"],
            "ontology.weigh_tree_self_s": own("ontology.weigh_tree"),
            "ontology.dump_tree_s": total["ontology.dump_tree"],
            "ontology.path_between_s": total["ontology.path_between"],
            "ontology.path_calls": calls["ontology.path_between"],
            "ontology.path_len_mean": (
                c["path_edges"] / calls["ontology.path_between"]
                if calls["ontology.path_between"] else 0.0
            ),
            "similarity.weighted_s": own("similarity.weighted"),
            "similarity.eq1_s": own("similarity.eq1"),
            "similarity.shared_s": own("similarity.shared"),
            "similarity.calls": sum(
                calls[f"similarity.{m}"] for m in ("weighted", "eq1", "shared")
            ),
            "trust.predict_for_pair_self_s": own("trust.predict_for_pair"),
            "dataset.parse_reviews_s": total["dataset.parse_reviews"],
            "dataset.reviews": c["reviews"],
            "dataset.build_profiles_s": total["dataset.build_profiles"],
            "dataset.filter_profiles_s": total["dataset.filter_profiles"],
            "evaluation.run_comparison_self_s": own("evaluation.run_comparison"),
            "evaluation.report_to_csv_s": total["evaluation.report_to_csv"],
            "evaluation.format_summary_s": total["evaluation.format_summary"],
            "evaluation.rows": c["rows"],
            "cli.read_pairs_s": total["cli.read_pairs"],
            "cli.write_atomic_s": total["cli.write_atomic"],
            "cli.self_s": own("cli.main"),
        }
