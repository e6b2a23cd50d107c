"""A fixed reference task that gauges how fast the host runs Python right now.

The benchmark's machine is a share of a host whose speed drifts by up to
1.8x over minutes, and every kind of work slows together: file reads, regex
scans and plain interpreter loops alike (bench/README.md, "Bounds and
noise").  A run of 30 s cannot average that out.  So each timed command is
followed by one run of this task, and the end-to-end times are scaled by
``REF_S`` over the task's mean time in the same run: they read as seconds on
the host at the speed the baseline was taken at.

The task does not import the package and its inputs do not depend on the
workload seed, so a change to the program cannot move it.  It mixes the work
the commands do: reading small files and regex-searching them, walking parent
links through dicts, float arithmetic and string formatting.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import gen

# Median time of one task over the runs made while tuning the benchmark, on
# the 2-core machine of the baseline (bench/README.md).
REF_S = 0.44
# Passes over the reference tree; a small tree walked often keeps the task's
# memory out of the commands' peak resident size.
WALKS = 10


class Reference:
    """The reference task's inputs, written once into a work directory."""

    def __init__(self, work: Path):
        rng = random.Random("reference")
        words = gen.make_words(rng, 400, syllables=2)
        self.directory = work / "reference"
        self.directory.mkdir()
        for i in range(80):
            text = " ".join(rng.choices(words, k=300))
            (self.directory / f"doc{i:02d}.txt").write_text(text + "\n", encoding="utf-8")
        self.patterns = [re.compile(rf"(?<!\w){w}(?!\w)", re.IGNORECASE) for w in words[:80]]
        labels = gen.make_words(rng, 5000)
        self.parent = {child: parent for parent, child in gen.random_tree(rng, labels)}
        self.labels = labels

    def run(self) -> float:
        """Run the task once; return its wall time in seconds."""
        start = time.perf_counter()
        files = sorted(self.directory.iterdir())
        hits = 0
        for pattern in self.patterns:
            for path in files:
                hits += pattern.search(path.read_text(encoding="utf-8")) is not None
        written = 0
        for _ in range(WALKS):
            depths = []
            for label in self.labels:
                node, depth = label, 0
                while node in self.parent:
                    node, depth = self.parent[node], depth + 1
                depths.append(depth)
            written += len("".join(f"{label},{1.0 / (1 + d):.6f},{d * 0.5:.3f}\n"
                                 for label, d in zip(self.labels, depths)))
        elapsed = time.perf_counter() - start
        if hits == 0 or written == 0:
            raise AssertionError("the reference task did no work")
        return elapsed
