"""Spans and counters recorded by the benchmark around its calls into the
library, and the per-layer metrics derived from them.

A span is [name, start, end, parent index, group id]. Spans of one feature
cell or one oracle DAG share a group id. Spans stay in memory until the
run writes them out. A layer's time is the self time of its spans: the
duration minus the part covered by child spans. Library calls have no
child spans, so their self time is their duration; what remains of the
benchmark's own spans (job, cell, DAG) is reported as bench.self_s.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# Span names of library calls; each gives a per-layer metric "<name>_s".
LAYER_SPANS = (
    "ingest.parse",
    "ingest.write",
    "quiver.khop",
    "quiver.induced",
    "quiver.nchains",
    "quiver.acyclic",
    "fas.berger_shor",
    "homology.boundary1",
    "homology.chain_complex",
    "homology.dim_h1",
    "linalg.rank",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()

    def open(self, name: str, parent: int | None, group: int) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, group])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    def call(self, name: str, parent: int, group: int, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append([name, start, perf_counter(), parent, group])
        return out

    def rank(self, parent: int, group: int, matrix) -> int:
        self.counts["linalg.rank_calls"] += 1
        self.counts["linalg.rank_entries"] += matrix.rows * matrix.cols
        return self.call("linalg.rank", parent, group, matrix.rank)

    def count_boundary(self, matrix) -> None:
        self.counts["homology.boundary_entries"] += len(matrix.entries)
        self.counts["homology.boundary_nonzero"] += (
            len(matrix.entries) - matrix.entries.count(0))

    def count_fas(self, before, kept) -> None:
        """Counters for one berger_shor call: input quiver, kept quiver."""
        self.counts["fas.calls"] += 1
        self.counts["fas.feedback_arcs"] += before.arrow_count - kept.arrow_count
        self.counts["fas.kept_arcs"] += kept.arrow_count
        self.counts["fas.nonloop_arcs"] += sum(1 for s, t in before.quiver.arrows if s != t)

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this trace, by name, as (value, unit)."""
        own = self.self_times()
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_SPANS:
            out[f"{name}_s"] = (own[name], "s")
        out["bench.self_s"] = (
            sum(v for k, v in own.items() if k.startswith("bench.")), "s")
        out["linalg.rank_max_s"] = (max(
            (e - s for n, s, e, _, _ in self.spans if n == "linalg.rank"), default=0.0), "s")
        for name in ("ingest.bytes_in", "ingest.bytes_out"):
            out[name] = (c[name], "B")
        for name in ("quiver.hood_vertices", "quiver.hood_arrows", "quiver.chains",
                     "fas.calls", "fas.feedback_arcs", "homology.boundary_entries",
                     "linalg.rank_calls", "linalg.rank_entries",
                     "features.cells", "features.h1_sum"):
            out[name] = (c[name], "count")
        out["quiver.induced_ns_per_arrow"] = (
            _ratio(own["quiver.induced"] * 1e9, c["quiver.hood_arrows"]), "ns")
        out["fas.kept_ratio"] = (_ratio(c["fas.kept_arcs"], c["fas.nonloop_arcs"]), "ratio")
        out["homology.boundary_nonzero_ratio"] = (
            _ratio(c["homology.boundary_nonzero"], c["homology.boundary_entries"]), "ratio")
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, group in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "id": group}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
