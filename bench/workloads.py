"""The four benchmark workloads: seeded inputs, the CLI job, the output
gate and the traced recomposition of the job from public library calls.

Every workload writes its inputs to files before anything is timed, so
the program under test only ever sees files. A workload object exposes:

* ``generate(seed, scale, workdir)`` writes the inputs (outside timing)
  and sets ``paths``, ``sizes``, ``ops`` (operations per job: feature
  cells, oracle DAGs or one FAS job) and ``items`` (cells, chains or arcs);
* ``load_inputs(load_weighted_edges)`` is the set-up work timed by setup_s;
* ``run_job(cli_main)`` runs the CLI job once, untraced;
* ``check(job, lib)`` is the output gate: (failed operations, reasons);
* ``traced_job(lib, tracer)`` recomposes the job from public calls with
  one span per call, returning output comparable with ``run_job``'s;
* ``diff_ops(a, b)`` counts the operations whose outputs differ.

The gate uses references that do not go through the library's linear
algebra: a breadth-first search, Kahn's algorithm, a path-counting
recurrence and the gain-graph formula dim H1 = M - N + b (Zaslavsky), with
b the number of balanced components.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from time import perf_counter

from tracing import Tracer

# The seed every workload uses when none is given. The feature workloads
# pin the SHA-256 of their CSV output for this seed at full scale.
DEFAULT_SEED = 1

FEATURE_DIGESTS = {
    "feat-shallow": "8ed6338fc4b2981acc61a90cd607f6889936404324e89b52833f814bdaaafb62",
    "feat-deep": "7a2ad03cdd653b3db7af006a7e082b973bfb814fa864a2451f24e9c816ef3f0a",
}

_MASK64 = (1 << 64) - 1


def call_cli(cli_main, argv: list[str]) -> tuple[int, str, float]:
    """Run the quivhom CLI in-process; return (exit code, stdout, seconds).

    A rejected argument list or an uncaught exception is a failed call,
    which the gate counts, not a crash of the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - reported, then counted as a failure
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue(), perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Job:
    """One run of a workload's CLI job: its wall time, the time of each CLI
    call in it, and each call's exit code and output bytes."""

    seconds: float
    call_seconds: list[float]
    outputs: list[bytes]
    exit_codes: list[int]

    def digest(self) -> str:
        h = hashlib.sha256()
        for rc, out in zip(self.exit_codes, self.outputs):
            h.update(f"{rc}:{len(out)}:".encode())
            h.update(out)
        return h.hexdigest()


# ---------------------------------------------------------------- generators

def small_weight(rng: random.Random, span: int = 9) -> Fraction:
    """Nonzero rational with numerator in [-span, span], denominator in [1, span]."""
    num = rng.choice([x for x in range(-span, span + 1) if x != 0])
    return Fraction(num, rng.randint(1, span))


def large_weight(rng: random.Random) -> Fraction:
    """Nonzero signed 64-bit numerator over a nonzero unsigned 64-bit denominator."""
    num = 0
    while num == 0:
        num = rng.randint(-(1 << 63), (1 << 63) - 1)
    return Fraction(num, rng.randint(1, _MASK64))


def oracle_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def random_digraph(rng, n, m, weight, self_loops):
    arcs = []
    while len(arcs) < m:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t and not self_loops:
            continue
        arcs.append((str(s), str(t), weight(rng)))
    return arcs


def random_dag(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """m = round(1.6 n) distinct arcs, forward along a hidden vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(order[i], order[j]) for i, j in rng.sample(pairs, round(1.6 * n))]


def write_edges(path: str, arcs) -> int:
    text = "".join(f"{s},{t},{w}\n" for s, t, w in arcs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return len(text.encode())


# ---------------------------------------------------------------- references

def first_seen_ids(arcs) -> list[str]:
    """Vertex ids in first-seen order, as the edge-list parser numbers them."""
    seen: dict[str, None] = {}
    for s, t, _ in arcs:
        seen.setdefault(s, None)
        seen.setdefault(t, None)
    return list(seen)


def khop(adj: list[list[int]], v: int, k: int) -> set[int]:
    seen, frontier = {v}, [v]
    for _ in range(k):
        nxt = []
        for u in frontier:
            for t in adj[u]:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def topological_order(n: int, arcs) -> list[int]:
    """Kahn's algorithm on (source, target) index pairs; the order covers
    all n vertices exactly when the arcs are acyclic."""
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for s, t in arcs:
        out[s].append(t)
        indeg[t] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for t in out[u]:
            indeg[t] -= 1
            if indeg[t] == 0:
                stack.append(t)
    return order


def is_acyclic(n: int, arcs) -> bool:
    return len(topological_order(n, arcs)) == n


def gain_graph_h1(n: int, arcs, weights) -> int:
    """dim H1 = M - N + b for an acyclic weighted quiver.

    The column of arrow s->t is -e_s + w e_t, so a left-kernel vector y
    satisfies y_s = w y_t on every arrow. Each weakly connected component
    carries a one-dimensional solution space when its gains are consistent
    (balanced) and none otherwise; b counts the balanced components with a
    union-find that stores y_v / y_root exactly.
    """
    parent = list(range(n))
    ratio = [Fraction(1)] * n  # y_v / y_parent
    balanced = [True] * n

    def find(v: int) -> tuple[int, Fraction]:
        r, acc = v, Fraction(1)
        while parent[r] != r:
            acc *= ratio[r]
            r = parent[r]
        return r, acc

    for (s, t), w in zip(arcs, weights):
        rs, ps = find(s)
        rt, pt = find(t)
        if rs == rt:
            if ps != w * pt:
                balanced[rs] = False
            continue
        # y_s = w y_t with y_s = ps y_rs and y_t = pt y_rt
        parent[rs] = rt
        ratio[rs] = w * pt / ps
        balanced[rt] = balanced[rt] and balanced[rs]
    b = sum(1 for v in range(n) if parent[v] == v and balanced[v])
    return len(arcs) - n + b


def chain_counts(n: int, arcs, n_max: int = 3) -> list[int]:
    """Nondegenerate chains of the free category by degree 0..n_max.

    A degree-d chain is a path of length L cut at d - 1 of its L - 1
    interior vertices, so chains_d = sum over paths of C(L - 1, d - 1).
    """
    out: list[list[int]] = [[] for _ in range(n)]
    for s, t in arcs:
        out[s].append(t)
    by_len: list[dict[int, int]] = [{} for _ in range(n)]  # paths from v by length
    for v in reversed(topological_order(n, arcs)):
        d: dict[int, int] = {}
        for t in out[v]:
            d[1] = d.get(1, 0) + 1
            for length, c in by_len[t].items():
                d[length + 1] = d.get(length + 1, 0) + c
        by_len[v] = d
    counts = [n] + [0] * n_max
    for d in by_len:
        for length, c in d.items():
            for deg in range(1, n_max + 1):
                counts[deg] += c * comb(length - 1, deg - 1)
    return counts


def _index_graph(arcs):
    """(vertex count, index arcs, weights) in first-seen order."""
    ids = first_seen_ids(arcs)
    index = {v: i for i, v in enumerate(ids)}
    return len(ids), [(index[s], index[t]) for s, t, _ in arcs], [w for *_, w in arcs]


# ---------------------------------------------------------------- workloads

class FeatureWorkload:
    """`quivhom features EDGES -H hops -o OUT` on one random digraph
    without self-loops."""

    item = op = "cell"
    sample_cells = 12
    sample_tries = 400
    sample_max_arrows = 10

    def __init__(self, name, why, vertices, arrows_per_vertex, hops, weight):
        self.name, self.why = name, why
        self.vertices, self.arrows_per_vertex = vertices, arrows_per_vertex
        self.hops, self.weight = hops, weight

    def generate(self, seed: int, scale: float, workdir: str) -> None:
        rng = random.Random(seed)
        n = max(8, round(self.vertices * scale))
        arcs = random_digraph(rng, n, self.arrows_per_vertex * n, self.weight, False)
        self.paths = [os.path.join(workdir, f"{self.name}.csv")]
        nbytes = write_edges(self.paths[0], arcs)
        self.out_path = os.path.join(workdir, f"{self.name}.out.csv")
        self.ids = first_seen_ids(arcs)
        self.n, index_arcs, _ = _index_graph(arcs)
        self.ops = self.items = self.n * self.hops
        self.pinned = FEATURE_DIGESTS[self.name] if (seed, scale) == (DEFAULT_SEED, 1.0) else ""
        self.sample = self._pick_sample(rng, index_arcs)
        self.sizes = {"N": self.n, "M": len(arcs), "H": self.hops, "arrows": len(arcs),
                      "cells": self.ops, "input_bytes": nbytes}

    def _pick_sample(self, rng, index_arcs):
        """A seeded sample of cells whose neighbourhood has at most a few
        arrows, so the brute-force oracle stays cheap: (v, k, hood, arrows)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for s, t in index_arcs:
            adj[s].append(t)
        picked = []
        for _ in range(self.sample_tries):
            v, k = rng.randrange(self.n), rng.randint(1, self.hops)
            hood = khop(adj, v, k)
            inner = sum(1 for u in hood for t in adj[u] if t in hood)
            if inner <= self.sample_max_arrows:
                picked.append((v, k, hood, inner))
                if len(picked) == self.sample_cells:
                    break
        return picked

    def load_inputs(self, load_weighted_edges):
        return load_weighted_edges(self.paths[0])

    def run_job(self, cli_main) -> Job:
        rc, _, seconds = call_cli(
            cli_main, ["features", self.paths[0], "-H", str(self.hops), "-o", self.out_path])
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        return Job(seconds, [seconds], [out], [rc])

    def _rows(self, job: Job) -> list[list[int] | None] | None:
        """Rows of the output CSV in vertex order, None for a malformed row;
        None overall when the exit code, header or row count is wrong."""
        if job.exit_codes[0] != 0:
            return None
        lines = job.outputs[0].decode("utf-8", "replace").split("\n")
        header = "vertex," + ",".join(f"h{k}" for k in range(1, self.hops + 1))
        if lines[-1] != "" or len(lines) != self.n + 2 or lines[0] != header:
            return None
        rows: list[list[int] | None] = []
        for vid, line in zip(self.ids, lines[1:-1]):
            fields = line.split(",")
            ok = fields[0] == vid and len(fields) == self.hops + 1
            ok = ok and all(f.isdigit() for f in fields[1:])
            rows.append([int(f) for f in fields[1:]] if ok else None)
        return rows

    def check(self, job: Job, lib) -> tuple[int, list[str]]:
        rows = self._rows(job)
        if rows is None:
            return self.ops, [f"exit code {job.exit_codes[0]}, or malformed CSV"]
        if self.pinned and sha256(job.outputs[0]) != self.pinned:
            return self.ops, ["output differs from the pinned SHA-256"]
        bad_rows = sum(r is None for r in rows)
        failed = bad_rows * self.hops
        problems = [f"{bad_rows} malformed rows"] if bad_rows else []
        wq, _ = self.load_inputs(lib.load_weighted_edges)
        for v, k, hood, inner in self.sample:
            if rows[v] is None:
                continue
            reason = self._cell_reason(lib, wq, v, k, hood, inner, rows[v][k - 1])
            if reason:
                failed += 1
                problems.append(f"cell ({self.ids[v]}, {k}): {reason}")
        return failed, problems

    @staticmethod
    def _cell_reason(lib, wq, v, k, hood, inner, value) -> str:
        """Re-derive one cell: the hood against a breadth-first search, the
        DAG against the FAS guarantees, dim H1 against the brute-force chain
        complex and the gain-graph formula."""
        if set(lib.k_hop_vertices(wq.quiver, v, k)) != hood:
            return "k-hop set differs from breadth-first search"
        sub = lib.induced_subquiver(wq, hood).wq
        if sub.arrow_count != inner:
            return "induced subquiver has the wrong arrow count"
        dag = lib.berger_shor(sub, lib.derive_seed(0, v, k)).kept
        arcs = dag.quiver.arrows
        nonloop = sum(1 for s, t in sub.quiver.arrows if s != t)
        if not is_acyclic(dag.vertex_count, arcs) or 2 * len(arcs) < nonloop:
            return "FAS output is cyclic or keeps under half the arcs"
        expected = gain_graph_h1(dag.vertex_count, arcs, dag.weights)
        oracle = 0
        if arcs:
            oracle = lib.homology_dims(lib.build_chain_complex(dag, n_max=2))[1]
        if not value == oracle == expected:
            return f"CLI {value}, oracle {oracle}, gain graph {expected}"
        return ""

    def traced_job(self, lib, tracer: Tracer) -> Job:
        """k_hop_vertices -> induced_subquiver -> berger_shor ->
        boundary1_matrix -> DenseMatrix.rank for every cell, as
        features.feature_vector composes them, then write_feature_matrix."""
        out_path = self.out_path + ".traced"
        start = perf_counter()
        job = tracer.open("bench.job", None, 0)
        wq, ids = tracer.call("ingest.parse", job, 0, lib.load_weighted_edges, self.paths[0])
        rep = lib.scalar_representation()
        rows = []
        cell_id = 0
        for v in range(wq.vertex_count):
            row = []
            for k in range(1, self.hops + 1):
                cell_id += 1
                cell = tracer.open("bench.cell", job, cell_id)
                hood = tracer.call("quiver.khop", cell, cell_id,
                                   lib.k_hop_vertices, wq.quiver, v, k)
                sub = tracer.call("quiver.induced", cell, cell_id,
                                  lib.induced_subquiver, wq, hood).wq
                dag = tracer.call("fas.berger_shor", cell, cell_id, lib.berger_shor,
                                  sub, lib.derive_seed(0, v, k)).kept
                tracer.count_fas(sub, dag)
                tracer.counts["quiver.hood_vertices"] += len(hood)
                tracer.counts["quiver.hood_arrows"] += sub.arrow_count
                if dag.arrow_count == 0:
                    row.append(0)
                else:
                    boundary = tracer.call("homology.boundary1", cell, cell_id,
                                           lib.boundary1_matrix, dag, rep)
                    tracer.count_boundary(boundary)
                    row.append(dag.arrow_count - tracer.rank(cell, cell_id, boundary))
                tracer.close(cell)
            rows.append(tuple(row))
        fm = lib.FeatureMatrix(rows=tuple(rows), hops=self.hops, seed=0)
        tracer.call("ingest.write", job, 0, lib.write_feature_matrix, fm, out_path, ids)
        tracer.close(job)
        seconds = perf_counter() - start
        with open(out_path, "rb") as fh:
            out = fh.read()
        tracer.counts["features.cells"] += len(rows) * self.hops
        tracer.counts["features.h1_sum"] += sum(map(sum, rows))
        tracer.counts["ingest.bytes_in"] += self.sizes["input_bytes"]
        tracer.counts["ingest.bytes_out"] += len(out)
        return Job(seconds, [seconds], [out], [0])

    def diff_ops(self, a: Job, b: Job) -> int:
        ra, rb = self._rows(a), self._rows(b)
        if ra is None or rb is None:
            return self.ops
        return sum(
            self.hops if x is None or y is None else sum(p != q for p, q in zip(x, y))
            for x, y in zip(ra, rb))


class OracleWorkload:
    """`quivhom oracle DAG --n-max 3` on each DAG of a batch.

    A single DAG's chain count is heavy-tailed (it swings several-fold
    across seeds), and the oracle's time follows the size of its boundary
    matrices, sum over n of chains(n - 1) * chains(n), which grows faster
    still. In a plain random batch job_s would depend mostly on the seed.
    The batch is stratified instead: DAG i of K is drawn, by rejection,
    until that size is within 3% of the (i + 0.5)/K quantile of a fixed
    reference sample of the same distribution (n uniform in 8..16,
    m = 1.6 n). Every batch then holds the whole distribution, tail
    included, in the same proportions.
    """

    item, op = "chain", "DAG"
    n_max = 3
    reference_seed = 0x0AC1E
    reference_size = 4000

    def __init__(self, name, why, dags):
        self.name, self.why, self.dags = name, why, dags

    def _draw(self, rng):
        """A random DAG and the size of its boundary matrices."""
        n = rng.randint(8, 16)
        arcs = random_dag(rng, n)
        c = chain_counts(n, arcs, self.n_max)
        return arcs, sum(c[d - 1] * c[d] for d in range(1, self.n_max + 1))

    def generate(self, seed: int, scale: float, workdir: str) -> None:
        rng = random.Random(seed)
        count = max(4, round(self.dags * scale))
        ref_rng = random.Random(self.reference_seed)
        reference = sorted(self._draw(ref_rng)[1] for _ in range(self.reference_size))
        self.paths, self.expected, nbytes, arrows = [], [], 0, 0
        for i in range(count):
            target = reference[int((i + 0.5) / count * self.reference_size)]
            arcs, size = self._draw(rng)
            while abs(size - target) > 0.03 * target:
                arcs, size = self._draw(rng)
            labelled = [(str(s), str(t), oracle_weight(rng)) for s, t in arcs]
            self.paths.append(os.path.join(workdir, f"{self.name}-{i:03d}.csv"))
            nbytes += write_edges(self.paths[-1], labelled)
            arrows += len(arcs)
            n, index_arcs, weights = _index_graph(labelled)
            self.expected.append((chain_counts(n, index_arcs, self.n_max),
                                  gain_graph_h1(n, index_arcs, weights)))
        self.ops = count
        self.items = sum(sum(c[1:]) for c, _ in self.expected)
        self.sizes = {"dags": count, "N": sum(c[0] for c, _ in self.expected),
                      "M": arrows, "n_max": self.n_max, "arrows": arrows,
                      "chains": self.items, "input_bytes": nbytes}

    def load_inputs(self, load_weighted_edges):
        return [load_weighted_edges(p) for p in self.paths]

    def run_job(self, cli_main) -> Job:
        calls, outs, codes = [], [], []
        start = perf_counter()
        for path in self.paths:
            rc, out, seconds = call_cli(cli_main, ["oracle", path, "--n-max", str(self.n_max)])
            calls.append(seconds)
            outs.append(out.encode())
            codes.append(rc)
        return Job(perf_counter() - start, calls, outs, codes)

    def check(self, job: Job, lib=None) -> tuple[int, list[str]]:
        problems = []
        for i, (rc, out) in enumerate(zip(job.exit_codes, job.outputs)):
            reason = self._dag_reason(i, rc, out.decode("utf-8", "replace"))
            if reason:
                problems.append(f"DAG {i}: {reason}")
        return len(problems), problems

    def _dag_reason(self, i: int, rc: int, text: str) -> str:
        """The CLI's own cross-check must pass, and its chain counts and
        dim H1 must match the path-counting and gain-graph references."""
        if rc != 0:
            return f"exit code {rc}"
        lines = text.split("\n")
        if len(lines) != self.n_max + 3 or lines[0] != "degree  chains  dim H":
            return "malformed table"
        if not lines[-2].endswith("matches fast path: yes"):
            return "brute-force H1 does not match the fast path"
        counts, h1 = self.expected[i]
        table = [line.split() for line in lines[1:1 + self.n_max]]
        if [row[:2] for row in table] != [[str(n), str(counts[n])] for n in range(self.n_max)]:
            return f"chain counts differ from {counts[:self.n_max]}"
        if table[1][2:] != [str(h1)]:
            return f"dim H1 {table[1][2:]} differs from the gain-graph value {h1}"
        return ""

    def traced_job(self, lib, tracer: Tracer) -> Job:
        """Recompose cli.cmd_oracle for each DAG: load, acyclicity check,
        chain-count guard, chain complex, one rank per boundary (as
        homology_dims does), fast-path dim H1."""
        calls, outs = [], []
        start = perf_counter()
        job = tracer.open("bench.job", None, 0)
        rep = lib.scalar_representation()
        for i, path in enumerate(self.paths, start=1):
            t0 = perf_counter()
            dag = tracer.open("bench.dag", job, i)
            wq, _ = tracer.call("ingest.parse", dag, i, lib.load_weighted_edges, path)
            tracer.call("quiver.acyclic", dag, i, lib.is_acyclic, wq.quiver)
            total = 0
            for n in range(1, self.n_max + 1):
                total += tracer.call("quiver.nchains", dag, i, lib.count_nchains,
                                     wq.quiver, n, None, cap=200_000)
            tracer.counts["quiver.chains"] += total
            complex_ = tracer.call("homology.chain_complex", dag, i,
                                   lib.build_chain_complex, wq, rep, self.n_max, None)
            ranks = [0]
            for m in complex_.boundaries[1:]:
                tracer.count_boundary(m)
                ranks.append(tracer.rank(dag, i, m))
            sizes = complex_.basis_sizes()
            dims = [sizes[n] - ranks[n] - ranks[n + 1] for n in range(self.n_max)]
            fast = tracer.call("homology.dim_h1", dag, i, lib.dim_h1, wq, rep)
            lines = ["degree  chains  dim H"]
            lines += [f"{n:>6}  {sizes[n]:>6}  {h:>5}" for n, h in enumerate(dims)]
            verdict = "yes" if dims[1] == fast else "NO"
            lines.append(f"fast-path dim H1 = {fast}; matches fast path: {verdict}")
            outs.append(("\n".join(lines) + "\n").encode())
            tracer.close(dag)
            calls.append(perf_counter() - t0)
        tracer.close(job)
        tracer.counts["ingest.bytes_in"] += self.sizes["input_bytes"]
        return Job(perf_counter() - start, calls, outs, [0] * len(outs))

    def diff_ops(self, a: Job, b: Job) -> int:
        return sum(
            x != y for x, y in zip(zip(a.exit_codes, a.outputs), zip(b.exit_codes, b.outputs)))


class FasWorkload:
    """`quivhom fas EDGES --seed 1 --dot OUT` on one large random digraph
    (self-loops allowed)."""

    item, op = "arc", "job"
    fas_seed = 1

    def __init__(self, name, why, vertices, arrows_per_vertex):
        self.name, self.why = name, why
        self.vertices, self.arrows_per_vertex = vertices, arrows_per_vertex

    def generate(self, seed: int, scale: float, workdir: str) -> None:
        rng = random.Random(seed)
        n = max(8, round(self.vertices * scale))
        arcs = random_digraph(rng, n, self.arrows_per_vertex * n, small_weight, True)
        self.paths = [os.path.join(workdir, f"{self.name}.csv")]
        nbytes = write_edges(self.paths[0], arcs)
        self.dot_path = os.path.join(workdir, f"{self.name}.dot")
        self.ids = first_seen_ids(arcs)
        self.n, self.index_arcs, _ = _index_graph(arcs)
        self.ops, self.items = 1, len(arcs)
        self.sizes = {"N": self.n, "M": len(arcs), "arrows": len(arcs),
                      "input_bytes": nbytes}

    def load_inputs(self, load_weighted_edges):
        return load_weighted_edges(self.paths[0])

    def run_job(self, cli_main) -> Job:
        rc, out, seconds = call_cli(cli_main, [
            "fas", self.paths[0], "--seed", str(self.fas_seed), "--dot", self.dot_path])
        with open(self.dot_path, "rb") as fh:
            dot = fh.read()
        return Job(seconds, [seconds], [out.encode() + b"\0" + dot], [rc])

    def check(self, job: Job, lib=None) -> tuple[int, list[str]]:
        reason = f"exit code {job.exit_codes[0]}" if job.exit_codes[0] else ""
        reason = reason or self._reason(job.outputs[0].decode("utf-8", "replace"))
        return (1, [reason]) if reason else (0, [])

    def _reason(self, output: str) -> str:
        """The kept arcs must be acyclic and keep at least half of the
        non-loop arcs; the DOT output must have N + M + 2 lines."""
        report, _, dot = output.partition("\0")
        lines = report.split("\n")
        m = len(self.index_arcs)
        try:
            head = dict(part.split(" = ") for part in lines[1].split(", "))
            total, kept, fb = int(head["arcs"]), int(head["kept"]), int(head["feedback"])
            feedback = [int(line.rsplit("(arrow ", 1)[1][:-1]) for line in lines[2:-1]]
        except (IndexError, KeyError, ValueError):
            return "malformed report"
        if lines[0] != f"seed = {self.fas_seed}" or lines[-1] != "":
            return "malformed report"
        if total != m or kept + fb != m or len(set(feedback)) != fb or len(feedback) != fb:
            return "arc counts do not add up"
        for a, line in zip(feedback, lines[2:-1]):
            s, t = self.index_arcs[a] if 0 <= a < m else (None, None)
            if s is None or line != f"feedback: {self.ids[s]} -> {self.ids[t]} (arrow {a})":
                return f"feedback line does not match arrow {a}"
        dropped = set(feedback)
        kept_arcs = [arc for a, arc in enumerate(self.index_arcs) if a not in dropped]
        nonloop = sum(1 for s, t in self.index_arcs if s != t)
        if not is_acyclic(self.n, kept_arcs):
            return "kept arcs are cyclic"
        if 2 * len(kept_arcs) < nonloop:
            return "kept arcs are fewer than half of the non-loop arcs"
        dot_lines = dot.split("\n")
        if len(dot_lines) != self.n + m + 3 or dot_lines[-1] != "":
            return f"DOT output has {len(dot_lines) - 1} lines, expected {self.n + m + 2}"
        if sum("style=dashed" in line for line in dot_lines) != fb:
            return "DOT output does not dash exactly the feedback arcs"
        return ""

    def traced_job(self, lib, tracer: Tracer) -> Job:
        """Recompose cli.cmd_fas: load, berger_shor, acyclicity check of the
        kept arcs, DOT export, feedback report."""
        dot_path = self.dot_path + ".traced"
        start = perf_counter()
        job = tracer.open("bench.job", None, 0)
        wq, ids = tracer.call("ingest.parse", job, 0, lib.load_weighted_edges, self.paths[0])
        res = tracer.call("fas.berger_shor", job, 0, lib.berger_shor, wq, self.fas_seed)
        tracer.count_fas(wq, res.kept)
        tracer.call("quiver.acyclic", job, 0, lib.is_acyclic, res.kept.quiver)
        tracer.call("ingest.write", job, 0, _write_dot, lib, wq, ids, res.feedback, dot_path)
        lines = [f"seed = {res.seed}",
                 f"arcs = {wq.arrow_count}, kept = {len(res.kept_arrows)}, "
                 f"feedback = {len(res.feedback)}"]
        for a in sorted(res.feedback):
            s, t = wq.quiver.arrows[a]
            lines.append(f"feedback: {ids[s]} -> {ids[t]} (arrow {a})")
        report = "\n".join(lines) + "\n"
        tracer.close(job)
        seconds = perf_counter() - start
        with open(dot_path, "rb") as fh:
            dot = fh.read()
        tracer.counts["ingest.bytes_in"] += self.sizes["input_bytes"]
        tracer.counts["ingest.bytes_out"] += len(dot)
        return Job(seconds, [seconds], [report.encode() + b"\0" + dot], [0])

    def diff_ops(self, a: Job, b: Job) -> int:
        return int((a.exit_codes, a.outputs) != (b.exit_codes, b.outputs))


def _write_dot(lib, wq, ids, feedback, path) -> None:
    """to_dot plus writing its text, as the CLI's --dot does."""
    text = lib.ingest.to_dot(wq, ids, feedback=feedback)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


WORKLOADS = {
    w.name: w for w in (
        FeatureWorkload(
            "feat-shallow",
            "Tiny neighbourhoods (H=2, M=2N), so induced_subquiver scanning all "
            "M arrows per cell dominates and rank is minor.",
            vertices=2000, arrows_per_vertex=2, hops=2, weight=small_weight),
        FeatureWorkload(
            "feat-deep",
            "Neighbourhoods of tens of vertices (H=3, M=3N) with 64-bit weights, "
            "so exact rank of boundary matrices dominates.",
            vertices=200, arrows_per_vertex=3, hops=3, weight=large_weight),
        OracleWorkload(
            "oracle-batch",
            "The brute-force oracle on 50 small DAGs: chain enumeration, chain "
            "complexes and a few large sparse-path ranks.",
            dags=50),
        FasWorkload(
            "fas-large",
            "One feedback-arc-set pass and DOT export on a large graph, so parsing "
            "and one whole-graph Berger-Shor pass dominate.",
            vertices=25_000, arrows_per_vertex=4),
    )
}
