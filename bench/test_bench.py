"""Tests of the benchmark itself: seconds-long smoke runs of every workload
at reduced size, and checks that corrupted outputs make the gate fail.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMOKE_SCALE = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "0.2",
                "--trace", str(trace), "--scale", str(SMOKE_SCALE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work-*", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "feat-deep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def lib():
    return run.import_quivhom()


def _fresh(name, tmp_path, lib_cli):
    w = workloads.WORKLOADS[name]
    w.generate(5, SMOKE_SCALE, str(tmp_path))
    job = w.run_job(lib_cli[1].main)
    assert w.check(job, lib_cli[0]) == (0, [])
    return w, job


def _replace(job, index, data):
    outputs = list(job.outputs)
    outputs[index] = data
    return workloads.Job(job.seconds, job.call_seconds, outputs, job.exit_codes)


@pytest.mark.parametrize("name", ["feat-shallow", "feat-deep"])
def test_feature_gate_rejects_a_wrong_cell(name, tmp_path, lib):
    w, job = _fresh(name, tmp_path, lib)
    v, k, _, _ = w.sample[0]
    lines = job.outputs[0].decode().split("\n")
    fields = lines[1 + v].split(",")
    fields[k] = str(int(fields[k]) + 1)
    lines[1 + v] = ",".join(fields)
    bad = _replace(job, 0, "\n".join(lines).encode())
    failed, problems = w.check(bad, lib[0])
    assert failed >= 1 and problems
    assert w.diff_ops(job, bad) == 1
    w.pinned = workloads.sha256(job.outputs[0])
    assert w.check(job, lib[0]) == (0, [])
    assert w.check(bad, lib[0])[0] == w.ops


def test_feature_gate_rejects_a_truncated_matrix(tmp_path, lib):
    w, job = _fresh("feat-shallow", tmp_path, lib)
    bad = _replace(job, 0, job.outputs[0].rsplit(b"\n", 2)[0] + b"\n")
    assert w.check(bad, lib[0])[0] == w.ops


def test_oracle_gate_rejects_a_mismatch(tmp_path, lib):
    w, job = _fresh("oracle-batch", tmp_path, lib)
    text = job.outputs[0].decode()
    bad = _replace(job, 0, text.replace("fast path: yes", "fast path: NO").encode())
    assert w.check(bad, lib[0])[0] == 1
    counts = w.expected[1][0]
    wrong = text.replace(f"{counts[1]:>6}", f"{counts[1] + 1:>6}", 1)
    bad = _replace(job, 1, wrong.encode())
    assert w.check(bad, lib[0])[0] == 1
    assert w.diff_ops(job, bad) == 1


def test_fas_gate_rejects_broken_outputs(tmp_path, lib):
    w, job = _fresh("fas-large", tmp_path, lib)
    report, dot = job.outputs[0].split(b"\0")
    lines = report.split(b"\n")
    # drop one feedback arc from the report: the summary no longer adds up
    assert w.check(_replace(job, 0, b"\n".join(lines[:2] + lines[3:]) + b"\0" + dot),
                   lib[0])[0] == 1
    # a DOT file with a missing arc line
    short = dot.split(b"\n")
    assert w.check(_replace(job, 0, report + b"\0" + b"\n".join(short[:-3] + short[-2:])),
                   lib[0])[0] == 1
    assert w.diff_ops(job, _replace(job, 0, report + b"\0")) == 1


def test_gate_counts_a_failing_exit_code(tmp_path, lib):
    w, job = _fresh("feat-deep", tmp_path, lib)
    bad = workloads.Job(job.seconds, job.call_seconds, job.outputs, [2])
    attempted, failed, _ = run.gate(w, lib[0], [job, bad])
    assert attempted == 2 * w.ops and failed == w.ops


def test_references_agree_with_the_library(lib):
    quivhom = lib[0]
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(5, 9)
        arcs = workloads.random_dag(rng, n)[: rng.randint(0, 14)]
        weights = [workloads.oracle_weight(rng) for _ in arcs]
        wq = quivhom.WeightedQuiver(quivhom.Quiver(n, arcs), weights)
        assert workloads.gain_graph_h1(n, arcs, weights) == quivhom.dim_h1(wq)
        counts = workloads.chain_counts(n, arcs, 3)
        assert counts[1:] == [quivhom.count_nchains(wq.quiver, d) for d in (1, 2, 3)]
        assert workloads.is_acyclic(n, arcs)
    assert not workloads.is_acyclic(2, [(0, 1), (1, 0)])
    assert workloads.gain_graph_h1(2, [(0, 1), (0, 1)], [Fraction(2), Fraction(2)]) == 1


def test_traced_recomposition_matches_the_cli(tmp_path, lib):
    for name in workloads.WORKLOADS:
        w, job = _fresh(name, tmp_path, lib)
        tracer = Tracer()
        traced = w.traced_job(lib[0], tracer)
        assert w.diff_ops(job, traced) == 0
        m = tracer.layer_metrics()
        covered = sum(m[f"{s}_s"][0] for s in run.LAYER_SPANS) + m["bench.self_s"][0]
        job_span = next(s for s in tracer.spans if s[0] == "bench.job")
        assert covered == pytest.approx(job_span[2] - job_span[1], rel=1e-6)
