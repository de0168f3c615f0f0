from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest

from quivhom import homology, load_weighted_edges, quiver
from quivhom.cli import main

TRIANGLE_COMMUTING = "x0,x1,2\nx1,x2,3\nx0,x2,6\n"
TRIANGLE_BROKEN = "x0,x1,2\nx1,x2,3\nx0,x2,5\n"
TWO_CYCLE = "a,b,1\nb,a,1\n"


@pytest.fixture
def edges_file(tmp_path):
    def write(text, name="edges.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_homology_commuting_triangle(edges_file, capsys):
    assert main(["homology", edges_file(TRIANGLE_COMMUTING)]) == 0
    assert "dim H1 = 1" in capsys.readouterr().out


def test_homology_broken_triangle(edges_file, capsys):
    assert main(["homology", edges_file(TRIANGLE_BROKEN)]) == 0
    assert "dim H1 = 0" in capsys.readouterr().out


def test_homology_two_cycle_without_dagify_exits_2(edges_file, capsys):
    assert main(["homology", edges_file(TWO_CYCLE)]) == 2
    err = capsys.readouterr().err
    assert "cycle" in err
    assert "a" in err and "b" in err  # the message names the cycle


def test_homology_two_cycle_with_dagify(edges_file, capsys):
    assert main(["homology", edges_file(TWO_CYCLE), "--dagify"]) == 0
    assert "dim H1 = 0" in capsys.readouterr().out


def test_homology_kernel_and_matrix_flags(edges_file, capsys):
    rc = main(["homology", edges_file(TRIANGLE_COMMUTING), "--kernel-basis", "--matrix"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel: (-1, -2, 1)" in out
    assert "-1 0 -1" in out


def test_homology_dot_output(edges_file, tmp_path):
    dot = tmp_path / "quiver.dot"
    assert main(["homology", edges_file(TRIANGLE_COMMUTING), "--dot", str(dot)]) == 0
    assert '"x0" -> "x1" [label="2"];' in dot.read_text()


def test_homology_reads_stdin(edges_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_COMMUTING))
    assert main(["homology", "-"]) == 0
    assert "dim H1 = 1" in capsys.readouterr().out


def test_homology_parse_error_exits_1(edges_file, capsys):
    assert main(["homology", edges_file("a,b,zzz\n")]) == 1
    assert "line 1" in capsys.readouterr().err


def test_homology_missing_file_exits_1(capsys):
    assert main(["homology", "/nonexistent/edges.csv"]) == 1


def test_homology_zero_weight_exits_2(edges_file, capsys):
    assert main(["homology", edges_file("a,b,0\n")]) == 2


def test_features_csv_deterministic(edges_file, tmp_path, capsys):
    src = edges_file(TRIANGLE_COMMUTING)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["features", src, "-H", "2", "--seed", "9", "-o", str(out1)]) == 0
    assert main(["features", src, "-H", "2", "--seed", "9", "-o", str(out2),
                 "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "vertex,h1,h2"
    assert "seed=9" in capsys.readouterr().err


def test_features_json_has_config(edges_file, tmp_path):
    src = edges_file(TRIANGLE_COMMUTING)
    out = tmp_path / "fm.json"
    assert main(["features", src, "--format", "json", "--seed", "3",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 3
    assert doc["config"]["field_mode"] == "exact"
    assert "tolerance" not in doc["config"]
    assert doc["vertices"] == ["x0", "x1", "x2"]


def test_features_bad_hops_exits_2_on_empty_input(edges_file, capsys):
    assert main(["features", edges_file(""), "-H", "-3", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hops must be positive" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_features_stdout_and_file_are_the_same_bytes(edges_file, tmp_path, capsys, fmt):
    src = edges_file(TRIANGLE_COMMUTING)
    out = tmp_path / f"fm.{fmt}"
    assert main(["features", src, "--format", fmt, "-o", str(out)]) == 0
    assert main(["features", src, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


FIELD_FLAGS = [["--field", "float"], ["--tol", "1e-6"]]


@pytest.mark.parametrize("flag", FIELD_FLAGS)
def test_features_is_exact_only(edges_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["features", edges_file(TRIANGLE_COMMUTING)] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", FIELD_FLAGS)
def test_fas_takes_no_field_flags(edges_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["fas", edges_file(TRIANGLE_COMMUTING)] + flag)
    assert exc.value.code == 2


def test_features_star_row(edges_file, capsys):
    assert main(["features", edges_file("v,a,2\nv,b,3\n"), "-H", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "v,0"


def test_fas_two_cycle_reports_one_feedback_arc(edges_file, capsys):
    assert main(["fas", edges_file(TWO_CYCLE), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "arcs = 2, kept = 1, feedback = 1" in out
    assert out.count("feedback:") == 1


def test_fas_dag_input_keeps_at_least_half(edges_file, capsys):
    assert main(["fas", edges_file(TRIANGLE_COMMUTING), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("arcs"))
    arcs = int(line.split("arcs = ")[1].split(",")[0])
    kept = int(line.split("kept = ")[1].split(",")[0])
    assert kept * 2 >= arcs


def test_fas_empty_graph(edges_file, capsys):
    assert main(["fas", edges_file("")]) == 0
    assert "arcs = 0, kept = 0, feedback = 0" in capsys.readouterr().out


def test_oracle_triangle_table_and_cross_check(edges_file, capsys):
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(l.split() == ["0", "3", "1"] for l in lines)
    assert any(l.split() == ["1", "4", "1"] for l in lines)
    assert any(l.split() == ["2", "1", "0"] for l in lines)
    assert "matches fast path: yes" in out


def test_oracle_truncated(edges_file, capsys):
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "truncated H1 = 1" in out


@pytest.mark.parametrize("ell", [[], ["--ell", "1"]], ids=["full", "ell1"])
def test_oracle_n_max_below_2_exits_2(edges_file, capsys, ell):
    argv = ["oracle", edges_file(TRIANGLE_COMMUTING), "--n-max", "1"] + ell
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n-max must be at least 2\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_oracle_chain_cap_exits_3(edges_file, capsys):
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), "--chain-cap", "2"]) == 3
    assert "cap" in capsys.readouterr().err


def test_oracle_chain_cap_reports_the_exact_count(edges_file, capsys):
    # 4 paths in degree 1 and one 2-chain: the message names all 5
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), "--chain-cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: nondegenerate chain count 5 exceeds cap 2\n"
    assert captured.out == ""


def test_oracle_out_of_memory_exits_3_without_traceback(edges_file, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("quivhom.cli.build_chain_complex", exhausted)
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def test_float_oracle_accepts_large_weights(edges_file, capsys):
    # the degree-2 boundary-squared residue rounds to 0.0156 here; an
    # absolute 1e-9 bound used to reject it with exit 2
    path = edges_file("x,y,244272509/38\ny,z,480712774/25\n")
    assert main(["oracle", path]) == 0
    exact = capsys.readouterr().out
    assert main(["oracle", path, "--field", "float"]) == 0
    assert capsys.readouterr().out == exact
    assert exact.endswith("matches fast path: yes\n")


@pytest.mark.parametrize("flag, message", [
    ("--chain-cap", "chain-cap must be nonnegative"),
    ("--ell", "ell must be nonnegative"),
])
def test_oracle_negative_cap_or_ell_exits_2(edges_file, capsys, flag, message):
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_oracle_zero_cap_and_ell_stay_legal(edges_file, capsys):
    path = edges_file(TRIANGLE_COMMUTING)
    assert main(["oracle", path, "--chain-cap", "0", "--ell", "0"]) == 0
    assert capsys.readouterr().out == (
        "degree  chains  dim H\n"
        "     0       3      3\n"
        "     1       0      0\n"
        "     2       0      0\n"
        "fast-path dim H1 (untruncated) = 1; truncated H1 = 0\n")
    assert main(["oracle", path, "--chain-cap", "0"]) == 3
    assert capsys.readouterr().err == "error: nondegenerate chain count 5 exceeds cap 0\n"


def test_oracle_verdict_names_a_wrong_degree(edges_file, capsys, monkeypatch):
    # one rank too low in the top boundary leaves H2 = 1 while H1 still
    # matches; the verdict must say so
    path = edges_file("a,b,2\nb,c,3\nc,d,5\n")
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out.endswith("matches fast path: yes\n")
    ranks = []
    real = homology._rank_sparse

    def short(rows):
        ranks.append(real(rows))
        return ranks[-1] - (len(ranks) == 3)

    monkeypatch.setattr(homology, "_rank_sparse", short)
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[3].split() == ["2", "4", "1"]
    assert out.endswith("fast-path dim H1 = 0; matches fast path: NO (degree 2)\n")


def test_oracle_checks_acyclicity_four_times(edges_file, capsys, monkeypatch):
    calls = []
    for name in ("arcs_acyclic", "topological_order"):
        real = getattr(quiver, name)
        monkeypatch.setattr(quiver, name, lambda *a, real=real: calls.append(1) or real(*a))
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING)]) == 0
    assert "matches fast path: yes" in capsys.readouterr().out
    assert len(calls) == 4


def test_oracle_guard_handles_deep_graphs(edges_file, capsys):
    # a long chain has ~1.1M degree-1 morphisms; the guard must refuse
    # without exhausting memory or the recursion limit
    text = "".join(f"v{i},v{i + 1}\n" for i in range(1500))
    assert main(["oracle", edges_file(text), "--chain-cap", "10000"]) == 3
    assert "exceeds cap" in capsys.readouterr().err


def test_oracle_degrees_above_the_longest_path_are_empty(edges_file, capsys):
    # the triangle's chains stop at degree 2; every higher degree is empty
    assert main(["oracle", edges_file(TRIANGLE_COMMUTING), "--n-max", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2002  # the table stops below the top degree
    assert [l.split() for l in lines[1:4]] == [["0", "3", "1"], ["1", "4", "1"], ["2", "1", "0"]]
    assert [l.split() for l in lines[4:-1]] == [[str(n), "0", "0"] for n in range(3, 2000)]
    assert lines[-1] == "fast-path dim H1 = 1; matches fast path: yes"


def test_jaccard_subcommand(edges_file, tmp_path, capsys):
    src = edges_file("u,v\n")
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("u,1,1,0\nv,0,1,1\n")
    assert main(["jaccard", src, str(attrs)]) == 0
    assert capsys.readouterr().out == "u,v,2/3\n"


def test_orient_subcommand(edges_file, capsys):
    src = edges_file("7,3\n1,2\n", name="pairs.csv")
    assert main(["orient", src]) == 0
    assert capsys.readouterr().out == "3,7,4\n1,2,1\n"


@pytest.mark.parametrize("edges, attrs, arrows, weights", [
    # tab-separated input whose ids contain commas
    ("a,b\tc\t5\nc\td,e\t7\n", "a,b\t1\t0\nc\t0\t1\nd,e\t1\t1\n",
     [("a,b", "c"), ("c", "d,e")], [Fraction(1), Fraction(1, 2)]),
    # comma-separated input with an interior tab in an id of a later line
    ("u,v\nx\ty,v\n", "u,1,0\nv,0,1\nx\ty,1,1\n",
     [("u", "v"), ("x\ty", "v")], [Fraction(1), Fraction(1, 2)]),
])
def test_jaccard_output_reads_back_with_every_id(
        edges_file, tmp_path, edges, attrs, arrows, weights):
    attr_path = tmp_path / "attrs.txt"
    attr_path.write_text(attrs)
    out = tmp_path / "weighted.txt"
    assert main(["jaccard", edges_file(edges), str(attr_path), "-o", str(out)]) == 0
    wq, ids = load_weighted_edges(str(out))
    assert [(ids[s], ids[t]) for s, t in wq.quiver.arrows] == arrows
    assert list(wq.weights) == weights


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_features_bad_threads_exits_2(edges_file, capsys, threads):
    assert main(["features", edges_file(TRIANGLE_COMMUTING), "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: threads must be positive\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fas", "features"])
def test_broken_invariant_exits_2_without_traceback(edges_file, capsys, monkeypatch, command):
    # a feedback-arc-set pass whose one acyclicity check rejects the kept
    # arcs; `fas` and every `features` cell whose hood is not a forest run
    # that same check; every hood of x0 is the whole triangle
    monkeypatch.setattr("quivhom.fas.arcs_acyclic", lambda n, arcs: False)
    assert main([command, edges_file(TRIANGLE_COMMUTING)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["homology", "oracle"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_float_mode_needs_a_finite_positive_tolerance(edges_file, capsys, command, tol):
    # NaN and infinity compare false against every pivot and would rank
    # the boundary matrix 0, reporting dim H1 = 3 for this triangle
    argv = [command, edges_file(TRIANGLE_COMMUTING), "--field", "float", f"--tol={tol}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: float mode needs a finite positive tolerance\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["homology", "features", "fas", "oracle", "jaccard"])
@pytest.mark.parametrize("epsilon", ["1/0", "abc", ""])
def test_malformed_zero_weight_epsilon_exits_2(edges_file, tmp_path, capsys, command, epsilon):
    argv = [command, edges_file(TRIANGLE_COMMUTING)]
    if command == "jaccard":
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("x0,1,0\nx1,0,1\nx2,1,1\n")
        argv.append(str(attrs))
    assert main(argv + ["--zero-weight-epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: zero-weight epsilon ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unknown_flag_is_an_error(edges_file):
    with pytest.raises(SystemExit):
        main(["homology", edges_file(TRIANGLE_COMMUTING), "--no-such-flag"])


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("homology", "features", "fas", "oracle", "jaccard", "orient"):
        assert name in out


@pytest.mark.parametrize("argv", [
    ["homology", "BAD"], ["features", "BAD"], ["fas", "BAD"], ["oracle", "BAD"],
    ["jaccard", "BAD", "ATTRS"], ["jaccard", "EDGES", "BAD"], ["orient", "BAD"],
], ids=["homology", "features", "fas", "oracle", "jaccard-edges", "jaccard-attributes",
        "orient"])
def test_input_that_is_not_utf8_exits_1(tmp_path, capsys, argv):
    paths = {"BAD": tmp_path / "bad.csv", "EDGES": tmp_path / "edges.csv",
             "ATTRS": tmp_path / "attrs.csv"}
    paths["BAD"].write_bytes("1,2\n3,\xe94\n".encode("latin-1"))
    paths["EDGES"].write_text("1,2\n")
    paths["ATTRS"].write_text("1,1\n2,0\n")
    assert main([str(paths.get(a, a)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is not UTF-8 text: invalid continuation byte\n"


def test_stdin_is_read_as_utf8_whatever_the_locale_says(capsys, monkeypatch):
    # a locale can make stdin decode as Latin-1, or keep bad bytes as
    # surrogates; "-" reads UTF-8 either way
    marked = "\ufeff# note\na,b,1\nb,a,1\n".encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(marked), encoding="latin-1"))
    assert main(["homology", "-"]) == 2
    assert "(a -> b -> a)" in capsys.readouterr().err
    bad = io.BytesIO("1,2\n3,\xe94\n".encode("latin-1"))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(bad, encoding="utf-8", errors="surrogateescape"))
    assert main(["orient", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not UTF-8 text")
