from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

from quivhom import (
    ParseError,
    Quiver,
    WeightedQuiver,
    WeightError,
    feature_matrix,
    jaccard_weights,
    load_attributes,
    load_weighted_edges,
    orient_undirected,
    read_feature_matrix,
    write_feature_matrix,
)
from quivhom.features import FeatureMatrix
from quivhom.ingest import (
    feature_matrix_csv,
    feature_matrix_json,
    load_undirected_pairs,
    to_dot,
)
from conftest import random_multigraph


def edges(text: str, epsilon=None):
    return load_weighted_edges(io.StringIO(text), epsilon)


def test_load_comma_separated():
    wq, ids = edges("a,b,2\nb,c,3\n")
    assert ids == ["a", "b", "c"]
    assert wq.quiver.arrows == ((0, 1), (1, 2))
    assert wq.weights == (Fraction(2), Fraction(3))


def test_load_tab_separated_rational():
    wq, ids = edges("a\tb\t1/3\n")
    assert wq.weights == (Fraction(1, 3),)


def test_load_decimal_is_exact():
    wq, _ = edges("a,b,0.25\n")
    assert wq.weights == (Fraction(1, 4),)


def test_zero_weight_without_epsilon_names_line():
    with pytest.raises(WeightError, match="line 1"):
        edges("a,b,0\n")


def test_zero_weight_with_epsilon_substitutes():
    wq, _ = edges("a,b,0\n", epsilon=Fraction(1, 100))
    assert wq.weights == (Fraction(1, 100),)


def test_zero_weight_epsilon_must_be_a_nonzero_rational():
    wq, _ = edges("a,b,2\nb,c,0\n", epsilon=1)
    assert wq.weights == (Fraction(2), Fraction(1))
    assert type(wq.weights[1]) is Fraction
    with pytest.raises(WeightError, match="arrow 1 has zero weight"):
        edges("a,b,2\nb,c,0\n", epsilon=0)


def test_two_column_file_defaults_weight_one():
    wq, _ = edges("a,b\nb,c\n")
    assert wq.weights == (Fraction(1), Fraction(1))


def test_inconsistent_columns_rejected():
    with pytest.raises(ParseError, match="line 2"):
        edges("a,b,2\nb,c\n")


def test_comments_blanks_and_crlf_tolerated():
    wq, ids = edges("# header\r\n\r\na,b,2\r\n")
    assert ids == ["a", "b"]
    assert wq.weights == (Fraction(2),)


def test_bad_weight_token_names_line():
    with pytest.raises(ParseError, match="line 1"):
        edges("a,b,x\n")


# Tokens on which the Fraction(str) grammar differs between Python
# versions ('1/ 2', '1_000'), or that int() and float() read differently
WEIGHT_TOKENS = ["1/ 2", "1_000", "\u0663", "1e3", "+3", "-0", "0x10", "1/0",
                 "0.25", "007/014", "-3/6"]


@pytest.mark.parametrize("epsilon", [None, Fraction(1, 100)])
@pytest.mark.parametrize("token", WEIGHT_TOKENS)
def test_weight_tokens_follow_this_interpreters_fraction(token, epsilon):
    # lines 2 and 3 share the token, so line 3 reads the parsed-token memo
    text = f"a,b,5\nb,c,{token}\nc,a,{token}\n"
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as info:
            edges(text, epsilon)
        assert info.value.line == 2
        assert str(info.value) == f"line 2: bad weight {token!r}: {exc}"
        return
    if expected == 0 and epsilon is None:
        with pytest.raises(WeightError, match="^line 2: zero weight"):
            edges(text, epsilon)
        return
    if expected == 0:
        expected = epsilon
    wq, _ = edges(text, epsilon)
    assert wq.weights == (Fraction(5), expected, expected)
    assert all(type(w) is Fraction for w in wq.weights)


def test_loaded_quiver_equals_its_public_construction():
    rng = random.Random(29)
    for _ in range(200):
        source = random_multigraph(rng)
        arrows, weights = source.quiver.arrows, source.weights
        # equal weights spelled two ways: the memo keys on the token
        tokens = [str(w) if rng.random() < 0.5
                  else f"{2 * w.numerator}/{2 * w.denominator}" for w in weights]
        pad = [" " * rng.randint(0, 1) for _ in range(3)]
        text = "".join(f"v{s}{pad[0]},{pad[1]}v{t},{pad[2]}{tok}\n"
                       for (s, t), tok in zip(arrows, tokens))
        wq, ids = edges(text)
        index = {}
        for s, t in arrows:
            index.setdefault(s, len(index))
            index.setdefault(t, len(index))
        assert ids == [f"v{v}" for v in index]
        public = WeightedQuiver(
            Quiver(len(ids), [(index[s], index[t]) for s, t in arrows]), weights)
        assert wq == public
        assert wq.quiver.out_arrows == public.quiver.out_arrows
        assert type(wq.quiver.arrows) is tuple and type(wq.weights) is tuple
        assert all(type(w) is Fraction for w in wq.weights)
        assert all(type(s) is int and type(t) is int for s, t in wq.quiver.arrows)


def test_id_map_is_first_seen_order():
    _, ids = edges("z,y,1\na,z,1\n")
    assert ids == ["z", "y", "a"]


def test_rational_parse_format_parse_fixpoint():
    rng = random.Random(13)
    for _ in range(50):
        w = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        wq, _ = edges(f"a,b,{w}\n")
        assert wq.weights[0] == w


def test_load_attributes_and_width_check():
    attrs = load_attributes(io.StringIO("a,1,0,1\nb,0,1,1\n"))
    assert attrs["a"] == frozenset({0, 2})
    assert attrs["b"] == frozenset({1, 2})
    with pytest.raises(ParseError):
        load_attributes(io.StringIO("a,1,0\nb,1\n"))
    with pytest.raises(ParseError):
        load_attributes(io.StringIO("a,1,2\n"))


def test_jaccard_example():
    wq, ids = edges("u,v\n")
    attrs = {"u": frozenset({1, 2}), "v": frozenset({2, 3})}
    weighted = jaccard_weights(wq.quiver, ids, attrs)
    assert weighted.weights == (Fraction(2, 3),)


def test_jaccard_identical_supports_need_epsilon():
    wq, ids = edges("u,v\n")
    attrs = {"u": frozenset({1}), "v": frozenset({1})}
    with pytest.raises(WeightError):
        jaccard_weights(wq.quiver, ids, attrs)
    weighted = jaccard_weights(wq.quiver, ids, attrs, epsilon=Fraction(1, 10))
    assert weighted.weights == (Fraction(1, 10),)


def test_jaccard_disjoint_supports_give_distance_one():
    wq, ids = edges("u,v\n")
    attrs = {"u": frozenset({1}), "v": frozenset({2})}
    assert jaccard_weights(wq.quiver, ids, attrs).weights == (Fraction(1),)


def test_jaccard_empty_supports_are_distance_zero():
    wq, ids = edges("u,v\n")
    attrs = {"u": frozenset(), "v": frozenset()}
    with pytest.raises(WeightError):
        jaccard_weights(wq.quiver, ids, attrs)


def test_jaccard_missing_attributes_rejected():
    wq, ids = edges("u,v\n")
    with pytest.raises(WeightError):
        jaccard_weights(wq.quiver, ids, {"u": frozenset({1})})


def test_jaccard_is_symmetric():
    rng = random.Random(3)
    for _ in range(30):
        su = frozenset(rng.sample(range(8), rng.randint(0, 6)))
        sv = frozenset(rng.sample(range(8), rng.randint(0, 6)))
        attrs = {"u": su, "v": sv}
        attrs_flipped = {"u": sv, "v": su}
        wq, ids = edges("u,v\n")
        try:
            a = jaccard_weights(wq.quiver, ids, attrs).weights
            b = jaccard_weights(wq.quiver, ids, attrs_flipped).weights
        except WeightError:
            continue
        assert a == b


def test_orient_examples():
    wq, ids = orient_undirected([(7, 3)])
    assert ids == ["3", "7"]
    assert wq.quiver.arrows == ((0, 1),)
    assert wq.weights == (Fraction(4),)
    wq, _ = orient_undirected([(1, 2)])
    assert wq.weights == (Fraction(1),)


def test_orient_rejects_self_pair():
    with pytest.raises(WeightError):
        orient_undirected([(5, 5)])


def test_load_undirected_pairs():
    wq, ids = load_undirected_pairs(io.StringIO("7,3\n1,2\n"))
    assert wq.weights == (Fraction(4), Fraction(1))
    with pytest.raises(ParseError):
        load_undirected_pairs(io.StringIO("a,b\n"))


def test_feature_matrix_csv_golden():
    fm = FeatureMatrix(rows=((0,),), hops=1, seed=0)
    assert feature_matrix_csv(fm, ["a"]) == "vertex,h1\na,0\n"


def test_feature_matrix_roundtrip_csv_and_json(tmp_path):
    rng = random.Random(7)
    rows = tuple(tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(5))
    fm = FeatureMatrix(rows=rows, hops=3, seed=123456789)
    ids = [f"n{i}" for i in range(5)]
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        write_feature_matrix(fm, path, ids, fmt)
        back_rows, back_ids = read_feature_matrix(path, fmt)
        assert back_ids == ids
        assert [tuple(r) for r in back_rows] == list(rows)


# ids the tab-separated parser accepts that need quoting in CSV and DOT
SPECIAL_EDGES = 'a,b\td"e\t2\nd"e\t#x\t3\na,b\t#x\t6\nback\\slash\t#x\t1\n'


def test_feature_matrix_roundtrip_special_ids(tmp_path):
    wq, ids = edges(SPECIAL_EDGES)
    assert ids == ["a,b", 'd"e', "#x", "back\\slash"]
    fm = feature_matrix(wq, 2, seed=1)
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        write_feature_matrix(fm, path, ids, fmt)
        back_rows, back_ids = read_feature_matrix(path, fmt)
        assert back_ids == ids
        assert [tuple(r) for r in back_rows] == list(fm.rows)
    assert '"a,b",' in feature_matrix_csv(fm, ids)


def test_to_dot_escapes_quotes_and_backslashes():
    wq, ids = edges(SPECIAL_EDGES)
    dot = to_dot(wq, ids)
    assert '  "a,b" -> "d\\"e" [label="2"];' in dot
    assert '  "back\\\\slash" -> "#x" [label="1"];' in dot
    for line in dot.splitlines():
        unescaped = line.replace("\\\\", "").replace('\\"', "")
        assert unescaped.count('"') % 2 == 0, line


def test_feature_matrix_json_echoes_config(tmp_path):
    fm = FeatureMatrix(rows=((1, 2),), hops=2, seed=987654321)
    path = tmp_path / "out.json"
    write_feature_matrix(fm, path, ["a"], "json")
    doc = json.loads(path.read_text())
    assert doc["config"]["seed"] == 987654321
    assert doc["config"]["hops"] == 2
    assert doc["config"]["field_mode"] == "exact"


def test_json_text_matches_writer():
    fm = FeatureMatrix(rows=((1,),), hops=1, seed=4)
    assert json.loads(feature_matrix_json(fm, ["v"]))["rows"] == [[1]]


def test_to_dot_marks_feedback():
    wq, ids = edges("a,b,2\nb,a,3\n")
    dot = to_dot(wq, ids, feedback={1})
    assert '"a" -> "b" [label="2"];' in dot
    assert '"b" -> "a" [label="3", style=dashed];' in dot


def _quiver_view(result):
    wq, ids = result
    return ids, wq.quiver.arrows, wq.weights


# each loader with an input and a view of everything its result holds
LOADERS = [
    pytest.param(load_weighted_edges, "a,b,2\nb,c,1/3\n", _quiver_view, id="edges"),
    pytest.param(load_attributes, "a,1,0\nb,0,1\n", dict, id="attributes"),
    pytest.param(load_undirected_pairs, "7,3\n1,2\n", _quiver_view, id="pairs"),
]


def read_bytes(loader, data: bytes, how: str, tmp_path):
    """Run the loader on the data given as a file path or as a stream."""
    if how == "path":
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        return loader(str(path))
    return loader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.mark.parametrize("how", ["path", "stream"])
@pytest.mark.parametrize("loader, text, view", LOADERS)
@pytest.mark.parametrize("first_line", ["", "\n", "# note\n"], ids=["data", "blank", "comment"])
def test_leading_byte_order_mark_is_ignored(tmp_path, how, loader, text, view, first_line):
    plain = view(read_bytes(loader, (first_line + text).encode(), how, tmp_path))
    marked = ("\ufeff" + first_line + text).encode()
    assert marked.startswith(b"\xef\xbb\xbf")
    assert view(read_bytes(loader, marked, how, tmp_path)) == plain


@pytest.mark.parametrize("how", ["path", "stream"])
@pytest.mark.parametrize("loader, text, ids", [
    (load_weighted_edges, "\ufeff\ufeffa,b\n\ufeffb,c\n", ["\ufeffa", "b", "\ufeffb", "c"]),
    (load_weighted_edges, "# note\n\ufeffa,b\n", ["\ufeffa", "b"]),
    (load_attributes, "\ufeff\ufeffa,1\n\ufeffb,0\n", ["\ufeffa", "\ufeffb"]),
    (load_undirected_pairs, "\ufeff\ufeff1,2\n", None),
], ids=["edges", "edges-after-comment", "attributes", "pairs"])
def test_only_the_byte_order_mark_opening_the_input_is_dropped(tmp_path, how, loader, text, ids):
    if ids is None:
        # the U+FEFF left on the first id makes it no integer
        with pytest.raises(ParseError, match="line 1: undirected pairs need integer"):
            read_bytes(loader, text.encode(), how, tmp_path)
        return
    result = read_bytes(loader, text.encode(), how, tmp_path)
    assert list(result if isinstance(result, dict) else result[1]) == ids


@pytest.mark.parametrize("how", ["path", "stream"])
@pytest.mark.parametrize("loader, text, view", LOADERS)
def test_text_that_is_not_utf8_is_a_parse_error(tmp_path, how, loader, text, view):
    data = text.encode() + b"\xe9,1\n"  # Latin-1 for "é"
    with pytest.raises(ParseError, match="^input is not UTF-8 text: invalid"):
        read_bytes(loader, data, how, tmp_path)
