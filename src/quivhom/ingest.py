"""File ingestion, data-derived weight recipes, and output writers.

Every input file is UTF-8 text, read one record per line by one reader:
tab- or comma-separated (sniffed from the first data line), blank and '#'
lines skipped, one byte-order mark opening the input ignored, and text
that is not UTF-8 a parse error. Edge lists hold (source, target,
optional weight); weights parse exactly: "1/3" stays 1/3 and "0.25"
becomes 1/4. Vertex ids are arbitrary tokens mapped to dense indices in
first-seen order; the mapping is emitted alongside every output.

A weight token is accepted exactly when the running interpreter's
``Fraction(token)`` accepts it, so the grammar follows the Python version
(3.11 accepts "1_000", 3.12 also "1/ 2"). The loader parses each distinct
token once and gives equal tokens one shared ``Fraction``. It builds its
quiver without the public constructors' checks, which its own parsing
already guarantees.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .errors import ParseError, WeightError
from .features import FeatureMatrix
from .quiver import Quiver, WeightedQuiver


def _records(source: str | os.PathLike | TextIO):
    """Yield (line number, fields) per data line of a UTF-8 path or a stream."""
    # one generator frame: a nested one would add a hop to every line
    opened = isinstance(source, (str, os.PathLike))
    with open(source, encoding="utf-8") if opened else nullcontext(source) as stream:
        lines = enumerate(stream, start=1)
        try:
            for no, raw in lines:
                # only the first character of the input may be a byte-order mark
                line = (raw[1:] if no == 1 and raw[:1] == "\ufeff" else raw).strip()
                if line and not line.startswith("#"):
                    sep = "\t" if "\t" in line else ","
                    yield no, line.split(sep)
                    break
            for no, raw in lines:
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield no, line.split(sep)
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None


def parse_weight(token: str, line: int) -> Fraction:
    """Exact weight from a decimal or p/q literal."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight {token!r}: {exc}", line) from None


def load_weighted_edges(
    source: str | os.PathLike | TextIO,
    zero_weight_epsilon: Fraction | None = None,
) -> tuple[WeightedQuiver, list[str]]:
    """Parse an edge list into a WeightedQuiver plus the id map
    (dense index -> original token). Missing weight columns default to 1;
    zero weights are replaced by the epsilon when given, else rejected.
    """
    ids: list[str] = []
    id_of: dict[str, int] = {}
    arrows: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    # weight token -> its (zero-replaced) value: weight columns repeat a few
    # values, so each distinct token is parsed once and equal weights share
    # one Fraction
    parsed: dict[str, Fraction] = {}
    one = Fraction(1)
    ncols = None
    for no, fields in _records(source):
        if ncols is None:
            if len(fields) not in (2, 3):
                raise ParseError(f"expected 2 or 3 columns, got {len(fields)}", no)
            ncols = len(fields)
        elif len(fields) != ncols:
            raise ParseError(
                f"inconsistent column count: expected {ncols}, got {len(fields)}", no
            )
        token = fields[0].strip()
        s = id_of.get(token)
        if s is None:
            s = id_of[token] = len(ids)
            ids.append(token)
        token = fields[1].strip()
        t = id_of.get(token)
        if t is None:
            t = id_of[token] = len(ids)
            ids.append(token)
        if ncols == 2:
            w = one
        else:
            token = fields[2].strip()
            w = parsed.get(token)
            if w is None:
                w = parse_weight(token, no)
                if w == 0:
                    if zero_weight_epsilon is None:
                        raise WeightError(
                            f"line {no}: zero weight (rerun with a zero-weight epsilon)"
                        )
                    w = zero_weight_epsilon
                    if not isinstance(w, Fraction):
                        w = Fraction(w)
                    if w == 0:
                        raise WeightError(f"arrow {len(arrows)} has zero weight")
                parsed[token] = w
        arrows.append((s, t))
        weights.append(w)
    # ids are dense by construction and every weight is a nonzero Fraction,
    # so the public constructors' checks would find nothing
    return WeightedQuiver._trusted(
        Quiver._trusted(len(ids), tuple(arrows)), tuple(weights)
    ), ids


def load_attributes(
    source: str | os.PathLike | TextIO,
) -> dict[str, frozenset[int]]:
    """Parse an attribute file: vertex id followed by a fixed-width 0/1
    vector. Returns the support of each vector keyed by vertex id."""
    supports: dict[str, frozenset[int]] = {}
    width = None
    for no, fields in _records(source):
        fields = [f.strip() for f in fields]
        if len(fields) < 2:
            raise ParseError("expected a vertex id and at least one bit", no)
        vid, bits = fields[0], fields[1:]
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ParseError(
                f"inconsistent vector width: expected {width}, got {len(bits)}", no
            )
        support = set()
        for i, b in enumerate(bits):
            if b == "1":
                support.add(i)
            elif b != "0":
                raise ParseError(f"attribute vectors are 0/1, got {b!r}", no)
        if vid in supports:
            raise ParseError(f"duplicate attributes for vertex {vid!r}", no)
        supports[vid] = frozenset(support)
    return supports


def jaccard_weights(
    q: Quiver,
    ids: Sequence[str],
    attrs: dict[str, frozenset[int]],
    epsilon: Fraction | None = None,
) -> WeightedQuiver:
    """Reweight arrows by the Jaccard distance between endpoint attribute
    supports: 1 - |A & B| / |A | B|, exactly; two empty supports give
    distance 0. Zero distances become epsilon when given, else an error."""
    weights: list[Fraction] = []
    for a, (s, t) in enumerate(q.arrows):
        for v in (s, t):
            if ids[v] not in attrs:
                raise WeightError(f"no attributes for vertex {ids[v]!r}")
        su, sv = attrs[ids[s]], attrs[ids[t]]
        union = len(su | sv)
        w = Fraction(0) if union == 0 else 1 - Fraction(len(su & sv), union)
        if w == 0:
            if epsilon is None:
                raise WeightError(
                    f"arrow {ids[s]!r}->{ids[t]!r} has Jaccard distance 0 "
                    "(rerun with a zero-weight epsilon)"
                )
            w = epsilon
        weights.append(w)
    return WeightedQuiver(q, weights)


def orient_undirected(
    pairs: Iterable[tuple[int, int]],
) -> tuple[WeightedQuiver, list[str]]:
    """Orient undirected integer-id pairs low->high with weight |u - v|.

    Self-pairs are rejected (their weight would be zero). Returns the
    quiver and the id map in first-seen order.
    """
    ids: list[str] = []
    id_of: dict[int, int] = {}
    arrows: list[tuple[int, int]] = []
    weights: list[Fraction] = []

    def intern(u: int) -> int:
        idx = id_of.get(u)
        if idx is None:
            idx = len(ids)
            id_of[u] = idx
            ids.append(str(u))
        return idx

    for u, v in pairs:
        if u == v:
            raise WeightError(f"self-pair {{{u},{v}}} cannot be oriented")
        lo, hi = (u, v) if u < v else (v, u)
        arrows.append((intern(lo), intern(hi)))
        weights.append(Fraction(abs(u - v)))
    return WeightedQuiver(Quiver(len(ids), arrows), weights), ids


def load_undirected_pairs(
    source: str | os.PathLike | TextIO,
) -> tuple[WeightedQuiver, list[str]]:
    """Parse a two-column undirected pair list with integer ids and
    orient it low->high with weight |u - v|."""
    pairs: list[tuple[int, int]] = []
    for no, fields in _records(source):
        fields = [f.strip() for f in fields]
        if len(fields) != 2:
            raise ParseError(f"expected 2 columns, got {len(fields)}", no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("undirected pairs need integer vertex ids", no) from None
        pairs.append((u, v))
    return orient_undirected(pairs)


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write text to path through a temporary file in the same directory
    that replaces path once complete; nothing is left behind on failure,
    and an OSError names path, not the temporary file."""
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _render_edges(wq: WeightedQuiver, ids: Sequence[str]) -> str:
    """The weighted edge list as text that ``load_weighted_edges`` reads
    back: one `source,target,weight` line per arrow in arrow order, joined
    by tabs instead when some id contains a comma. Ids the loader accepted
    hold no separator of their input, and the first line of a
    comma-separated input holds no tab, so the sniffer reads it back."""
    sep = "\t" if any("," in name for name in ids) else ","
    return "".join(
        f"{ids[s]}{sep}{ids[t]}{sep}{w}\n"
        for (s, t), w in zip(wq.quiver.arrows, wq.weights)
    )


def feature_matrix_csv(fm: FeatureMatrix, ids: Sequence[str]) -> str:
    """The feature matrix as CSV: a `vertex,h1,...,hH` header, then one row
    per vertex. Ids containing `,` or `"` are quoted as the csv module does."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vertex"] + [f"h{k}" for k in range(1, fm.hops + 1)])
    for v, row in enumerate(fm.rows):
        writer.writerow([ids[v], *row])
    return out.getvalue()


def feature_matrix_json(fm: FeatureMatrix, ids: Sequence[str]) -> str:
    from . import __version__

    doc = {
        "config": {
            "hops": fm.hops,
            "seed": fm.seed,
            "field_mode": "exact",
            "tool_version": __version__,
        },
        "vertices": list(ids),
        "rows": [list(row) for row in fm.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_feature_matrix(fm: FeatureMatrix, ids: Sequence[str], fmt: str = "csv") -> str:
    """The feature matrix as CSV or JSON text."""
    if fmt == "csv":
        return feature_matrix_csv(fm, ids)
    if fmt == "json":
        return feature_matrix_json(fm, ids)
    raise ValueError(f"unknown format {fmt!r}")


def write_feature_matrix(
    fm: FeatureMatrix,
    path: str | os.PathLike,
    ids: Sequence[str],
    fmt: str = "csv",
) -> None:
    """Write the feature matrix as CSV or JSON (atomically: temp + rename)."""
    _atomic_write(path, render_feature_matrix(fm, ids, fmt))


def read_feature_matrix(
    source: str | os.PathLike | TextIO, fmt: str = "csv"
) -> tuple[list[list[int]], list[str]]:
    """Parse a written feature matrix back into (rows, vertex ids)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_feature_matrix(fh, fmt)
    if fmt == "json":
        doc = json.load(source)
        return [list(map(int, r)) for r in doc["rows"]], list(doc["vertices"])
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    rows: list[list[int]] = []
    ids: list[str] = []
    records = csv.reader(source)
    next(records, None)  # header
    for fields in records:
        if fields:
            ids.append(fields[0])
            rows.append([int(x) for x in fields[1:]])
    return rows, ids


def to_dot(
    wq: WeightedQuiver,
    ids: Sequence[str] | None = None,
    feedback: Iterable[int] = (),
) -> str:
    """Render the quiver in DOT syntax; feedback arrows are dashed.
    Names are double-quoted with `\\` and `"` backslash-escaped."""
    q = wq.quiver
    names = ids if ids is not None else [str(v) for v in range(q.vertex_count)]
    quoted = [
        '"' + names[v].replace("\\", "\\\\").replace('"', '\\"') + '"'
        for v in range(q.vertex_count)
    ]
    dashed = set(feedback)
    out = io.StringIO()
    out.write("digraph quiver {\n")
    for name in quoted:
        out.write(f"  {name};\n")
    # each distinct weight object is formatted once; wq.weights keeps the
    # objects alive, so their ids are stable (the loader shares one object
    # per distinct token, and id() avoids the Python-level Fraction hash)
    labels: dict[int, str] = {}
    for a, (s, t) in enumerate(q.arrows):
        w = wq.weights[a]
        label = labels.get(id(w))
        if label is None:
            label = labels[id(w)] = format(w)
        style = ", style=dashed" if a in dashed else ""
        out.write(f'  {quoted[s]} -> {quoted[t]} [label="{label}"{style}];\n')
    out.write("}\n")
    return out.getvalue()
