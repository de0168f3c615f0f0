"""Command-line front end.

Subcommands: ``homology`` (dim H1 of a weighted edge list), ``features``
(per-vertex feature matrix), ``fas`` (feedback arc report), ``oracle``
(brute-force homology table with a fast-path cross-check), ``jaccard``
and ``orient`` (weight-derivation recipes emitting weighted edge lists).

Exit codes: 0 success, 1 I/O or parse failure, 2 precondition violation
(cyclic input, zero weights, bad config), 3 resource guard tripped or
memory exhausted.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    ChainCapExceeded,
    CyclicQuiverError,
    ParseError,
    QuivhomError,
    WeightError,
)
from .fas import berger_shor
from .features import feature_matrix
from .homology import (
    build_chain_complex,
    dim_h1,
    homology_dims,
    scalar_representation,
)
from .ingest import (
    _atomic_write,
    _render_edges,
    jaccard_weights,
    load_attributes,
    load_undirected_pairs,
    load_weighted_edges,
    render_feature_matrix,
    to_dot,
)
from .linalg import _F0, EXACT, FLOAT, _kernel_sparse
from .quiver import WeightedQuiver, _chain_counts, is_acyclic, find_cycle

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_GUARD = 3


def _input(path: str):
    """The input path, or stdin for '-', read as UTF-8 whatever the locale."""
    if path != "-":
        return path
    if hasattr(sys.stdin, "reconfigure"):  # a replaced sys.stdin may lack it
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    return sys.stdin


def _epsilon(args) -> Fraction | None:
    if args.zero_weight_epsilon is None:
        return None
    try:
        eps = Fraction(args.zero_weight_epsilon)
    except (ValueError, ZeroDivisionError):
        raise WeightError(
            f"zero-weight epsilon {args.zero_weight_epsilon!r} is not a rational"
        ) from None
    if eps <= 0:
        raise WeightError("zero-weight epsilon must be positive")
    return eps


def _field_args(args) -> tuple[str, float]:
    mode = FLOAT if args.field == "float" else EXACT
    if mode == FLOAT and not (math.isfinite(args.tol) and args.tol > 0):
        raise WeightError("float mode needs a finite positive tolerance")
    return mode, args.tol


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _dagify(wq: WeightedQuiver, args, ids) -> WeightedQuiver:
    if is_acyclic(wq.quiver):
        return wq
    if not getattr(args, "dagify", False):
        cycle = find_cycle(wq.quiver)
        named = " -> ".join(ids[v] for v in cycle) if cycle else "?"
        raise CyclicQuiverError(
            f"input contains a directed cycle ({named}); rerun with --dagify",
            cycle=cycle,
        )
    return berger_shor(wq, args.seed).kept


def cmd_homology(args) -> int:
    wq, ids = load_weighted_edges(_input(args.edges), _epsilon(args))
    wq = _dagify(wq, args, ids)
    mode, tol = _field_args(args)
    if args.kernel_basis and mode != EXACT:
        raise WeightError("kernel basis needs exact mode")
    rep = scalar_representation(mode)
    if args.dot is not None:
        _write_text(args.dot, to_dot(wq, ids))
    # one l = 1 complex serves the float H1, the matrix and the kernel basis
    cc = None
    if mode == FLOAT or args.matrix or args.kernel_basis:
        cc = build_chain_complex(wq, rep, 2, 1)
    h1 = homology_dims(cc, tol)[1] if mode == FLOAT else dim_h1(wq, rep, tol)
    print(f"dim H1 = {h1}")
    if args.matrix:
        # one dense row at a time from the sparse columns: the matrix is N x M
        cols = cc.columns[1]
        rows: list[list] = [[] for _ in range(wq.vertex_count)]
        for c, col in enumerate(cols):
            for r, x in col.items():
                rows[r].append((c, x))
        zero = "0.0" if mode == FLOAT else "0"
        for entries in rows:
            line = [zero] * len(cols)
            for c, x in entries:
                line[c] = str(x)
            print(" ".join(line))
    if args.kernel_basis:
        # nearly every entry is the shared zero, printed without str()
        for vec in _kernel_sparse(cc.columns[1]):
            print("kernel: (" + ", ".join(["0" if x is _F0 else str(x) for x in vec]) + ")")
    return EXIT_OK


def cmd_features(args) -> int:
    wq, ids = load_weighted_edges(_input(args.edges), _epsilon(args))
    fm = feature_matrix(wq, args.hops, args.seed, threads=args.threads)
    print(f"config: hops={args.hops} seed={args.seed} field={EXACT}", file=sys.stderr)
    _write_text(args.output, render_feature_matrix(fm, ids, args.format))
    return EXIT_OK


def cmd_fas(args) -> int:
    wq, ids = load_weighted_edges(_input(args.edges), _epsilon(args))
    res = berger_shor(wq, args.seed)
    if args.dot is not None:
        _write_text(args.dot, to_dot(wq, ids, feedback=res.feedback))
    arrows = wq.quiver.arrows
    lines = [
        f"seed = {res.seed}",
        f"arcs = {len(arrows)}, kept = {len(res.kept_arrows)}, feedback = {len(res.feedback)}",
    ]
    for a in sorted(res.feedback):
        s, t = arrows[a]
        lines.append(f"feedback: {ids[s]} -> {ids[t]} (arrow {a})")
    # one write: the report has a line per feedback arc
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle(args) -> int:
    # the table's last line compares H1, so degree 2 must be in the complex
    if args.n_max < 2:
        raise ValueError("n-max must be at least 2")
    if args.ell is not None and args.ell < 0:
        raise ValueError("ell must be nonnegative")
    if args.chain_cap < 0:
        raise ValueError("chain-cap must be nonnegative")
    wq, ids = load_weighted_edges(_input(args.edges), _epsilon(args))
    wq = _dagify(wq, args, ids)
    mode, tol = _field_args(args)
    rep = scalar_representation(mode)
    total = sum(_chain_counts(wq.quiver, args.n_max, args.ell))
    if total > args.chain_cap:
        raise ChainCapExceeded(total, args.chain_cap)
    complex_ = build_chain_complex(wq, rep, args.n_max, args.ell)
    dims = homology_dims(complex_, tol)
    sizes = complex_.basis_sizes()
    print("degree  chains  dim H")
    for n, h in enumerate(dims):
        print(f"{n:>6}  {sizes[n]:>6}  {h:>5}")
    fast = dim_h1(wq, rep, tol)
    if args.ell is None:
        # a hereditary path algebra: H0 - H1 = N - M, H_n = 0 for n >= 2
        want = [dims[1] + wq.vertex_count - wq.arrow_count, fast] + [0] * len(dims)
        bad = [n for n, h in enumerate(dims) if h != want[n] and (mode == EXACT or n == 1)]
        verdict = f"NO (degree {bad[0]})" if bad else "yes"
        print(f"fast-path dim H1 = {fast}; matches fast path: {verdict}")
    else:
        print(f"fast-path dim H1 (untruncated) = {fast}; truncated H1 = {dims[1]}")
    return EXIT_OK


def cmd_jaccard(args) -> int:
    wq, ids = load_weighted_edges(_input(args.edges))
    attrs = load_attributes(args.attributes)
    eps = _epsilon(args)
    weighted = jaccard_weights(wq.quiver, ids, attrs, eps)
    _write_text(args.output, _render_edges(weighted, ids))
    return EXIT_OK


def cmd_orient(args) -> int:
    wq, ids = load_undirected_pairs(_input(args.pairs))
    _write_text(args.output, _render_edges(wq, ids))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, dagify: bool = False) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--zero-weight-epsilon", default=None, metavar="Q",
                   help="replace zero weights with this positive rational")
    if dagify:
        p.add_argument("--dagify", action="store_true",
                       help="break cycles with the feedback-arc-set pass first")


def _add_field(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", choices=["exact", "float"], default="exact",
                   help="field mode for rank computations")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="pivot tolerance in float mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivhom",
        description="Homology of weighted directed graphs and per-vertex "
                    "homology feature vectors.",
    )
    parser.add_argument("--version", action="version", version=f"quivhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="dim H1 of a weighted edge list")
    p.add_argument("edges", help="edge list path, or - for stdin")
    _add_common(p, dagify=True)
    _add_field(p)
    p.add_argument("--matrix", action="store_true", help="print the boundary matrix")
    p.add_argument("--kernel-basis", action="store_true",
                   help="print a kernel basis (exact mode)")
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="write the analyzed quiver in DOT format")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("features", help="per-vertex homology feature matrix")
    p.add_argument("edges", help="edge list path, or - for stdin")
    _add_common(p)
    p.add_argument("-H", "--hops", type=int, default=3, help="hop levels (columns)")
    p.add_argument("--threads", type=int, default=1,
                   help="deprecated and ignored: rows are built serially in "
                        "one thread; still accepted, and must be positive")
    p.add_argument("--output", "-o", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("fas", help="feedback arc report")
    p.add_argument("edges", help="edge list path, or - for stdin")
    _add_common(p)
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="write the quiver (feedback arcs dashed) in DOT format")
    p.set_defaults(func=cmd_fas)

    p = sub.add_parser("oracle", help="brute-force homology table")
    p.add_argument("edges", help="edge list path, or - for stdin")
    _add_common(p, dagify=True)
    _add_field(p)
    p.add_argument("--n-max", type=int, default=3, help="top chain degree (at least 2)")
    p.add_argument("--ell", type=int, default=None,
                   help="truncate chains by composite path length")
    p.add_argument("--chain-cap", type=int, default=200_000,
                   help="refuse inputs with more chains than this (default "
                        "200000; a DAG with 143,899 chains took 5 s and 148 MB "
                        "on a 2-core Xeon)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("jaccard",
                       help="derive weights from 0/1 attribute vectors "
                            "(emits a weighted edge list)")
    p.add_argument("edges", help="edge list path, or - for stdin")
    p.add_argument("attributes", help="attribute file path")
    p.add_argument("--zero-weight-epsilon", default=None, metavar="Q",
                   help="replace zero Jaccard distances with this rational")
    p.add_argument("--output", "-o", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_jaccard)

    p = sub.add_parser("orient",
                       help="orient an undirected integer pair list low->high "
                            "with weight |u-v| (emits a weighted edge list)")
    p.add_argument("pairs", help="pair list path, or - for stdin")
    p.add_argument("--output", "-o", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_orient)

    return parser


# the parser main() reuses; built on its first call, not at import, so an
# import stays cheap
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command line; in-process callers share one parser."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChainCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except (QuivhomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
