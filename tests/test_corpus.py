"""A pinned CLI output corpus: byte identity of every command's output.

A seeded generator draws 40 small DAGs and runs each in process through a
fixed list of command lines. The exit code, stdout and stderr of every run
are hashed with SHA-256, one digest per command line, and the digests are
pinned. A refactor that changes any byte any command prints fails here.
"""

from __future__ import annotations

import hashlib
import random

from quivhom.cli import main

COMMANDS = {
    "homology": ["homology"],
    "homology-float": ["homology", "--field", "float"],
    "homology-matrix": ["homology", "--matrix"],
    "homology-kernel": ["homology", "--kernel-basis"],
    "homology-matrix-float": ["homology", "--matrix", "--field", "float"],
    "oracle": ["oracle", "--n-max", "3"],
    "oracle-float": ["oracle", "--field", "float", "--n-max", "2"],
    "oracle-ell2": ["oracle", "--ell", "2"],
    "fas": ["fas", "--seed", "3"],
    "features-csv": ["features", "-H", "3"],
    "features-json": ["features", "-H", "3", "--format", "json"],
}

PINNED_CORPUS_SHA256 = {
    "homology": (
        "2458efc424ca972f4dcb42c8aa623bcac351074c0d44aded006a3f8f8673de4c"),
    "homology-float": (
        "2458efc424ca972f4dcb42c8aa623bcac351074c0d44aded006a3f8f8673de4c"),
    "homology-matrix": (
        "698d6c2706c2610fab8b1253d2e66e7e3eb3fafaaefdfd6d4256ca7394da9d8f"),
    "homology-kernel": (
        "af1b73966b1dbe0059fb8345bee63b15008d0e0758b974d797be4f1cc0d72c69"),
    "homology-matrix-float": (
        "6affdb933cff91c9021203d165a05f53224d7adccc5a2cc84d51a37abcc29c3c"),
    "oracle": (
        "2eed9bc0d276ea79641a0e250a2e432bee4f9a36f0dabfe9d1623e6764b9fcc1"),
    "oracle-float": (
        "24676e8ad7f5b06f00e7fd3d500617a81aaae6896add29de7abef7ed420fb617"),
    "oracle-ell2": (
        "426578eb06f4250db44e753395324a78e66a6f0e04fe760e6e70bbef1ce0a646"),
    "fas": (
        "80acbe5f86ef9853086b21e50c178b54135f73f6bd5aa229e64a44786a53f3cf"),
    "features-csv": (
        "61f4ba64130b0b863f18d89701073f4f33ca510962618fdd334e788567c20fd8"),
    "features-json": (
        "bce4556a3b7255e185cad1b8f984f6ba674f4a9d28c78b405c559fcf150d550c"),
}


def corpus_dags(count: int = 40, seed: int = 2024) -> list[str]:
    """Edge-list texts of seeded DAGs: 2-14 vertices, up to 3N arcs along a
    hidden vertex order (parallel arcs allowed), and weights +-(1..9)/(1..9),
    or 64-bit numerators and denominators on every third DAG."""
    rng = random.Random(seed)
    texts = []
    for k in range(count):
        n = rng.randint(2, 14)
        order = list(range(n))
        rng.shuffle(order)
        bound = 2**64 - 1 if k % 3 == 2 else 9
        lines = []
        for _ in range(rng.randint(0, 3 * n)):
            i, j = sorted(rng.sample(range(n), 2))
            w = rng.choice((-1, 1)) * rng.randint(1, bound)
            lines.append(f"v{order[i]},v{order[j]},{w}/{rng.randint(1, bound)}")
            if rng.random() < 0.15:
                lines.append(lines[-1])
        texts.append("\n".join(lines) + "\n")
    return texts


def test_cli_output_corpus_pinned_digest(tmp_path, capsys):
    paths = []
    for k, text in enumerate(corpus_dags()):
        path = tmp_path / f"dag{k}.csv"
        path.write_text(text)
        paths.append(str(path))
    digests = {}
    for name, argv in COMMANDS.items():
        h = hashlib.sha256()
        for path in paths:
            code = main([*argv[:1], path, *argv[1:]])
            out, err = capsys.readouterr()
            h.update(f"{code}\0{out}\0{err}\0".encode())
        digests[name] = h.hexdigest()
    assert digests == PINNED_CORPUS_SHA256
