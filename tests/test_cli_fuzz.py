"""A seeded fuzz of the command line: every subcommand on mutated fixture documents.

Each run mutates one to three fixture documents one to three times each and runs one
subcommand on them through `wph.cli.main`, in process.  Whatever the documents say,
the run must end in a documented exit code (0, 2, 3 or 4) and never in a traceback.
"""
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path as FsPath

import pytest

from wph.cli import main

from helpers import FIXTURES

SEED = 19
RUNS = 300
TESTS = FsPath(__file__).resolve().parent
SCALARS = [None, True, False, 0, 1, -1, 2, 7, 10 ** 30, 2.5, "", "a", "a'", "x''", "{a,b}", "1/0", "1/2", "Z", "Q", [], {}]
FUNCTORS = ["natural", "connective", "bold", "underlying", "density2", "cylinder", "box:I1f", "box:I1b"]


NAMED = {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
DOCUMENTS = {
    prefix: [doc for name, doc in NAMED.items() if name.startswith(prefix)]
    for prefix in ("pc_", "dg_", "dh_", "hg_", "mor_", "chain_")
}
HOMOTOPIES = {  # documents that make a passing homotopy-check, before any mutation
    "pathcx": ["pc_point_q", "pc_edge_q", "mor_a_to_x", "mor_a_to_y", "chain_a_xy"],
    "dhyper": ["dh_mor_source", "dh_square_sets", "mor_dh_f", "mor_dh_g"],
}


def nodes(doc) -> list:
    """Every (container, key) pair of the document: the places a mutation can hit."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        found += nodes(value)
    return found


def labels(doc) -> list:
    if isinstance(doc, str):
        return [doc]
    values = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return [s for value in values for s in labels(value)]


def mutate(rng: random.Random, doc) -> object:
    """The document with one to three random edits: a value replaced by a scalar, a
    container or another label of the document, an entry dropped, or a list entry doubled."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(nodes(doc))
        edit = rng.randrange(4)
        if edit == 0:
            container[key] = copy.deepcopy(rng.choice(SCALARS))
        elif edit == 1:
            container[key] = rng.choice(labels(doc) or ["a"])
        elif edit == 2:
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = [copy.deepcopy(container[key])]
    return doc


def argv_for(rng: random.Random, write) -> list:
    """One subcommand with its documents, some of them mutated; `write` stores a document
    and returns its file name."""

    def mutated(document, chance: float) -> str:
        return write(mutate(rng, document) if rng.random() < chance else document)

    def doc(prefix: str) -> str:  # a fixture of one kind, mostly mutated
        return mutated(rng.choice(DOCUMENTS[prefix]), 0.7)

    def named(name: str) -> str:  # one of a set of documents that fit together, sometimes mutated
        return mutated(NAMED[name], 0.3)

    command = rng.choice(["validate", "homology", "functor", "homotopy-check", "prism-check"])
    if command == "validate":
        return ["validate", doc(rng.choice(list(DOCUMENTS)))]
    if command == "homology":
        pipeline = rng.choice(["direct", "natural", "connective", "bold", "density2"])
        return [
            "homology", doc("pc_" if pipeline == "direct" else "dh_"), "--pipeline", pipeline,
            "--coeff", rng.choice(["z", "q", "mod:2", "mod:3", "mod:4"]),
            "--max-dim", str(rng.randint(1, 3)), "--maxlen", str(rng.randint(0, 2)),
        ] + ["--unweighted"] * rng.randint(0, 1)
    if command == "functor":
        return ["functor", doc(rng.choice(["pc_", "dg_", "dh_"])), "--functor", rng.choice(FUNCTORS),
                "--maxlen", str(rng.randint(0, 2))]
    if command == "prism-check":
        return ["prism-check", doc("pc_"), "--degree", str(rng.randint(0, 3)), "--samples", str(rng.randint(1, 5))]
    category = rng.choice(["pathcx", "dhyper"])
    source, target, f, g, *chain = HOMOTOPIES[category]
    argv = ["homotopy-check", named(source), named(target), "--f", named(f), "--g", named(g),
            "--category", category, "--max-dim", str(rng.randint(0, 2)), "--maxlen", str(rng.randint(0, 2))]
    argv += ["--strictness", rng.choice(["strict", "allow-degenerate" if category == "pathcx" else "reflexive"])]
    if chain and rng.random() < 0.4:
        argv += ["--mode", "chain", "--chain", named(chain[0])]
    return argv + ["--certify-chain-homotopy"] * rng.randint(0, 1)


def fuzz_outcomes(runs: int, directory) -> list:
    """(argv, exit code, stdout, stderr) of the first `runs` runs at SEED, with the documents
    written to directory; a run that raises, or that argparse gives up on, has the
    exception's type and message for its exit code."""
    rng = random.Random(SEED)
    written = []

    def write(document) -> str:
        path = FsPath(directory) / f"doc{len(written)}.json"
        path.write_text(json.dumps(document))
        written.append(path)
        return str(path)

    outcomes = []
    for _ in range(runs):
        argv = argv_for(rng, write)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a traceback, or argparse giving up
                code = f"{type(exc).__name__}: {exc}"
        outcomes.append((argv, code, out.getvalue(), err.getvalue()))
    return outcomes


def test_mutated_documents_end_in_a_documented_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("WPH_COLOR", "never")
    start = time.perf_counter()
    outcomes = fuzz_outcomes(RUNS, tmp_path)
    elapsed = time.perf_counter() - start
    for run, (argv, code, _, _) in enumerate(outcomes):
        assert code in (0, 2, 3, 4), (run, argv, code)
    codes = Counter(code for _, code, _, _ in outcomes)
    assert set(codes) >= {0, 2}, codes  # the fuzz reaches both the engine and the refusals
    assert elapsed < 3, f"{RUNS} runs took {elapsed:.1f} s"


def test_fuzzed_runs_print_the_same_under_two_hash_seeds(tmp_path):
    # criterion 9: stdout, stderr and exit codes may not depend on the order of sets of strings
    runs = 2000
    seen = {}
    for seed in ("0", "1"):
        directory = tmp_path / seed
        directory.mkdir()
        env = dict(
            os.environ, PYTHONHASHSEED=seed, WPH_COLOR="never", PYTHONDONTWRITEBYTECODE="1",
            PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
        )
        proc = subprocess.run(
            [sys.executable, __file__, str(directory), str(runs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seen[seed] = json.loads(proc.stdout)
    assert len(seen["0"]) == len(seen["1"]) == runs
    for run, (a, b) in enumerate(zip(seen["0"], seen["1"])):
        assert a == b, run


if __name__ == "__main__":  # print the fuzz outcomes as JSON, the documents' directory written <dir>
    directory = sys.argv[1]
    print(json.dumps([
        [text.replace(directory, "<dir>") if isinstance(text, str) else text for text in (" ".join(argv), *rest)]
        for argv, *rest in fuzz_outcomes(int(sys.argv[2]), directory)
    ]))
