"""The benchmark's workloads: seeded inputs, the timed operations, and answer checks.

Each workload turns a seed into a fixed batch of operations ("ops").  An op is
one top-level user call into `wph`, made through the package's public API or
through `wph.cli.main`.  The program sees only the inputs generated here.

Answers are checked after the timed region: against the stored references in
`refs.json` when the seed has one, otherwise free ranks against the
independent rational oracle (`wph.oracle.homology_dimensions`), with torsion
reported as unchecked.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
REFS = BENCH_DIR / "refs.json"
WORK = BENCH_DIR / "_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import wph  # noqa: E402

if Path(wph.__file__).resolve().parent != SRC / "wph":
    raise ImportError(f"wph imported from {wph.__file__}, not from this checkout's src/")

# Layers are reached through their modules, never through names copied out of
# them, so the tracer's rebinding of module attributes covers the benchmark too.
from wph import chain, cli, dhyper, digraph, oracle, pathcx  # noqa: E402
from wph import homotopy as wph_homotopy  # noqa: E402
from wph import io as wio  # noqa: E402
from wph.algebra import QQ, ZZ  # noqa: E402

# run.py's default seed, and a seed held out while the benchmark was tuned.
REFERENCE_SEEDS = (17, 5)

# Instance and batch sizes.  Every op is short (at most about 0.1 s on a
# shared 2-vCPU Intel Xeon VM at the commit that introduced the benchmark), so
# a run repeats each op many times and can report its best time; one round of
# a batch takes about 0.25-0.5 s there.
COMPLETE_VERTICES, COMPLETE_LENGTH, COMPLETE_OPS = 4, 2, 8
GRID_ROWS, GRID_COLS, GRID_LENGTH, GRID_OPS = 3, 4, 4, 8
CERT_PAIRS = 20
CERT_GENERATOR_SEED = 17  # the acceptance suite's criterion-5 instances
CERT_MAX_PATHS = 11  # larger shapes take 0.2-4 s per certificate
HYPER_PIPELINES = ("natural", "connective", "bold")
# The seven commands that take 0.07-8 s each; see NOTES.md, "Exclusions".
HYPER_SKIPPED = {
    ("dh_merge", "bold"), ("dh_mixed_sizes", "bold"), ("dh_shared_origin", "bold"), ("dh_split_join", "bold"),
    ("dh_single", "bold"), ("dh_merge", "connective"), ("dh_mixed_sizes", "connective"),
}


@dataclass
class Op:
    """One timed call.  `run` returns the answer that `check` inspects."""

    label: str
    run: Callable[[], object]


@dataclass
class Batch:
    ops: list
    # Called once per op after timing: (index, answer) -> problem text or None.
    check: Callable[[int, object], object]
    notes: list = field(default_factory=list)
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _load_refs(workload: str, seed: int, use_refs: bool):
    if not use_refs or not REFS.exists():
        return None
    refs = json.loads(REFS.read_text())
    return refs.get(str(seed), {}).get(workload)


def balanced_weights(rng: random.Random, n: int, values: range) -> list:
    """A seeded shuffle of `values` repeated to length n.

    Every draw has the same multiset of weights, so the seed moves the weights
    around but not the size of the numbers the elimination meets; independent
    draws made the cost of one op vary by up to 2x between seeds.
    """
    weights = (list(values) * (n // len(values) + 1))[:n]
    rng.shuffle(weights)
    return weights


def groups_answer(result) -> list:
    return [[g.free_rank, [int(t) for t in g.torsion]] for g in result.groups]


# --- complete-z and grid-z: homology(paths_functor(G, L), L) over Z ---------


def complete_digraph(n: int, weights: list):
    vs = [pathcx.Vertex(chr(ord("a") + i)) for i in range(n)]
    edges = [(x, y) for x in vs for y in vs if x != y]
    return digraph.WeightedDigraph.build(vs, edges, dict(zip(vs, weights)), ZZ)


def grid_digraph(rows: int, cols: int, weights: list):
    vs = [pathcx.Vertex(f"v{i}{j}") for i in range(rows) for j in range(cols)]
    edges = [(vs[i * cols + j], vs[i * cols + j + 1]) for i in range(rows) for j in range(cols - 1)]
    edges += [(vs[i * cols + j], vs[(i + 1) * cols + j]) for i in range(rows - 1) for j in range(cols)]
    return digraph.WeightedDigraph.build(vs, edges, dict(zip(vs, weights)), ZZ)


def _digraph_batch(name: str, seed: int, graphs: list, length: int, use_refs: bool) -> Batch:
    refs = _load_refs(name, seed, use_refs)

    def op_for(g):
        return lambda: groups_answer(chain.homology(digraph.paths_functor(g, length), length))

    def check(i, answer):
        if refs is not None:
            return None if answer == refs[i] else f"groups {answer} != reference {refs[i]}"
        want = oracle.homology_dimensions(digraph.paths_functor(graphs[i], length), length)
        got = [free for free, _ in answer]
        return None if got == want else f"free ranks {got} != oracle {want}"

    ops = [Op(f"{name}[{i}]", op_for(g)) for i, g in enumerate(graphs)]
    notes = [] if refs is not None else ["torsion unchecked (no stored reference for this seed)"]
    return Batch(ops, check, notes)


def complete_z(seed: int, use_refs: bool = True) -> Batch:
    rng = random.Random(seed)
    n = COMPLETE_VERTICES
    graphs = [complete_digraph(n, [rng.randint(1, 4) for _ in range(n)]) for _ in range(COMPLETE_OPS)]
    return _digraph_batch("complete-z", seed, graphs, COMPLETE_LENGTH, use_refs)


def grid_z(seed: int, use_refs: bool = True) -> Batch:
    rng = random.Random(seed)
    r, c = GRID_ROWS, GRID_COLS
    graphs = [grid_digraph(r, c, balanced_weights(rng, r * c, range(1, 4))) for _ in range(GRID_OPS)]
    return _digraph_batch("grid-z", seed, graphs, GRID_LENGTH, use_refs)


# --- certify-q: chain-homotopy certificates for the cylinder inclusions -----


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([x for x in range(-4, 5) if x != 0]), rng.randint(1, 4))


def criterion5_complex(rng: random.Random, max_vertices: int = 5, maxlen: int = 3):
    """One draw of the acceptance suite's criterion-5 generator (Q, nonzero weights)."""
    n = rng.randint(2, max_vertices)
    verts = [pathcx.Vertex(chr(ord("a") + i)) for i in range(n)]
    paths = []
    for _ in range(rng.randint(1, 2 * n)):
        length = rng.randint(1, maxlen)
        walk = [rng.choice(verts)]
        while len(walk) < length + 1:
            walk.append(rng.choice(verts))
        paths.append(pathcx.Path(tuple(walk)))
    weights = {v: _nonzero_rational(rng) for v in verts}
    return pathcx.complex_from_paths(paths, weights=weights, ring=QQ)


def criterion5_complexes(count: int = CERT_PAIRS, seed: int = CERT_GENERATOR_SEED) -> list:
    rng = random.Random(seed)
    return [criterion5_complex(rng) for _ in range(count)]


def certify_q(seed: int, use_refs: bool = True) -> Batch:
    """The small criterion-5 complexes with weights redrawn from the workload seed.

    The shapes stay those of the acceptance suite's 20 instances with at most
    `CERT_MAX_PATHS` paths.  The cost of the 20 spans three orders of
    magnitude; drawing new shapes per seed would let one outsized complex
    dominate a run.
    """
    rng = random.Random(seed)
    pairs = []
    for pc in criterion5_complexes():
        if len(pc.paths) > CERT_MAX_PATHS:
            continue
        pc = pc.reweighted({v: _nonzero_rational(rng) for v in pc.sorted_vertices()}, QQ)
        pairs.append((pathcx.inclusion_bottom(pc), pathcx.inclusion_top(pc)))
    refs = _load_refs("certify-q", seed, use_refs)

    def op_for(f, g):
        def run():
            cert = wph_homotopy.chain_homotopy_certificate(f, g, 3)
            return [cert.ok, cert.identity_holds, cert.homology_maps_equal]

        return run

    def check(i, answer):
        want = refs[i] if refs is not None else [True, True, True]
        return None if answer == want else f"certificate flags {answer} != {want}"

    ops = [Op(f"certify-q[{i}]", op_for(f, g)) for i, (f, g) in enumerate(pairs)]
    return Batch(ops, check)


# --- hyper-cli: `wph homology` on hypergraph box products ------------------

_GROUP_LINE = re.compile(r"^H_\d+ = .*\(free_rank=(\d+), torsion=\[[\d, ]*\]\)$")


def hyper_inputs(seed: int, workdir: Path) -> list:
    """Write G x I_1 for every vendored hypergraph G, with seed-drawn weights."""
    rng = random.Random(seed)
    files = []
    for src in sorted(INPUTS.glob("dh_*.json")):
        g = wio.parse(src.read_bytes()).body
        vertices = sorted(g.vertices)
        weights = dict(zip(vertices, balanced_weights(rng, len(vertices), range(1, 4))))
        g = dhyper.DirectedHypergraph.build(list(g.arrows), weights, g.ring)
        box = dhyper.hyper_box_product(g, digraph.LineDigraph.forward(1))
        out = workdir / src.name
        out.write_bytes(wio.emit(box))
        files.append(out)
    return files


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _pipeline_complex(path: Path, pipeline: str, maxlen: int):
    g = wio.parse(path.read_bytes()).body
    if pipeline == "natural":
        return digraph.paths_functor(dhyper.natural_digraph(g), maxlen)
    return dhyper.vertex_weighted_complex(g, {"connective": "c", "bold": "b"}[pipeline], maxlen)


def hyper_cli(seed: int, use_refs: bool = True) -> Batch:
    os.environ["WPH_COLOR"] = "never"
    workdir = WORK / f"hyper-cli-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    files = hyper_inputs(seed, workdir)
    refs = _load_refs("hyper-cli", seed, use_refs)
    cases = [(f, p) for f in files for p in HYPER_PIPELINES if (f.stem, p) not in HYPER_SKIPPED]

    def op_for(f, p):
        argv = ["homology", str(f), "--pipeline", p, "--max-dim", "3", "--maxlen", "3"]
        return lambda: run_cli(argv)

    def check(i, answer):
        rc, stdout = answer
        if rc != 0:
            return f"exit code {rc}"
        if refs is not None:
            return None if stdout == refs[i] else "stdout differs from the reference bytes"
        got = [int(m.group(1)) for m in map(_GROUP_LINE.match, stdout.splitlines()) if m]
        f, p = cases[i]
        want = oracle.homology_dimensions(_pipeline_complex(f, p, 3), 3)
        return None if got == want else f"free ranks {got} != oracle {want}"

    ops = [Op(f"hyper-cli[{f.stem}:{p}]", op_for(f, p)) for f, p in cases]
    notes = [] if refs is not None else ["torsion unchecked (no stored reference for this seed)"]
    return Batch(ops, check, notes, workdir)


WORKLOADS = {
    "complete-z": complete_z,
    "grid-z": grid_z,
    "certify-q": certify_q,
    "hyper-cli": hyper_cli,
}
