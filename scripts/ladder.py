#!/usr/bin/env python3
"""Time the workload ladder: Omega build and homology, rung by rung.

The rungs are the path complexes of the complete digraphs K4, K5 and K6
(vertices a, b, ..., weights 1..n, or 2..n+1 on the "w2-6" and "w2-7" rungs, or
all 1 on the "w1" rung) and of the k x k right/down grid digraphs (vertex (i, j)
of weight 1 + (7i + j) mod 3), and the bold and connective complexes of the box
product of fixtures/dh_merge.json with I_1, each at path length L = N.  Most
paths of the last two are irregular: bold at L5 has 4344 paths, 608 of them
regular, and connective at L6 has 952, 40 of them regular.  For every rung this prints
the best time over --repeat runs of building the rung's complex (functor_s: the
functor, which walks on vertex numbers and stores the paths as code buckets), of
`build_omega` on that fresh complex (its regular filter of the codes included) and of
`homology_of_omega` on the built Omega, and the homology groups as (free rank,
torsion) pairs.
The certificate rungs then time `chain_homotopy_certificate` with max degree N,
for the cylinder inclusions of a rung's complex and, on the "bottom" rung, for
the bottom inclusion as its own homotopy under allow_degenerate (a homotopy that
is not the identity of its target), and print its flags (ok, identity_holds,
homology_maps_equal).

    python3 scripts/ladder.py --repeat 3
"""
import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wph import io as wio
from wph.algebra import QQ, ZZ, Zmod
from wph.chain import build_omega, homology_of_omega
from wph.dhyper import bold_functor, connective_functor, hyper_box_product
from wph.digraph import LineDigraph, WeightedDigraph, paths_functor
from wph.homotopy import chain_homotopy_certificate
from wph.pathcx import Vertex, inclusion_bottom, inclusion_top


def complete(n: int, ring, weights=None) -> WeightedDigraph:
    """K_n on vertices a, b, ..., weighted 1..n unless `weights` lists the weights in vertex order."""
    vs = [Vertex(chr(ord("a") + i)) for i in range(n)]
    weights = range(1, n + 1) if weights is None else weights
    return WeightedDigraph.build(vs, [(x, y) for x in vs for y in vs if x != y], dict(zip(vs, weights)), ring)


def grid(k: int) -> WeightedDigraph:
    vs = {(i, j): Vertex(f"v{i}_{j}") for i in range(k) for j in range(k)}
    edges = [(vs[i, j], vs[i, j + 1]) for i in range(k) for j in range(k - 1)]
    edges += [(vs[i, j], vs[i + 1, j]) for i in range(k - 1) for j in range(k)]
    return WeightedDigraph.build(vs.values(), edges, {v: 1 + (7 * i + j) % 3 for (i, j), v in vs.items()}, ZZ)


def merge_box():
    """fixtures/dh_merge.json, one arrow {a, b} -> {c, d} over Z, boxed with I_1."""
    g = wio.parse((Path(__file__).resolve().parent.parent / "fixtures" / "dh_merge.json").read_bytes()).body
    return hyper_box_product(g, LineDigraph.forward(1))


RUNGS = (  # (name, path complex builder taking L, L = N)
    ("K4 L3 Z", lambda n: paths_functor(complete(4, ZZ), n), 3),
    ("K4 L4 Z", lambda n: paths_functor(complete(4, ZZ), n), 4),
    ("K5 L3 Z", lambda n: paths_functor(complete(5, ZZ), n), 3),
    ("K5 L3 Q", lambda n: paths_functor(complete(5, QQ), n), 3),
    ("K5 L3 Z/7", lambda n: paths_functor(complete(5, Zmod(7)), n), 3),
    ("5x5 grid L4 Z", lambda n: paths_functor(grid(5), n), 4),
    ("8x8 grid L5 Z", lambda n: paths_functor(grid(8), n), 5),
    ("12x12 grid L6 Z", lambda n: paths_functor(grid(12), n), 6),
    ("K5 L4 Z", lambda n: paths_functor(complete(5, ZZ), n), 4),
    ("K5 L3 Z w2-6", lambda n: paths_functor(complete(5, ZZ, range(2, 7)), n), 3),
    ("K5 L4 Z w2-6", lambda n: paths_functor(complete(5, ZZ, range(2, 7)), n), 4),
    ("K5 L5 Z w1", lambda n: paths_functor(complete(5, ZZ, [1] * 5), n), 5),
    ("K5 L4 Q", lambda n: paths_functor(complete(5, QQ), n), 4),
    ("K6 L4 Z/11 w2-7", lambda n: paths_functor(complete(6, Zmod(11), range(2, 8)), n), 4),
    ("merge x I1 bold L5", lambda n: bold_functor(merge_box(), n), 5),
    ("merge x I1 conn L6", lambda n: connective_functor(merge_box(), n), 6),
)

def cylinder_inclusions(pc) -> tuple:
    return inclusion_bottom(pc), inclusion_top(pc)


def bottom_to_bottom(pc) -> tuple:
    """The bottom inclusion as its own homotopy: F sends both copies to the bottom,
    so it is not the identity of its target."""
    return inclusion_bottom(pc), inclusion_bottom(pc)


CERTIFICATE_RUNGS = (  # (name, digraph builder, L = N, the pair f, g of its complex, allow_degenerate)
    ("K4 L3 Q", lambda: complete(4, QQ), 3, cylinder_inclusions, False),
    ("K5 L3 Q", lambda: complete(5, QQ), 3, cylinder_inclusions, False),
    ("K4 L3 Q bottom", lambda: complete(4, QQ), 3, bottom_to_bottom, True),
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'rung':<18} {'functor_s':>9} {'omega_s':>9} {'homology_s':>10}  groups (free rank, torsion)")
    for name, paths, length in RUNGS:
        times = []  # (functor, omega, homology seconds) per run, each on a fresh complex
        for _ in range(args.repeat):
            start = perf_counter()
            pc = paths(length)
            walked = perf_counter()
            om = build_omega(pc, length)
            built = perf_counter()
            result = homology_of_omega(om)
            times.append((walked - start, built - walked, perf_counter() - built))
        functor_s, omega_s, homology_s = (min(column) for column in zip(*times))
        groups = [(g.free_rank, list(g.torsion)) for g in result.groups]
        print(f"{name:<18} {functor_s:9.4f} {omega_s:9.4f} {homology_s:10.4f}  {groups}", flush=True)
    print(f"{'certificate':<18} {'cert_s':>9}  flags (ok, identity_holds, homology_maps_equal)")
    for name, digraph, length, pair, allow_degenerate in CERTIFICATE_RUNGS:
        f, g = pair(paths_functor(digraph(), length))
        times = []
        for _ in range(args.repeat):
            start = perf_counter()
            cert = chain_homotopy_certificate(f, g, length, allow_degenerate=allow_degenerate)
            times.append(perf_counter() - start)
        flags = (cert.ok, cert.identity_holds, cert.homology_maps_equal)
        print(f"{name:<18} {min(times):9.4f}  {flags}", flush=True)


if __name__ == "__main__":
    main()
