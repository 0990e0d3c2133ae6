#!/usr/bin/env python3
"""Reproduce the two concrete homology computations from the library API.

Runs from a checkout, no installation needed:

    python3 scripts/reproduce_examples.py
"""
import sys
from pathlib import Path as FsPath

sys.path.insert(0, str(FsPath(__file__).resolve().parent.parent / "src"))

from wph.algebra import ZZ
from wph.chain import homology
from wph.pathcx import Path, Vertex, complex_from_paths

a, b, c, d = (Vertex(s) for s in "abcd")


def show(title, pc, max_degree):
    print(title)
    result = homology(pc, max_degree)
    for n, g in enumerate(result.groups):
        parts = ([f"Z^{g.free_rank}" if g.free_rank > 1 else "Z"] if g.free_rank else [])
        parts += [f"Z/{t}" for t in g.torsion]
        print(f"  H_{n} = {' + '.join(parts) if parts else '0'}")
    print()


def main():
    diamond = complex_from_paths(
        [Path((a, c)), Path((a, d)), Path((b, c)), Path((b, d))],
        weights={a: 1, b: 1, c: 0, d: 0},
        ring=ZZ,
    )
    show("Diamond with weights a = b = 1, c = d = 0 (expect Z^2, Z^2):", diamond, 3)
    show(
        "Same diamond with all weights 1 (expect Z, Z):",
        diamond.reweighted({v: 1 for v in diamond.vertices}, ZZ),
        3,
    )
    edge = complex_from_paths([Path((a, b))], weights={a: 2, b: 4}, ring=ZZ)
    show("Single edge with weights a = 2, b = 4 (expect Z + Z/2):", edge, 2)


if __name__ == "__main__":
    main()
