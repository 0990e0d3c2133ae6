#!/usr/bin/env python3
"""Randomized property sweep beyond the test suite's fixed budgets.

Checks, on freshly sampled instances:
  * the composed weighted boundary is exactly zero in every degree,
  * the prism boundary identity holds for every regular path,
  * the chain-homotopy certificate for the cylinder inclusions holds, with
    the same report at N = 3 and at N = 40 (past the longest path), and so
    does the certificate for a homotopy that is not the identity (the bottom
    inclusion of the regular paths to itself, through the degenerate
    projection of the cylinder),
  * the Smith-normal-form pipeline agrees with the independent
    rational-elimination oracle,
  * homology from the reduced chain (each boundary eliminated without the
    rows the one before settles) equals homology from each pair of full
    boundaries, over Z with unit-free weights and over Q,
  * the bold functor's one forward walk equals the truncation closure of
    the decomposable paths, on a random directed hypergraph with arrow
    sides of any size, for maxlen 0..4.

    python3 scripts/property_sweep.py --count 100 --seed 1
"""
import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from wph.algebra import QQ, ZZ, homology_of_pair
from wph.chain import ChainVector, build_omega, homology, homology_of_omega
from wph.dhyper import bold_functor
from wph.homotopy import chain_homotopy_certificate, verify_prism_identity
from wph.oracle import homology_dimensions
from wph.pathcx import PathComplex, inclusion_bottom, inclusion_top

from helpers import (
    bold_reference,
    random_complex,
    random_directed_hypergraph,
    random_unit_free_complex,
    random_unit_weight_complex,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    for i in range(args.count):
        pc = random_complex(rng, ring=ZZ)
        om = build_omega(pc, 4)
        for n in range(1, 4):
            assert om.boundary(n).matmul(om.boundary(n + 1)).is_zero(), (i, n)

        pq = random_unit_weight_complex(rng)
        for n in range(4):
            for p in pq.regular_paths(n):
                rep = verify_prism_identity(ChainVector.basis(p, QQ), pq)
                assert rep.ok, (i, p.render(), rep.difference.render())

        f, g = inclusion_bottom(pq), inclusion_top(pq)
        reports = [chain_homotopy_certificate(f, g, n) for n in (3, 40)]
        flags = [(r.ok, r.problems, r.identity_holds, r.homology_maps_equal) for r in reports]
        assert flags[0] == flags[1] == (True, [], True, True), (i, flags)
        assert [r.degrees_checked for r in reports] == [4, 41], i
        # the regular paths are truncation-closed; onto them the projection F(v') = v is a morphism
        regular = PathComplex.build(pq.vertices, [p for p in pq.paths if p.is_regular()], pq.weight_map(), QQ)
        bottom = inclusion_bottom(regular)
        cert = chain_homotopy_certificate(bottom, bottom, 3, allow_degenerate=True)
        assert cert.ok and cert.identity_holds and cert.homology_maps_equal, (i, cert.problems)

        pq2 = random_complex(rng, ring=QQ, max_vertices=6, maxlen=3)
        dims = homology_dimensions(pq2, 3)
        ranks = [g.free_rank for g in homology(pq2, 3).groups]
        assert dims == ranks, (i, dims, ranks)

        for sample in (random_unit_free_complex(rng, maxlen=5), random_complex(rng, ring=QQ, maxlen=5)):
            om = build_omega(sample, 5)
            pairs = [homology_of_pair(om.boundary(n), om.boundary(n + 1)) for n in range(5)]
            assert homology_of_omega(om).groups == pairs, (i, sample)

        g = random_directed_hypergraph(rng)
        for maxlen in range(5):
            assert bold_functor(g, maxlen) == bold_reference(g, maxlen), (i, maxlen)

        if (i + 1) % 10 == 0:
            print(f"{i + 1}/{args.count} instances checked")
    print("all properties hold")


if __name__ == "__main__":
    main()
