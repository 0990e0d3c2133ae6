#!/usr/bin/env python3
"""Randomized property sweep beyond the test suite's fixed budgets.

Checks, on freshly sampled instances:
  * the composed weighted boundary is exactly zero in every degree,
  * the prism boundary identity holds for every regular path, with the same
    difference on codes as on Path objects, also with the lifts doubled
    (helpers.assert_prism_routes_agree), over Q, Z, Z/7 and Z/2,
  * the chain-homotopy certificate for the cylinder inclusions holds, with
    the same report at N = 3 and at N = 40 (past the longest path), and so
    does the certificate for a homotopy that is not the identity (the bottom
    inclusion to itself, through the degenerate projection of the cylinder),
  * each of those certificates' equal-homology-maps flag agrees with one
    lattice test per degree on the induced maps (helpers.homology_maps_equal),
  * on one random homotopy chain of 2 to 4 steps per instance, from a point or
    an edge into a random digraph's path complex, over Q and Z/5 in turn
    (helpers.random_homotopy_chain), `wph homotopy-check --mode chain
    --certify-chain-homotopy` passes exactly when every step is a one-step
    homotopy on Path objects, and then says the end maps are equal on
    homology, as the lattice test does
    (helpers.assert_chain_verdict_matches_lattice),
  * those two certificates and one on a random homotopy over Q
    (helpers.random_q_homotopy), each also with the lifts doubled, report
    what the certificate run over Q itself reports
    (helpers.certificate_over_the_ring): the same flags, or the same error
    type and message,
  * f_* and g_* on path codes equal those from `mapped_rows` on Path
    objects (helpers.route_outcomes), errors included: between the complexes
    those certificates run on, and between random vertex maps over Z and Z/7,
  * between those random vertex maps, which need not be morphisms,
    `certify_one_step` (the certificate without its one-step check), which
    checks on the target's path chains, reports what the same certificate on
    Omega matrices of the source and the target reports
    (helpers.certify_one_step_by_matrices), also with the lifts doubled,
  * the Smith-normal-form pipeline agrees with the independent
    rational-elimination oracle,
  * homology from the reduced chain (each boundary eliminated without the
    rows the one before settles) equals homology from each pair of full
    boundaries, over Z with unit-free weights and over Q,
  * the one-queue elimination gives what the two-queue reference gives
    (helpers.eliminate_with_two_queues), the same invariant factors and
    settled unit columns, on the boundaries of those complexes and of a
    random complex over Z, and on a random sparse matrix with a random set
    of rows left out (helpers.random_sparse_matrix); both key an entry when
    it is made or changes value, the reference by comparing the rows a
    pivot touches before and after it, and push a key popped with an
    out-of-date cost again with the current one,
  * the bold functor's one forward walk equals the truncation closure of
    the decomposable paths, on a random directed hypergraph with arrow
    sides of any size, for maxlen 0..4,
  * Omega bases and boundaries equal those built with every one-row class's
    kernel taken from `kernel_basis` instead of its closed form, on the
    path complex of a random digraph over Z with unit-free weights, over Q,
    over Z/7 and over Z/2,
  * Omega bases and boundaries equal those built on codes of every path,
    irregular ones too, with each degree's face table from a comprehension
    over `regular_faces` (helpers.omega_by_face_comprehension), on a random
    complex over Z, Q, Z/7 and Z/2, zero weights allowed.

    python3 scripts/property_sweep.py --count 100 --seed 1
"""
import argparse
import random
import sys
import tempfile
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from wph import algebra, chain
from wph.algebra import QQ, ZZ, Zmod
from wph.chain import build_omega, homology, homology_of_omega
from wph.dhyper import bold_functor
from wph.homotopy import chain_homotopy_certificate, certify_one_step
from wph.oracle import homology_dimensions
from wph.pathcx import PathMorphism, inclusion_bottom, inclusion_top

from helpers import (
    assert_chain_verdict_matches_lattice,
    assert_prism_routes_agree,
    bold_reference,
    certificate_outcome,
    certificate_over_the_ring,
    certify_one_step_by_matrices,
    chain_eliminations,
    doubled_lifts,
    eliminate_with_two_queues,
    homology_maps_equal,
    homology_of_pair,
    omega_by_face_comprehension,
    one_row_kernel_by_elimination,
    outcome,
    random_complex,
    random_digraph_complex,
    random_directed_hypergraph,
    random_pair,
    random_q_homotopy,
    random_sparse_matrix,
    random_unit_free_complex,
    random_unit_weight_complex,
    random_units_complex,
    route_outcomes,
)


# (ring, weight draw) for the one-row kernel check: Z with unit-free weights, Q, Z/7, Z/2
ONE_ROW_SAMPLES = [
    (ZZ, lambda rng: rng.choice([0, 2, -2, 3, 4, 6])),
    (QQ, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
    (Zmod(7), lambda rng: rng.randint(0, 6)),
    (Zmod(2), lambda rng: rng.randint(0, 1)),
]


def assert_eliminations_agree(om, i) -> None:
    boundaries = [om.boundary(n) for n in range(om.max_degree + 1)]
    got = chain_eliminations(algebra._eliminate, boundaries)
    assert got == chain_eliminations(eliminate_with_two_queues, boundaries), i


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    one_row_kernel = chain._one_row_kernel

    for i in range(args.count):
        pc = random_complex(rng, ring=ZZ)
        om = build_omega(pc, 4)
        for n in range(1, 4):
            assert om.boundary(n).matmul(om.boundary(n + 1)).is_zero(), (i, n)
        assert_eliminations_agree(om, i)
        m, skip = random_sparse_matrix(rng)
        assert algebra._eliminate(m, skip) == eliminate_with_two_queues(m, skip), (i, m, skip)

        pq = random_unit_weight_complex(rng)
        for k in range(4):
            pu = random_units_complex(rng, k)
            assert_prism_routes_agree(pu, [p for n in range(4) for p in pu.regular_paths(n)])

        f, g = inclusion_bottom(pq), inclusion_top(pq)
        reports = [chain_homotopy_certificate(f, g, n) for n in (3, 40)]
        flags = [(r.ok, r.problems, r.identity_holds, r.homology_maps_equal) for r in reports]
        assert flags[0] == flags[1] == (True, [], True, True), (i, flags)
        assert [r.degrees_checked for r in reports] == [4, 41], i
        assert all(homology_maps_equal(f, g, n) for n in (3, 40)), i
        # the projection F(v') = v merges each lift's jump, and only that repeat
        bottom = inclusion_bottom(pq)
        cert = chain_homotopy_certificate(bottom, bottom, 3, allow_degenerate=True)
        assert cert.ok and cert.identity_holds and cert.homology_maps_equal, (i, cert.problems)
        assert homology_maps_equal(bottom, bottom, 3), i
        # over Q the certificate runs on the support complexes over Z; the reference runs over Q
        cases = [(f, g, 3, False), (bottom, bottom, 3, True), (*random_q_homotopy(rng), rng.randint(0, 4), bool(i % 2))]
        for doubled in (False, True):
            with doubled_lifts() if doubled else nullcontext():
                for case in cases:
                    got = certificate_outcome(chain_homotopy_certificate, *case)
                    assert got == certificate_outcome(certificate_over_the_ring, *case), (i, doubled, case)
        # f_* and g_* on path codes equal mapped_rows on Paths: between the complexes the
        # certificates run on (over Q the support complexes), and between random vertex maps
        for f2, g2, n, _ in cases:
            source, target = (pc.support() if pc.ring == QQ else pc for pc in (f2.source, f2.target))
            top = min(n + 1, max(len(source.store.buckets), len(target.store.buckets)))
            f2, g2 = (PathMorphism(source, target, m.vertex_map) for m in (f2, g2))
            code, reference = route_outcomes(f2, g2, build_omega(source, top), build_omega(target, top))
            assert code == reference, (i, f2, g2, n)
        with tempfile.TemporaryDirectory() as directory:
            assert_chain_verdict_matches_lattice(rng, QQ if i % 2 else Zmod(5), directory)
        for ring in (ZZ, Zmod(7)):
            f2, g2, _ = random_pair(rng, ring)
            top = min(3, 1 + max(p.length for pc in (f2.source, f2.target) for p in pc.paths))
            code, reference = route_outcomes(f2, g2, build_omega(f2.source, top), build_omega(f2.target, top))
            assert code == reference, (i, ring, f2, g2)
            for doubled in (False, True):
                with doubled_lifts() if doubled else nullcontext():
                    got = outcome(certify_one_step, f2, g2, 2)
                    assert got == outcome(certify_one_step_by_matrices, f2, g2, 2), (i, ring, doubled, f2, g2)

        pq2 = random_complex(rng, ring=QQ, max_vertices=6, maxlen=3)
        dims = homology_dimensions(pq2, 3)
        ranks = [g.free_rank for g in homology(pq2, 3).groups]
        assert dims == ranks, (i, dims, ranks)

        for sample in (random_unit_free_complex(rng, maxlen=5), random_complex(rng, ring=QQ, maxlen=5)):
            om = build_omega(sample, 5)
            pairs = [homology_of_pair(om.boundary(n), om.boundary(n + 1)) for n in range(5)]
            assert homology_of_omega(om).groups == pairs, (i, sample)
            assert_eliminations_agree(om, i)

        g = random_directed_hypergraph(rng)
        for maxlen in range(5):
            assert bold_functor(g, maxlen) == bold_reference(g, maxlen), (i, maxlen)

        for ring, weight in ONE_ROW_SAMPLES:
            pc = random_digraph_complex(rng, weight, ring)
            om = build_omega(pc, 4)
            chain._one_row_kernel = one_row_kernel_by_elimination
            try:
                ref = build_omega(pc, 4)
            finally:
                chain._one_row_kernel = one_row_kernel
            assert om.bases == ref.bases and om.boundaries == ref.boundaries, (i, ring, pc)

        for ring in (ZZ, QQ, Zmod(7), Zmod(2)):
            pc = random_complex(rng, ring=ring)
            om, ref = build_omega(pc, 4), omega_by_face_comprehension(pc, 4)
            assert om.bases == ref.bases and om.boundaries == ref.boundaries, (i, ring, pc)

        if (i + 1) % 10 == 0:
            print(f"{i + 1}/{args.count} instances checked")
    print("all properties hold")


if __name__ == "__main__":
    main()
