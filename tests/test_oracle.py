import random
from fractions import Fraction

import pytest

from wph.algebra import QQ, ZZ, Zmod
from wph.chain import build_omega, homology, homology_of_omega
from wph.oracle import homology_dimensions, kernel_vectors, omega_dimensions, rank, row_reduce

from helpers import grid_complex, random_complex


def test_row_reduce_and_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(rows) == 1


def test_kernel_vectors_annihilate():
    rows = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    for v in kernel_vectors(rows, 3):
        for row in rows:
            assert sum(x * y for x, y in zip(row, v)) == 0


def test_oracle_matches_snf_pipeline_on_random_complexes():
    rng = random.Random(31)
    for _ in range(30):
        pc = random_complex(rng, ring=QQ, max_vertices=6, maxlen=3)
        dims = homology_dimensions(pc, 3)
        res = homology(pc, 3)
        assert dims == [g.free_rank for g in res.groups], pc


def test_oracle_matches_snf_pipeline_over_z_mod_p():
    rng = random.Random(7)
    for _ in range(30):
        pc = random_complex(rng, ring=Zmod(5), max_vertices=6, maxlen=3)
        assert homology_dimensions(pc, 3, p=5) == [g.free_rank for g in homology(pc, 3).groups], pc
        assert omega_dimensions(pc, 3, p=5) == [build_omega(pc, 3).rank(n) for n in range(4)], pc


@pytest.mark.parametrize("p", [2, 3])
def test_z_mod_p_betti_numbers_follow_from_z_homology(p):
    """Universal coefficients: dim H_n(Z/p) = free rank of H_n + Tor terms of H_n and H_(n-1).

    H_n over Z/p is that of Omega over Z reduced mod p when Omega_n and
    Omega_(n+1) over Z/p are the reductions of those over Z, that is when
    their ranks agree.  Weighted Omega does not commute with reduction mod p
    in general, so other degrees are skipped.
    """
    rng = random.Random(11)
    complexes = [random_complex(rng, ring=ZZ, max_vertices=6, maxlen=3) for _ in range(60)]
    complexes += [grid_complex(r, c, 3) for r, c in ((2, 3), (3, 3), (3, 4), (4, 4))]
    checked = with_tor = 0
    for pc in complexes:
        omega = build_omega(pc, 3)
        agree = [a == b for a, b in zip(omega_dimensions(pc, 3, p), (omega.rank(n) for n in range(4)))]
        groups = homology_of_omega(omega).groups
        tor = [sum(1 for t in g.torsion if t % p == 0) for g in groups]
        betti = homology_dimensions(pc, 3, p)
        for n, g in enumerate(groups):
            if agree[n] and agree[n + 1]:
                want = g.free_rank + tor[n] + (tor[n - 1] if n else 0)
                assert betti[n] == want, (pc, n)
                checked += 1
                with_tor += want != g.free_rank
    assert checked >= 150 and with_tor >= 25, (checked, with_tor)


def test_unit_weights_keep_the_betti_numbers():
    """Where every weight is a unit, e_p -> (product of the weights on p)^-1 e_p is a
    chain isomorphism from the all-ones complex onto the weighted one.

    So over Q, and over Z/p for each p dividing no weight, the Betti numbers agree;
    over Z the free ranks do.  Checked through the oracle, which shares no code with
    the elimination engine.  (Equal p-primary torsion is not checked here.)
    """
    rng = random.Random(11)
    nontrivial = 0
    for _ in range(200):
        pc = random_complex(rng, ring=ZZ, max_vertices=6, maxlen=3)
        weights = {v: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for v in pc.vertices}
        weighted, ones = pc.reweighted(weights, ZZ), pc.reweighted({v: 1 for v in pc.vertices}, ZZ)
        betti = homology_dimensions(ones, 3)
        assert homology_dimensions(weighted, 3) == betti, weighted
        for p in (2, 3, 5):
            if all(w % p for w in weights.values()):
                assert homology_dimensions(weighted, 3, p) == homology_dimensions(ones, 3, p), (weighted, p)
        assert [g.free_rank for g in homology(weighted, 3).groups] == betti, weighted
        nontrivial += any(betti[1:])
    assert nontrivial >= 50  # the draws reach past H_0
