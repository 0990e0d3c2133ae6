import itertools
import random
from fractions import Fraction

import pytest

from wph.algebra import QQ, ZZ, Zmod
from wph.chain import build_omega, homology, homology_of_omega
from wph.pathcx import Path, Vertex, complex_from_paths
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
    the elimination engine.  (Equal p-primary torsion over Z is checked on the
    projective plane below: these draws have no torsion at such a prime.)
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


RP2_TRIANGLES = ("123", "134", "145", "156", "126", "235", "346", "245", "356", "246")


def rp2_complex(weights: list):
    """The 6-vertex, 10-triangle real projective plane as a path complex over Z: every
    increasing vertex sequence of a triangle; vertex "k" has weight weights[k - 1]."""
    vs = [Vertex(str(k)) for k in range(1, 7)]
    paths = {
        Path(tuple(vs[int(c) - 1] for c in face))
        for t in RP2_TRIANGLES
        for k in (1, 2, 3)
        for face in itertools.combinations(t, k)
    }
    return complex_from_paths(paths, weights=dict(zip(vs, weights)), ring=ZZ)


def primary_torsion(torsion, p: int) -> list:
    """The p-primary part of the invariant factors: the largest power of p dividing each."""
    parts = []
    for t in torsion:
        q = 1
        while t % (q * p) == 0:
            q *= p
        if q > 1:
            parts.append(q)
    return parts


def test_weights_prime_to_p_keep_the_p_primary_torsion():
    """Over Z localized at a prime p that divides no weight every weight is a unit, so the
    rescaling above is a chain isomorphism there, and each H_n keeps the p-primary
    torsion of the all-ones complex.  The projective plane has H_1 = Z/2 unweighted.

    Odd weights keep that Z/2; weights prime to 3 add no 3-primary torsion.
    """
    ones = homology(rp2_complex([1] * 6), 3).groups
    assert [(g.free_rank, list(g.torsion)) for g in ones] == [(1, []), (0, [2]), (0, [])]
    rng = random.Random(5)
    checked = {p: 0 for p in (2, 3, 5, 7)}
    for _ in range(200):
        weights = [rng.choice([1, -1, 3, -3, 5, -5, 7, -7, 9, -9, 15, 25]) for _ in range(6)]
        groups = homology(rp2_complex(weights), 3).groups
        assert [g.free_rank for g in groups] == [1, 0, 0], weights
        for p in checked:
            if all(w % p for w in weights):
                assert [primary_torsion(g.torsion, p) for g in groups] == [
                    primary_torsion(g.torsion, p) for g in ones
                ], (weights, p)
                checked[p] += 1
    assert checked[2] == 200 and min(checked.values()) >= 5, checked
    # a weight divisible by 2 changes the 2-primary torsion
    assert list(homology(rp2_complex([1, 1, 2, 6, 2, 4]), 3).groups[1].torsion) == [2, 2, 48]
