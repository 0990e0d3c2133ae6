import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph import algebra
from wph.algebra import QQ, ZZ
from wph.chain import (
    ChainVector,
    build_omega,
    homology,
    induced_chain_map,
    weighted_boundary,
)
from wph.digraph import WeightedDigraph, paths_functor
from wph.errors import ImageNotInOmegaError
from wph.homotopy import chain_homotopy_certificate
from wph.pathcx import (
    Path,
    PathComplex,
    PathMorphism,
    Vertex,
    complex_from_paths,
    inclusion_bottom,
    inclusion_top,
)

from helpers import random_complex, random_unit_weight_complex

a, b, c, d = (Vertex(s) for s in "abcd")


def edge_complex():
    return complex_from_paths([Path((a, b))], weights={a: 2, b: 4}, ring=ZZ)


def diamond_complex():
    return complex_from_paths(
        [Path((a, c)), Path((a, d)), Path((b, c)), Path((b, d))],
        weights={a: 1, b: 1, c: 0, d: 0},
        ring=ZZ,
    )


def test_weighted_boundary_of_an_edge():
    pc = edge_complex()
    v = ChainVector.basis(Path((a, b)), ZZ)
    dv = weighted_boundary(v, pc.weight_map())
    assert dv.as_dict() == {Path((b,)): 2, Path((a,)): -4}


def test_weighted_boundary_drops_irregular_faces():
    # d(e_aba) over delta = 1: faces ba, aa (irregular, dropped), ab
    pc = complex_from_paths([Path((a, b, a))], weights={a: 1, b: 1}, ring=ZZ)
    dv = weighted_boundary(ChainVector.basis(Path((a, b, a)), ZZ), pc.weight_map())
    assert dv.as_dict() == {Path((b, a)): 1, Path((a, b)): 1}


def test_boundary_of_vertices_is_zero():
    pc = edge_complex()
    dv = weighted_boundary(ChainVector.basis(Path((a,)), ZZ), pc.weight_map())
    assert dv.is_zero()


def test_omega_ranks_of_diamond():
    om = build_omega(diamond_complex(), 3)
    assert [om.rank(n) for n in range(4)] == [4, 4, 0, 0]


def test_homology_of_diamond_weighted_and_unweighted():
    pc = diamond_complex()
    res = homology(pc, 3)
    assert [(g.free_rank, g.torsion) for g in res.groups] == [(2, []), (2, []), (0, [])]
    unw = pc.reweighted({v: 1 for v in pc.vertices}, ZZ)
    res = homology(unw, 3)
    assert [(g.free_rank, g.torsion) for g in res.groups] == [(1, []), (1, []), (0, [])]


def test_homology_of_weighted_edge_has_torsion():
    res = homology(edge_complex(), 2)
    assert (res.groups[0].free_rank, res.groups[0].torsion) == (1, [2])
    assert (res.groups[1].free_rank, res.groups[1].torsion) == (0, [])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_boundary_squares_to_zero(seed):
    pc = random_complex(random.Random(seed), ring=ZZ)
    om = build_omega(pc, 4)
    for n in range(1, 4):
        if om.rank(n + 1) and om.rank(n):
            assert om.boundary(n).matmul(om.boundary(n + 1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_boundary_squares_to_zero_over_q(seed):
    pc = random_complex(random.Random(seed), ring=QQ, max_vertices=6, maxlen=3)
    om = build_omega(pc, 3)
    for n in range(1, 3):
        assert om.boundary(n).matmul(om.boundary(n + 1)).is_zero()


def test_induced_chain_map_of_cylinder_inclusion_commutes():
    pc = diamond_complex().reweighted(
        {v: Fraction(1) for v in diamond_complex().vertices}, QQ
    )
    f = inclusion_bottom(pc)
    src = build_omega(pc, 3)
    tgt = build_omega(pc.cylinder(), 3)
    mats = induced_chain_map(f, src, tgt)
    for n in range(1, 3):
        left = tgt.boundary(n).matmul(mats[n])
        right = mats[n - 1].matmul(src.boundary(n))
        assert left == right


def test_identity_morphism_induces_identity_matrices():
    pc = diamond_complex()
    om = build_omega(pc, 2)
    f = PathMorphism(pc, pc, {v: v for v in pc.vertices})
    mats = induced_chain_map(f, om, om)
    for n in range(3):
        m = mats[n]
        assert m.rows == m.cols == om.rank(n)
        for i in range(m.rows):
            for j in range(m.cols):
                assert m.data[i][j] == (1 if i == j else 0)


def test_induced_chain_map_refuses_an_image_path_outside_the_target():
    x, y = Vertex("x"), Vertex("y")
    src = complex_from_paths([Path((a, b))], weights={a: 1, b: 1}, ring=ZZ)
    tgt = PathComplex.build([x, y], [Path.of(x), Path.of(y)], {x: 1, y: 1}, ZZ)
    f = PathMorphism(src, tgt, {a: x, b: y})
    with pytest.raises(ImageNotInOmegaError, match=r"image path \(x y\) is not in the target complex"):
        induced_chain_map(f, build_omega(src, 1), build_omega(tgt, 1))


def test_induced_chain_map_refuses_a_chain_outside_the_target_omega():
    # Omega_2 is spanned by (abc) - (adc) in the source, by 2(xyz) - (xuz) in the target.
    x, y, z, u = (Vertex(s) for s in "xyzu")
    src = complex_from_paths(
        [Path((a, b, c)), Path((a, d, c))], weights={a: 1, b: 1, c: 1, d: 1}, ring=ZZ
    )
    tgt = complex_from_paths(
        [Path((x, y, z)), Path((x, u, z))], weights={x: 1, y: 1, z: 1, u: 2}, ring=ZZ
    )
    f = PathMorphism(src, tgt, {a: x, b: y, c: z, d: u})
    assert all(f.image_path(p) in tgt.paths for p in src.paths)
    with pytest.raises(ImageNotInOmegaError, match="generator 0 is not in the target Omega"):
        induced_chain_map(f, build_omega(src, 2), build_omega(tgt, 2))


def test_each_matrix_is_factored_at_most_once(monkeypatch):
    factored = {}  # id -> matrix; holding the matrix keeps its id from being reused
    repeats = []
    original = algebra.smith_normal_form

    def counting(m):
        if id(m) in factored:
            repeats.append((m.rows, m.cols))
        factored[id(m)] = m
        return original(m)

    monkeypatch.setattr(algebra, "smith_normal_form", counting)

    vs = [Vertex(s) for s in "abcd"]
    k4 = WeightedDigraph.build(
        vs, [(x, y) for x in vs for y in vs if x != y], dict(zip(vs, [1, 2, 3, 4])), ZZ
    )
    homology(paths_functor(k4, 3), 3)

    pc = random_unit_weight_complex(random.Random(17), max_vertices=5, maxlen=3)
    cert = chain_homotopy_certificate(inclusion_bottom(pc), inclusion_top(pc), 3)
    assert cert.ok

    assert factored
    assert repeats == []
