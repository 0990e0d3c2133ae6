import importlib.util
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph import algebra, oracle
from wph import chain as wchain
from wph import io as wio
from wph.algebra import (
    QQ,
    ZZ,
    HomologyGroup,
    Matrix,
    Zmod,
    chain_invariant_factors,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
)
from wph.chain import (
    build_omega,
    homology,
    homology_of_omega,
    induced_chain_map,
)
from wph.dhyper import vertex_weighted_complex
from wph.digraph import WeightedDigraph, paths_functor
from wph.errors import ImageNotInOmegaError, InvariantError, MissingWeightError
from wph.homotopy import chain_homotopy_certificate, verify_prism_identity
from wph.pathcx import (
    Path,
    PathComplex,
    PathMorphism,
    Vertex,
    complex_from_paths,
    inclusion_bottom,
    inclusion_top,
)

from helpers import (
    FIXTURES,
    boundary_by_paths,
    dense_columns,
    fixture_paths,
    grid_complex,
    homology_maps_equal,
    homology_of_pair,
    matrix_add,
    matrix_of_columns,
    matrix_sub,
    omega_by_face_comprehension,
    one_row_kernel_by_elimination,
    random_complex,
    random_digraph_complex,
    random_unit_free_complex,
    random_unit_weight_complex,
)

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
    # d e_ab = w(a) e_b - w(b) e_a over the weights 2, 4 of a (number 0) and b (number 1)
    signed = [(2, -2), (4, -4)]
    table, cut = wchain._face_terms([(0, 1)], {}.get, signed, 1)
    assert table == cut == [[((1,), 2), ((0,), -4)]]  # faces with no row are keyed by their codes
    table, cut = wchain._face_terms([(0, 1)], {(0,): 0, (1,): 1}.get, signed, 1)
    assert (table, cut) == ([[(1, 2), (0, -4)]], [[]])


def test_weighted_boundary_drops_irregular_faces():
    # d(e_aba) over delta = 1: faces ba, aa (irregular, dropped), ab
    assert wchain._face_terms([(0, 1, 0)], {}.get, [(1, -1), (1, -1)], 2)[0] == [[((1, 0), 1), ((0, 1), 1)]]


def test_boundary_of_vertices_is_zero():
    # Omega_0 maps to 0, and the prism check takes d e_v = 0: the boundary of
    # P e_v = w(v)^-1 e_vv' is e_v' - e_v by itself
    pc = complex_from_paths([Path((a, b))], weights={a: -1, b: 1}, ring=ZZ)
    assert build_omega(pc, 1).boundary(0).rows == 0
    assert [rep.ok for rep in verify_prism_identity(pc, pc.regular_path_codes(0)[0])] == [True, True]


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


def test_homology_builds_omega_only_up_to_the_longest_path_plus_one(monkeypatch):
    pc = diamond_complex()  # its longest path has length 1
    degrees = []
    original = wchain.build_omega

    def recording(pc, max_degree, *args):
        degrees.append(max_degree)
        return original(pc, max_degree, *args)

    monkeypatch.setattr(wchain, "build_omega", recording)
    res = homology(pc, 100000)
    assert degrees == [2]
    assert res.max_degree == 100000 and len(res.groups) == 100000
    assert [(g.free_rank, g.torsion) for g in res.groups[:3]] == [(2, []), (2, []), (0, [])]
    assert all(g.is_zero() for g in res.groups[2:])
    assert homology(pc, 1).groups == res.groups[:1] and degrees[-1] == 1


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
    tgt = PathComplex.build([x, y], [Path((x,)), Path((y,))], {x: 1, y: 1}, ZZ)
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
    assert all(Path(tuple(f.vertex_map[v] for v in p.vertices)) in tgt.paths for p in src.paths)
    with pytest.raises(ImageNotInOmegaError, match="generator 0 is not in the target Omega"):
        induced_chain_map(f, build_omega(src, 2), build_omega(tgt, 2))


def test_each_matrix_is_factored_at_most_once(monkeypatch):
    factored = {}  # id -> matrix; holding the matrix keeps its id from being reused
    repeats = []
    original = algebra._echelon

    def counting(m):
        if id(m) in factored:
            repeats.append((m.rows, m.cols))
        factored[id(m)] = m
        return original(m)

    monkeypatch.setattr(algebra, "_echelon", counting)

    vs = [Vertex(s) for s in "abcd"]
    k4 = WeightedDigraph.build(
        vs, [(x, y) for x in vs for y in vs if x != y], dict(zip(vs, [1, 2, 3, 4])), ZZ
    )
    homology(paths_functor(k4, 3), 3)

    pc = random_unit_weight_complex(random.Random(17), max_vertices=5, maxlen=3)
    cert = chain_homotopy_certificate(inclusion_bottom(pc), inclusion_top(pc), 3)
    assert cert.ok
    assert homology_maps_equal(inclusion_bottom(pc), inclusion_top(pc), 3)

    assert factored
    assert repeats == []


def whole_matrix_omega(pc: PathComplex, max_degree: int) -> tuple:
    """Omega bases from one kernel of each degree's whole constraint matrix, and the
    boundaries solved against those whole bases: the construction before blocks."""
    ring = pc.ring
    signed = {v: (w, ring.neg(w)) for v, w in pc.weights}
    reg = [pc.regular_paths(n) for n in range(max_degree + 1)]
    bases = []
    for paths in reg:
        faces = [dict(boundary_by_paths(p, signed)) for p in paths]
        outside = sorted({q for f in faces for q in f if q not in pc.paths})
        rows = tuple(tuple(f.get(q, ring.zero) for f in faces) for q in outside)
        bases.append(kernel_basis(Matrix(ring, len(outside), len(paths), rows)))
    boundaries = {}
    for n in range(1, max_degree + 1):
        index = {q: i for i, q in enumerate(reg[n - 1])}
        cols = []
        for gen in dense_columns(bases[n]):
            vec, outside = [ring.zero] * len(index), {}
            for p, x in zip(reg[n], gen):
                for q, c in boundary_by_paths(p, signed):
                    if q in index:
                        vec[index[q]] = ring.add(vec[index[q]], ring.mul(x, c))
                    else:
                        outside[q] = ring.add(outside.get(q, ring.zero), ring.mul(x, c))
            assert not any(outside.values())  # the kernel kills every face outside the complex
            cols.append(solve_in_lattice(bases[n - 1], vec))
        boundaries[n] = matrix_of_columns(ring, cols, bases[n - 1].cols)
    return bases, boundaries


def not_truncation_closed_complex():
    # (b c) is missing, so it is an outside face of (a b c), (d b c) and (e b c): one
    # block of three paths with different first vertices and two generators.  The
    # unconstrained (a c b) sorts between them, so generators interleave across blocks.
    e = Vertex("e")
    paths = [Path((v,)) for v in (a, b, c, d, e)]
    paths += [Path((x, y)) for x, y in ((a, b), (a, c), (c, b), (d, b), (d, c), (e, b), (e, c))]
    paths += [Path((x, b, c)) for x in (a, d, e)] + [Path((a, c, b))]
    return PathComplex.build([a, b, c, d, e], paths, {a: 2, b: 1, c: 1, d: 3, e: 5}, ZZ)


def pruned_in_three_rounds_complex():
    # (a c), (b c), (d c) and (f h) are missing.  (a b c) alone has the outside face
    # (a c), so it is pruned first; that leaves (d b c) alone with (b c), then
    # (d e c) alone with (d c).  (f g h) and (f i h) share (f h) and stay linked.
    e, f, g, h, i = (Vertex(s) for s in "efghi")
    vertices = [a, b, c, d, e, f, g, h, i]
    edges = [(a, b), (d, b), (d, e), (e, c), (f, g), (g, h), (f, i), (i, h)]
    paths = [Path((v,)) for v in vertices] + [Path(xy) for xy in edges]
    paths += [Path(xyz) for xyz in ((a, b, c), (d, b, c), (d, e, c), (f, g, h), (f, i, h))]
    return PathComplex.build(vertices, paths, {v: 1 + k % 3 for k, v in enumerate(vertices)}, ZZ)


def test_block_bases_and_boundaries_equal_the_whole_matrix_kernel():
    complexes = [not_truncation_closed_complex(), pruned_in_three_rounds_complex()]
    complexes += [grid_complex(3, 4, 4), grid_complex(4, 4, 5)]
    for ring in (ZZ, QQ, Zmod(7)):
        rng = random.Random(3)
        complexes += [random_complex(rng, ring=ring) for _ in range(40)]
    for pc in complexes:
        om = build_omega(pc, 4)
        bases, boundaries = whole_matrix_omega(pc, 4)
        assert [m.data for m in om.bases] == [m.data for m in bases], pc
        assert {n: m.data for n, m in om.boundaries.items()} == {n: m.data for n, m in boundaries.items()}, pc
        for basis in om.bases:  # each generator's pivot row is its own, and they ascend
            pivots = [min(col) for col in basis.entries]
            assert pivots == sorted(set(pivots))
    # the linked class's two generators, interleaved with the free path (a c b)'s unit column
    entries = build_omega(complexes[0], 2).bases[2].entries
    linked = [g for g, col in enumerate(entries) if len(col) > 1]
    assert linked == [0, 2] and sorted({i for g in linked for i in entries[g]}) == [0, 2, 3]
    assert entries[1] == {1: ZZ.one}
    # the three pruned paths carry no basis entry; the linked pair carries the one generator
    (col,) = build_omega(complexes[1], 2).bases[2].entries
    assert sorted(col) == [3, 4]


F0, F1, F2, F3 = (0, 1), (0, 2), (1, 2), (1, 3)  # outside faces, as path codes


def test_linked_paths_keeps_a_face_that_a_pruned_path_shared():
    # path 0 is the last one with F1, so it is pruned; F0 still links paths 1 and 2
    assert wchain._linked_paths([[(F0, 1), (F1, 1)], [(F0, 1)], [(F0, 1)]]) == [(1, 2)]


def test_linked_paths_prunes_in_a_cascade():
    # 4 is alone on F3; then 3 is alone on F2, and 2 on F1: paths 0 and 1 still share F0
    cut = [[(F0, 1)], [(F0, 2)], [(F0, 1), (F1, 1)], [(F1, 1), (F2, 1)], [(F2, 1), (F3, 1)]]
    assert wchain._linked_paths(cut) == [(0, 1)]
    assert wchain._linked_paths(cut[1:]) == []  # now path 0 (was 1) is alone on F0 as well


def test_linked_paths_lists_ascending_classes_by_their_first_path():
    # the class of path 0 reaches 3 before 2 and 5, through F0 and then F2
    cut = [[(F0, 1)], [(F1, 1)], [(F2, 1)], [(F0, 1), (F2, 1)], [(F1, 1)], [(F2, 1)], []]
    assert wchain._linked_paths(cut) == [(0, 2, 3, 5), (1, 4)]


def test_an_image_on_a_pruned_path_raises_the_callers_error():
    # pruned rows carry no generator, so no pivot: an image on one is refused
    om = build_omega(pruned_in_three_rounds_complex(), 2)
    assert om.rank(2) == 1
    with pytest.raises(InvariantError, match="generator 0 is not in the target Omega_2"):
        wchain.restrict_to_omega(lambda i: ((1, ZZ.one),), om, 2, om, 2, InvariantError)
    # 2(a b c) - (a e c) spans the source Omega_2; e -> b maps it onto (a b c), which
    # the target prunes, as (a c) is not in it
    e = Vertex("e")
    src = complex_from_paths([Path((a, b, c)), Path((a, e, c))], weights={a: 1, b: 1, c: 1, e: 2}, ring=ZZ)
    tgt = complex_from_paths([Path((a, b, c))], weights={a: 1, b: 1, c: 1}, ring=ZZ)
    f = PathMorphism(src, tgt, {a: a, b: b, c: c, e: b})
    om_tgt = build_omega(tgt, 2)
    assert (om_tgt.bases[2].rows, om_tgt.rank(2)) == (1, 0)
    with pytest.raises(ImageNotInOmegaError, match="generator 0 is not in the target Omega_2"):
        induced_chain_map(f, build_omega(src, 2), om_tgt)


def restrict_images(images: list, target, m: int):
    """restrict_to_omega of the given images, one per stand-in source generator (a single path)."""
    ring = target.ring
    source = SimpleNamespace(ring=ring, bases=[Matrix.identity(ring, len(images))])
    return wchain.restrict_to_omega(images.__getitem__, source, 0, target, m, InvariantError)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=["Z", "Q", "Z7"])
def test_substitution_recovers_the_coefficients_of_basis_combinations(ring):
    rng = random.Random(5)
    pivots = set()
    for _ in range(40):
        om = build_omega(random_complex(rng, ring=ring), 4)
        for m, basis in enumerate(om.bases):
            want = [[ring.coerce(rng.randint(-3, 3)) for _ in range(basis.cols)] for _ in range(3)]
            images = []
            for coeffs in want:
                image: dict = {}
                for x, col in zip(coeffs, basis.entries):
                    for i, y in col.items():
                        image[i] = ring.add(image.get(i, ring.zero), ring.mul(x, y))
                images.append(list(image.items()))
            assert restrict_images(images, om, m) == matrix_of_columns(ring, want, basis.cols)
            pivots.update(col[min(col)] for col in basis.entries if len(col) > 1)
    # the substitution ran past unit columns, over Z also on pivots other than 1
    assert pivots and (ring != ZZ or pivots - {1})


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=["Z", "Q", "Z7"])
def test_substitution_refuses_an_entry_left_on_a_row_without_a_pivot(ring):
    # one generator on (a b d) and (a c d), with its pivot on (a b d), row 0
    om = build_omega(square_complex(ring, 3, 2), 2)
    assert [min(col) for col in om.bases[2].entries] == [0]
    with pytest.raises(InvariantError, match="generator 0 is not in the target Omega_2"):
        restrict_images([((1, ring.one),)], om, 2)


def test_substitution_refuses_an_entry_the_pivot_does_not_divide():
    om = build_omega(square_complex(ZZ, 3, 2), 2)
    assert om.bases[2].entries == ({0: 2, 1: -3},)
    assert restrict_images([((0, 4), (1, -6))], om, 2).entries == ({0: 2},)
    # 3 // 2 = 1 would leave (a c d) at -3 + 3 = 0: only the pivot test refuses it
    with pytest.raises(InvariantError, match="generator 0 is not in the target Omega_2"):
        restrict_images([((0, 3), (1, -3))], om, 2)


def test_grid_kernels_run_only_on_the_linked_squares(monkeypatch):
    # in the 3 x 4 grid at length 4 only the two paths round each of the 6 unit
    # squares share an outside face, their diagonal; every other path is free or pruned
    # so each class takes its kernel in closed form, and no elimination runs
    shapes, lengths = [], []
    monkeypatch.setattr(wchain, "kernel_basis", lambda m: shapes.append((m.rows, m.cols)) or kernel_basis(m))
    one_row_kernel = wchain._one_row_kernel
    monkeypatch.setattr(wchain, "_one_row_kernel", lambda ring, a: lengths.append(len(a)) or one_row_kernel(ring, a))
    om = build_omega(grid_complex(3, 4, 4), 4)
    assert shapes == []
    assert lengths == [2] * 6
    squares = [(n, sorted(col)) for n, basis in enumerate(om.bases) for col in basis.entries if len(col) > 1]
    assert len(squares) == 6
    for n, rows in squares:
        assert n == 2 and len(rows) == 2
        p, q = (om.store.path(code).vertices for code, j in om.rows[2].items() if j in rows)
        assert p[0] == q[0] and p[2] == q[2] and p[1] != q[1]


def square_complex(ring, wb, wc):
    # (a b d) and (a c d) share the outside face (a d), with coefficients -w(b) and -w(c)
    return complex_from_paths(
        [Path((a, b, d)), Path((a, c, d))], weights={a: 1, b: wb, c: wc, d: 1}, ring=ring
    )


@pytest.mark.parametrize(
    "pc, p, ranks",
    [
        (diamond_complex(), None, [4, 4, 0, 0]),
        (square_complex(ZZ, 0, 0), None, [4, 4, 2, 0]),
        (square_complex(ZZ, 0, 1), None, [4, 4, 1, 0]),
        (square_complex(Zmod(5), 5, 10), 5, [4, 4, 2, 0]),
        (square_complex(Zmod(5), 5, 1), 5, [4, 4, 1, 0]),
        (square_complex(Zmod(5), 1, 1), 5, [4, 4, 1, 0]),
    ],
    ids=["diamond-Z", "square-Z-0-0", "square-Z-0-1", "square-Z5-5-10", "square-Z5-5-1", "square-Z5-1-1"],
)
def test_faces_with_zero_coefficient_are_not_constraints(pc, p, ranks):
    om = build_omega(pc, 3)
    assert [om.rank(n) for n in range(4)] == ranks == oracle.omega_dimensions(pc, 3, p=p)
    bases, boundaries = whole_matrix_omega(pc, 3)
    assert [m.data for m in om.bases] == [m.data for m in bases]
    assert {n: m.data for n, m in om.boundaries.items()} == {n: m.data for n, m in boundaries.items()}


def test_boundary_refuses_outside_faces_that_do_not_cancel(monkeypatch):
    # a wrong class kernel: each path of the linked class {(a b d), (a c d)} its own generator
    monkeypatch.setattr(wchain, "_one_row_kernel", lambda ring, a: [{k: ring.one} for k in range(len(a))])
    with pytest.raises(InvariantError, match=r"Omega_2 generator 0 maps onto \(a d\), off the target paths"):
        build_omega(square_complex(ZZ, 1, 1), 2)


def test_missing_weight_fires_only_on_a_regular_path_of_positive_degree():
    z = Vertex("z")
    singletons = [Path((v,)) for v in (a, b, z)]
    weights = {a: 1, b: 1}
    isolated = PathComplex.build([a, b, z], singletons + [Path((a, b))], weights, ZZ)
    assert [build_omega(isolated, 2).rank(n) for n in range(3)] == [3, 1, 0]
    on_edge = PathComplex.build([a, b, z], singletons + [Path((a, b)), Path((a, z))], weights, ZZ)
    assert build_omega(on_edge, 0).rank(0) == 3
    # z sits where dropping it leaves the irregular face (a a): it is still checked
    inside = PathComplex.build([a, b, z], singletons + [Path((a, z, a))], weights, ZZ)
    irregular = PathComplex.build([a, b, z], singletons + [Path((a, z, z))], weights, ZZ)
    assert build_omega(irregular, 2).rank(2) == 0
    for pc, top in ((on_edge, 1), (inside, 2)):
        with pytest.raises(MissingWeightError, match="vertex z has no weight"):
            build_omega(pc, top)


def test_a_vertex_only_irregular_paths_use_has_no_row():
    # z is neither declared nor weighted, and only the irregular (b z z) uses it: the
    # store numbers it, but no regular code holds it, so its missing weight is never read
    z = Vertex("z")
    paths = [Path((a,)), Path((b,)), Path((a, b)), Path((b, z, z))]
    pc = PathComplex.build([a, b], paths, {a: 2, b: 4}, ZZ)
    buckets = pc.regular_path_codes(2)
    assert pc.store.numbers == {a: 0, b: 1, z: 2} and [len(bucket) for bucket in buckets] == [2, 1, 0]
    assert homology(pc, 3).groups == [HomologyGroup(1, [2]), HomologyGroup(0), HomologyGroup(0)]
    om = build_omega(pc, 2)
    assert om.store is pc.store and om.rows[1:] == [{(0, 1): 0}, {}]


@pytest.mark.parametrize(
    "ring, draw",
    [
        (ZZ, lambda rng: rng.choice([-1, 1]) * rng.randint(1, 30)),
        (QQ, lambda rng: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))),
        (Zmod(2), lambda rng: 1),
        (Zmod(3), lambda rng: rng.randint(1, 2)),
        (Zmod(7), lambda rng: rng.randint(1, 6)),
    ],
    ids=["Z", "Q", "Z2", "Z3", "Z7"],
)
def test_one_row_kernel_equals_kernel_basis(ring, draw):
    rng = random.Random(41)
    for _ in range(4000):
        a = [draw(rng) for _ in range(rng.randint(2, 6))]
        assert wchain._one_row_kernel(ring, a) == one_row_kernel_by_elimination(ring, a), a


def assert_bases_equal_the_kernel_route(monkeypatch, complexes: list) -> int:
    """build_omega's bases and boundaries, for each (complex, max_degree), equal those with
    every one-row class's kernel from `kernel_basis`; returns how many classes took the
    closed form."""
    lengths = []
    one_row_kernel = wchain._one_row_kernel
    monkeypatch.setattr(wchain, "_one_row_kernel", lambda ring, a: lengths.append(len(a)) or one_row_kernel(ring, a))
    closed = [build_omega(pc, top) for pc, top in complexes]
    monkeypatch.setattr(wchain, "_one_row_kernel", one_row_kernel_by_elimination)
    for (pc, top), om in zip(complexes, closed):
        ref = build_omega(pc, top)
        assert om.bases == ref.bases and om.boundaries == ref.boundaries, pc
    return len(lengths)


@pytest.mark.parametrize(
    "ring, weight",
    [
        (ZZ, lambda rng: rng.choice([0, 2, -2, 3, 4, 6])),
        (QQ, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
        (Zmod(7), lambda rng: rng.randint(0, 6)),
        (Zmod(2), lambda rng: rng.randint(0, 1)),
    ],
    ids=["Z-unit-free", "Q", "Z7", "Z2"],
)
def test_closed_form_bases_equal_the_kernel_route_on_random_digraphs(monkeypatch, ring, weight):
    rng = random.Random(43)
    complexes = [(random_digraph_complex(rng, weight, ring), 4) for _ in range(300)]
    assert assert_bases_equal_the_kernel_route(monkeypatch, complexes) > 150


def test_closed_form_bases_equal_the_kernel_route_on_every_ladder_rung(monkeypatch):
    complexes = [(paths(length), length) for _, paths, length in ladder_rungs()]
    assert assert_bases_equal_the_kernel_route(monkeypatch, complexes) > 0


def assert_omega_equals_the_face_comprehension(pc, top: int) -> None:
    om, ref = build_omega(pc, top), omega_by_face_comprehension(pc, top)
    assert om.bases == ref.bases and om.boundaries == ref.boundaries, pc


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7), Zmod(2)], ids=["Z", "Q", "Z7", "Z2"])
def test_one_loop_face_table_equals_the_comprehension_on_random_complexes(ring):
    # random walks repeat vertices, so irregular paths and irregular interior faces
    # are common; every ring draws zero weights
    rng = random.Random(47)
    for _ in range(1000):
        assert_omega_equals_the_face_comprehension(random_complex(rng, ring=ring), 4)


def test_one_loop_face_table_equals_the_comprehension_on_hypergraph_and_open_complexes():
    complexes = [not_truncation_closed_complex(), pruned_in_three_rounds_complex()]
    irregular = 0
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        for which in "cb":
            pc = vertex_weighted_complex(g, which, 4)
            irregular += sum(not p.is_regular() for p in pc.paths)
            complexes.append(pc)
    assert irregular > sum(len(pc.paths) for pc in complexes) // 2
    for pc in complexes:
        assert_omega_equals_the_face_comprehension(pc, 4)


def test_block_kernels_factor_at_most_six_columns_on_the_5x5_grid(monkeypatch):
    widths = []
    original = algebra._echelon

    def recording(m):
        widths.append(m.cols)
        return original(m)

    pc = grid_complex(5, 5, 4)
    monkeypatch.setattr(algebra, "_echelon", recording)
    om = build_omega(pc, 4)
    assert [om.rank(n) for n in range(5)] == [25, 40, 16, 0, 0]
    assert widths == []  # every class is a linked square, whose kernel needs no elimination


def test_omega_ranks_of_the_8x8_grid_at_length_5():
    om = build_omega(grid_complex(8, 8, 5), 5)
    assert [om.rank(n) for n in range(6)] == [64, 112, 49, 0, 0, 0]


def lattice_homology_of_pair(boundary_out: Matrix, boundary_in: Matrix) -> HomologyGroup:
    """ker / im through the kernel lattice: a kernel basis of boundary_out, each
    boundary_in column solved in it, and the Smith form of those coefficients.
    The route before homology was read off invariant factors."""
    ring = boundary_out.ring
    ker = kernel_basis(boundary_out)
    coeffs = [solve_in_lattice(ker, col) for col in dense_columns(boundary_in)]
    assert None not in coeffs
    snf = smith_normal_form(matrix_of_columns(ring, coeffs, ker.cols))
    torsion = [] if ring.is_field else [x for x in snf.d if x > 1]
    return HomologyGroup(free_rank=ker.cols - snf.rank, torsion=torsion)


def assert_lattice_homology(pc: PathComplex, max_degree: int) -> list:
    om = build_omega(pc, max_degree)
    groups = homology_of_omega(om).groups
    want = [lattice_homology_of_pair(om.boundary(n), om.boundary(n + 1)) for n in range(max_degree)]
    assert groups == want, pc
    return groups


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)], ids=["Z", "Q", "Z7"])
def test_homology_equals_the_kernel_lattice_route_on_random_complexes(ring):
    rng = random.Random(23)
    groups = [g for _ in range(60) for g in assert_lattice_homology(random_complex(rng, ring=ring), 4)]
    assert any(g.free_rank for g in groups)
    if ring == ZZ:
        assert any(g.torsion for g in groups)


def test_homology_equals_the_kernel_lattice_route_on_grids():
    torsion = []
    for shape in ((2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 4, 4), (5, 5, 4)):
        torsion += [t for g in assert_lattice_homology(grid_complex(*shape), shape[2]) for t in g.torsion]
    assert {2, 6} <= set(torsion)


def k4_complex(maxlen: int, weights=(1, 2, 3, 4), ring=ZZ) -> PathComplex:
    vs = [Vertex(s) for s in "abcd"]
    k4 = WeightedDigraph.build(
        vs, [(x, y) for x in vs for y in vs if x != y], dict(zip(vs, weights)), ring
    )
    return paths_functor(k4, maxlen)


def k4_omega(maxlen: int):
    return build_omega(k4_complex(maxlen), maxlen)


@pytest.mark.parametrize("weights", [(2, 3, 4, 5), (2, 2, 2, 2)], ids=["w2-5", "w2"])
def test_homology_without_a_unit_weight_equals_the_kernel_lattice_route(weights):
    # no boundary entry is a unit, so every elimination starts with the Euclid phase
    groups = assert_lattice_homology(k4_complex(3, weights), 3)
    assert groups[0].free_rank == 1
    assert any(g.torsion for g in groups) == (weights == (2, 2, 2, 2))
    assert {t for g in groups for t in g.torsion} <= {2}


CANONICAL_RINGS = {"Z": ZZ, "Q": QQ, "Z7": Zmod(7), "Z2": Zmod(2)}


def assert_canonical(m: Matrix) -> None:
    """No stored zero, every row in range, and the dense view round-trips through from_rows."""
    assert len(m.entries) == m.cols
    assert all(x != m.ring.zero and 0 <= i < m.rows for col in m.entries for i, x in col.items())
    assert Matrix.from_rows(m.ring, m.data) == m if m.rows else m.data == ()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_storage_stays_canonical(data):
    # a stored zero would make equal matrices compare unequal, and with them the
    # commutation and chain-homotopy identity checks
    ring = CANONICAL_RINGS[data.draw(st.sampled_from(sorted(CANONICAL_RINGS)))]
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, 6, 7])  # 2 and 6 vanish over Z/2, 7 over Z/7
    if ring == QQ:
        entry = st.builds(Fraction, entry, st.sampled_from([1, 2]))

    def dense(rows, cols):
        return [[ring.coerce(x) for x in data.draw(st.lists(entry, min_size=cols, max_size=cols))] for _ in range(rows)]

    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b, c = Matrix(ring, n, k, dense(n, k)), Matrix(ring, k, m, dense(k, m)), Matrix(ring, n, k, dense(n, k))
    produced = [a, b, c, a @ b, matrix_add(a, c), matrix_sub(a, c), matrix_sub(a, a)]
    produced += [matrix_add(a, matrix_sub(Matrix.zeros(ring, n, k), a)), kernel_basis(a)]
    produced += [Matrix.from_columns(ring, list(a.entries) + list(c.entries), n), Matrix.identity(ring, k)]
    if n:
        produced.append(Matrix.from_rows(ring, dense(n, k)))
    # restrict_to_omega: the Omega boundaries and the identity's induced maps
    pc = random_complex(random.Random(data.draw(st.integers(0, 10 ** 6))), ring=ring, max_vertices=5, maxlen=3)
    om = build_omega(pc, 3)
    produced += om.bases + list(om.boundaries.values())
    maps = induced_chain_map(PathMorphism(pc, pc, {v: v for v in pc.vertices}), om, om)
    produced += list(maps.values())
    for mat in produced:
        assert_canonical(mat)
    assert all(maps[d] == Matrix.identity(ring, om.rank(d)) for d in maps)


def test_homology_takes_no_kernel_solve_or_smith_transform(monkeypatch):
    om = k4_omega(3)
    calls = []
    for module in (algebra, wchain):
        for name in ("solve_in_lattice", "kernel_basis", "smith_normal_form"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
    groups = homology_of_omega(om).groups
    assert [(g.free_rank, g.torsion) for g in groups] == [(1, []), (0, []), (0, [])]
    assert calls == []


def test_each_boundary_is_eliminated_at_most_once(monkeypatch):
    eliminated = {}  # id -> matrix; holding the matrix keeps its id from being reused
    repeats = []
    original = algebra._eliminate

    def counting(m, *args):
        if id(m) in eliminated:
            repeats.append((m.rows, m.cols))
        eliminated[id(m)] = m
        return original(m, *args)

    monkeypatch.setattr(algebra, "_eliminate", counting)
    om = k4_omega(3)
    homology_of_omega(om)
    homology_of_omega(om)
    assert all(id(m) in eliminated for m in om.boundaries.values())
    assert repeats == []


def test_each_boundary_is_eliminated_without_the_rows_the_one_below_settles(monkeypatch):
    # over Q every pivot is a unit, so d_n's unit columns number rank d_n
    om = build_omega(k4_complex(3, ring=QQ), 3)
    ranks = [0] + [len(chain_invariant_factors([om.boundary(n)])[0]) for n in range(1, 4)]
    received = {}
    original = algebra._eliminate

    def recording(m, skip=()):
        received[id(m)] = m.rows - len(skip)
        return original(m, skip)

    monkeypatch.setattr(algebra, "_eliminate", recording)
    homology_of_omega(om)
    assert [received[id(om.boundaries[n])] for n in range(1, 4)] == [om.rank(n - 1) - ranks[n - 1] for n in range(1, 4)]
    assert ranks[1] == 3 and om.rank(1) == 12


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: random_complex(rng, maxlen=5),
        lambda rng: random_unit_free_complex(rng, maxlen=5),
        lambda rng: random_complex(rng, ring=QQ, maxlen=5),
        lambda rng: random_complex(rng, ring=Zmod(2), maxlen=5),
        lambda rng: random_complex(rng, ring=Zmod(7), maxlen=5),
    ],
    ids=["Z", "Z-unit-free", "Q", "Z2", "Z7"],
)
def test_reduced_chain_equals_the_pairs_on_the_full_boundaries(draw):
    rng = random.Random(29)
    groups = []
    for _ in range(120):
        pc = draw(rng)
        om = build_omega(pc, 5)
        got = homology_of_omega(om).groups
        assert got == [homology_of_pair(om.boundary(n), om.boundary(n + 1)) for n in range(5)], pc
        groups += got
    assert any(g.free_rank for g in groups)
    assert any(g.torsion for g in groups) == (om.ring == ZZ)


def ladder_rungs() -> tuple:
    spec = importlib.util.spec_from_file_location("ladder", FIXTURES.parent / "scripts" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder.RUNGS


@pytest.mark.parametrize("rung", ladder_rungs(), ids=lambda rung: rung[0])
def test_reduced_chain_equals_the_pairs_on_every_ladder_rung(rung):
    _, paths, length = rung
    om = build_omega(paths(length), length)
    assert homology_of_omega(om).groups == [
        homology_of_pair(om.boundary(n), om.boundary(n + 1)) for n in range(length)
    ]
