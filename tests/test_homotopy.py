import random
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from functools import cached_property

import pytest

from wph import algebra, chain, homotopy
from wph import io as wio
from wph.algebra import QQ, ZZ, Matrix, Zmod
from wph.chain import build_omega, induced_chain_map
from wph.dhyper import Arrow, DirectedHypergraph, HyperMorphism
from wph.errors import HomotopyIdentityFailedError, MissingWeightError, NonInvertibleWeightError, NotAMorphismError
from wph.homotopy import (
    chain_homotopy_certificate,
    chain_step_pairs,
    edge_weighted_certificate,
    natural_path_morphisms,
    one_step_homotopy_dhyper,
    one_step_homotopy_pathcx,
    prism,
    verify_path_morphism,
    verify_prism_identity,
)
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
    assert_chain_verdict_matches_lattice,
    assert_prism_routes_agree,
    certificate_outcome,
    certificate_over_the_ring,
    certify_one_step_by_matrices,
    codes_of,
    doubled_lifts,
    homology_maps_equal,
    induced_homology_maps_equal,
    morphism_problems_by_paths,
    prism_by_paths,
    random_complex,
    random_pair,
    random_q_homotopy,
    random_unit_weight_complex,
    random_units_complex,
    outcome,
    route_outcomes,
)

a, b, c, d, w, x, y, z = (Vertex(s) for s in "abcdwxyz")


def edge_target():
    return complex_from_paths(
        [Path((x, y))], weights={x: Fraction(1), y: Fraction(1)}, ring=QQ
    )


def point_source():
    return complex_from_paths([Path((a,))], weights={a: Fraction(1)}, ring=QQ)


def test_verify_path_morphism_strict_vs_degenerate():
    src = complex_from_paths([Path((a, b))], weights={a: Fraction(1), b: Fraction(1)}, ring=QQ)
    tgt = complex_from_paths([Path((x,))], weights={x: Fraction(1)}, ring=QQ)
    collapse = PathMorphism(src, tgt, {a: x, b: x})
    assert not verify_path_morphism(collapse).ok  # image xx is not a target path
    assert verify_path_morphism(collapse, allow_degenerate=True).ok


def test_a_missing_weight_of_an_image_vertex_is_a_typed_error():
    src = complex_from_paths([Path((a, b))], weights={a: Fraction(1), b: Fraction(1)}, ring=QQ)
    tgt = complex_from_paths([Path((a, b))], weights={a: Fraction(1)}, ring=QQ)
    with pytest.raises(MissingWeightError, match="vertex b has no weight"):
        verify_path_morphism(PathMorphism(src, tgt, {a: a, b: b}))


def test_the_bottom_inclusion_is_its_own_homotopy_with_degeneracies_on_every_criterion_5_complex():
    # as in acceptance criterion 5; the complexes have irregular paths such as (c a a c),
    # whose own repeat must survive the degenerate check of the identity on the bottom copy
    rng = random.Random(17)
    irregular = 0
    for _ in range(20):
        pc = random_unit_weight_complex(rng, max_vertices=5, maxlen=3)
        f = inclusion_bottom(pc)
        cert = chain_homotopy_certificate(f, f, 3, allow_degenerate=True)
        assert cert.ok and cert.identity_holds and cert.homology_maps_equal, (pc, cert.problems)
        assert homology_maps_equal(f, f, 3), pc
        irregular += any(not p.is_regular() for p in pc.paths)
    assert irregular >= 5


def test_one_step_homotopy_along_an_edge():
    f = PathMorphism(point_source(), edge_target(), {a: x})
    g = PathMorphism(point_source(), edge_target(), {a: y})
    rep = one_step_homotopy_pathcx(f, g)
    assert rep.ok
    # the reverse direction has no edge y -> x
    assert not one_step_homotopy_pathcx(g, f).ok


def test_identity_is_strictly_homotopic_to_itself_only_with_degeneracies():
    pc = edge_target()
    ident = PathMorphism(pc, pc, {v: v for v in pc.vertices})
    assert not one_step_homotopy_pathcx(ident, ident).ok
    assert one_step_homotopy_pathcx(ident, ident, allow_degenerate=True).ok


def chain_holds(steps: list) -> bool:
    """Whether every step of a chain of (morphism, direction) pairs is a one-step homotopy."""
    return all(one_step_homotopy_pathcx(a, b).ok for a, b in chain_step_pairs(steps))


def test_homotopy_chain_of_two_steps():
    f = PathMorphism(point_source(), edge_target(), {a: x})
    g = PathMorphism(point_source(), edge_target(), {a: y})
    assert chain_holds([(f, "forward"), (g, "forward")])
    assert chain_holds([(g, "forward"), (f, "backward")])
    assert not chain_holds([(g, "forward"), (f, "forward")])


def test_an_undeclared_path_vertex_left_unmapped_is_named():
    # b is on a path but not declared: the morphism check and f_* name it, with no KeyError
    src = PathComplex.build([a], [Path((a,)), Path((a, b))], {a: 1, b: 1}, ZZ)
    tgt = complex_from_paths([Path((x,))], weights={x: 1}, ring=ZZ)
    f = PathMorphism(src, tgt, {a: x})
    assert verify_path_morphism(f).problems == ["vertex b is unmapped"]
    with pytest.raises(NotAMorphismError, match="^vertex b is unmapped$"):
        induced_chain_map(f, build_omega(src, 1), build_omega(tgt, 1))


@pytest.mark.parametrize("weights", [{a: 1, b: 1}, {a: 1}], ids=["weighted", "unweighted"])
def test_the_one_step_homotopy_maps_an_undeclared_path_vertex(weights):
    # b is on a path but not declared: F maps b and b' as f and g map b
    src = PathComplex.build([a], [Path((a,)), Path((b,)), Path((a, b))], weights, ZZ)
    tgt = complex_from_paths([Path((x, y))], weights={x: 1, y: 1}, ring=ZZ)
    f = PathMorphism(src, tgt, {a: x, b: y})
    rep = one_step_homotopy_pathcx(f, f, allow_degenerate=True)
    assert (rep.ok, rep.problems) == (True, [])
    assert rep.homotopy.vertex_map == {a: x, b: y, a.primed(): x, b.primed(): y}
    if b in weights:
        cert = chain_homotopy_certificate(f, f, 2, allow_degenerate=True)
        assert (cert.ok, cert.problems, cert.identity_holds, cert.homology_maps_equal) == (True, [], True, True)
    else:
        with pytest.raises(MissingWeightError, match="^vertex b has no weight$"):
            chain_homotopy_certificate(f, f, 2, allow_degenerate=True)


def test_verify_path_morphism_lists_failing_paths_by_length_then_vertices():
    # failures on paths of lengths 1, 2 and 3, in the text and order of a sorted walk of the source
    e = Vertex("e")
    src = complex_from_paths([Path((a, b, c)), Path((b, d)), Path((e, a, b, d))])
    tgt = complex_from_paths([Path((x, y)), Path((y, z)), Path((z, x))])
    rep = verify_path_morphism(PathMorphism(src, tgt, {a: x, b: y, c: x, d: x, e: z}))
    assert (rep.ok, rep.weighted) == (False, None)
    assert rep.problems == [
        "image (y x) of (b c) is not a target path",
        "image (y x) of (b d) is not a target path",
        "image (x y x) of (a b c) is not a target path",
        "image (x y x) of (a b d) is not a target path",
        "image (z x y) of (e a b) is not a target path",
        "image (z x y x) of (e a b d) is not a target path",
    ]
    rep = verify_path_morphism(PathMorphism(src, tgt, {a: x, b: y, c: y, d: x, e: z}), allow_degenerate=True)
    assert rep.problems == [
        "image (y x) of (b d) is not a target path",
        "image (x y x) of (a b d) is not a target path",
        "image (z x y) of (e a b) is not a target path",
        "image (z x y x) of (e a b d) is not a target path",
    ]


def random_vertex_map(rng: random.Random, source: PathComplex) -> tuple:
    """(target, vertex map) for a random map of source: into a random complex, mostly off its
    paths, or into the complex of the source paths' images under the map with some of them
    dropped, mostly on them; a vertex is now and then left unmapped or sent off the target."""
    tverts = [Vertex(f"t{i}") for i in range(rng.randint(1, 5))]
    vmap = {v: rng.choice(tverts) for v in sorted(source.vertices)}
    if rng.random() < 0.5:
        target = random_complex(rng, ring=rng.choice([ZZ, QQ]), max_vertices=6, maxlen=3)
        vmap = {v: rng.choice(sorted(target.vertices)) for v in vmap}
    else:
        images = [Path(tuple(vmap[v] for v in p.vertices)) for p in source.paths if rng.random() < 0.9]
        images += [Path((u,)) for u in tverts]  # every map lands on a target vertex
        draws = {u: rng.choice([w for v, w in source.weights if vmap[v] == u] or [1]) for u in tverts}
        target = complex_from_paths(images, draws if rng.random() < 0.8 else None, source.ring)
    v = rng.choice(sorted(vmap))
    if rng.random() < 0.05:
        del vmap[v]
    elif rng.random() < 0.05:
        vmap[v] = Vertex("off")
    return target, vmap


def test_the_morphism_check_on_codes_reports_what_the_check_on_paths_reports():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(300):
        source = random_complex(rng, ring=rng.choice([ZZ, QQ]), max_vertices=5, maxlen=3)
        target, vmap = random_vertex_map(rng, source)
        f = PathMorphism(source, target, vmap)
        for allow_degenerate in (False, True):
            rep = verify_path_morphism(f, allow_degenerate)
            want = morphism_problems_by_paths(f, allow_degenerate)
            assert (rep.ok, rep.weighted, rep.problems) == want, (f, allow_degenerate)
            seen["passed" if rep.ok else rep.problems[0].split()[0]] += 1  # by the first problem's kind
        seen["irregular"] += any(not p.is_regular() for p in source.paths)
    assert seen["irregular"] >= 100 and seen["passed"] >= 50, seen
    assert seen["image"] >= 100 and seen["weight"] >= 50 and seen["vertex"] >= 10, seen


@pytest.mark.parametrize("ring, seed", [(QQ, 31), (Zmod(5), 32)], ids=["Q", "Z/5"])
def test_chain_certificates_agree_with_the_lattice_test_on_random_chains(tmp_path, ring, seed):
    # a chain that passes says the maps are equal on homology, and the lattice test agrees;
    # a chain whose ends the lattice test tells apart is refused
    rng = random.Random(seed)
    seen = Counter(assert_chain_verdict_matches_lattice(rng, ring, tmp_path) for _ in range(60))
    assert seen[True, True] >= 20 and seen[False, False] >= 1 and seen[False, True] >= 10, seen
    assert set(seen) <= {(True, True), (False, True), (False, False), (False, None)}, seen


@pytest.mark.parametrize("partial", ["f", "g"])
def test_a_partial_vertex_map_is_reported_unmapped(partial):
    src = complex_from_paths([Path((a, b))], weights={a: Fraction(1), b: Fraction(1)}, ring=QQ)
    tgt = complex_from_paths([Path((x, y))], weights={x: Fraction(1), y: Fraction(1)}, ring=QQ)
    maps = {"f": {a: x, b: x}, "g": {a: x, b: y}}
    del maps[partial][b]
    f, g = (PathMorphism(src, tgt, maps[k]) for k in "fg")
    unmapped = "vertex b is unmapped" if partial == "f" else "vertex b' is unmapped"
    rep = one_step_homotopy_pathcx(f, g)
    assert (rep.ok, rep.problems, rep.homotopy) == (False, [unmapped], None)
    cert = chain_homotopy_certificate(f, g, 2)
    assert (cert.ok, cert.problems) == (False, [f"not one-step homotopic: {unmapped}"])


def count_cylinder_builds(monkeypatch) -> list:
    """The complexes whose cylinder is built from here on, one entry per build."""
    built = []
    build = PathComplex._cylinder.func

    def counting(pc):
        built.append(pc)
        return build(pc)

    memo = cached_property(counting)
    memo.__set_name__(PathComplex, "_cylinder")
    monkeypatch.setattr(PathComplex, "_cylinder", memo)
    return built


def test_the_certificate_on_the_cylinder_inclusions_builds_no_cylinder(monkeypatch):
    built = count_cylinder_builds(monkeypatch)
    for pc in criterion5_complexes()[:5]:
        f, g = inclusion_bottom(pc), inclusion_top(pc)
        assert f.target is g.target
        assert chain_homotopy_certificate(f, g, 3).ok
        assert one_step_homotopy_pathcx(f, g).ok
    assert len(built) == 5  # one per complex, by the first inclusion


def test_a_homotopy_chain_builds_one_cylinder(monkeypatch):
    built = count_cylinder_builds(monkeypatch)
    src, tgt = point_source(), complex_from_paths([Path((x, y, z, w))], weights=dict.fromkeys([x, y, z, w], 1), ring=QQ)
    steps = [(PathMorphism(src, tgt, {a: t}), "forward") for t in (x, y, z, w)]
    assert chain_holds(steps)
    assert built == [src]


def test_prism_of_an_edge_uses_inverse_weights():
    # the edge (a b) weighs 2, 4; a, a', b, b' have the numbers 0..3 in the cylinder
    gammas = [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 4), Fraction(-1, 4))]
    assert prism((0, 1), [0, 2], [1, 3], gammas) == [
        ((0, 1, 3), Fraction(1, 2)),  # (a a' b')
        ((0, 2, 3), Fraction(-1, 4)),  # (a b b')
    ]


def test_prism_identity_on_fixed_complex():
    pc = complex_from_paths(
        [Path((a, b, c))],
        weights={a: Fraction(1), b: Fraction(1, 2), c: Fraction(3)},
        ring=QQ,
    )
    codes = [c for bucket in pc.regular_path_codes(2) for c in bucket]
    assert [(rep.ok, rep.difference) for rep in verify_prism_identity(pc, codes)] == [(True, None)] * 6


def test_prism_identity_on_random_complexes():
    # 400 complexes over Q, Z (weights +-1), Z/7 and Z/2, every regular path checked on
    # codes and on Paths, with the prism and with every lift doubled
    rng = random.Random(5)
    paths_checked = 0
    for k in range(400):
        pc = random_units_complex(rng, k)
        paths = [p for n in range(4) for p in pc.regular_paths(n)]
        assert_prism_routes_agree(pc, paths)
        paths_checked += len(paths)
    assert paths_checked >= 4000


def test_prism_requires_invertible_weights():
    pc = complex_from_paths([Path((a, b))], weights={a: 2, b: 4}, ring=ZZ)
    with pytest.raises(NonInvertibleWeightError):
        verify_prism_identity(pc, codes_of(pc, [Path((a, b))]))


def test_prism_identity_needs_a_weight_on_every_path_vertex():
    # c has no weight: the check refuses it as the certificate does, and takes (a b)
    pc = complex_from_paths([Path((a, b)), Path((b, c))], weights={a: 1, b: 2}, ring=QQ)
    with pytest.raises(MissingWeightError, match="vertex c has no weight"):
        verify_prism_identity(pc, codes_of(pc, [Path((b, c))]))
    assert [rep.ok for rep in verify_prism_identity(pc, codes_of(pc, [Path((a, b))]))] == [True]


def two_by_two():
    return complex_from_paths(
        [Path((a, c)), Path((a, d)), Path((b, c)), Path((b, d))],
        weights={v: Fraction(1) for v in (a, b, c, d)},
        ring=QQ,
    )


def test_cylinder_inclusions_are_chain_homotopic():
    pc = two_by_two()
    f, g = inclusion_bottom(pc), inclusion_top(pc)
    cert = chain_homotopy_certificate(f, g, 3)
    assert cert.ok, cert.problems
    assert cert.identity_holds
    assert cert.homology_maps_equal
    assert homology_maps_equal(f, g, 3)


def test_certificate_for_maps_to_an_edge():
    f = PathMorphism(point_source(), edge_target(), {a: x})
    g = PathMorphism(point_source(), edge_target(), {a: y})
    cert = chain_homotopy_certificate(f, g, 3)
    assert cert.ok and cert.identity_holds and cert.homology_maps_equal
    assert homology_maps_equal(f, g, 3)


def test_certificate_rejects_non_invertible_source_weights():
    src = complex_from_paths([Path((a,))], weights={a: 2}, ring=ZZ)
    tgt = complex_from_paths([Path((x, y))], weights={x: 2, y: 2}, ring=ZZ)
    f = PathMorphism(src, tgt, {a: x})
    g = PathMorphism(src, tgt, {a: y})
    with pytest.raises(NonInvertibleWeightError):
        chain_homotopy_certificate(f, g, 2)


def test_certificate_refuses_two_rings():
    tgt = complex_from_paths([Path((x, y))], weights={x: 1, y: 1}, ring=ZZ)
    f = PathMorphism(point_source(), tgt, {a: x})
    g = PathMorphism(point_source(), tgt, {a: y})
    assert one_step_homotopy_pathcx(f, g).ok
    with pytest.raises(MissingWeightError, match="both sides weighted over one ring"):
        chain_homotopy_certificate(f, g, 2)


def A(origin, end):
    return Arrow(frozenset(origin), frozenset(end))


def square_target():
    u, v = Vertex("u"), Vertex("v")
    return DirectedHypergraph.build(
        [A({a}, {b}), A({a}, {u}), A({b}, {v}), A({u}, {v})],
        {a: 1, b: 1, u: 1, v: 1},
        ZZ,
    )


def test_one_step_homotopy_dhyper_strict():
    u, v = Vertex("u"), Vertex("v")
    src = DirectedHypergraph.build([A({a}, {b})], {a: 1, b: 1}, ZZ)
    tgt = square_target()
    f = HyperMorphism(src, tgt, {a: a, b: b})
    g = HyperMorphism(src, tgt, {a: u, b: v})
    assert one_step_homotopy_dhyper(f, g).ok
    # reverse requires arrows u -> a and v -> b, which do not exist
    assert not one_step_homotopy_dhyper(g, f).ok


def test_dhyper_self_homotopy_needs_reflexive_mode():
    src = DirectedHypergraph.build([A({a}, {b})], {a: 1, b: 1}, ZZ)
    f = HyperMorphism(src, src, {a: a, b: b})
    assert not one_step_homotopy_dhyper(f, f, mode="strict").ok
    assert one_step_homotopy_dhyper(f, f, mode="reflexive").ok


def test_one_step_homotopy_dhyper_reports_only_a_failed_morphism_check(monkeypatch):
    u, v = Vertex("u"), Vertex("v")
    src = DirectedHypergraph.build([A({a}, {b})], {a: 1, b: 1}, ZZ)
    tgt = square_target()
    f = HyperMorphism(src, tgt, {a: b, b: a})  # (b -> a) is no arrow of the target
    g = HyperMorphism(src, tgt, {a: u, b: v})
    report = one_step_homotopy_dhyper(f, g)
    assert not report.ok and report.problems[0].startswith("f is not a morphism: image of arrow")

    def broken(self):
        raise RuntimeError("a fault inside check")

    monkeypatch.setattr(HyperMorphism, "check", broken)
    with pytest.raises(RuntimeError, match="a fault inside check"):
        one_step_homotopy_dhyper(g, g)


def test_edge_weighted_certificate_on_square():
    u, v = Vertex("u"), Vertex("v")
    src = DirectedHypergraph.build([A({a}, {b})], {a: 1, b: 1}, ZZ)
    tgt = square_target()
    f = HyperMorphism(src, tgt, {a: a, b: b})
    g = HyperMorphism(src, tgt, {a: u, b: v})
    cert = edge_weighted_certificate(f, g, 2)
    assert cert.ok and cert.homology_maps_equal
    assert homology_maps_equal(*natural_path_morphisms(f, g, 4), 2)


def test_edge_weighted_certificate_gates_on_set_weights():
    src = DirectedHypergraph.build([A({a}, {b})], {a: 2, b: 1}, ZZ)
    tgt = DirectedHypergraph.build(
        [A({x}, {y}), A({x}, {c}), A({y}, {d}), A({c}, {d})],
        {x: 1, y: 1, c: 1, d: 1},
        ZZ,
    )
    f = HyperMorphism(src, tgt, {a: x, b: y})
    g = HyperMorphism(src, tgt, {a: c, b: d})
    with pytest.raises(NonInvertibleWeightError):
        edge_weighted_certificate(f, g, 2)


def run_on(pc):
    """The complex a certificate builds Omega on: over Q the support complex over Z."""
    return pc.support() if pc.ring == QQ else pc


def test_certificate_builds_omega_once_per_distinct_complex(monkeypatch):
    # the source's only: the target's paths are read as codes, and the cylinder gets no Omega
    built = []
    original = homotopy.build_omega

    def counting(pc, max_degree):
        built.append(pc)
        return original(pc, max_degree)

    monkeypatch.setattr(homotopy, "build_omega", counting)
    pc = random_unit_weight_complex(random.Random(17), max_vertices=5, maxlen=3)
    f, g = inclusion_bottom(pc), inclusion_top(pc)
    assert f.target == pc.cylinder()
    assert chain_homotopy_certificate(f, g, 3).ok
    assert built == [f.source.support()]
    assert homology_maps_equal(f, g, 3)
    # homotopies whose target is not the cylinder: no Omega of the target or of the cylinder
    for name in ("point-to-edge", "dhyper-fixtures"):
        certify, pair = CERTIFICATES[name]
        built.clear()
        assert certify().ok
        f, _ = pair()
        assert built == [run_on(f.source)]
    # over Z a target weight that is no unit is outside the support argument: Omega on the source as given
    src = complex_from_paths([Path((a,))], weights={a: 1}, ring=ZZ)
    tgt = complex_from_paths([Path((x, y)), Path((z,))], weights={x: 1, y: 1, z: 2}, ring=ZZ)
    built.clear()
    assert chain_homotopy_certificate(PathMorphism(src, tgt, {a: x}), PathMorphism(src, tgt, {a: y}), 3).ok
    assert built == [src]


@pytest.mark.parametrize(
    "ring, weight, paths, equal",
    [
        (QQ, 1, [Path((x,)), Path((y,))], False),  # x - y is a cycle and no boundary
        (QQ, 1, [Path((x, y))], True),  # x - y bounds the edge
        (QQ, 2, [Path((x, y))], True),  # 2 is a unit over Q
        (ZZ, 1, [Path((x, y))], True),
        (ZZ, 2, [Path((x, y))], False),  # x - y is the Z/2 class: 2(x - y) bounds, x - y does not
    ],
    ids=["Q-two-points", "Q-edge", "Q-edge-weight-2", "Z-edge", "Z-edge-weight-2"],
)
def test_homology_map_check_compares_point_images_in_degree_0(ring, weight, paths, equal):
    src = complex_from_paths([Path((a,))], weights={a: weight}, ring=ring)
    tgt = complex_from_paths(paths, weights={x: weight, y: weight}, ring=ring)
    f, g = PathMorphism(src, tgt, {a: x}), PathMorphism(src, tgt, {a: y})
    assert homology_maps_equal(f, g, 0) is equal
    assert homology_maps_equal(f, f, 0)


def weighted_square(ring, corner: int, paths=None):
    # (a b d) - (a c d) spans Omega_2; its boundary is corner times the cycle
    # (a b) + (b d) - (a c) - (c d), which generates the cycles of degree 1
    paths = paths or [Path((a, b, d)), Path((a, c, d))]
    weights = {a: corner, b: 1, c: 1, d: corner}
    return complex_from_paths(paths, weights=weights, ring=ring)


@pytest.mark.parametrize(
    "ring, corner, filled, equal",
    [
        (QQ, 1, False, False),  # the cycle is no boundary without the square's Omega_2
        (QQ, 1, True, True),
        (QQ, 2, True, True),
        (ZZ, 1, True, True),
        (ZZ, 2, True, False),  # the cycle is in the rational span of the boundaries, not the lattice
    ],
    ids=["Q-hollow", "Q-filled", "Q-filled-corner-2", "Z-filled", "Z-filled-corner-2"],
)
def test_homology_map_check_sees_a_cycle_move_off_the_boundaries(ring, corner, filled, equal):
    edges = [Path((a, b)), Path((b, d)), Path((a, c)), Path((c, d))]
    pc = weighted_square(ring, corner, None if filled else edges)
    om = build_omega(pc, 2)
    ident = {n: Matrix.identity(ring, om.rank(n)) for n in range(2)}
    kill_1 = {0: ident[0], 1: Matrix.zeros(ring, om.rank(1), om.rank(1))}  # differs from ident by the identity on Omega_1
    assert [om.rank(n) for n in range(3)] == [4, 4, 1 if filled else 0]
    assert induced_homology_maps_equal(om, om, ident, kill_1, 1) is equal
    assert induced_homology_maps_equal(om, om, ident, ident, 1)


def criterion5_complexes():
    """The 20 complexes whose cylinder inclusions acceptance criterion 5 certifies."""
    rng = random.Random(17)
    return [random_unit_weight_complex(rng, max_vertices=5, maxlen=3) for _ in range(20)]


def support_route_cases() -> list:
    """(f, g, N, allow_degenerate) for the support-route equivalence test: the 20 criterion-5
    cylinder inclusions, and each bottom inclusion to itself under allow_degenerate, at
    N = 0..5; then 600 random homotopies over Q (`random_q_homotopy`), half of them under
    allow_degenerate."""
    cases = [
        (f, g, n, degenerate)
        for pc in criterion5_complexes()
        for f, g, degenerate in (
            (inclusion_bottom(pc), inclusion_top(pc), False),
            (inclusion_bottom(pc), inclusion_bottom(pc), True),
        )
        for n in range(6)
    ]
    rng = random.Random(5)
    cases += [(*random_q_homotopy(rng), rng.randint(0, 4), k % 2 == 1) for k in range(600)]
    return cases


@pytest.mark.parametrize("doubled", [False, True], ids=["prism", "doubled-prism"])
def test_certificates_over_q_on_the_support_complexes_give_the_outcomes_over_q(doubled):
    # the outcome, flags or error type and message, equals the reference's run over Q itself
    outcomes = Counter()
    # twice the lifts on both routes: the identity fails wherever g* - f* is not 0
    with doubled_lifts() if doubled else nullcontext():
        for f, g, n, degenerate in support_route_cases():
            got = certificate_outcome(chain_homotopy_certificate, f, g, n, degenerate)
            assert got == certificate_outcome(certificate_over_the_ring, f, g, n, degenerate), (f, g, n, degenerate)
            outcomes[got[0]] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100 and outcomes["NonInvertibleWeightError"] >= 50
    assert (outcomes["HomotopyIdentityFailedError"] >= 100) is doubled


def test_the_cylinder_inclusions_homotopy_induces_the_identity():
    sizes = []
    for pc in criterion5_complexes():
        F = one_step_homotopy_pathcx(inclusion_bottom(pc), inclusion_top(pc)).homotopy
        assert F.target == F.source and all(u == v for v, u in F.vertex_map.items())
        om = build_omega(F.source, 4)
        mats = induced_chain_map(F, om, om)
        assert all(mats[n] == Matrix.identity(QQ, om.rank(n)) for n in range(5))
        sizes.append(len(pc.paths))
    assert max(sizes) > 11  # larger than every certify-q complex


def test_the_certificate_eliminates_nothing_outside_its_omega_builds(monkeypatch):
    # kernels (`_echelon`), invariant factors (`_eliminate`), re-expressions in Omega bases
    # (`restrict_to_omega`) and matrix products are counted apart for the calls made inside
    # `build_omega` and the rest of the certificate, which works on path chains alone
    counts = {"omega": Counter(), "rest": Counter()}
    inside = []

    def counting(name, original):
        def run(*args):
            counts["omega" if inside else "rest"][name] += 1
            return original(*args)

        return run

    def omega(pc, max_degree, original=homotopy.build_omega):
        inside.append(pc)
        try:
            return original(pc, max_degree)
        finally:
            inside.pop()

    for owner, name in ((algebra, "_echelon"), (algebra, "_eliminate"), (chain, "restrict_to_omega"), (Matrix, "matmul")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(homotopy, "build_omega", omega)
    for pc in criterion5_complexes():
        assert chain_homotopy_certificate(inclusion_bottom(pc), inclusion_top(pc), 3).ok
    for certify, _ in CERTIFICATES.values():
        assert certify().ok
    assert counts["omega"]["restrict_to_omega"] > 0  # the source's boundaries
    assert counts["rest"] == Counter()


def fixture_body(name: str):
    return wio.parse((FIXTURES / name).read_bytes()).body


def dh_fixture_morphisms() -> tuple:
    src, tgt = fixture_body("dh_mor_source.json"), fixture_body("dh_square_sets.json")
    return tuple(HyperMorphism(src, tgt, dict(fixture_body(m).vertex_map)) for m in ("mor_dh_f.json", "mor_dh_g.json"))


def point_to_edge():
    f = PathMorphism(point_source(), edge_target(), {a: x})
    g = PathMorphism(point_source(), edge_target(), {a: y})
    return f, g


CERTIFICATES = {  # id -> (the certificate, the pair f, g it certifies)
    "cylinder-inclusions": (
        lambda: chain_homotopy_certificate(inclusion_bottom(two_by_two()), inclusion_top(two_by_two()), 3),
        lambda: (inclusion_bottom(two_by_two()), inclusion_top(two_by_two())),
    ),
    "bottom-to-bottom": (
        lambda: chain_homotopy_certificate(*[inclusion_bottom(two_by_two())] * 2, 3, allow_degenerate=True),
        lambda: [inclusion_bottom(two_by_two())] * 2,
    ),
    "point-to-edge": (lambda: chain_homotopy_certificate(*point_to_edge(), 3), point_to_edge),
    "dhyper-fixtures": (
        lambda: edge_weighted_certificate(*dh_fixture_morphisms(), 2),
        lambda: natural_path_morphisms(*dh_fixture_morphisms(), 4),
    ),
}


@pytest.mark.parametrize("certify, pair", CERTIFICATES.values(), ids=CERTIFICATES)
def test_every_certificate_computes_exactly_the_induced_maps_of_f_and_g(monkeypatch, certify, pair):
    # F's lifts are taken on f's and on g's own vertex tables into the target's numbers,
    # once per code: every source path below the degree cap, and each face off the source
    calls = []
    original = homotopy.prism

    def recording(code, bottom, top, coefficients):
        calls.append((code, list(bottom), list(top)))
        return original(code, bottom, top, coefficients)

    monkeypatch.setattr(homotopy, "prism", recording)
    cert = certify()
    assert cert.ok and cert.identity_holds and cert.homology_maps_equal
    f, g = pair()
    tables = [[f.target.store.numbers[m.vertex_map[v]] for v in f.source.store.vertices] for m in (f, g)]
    assert calls and all([bottom, top] == tables for _, bottom, top in calls)
    codes = [code for code, _, _ in calls]
    cap = min(cert.degrees_checked, max(len(f.source.store.buckets), len(f.target.store.buckets)))
    assert len(set(codes)) == len(codes)
    assert set(codes) >= {c for bucket in f.source.regular_path_codes(cap - 1) for c in bucket}
    assert homology_maps_equal(f, g, cert.degrees_checked - 1)


def test_lifts_that_map_onto_one_path_are_summed():
    # F sends the lifts (a a' b') and (a b b') of the edge (a b) both onto (x y z), with
    # opposite signs; (x y z) has the outside face (x z), so only their sum, 0, is in Omega_2
    one = Fraction(1)
    edge = complex_from_paths([Path((a, b))], weights={a: one, b: one}, ring=QQ)
    line = complex_from_paths([Path((x, y, z))], weights={x: one, y: one, z: one}, ring=QQ)
    f, g = PathMorphism(edge, line, {a: x, b: y}), PathMorphism(edge, line, {a: y, b: z})
    F = one_step_homotopy_pathcx(f, g).homotopy
    lifts = prism_by_paths(Path((a, b)), {a: one, b: one}, QQ)
    assert {Path(tuple(F.vertex_map[v] for v in p.vertices)) for p, _ in lifts} == {Path((x, y, z))}
    cert = chain_homotopy_certificate(f, g, 3)
    assert cert.ok and cert.identity_holds and cert.homology_maps_equal
    assert homology_maps_equal(f, g, 3)


@pytest.mark.parametrize(
    "pair",
    [lambda: (inclusion_bottom(two_by_two()), inclusion_top(two_by_two())), point_to_edge],
    ids=["cylinder-inclusions", "point-to-edge"],
)
def test_a_wrong_homotopy_is_refused(pair):
    # twice a chain of Omega stays in Omega: only the identity dL + Ld = g* - f* can fail
    with doubled_lifts(), pytest.raises(HomotopyIdentityFailedError, match="fails on Omega_0 generator 0"):
        chain_homotopy_certificate(*pair(), 3)


@pytest.mark.parametrize(
    "pair",
    [point_to_edge, lambda: (inclusion_bottom(two_by_two()), inclusion_top(two_by_two()))],
    ids=["point-to-edge", "cylinder-inclusions"],
)
def test_certificate_work_stops_at_the_longest_path(monkeypatch, pair):
    # Omega of the source, and the target's regular paths, up to 1 + the longest path
    built, read = [], []
    original, codes = homotopy.build_omega, PathComplex.regular_path_codes

    def recording(pc, max_degree):
        built.append((pc, max_degree))
        return original(pc, max_degree)

    def reading(pc, max_degree):
        read.append((pc, max_degree))
        return codes(pc, max_degree)

    monkeypatch.setattr(homotopy, "build_omega", recording)
    monkeypatch.setattr(PathComplex, "regular_path_codes", reading)
    f, g = pair()
    longest = max(p.length for p in f.target.paths)  # the target holds the longest path of the three
    assert longest + 1 < 4
    reports = {}
    for n in (3, 20000):
        built.clear()
        read.clear()
        cert = chain_homotopy_certificate(f, g, n)
        assert cert.degrees_checked == n + 1
        reports[n] = (cert.ok, cert.problems, cert.identity_holds, cert.homology_maps_equal, list(built), set(read))
        assert homology_maps_equal(f, g, n)
    assert reports[3] == reports[20000]
    assert reports[3][:4] == (True, [], True, True)
    source, target = run_on(f.source), run_on(f.target)
    assert reports[3][4] == [(source, longest + 1)]
    assert reports[3][5] == {(source, longest + 1), (target, longest + 1)}


def test_the_code_route_builds_the_reference_matrices_on_the_support_route_cases():
    # f_* and g_* on path codes against mapped_rows on Paths, between the complexes each
    # certificate runs on (over Q, the support complexes) up to its degree cap
    outcomes = Counter()
    for f, g, n, _ in support_route_cases():
        source, target = run_on(f.source), run_on(f.target)
        cap = min(n + 1, max(len(source.store.buckets), len(target.store.buckets)))
        f, g = (PathMorphism(source, target, m.vertex_map) for m in (f, g))
        code, reference = route_outcomes(f, g, build_omega(source, cap), build_omega(target, cap))
        assert code == reference, (f, g, n)
        outcomes.update("error" if isinstance(got, tuple) else "matrices" for got in code)
    assert outcomes["matrices"] >= 1000


@pytest.mark.parametrize("ring", [ZZ, Zmod(7), Zmod(2)], ids=["Z", "Z/7", "Z/2"])
def test_the_code_route_gives_the_reference_matrices_and_errors_on_random_pairs(ring):
    # vertex maps that need not be morphisms: images off the target raise, naming the same path
    rng = random.Random(23)
    kinds = Counter()
    for _ in range(300):
        f, g, _ = random_pair(rng, ring)
        longest = max(p.length for pc in (f.source, f.target) for p in pc.paths)
        top = min(3, longest + 1)
        om_src, om_tgt = build_omega(f.source, top), build_omega(f.target, top)
        code, reference = route_outcomes(f, g, om_src, om_tgt)
        assert code == reference, (f, g)
        kinds.update("error" if isinstance(got, tuple) else "matrices" for got in code)
    assert kinds["error"] >= 100 and kinds["matrices"] >= 15


def outcome_kind(got) -> str:
    """A certificate outcome's kind: ok, or its error's type and what it names."""
    if not isinstance(got, tuple):
        return "ok"
    for name in ("image path", "image of Omega", "induced map", "identity fails", "weight"):
        if name in got[1]:
            return f"{got[0]}: {name}"
    return got[0]


@pytest.mark.parametrize("doubled", [False, True], ids=["prism", "doubled-prism"])
@pytest.mark.parametrize(
    "ring, weights, kinds_met",
    [
        (ZZ, None, {"NonInvertibleWeightError: weight", "ImageNotInOmegaError: image path", "ImageNotInOmegaError: induced map"}),
        (ZZ, (1, -1), {"ok", "ImageNotInOmegaError: image path", "ImageNotInOmegaError: induced map", "HomotopyIdentityFailedError: identity fails"}),
        (Zmod(7), None, {"ok", "ImageNotInOmegaError: image path", "ImageNotInOmegaError: induced map", "HomotopyIdentityFailedError: identity fails"}),
        (Zmod(2), None, {"ok", "ImageNotInOmegaError: image path"}),
    ],
    ids=["Z", "Z-units", "Z/7", "Z/2"],
)
def test_the_certificate_gives_the_reference_outcome_on_random_pairs(ring, weights, kinds_met, doubled):
    # the pairs above: `certify_one_step`, which leaves out the one-step check, meets images
    # and lifts off the target, maps that break the chain-map square and failed identities,
    # and reports each as the certificate on Omega matrices does; the whole certificate
    # reports what its reference does
    rng = random.Random(23)
    kinds = Counter()
    with doubled_lifts() if doubled else nullcontext():
        for _ in range(300):
            f, g, _ = random_pair(rng, ring, weights)
            for n in (0, 2):
                got = outcome(homotopy.certify_one_step, f, g, n)
                assert got == outcome(certify_one_step_by_matrices, f, g, n), (f, g, n)
                kinds[outcome_kind(got)] += 1
            got = certificate_outcome(chain_homotopy_certificate, f, g, 2)
            assert got == certificate_outcome(certificate_over_the_ring, f, g, 2), (f, g)
    assert set(kinds) >= kinds_met
    if weights:  # units only: no weight refuses a pair, so the outcomes come from the path-chain checks
        assert sum(k for kind, k in kinds.items() if "Weight" not in kind) >= 300
    # twice the lifts over Z/2 is no lift at all: the identity fails wherever g_* - f_* is not 0
    assert (kinds["HomotopyIdentityFailedError: identity fails"] >= 100) is (doubled and ring == Zmod(2))


@pytest.mark.parametrize("ring", [ZZ, Zmod(7)], ids=["Z", "Z/7"])
def test_an_image_outside_the_target_omega_names_its_generator(ring):
    # f sends the square (a b d) - (a c d) onto (x y w) - (x z w), whose outside face (x w)
    # is left with the coefficient w(z) - w(y) = 1: on the target's paths, not in its Omega_2
    src = weighted_square(ring, 1)
    tgt = complex_from_paths([Path((x, y, w)), Path((x, z, w))], weights={x: 1, y: 1, z: 2, w: 1}, ring=ring)
    f = PathMorphism(src, tgt, {a: x, b: y, c: z, d: w})
    got = outcome(homotopy.certify_one_step, f, f, 2)
    assert got == outcome(certify_one_step_by_matrices, f, f, 2)
    assert got == ("ImageNotInOmegaError", "image of Omega_2 generator 0 is not in the target Omega_2")


def test_the_first_lift_off_the_target_in_the_prism_order_is_named():
    # both lifts of (b a) leave the target: (a) sorts before (b), so the lifts sorted as
    # cylinder paths list lift 1, (b a a'), before lift 0, (b b' a'): F's image of lift 1 is named
    src = complex_from_paths([Path((b, a))], weights={a: 1, b: 1}, ring=ZZ)
    paths = [Path((x, z)), Path((y, w)), Path((x, y)), Path((z, w))]  # F's images of (a), (b) and (b a), (b' a')
    tgt = complex_from_paths(paths, weights=dict.fromkeys([w, x, y, z], 1), ring=ZZ)
    f, g = PathMorphism(src, tgt, {b: x, a: y}), PathMorphism(src, tgt, {b: z, a: w})
    got = outcome(homotopy.certify_one_step, f, g, 1)
    assert got == outcome(certify_one_step_by_matrices, f, g, 1)
    assert got == ("ImageNotInOmegaError", "image path (x y w) is not in the target complex")


def test_an_irregular_lift_is_dropped_and_the_regular_one_off_the_target_named():
    # f(b) = g(b) = u: the lift (u u) of (b) and the lift (x u u) of (a b) are irregular
    u = Vertex("u")
    src = complex_from_paths([Path((a, b))], weights={a: 1, b: 1}, ring=ZZ)
    tgt = complex_from_paths([Path((x, u)), Path((y, u)), Path((x, y))], weights=dict.fromkeys([u, x, y], 1), ring=ZZ)
    f, g = PathMorphism(src, tgt, {a: x, b: u}), PathMorphism(src, tgt, {a: y, b: u})
    got = outcome(homotopy.certify_one_step, f, g, 1)
    assert got == outcome(certify_one_step_by_matrices, f, g, 1)
    assert got == ("ImageNotInOmegaError", "image path (x y u) is not in the target complex")


def test_images_off_the_target_vertices_are_named():
    # u and t are no target vertices; each gets a number of its own past the target's
    u, t = Vertex("u"), Vertex("t")
    src = complex_from_paths([Path((a, b))], weights={a: 1, b: 1}, ring=ZZ)
    tgt = complex_from_paths([Path((x, y))], weights={x: 1, y: 1}, ring=ZZ)
    om_src, om_tgt = build_omega(src, 2), build_omega(tgt, 2)
    for fmap, gmap, named in [({a: u, b: x}, {a: t, b: y}, ["(u)", "(t)"]), ({a: x, b: u}, {a: y, b: u}, ["(u)", "(u)"])]:
        f, g = PathMorphism(src, tgt, fmap), PathMorphism(src, tgt, gmap)
        code, reference = route_outcomes(f, g, om_src, om_tgt)
        assert code == reference
        assert code == [("ImageNotInOmegaError", f"image path {p} is not in the target complex") for p in named]
        # the certificate checks f first, and names the same path
        assert outcome(homotopy.certify_one_step, f, g, 2) == code[0] == outcome(certify_one_step_by_matrices, f, g, 2)


def test_a_target_path_vertex_without_a_weight_is_refused_as_omega_of_the_target_refuses_it():
    # z is on the target's edge (y z) but on no image: the certificate builds no Omega of
    # the target, and still names z as build_omega(target) does
    src = complex_from_paths([Path((a,))], weights={a: 1}, ring=ZZ)
    tgt = PathComplex.build([x, y, z], [Path((x,)), Path((y,)), Path((z,)), Path((x, y)), Path((y, z))], {x: 1, y: 1}, ZZ)
    f, g = PathMorphism(src, tgt, {a: x}), PathMorphism(src, tgt, {a: y})
    assert one_step_homotopy_pathcx(f, g).ok
    with pytest.raises(MissingWeightError, match="^vertex z has no weight$"):
        build_omega(tgt, 2)
    for run in (chain_homotopy_certificate, certificate_over_the_ring):
        assert certificate_outcome(run, f, g, 2) == ("MissingWeightError", "vertex z has no weight")


def test_an_unweighted_vertex_on_no_lifted_path_is_not_read():
    # c lies only on the irregular path (c c), which no generator uses, so L lifts no path
    # through it: its missing weight is never read
    pc = PathComplex.build([b], [Path((c, c))], {b: 1}, ZZ)
    f = PathMorphism(pc, pc, {b: b, c: c})
    got = outcome(homotopy.certify_one_step, f, f, 2)
    assert got == outcome(certify_one_step_by_matrices, f, f, 2)
    assert got.ok and got.identity_holds


def test_an_unweighted_vertex_on_a_lifted_path_is_refused_by_name():
    # the generator (b) is lifted, and b has no weight: both routes refuse, as the prism check does
    pc = PathComplex.build([a], [Path((a,)), Path((b,))], {a: 1}, ZZ)
    f = PathMorphism(pc, pc, {a: a, b: b})
    want = ("MissingWeightError", "vertex b has no weight")
    assert outcome(homotopy.certify_one_step, f, f, 2) == outcome(certify_one_step_by_matrices, f, f, 2) == want
    assert outcome(verify_prism_identity, pc, [(1,)]) == want
