import random

import pytest

from wph import io as wio
from wph.algebra import ZZ
from wph.dhyper import (
    Arrow,
    DirectedHypergraph,
    HyperMorphism,
    bold_functor,
    classify_morphism,
    connective_functor,
    density_two_functor,
    density_two_of,
    hyper_box_product,
    natural_digraph,
    set_weight,
    underlying_hypergraph,
    vertex_weighted_homologies,
)
from wph.digraph import LineDigraph, WeightedDigraph, box_product, paths_functor
from wph.errors import InvariantError
from wph.pathcx import Path, Vertex, complex_from_paths

from helpers import bold_reference, fixture_paths, random_directed_hypergraph

a, b, c, d = (Vertex(s) for s in "abcd")


def A(origin, end):
    return Arrow(frozenset(origin), frozenset(end))


def chain_hypergraph():
    return DirectedHypergraph.build(
        [A({a}, {b}), A({b}, {c})], {a: 1, b: 1, c: 1}, ZZ
    )


def test_arrow_rejects_empty_or_overlapping_sets():
    with pytest.raises(InvariantError):
        Arrow(frozenset(), frozenset({a}))
    with pytest.raises(InvariantError):
        Arrow(frozenset({a}), frozenset({a, b}))


def test_build_collects_vertices_from_arrows():
    g = chain_hypergraph()
    assert g.vertices == frozenset({a, b, c})
    assert len(g.origin_end_sets()) == 3


def test_set_weight_sums_member_weights():
    g = DirectedHypergraph.build([A({a, b}, {c})], {a: 2, b: 3, c: 1}, ZZ)
    assert set_weight(frozenset({a, b}), g.weight_map(), ZZ) == 5


def test_natural_digraph_vertices_are_origin_end_sets():
    g = DirectedHypergraph.build([A({a, b}, {c})], {a: 2, b: 3, c: 1}, ZZ)
    dg = natural_digraph(g)
    labels = sorted(v.render() for v in dg.vertices)
    assert labels == ["{a,b}", "{c}"]
    # the set weight becomes the vertex weight of the merged vertex
    (merged,) = [v for v in dg.vertices if v.render() == "{a,b}"]
    assert dg.weight_map()[merged] == 5


def test_connective_functor_steps_from_origins_to_ends():
    pc = connective_functor(chain_hypergraph(), 2)
    assert Path((a, b, c)) in pc.paths
    assert Path((b, a)) not in pc.paths
    assert pc.validate().ok


def test_bold_functor_requires_arrow_decomposition():
    g = chain_hypergraph()
    pc = bold_functor(g, 2)
    assert Path((a, b, c)) in pc.paths
    # reversing a step is not a decomposable word
    assert Path((c, b)) not in pc.paths
    assert pc.validate().ok


def test_underlying_hypergraph_merges_origin_and_end():
    g = DirectedHypergraph.build([A({a}, {b}), A({b}, {a})], {a: 1, b: 1}, ZZ)
    h = underlying_hypergraph(g)
    assert h.edges == frozenset({frozenset({a, b})})
    assert len(g.arrows) - len(h.edges) == 1


def test_density_two_walks_inside_merged_edges():
    g = chain_hypergraph()
    pc = density_two_of(g, 2)
    # within the merged edge {a,b} both directions exist
    assert Path((a, b)) in pc.paths
    assert Path((b, a)) in pc.paths
    assert pc.validate().ok


def test_vertex_weighted_homologies_run_on_all_pipelines():
    g = chain_hypergraph()
    for which in ("c", "b", "2"):
        res = vertex_weighted_homologies(g, which, 2, maxlen=3)
        assert res.groups[0].free_rank >= 1


def test_classify_morphism_weight_flags():
    src = DirectedHypergraph.build([A({a}, {b})], {a: 2, b: 3}, ZZ)
    tgt = DirectedHypergraph.build([A({c}, {d})], {c: 2, d: 3}, ZZ)
    f = HyperMorphism(src, tgt, {a: c, b: d})
    cls = classify_morphism(f)
    assert cls.vertex_weighted and cls.edge_weighted and cls.strong_weighted


def test_hyper_box_product_refuses_a_vertex_next_to_its_primed_copy():
    ap = a.primed()
    g = DirectedHypergraph.build([A({a}, {ap}), A({ap}, {b})], {a: 2, ap: 1, b: 3}, ZZ)
    with pytest.raises(InvariantError, match="vertex a' collides with the primed copy of a"):
        hyper_box_product(g, LineDigraph.forward())


def test_natural_digraph_commutes_with_box_product_on_fixtures():
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        left = natural_digraph(hyper_box_product(g, LineDigraph.forward()))
        right = box_product(natural_digraph(g), LineDigraph.forward())
        assert left.vertices == right.vertices, path.name
        assert left.edges == right.edges, path.name
        assert left.weight_map() == right.weight_map(), path.name


def test_natural_cylinder_equals_box_product_on_fixtures():
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        maxlen = 4
        left = paths_functor(natural_digraph(g), maxlen).cylinder().truncate(maxlen)
        right = paths_functor(natural_digraph(hyper_box_product(g, LineDigraph.forward())), maxlen)
        assert left == right, path.name


def test_walk_functors_equal_their_truncation_closure():
    rng = random.Random(5)
    for _ in range(40):
        g = random_directed_hypergraph(rng, max_vertices=6, max_arrows=4)
        verts = sorted(g.vertices)
        edges = {(x, y) for x in verts for y in verts if x != y and rng.random() < 0.4}
        maxlen = rng.randint(0, 3)
        for pc in (
            paths_functor(WeightedDigraph.build(verts, edges, g.weight_map(), ZZ), maxlen),
            connective_functor(g, maxlen),
            bold_functor(g, maxlen),
            density_two_functor(underlying_hypergraph(g), maxlen),
        ):
            weighted = pc.weight_map() if pc.is_weighted else None
            assert pc == complex_from_paths(pc.paths, weighted, pc.ring)


def test_bold_functor_equals_the_closure_of_decomposable_paths():
    # the reference closes the decomposable paths of length <= L + 1 and truncates to L
    cases = []
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        cases += [(path.name, g), (path.name + " x I1", hyper_box_product(g, LineDigraph.forward()))]
    rng = random.Random(13)
    # arrow sides of at most 2 vertices keep the reference's length-5 pass affordable
    cases += [(f"random {i}", random_directed_hypergraph(rng, max_side=2)) for i in range(500)]
    for name, g in cases:
        for maxlen in range(5):
            assert bold_functor(g, maxlen) == bold_reference(g, maxlen), (name, maxlen)
