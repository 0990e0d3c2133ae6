"""The coded path store: what the functors emit, what complexes share, and its views."""
import random
import re

import pytest

from wph import io as wio
from wph.algebra import QQ, ZZ
from wph.dhyper import (
    bold_functor,
    connective_functor,
    density_two_functor,
    hyper_box_product,
    natural_digraph,
    underlying_hypergraph,
)
from wph.errors import InvariantError
from wph.digraph import LineDigraph, WeightedDigraph, box_product, paths_functor
from wph.pathcx import Path, PathComplex, Vertex, complex_from_paths

from helpers import (
    bold_reference,
    cylinder_by_paths,
    fixture_paths,
    random_complex,
    random_directed_hypergraph,
    regular_path_codes_coding_every_path,
    walk_paths_by_paths,
)


def reference(vertices, successors: dict, maxlen: int, weighted=None) -> PathComplex:
    """`PathComplex.build` on the Path walker's walks, weighted like `weighted`."""
    paths = walk_paths_by_paths(successors, maxlen)
    if weighted is None:
        return PathComplex.build(vertices, paths)
    return PathComplex.build(vertices, paths, weighted.weight_map() or None, weighted.ring)


def digraph_reference(g: WeightedDigraph, maxlen: int) -> PathComplex:
    successors = {v: [y for x, y in g.edges if x == v] for v in g.vertices}
    return reference(g.vertices, successors, maxlen, g)


def connective_reference(g, maxlen: int) -> PathComplex:
    successors = {v: {v}.union(*(a.end for a in g.arrows if v in a.origin)) for v in g.vertices}
    return reference(g.vertices, successors, maxlen, g)


def density_two_reference(h, maxlen: int) -> PathComplex:
    return reference(h.vertices, {v: set().union(*(e for e in h.edges if v in e)) for v in h.vertices}, maxlen)


def assert_store_is_canonical(pc: PathComplex) -> None:
    """Sorted vertices and buckets, no trailing empty bucket, and codes that decode to `paths`."""
    store = pc.store
    assert list(store.vertices) == sorted(pc.vertices.union(*(p.vertices for p in pc.paths)))
    assert not store.buckets or store.buckets[-1]
    for n, bucket in enumerate(store.buckets):
        assert list(bucket) == sorted(set(bucket)) and all(len(c) == n + 1 for c in bucket)
    decoded = [Path(tuple(store.vertices[k] for k in c)) for bucket in store.buckets for c in bucket]
    assert decoded == sorted(pc.paths, key=lambda p: (p.length, p.vertices))


def assert_equal_stores(got: PathComplex, want: PathComplex, what) -> None:
    assert got.store == want.store and got == want, what
    assert got.paths == want.paths, what
    assert_store_is_canonical(got)


def assert_equal_cylinders(pc: PathComplex, what) -> None:
    """The cylinder on codes equals the one on Path objects, or both are refused alike."""
    try:
        want = cylinder_by_paths(pc)
    except InvariantError as exc:
        with pytest.raises(InvariantError, match=re.escape(str(exc))):
            pc.cylinder()
        return
    assert_equal_stores(pc.cylinder(), want, what)


def random_digraph(rng: random.Random) -> WeightedDigraph:
    verts = [Vertex(chr(ord("a") + i)) for i in range(rng.randint(1, 6))]
    edges = [(x, y) for x in verts for y in verts if x != y and rng.random() < 0.4]
    return WeightedDigraph.build(verts, edges, {v: rng.randint(-2, 3) for v in verts}, ZZ)


def fixture_bodies(prefix: str) -> list:
    return [(path.name, wio.parse(path.read_bytes()).body) for path in fixture_paths(prefix)]


def digraph_cases() -> list:
    rng = random.Random(61)
    cases = fixture_bodies("dg_")
    cases += [(name + " x I1", box_product(g, LineDigraph.forward())) for name, g in fixture_bodies("dg_")]
    return cases + [(f"random {i}", random_digraph(rng)) for i in range(150)]


def hypergraph_cases() -> list:
    rng = random.Random(67)
    cases = fixture_bodies("dh_")
    cases += [(name + " x I1", hyper_box_product(g, LineDigraph.forward())) for name, g in fixture_bodies("dh_")]
    return cases + [(f"random {i}", random_directed_hypergraph(rng, max_vertices=5, max_side=3)) for i in range(100)]


def test_the_path_functor_walks_the_store_the_path_walker_codes():
    for name, g in digraph_cases():
        for maxlen in range(5):
            pc = paths_functor(g, maxlen)
            assert_equal_stores(pc, digraph_reference(g, maxlen), (name, maxlen))
            assert_equal_cylinders(pc, (name, maxlen, "cylinder"))


def test_the_hypergraph_functors_walk_the_stores_the_path_walker_codes():
    for name, g in hypergraph_cases():
        h, nat = underlying_hypergraph(g), natural_digraph(g)
        for maxlen in range(4):
            complexes = [
                (connective_functor(g, maxlen), connective_reference(g, maxlen)),
                (density_two_functor(h, maxlen), density_two_reference(h, maxlen)),
                (paths_functor(nat, maxlen), digraph_reference(nat, maxlen)),
            ]
            if not name.startswith("random"):  # the reference is slow on random sides of 3; see test_dhyper
                complexes.append((bold_functor(g, maxlen), bold_reference(g, maxlen)))
            for which, (pc, ref) in enumerate(complexes):
                assert_equal_stores(pc, ref, (name, maxlen, which))
                if maxlen < 3:  # the cylinder of L = 3 runs to 4
                    assert_equal_cylinders(pc, (name, maxlen, which, "cylinder"))


def test_the_cylinder_of_every_complex_fixture_is_the_one_the_path_walker_codes():
    for name, pc in fixture_bodies("pc_"):
        assert_store_is_canonical(pc)
        assert_equal_cylinders(pc, name)
    rng = random.Random(71)
    for i in range(200):
        pc = random_complex(rng, max_vertices=5, maxlen=3)
        assert_equal_cylinders(pc, i)


def test_support_reweighted_and_truncate_share_the_parents_store():
    pc = paths_functor(next(g for name, g in fixture_bodies("dg_") if name == "dg_diamond_tail.json"), 4)
    pc.regular_path_codes(4)  # the regular filter, made once and kept with the store
    for other in (pc.support(), pc.reweighted({v: 3 for v in pc.vertices}, QQ)):
        assert other.store is pc.store and other.paths is pc.paths
        assert other.regular_path_codes(4)[0] is pc.regular_path_codes(4)[0]
    for maxlen in range(len(pc.store.buckets) + 1):
        cut = pc.truncate(maxlen)
        assert cut.store.vertices is pc.store.vertices
        assert all(a is b for a, b in zip(cut.store.buckets, pc.store.buckets))
        assert len(cut.store.buckets) == min(maxlen + 1, len(pc.store.buckets))
        assert cut.paths == {p for p in pc.paths if p.length <= maxlen}


def test_regular_path_codes_are_what_coding_every_path_gives():
    rng = random.Random(73)
    for i in range(300):
        pc = random_complex(rng, max_vertices=6, maxlen=4)
        for top in (0, 2, 5):
            buckets = pc.regular_path_codes(top)
            assert list(map(list, buckets)) == regular_path_codes_coding_every_path(pc, top), (i, top)


def test_build_codes_the_paths_it_is_given_once():
    a, b, z = Vertex("a"), Vertex("b"), Vertex("z")
    paths = [Path((a,)), Path((b,)), Path((a, b)), Path((a, b)), Path((b, z, z))]
    pc = PathComplex.build([a, b], paths)  # z is undeclared, and (a b) is given twice
    assert pc.store.vertices == (a, b, z)
    assert pc.store.buckets == (((0,), (1,)), ((0, 1),), ((1, 2, 2),))
    assert pc.paths == frozenset(paths)
    assert PathComplex.build([], []).store.buckets == ()


@pytest.mark.parametrize("maxlen", [0, 3])
def test_complex_from_paths_and_the_functor_agree_on_one_store(maxlen):
    g = next(g for name, g in fixture_bodies("dg_") if name == "dg_square.json")
    pc = paths_functor(g, maxlen)
    assert complex_from_paths(pc.paths, pc.weight_map(), pc.ring) == pc
