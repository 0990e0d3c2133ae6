import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph.algebra import QQ, ZZ
from wph.errors import InvariantError, MissingWeightError
from wph.homotopy import verify_path_morphism
from wph.pathcx import Path, PathComplex, PathMorphism, Vertex, complex_from_paths

from helpers import random_complex

a, b, c, d = (Vertex(s) for s in "abcd")


def test_path_truncations_and_regularity():
    p = Path((a, b, a))
    assert p.length == 2
    assert p.is_regular()
    assert p.drop(0) == Path((b, a))
    assert p.drop(2) == Path((a, b))
    assert not Path((a, a)).is_regular()


def test_a_collapsed_image_merges_only_the_repeats_the_map_makes():
    # the target has no paths, so the one-step check names every image it takes
    pc = complex_from_paths([Path((a, a, b, c)), Path((a, b, b)), Path((b, a, b))])
    f = PathMorphism(pc, PathComplex.build([a, c], []), {a: a, b: a, c: c})

    def image(p: Path, collapse: bool) -> str:
        tail = f" of {p.render()} is not a target path"
        (found,) = [m for m in verify_path_morphism(f, collapse).problems if m.endswith(tail)]
        return found.removeprefix("image ").removesuffix(tail)

    assert image(Path((a, a, b, c)), False) == Path((a, a, a, c)).render()
    # a b becomes a a and merges; the source's own a a stays
    assert image(Path((a, a, b, c)), True) == Path((a, a, c)).render()
    assert image(Path((a, b, b)), True) == Path((a, a)).render()
    assert image(Path((b, a, b)), True) == Path((a,)).render()


def test_an_empty_path_is_refused():
    with pytest.raises(InvariantError, match="non-empty"):
        Path(())


def test_vertices_and_paths_are_tuple_values():
    # a Vertex is the tuple (label, prime); a Path orders by its vertex tuple
    assert Vertex("a", 1) == ("a", 1) and hash(Vertex("a", 1)) == hash(("a", 1))
    assert sorted([Vertex("b"), Vertex("a", 1), Vertex("a")]) == [Vertex("a"), Vertex("a", 1), Vertex("b")]
    assert sorted([Path((b,)), Path((a, b)), Path((a,))]) == [Path((a,)), Path((a, b)), Path((b,))]
    assert repr(Path((a, Vertex("b", 1)))) == "(a b')"


def test_primed_vertices_render_with_trailing_apostrophes():
    v = Vertex("a", 2)
    assert v.render() == "a''"
    assert v.primed().prime == 3
    assert Path((a, b)).primed() == Path((a.primed(), b.primed()))


def test_validate_flags_missing_truncations():
    pc = PathComplex.build([a, b, c], [Path((a,)), Path((b,)), Path((c,)), Path((a, b, c))])
    report = pc.validate()
    assert not report.ok
    assert any("truncation" in msg or "closed" in msg for msg in report.problems)


def test_validate_flags_missing_singleton_and_weight():
    pc = PathComplex.build([a, b], [Path((a,)), Path((a, b))], {a: 1}, ZZ)
    report = pc.validate()
    assert not report.ok


def test_complex_from_paths_closes_under_truncation():
    pc = complex_from_paths([Path((a, b, c, d))])
    report = pc.validate()
    assert report.ok, report.problems
    assert Path((b, c)) in pc.paths
    assert Path((a,)) in pc.paths


def test_regular_paths_order_is_deterministic():
    pc = complex_from_paths([Path((b, a)), Path((a, b))])
    assert pc.regular_paths(1) == sorted(pc.regular_paths(1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_regular_paths_are_the_sorted_regular_paths_of_each_length(seed):
    pc = random_complex(random.Random(seed), max_vertices=5, maxlen=3).cylinder()
    buckets, vertices = pc.regular_path_codes(4), pc.store.vertices
    for n in range(5):
        assert pc.regular_paths(n) == sorted(p for p in pc.paths if p.length == n and p.is_regular())
        assert [Path(tuple(vertices[k] for k in code)) for code in buckets[n]] == pc.regular_paths(n)


def test_cylinder_of_single_vertex():
    pc = complex_from_paths([Path((a,))], weights={a: 1}, ring=ZZ)
    cyl = pc.cylinder()
    ap = a.primed()
    assert cyl.paths == frozenset({Path((a,)), Path((ap,)), Path((a, ap))})
    assert cyl.weight_map()[ap] == 1
    assert cyl.validate().ok


def test_cylinder_contains_all_one_jump_lifts():
    pc = complex_from_paths([Path((a, b))])
    cyl = pc.cylinder()
    ap, bp = a.primed(), b.primed()
    for lift in (Path((a, ap, bp)), Path((a, b, bp))):
        assert lift in cyl.paths


def test_a_complex_has_one_cylinder():
    pc = complex_from_paths([Path((a, b))], weights={a: 1, b: 2}, ring=ZZ)
    assert pc.cylinder() is pc.cylinder()
    assert pc.reweighted(pc.weight_map(), ZZ).cylinder() == pc.cylinder()  # an equal complex builds its own


def test_cylinder_refuses_a_vertex_next_to_its_primed_copy():
    ap = a.primed()
    pc = complex_from_paths([Path((a, ap, b))], weights={a: 1, ap: 2, b: 3}, ring=ZZ)
    with pytest.raises(InvariantError, match="vertex a' collides with the primed copy of a"):
        pc.cylinder()


def test_the_support_complex_weighs_1_where_the_weight_is_nonzero_and_0_where_it_is_0():
    pc = complex_from_paths([Path((a, b, c)), Path((d,))], weights={a: Fraction(-1, 2), b: Fraction(0), c: 3, d: 7}, ring=QQ)
    sup = pc.support()
    assert sup.vertices is pc.vertices and sup.paths is pc.paths
    assert sup.ring == ZZ and sup.weights == ((a, 1), (b, 0), (c, 1), (d, 1))
    assert sup == pc.reweighted({a: 1, b: 0, c: 1, d: 1}, ZZ)
    with pytest.raises(MissingWeightError):
        complex_from_paths([Path((a, b))]).support()


def test_truncate_drops_long_paths_only():
    pc = complex_from_paths([Path((a, b, c, d))])
    t = pc.truncate(2)
    assert t.validate().ok
    assert max(p.length for p in t.paths) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_complexes_validate(seed):
    pc = random_complex(random.Random(seed))
    report = pc.validate()
    assert report.ok, report.problems


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cylinder_always_validates(seed):
    pc = random_complex(random.Random(seed), max_vertices=5, maxlen=3)
    assert pc.cylinder().validate().ok
