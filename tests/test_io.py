import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wph import io as wio
from wph.algebra import MODULUS_BOUND, QQ, ZZ, Zmod
from wph.chain import homology
from wph.errors import InvariantError, SchemaError

from helpers import FIXTURES, random_complex


def test_every_fixture_parses_and_round_trips():
    for path in sorted(FIXTURES.glob("*.json")):
        blob = path.read_bytes()
        doc = wio.parse(blob)
        if doc.kind in ("morphism", "homotopy_chain", "homology"):
            continue
        assert wio.emit(doc.body, description=doc.description) == blob, path.name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["Z", "Q"]))
def test_path_complex_round_trip(seed, ring_name):
    ring = ZZ if ring_name == "Z" else QQ
    pc = random_complex(random.Random(seed), ring=ring, max_vertices=5, maxlen=3)
    blob = wio.emit(pc)
    doc = wio.parse(blob)
    assert doc.body == pc
    assert wio.emit(doc.body) == blob


def test_homology_document_round_trips_max_degree():
    pc = random_complex(random.Random(3), ring=ZZ, max_vertices=4, maxlen=3)
    for n in (1, 3):
        doc = wio.parse(wio.emit(homology(pc, n)))
        assert doc.kind == "homology"
        assert doc.body["max_degree"] == n
        assert len(doc.body["groups"]) == n


def test_emission_is_byte_stable():
    blob = (FIXTURES / "pc_diamond_weighted.json").read_bytes()
    doc = wio.parse(blob)
    assert wio.emit(doc.body, description=doc.description) == blob


def test_parse_ring_variants():
    assert wio.parse_ring("Z") == ZZ
    assert wio.parse_ring("Q") == QQ
    assert wio.parse_ring({"Zmod": 5}) == Zmod(5)
    with pytest.raises(SchemaError):
        wio.parse_ring("R")
    with pytest.raises(SchemaError):
        wio.parse_ring({"Zmod": 1})


def test_a_modulus_past_the_primality_bound_is_a_schema_error():
    assert wio.parse_ring({"Zmod": MODULUS_BOUND - 1}).m == MODULUS_BOUND - 1
    with pytest.raises(SchemaError, match=f"Zmod modulus must be below {MODULUS_BOUND}"):
        wio.parse_ring({"Zmod": MODULUS_BOUND})


def test_rational_weights_as_strings():
    doc = wio.parse(
        '{"format_version": "1", "kind": "path_complex", "ring": "Q", '
        '"body": {"vertices": ["a"], "paths": [["a"]], "weights": {"a": "3/7"}}}'
    )
    (pair,) = doc.body.weights
    assert pair[1].numerator == 3 and pair[1].denominator == 7


def test_unknown_fields_rejected():
    with pytest.raises(SchemaError):
        wio.parse('{"format_version": "1", "kind": "digraph", "extra": 0, '
                  '"body": {"vertices": [], "edges": []}}')
    with pytest.raises(SchemaError):
        wio.parse('{"format_version": "1", "kind": "digraph", '
                  '"body": {"vertices": [], "edges": [], "extra": 0}}')


def test_wrong_version_rejected():
    with pytest.raises(SchemaError):
        wio.parse('{"format_version": "0", "kind": "digraph", "body": {}}')


def test_invariant_violations_rejected():
    # path set not closed under truncation
    with pytest.raises(InvariantError):
        wio.parse('{"format_version": "1", "kind": "path_complex", '
                  '"body": {"vertices": ["a", "b"], "paths": [["a"], ["b"], ["a", "b"], ["a", "b", "a"]]}}')
    # arrow with overlapping origin and end
    with pytest.raises(InvariantError):
        wio.parse('{"format_version": "1", "kind": "directed_hypergraph", '
                  '"body": {"arrows": [{"origin": ["a"], "end": ["a", "b"]}]}}')


@pytest.mark.parametrize(
    "kind, body",
    [
        ("path_complex", {"vertices": ["a", "b"], "paths": [["a"], ["b"], ["a", "b"]]}),
        ("digraph", {"vertices": ["a", "b"], "edges": [["a", "b"]]}),
    ],
)
def test_weights_on_undeclared_vertices_are_refused(kind, body):
    body = dict(body, weights={"a": 1, "b": 2, "z": 5})
    blob = json.dumps({"format_version": "1", "kind": kind, "ring": "Z", "body": body})
    with pytest.raises(InvariantError, match="weighted vertex z is not a declared vertex"):
        wio.parse(blob)


def test_interior_apostrophes_rejected():
    with pytest.raises(InvariantError):
        wio.parse_vertex("a'b")
    v = wio.parse_vertex("a''")
    assert v.prime == 2 and v.label == "a"


def test_morphism_and_chain_documents():
    doc = wio.parse((FIXTURES / "mor_a_to_x.json").read_bytes())
    assert doc.kind == "morphism"
    assert len(doc.body.vertex_map) == 1
    doc = wio.parse((FIXTURES / "chain_a_xy.json").read_bytes())
    assert doc.kind == "homotopy_chain"
    assert [d for _, d in doc.body.steps] == ["forward", "forward"]


def test_homology_group_that_is_not_an_object_is_a_schema_error():
    blob = (
        '{"format_version": "1", "kind": "homology", "ring": "Z",'
        ' "body": {"max_degree": 1, "groups": [5]}}'
    )
    with pytest.raises(SchemaError, match="not an object"):
        wio.parse(blob)


def _path_complex_blob(paths: str, ring: str = '"Z"', weights: str = '{"a": 1, "b": 2}') -> str:
    return (
        '{"format_version": "1", "kind": "path_complex", "ring": %s, '
        '"body": {"vertices": ["a", "b"], "paths": %s, "weights": %s}}' % (ring, paths, weights)
    )


@pytest.mark.parametrize("entry", ["5", '"ab"', '{"a": 1}'], ids=["number", "string", "object"])
def test_path_entry_that_is_not_a_label_list_is_a_schema_error(entry):
    with pytest.raises(SchemaError, match="each path must be a list"):
        wio.parse(_path_complex_blob('[["a"], ["b"], %s]' % entry))


@pytest.mark.parametrize("ring", ['"Z"', '"Q"', '{"Zmod": 5}'], ids=["Z", "Q", "Zmod5"])
def test_boolean_weight_is_a_schema_error_over_every_ring(ring):
    with pytest.raises(SchemaError, match="must be numbers, got True"):
        wio.parse(_path_complex_blob('[["a"], ["b"]]', ring, '{"a": true, "b": 2}'))


@pytest.mark.parametrize(
    "group",
    [
        '{"degree": "x", "free_rank": 1, "torsion": []}',
        '{"degree": -1, "free_rank": 1, "torsion": []}',
        '{"degree": 0, "free_rank": -3, "torsion": []}',
        '{"degree": 0, "free_rank": true, "torsion": []}',
        '{"degree": 0, "free_rank": 1, "torsion": "no"}',
        '{"degree": 0, "free_rank": 1, "torsion": [1]}',
        '{"degree": 0, "free_rank": 1, "torsion": [2, "6"]}',
    ],
    ids=[
        "degree-string", "degree-negative", "free-rank-negative", "free-rank-bool",
        "torsion-string", "torsion-unit", "torsion-entry-string",
    ],
)
def test_homology_group_with_untyped_fields_is_a_schema_error(group):
    blob = (
        '{"format_version": "1", "kind": "homology", "ring": "Z",'
        ' "body": {"max_degree": 1, "groups": [%s]}}' % group
    )
    with pytest.raises(SchemaError, match="homology group"):
        wio.parse(blob)


def _homology_blob(max_degree: str, degrees: list) -> str:
    groups = ", ".join('{"degree": %d, "free_rank": 0, "torsion": []}' % n for n in degrees)
    return (
        '{"format_version": "1", "kind": "homology", "ring": "Z",'
        ' "body": {"max_degree": %s, "groups": [%s]}}' % (max_degree, groups)
    )


@pytest.mark.parametrize("max_degree", ["-1", "true", "false", "1.5", '"2"', "null"])
def test_homology_max_degree_that_is_not_a_count_is_a_schema_error(max_degree):
    with pytest.raises(SchemaError, match="non-negative integer max_degree"):
        wio.parse(_homology_blob(max_degree, []))


@pytest.mark.parametrize(
    "max_degree, degrees",
    [(3, [5, 5]), (2, [0]), (1, [0, 1]), (2, [1, 0]), (2, [0, 0]), (0, [0]), (2, [1, 2])],
    ids=["far-off-repeated", "too-few", "too-many", "out-of-order", "repeated", "none-expected", "shifted"],
)
def test_homology_group_degrees_must_run_up_to_max_degree(max_degree, degrees):
    with pytest.raises(SchemaError, match="degrees 0..max_degree-1 in order"):
        wio.parse(_homology_blob(str(max_degree), degrees))


@pytest.mark.parametrize("max_degree", [0, 1, 3])
def test_homology_document_with_every_degree_below_max_degree_parses(max_degree):
    doc = wio.parse(_homology_blob(str(max_degree), list(range(max_degree))))
    assert doc.body["max_degree"] == max_degree
    assert [g["degree"] for g in doc.body["groups"]] == list(range(max_degree))
