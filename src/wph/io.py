"""Versioned JSON documents for complexes, graphs, hypergraphs and morphisms.

Parsing is strict: unknown fields, wrong versions and invariant violations
are rejected with typed errors.  Emission is canonical and byte-stable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import QQ, ZZ, Ring, Zmod
from .chain import HomologyResult
from .dhyper import Arrow, DirectedHypergraph, Hypergraph
from .digraph import WeightedDigraph
from .errors import InvariantError, SchemaError
from .pathcx import Path, PathComplex, Vertex, Weighted

FORMAT_VERSION = "1"
KINDS = (
    "path_complex",
    "digraph",
    "directed_hypergraph",
    "hypergraph",
    "morphism",
    "homotopy_chain",
    "homology",
)


def parse_vertex(label: str) -> Vertex:
    if not isinstance(label, str) or not label:
        raise SchemaError(f"vertex label must be a non-empty string, got {label!r}")
    prime = len(label) - len(label.rstrip("'"))
    base = label[: len(label) - prime] if prime else label
    if not base or "'" in base:
        raise InvariantError(
            f"label {label!r}: apostrophes are only allowed as a trailing prime marker"
        )
    return Vertex(base, prime)


def parse_ring(spec) -> Ring:
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Zmod"}:
        m = spec["Zmod"]
        if not isinstance(m, int):
            raise SchemaError(f"Zmod modulus must be an integer >= 2, got {m!r}")
        try:
            return Zmod(m)
        except ValueError as exc:
            raise SchemaError(f"Zmod {exc}, got {m}") from None
    raise SchemaError(f"unknown ring {spec!r} (expected 'Z', 'Q' or {{'Zmod': m}})")


def emit_ring(ring: Ring):
    if ring == ZZ:
        return "Z"
    if ring == QQ:
        return "Q"
    return {"Zmod": ring.m}


def parse_weight(value, ring: Ring):
    if isinstance(value, bool):
        raise SchemaError(f"weights over {ring.name} must be numbers, got {value!r}")
    if ring == QQ:
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad rational weight {value!r}: {exc}") from None
        if isinstance(value, int):
            return Fraction(value)
        raise SchemaError(f"rational weights are integers or 'p/q' strings, got {value!r}")
    if not isinstance(value, int):
        raise SchemaError(f"weights over {ring.name} must be integers, got {value!r}")
    return ring.coerce(value)


def emit_weight(value, ring: Ring):
    if ring == QQ:
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return int(value)


def _pop(body: dict, key: str, required: bool = True, default=None):
    if key in body:
        return body.pop(key)
    if required:
        raise SchemaError(f"missing field {key!r}")
    return default


def _no_extra(body: dict, where: str) -> None:
    if body:
        raise SchemaError(f"unknown field {sorted(body)[0]!r} in {where}")


def _parse_weights(body: dict, ring: Optional[Ring]):
    raw = _pop(body, "weights", required=False)
    if raw is None:
        return None
    if ring is None:
        raise SchemaError("weights given but no ring declared")
    if not isinstance(raw, dict):
        raise SchemaError("weights must be an object mapping labels to values")
    return {parse_vertex(k): parse_weight(v, ring) for k, v in raw.items()}


def _parse_vertex_list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be a list")
    return [parse_vertex(x) for x in raw]


@dataclass
class MorphismSpec:
    """A serialized morphism: labels only, resolved against complexes later."""

    vertex_map: dict  # Vertex -> Vertex


@dataclass
class HomotopyChainSpec:
    steps: list  # list of (MorphismSpec, direction)


@dataclass
class Document:
    kind: str
    ring: Optional[Ring]
    body: object
    description: Optional[str] = None


def parse(data) -> Document:
    """Parse and fully validate a JSON document (bytes or str)."""
    try:
        raw = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SchemaError("document nests too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit, say
        raise SchemaError(f"unreadable JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("document must be a JSON object")
    raw = dict(raw)
    version = _pop(raw, "format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION!r})")
    kind = _pop(raw, "kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    ring_spec = _pop(raw, "ring", required=False)
    ring = parse_ring(ring_spec) if ring_spec is not None else None
    description = _pop(raw, "description", required=False)
    body = _pop(raw, "body")
    _no_extra(raw, "document")
    if not isinstance(body, dict):
        raise SchemaError("body must be a JSON object")
    body = dict(body)
    obj = _BODY_PARSERS[kind](body, ring)
    return Document(kind=kind, ring=ring, body=obj, description=description)


def _parse_path_complex(body: dict, ring) -> PathComplex:
    vertices = _parse_vertex_list(_pop(body, "vertices"), "vertices")
    raw_paths = _pop(body, "paths")
    if not isinstance(raw_paths, list):
        raise SchemaError("paths must be a list of label lists")
    paths = [Path(tuple(_parse_vertex_list(seq, "each path"))) for seq in raw_paths]
    weights = _parse_weights(body, ring)
    _no_extra(body, "path_complex body")
    pc = PathComplex.build(vertices, paths, weights, ring)
    report = pc.validate()
    if not report.ok:
        raise InvariantError(report.problems[0])
    return pc


def _parse_digraph(body: dict, ring) -> WeightedDigraph:
    vertices = _parse_vertex_list(_pop(body, "vertices"), "vertices")
    raw_edges = _pop(body, "edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list of [from, to] pairs")
    edges = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError(f"edge {e!r} is not a [from, to] pair")
        edges.append((parse_vertex(e[0]), parse_vertex(e[1])))
    weights = _parse_weights(body, ring)
    _no_extra(body, "digraph body")
    return WeightedDigraph.build(vertices, edges, weights, ring)


def _parse_directed_hypergraph(body: dict, ring) -> DirectedHypergraph:
    raw_arrows = _pop(body, "arrows")
    if not isinstance(raw_arrows, list):
        raise SchemaError("arrows must be a list of {origin, end} objects")
    arrows = []
    for a in raw_arrows:
        if not isinstance(a, dict):
            raise SchemaError(f"arrow {a!r} is not an object")
        a = dict(a)
        origin = frozenset(_parse_vertex_list(_pop(a, "origin"), "origin"))
        end = frozenset(_parse_vertex_list(_pop(a, "end"), "end"))
        _no_extra(a, "arrow")
        arrows.append(Arrow(origin, end))
    declared = _pop(body, "vertices", required=False)
    weights = _parse_weights(body, ring)
    _no_extra(body, "directed_hypergraph body")
    g = DirectedHypergraph.build(arrows, weights, ring)
    if declared is not None:
        declared_set = frozenset(_parse_vertex_list(declared, "vertices"))
        if declared_set != g.vertices:
            raise InvariantError(
                "declared vertices differ from the union of arrow origins and ends"
            )
    return g


def _parse_hypergraph(body: dict, ring) -> Hypergraph:
    raw_edges = _pop(body, "edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list of label lists")
    edges = [frozenset(_parse_vertex_list(e, "edge")) for e in raw_edges]
    declared = _pop(body, "vertices", required=False)
    _no_extra(body, "hypergraph body")
    h = Hypergraph.build(edges)
    if declared is not None:
        if frozenset(_parse_vertex_list(declared, "vertices")) != h.vertices:
            raise InvariantError("declared vertices differ from the edge union")
    return h


def _parse_morphism_body(body: dict, ring) -> MorphismSpec:
    raw = _pop(body, "vertex_map")
    if not isinstance(raw, dict):
        raise SchemaError("vertex_map must be an object mapping labels to labels")
    vm = {parse_vertex(k): parse_vertex(v) for k, v in raw.items()}
    _no_extra(body, "morphism body")
    return MorphismSpec(vertex_map=vm)


def _parse_homotopy_chain(body: dict, ring) -> HomotopyChainSpec:
    raw_steps = _pop(body, "steps")
    if not isinstance(raw_steps, list) or len(raw_steps) < 2:
        raise SchemaError("steps must be a list of at least two morphisms")
    steps = []
    for s in raw_steps:
        if not isinstance(s, dict):
            raise SchemaError("each step must be an object")
        s = dict(s)
        direction = _pop(s, "direction", required=False, default="forward")
        if direction not in ("forward", "backward"):
            raise SchemaError(f"direction must be forward or backward, got {direction!r}")
        steps.append((_parse_morphism_body(s, ring), direction))
    _no_extra(body, "homotopy_chain body")
    return HomotopyChainSpec(steps=steps)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _parse_homology(body: dict, ring):
    max_degree = _pop(body, "max_degree")
    raw_groups = _pop(body, "groups")
    _no_extra(body, "homology body")
    if not _is_count(max_degree) or not isinstance(raw_groups, list):
        raise SchemaError("homology body needs a non-negative integer max_degree and a groups list")
    groups = []
    for gr in raw_groups:
        if not isinstance(gr, dict):
            raise SchemaError(f"homology group {gr!r} is not an object")
        gr = dict(gr)
        degree = _pop(gr, "degree")
        free_rank = _pop(gr, "free_rank")
        torsion = _pop(gr, "torsion")
        _no_extra(gr, "homology group")
        if not (_is_count(degree) and _is_count(free_rank)):
            raise SchemaError("homology group degree and free_rank must be non-negative integers")
        if not isinstance(torsion, list) or not all(_is_count(t) and t >= 2 for t in torsion):
            raise SchemaError("homology group torsion must be a list of integers >= 2")
        groups.append({"degree": degree, "free_rank": free_rank, "torsion": torsion})
    degrees = [g["degree"] for g in groups]
    if len(degrees) != max_degree or degrees != list(range(max_degree)):
        raise SchemaError(
            f"homology groups need degrees 0..max_degree-1 in order for max_degree {max_degree}, got {degrees}"
        )
    return {"max_degree": max_degree, "groups": groups}


_BODY_PARSERS = {
    "path_complex": _parse_path_complex,
    "digraph": _parse_digraph,
    "directed_hypergraph": _parse_directed_hypergraph,
    "hypergraph": _parse_hypergraph,
    "morphism": _parse_morphism_body,
    "homotopy_chain": _parse_homotopy_chain,
    "homology": _parse_homology,
}


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _envelope(kind: str, ring: Optional[Ring], body: dict, description: Optional[str] = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    if ring is not None:
        doc["ring"] = emit_ring(ring)
    if description:
        doc["description"] = description
    doc["body"] = body
    return doc


def _emit_weights(body: dict, obj: Weighted) -> None:
    if obj.is_weighted:
        body["weights"] = {v.render(): emit_weight(w, obj.ring) for v, w in obj.weights}


def emit_path_complex(pc: PathComplex, description: Optional[str] = None) -> bytes:
    names = [v.render() for v in pc.store.vertices]  # the paths in store order, rendered from their codes
    body = {
        "vertices": [v.render() for v in pc.sorted_vertices()],
        "paths": [[names[k] for k in c] for bucket in pc.store.buckets for c in bucket],
    }
    _emit_weights(body, pc)
    return _dump(_envelope("path_complex", pc.ring, body, description))


def emit_digraph(g: WeightedDigraph, description: Optional[str] = None) -> bytes:
    body = {
        "vertices": [v.render() for v in sorted(g.vertices)],
        "edges": [[x.render(), y.render()] for x, y in sorted(g.edges)],
    }
    _emit_weights(body, g)
    return _dump(_envelope("digraph", g.ring, body, description))


def emit_directed_hypergraph(g: DirectedHypergraph, description: Optional[str] = None) -> bytes:
    body = {
        "vertices": [v.render() for v in sorted(g.vertices)],
        "arrows": [
            {
                "origin": [v.render() for v in sorted(a.origin)],
                "end": [v.render() for v in sorted(a.end)],
            }
            for a in g.sorted_arrows()
        ],
    }
    _emit_weights(body, g)
    return _dump(_envelope("directed_hypergraph", g.ring, body, description))


def emit_hypergraph(h: Hypergraph, description: Optional[str] = None) -> bytes:
    body = {
        "vertices": [v.render() for v in sorted(h.vertices)],
        "edges": [[v.render() for v in sorted(e)] for e in sorted(h.edges, key=sorted)],
    }
    return _dump(_envelope("hypergraph", None, body, description))


def emit_homology(result: HomologyResult, description: Optional[str] = None) -> bytes:
    """Canonical homology document: degrees ascending, torsion ascending."""
    body = {
        "max_degree": result.max_degree,
        "groups": [
            {
                "degree": n,
                "free_rank": g.free_rank,
                "torsion": sorted(int(t) for t in g.torsion),
            }
            for n, g in enumerate(result.groups)
        ],
    }
    return _dump(_envelope("homology", result.ring, body, description))


def emit(obj, description: Optional[str] = None) -> bytes:
    if isinstance(obj, PathComplex):
        return emit_path_complex(obj, description)
    if isinstance(obj, WeightedDigraph):
        return emit_digraph(obj, description)
    if isinstance(obj, DirectedHypergraph):
        return emit_directed_hypergraph(obj, description)
    if isinstance(obj, Hypergraph):
        return emit_hypergraph(obj, description)
    if isinstance(obj, HomologyResult):
        return emit_homology(obj, description)
    raise TypeError(f"cannot emit {type(obj).__name__}")
