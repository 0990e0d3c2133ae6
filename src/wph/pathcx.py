"""Path complexes with weights, validation, regular paths and the cylinder."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import ne
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .algebra import ZZ, Ring
from .errors import InvariantError, MissingWeightError


class Vertex(NamedTuple):
    """A vertex label plus its prime level (v vs v' in cylinders).

    A tuple-backed value: it orders, hashes and compares as the plain tuple
    (label, prime), and so compares equal to that tuple.
    """

    label: str
    prime: int = 0

    def primed(self, k: int = 1) -> "Vertex":
        """The copy k prime levels up: the top of a cylinder, or level k of a box product."""
        return Vertex(self.label, self.prime + k)

    def render(self) -> str:
        return self.label + "'" * self.prime

    def __repr__(self):
        return self.render()


class _PathFields(NamedTuple):
    vertices: tuple


class Path(_PathFields):
    """An elementary path: a non-empty ordered vertex sequence.

    A tuple-backed value, the 1-tuple (vertices,): it orders, hashes and
    compares by its vertex tuple.
    """

    __slots__ = ()

    def __new__(cls, vertices: tuple):
        if not vertices:
            raise InvariantError("elementary paths are non-empty")
        return tuple.__new__(cls, (vertices,))

    @classmethod
    def of(cls, *vs: Vertex) -> "Path":
        return cls(tuple(vs))

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def is_regular(self) -> bool:
        return is_regular(self.vertices)

    def drop_front(self) -> "Path":
        return Path(self.vertices[1:])

    def drop_back(self) -> "Path":
        return Path(self.vertices[:-1])

    def drop(self, s: int) -> "Path":
        return Path(self.vertices[:s] + self.vertices[s + 1 :])

    def primed(self) -> "Path":
        return Path(tuple(v.primed() for v in self.vertices))

    def lifts(self) -> list:
        """The one-jump lifts into the cylinder: the k-th runs v0..vk, then vk'..vn'."""
        vs, up = self.vertices, self.primed().vertices
        return [Path(vs[: k + 1] + up[k:]) for k in range(len(vs))]

    def render(self) -> str:
        return "(" + " ".join(v.render() for v in self.vertices) + ")"

    def __repr__(self):
        return self.render()


def is_regular(seq: Sequence) -> bool:
    """No two consecutive entries are equal: regularity of a vertex tuple or an integer path code."""
    return all(map(ne, seq, seq[1:]))


def canonical_weights(
    weights: Optional[Mapping[Vertex, object]], ring: Optional[Ring]
) -> Optional[tuple]:
    """A vertex weight map as the sorted tuple of (Vertex, scalar coerced into ring)."""
    if weights is None:
        return None
    if ring is None:
        raise InvariantError("weights need a coefficient ring")
    return tuple(sorted((v, ring.coerce(x)) for v, x in weights.items()))


class Weighted:
    """An optional vertex weight function, stored as a `canonical_weights` tuple with its ring."""

    weights: Optional[tuple]
    ring: Optional[Ring]

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weight_map(self) -> dict:
        return dict(self.weights) if self.weights is not None else {}

    def level_weights(self, levels: Iterable[int]) -> Optional[dict]:
        """Every weight copied to each of the given prime levels above its vertex."""
        if self.weights is None:
            return None
        return {v.primed(i): w for v, w in self.weights for i in levels}


def level_copies(vertices: Iterable[Vertex], levels: Iterable[int]) -> set:
    """Every vertex copied to each of the given prime levels above it.

    This is the vertex set of a cylinder (levels 0, 1) or a box product with
    I_n (levels 0..n).  A vertex set whose copies meet has neither, e.g. one
    holding both v and v': the level-1 copy of v would merge with v'.
    """
    copies: dict = {}
    for v in sorted(vertices):
        for i in levels:
            u = v.primed(i)
            if u in copies:
                raise InvariantError(
                    f"vertex {v.render()} collides with the primed copy of {copies[u].render()}"
                )
            copies[u] = v
    return set(copies)


def walk_paths(successors: Mapping[Vertex, Iterable[Vertex]], maxlen: int) -> list:
    """Every walk of at most maxlen steps from any key of `successors` along its values.

    When every successor is itself a key, the walks hold every singleton and
    are closed under truncation: they form a path complex on the keys as they
    stand, with no closure pass.
    """
    paths = [Path.of(v) for v in sorted(successors)]
    frontier = list(paths)
    for _ in range(maxlen):
        frontier = [Path(p.vertices + (y,)) for p in frontier for y in successors[p.vertices[-1]]]
        paths.extend(frontier)
    return paths


@dataclass
class ValidationReport:
    ok: bool
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class PathComplex(Weighted):
    """A vertex set plus a truncation-closed set of elementary paths.

    `weights` maps every vertex to an element of `ring` when present.
    Instances are immutable; construct with `PathComplex.build` (which checks
    nothing) and use `validate` for axiom checking, or `complex_from_paths`
    for automatic closure.
    """

    vertices: frozenset
    paths: frozenset
    weights: Optional[tuple] = None  # sorted tuple of (Vertex, scalar)
    ring: Optional[Ring] = None

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        paths: Iterable[Path],
        weights: Optional[Mapping[Vertex, object]] = None,
        ring: Optional[Ring] = None,
    ) -> "PathComplex":
        return cls(frozenset(vertices), frozenset(paths), canonical_weights(weights, ring), ring)

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)

    def sorted_paths(self) -> list:
        return sorted(self.paths, key=lambda p: (p.length, p.vertices))

    def validate(self) -> ValidationReport:
        problems = []
        for v in self.sorted_vertices():
            if Path.of(v) not in self.paths:
                problems.append(f"missing singleton path for vertex {v.render()}")
        for p in self.sorted_paths():
            for v in p.vertices:
                if v not in self.vertices:
                    problems.append(f"path {p.render()} uses unknown vertex {v.render()}")
            if p.length >= 1:
                for trunc in (p.drop_back(), p.drop_front()):
                    if trunc not in self.paths:
                        problems.append(
                            f"path {p.render()} lacks truncation {trunc.render()}"
                        )
        if self.is_weighted:
            wmap = self.weight_map()
            for v in self.sorted_vertices():
                if v not in wmap:
                    problems.append(f"vertex {v.render()} has no weight")
            for v, _ in self.weights:
                if v not in self.vertices:
                    problems.append(f"weighted vertex {v.render()} is not a declared vertex")
        return ValidationReport(ok=not problems, problems=problems)

    def regular_paths(self, n: int) -> list:
        """All regular n-paths of the complex, sorted: the order of the codes in
        `regular_path_codes`, the basis order of the regular chain modules."""
        return sorted(p for p in self.paths if p.length == n and p.is_regular())

    def regular_path_codes(self, max_degree: int) -> tuple:
        """The regular paths of length <= max_degree as integer codes, bucketed by length.

        Returns (numbers, buckets).  numbers maps each vertex to its number,
        counting from 0 in sorted vertex order (also its key order), so
        comparing codes compares the paths: buckets[n] lists the codes of the
        regular n-paths in canonical order.  Regularity is read off the vertex
        tuple, so an irregular path is never numbered or coded: the numbering
        covers the declared vertices and the vertices of the regular paths
        kept, and a vertex that only irregular paths use has no number.
        """
        top = max_degree + 1
        kept = [p.vertices for p in self.paths if len(p.vertices) <= top and is_regular(p.vertices)]
        numbers = {v: k for k, v in enumerate(sorted(self.vertices.union(*kept)))}
        number = numbers.__getitem__
        buckets = [[] for _ in range(top)]
        for vs in kept:
            buckets[len(vs) - 1].append(tuple(map(number, vs)))
        for bucket in buckets:
            bucket.sort()
        return numbers, buckets

    def truncate(self, maxlen: int) -> "PathComplex":
        """Drop paths longer than maxlen (truncation closure is preserved)."""
        paths = frozenset(p for p in self.paths if p.length <= maxlen)
        return PathComplex(self.vertices, paths, self.weights, self.ring)

    def reweighted(self, weights: Optional[Mapping[Vertex, object]], ring: Optional[Ring]) -> "PathComplex":
        return PathComplex.build(self.vertices, self.paths, weights, ring)

    def support(self) -> "PathComplex":
        """The support complex over Z of a weighted complex: the same vertices and
        paths, weight 1 where this complex's weight is nonzero and 0 where it is 0."""
        if self.weights is None:
            raise MissingWeightError("an unweighted complex has no support complex")
        weights = tuple((v, int(w != 0)) for v, w in self.weights)  # still sorted by vertex
        return PathComplex(self.vertices, self.paths, weights, ZZ)

    def cylinder(self) -> "PathComplex":
        """The cylinder on V + V' with paths P, P' and the one-jump lifts P#.

        It is built on the first call and kept with the complex, so both
        cylinder inclusions, the one-step homotopy check and every step of a
        homotopy chain on this complex share one cylinder.
        """
        return self._cylinder

    @cached_property
    def _cylinder(self) -> "PathComplex":
        vertices = level_copies(self.vertices, (0, 1))
        paths = set(self.paths)
        paths.update(p.primed() for p in self.paths)
        for p in self.paths:
            paths.update(p.lifts())
        return PathComplex.build(vertices, paths, self.level_weights((0, 1)), self.ring)


def complex_from_paths(
    paths: Iterable[Path],
    weights: Optional[Mapping[Vertex, object]] = None,
    ring: Optional[Ring] = None,
) -> PathComplex:
    """Close the given paths under truncation and singletons and build a complex."""
    closed = set()
    stack = list(paths)
    while stack:
        p = stack.pop()
        if p in closed:
            continue
        closed.add(p)
        if p.length >= 1:
            stack.append(p.drop_front())
            stack.append(p.drop_back())
    vertices = {v for p in closed for v in p.vertices}
    closed.update(Path.of(v) for v in vertices)
    return PathComplex.build(vertices, closed, weights, ring)


@dataclass
class PathMorphism:
    """A vertex map between path complexes; verified in the homotopy module."""

    source: PathComplex
    target: PathComplex
    vertex_map: dict

    def image_path(self, p: Path, collapse: bool = False) -> Path:
        """The image of p, vertex by vertex.  With collapse, two consecutive distinct
        vertices of p that the map sends to one vertex give it once; a repeat that p
        already has stays, as it is part of the path the map is applied to."""
        vmap = self.vertex_map
        if not collapse:
            return Path(tuple(vmap[v] for v in p.vertices))
        vs = p.vertices
        img = [vmap[vs[0]]]
        for u, v in zip(vs, vs[1:]):
            w = vmap[v]
            if u == v or w != img[-1]:
                img.append(w)
        return Path(tuple(img))


def identity_morphism(pc: PathComplex) -> PathMorphism:
    return PathMorphism(pc, pc, {v: v for v in pc.vertices})


def inclusion_bottom(pc: PathComplex) -> PathMorphism:
    """v -> (v, 0), the bottom inclusion of the cylinder."""
    return PathMorphism(pc, pc.cylinder(), {v: v for v in pc.vertices})


def inclusion_top(pc: PathComplex) -> PathMorphism:
    """v -> (v, 1), the top inclusion of the cylinder."""
    return PathMorphism(pc, pc.cylinder(), {v: v.primed() for v in pc.vertices})
