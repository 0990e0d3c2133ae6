"""Path complexes with weights, validation, regular paths and the cylinder."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import eq
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

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def is_regular(self) -> bool:
        return is_regular(self.vertices)

    def drop(self, s: int) -> "Path":
        return Path(self.vertices[:s] + self.vertices[s + 1 :])

    def primed(self) -> "Path":
        return Path(tuple(v.primed() for v in self.vertices))

    def render(self) -> str:
        return "(" + " ".join(v.render() for v in self.vertices) + ")"

    def __repr__(self):
        return self.render()


def is_regular(seq: Sequence) -> bool:
    """No two consecutive entries are equal: regularity of a vertex tuple or an integer path code."""
    return not any(map(eq, seq, seq[1:]))


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

    def reweighted(self, weights: Optional[Mapping[Vertex, object]], ring: Optional[Ring]):
        """The same object with the given weights over ring in place of its own."""
        return replace(self, weights=canonical_weights(weights, ring), ring=ring)


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


def cylinder_tables(count: int) -> tuple:
    """(bottom, top), the cylinder numbers of v_k and v_k' for the k-th of count sorted
    vertices: 2k and 2k + 1, the places of the sorted copies wherever `level_copies`
    allows a cylinder, so cylinder codes sort as cylinder paths."""
    return range(0, 2 * count, 2), range(1, 2 * count, 2)


def lifts(code: tuple, bottom, top) -> list:
    """The n + 1 one-jump lifts of the path code c_0..c_n: lift k maps c_0..c_k by the
    vertex table bottom and c_k..c_n by top.  The one lift walker, of the cylinder and
    of the prism operator (`chain.prism`)."""
    low, high = [bottom[x] for x in code], [top[x] for x in code]
    return [tuple(low[: k + 1] + high[k:]) for k in range(len(code))]


@dataclass(frozen=True)
class PathStore:
    """The paths of a complex as integer codes.  vertices lists the declared vertices
    and every path vertex in sorted order, and a code is the tuple of its vertices'
    indices there, so codes sort as the paths do.  buckets[n] holds the sorted codes
    of all n-paths, irregular ones too, up to the last bucket that is not empty.
    Complexes on one path set share one store, with its regular filter and `paths` view."""

    vertices: tuple
    buckets: tuple  # tuples of codes

    def __post_init__(self):
        while self.buckets and not self.buckets[-1]:
            object.__setattr__(self, "buckets", self.buckets[:-1])

    @cached_property
    def numbers(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def codes(self) -> frozenset:  # every code, for membership tests
        return frozenset(c for bucket in self.buckets for c in bucket)

    @cached_property
    def regular_codes(self) -> tuple:
        """The codes of the regular paths, bucket by bucket."""
        return tuple(tuple(filter(is_regular, bucket)) for bucket in self.buckets)

    @cached_property
    def paths(self) -> frozenset:
        return frozenset(map(self.path, self.codes))

    def path(self, code: tuple) -> Path:
        return Path(tuple(map(self.vertices.__getitem__, code)))


def walk_paths(successors: Mapping[Vertex, Iterable[Vertex]], maxlen: int) -> PathStore:
    """Every walk of at most maxlen steps from any key of `successors` along its values,
    as a store.  Every successor must itself be a key: then the walks form a path
    complex on the keys as they stand, with no closure pass.  The walk runs on the
    keys' numbers, with sorted successor lists, so each step emits a sorted bucket."""
    vertices = tuple(sorted(successors))
    number = {v: k for k, v in enumerate(vertices)}.__getitem__
    nexts = [sorted(map(number, successors[v])) for v in vertices]
    frontier = [(k,) for k in range(len(vertices))]
    buckets = [tuple(frontier)]
    for _ in range(maxlen):
        frontier = [c + (y,) for c in frontier for y in nexts[c[-1]]]
        buckets.append(tuple(frontier))
    return PathStore(vertices, tuple(buckets))


@dataclass
class ValidationReport:
    ok: bool
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class PathComplex(Weighted):
    """A vertex set plus a truncation-closed set of elementary paths.

    The paths are stored as integer code buckets (`PathStore`); `paths` is
    their view as Path objects.  `weights` maps every vertex to an element of
    `ring` when present.  Instances are immutable; construct with
    `PathComplex.build` (which checks nothing) and use `validate` for axiom
    checking, or `complex_from_paths` for automatic closure.
    """

    vertices: frozenset
    store: PathStore
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
        """The complex on the given Path objects, coded once into its store."""
        vertices, paths = frozenset(vertices), frozenset(paths)
        order = tuple(sorted(vertices.union(*(p.vertices for p in paths))))
        number = {v: k for k, v in enumerate(order)}.__getitem__
        buckets = [[] for _ in range(max((p.length for p in paths), default=-1) + 1)]
        for p in paths:
            buckets[p.length].append(tuple(map(number, p.vertices)))
        store = PathStore(order, tuple(tuple(sorted(bucket)) for bucket in buckets))
        return cls(vertices, store, canonical_weights(weights, ring), ring)

    @property
    def paths(self) -> frozenset:
        """Every path as a Path: the store's view, decoded on first read and kept with it."""
        return self.store.paths

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)

    def validate(self) -> ValidationReport:
        """Check the axioms on the store's codes: a singleton (k,) for every declared vertex
        k, then, in bucket order, each path's undeclared vertices and its truncations c[:-1]
        and c[1:] missing from the bucket below.  Only a path with a problem is decoded."""
        store, known, problems = self.store, self.vertices, []
        codes, numbers = store.codes, store.numbers
        singles = [v for v in self.sorted_vertices() if (numbers[v],) not in codes]
        problems += [f"missing singleton path for vertex {v.render()}" for v in singles]
        unknown = {numbers[v] for v in store.vertices if v not in known}
        for c in (c for bucket in store.buckets for c in bucket):
            bad = [f"uses unknown vertex {store.vertices[k].render()}" for k in c if k in unknown]
            truncations = (c[:-1], c[1:]) if len(c) > 1 else ()
            bad += [f"lacks truncation {store.path(t).render()}" for t in truncations if t not in codes]
            problems += [f"path {store.path(c).render()} {b}" for b in bad]
        if self.is_weighted:
            wmap = self.weight_map()
            problems += [f"vertex {v.render()} has no weight" for v in self.sorted_vertices() if v not in wmap]
            extra = [v for v, _ in self.weights if v not in known]
            problems += [f"weighted vertex {v.render()} is not a declared vertex" for v in extra]
        return ValidationReport(ok=not problems, problems=problems)

    def regular_paths(self, n: int) -> list:
        """All regular n-paths of the complex, sorted: the order of the codes in
        `regular_path_codes`, the basis order of the regular chain modules."""
        return sorted(p for p in self.paths if p.length == n and p.is_regular())

    def regular_path_codes(self, max_degree: int) -> list:
        """For n <= max_degree the store's codes of the regular n-paths, in canonical order."""
        regular = self.store.regular_codes
        return [regular[n] if n < len(regular) else () for n in range(max_degree + 1)]

    def truncate(self, maxlen: int) -> "PathComplex":
        """Drop paths longer than maxlen (truncation closure is preserved): the store's
        numbering and a prefix of its buckets."""
        store = PathStore(self.store.vertices, self.store.buckets[: maxlen + 1])
        return PathComplex(self.vertices, store, self.weights, self.ring)

    def support(self) -> "PathComplex":
        """The support complex over Z of a weighted complex: the same vertices and
        paths, weight 1 where this complex's weight is nonzero and 0 where it is 0."""
        if self.weights is None:
            raise MissingWeightError("an unweighted complex has no support complex")
        weights = tuple((v, int(w != 0)) for v, w in self.weights)  # still sorted by vertex
        return PathComplex(self.vertices, self.store, weights, ZZ)

    def cylinder(self) -> "PathComplex":
        """The cylinder on V + V' with paths P, P' and the one-jump lifts P#.

        It is built on the first call and kept with the complex, so both
        cylinder inclusions, the one-step homotopy check and every step of a
        homotopy chain on this complex share one cylinder.  It is built on codes.
        """
        return self._cylinder

    @cached_property
    def _cylinder(self) -> "PathComplex":
        store = self.store
        numbered = tuple(sorted(level_copies(store.vertices, (0, 1))))
        even, odd = cylinder_tables(len(store.vertices))
        buckets = [[] for _ in range(len(store.buckets) + 1)]
        for n, bucket in enumerate(store.buckets):
            for c in bucket:
                buckets[n] += (tuple([even[x] for x in c]), tuple([odd[x] for x in c]))
                buckets[n + 1] += lifts(c, even, odd)
        cyl = PathStore(numbered, tuple(tuple(sorted(bucket)) for bucket in buckets))
        vertices = frozenset(level_copies(self.vertices, (0, 1)))
        return PathComplex(vertices, cyl, canonical_weights(self.level_weights((0, 1)), self.ring), self.ring)


def complex_from_paths(
    paths: Iterable[Path],
    weights: Optional[Mapping[Vertex, object]] = None,
    ring: Optional[Ring] = None,
) -> PathComplex:
    """The complex on the truncation closure of the given paths: every contiguous piece
    of each path, its singletons among them, on the vertices of those pieces."""
    closed = {Path(vs[i:j]) for vs in (p.vertices for p in paths) for j in range(len(vs) + 1) for i in range(j)}
    return PathComplex.build((p.vertices[0] for p in closed if not p.length), closed, weights, ring)


@dataclass
class PathMorphism:
    """A vertex map between path complexes; verified in the homotopy module."""

    source: PathComplex
    target: PathComplex
    vertex_map: dict


def inclusion_bottom(pc: PathComplex) -> PathMorphism:
    """v -> (v, 0), the bottom inclusion of the cylinder."""
    return PathMorphism(pc, pc.cylinder(), {v: v for v in pc.vertices})


def inclusion_top(pc: PathComplex) -> PathMorphism:
    """v -> (v, 1), the top inclusion of the cylinder."""
    return PathMorphism(pc, pc.cylinder(), {v: v.primed() for v in pc.vertices})
