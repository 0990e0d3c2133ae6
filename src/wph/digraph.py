"""Weighted digraphs, their path complexes, and the box product with line digraphs."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .algebra import Ring
from .errors import InvariantError
from .pathcx import (
    PathComplex, Vertex, Weighted, canonical_weights, level_copies, walk_paths,
)


@dataclass(frozen=True)
class LineDigraph:
    """The line digraph I_n on vertices 0..n; steps[k] is True for k -> k+1."""

    steps: tuple

    @classmethod
    def forward(cls, n: int = 1) -> "LineDigraph":
        return cls((True,) * n)

    @classmethod
    def backward(cls, n: int = 1) -> "LineDigraph":
        return cls((False,) * n)

    @property
    def n(self) -> int:
        return len(self.steps)

    def arrows(self) -> list:
        return [(k, k + 1) if fwd else (k + 1, k) for k, fwd in enumerate(self.steps)]


I1_FORWARD = LineDigraph.forward(1)


@dataclass(frozen=True)
class WeightedDigraph(Weighted):
    """A loop-free digraph, optionally with a vertex weight function."""

    vertices: frozenset
    edges: frozenset  # frozenset of (Vertex, Vertex)
    weights: Optional[tuple] = None  # sorted tuple of (Vertex, scalar)
    ring: Optional[Ring] = None

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple],
        weights: Optional[Mapping[Vertex, object]] = None,
        ring: Optional[Ring] = None,
    ) -> "WeightedDigraph":
        vertices = frozenset(vertices)
        edges = frozenset(edges)
        for x, y in sorted(edges):  # the least bad edge is named, whatever the hash seed
            if x == y:
                raise InvariantError(f"loop at vertex {x.render()}")
            if x not in vertices or y not in vertices:
                raise InvariantError(f"edge ({x.render()} -> {y.render()}) uses unknown vertex")
        wt = canonical_weights(weights, ring)
        if wt is not None:
            declared = {v for v, _ in wt}
            if not vertices <= declared:
                missing = sorted(vertices - declared)[0]
                raise InvariantError(f"vertex {missing.render()} has no weight")
            if not declared <= vertices:
                extra = sorted(declared - vertices)[0]
                raise InvariantError(f"weighted vertex {extra.render()} is not a declared vertex")
        return cls(vertices, edges, wt, ring)


def paths_functor(g: WeightedDigraph, maxlen: int) -> PathComplex:
    """All edge-paths of length <= maxlen, as a weighted path complex."""
    successors: dict = {v: [] for v in g.vertices}
    for x, y in g.edges:
        successors[x].append(y)
    # Every successor is a vertex, so the walks already form a path complex (see walk_paths).
    return PathComplex(g.vertices, walk_paths(successors, maxlen), g.weights, g.ring)


def box_product(g: WeightedDigraph, line: LineDigraph) -> WeightedDigraph:
    """The digraph box product G x I_n; level i is encoded as prime level +i."""
    levels = range(line.n + 1)
    vertices = level_copies(g.vertices, levels)
    edges = {(x.primed(i), y.primed(i)) for x, y in g.edges for i in levels}
    edges.update((v.primed(i), v.primed(j)) for v in g.vertices for i, j in line.arrows())
    return WeightedDigraph.build(vertices, edges, g.level_weights(levels), g.ring)


@dataclass
class EqualityReport:
    equal: bool
    only_left: list = field(default_factory=list)
    only_right: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def compare_weighted_complexes(left: PathComplex, right: PathComplex) -> EqualityReport:
    """Structural equality of two weighted path complexes (paths and weights)."""
    only_left = sorted(left.paths - right.paths, key=lambda p: (p.length, p.vertices))
    only_right = sorted(right.paths - left.paths, key=lambda p: (p.length, p.vertices))
    problems = []
    if left.vertices != right.vertices:
        problems.append("vertex sets differ")
    if left.is_weighted != right.is_weighted:
        problems.append("one side is weighted, the other is not")
    elif left.is_weighted and left.weights != right.weights:
        problems.append("weight functions differ")
    equal = not (only_left or only_right or problems)
    return EqualityReport(equal, only_left, only_right, problems)


def check_cylinder_equality(g: WeightedDigraph, maxlen: int) -> EqualityReport:
    """Cylinder of the path complex vs path complex of the box product with 0 -> 1.

    Both sides are compared on paths of length <= maxlen + 1: the cylinder is
    taken over the (maxlen+1)-truncated complex and cut back to maxlen + 1, so
    that the two finite truncations of the equality of unbounded complexes
    match exactly.
    """
    left = paths_functor(g, maxlen + 1).cylinder().truncate(maxlen + 1)
    right = paths_functor(box_product(g, I1_FORWARD), maxlen + 1)
    return compare_weighted_complexes(left, right)
