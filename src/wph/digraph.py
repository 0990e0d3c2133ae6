"""Weighted digraphs, their path complexes, and the box product with line digraphs."""
from __future__ import annotations

from dataclasses import dataclass
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
