"""Weighted directed hypergraphs: morphism classes, functors, box product, homology."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .algebra import Ring
from .chain import HomologyResult, homology
from .digraph import LineDigraph, WeightedDigraph, paths_functor
from .errors import InvariantError, MissingWeightError, NotAMorphismError
from .pathcx import PathComplex, PathStore, Vertex, Weighted, canonical_weights, level_copies, walk_paths


@dataclass(frozen=True)
class Arrow:
    """An ordered pair of disjoint non-empty vertex sets (origin -> end)."""

    origin: frozenset
    end: frozenset

    def __post_init__(self):
        if not self.origin or not self.end:
            raise InvariantError("arrow origin and end must be non-empty")
        if self.origin & self.end:
            raise InvariantError("origin and end must be disjoint")

    def render(self) -> str:
        return f"{render_set(self.origin)} -> {render_set(self.end)}"

    def sort_key(self):
        return (sorted(self.origin), sorted(self.end))


@dataclass(frozen=True)
class DirectedHypergraph(Weighted):
    vertices: frozenset
    arrows: frozenset  # frozenset of Arrow
    weights: Optional[tuple] = None
    ring: Optional[Ring] = None

    @classmethod
    def build(
        cls,
        arrows: Iterable[Arrow],
        weights: Optional[Mapping[Vertex, object]] = None,
        ring: Optional[Ring] = None,
    ) -> "DirectedHypergraph":
        arrows = frozenset(arrows)
        if not arrows:
            raise InvariantError("a directed hypergraph needs at least one arrow")
        vertices = frozenset().union(*(a.origin | a.end for a in arrows))
        wt = canonical_weights(weights, ring)
        if wt is not None:
            extra = set(weights) - vertices
            if extra:
                raise InvariantError(
                    f"weighted vertex {sorted(extra)[0].render()} is not covered by any arrow"
                )
            if {v for v, _ in wt} != vertices:
                missing = sorted(vertices - {v for v, _ in wt})[0]
                raise InvariantError(f"vertex {missing.render()} has no weight")
        return cls(vertices, arrows, wt, ring)

    def sorted_arrows(self) -> list:
        return sorted(self.arrows, key=Arrow.sort_key)

    def origin_end_sets(self) -> list:
        """P01(G): every origin set and every end set, canonically ordered."""
        sets = {a.origin for a in self.arrows} | {a.end for a in self.arrows}
        return sorted(sets, key=sorted)


@dataclass(frozen=True)
class Hypergraph:
    """An undirected hypergraph: distinct edges of size >= 2 covering V."""

    vertices: frozenset
    edges: frozenset  # frozenset of frozensets

    @classmethod
    def build(cls, edges: Iterable[frozenset]) -> "Hypergraph":
        edges = frozenset(frozenset(e) for e in edges)
        if not edges:
            raise InvariantError("a hypergraph needs at least one edge")
        for e in edges:
            if len(e) < 2:
                raise InvariantError("hypergraph edges need strictly more than one element")
        return cls(frozenset().union(*edges), edges)


def set_weight(xs: Iterable[Vertex], weights: Mapping[Vertex, object], ring: Ring):
    """|X|: the sum of the member weights."""
    total = ring.zero
    for x in sorted(xs):
        if x not in weights:
            raise MissingWeightError(f"vertex {x.render()} has no weight")
        total = ring.add(total, weights[x])
    return total


@dataclass
class HyperMorphism:
    """A vertex map between directed hypergraphs; arrows map by image sets."""

    source: DirectedHypergraph
    target: DirectedHypergraph
    vertex_map: dict

    def image_set(self, xs: frozenset) -> frozenset:
        return frozenset(self.vertex_map[v] for v in xs)

    def image_arrow(self, a: Arrow) -> Arrow:
        """The arrow of the target matching (f(A) -> f(B)); NotAMorphism otherwise."""
        img_o, img_e = self.image_set(a.origin), self.image_set(a.end)
        for b in self.target.arrows:
            if b.origin == img_o and b.end == img_e:
                return b
        raise NotAMorphismError(
            f"image of arrow {a.render()} is not an arrow of the target"
        )

    def check(self) -> None:
        for v in sorted(self.source.vertices):
            if v not in self.vertex_map:
                raise NotAMorphismError(f"vertex {v.render()} is unmapped")
            if self.vertex_map[v] not in self.target.vertices:
                raise NotAMorphismError(
                    f"image of {v.render()} is not a target vertex"
                )
        for a in self.source.sorted_arrows():
            self.image_arrow(a)


@dataclass
class WeightClassification:
    vertex_weighted: bool
    edge_weighted: bool
    strong_weighted: bool


def classify_morphism(f: HyperMorphism) -> WeightClassification:
    """Vertex-/edge-/strong-weighted flags of a (checked) morphism."""
    f.check()
    g, h = f.source, f.target
    if not (g.is_weighted and h.is_weighted) or g.ring != h.ring:
        raise MissingWeightError("classification needs both sides weighted over one ring")
    wg, wh, ring = g.weight_map(), h.weight_map(), g.ring
    vertex = all(wh[f.vertex_map[v]] == wg[v] for v in g.vertices)
    edge = True
    for a in g.sorted_arrows():
        b = f.image_arrow(a)
        if set_weight(a.origin, wg, ring) != set_weight(b.origin, wh, ring):
            edge = False
        if set_weight(a.end, wg, ring) != set_weight(b.end, wh, ring):
            edge = False
    return WeightClassification(vertex, edge, vertex and edge)


def render_set(xs: Iterable[Vertex]) -> str:
    """A vertex set as {a,b'}: its members' renderings, sorted."""
    return "{" + ",".join(sorted(v.render() for v in xs)) + "}"


def _set_vertex(xs: frozenset) -> Vertex:
    """Canonical vertex for a set of vertices, e.g. {a,b}.

    Sets whose members share one prime level keep that level on the produced
    vertex, so box-product level sets line up with cylinder priming.
    """
    primes = {v.prime for v in xs}
    level = primes.pop() if len(primes) == 1 else 0
    return Vertex(render_set(v.primed(-level) for v in xs), level)


def natural_digraph(g: DirectedHypergraph) -> WeightedDigraph:
    """The digraph on P01(G) with one edge per arrow; set weights as vertex weights if G has weights."""
    vertex_of = {s: _set_vertex(s) for s in g.origin_end_sets()}
    edges = {(vertex_of[a.origin], vertex_of[a.end]) for a in g.arrows}
    wmap = g.weight_map()
    weights = {vertex_of[s]: set_weight(s, wmap, g.ring) for s in vertex_of} if g.is_weighted else None
    return WeightedDigraph.build(vertex_of.values(), edges, weights, g.ring)


def edge_weighted_homology(g: DirectedHypergraph, max_degree: int, maxlen: int = 4) -> HomologyResult:
    """H^e: weighted path homology of the path complex of the natural digraph."""
    return homology(paths_functor(natural_digraph(g), maxlen), max_degree)


def connective_functor(g: DirectedHypergraph, maxlen: int) -> PathComplex:
    """Paths stepping by equality or by (initial vertex -> terminal vertex)."""
    succ: dict = {v: {v} for v in g.vertices}
    for a in g.arrows:
        for v in a.origin:
            succ[v].update(a.end)
    # Every successor is a vertex, so the walks already form a path complex (see walk_paths).
    return PathComplex(g.vertices, walk_paths(succ, maxlen), g.weights, g.ring)


def underlying_hypergraph(g: DirectedHypergraph) -> Hypergraph:
    """Forget directions: edges are the unions A | B, deduplicated."""
    return Hypergraph.build(a.origin | a.end for a in g.arrows)


def density_two_functor(h: Hypergraph, maxlen: int) -> PathComplex:
    """Paths whose consecutive vertex pairs (repeats included) share an edge."""
    neigh: dict = {v: set() for v in h.vertices}
    for e in h.edges:
        for v in e:
            neigh[v].update(e)  # includes v itself: the pair (v, v) lies in e
    # Every neighbour is a vertex, so the walks already form a path complex (see walk_paths).
    return PathComplex(h.vertices, walk_paths(neigh, maxlen))


def density_two_of(g: DirectedHypergraph, maxlen: int) -> PathComplex:
    """[H2 E]^v(G): density-two complex of the underlying hypergraph, reweighted."""
    pc = density_two_functor(underlying_hypergraph(g), maxlen)
    if g.is_weighted:
        return pc.reweighted(g.weight_map(), g.ring)
    return pc


def bold_functor(g: DirectedHypergraph, maxlen: int) -> PathComplex:
    """The bold path complex: truncation closure of the fully decomposable paths.

    One forward walk to maxlen over sets of automaton states:
      pre(e)    -- inside the opening block, all vertices so far in A_e;
      mid(e,f)  -- crossed e, connector block so far inside B_e & A_f;
      post(e)   -- crossed e, closing block so far inside B_e.
    Vertex v starts in pre(i) for every arrow i with v in A_i, and in post(e)
    for every arrow e with v in B_e.  Every path with a run is kept: a path
    lies in the truncation closure exactly when it has a run from these states.
    Starting inside a connector block B_e & A_f behaves like starting in
    pre(f).  A run that starts in post(e) needs one vertex of A_e in front; a
    run that ends in pre or mid needs one vertex of an arrow's end behind; no
    run needs both, because post leads only to post.  So every kept path
    extends to a decomposable path of length <= maxlen + 1, and there is no
    acceptance test, no longer pass and no closure pass.  A path determines
    the state set its runs reach, so the walk extends paths group by group,
    with the moves of each distinct state set computed once per call.  It walks
    on vertex numbers and sorts each bucket of codes into the complex's store.
    """
    vertices = tuple(sorted(g.vertices))
    number = {v: k for k, v in enumerate(vertices)}.__getitem__
    arrows = g.sorted_arrows()
    origins = [set(map(number, a.origin)) for a in arrows]
    ends = [set(map(number, a.end)) for a in arrows]
    start = [{("pre", i) for i, origin in enumerate(origins) if v in origin} for v in range(len(vertices))]
    for i, end in enumerate(ends):
        for v in end:
            start[v].add(("post", i))

    def arrival_states(w: int, crossed: int) -> list:
        return [("post", crossed)] + [("mid", crossed, j) for j, origin in enumerate(origins) if w in origin]

    def steps_from(states: frozenset) -> list:
        moves: dict = {}
        for s in states:
            if s[0] == "post":
                stay, crossing = ends[s[1]], None
            else:  # pre(i) stays in A_i and crosses i; mid(e, f) stays in B_e & A_f and crosses f
                crossing = s[-1]
                stay = origins[crossing] if s[0] == "pre" else ends[s[1]] & origins[crossing]
            for u in stay:
                moves.setdefault(u, set()).add(s)
            for u in ends[crossing] if crossing is not None else ():
                moves.setdefault(u, set()).update(arrival_states(u, crossing))
        return [(u, frozenset(moves[u])) for u in sorted(moves)]

    steps: dict = {}  # state set -> sorted (next vertex, next state set) pairs
    frontier: dict = {}  # state set -> the codes whose run ends in it
    for v, states in enumerate(start):
        frontier.setdefault(frozenset(states), []).append((v,))
    buckets = [tuple((v,) for v in range(len(vertices)))]
    for _ in range(maxlen):
        nxt: dict = {}
        for states, group in frontier.items():
            if states not in steps:
                steps[states] = steps_from(states)
            for u, after in steps[states]:
                nxt.setdefault(after, []).extend([c + (u,) for c in group])
        frontier = nxt
        buckets.append(tuple(sorted(c for group in frontier.values() for c in group)))
    return PathComplex(g.vertices, PathStore(vertices, tuple(buckets)), g.weights, g.ring)


def hyper_box_product(g: DirectedHypergraph, line: LineDigraph) -> DirectedHypergraph:
    """The directed-hypergraph box product G x I_n (levels as prime levels)."""

    def lift(xs: frozenset, i: int) -> frozenset:
        return frozenset(v.primed(i) for v in xs)

    levels = range(line.n + 1)
    level_copies(g.vertices, levels)  # refuses vertex sets whose level copies meet
    arrows = {Arrow(lift(a.origin, i), lift(a.end, i)) for a in g.arrows for i in levels}
    arrows.update(
        Arrow(lift(s, i), lift(s, j))
        for s in g.origin_end_sets()
        for i, j in line.arrows()
    )
    return DirectedHypergraph.build(arrows, g.level_weights(levels), g.ring)


def vertex_weighted_complex(g: DirectedHypergraph, which: str, maxlen: int) -> PathComplex:
    if which == "c":
        return connective_functor(g, maxlen)
    if which == "b":
        return bold_functor(g, maxlen)
    if which == "2":
        return density_two_of(g, maxlen)
    raise ValueError(f"unknown pipeline {which!r} (expected one of c, b, 2)")


def vertex_weighted_homologies(
    g: DirectedHypergraph, which: str, max_degree: int, maxlen: int = 4
) -> HomologyResult:
    """H^{c/v}, H^{b/v} or H^{2/v} of a weighted directed hypergraph."""
    if not g.is_weighted:
        raise MissingWeightError("vertex-weighted homology needs weights")
    return homology(vertex_weighted_complex(g, which, maxlen), max_degree)
