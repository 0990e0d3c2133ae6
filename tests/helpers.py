"""Shared random-instance generators and cross-checks used across the test suite."""
from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from pathlib import Path as FsPath

from wph import algebra, chain, cli, homotopy
from wph import io as wio
from wph.algebra import (
    QQ, ZZ, HomologyGroup, Matrix, Zmod, chain_invariant_factors, homology_group, kernel_basis, require_pid,
)
from wph.chain import build_omega, induced_chain_map, restrict_to_omega
from wph.dhyper import Arrow, DirectedHypergraph, HyperMorphism
from wph.digraph import WeightedDigraph, paths_functor
from wph.errors import HomotopyIdentityFailedError, ImageNotInOmegaError, MissingWeightError, WphError
from wph.homotopy import natural_path_morphisms
from wph.pathcx import (
    Path,
    PathComplex,
    PathMorphism,
    PathStore,
    Vertex,
    canonical_weights,
    complex_from_paths,
    is_regular,
    level_copies,
)

FIXTURES = FsPath(__file__).resolve().parent.parent / "fixtures"


def dense_columns(m: Matrix) -> list:
    """The columns of m as dense tuples."""
    return [tuple(col.get(i, m.ring.zero) for i in range(m.rows)) for col in m.entries]


def matrix_of_columns(ring, cols, rows: int) -> Matrix:
    """The rows x len(cols) matrix with the given dense columns."""
    return Matrix(ring, rows, len(cols), list(zip(*cols)) if cols else [()] * rows)


def homology_of_pair(boundary_out: Matrix, boundary_in: Matrix) -> HomologyGroup:
    """ker(boundary_out) / im(boundary_in), both expressed in the same basis.

    boundary_out maps the degree under inspection outward (to degree n-1),
    boundary_in maps into it (from degree n+1); see `algebra.homology_group`.
    """
    require_pid(boundary_out.ring)
    d_out, d_in = chain_invariant_factors([boundary_out])[0], chain_invariant_factors([boundary_in])[0]
    return homology_group(boundary_out, boundary_in, d_out, d_in)


def eliminate_with_two_queues(m: Matrix, skip=()) -> tuple:
    """What `algebra._eliminate` gives, from a unit queue and a separate Euclid queue,
    the second built when the first runs dry; the unit loop pops every key left in its
    queue, stale ones too.  An entry is keyed when a pivot makes it or changes its
    value, found by comparing the rows the pivot touches before and after it.  The
    reference for the one-queue engine: the same pivots, pushes, heapified keys and
    (factors, settled); pops are counted by patching `heappop` here."""
    require_pid(m.ring)
    ring = m.ring
    add, mul, neg, field = ring.add, ring.mul, ring.neg, ring.is_field
    entries = m.entries
    if skip:
        skip = set(skip)
        entries = [{i: x for i, x in col.items() if i not in skip} for col in entries]
    transposed = m.rows >= m.cols  # the side rule looks at m, whatever skip leaves out
    rows: dict = {}
    cols: dict = {}
    if not transposed:
        for j, col in enumerate(entries):
            if col:
                cols[j] = set(col)
                for i, x in col.items():
                    if i in rows:
                        rows[i][j] = x
                    else:
                        rows[i] = {j: x}
    else:
        for i, col in enumerate(entries):
            if col:
                rows[i] = dict(col)
                for j in col:
                    if j in cols:
                        cols[j].add(i)
                    else:
                        cols[j] = {i}

    def cost(k, c) -> int:
        return (len(rows[k]) - 1) * (len(cols[c]) - 1)

    def is_unit(x) -> bool:  # over a field every nonzero; the one other ring is Z
        return field or x == 1 or x == -1

    # (cost, row, column) keys of unit entries.  An entry gets a key when it is made or
    # changes value; a popped key of an entry that is gone or no unit is dropped, and
    # one whose cost went out of date is pushed again with the current cost.
    heap = [(cost(k, c), k, c) for k in rows for c, x in rows[k].items() if is_unit(x)]
    heapify(heap)
    # Euclid phase: (|entry|, cost, row, column) keys of the other entries, from its
    # first step on, kept the same way.
    sizes = None

    def copies(ks) -> dict:
        return {k: dict(rows[k]) for k in ks}

    def push_changed(before: dict, popped=None) -> None:
        """Keys for the entries of the rows in `before` that are new or changed since that
        copy was taken, and for the entry `popped` whose key a pivot took."""
        for k, old in before.items():
            for c, x in rows.get(k, {}).items():
                if old.get(c) == x and (k, c) != popped:
                    continue
                if is_unit(x):
                    heappush(heap, (cost(k, c), k, c))
                elif sizes is not None:
                    heappush(sizes, (abs(x), cost(k, c), k, c))

    def row_sub(k, q, pivot) -> None:  # row k -= q * pivot, a row's entries; cols kept in step
        entries, nq = rows[k], neg(q)
        for c, x in pivot.items():
            if c in entries:
                v = add(entries[c], mul(nq, x))
                if v:
                    entries[c] = v
                else:
                    del entries[c]
                    cols[c].discard(k)
            else:  # nq * x is nonzero: a PID has no zero divisors
                entries[c] = mul(nq, x)
                cols[c].add(k)
        if not entries:
            del rows[k]

    def drop_empty(cs) -> None:
        """Drop the columns of cs left empty."""
        for c in cs:
            if c in cols and not cols[c]:
                del cols[c]

    units, pivots = [], []  # m's columns of the unit pivots; the non-unit diagonal pivots
    settled = None  # the unit count at the first Euclid step
    while rows:
        while heap:
            key, i, j = heappop(heap)
            u = rows[i].get(j) if i in rows else None
            if u is None or not is_unit(u):
                continue
            if key != cost(i, j):
                heappush(heap, (cost(i, j), i, j))
                continue
            pivot = rows.pop(i)
            for c in pivot:
                cols[c].discard(i)
            del pivot[j]
            inv = ring.inv(u) if field else u  # over Z, u is 1 or -1
            touched = cols.pop(j)
            before = copies(touched)
            for k in touched:
                row_sub(k, mul(rows[k].pop(j), inv), pivot)  # clears its entry in column j
            drop_empty(pivot)
            push_changed(before)
            units.append(i if transposed else j)
        if field or not rows:
            break
        if sizes is None:
            settled = len(units)
            sizes = [(abs(x), cost(k, c), k, c) for k in rows for c, x in rows[k].items()]
            heapify(sizes)
        while True:
            size, key, i, j = heappop(sizes)
            if i not in rows or abs(rows[i].get(j, 0)) != size:
                continue
            if key == cost(i, j):
                break
            heappush(sizes, (size, cost(i, j), i, j))
        pivot = rows[i]
        p = pivot[j]
        before = copies(cols[j])
        ks = [k for k in cols[j] if k != i]
        cs = list(pivot)  # the columns in which the row operations change rows ks
        for k in ks:
            q = algebra._nearest_quotient(rows[k][j], p)
            if q:
                row_sub(k, q, pivot)
        if len(cols[j]) == 1:  # column j is p alone: column operations change row i only
            for c in cs:
                if c != j:
                    v = pivot[c] - algebra._nearest_quotient(pivot[c], p) * p
                    if v:
                        pivot[c] = v
                    else:
                        del pivot[c]
                        cols[c].discard(i)
            if len(pivot) == 1:
                pivots.append(abs(p))
                del rows[i], cols[j]
        drop_empty(cs)
        push_changed(before, (i, j))
    for a in range(len(pivots)):
        for b in range(a + 1, len(pivots)):
            g = gcd(pivots[a], pivots[b])
            pivots[a], pivots[b] = g, pivots[a] // g * pivots[b]
    return (ring.one,) * len(units) + tuple(pivots), units if settled is None else units[:settled]


def chain_eliminations(eliminate, boundaries) -> list:
    """(factors, settled) of each boundary by `eliminate`, each without the rows that the
    unit pivots of the one before settle, as `algebra.chain_invariant_factors` runs it."""
    out, settled = [], ()
    for m in boundaries:
        out.append(eliminate(m, settled))
        settled = out[-1][1]
    return out


# (ring, entries) for random sparse matrices: Z with units, Z without, Q, Z/7 and Z/2
SPARSE_SAMPLES = [
    (ZZ, [1, -1, 2, -3, 6]),
    (ZZ, [2, -2, 3, -3, 4, 6]),
    (QQ, [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3), Fraction(2, 3)]),
    (Zmod(7), [1, 2, 3, 6]),
    (Zmod(2), [1]),
]


def find_pivot_by_full_scan(a, t, nr, nc, ring):
    """What `algebra._find_pivot` returns, by reading the whole block from (t, t): the first
    nonzero of least pivot size in row-major order, or None."""
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            if a[i][j] and (best is None or ring.pivot_size(a[i][j]) < best[0]):
                best = (ring.pivot_size(a[i][j]), i, j)
    return None if best is None else best[1:]


def random_sparse_matrix(rng: random.Random, max_dim: int = 8) -> tuple:
    """A random mostly zero matrix over one of SPARSE_SAMPLES' rings, any shape down to
    0 x 0, and a random set of its rows to skip."""
    ring, entries = rng.choice(SPARSE_SAMPLES)
    rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
    density = rng.random()
    data = [[rng.choice(entries) if rng.random() < density else ring.zero for _ in range(cols)] for _ in range(rows)]
    skip = {i for i in range(rows) if rng.random() < 0.2}
    return Matrix(ring, rows, cols, data), skip


def one_row_kernel_by_elimination(ring, a: list) -> list:
    """What `chain._one_row_kernel` gives, from `kernel_basis` of the 1 x len(a) matrix (a)."""
    return list(kernel_basis(Matrix.from_columns(ring, [{0: x} for x in a], 1)).entries)


def regular_faces(seq) -> list:
    """(s, seq with entry s dropped) for each s whose face of the regular sequence is
    regular: an end, or an interior entry whose two neighbours differ."""
    last = len(seq) - 1
    return [(s, seq[:s] + seq[s + 1 :]) for s in range(last + 1) if s in (0, last) or seq[s - 1] != seq[s + 1]]


def lifts_by_paths(p: Path) -> list:
    """The one-jump lifts of p into the cylinder on Path objects: the k-th runs v0..vk,
    then vk'..vn'.  The reference for `pathcx.lifts`."""
    vs, up = p.vertices, p.primed().vertices
    return [Path(vs[: k + 1] + up[k:]) for k in range(len(vs))]


def walk_paths_by_paths(successors: dict, maxlen: int) -> list:
    """Every walk of at most maxlen steps from any key of `successors` along its values,
    as Path objects: the reference for `pathcx.walk_paths`, which walks on vertex numbers
    straight into sorted code buckets."""
    paths = [Path((v,)) for v in sorted(successors)]
    frontier = list(paths)
    for _ in range(maxlen):
        frontier = [Path(p.vertices + (y,)) for p in frontier for y in successors[p.vertices[-1]]]
        paths.extend(frontier)
    return paths


def cylinder_by_paths(pc: PathComplex) -> PathComplex:
    """The cylinder of pc built on Path objects, P, P' and the one-jump lifts, and coded
    once by `PathComplex.build`: the reference for `PathComplex.cylinder`, which is built
    on codes."""
    paths = set(pc.paths)
    paths.update(p.primed() for p in pc.paths)
    for p in pc.paths:
        paths.update(lifts_by_paths(p))
    return PathComplex.build(level_copies(pc.vertices, (0, 1)), paths, pc.level_weights((0, 1)), pc.ring)


def prism_by_paths(p: Path, gammas: dict, ring) -> list:
    """The prism of e_p as (lift, coefficient) terms on Path objects: lift k of
    `lifts_by_paths(p)` with (-1)^k gammas[v_k].  The reference for `chain.prism`."""
    return [(q, ring.neg(gammas[v]) if k % 2 else gammas[v]) for k, (v, q) in enumerate(zip(p.vertices, lifts_by_paths(p)))]


def boundary_by_paths(p: Path, signed: dict) -> list:
    """d e_p as (face, coefficient) terms on Path objects, signed[v] the weight of v and
    its negative: `face_terms_by_comprehension` on the vertex tuple, and 0 for a vertex."""
    table = face_terms_by_comprehension([p.vertices], {}.get, signed, p.length)[0] if p.length else [[]]
    return [(Path(face), x) for face, x in table[0]]


def codes_of(pc: PathComplex, paths: list) -> list:
    """The codes of the given paths in pc's store."""
    return [tuple(map(pc.store.numbers.__getitem__, p.vertices)) for p in paths]


def prism_differences_by_paths(pc: PathComplex, paths: list) -> list:
    """What `homotopy.verify_prism_identity` reports as each path's difference, from
    `prism_by_paths` and `boundary_by_paths`: the reference for the check on codes.  Both
    routes subtract e_p' - e_p, so equal differences are equal left sides."""
    homotopy._inverse_weights(pc)  # refuses as the check on codes does
    level_copies(pc.vertices, (0, 1))
    ring = pc.ring
    gammas = {v: ring.inv(w) for v, w in pc.weights}
    signed = {v: (w, ring.neg(w)) for v, w in pc.level_weights((0, 1)).items()}
    out = []
    for p in paths:
        terms = [(r, ring.mul(x, y)) for q, x in prism_by_paths(p, gammas, ring) for r, y in boundary_by_paths(q, signed)]
        terms += [(r, ring.mul(y, x)) for q, y in boundary_by_paths(p, signed) for r, x in prism_by_paths(q, gammas, ring)]
        total = {p.primed(): ring.neg(ring.one), p: ring.one}
        for q, x in terms:
            total[q] = ring.add(total.get(q, ring.zero), x)
        out.append(tuple(sorted((q, x) for q, x in total.items() if x)) or None)
    return out


def assert_prism_routes_agree(pc: PathComplex, paths: list) -> None:
    """`homotopy.verify_prism_identity` reports each path's difference as
    `prism_differences_by_paths` does: 0 with the prism, and e_p' - e_p with every lift
    doubled on both routes (`doubled_lifts`)."""
    ring = pc.ring
    for doubled in (False, True):
        with doubled_lifts() if doubled else nullcontext():
            got = [rep.difference for rep in homotopy.verify_prism_identity(pc, codes_of(pc, paths))]
            assert got == prism_differences_by_paths(pc, paths), pc
        moved = [((p, ring.neg(ring.one)), (p.primed(), ring.one)) for p in paths]
        assert got == (moved if doubled else [None] * len(paths)), pc


def face_terms_by_comprehension(codes: list, below, signed: list, n: int) -> tuple:
    """What `chain._face_terms` gives, from one comprehension over each path's
    `regular_faces` and a filter of its terms for the outside faces."""
    table = [
        [(below(face, face), signed[c[s]][s & 1]) for s, face in regular_faces(c) if signed[c[s]][0]]
        for c in codes
    ]
    return table, [[(q, x) for q, x in terms if q.__class__ is tuple] for terms in table]


def regular_path_codes_coding_every_path(pc: PathComplex, max_degree: int) -> list:
    """What `PathComplex.regular_path_codes` gives, from the `paths` view: by numbering
    the declared vertices and those of every path, irregular ones too, coding the paths
    of length <= max_degree and testing regularity on the codes."""
    candidates = [p for p in pc.paths if p.length <= max_degree]
    numbers = {v: k for k, v in enumerate(sorted(pc.vertices.union(*(p.vertices for p in pc.paths))))}
    buckets = [[] for _ in range(max_degree + 1)]
    for p in candidates:
        code = tuple(map(numbers.__getitem__, p.vertices))
        if is_regular(code):
            buckets[len(code) - 1].append(code)
    for bucket in buckets:
        bucket.sort()
    return buckets


def omega_by_face_comprehension(pc: PathComplex, max_degree: int):
    """`build_omega` on the codes of `regular_path_codes_coding_every_path`, each degree's
    face table from `face_terms_by_comprehension`: the reference for the one-loop build."""
    face_terms, path_codes = chain._face_terms, PathComplex.regular_path_codes
    chain._face_terms = face_terms_by_comprehension
    PathComplex.regular_path_codes = regular_path_codes_coding_every_path
    try:
        return build_omega(pc, max_degree)
    finally:
        chain._face_terms = face_terms
        PathComplex.regular_path_codes = path_codes


def induced_homology_maps_equal(om_src, om_tgt, f_mats, g_mats, max_degree) -> bool:
    """f_* == g_* on homology: (f - g) moves every cycle into the boundaries.

    One lattice test per degree: with K a basis of the source cycles, the lattice
    spanned by [d_(n+1) | (f - g) K] contains the one spanned by d_(n+1), so the two
    are equal exactly when their invariant factors are (equal rank, over a field).
    """
    for n in range(max_degree + 1):
        moved = (f_mats[n] - g_mats[n]) @ kernel_basis(om_src.boundary(n))
        if moved.is_zero():
            continue
        img = om_tgt.boundary(n + 1)
        both = Matrix.from_columns(img.ring, img.entries + moved.entries, img.rows)
        if chain_invariant_factors([both])[0] != chain_invariant_factors([img])[0]:
            return False
    return True


def homology_maps_equal(f: PathMorphism, g: PathMorphism, max_degree: int) -> bool:
    """The lattice test on the maps f and g induce in degrees <= max_degree, on Omega
    built afresh: the cross-check of a certificate's equal-homology-maps flag.

    Degrees past the longest path have Omega_n = 0 and pass vacuously, so Omega
    stops one degree above min(max_degree, longest path).
    """
    longest = max((p.length for pc in (f.source, f.target) for p in pc.paths), default=-1)
    top = min(max_degree, longest) + 1
    om_src, om_tgt = build_omega(f.source, top), build_omega(f.target, top)
    f_mats, g_mats = induced_chain_map(f, om_src, om_tgt), induced_chain_map(g, om_src, om_tgt)
    return induced_homology_maps_equal(om_src, om_tgt, f_mats, g_mats, top - 1)


def mapped_rows(terms, vertex_map: dict, target) -> list:
    """The image of the chain `terms`, (Path, coefficient) pairs, under a vertex map, as
    (target row, coefficient) pairs: irregular images dropped and equal rows summed
    (two paths can map onto one); an image off the target raises ImageNotInOmegaError.
    The reference for `chain.induced_chain_map`'s images, taken on path codes."""
    ring = target.ring
    out: dict = {}
    for p, c in terms:
        q = Path(tuple(vertex_map[v] for v in p.vertices))
        if not q.is_regular():
            continue
        row = target.rows[q.length].get(tuple(map(target.store.numbers.get, q.vertices))) if q.length <= target.max_degree else None
        if row is None:
            raise ImageNotInOmegaError(f"image path {q.render()} is not in the target complex")
        out[row] = ring.add(out[row], c) if row in out else c
    return list(out.items())


def induced_chain_map_by_paths(f: PathMorphism, source, target) -> dict:
    """What `chain.induced_chain_map` gives, each image from `mapped_rows` on Path objects."""
    one = source.ring.one

    def images(paths: list):
        return lambda i: mapped_rows(((paths[i], one),), f.vertex_map, target)

    top = min(source.max_degree, target.max_degree)
    mats = {
        n: restrict_to_omega(images(list(map(source.store.path, source.rows[n]))), source, n, target, n, ImageNotInOmegaError)
        for n in range(top + 1)
    }
    for n in range(1, top + 1):
        if target.boundary(n) @ mats[n] != mats[n - 1] @ source.boundary(n):
            raise ImageNotInOmegaError(f"induced map does not commute with the boundary in degree {n}")
    return mats


def chain_homotopy_by_prism(f: PathMorphism, g: PathMorphism, gammas: dict, source, target) -> dict:
    """L_n : Omega_n(source) -> Omega_(n+1)(target) as matrices, for n < source.max_degree:
    each image the `mapped_rows`, under the one-step homotopy F of f and g, of
    `prism_by_paths` of the source path, Path by Path, its lifts sorted as cylinder paths
    (the order in which an error names them).  The least vertex without a gamma on a path
    that some generator uses is refused first, with MissingWeightError.  The reference
    for the L that `homotopy.certify_one_step` checks on path chains."""
    ring, vertices = source.ring, f.source.store.vertices
    used = [{i for gen in source.bases[n].entries for i in gen} for n in range(source.max_degree)]
    lifted_paths = {source.store.path(c) for n, rows in enumerate(used) for c, i in source.rows[n].items() if i in rows}
    missing = sorted({v for p in lifted_paths for v in p.vertices} - set(gammas))
    if missing:
        raise MissingWeightError(f"vertex {missing[0].render()} has no weight")
    vertex_map = {v: f.vertex_map[v] for v in vertices}
    vertex_map.update({v.primed(): g.vertex_map[v] for v in vertices})

    def lifted(paths: list):
        return lambda i: mapped_rows(sorted(prism_by_paths(paths[i], gammas, ring)), vertex_map, target)

    return {
        n: restrict_to_omega(lifted(list(map(source.store.path, source.rows[n]))), source, n, target, n + 1, ImageNotInOmegaError)
        for n in range(source.max_degree)
    }


def outcome(run, *args):
    """run(*args), or the type and message of the WphError it raises."""
    try:
        return run(*args)
    except WphError as exc:
        return type(exc).__name__, str(exc)


def route_outcomes(f: PathMorphism, g: PathMorphism, source, target) -> tuple:
    """(code route, reference route) of f_* and g_* between the given Omega complexes:
    `induced_chain_map` against `induced_chain_map_by_paths`, each as its matrices or
    its error's type and message."""
    code = [outcome(induced_chain_map, m, source, target) for m in (f, g)]
    reference = [outcome(induced_chain_map_by_paths, m, source, target) for m in (f, g)]
    return code, reference


def random_pair(rng: random.Random, ring, weights=None) -> tuple:
    """(f, g, gammas) for a random pair of vertex maps over ring (Z or a Z/p), not checked
    to be morphisms: from a complex of regular random walks into the path complex of a
    random digraph, whose images and lifts' images may leave the target.  Weights are
    drawn from the given values, by default 1, -1, 2, 3 and -6 over Z and any nonzero
    value over Z/p.  gammas is one such draw per source vertex, for L."""
    if weights is None and ring != ZZ:
        draw = lambda: rng.randint(1, ring.m - 1)  # noqa: E731
    else:
        draw = lambda: rng.choice(weights or [1, -1, 2, 3, -6])  # noqa: E731
    maxlen = rng.randint(1, 3)
    tverts = [Vertex(f"t{i}") for i in range(rng.randint(2, 4))]
    density = rng.uniform(0.5, 1)
    edges = [(u, v) for u in tverts for v in tverts if u != v and rng.random() < density]
    target = paths_functor(WeightedDigraph.build(tverts, edges, {v: draw() for v in tverts}, ring), maxlen + 1)
    verts = [Vertex(chr(ord("a") + i)) for i in range(rng.randint(2, 4))]
    walks = []
    for _ in range(rng.randint(1, 4)):
        walk = [rng.choice(verts)]
        for _ in range(rng.randint(1, maxlen)):
            walk.append(rng.choice([v for v in verts if v != walk[-1]]))
        walks.append(Path(tuple(walk)))
    source = complex_from_paths(walks)
    verts = sorted(source.vertices)
    source = source.reweighted({v: draw() for v in verts}, ring)
    f, g = (PathMorphism(source, target, {v: rng.choice(tverts) for v in verts}) for _ in "fg")
    return f, g, {v: draw() for v in verts}


@contextmanager
def doubled_lifts():
    """Twice every lift, on every route: the one lift walker `chain.prism` (which
    `homotopy` imports as `prism`), with which L and the prism check lift on codes, and
    the reference `prism_by_paths`, with which `certificate_over_the_ring` and
    `prism_differences_by_paths` lift on Paths; f_* and g_* stay as they are.  Twice a
    chain of Omega stays in Omega, so only the identity dL + Ld = g_* - f_* can fail,
    and the prism identity fails on every path with the difference e_p' - e_p."""
    global prism_by_paths
    walker, reference = chain.prism, prism_by_paths
    chain.prism = homotopy.prism = lambda *args: walker(*args) * 2
    prism_by_paths = lambda *args: reference(*args) * 2
    try:
        yield
    finally:
        chain.prism = homotopy.prism = walker
        prism_by_paths = reference


def certificate_over_the_ring(f: PathMorphism, g: PathMorphism, max_degree: int, allow_degenerate: bool = False):
    """`homotopy.chain_homotopy_certificate` run on Omega matrices over the complexes' own
    ring, Q included: the one-step check, then `certify_one_step_by_matrices`.  The
    reference for the certificate's route over Q on the support complexes over Z."""
    hrep = homotopy.one_step_homotopy_pathcx(f, g, allow_degenerate=allow_degenerate)
    if not hrep.ok:
        return homotopy.CertificateReport(False, [f"not one-step homotopic: {p}" for p in hrep.problems])
    return certify_one_step_by_matrices(f, g, max_degree)


def certify_one_step_by_matrices(f: PathMorphism, g: PathMorphism, max_degree: int):
    """What `homotopy.certify_one_step` reports, or raises, computed the way it was before
    it ran on path chains: Omega of the source and of the target built up to the degree
    cap, f_* and g_* from `induced_chain_map`, L from the prism on Path objects
    (`chain_homotopy_by_prism`), and dL + Ld = g_* - f_* compared column by column in the
    target's Omega bases, over the complexes' own ring.  `doubled_lifts` doubles its
    lifts too."""
    homotopy._inverse_weights(f.source)  # refuses as the certificate does
    ring = f.source.ring
    gammas = {v: ring.inv(w) for v, w in f.source.weights}
    if not f.target.is_weighted or f.target.ring != ring:
        raise MissingWeightError("the certificate needs both sides weighted over one ring")

    longest = max((p.length for pc in (f.source, f.target) for p in pc.paths), default=-1)
    top = min(max_degree + 1, longest + 1)
    om_src, om_tgt = build_omega(f.source, top), build_omega(f.target, top)
    f_mats = induced_chain_map(f, om_src, om_tgt)
    g_mats = induced_chain_map(g, om_src, om_tgt)
    L = chain_homotopy_by_prism(f, g, gammas, om_src, om_tgt)
    for n in range(top):
        total = om_tgt.boundary(n + 1) @ L[n]
        if n >= 1:
            total = total + L[n - 1] @ om_src.boundary(n)
        want = g_mats[n] - f_mats[n]
        if total != want:
            for j in range(total.cols):
                if total.entries[j] != want.entries[j]:
                    raise HomotopyIdentityFailedError(f"chain-homotopy identity fails on Omega_{n} generator {j}")
    return homotopy.CertificateReport(ok=True, degrees_checked=max_degree + 1, identity_holds=True, homology_maps_equal=True)


def certificate_outcome(certify, f: PathMorphism, g: PathMorphism, max_degree: int, allow_degenerate: bool = False):
    """What a certificate reports, or the type and message of the error it raises."""
    try:
        rep = certify(f, g, max_degree, allow_degenerate=allow_degenerate)
    except WphError as exc:
        return type(exc).__name__, str(exc)
    return rep.ok, rep.problems, rep.degrees_checked, rep.identity_holds, rep.homology_maps_equal


def random_q_homotopy(rng: random.Random) -> tuple:
    """A random pair f, g over Q from a complex of regular random walks into the path
    complex of a complete digraph, whose vertices weigh 1/2, 3 or (less often) 0.  Each
    source vertex v weighs what f(v) weighs, and g(v) is mostly a target vertex of that
    weight, so f preserves weights and g mostly does; f may hit a zero weight (the
    certificate then refuses the source), and a target vertex off the images may weigh 0."""
    maxlen = rng.randint(1, 2)
    tverts = [Vertex(f"t{i}") for i in range(rng.randint(2, 4))]
    tweights = {v: rng.choice([Fraction(1, 2), Fraction(3)] * 2 + [Fraction(0)]) for v in tverts}
    edges = [(u, v) for u in tverts for v in tverts if u != v]
    target = paths_functor(WeightedDigraph.build(tverts, edges, tweights, QQ), maxlen + 1)
    verts = [Vertex(chr(ord("a") + i)) for i in range(rng.randint(2, 4))]
    walks = []
    for _ in range(rng.randint(1, 4)):
        walk = [rng.choice(verts)]
        for _ in range(rng.randint(1, maxlen)):
            walk.append(rng.choice([v for v in verts if v != walk[-1]]))
        walks.append(Path(tuple(walk)))
    source = complex_from_paths(walks)
    fmap = {v: rng.choice(tverts) for v in sorted(source.vertices)}
    gmap = {
        v: rng.choice(tverts if rng.random() < 0.1 else [t for t in tverts if tweights[t] == tweights[u]])
        for v, u in fmap.items()
    }
    source = source.reweighted({v: tweights[u] for v, u in fmap.items()}, QQ)
    return PathMorphism(source, target, fmap), PathMorphism(source, target, gmap)


def cli_homology_maps_equal(argv) -> bool:
    """`homology_maps_equal` on the pair that `wph homotopy-check ... --certify-chain-homotopy`
    with these arguments certifies (for --category dhyper, its natural path morphisms)."""
    args = cli._build_parser().parse_args(list(argv))
    src, tgt, f_doc, g_doc = (wio.parse(FsPath(p).read_bytes()).body for p in (args.source, args.target, args.f, args.g))
    if args.category == "dhyper":
        f, g = natural_path_morphisms(*(HyperMorphism(src, tgt, dict(m.vertex_map)) for m in (f_doc, g_doc)), args.maxlen)
    else:
        f, g = (PathMorphism(src, tgt, dict(m.vertex_map)) for m in (f_doc, g_doc))
    return homology_maps_equal(f, g, args.max_dim)


def morphism_problems_by_paths(f: PathMorphism, allow_degenerate: bool = False) -> tuple:
    """(ok, weighted, problems) as `homotopy.verify_path_morphism` reports them, recomputed on
    Path objects: each source path, in (length, vertices) order, mapped vertex by vertex (under
    allow_degenerate, with a jump the map sends onto the last vertex kept merged into it) and
    looked up in the target's `paths` view.  The reference for the check on codes."""
    vmap, problems = f.vertex_map, []
    for v in sorted(f.source.vertices):
        if v not in vmap:
            problems.append(f"vertex {v.render()} is unmapped")
        elif vmap[v] not in f.target.vertices:
            problems.append(f"image of {v.render()} is not a target vertex")
    if problems:
        return False, None, problems
    for p in sorted(f.source.paths, key=lambda p: (p.length, p.vertices)):
        vs = p.vertices
        image = [vmap[vs[0]]]
        for u, v in zip(vs, vs[1:]):
            if not allow_degenerate or u == v or vmap[v] != image[-1]:
                image.append(vmap[v])
        if Path(tuple(image)) not in f.target.paths:
            problems.append(f"image {Path(tuple(image)).render()} of {p.render()} is not a target path")
    weighted = None
    if f.source.is_weighted and f.target.is_weighted:
        weighted = f.source.ring == f.target.ring
        ws, wt = f.source.weight_map(), f.target.weight_map()
        for v in sorted(f.source.vertices):
            if wt[vmap[v]] != ws[v]:
                weighted = False
                problems.append(f"weight of {v.render()} not preserved: {ws[v]} -> {wt[vmap[v]]}")
    return not problems, weighted, problems


def one_step_by_paths(f: PathMorphism, g: PathMorphism, allow_degenerate: bool = False) -> bool:
    """Whether f and g are one-step homotopic, on Path objects: F (f on V, g on V') checked by
    `morphism_problems_by_paths` on `cylinder_by_paths` of the source."""
    vmap = {**f.vertex_map, **{v.primed(): u for v, u in g.vertex_map.items()}}
    return morphism_problems_by_paths(PathMorphism(cylinder_by_paths(f.source), f.target, vmap), allow_degenerate)[0]


def random_homotopy_chain(rng: random.Random, ring) -> tuple:
    """(maps, directions, allow_degenerate): a random chain f_0, ..., f_n, n = 2..4, of vertex
    maps from a point or an edge into the path complex of a random digraph over ring whose
    vertices weigh 1 or 2.  Every map preserves weights.  Step k -> k + 1 goes the way
    directions[k] says (forward: a one-step homotopy from f_k to f_(k+1); backward: from
    f_(k+1) to f_k), to a map that makes it one when some map does (`one_step_by_paths`);
    otherwise, and one time in eight, to any map, which may break the chain there."""
    tverts = [Vertex(f"t{i}") for i in range(rng.randint(3, 6))]
    edges = [(u, v) for u in tverts for v in tverts if u != v and rng.random() < 0.35]
    weight = {v: ring.coerce(rng.choice([1, 2])) for v in tverts}
    target = paths_functor(WeightedDigraph.build(tverts, edges, weight, ring), 3)
    images = rng.choice(edges) if edges and rng.random() < 0.6 else rng.sample(tverts, 1)  # an edge's or a point's
    first = dict(zip((Vertex("a"), Vertex("b")), images))
    source = complex_from_paths([Path(tuple(first))], {v: weight[u] for v, u in first.items()}, ring)
    candidates = [
        PathMorphism(source, target, dict(zip(first, images)))
        for images in itertools.product(tverts, repeat=len(first))
        if all(weight[u] == weight[w] for u, w in zip(first.values(), images))
    ]
    allow_degenerate = rng.random() < 0.5
    maps, directions = [PathMorphism(source, target, first)], []
    for _ in range(rng.randint(2, 4)):
        directions.append(rng.choice(["forward", "backward"]))
        pair = (lambda m: (m, maps[-1])) if directions[-1] == "backward" else (lambda m: (maps[-1], m))
        joined = [m for m in candidates if one_step_by_paths(*pair(m), allow_degenerate)]
        maps.append(rng.choice(joined if joined and rng.random() < 7 / 8 else candidates))
    return maps, directions, allow_degenerate


def assert_chain_verdict_matches_lattice(rng: random.Random, ring, directory) -> tuple:
    """Run `wph homotopy-check --mode chain --certify-chain-homotopy` on a `random_homotopy_chain`
    over ring, from documents written to directory, and check its verdict.  It passes exactly
    when every step is a one-step homotopy on Path objects (`one_step_by_paths`); then it says
    the maps f_0 and f_n induce on homology are equal, and so must the lattice test
    (`homology_maps_equal`).  Returns (passed, equal by the lattice test, or None when f_0 or
    f_n is no chain map)."""
    maps, directions, allow_degenerate = random_homotopy_chain(rng, ring)
    max_dim = rng.randint(1, 3)
    source, target = maps[0].source, maps[0].target
    bodies = [{"vertex_map": {v.render(): u.render() for v, u in m.vertex_map.items()}} for m in maps]
    steps = bodies[:1] + [dict(body, direction=d) for body, d in zip(bodies[1:], directions)]
    docs = {"source": wio.emit(source), "target": wio.emit(target)}
    docs.update(f={"kind": "morphism", "body": bodies[0]}, g={"kind": "morphism", "body": bodies[-1]})
    docs["chain"] = {"kind": "homotopy_chain", "body": {"steps": steps}}
    files = {name: FsPath(directory) / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        files[name].write_bytes(doc if isinstance(doc, bytes) else json.dumps({"format_version": "1", **doc}).encode())
    argv = ["homotopy-check", *map(str, (files["source"], files["target"], "--f", files["f"], "--g", files["g"]))]
    argv += ["--mode", "chain", "--chain", str(files["chain"]), "--certify-chain-homotopy", "--max-dim", str(max_dim)]
    argv += ["--strictness", "allow-degenerate" if allow_degenerate else "strict"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    pairs = [(b, a) if d == "backward" else (a, b) for a, b, d in zip(maps, maps[1:], directions)]
    passed = all(one_step_by_paths(a, b, allow_degenerate) for a, b in pairs)
    try:
        equal = homology_maps_equal(maps[0], maps[-1], max_dim)
    except ImageNotInOmegaError:  # a broken chain may end in a map that sends an edge off the target
        equal = None
    where = (argv, out.getvalue(), err.getvalue())
    if passed:
        assert (code, err.getvalue()) == (0, ""), where
        assert out.getvalue().splitlines() == [
            "homotopy chain: PASS",
            "chain-homotopy certificate: PASS",
            f"identity dL + Ld = g* - f* holds in degrees <= {max_dim}",
            "induced homology maps equal: yes",
        ], where
        assert equal, where
    else:
        assert (code, out.getvalue()) == (4, "homotopy chain: FAIL\n"), where
    return passed, equal


def fixture_paths(prefix: str) -> list:
    found = sorted(FIXTURES.glob(f"{prefix}*.json"))
    assert found, f"no fixtures matching {prefix}*"
    return found


def random_complex(
    rng: random.Random,
    ring=ZZ,
    max_vertices: int = 8,
    maxlen: int = 4,
    nonzero: bool = False,
) -> PathComplex:
    """A random weighted path complex: random walks closed under truncation.

    Weights over Z are small integers including zero unless `nonzero`;
    weights over Q are nonzero small rationals.
    """
    n = rng.randint(2, max_vertices)
    verts = [Vertex(chr(ord("a") + i)) for i in range(n)]
    paths = []
    for _ in range(rng.randint(1, 2 * n)):
        length = rng.randint(1, maxlen)
        walk = [rng.choice(verts)]
        while len(walk) < length + 1:
            walk.append(rng.choice(verts))
        paths.append(Path(tuple(walk)))
    weights = {}
    for v in verts:
        if ring == QQ:
            num = rng.choice([x for x in range(-4, 5) if x != 0]) if nonzero else rng.randint(-4, 4)
            weights[v] = Fraction(num, rng.randint(1, 4)) if num else Fraction(0)
        else:
            w = rng.randint(1, 4) if nonzero else rng.randint(-3, 3)
            weights[v] = w
    used = {v for p in paths for v in p.vertices}  # a weight off the complex's vertices is invalid
    return complex_from_paths(paths, weights={v: w for v, w in weights.items() if v in used}, ring=ring)


def random_unit_weight_complex(rng: random.Random, max_vertices: int = 6, maxlen: int = 3) -> PathComplex:
    """A random complex over Q whose weights are all nonzero (hence units)."""
    return random_complex(rng, ring=QQ, max_vertices=max_vertices, maxlen=maxlen, nonzero=True)


def random_units_complex(rng: random.Random, k: int) -> PathComplex:
    """A small random complex with unit weights: over Q, over Z (weights +-1), over Z/7 or
    over Z/2, as k % 4 is 0, 1, 2 or 3."""
    ring, draw = [
        (QQ, lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))),
        (ZZ, lambda: rng.choice([1, -1])),
        (Zmod(7), lambda: rng.randint(1, 6)),
        (Zmod(2), lambda: 1),
    ][k % 4]
    pc = random_complex(rng, ring=ring, max_vertices=6, maxlen=3)
    return pc.reweighted({v: draw() for v in sorted(pc.vertices)}, ring)


def random_unit_free_complex(rng: random.Random, max_vertices: int = 8, maxlen: int = 4) -> PathComplex:
    """A random complex over Z whose weights are 0, +-2, 3, 4 or 6: no boundary entry is a unit."""
    pc = random_complex(rng, max_vertices=max_vertices, maxlen=maxlen)
    return pc.reweighted({v: rng.choice([0, 2, -2, 3, 4, 6]) for v in sorted(pc.vertices)}, ZZ)


def random_digraph_complex(rng: random.Random, weight, ring, max_vertices: int = 5, maxlen: int = 4) -> PathComplex:
    """The path complex of a random digraph on 3..max_vertices vertices, each arrow present
    with probability 0.4 and each vertex weighted by weight(rng): its squares and longer
    detours link paths by shared outside faces."""
    verts = [Vertex(chr(ord("a") + i)) for i in range(rng.randint(3, max_vertices))]
    edges = [(x, y) for x in verts for y in verts if x != y and rng.random() < 0.4]
    return paths_functor(WeightedDigraph.build(verts, edges, {v: weight(rng) for v in verts}, ring), maxlen)


def grid_complex(rows: int, cols: int, maxlen: int) -> PathComplex:
    """The path complex of the rows x cols right/down grid digraph over Z.

    Vertex (i, j) has weight 1 + (7i + j) mod 3.
    """
    vs = {(i, j): Vertex(f"v{i}_{j}") for i in range(rows) for j in range(cols)}
    edges = [(vs[i, j], vs[i, j + 1]) for i in range(rows) for j in range(cols - 1)]
    edges += [(vs[i, j], vs[i + 1, j]) for i in range(rows - 1) for j in range(cols)]
    weights = {v: 1 + (7 * i + j) % 3 for (i, j), v in vs.items()}
    return paths_functor(WeightedDigraph.build(vs.values(), edges, weights, ZZ), maxlen)


def bold_reference(g: DirectedHypergraph, maxlen: int) -> PathComplex:
    """The bold complex by the definition: the fully decomposable paths of length
    <= maxlen + 1, closed under truncation, then cut back to maxlen.

    Decompositions are found by a forward program over automaton states:
      pre(e)    -- inside the opening block, all vertices so far in A_e;
      mid(e,f)  -- crossed e, connector block so far inside B_e & A_f;
      post(e)   -- crossed e, closing block so far inside B_e (accepting).
    It runs path by path on vertex numbers (places in the sorted vertices), and the
    closure adds both truncations of each path, longest paths first.
    """
    vertices = sorted(g.vertices)
    number = {v: k for k, v in enumerate(vertices)}.__getitem__
    arrows = [(frozenset(map(number, a.origin)), frozenset(map(number, a.end))) for a in g.sorted_arrows()]
    # arrival[e]: (w, the states on reaching w of B_e: post(e), and mid(e, f) for w in A_f)
    arrival = [
        [(w, {("post", e)} | {("mid", e, f) for f, (origin, _) in enumerate(arrows) if w in origin}) for w in end]
        for e, (_, end) in enumerate(arrows)
    ]
    accepting = {("post", e) for e in range(len(arrows))}
    step = {}  # state -> its moves: (next vertex, the states entered there)
    for e, (origin, end) in enumerate(arrows):
        step["pre", e] = [(u, {("pre", e)}) for u in origin] + arrival[e]
        step["post", e] = [(u, {("post", e)}) for u in end]
        for f, (origin_f, _) in enumerate(arrows):
            step["mid", e, f] = [(u, {("mid", e, f)}) for u in end & origin_f] + arrival[f]

    accepted = set()
    frontier = []
    for v in range(len(vertices)):
        states = frozenset(("pre", i) for i, (origin, _) in enumerate(arrows) if v in origin)
        if states:
            frontier.append(((v,), states))
    while frontier:
        nxt = []
        for path, states in frontier:
            if not states.isdisjoint(accepting):
                accepted.add(path)
            if len(path) == maxlen + 2:
                continue
            moves: dict = {}
            for s in states:
                for u, entered in step[s]:
                    moves.setdefault(u, set()).update(entered)
            nxt.extend((path + (u,), frozenset(moves[u])) for u in sorted(moves))
        frontier = nxt
    closed = [set() for _ in range(maxlen + 2)]  # closed[n]: the n-paths
    for c in accepted:
        closed[len(c) - 1].add(c)
    for n in range(maxlen + 1, 0, -1):
        for c in closed[n]:
            closed[n - 1].update((c[1:], c[:-1]))
    used = sorted({k for (k,) in closed[0]})  # the complex's vertices, renumbered in order
    place = {k: i for i, k in enumerate(used)}
    buckets = [[tuple(map(place.__getitem__, c)) for c in bucket] for bucket in closed[: maxlen + 1]]
    store = PathStore(tuple(vertices[k] for k in used), tuple(tuple(sorted(bucket)) for bucket in buckets))
    weights = canonical_weights(g.weight_map() if g.is_weighted else None, g.ring)
    return PathComplex(frozenset(store.vertices), store, weights, g.ring)


def random_directed_hypergraph(
    rng: random.Random, max_vertices: int = 7, max_arrows: int = 5, max_side: int = 7
) -> DirectedHypergraph:
    """A random directed hypergraph over Z on at most max_vertices vertices.

    Each arrow takes an origin of 1..max_side vertices and an end of
    1..max_side vertices among the rest; the vertices the arrows cover get
    weights in 1..3.
    """
    verts = [Vertex(chr(ord("a") + i)) for i in range(rng.randint(2, max_vertices))]
    arrows = []
    for _ in range(rng.randint(1, max_arrows)):
        origin = set(rng.sample(verts, rng.randint(1, min(max_side, len(verts) - 1))))
        rest = [v for v in verts if v not in origin]
        end = rng.sample(rest, rng.randint(1, min(max_side, len(rest))))
        arrows.append(Arrow(frozenset(origin), frozenset(end)))
    covered = {v for a in arrows for v in a.origin | a.end}
    return DirectedHypergraph.build(arrows, {v: rng.randint(1, 3) for v in covered}, ZZ)
