"""The weighted regular chain complex Omega and weighted path homology.

Chains are taken on integer path codes (see OmegaComplex), with one walker per
operator: `_face_terms` writes weighted boundaries and `prism` the one-jump lifts
of the prism operator.  Omega, the induced maps, the chain-homotopy certificate
(`homotopy.certify_one_step`) and the prism check (`homotopy.verify_prism_identity`)
all run on these two.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter

from .algebra import (
    HomologyGroup,
    Matrix,
    Ring,
    chain_invariant_factors,
    homology_group,
    kernel_basis,
    require_pid,
)
from .errors import ImageNotInOmegaError, InvariantError, MissingWeightError, NotAMorphismError
from .pathcx import Path, PathComplex, PathMorphism, PathStore, is_regular, lifts


@dataclass
class OmegaComplex:
    """Bases of the allowed chains Omega_n and the boundary matrices between them.

    bases[n] has one row per regular n-path of the complex (canonical order)
    and one column per Omega_n generator, in column Hermite form (reduced
    echelon form over a field): each generator's first nonzero row, its pivot,
    is its own, and pivots ascend with the columns (see build_omega).
    boundaries[n] (n >= 1) expresses the weighted boundary Omega_n ->
    Omega_{n-1} in those generator bases.  Paths are the integer codes of the
    complex's store, which sort as the paths do, and rows[n] maps the code of
    each regular n-path to its row.
    """

    max_degree: int
    ring: Ring
    bases: list  # bases[n]: Matrix (len(rows[n]) x rank)
    boundaries: dict  # n -> Matrix (rank_{n-1} x rank_n)
    store: PathStore  # the complex's, which numbers its vertices
    rows: list  # rows[n]: code of a regular n-path -> its row

    def rank(self, n: int) -> int:
        if 0 <= n <= self.max_degree:
            return self.bases[n].cols
        return 0

    def boundary(self, n: int) -> Matrix:
        """Boundary Omega_n -> Omega_{n-1}; zero-shaped matrices off range."""
        if 1 <= n <= self.max_degree:
            return self.boundaries[n]
        if n == 0:
            return Matrix.zeros(self.ring, 0, self.rank(0))
        return Matrix.zeros(self.ring, self.rank(n - 1), 0)

    @cached_property
    def invariant_factors(self) -> list:
        """The invariant factors of boundary(0), ..., boundary(max_degree), computed on
        first use and kept with the complex (see `algebra.chain_invariant_factors`)."""
        return chain_invariant_factors([self.boundary(n) for n in range(self.max_degree + 1)])


def build_omega(pc: PathComplex, max_degree: int) -> OmegaComplex:
    """Compute Omega_n for n <= max_degree and the boundary matrices.

    Omega_n is the kernel of the composite: regular n-chains on P, mapped by
    the weighted boundary, projected onto the regular (n-1)-paths NOT in P.
    Each degree's face terms come from one loop over its codes (`_face_terms`),
    which writes each path's outside faces, its column of that projection, as
    it goes.  Before any elimination, each path without outside faces becomes
    its own unit generator and pruned paths (see _linked_paths) get none; each
    class of the rest takes its own kernel.  When every path of a class has one
    outside face, the class, being linked, shares that face: its constraint
    matrix is one row, whose Hermite kernel `_one_row_kernel` writes down from
    one extended-gcd chain (over a field, from one inverse); only the other
    classes run `kernel_basis`.  Classes have disjoint rows, so their
    kernel columns and the unit columns, ordered by first row, are the column
    Hermite form of the whole kernel.  Over Z kernel bases are saturated, so
    boundaries re-express integrally in the next basis down.  The work runs
    on integer path codes (see OmegaComplex): `pc.regular_path_codes(max_degree)`
    reads them off the complex's store, where the functors left them, so no
    path is coded here.
    """
    if not pc.is_weighted:
        raise MissingWeightError("Omega construction needs a weighted complex")
    ring = pc.ring
    require_pid(ring)
    codes = pc.regular_path_codes(max_degree)
    signed = signed_weights(pc, codes)
    rows = [{c: i for i, c in enumerate(bucket)} for bucket in codes]

    faces = []  # faces[n]: the face terms of the regular n-paths (see _face_terms)
    bases = []
    for n, bucket in enumerate(codes):
        if n:
            table, cut = _face_terms(bucket, rows[n - 1].get, signed, n)
        else:
            table = cut = [()] * len(bucket)
        faces.append(table)
        columns = [{j: ring.one} for j, terms in enumerate(cut) if not terms]
        for members in _linked_paths(cut) if any(cut) else ():
            if all(len(cut[j]) == 1 for j in members):  # linked, so all share that one face: one row
                kernel = _one_row_kernel(ring, [cut[j][0][1] for j in members])
            else:
                row_index: dict = {}  # outside face -> its row in the class's constraint matrix
                cols = [{row_index.setdefault(q, len(row_index)): c for q, c in cut[j]} for j in members]
                kernel = kernel_basis(Matrix.from_columns(ring, cols, len(row_index))).entries
            for col in kernel:
                columns.append({members[k]: x for k, x in col.items()})
        columns.sort(key=min)  # by pivot row, which no two generators share
        bases.append(Matrix.from_columns(ring, columns, len(table)))

    omega = OmegaComplex(max_degree, ring, bases, {}, pc.store, rows)
    for n in range(1, max_degree + 1):
        omega.boundaries[n] = restrict_to_omega(
            faces[n].__getitem__, omega, n, omega, n - 1, InvariantError
        )
    return omega


def signed_weights(pc: PathComplex, codes: list) -> list:
    """Each vertex number's weight and its negative, None for an unweighted vertex, as
    `_face_terms` reads them; MissingWeightError for an unweighted vertex on a code of
    degree 1 or more in codes, the regular path codes by degree."""
    vertices, weights, neg = pc.store.vertices, pc.weight_map(), pc.ring.neg
    signed = [(weights[v], neg(weights[v])) if v in weights else None for v in vertices]
    if None in signed:
        for c in (c for bucket in codes[1:] for c in bucket):
            for k in c:
                if signed[k] is None:
                    raise MissingWeightError(f"vertex {vertices[k].render()} has no weight")
    return signed


def _face_terms(codes: list, below, signed: list, n: int) -> tuple:
    """(table, cut) for the regular n-paths (n >= 1) with the given codes, in one loop.

    table[i] is path i's weighted boundary, zero terms dropped: (its row in degree
    n - 1, coefficient) for a face that `below`, the get of those rows, finds, else
    (its code, coefficient), an outside face, even an end face that a complex
    without truncation closure lacks; cut[i] lists the outside terms.  signed[k] is
    vertex k's weight and its negative.  An end face of a regular path is regular;
    an interior face is not when its two neighbours are equal.
    """
    # (s, interior, sign index, face getter) for s = 0..n
    steps = [(0, False, 0, itemgetter(slice(1, None)))]
    steps += [(s, True, s & 1, itemgetter(*range(s), *range(s + 1, n + 1))) for s in range(1, n)]
    steps.append((n, False, n & 1, itemgetter(slice(n))))
    table, cut = [], []
    for c in codes:
        terms, outside = [], []
        for s, interior, odd, drop in steps:
            if interior and c[s - 1] == c[s + 1]:
                continue
            w = signed[c[s]][odd]
            if w:
                face = drop(c)
                q = below(face, face)  # the face itself when it has no row: outside P
                term = (q, w)
                terms.append(term)
                if q is face:
                    outside.append(term)
        table.append(terms)
        cut.append(outside)
    return table, cut


def _one_row_kernel(ring: Ring, a: list) -> list:
    """The kernel of the one-row matrix (a_0 ... a_l), l >= 1 and every a_i nonzero, as
    `kernel_basis` gives it: sparse columns in column Hermite form.

    The kernel has rank l, and for i < l its vectors that vanish before entry i have
    entries i..l solving a_i x_i + ... + a_l x_l = 0, so column i has its pivot in row i.
    Over a field that column is e_i - (a_i / a_l) e_l, the reduced echelon form.  Over Z,
    with G_i = gcd(a_i, ..., a_l), the least positive x_i of such a vector is
    G_(i+1) / G_i: the pivot of column i.  One vector with that pivot is
    G_(i+1)/G_i e_i - a_i/G_i (y_(i+1) e_(i+1) + ... + y_l e_l), where the Bezout
    coefficients y give a_(i+1) y_(i+1) + ... + a_l y_l = G_(i+1) and are built from the
    last entry upward.  Reducing it at each later pivot row j < l into [0, pivot_j) by
    floor division, as `algebra._hermite_column_reduce` does, gives the one Hermite
    column with that pivot.
    """
    last = len(a) - 1
    if ring.is_field:
        one, mul, u = ring.one, ring.mul, ring.neg(ring.inv(a[last]))
        return [{i: one, last: mul(u, x)} for i, x in enumerate(a[:last])]
    g = abs(a[last])  # G_(i+1)
    y = {last: a[last] // g}  # the nonzero Bezout coefficients: sum of a_j y_j is G_(i+1)
    cols: list = [None] * last
    for i in range(last - 1, -1, -1):
        h = gcd(a[i], g)  # G_i
        c = -(a[i] // h)
        col = {i: g // h}
        col.update((j, c * x) for j, x in y.items())
        for j in range(i + 1, last):
            q = col.get(j, 0) // cols[j][j]
            if q:
                for r, z in cols[j].items():
                    v = col.get(r, 0) - q * z
                    if v:
                        col[r] = v
                    else:
                        del col[r]
        cols[i] = col
        if i:
            s, t = _bezout(a[i], g)
            y = {j: t * x for j, x in y.items()} if t else {}
            if s:
                y[i] = s
            g = h
    return cols


def _bezout(a: int, b: int) -> tuple:
    """(s, t) with s a + t b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (s0, t0) if a >= 0 else (-s0, -t0)


def _linked_paths(cut: list) -> list:
    """The classes of paths linked by shared outside faces, once the pruned paths are gone.

    cut[j] lists path j's (face, coefficient) terms outside the complex.  The last
    unpruned path with some face is pruned (over Z, Q and Z/p that face's nonzero
    coefficient forces the path's to 0) until none is, so every class has 2 paths or more.
    Classes are ascending index tuples, in the order of their first path.
    """
    owners: dict = {}  # outside face -> its unpruned paths
    for j, terms in enumerate(cut):
        for q, _ in terms:
            owners.setdefault(q, []).append(j)
    lone = [js for js in owners.values() if len(js) == 1]
    while lone:
        for j in tuple(lone.pop()):  # its one path, or none when pruned through another face
            for q, _ in cut[j]:
                owners[q].remove(j)
                if len(owners[q]) == 1:
                    lone.append(owners[q])
    classes = []
    unseen = {j for js in owners.values() for j in js}
    for j in sorted(unseen):
        if j in unseen:
            unseen.remove(j)
            members = [j]
            for i in members:  # grows as the class is found
                for q, _ in cut[i]:
                    for k in owners[q]:
                        if k in unseen:
                            unseen.remove(k)
                            members.append(k)
            classes.append(tuple(sorted(members)))
    return classes


def restrict_to_omega(
    image, source: OmegaComplex, n: int, target: OmegaComplex, m: int, error
) -> Matrix:
    """The matrix, source Omega_n -> target Omega_m, of a linear map given on elementary paths.

    `image(i)` yields the (key, coefficient) terms of the image of the regular
    n-path in row i of source.rows[n], one per key, for every path a generator uses
    (every row of source.bases[n] it has an entry in).  The key is
    the term's row among the target's regular m-paths, or, for a path outside
    them, its code in the target's numbering.  Outside terms must cancel in each
    generator's image; `error` is raised when they do not, or when the image
    leaves the target's Omega_m lattice.

    Each image is re-expressed in target.bases[m] by pivot-row substitution: the
    least row left must be a generator's pivot, whose entry gives that
    generator's coefficient (over Z the pivot must divide it), and the
    generator's column is subtracted.  A row no generator has as its pivot (a
    pruned path's row, say) refuses the image.  A free path's unit column shares
    its row with no other column, so its coefficient is the image's entry as it is.

    A generator on one path takes that path's image as it is, unsummed, which is
    why each image must have distinct keys.  Every caller's does: the faces of a
    regular path are distinct (dropping entries s < t gives the same sequence only
    if entries s..t are equal), and `induced_chain_map` gives each path one image term.
    """
    ring = source.ring
    zero, one, add, sub, mul, quo = ring.zero, ring.one, ring.add, ring.sub, ring.mul, ring.quo
    basis = target.bases[m].entries
    lead = {min(gen): g for g, gen in enumerate(basis)}  # pivot row -> its generator
    cols = []
    for j, gen in enumerate(source.bases[n].entries):
        if len(gen) == 1:  # the image of one path, whose keys are distinct (see above)
            ((i, coeff),) = gen.items()
            terms = image(i) if coeff == one else [(q, mul(coeff, c)) for q, c in image(i)]
        else:
            acc: dict = {}
            for i, coeff in sorted(gen.items()):
                for q, c in image(i):
                    c = mul(coeff, c)
                    acc[q] = add(acc[q], c) if q in acc else c
            terms = acc.items()
        col, rest = {}, {}
        for q, c in terms:
            if not c:
                continue
            if q.__class__ is not int:
                raise error(f"Omega_{n} generator {j} maps onto {target.store.path(q).render()}, off the target paths")
            g = lead.get(q)
            if g is not None and len(basis[g]) == 1:  # a free path's unit column
                col[g] = c
            else:
                rest[q] = c
        heap = list(rest)
        heapify(heap)
        while heap:
            i = heappop(heap)
            x = rest.pop(i)  # final: the columns still to come have their pivots past row i
            if not x:
                continue
            g = lead.get(i)
            if g is None:
                raise error(f"image of Omega_{n} generator {j} is not in the target Omega_{m}")
            pivot = basis[g]
            z = quo(x, pivot[i])
            if mul(z, pivot[i]) != x:
                raise error(f"image of Omega_{n} generator {j} is not in the target Omega_{m}")
            col[g] = z
            for h, y in pivot.items():
                if h != i:
                    if h not in rest:
                        rest[h] = zero
                        heappush(heap, h)
                    rest[h] = sub(rest[h], mul(z, y))
        cols.append(col)
    return Matrix.from_columns(ring, cols, target.rank(m))


@dataclass
class HomologyResult:
    """Per-degree weighted path homology, reported for degrees 0..max_degree-1."""

    ring: Ring
    max_degree: int  # the Omega truncation degree N; homology reported below it
    groups: list = field(default_factory=list)  # HomologyGroup per degree


def homology(pc: PathComplex, max_degree: int) -> HomologyResult:
    """Weighted path homology in degrees 0..max_degree-1.

    Omega is built only up to degree l + 1, with l the length of the longest path:
    Omega_n is 0 for n > l, so every group from degree l + 1 on is 0.
    """
    top = min(max_degree, len(pc.store.buckets))  # 1 + the longest path
    groups = homology_of_omega(build_omega(pc, top)).groups
    groups += [HomologyGroup(0) for _ in range(top, max_degree)]
    return HomologyResult(pc.ring, max_degree, groups)


def homology_of_omega(omega: OmegaComplex) -> HomologyResult:
    """Homology from the boundaries' invariant factors, each boundary eliminated once for both its degrees.

    The factors come from `omega.invariant_factors`, which eliminates each boundary
    d_(n+1) without the rows that d_n's unit pivots settle: those rows are ring
    combinations of the others, since d_n d_(n+1) = 0 (the argument is in
    `algebra.chain_invariant_factors`).  `homology_group` checks that identity on
    the full boundaries, so a complex that breaks it is refused, not misread.
    """
    d = omega.invariant_factors
    groups = [
        homology_group(omega.boundary(n), omega.boundary(n + 1), d[n], d[n + 1])
        for n in range(omega.max_degree)
    ]
    return HomologyResult(omega.ring, omega.max_degree, groups)


def prism(code: tuple, bottom, top, coefficients) -> list:
    """The prism's n + 1 one-jump lifts of the path code c_0..c_n as (code, coefficient)
    terms: lift k (`pathcx.lifts`) maps c_0..c_k by the vertex table bottom and c_k..c_n
    by top, with coefficient coefficients[c_k][k % 2], (-1)^k gamma(v_k) when coefficients[x] is the
    pair (gamma, -gamma) of vertex x.  On the tables of `pathcx.cylinder_tables` the
    lifts are cylinder codes, which the prism check sums; on F's vertex tables of a
    one-step homotopy F they are F's images of the lifts, which the certificate sums."""
    return list(zip(lifts(code, bottom, top), [coefficients[x][k & 1] for k, x in enumerate(code)]))


def image_numbers(source: PathStore, target: PathStore) -> tuple:
    """(number, off_target): number(vertex_map) is a map's table from source to target vertex
    numbers, a vertex off the target numbered past them once per call, so an image code is
    regular exactly when the image path is; off_target(code) names that image path."""
    vertices, numbers = source.vertices, dict(target.numbers)

    def number(vertex_map: dict) -> list:
        unmapped = [v for v in vertices if v not in vertex_map]
        if unmapped:
            raise NotAMorphismError(f"vertex {unmapped[0].render()} is unmapped")
        return [numbers.setdefault(vertex_map[v], len(numbers)) for v in vertices]

    def off_target(code: tuple) -> ImageNotInOmegaError:
        path = Path(tuple(map(list(numbers).__getitem__, code)))
        return ImageNotInOmegaError(f"image path {path.render()} is not in the target complex")

    return number, off_target


def induced_chain_map(f: PathMorphism, source: OmegaComplex, target: OmegaComplex) -> dict:
    """Matrices of f on Omega, degree by degree; checks boundary commutation.

    Each regular path's image is taken on its code, through f's table of `image_numbers`.
    Irregular images are dropped, and a regular image off the target raises
    ImageNotInOmegaError naming it.
    """
    number, off_target = image_numbers(source.store, target.store)
    table = number(f.vertex_map)
    one = target.ring.one

    def images(n: int):
        codes, rows = list(source.rows[n]), target.rows[n]

        def image(i: int):
            y = tuple([table[x] for x in codes[i]])
            row = rows.get(y)
            if row is not None:
                return ((row, one),)
            if is_regular(y):
                raise off_target(y)
            return ()

        return image

    top = min(source.max_degree, target.max_degree)
    mats = {
        n: restrict_to_omega(images(n), source, n, target, n, ImageNotInOmegaError)
        for n in range(top + 1)
    }
    for n in range(1, top + 1):
        lhs = target.boundary(n) @ mats[n]
        rhs = mats[n - 1] @ source.boundary(n)
        if lhs != rhs:
            raise ImageNotInOmegaError(
                f"induced map does not commute with the boundary in degree {n}"
            )
    return mats
