"""Morphism verification, one-step homotopy, the prism operator and certificates."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import QQ, ZZ
from .chain import _face_terms, build_omega, image_numbers, prism, signed_weights
from .dhyper import HyperMorphism, _set_vertex, classify_morphism, natural_digraph, render_set, set_weight
from .digraph import paths_functor
from .errors import (
    HomotopyIdentityFailedError,
    ImageNotInOmegaError,
    MissingWeightError,
    NonInvertibleWeightError,
    NotAMorphismError,
)
from .pathcx import Path, PathComplex, PathMorphism, cylinder_tables, is_regular, level_copies


@dataclass
class MorphismReport:
    ok: bool
    weighted: Optional[bool]  # None when either side is unweighted
    problems: list = field(default_factory=list)


def verify_path_morphism(f: PathMorphism, allow_degenerate: bool = False) -> MorphismReport:
    """Check path images land in the target; check weight preservation.

    Images are taken on the stores' codes, through one table from source to target
    vertex numbers; failures come in bucket order, and only they are decoded.  With
    allow_degenerate, two consecutive distinct vertices that f sends to one vertex give
    it once (a digraph map may send an edge to a vertex), and a repeat the source path
    has stays: entry i stays when i = 0, c[i-1] = c[i], or it differs from entry i - 1,
    which always equals the last entry kept.  A weighted source and target must weigh
    every vertex involved (MissingWeightError otherwise).
    """
    problems = []
    for v in f.source.store.vertices:
        if v not in f.vertex_map:
            problems.append(f"vertex {v.render()} is unmapped")
        elif f.vertex_map[v] not in f.target.vertices:
            problems.append(f"image of {v.render()} is not a target vertex")
    if problems:
        return MorphismReport(False, None, problems)
    source, target = f.source.store, f.target.store
    table = [target.numbers[f.vertex_map[v]] for v in source.vertices]
    for c in (c for bucket in source.buckets for c in bucket):
        y = tuple([table[x] for x in c])
        if allow_degenerate:
            y = y[:1] + tuple(z for u, v, w, z in zip(c, c[1:], y, y[1:]) if u == v or w != z)
        if y not in target.codes:
            problems.append(f"image {target.path(y).render()} of {source.path(c).render()} is not a target path")
    weighted = None
    if f.source.is_weighted and f.target.is_weighted:
        weighted = f.source.ring == f.target.ring
        ws, wt = f.source.weight_map(), f.target.weight_map()
        for v in sorted(f.source.vertices):
            u = f.vertex_map[v]
            for x, w in ((v, ws), (u, wt)):
                if x not in w:
                    raise MissingWeightError(f"vertex {x.render()} has no weight")
            if wt[u] != ws[v]:
                weighted = False
                problems.append(f"weight of {v.render()} not preserved: {ws[v]} -> {wt[u]}")
    return MorphismReport(ok=not problems, weighted=weighted, problems=problems)


@dataclass
class HomotopyReport:
    ok: bool
    weighted: Optional[bool]
    problems: list = field(default_factory=list)
    homotopy: Optional[PathMorphism] = None  # the verified map on the cylinder


def one_step_homotopy_pathcx(
    f: PathMorphism, g: PathMorphism, allow_degenerate: bool = False
) -> HomotopyReport:
    """Verify the unique candidate homotopy F on the cylinder of the source.

    F(v) = f(v) on the bottom copy and F(v') = g(v) on the top copy; f and g
    are one-step homotopic iff F is a morphism into the shared target.  F is
    defined where f and g are, so a vertex either leaves unmapped is reported
    as unmapped in F (v for f, v' for g).  The cylinder is the source's own
    (`PathComplex.cylinder`), built once per complex.
    """
    problems = []
    if f.source.store != g.source.store or f.source.vertices != g.source.vertices:
        problems.append("f and g have different sources")
    if f.target.store != g.target.store or f.target.vertices != g.target.vertices:
        problems.append("f and g have different targets")
    if problems:
        return HomotopyReport(False, None, problems)
    cyl = f.source.cylinder()
    vertices = f.source.store.vertices  # the declared ones and those only on paths
    vmap = {v: f.vertex_map[v] for v in vertices if v in f.vertex_map}
    vmap.update({v.primed(): g.vertex_map[v] for v in vertices if v in g.vertex_map})
    F = PathMorphism(cyl, f.target, vmap)
    rep = verify_path_morphism(F, allow_degenerate=allow_degenerate)
    return HomotopyReport(rep.ok, rep.weighted, rep.problems, F if rep.ok else None)


def chain_step_pairs(steps: list) -> list:
    """(a, b) for each step k -> k + 1 of a chain of (morphism, direction) pairs: a one-step
    homotopy from a = f_k to b = f_(k+1), or from f_(k+1) to f_k for a backward step."""
    return [(b, a) if d == "backward" else (a, b) for (a, _), (b, d) in zip(steps, steps[1:])]


def _inverse_weights(pc: PathComplex) -> list:
    """(gamma, -gamma) per store vertex, gamma its inverse weight, as `chain.prism` reads
    them; None for an unweighted vertex (see `_require_weights`)."""
    if not pc.is_weighted:
        raise NonInvertibleWeightError("an unweighted complex has no invertible weights")
    ring = pc.ring
    gammas = {}
    for v, w in pc.weights:
        if not ring.is_unit(w):
            raise NonInvertibleWeightError(
                f"weight {w} of vertex {v.render()} is not invertible in {ring.name}"
            )
        gammas[v] = ring.inv(w)
    return [(gammas[v], ring.neg(gammas[v])) if v in gammas else None for v in pc.store.vertices]


def _require_weights(coefficients: list, vertices: tuple, codes) -> None:
    """MissingWeightError for the least vertex on the codes whose coefficients are None."""
    missing = [k for k in set().union(*codes) if coefficients[k] is None]
    if missing:
        raise MissingWeightError(f"vertex {vertices[min(missing)].render()} has no weight")


@dataclass
class PrismReport:
    ok: bool
    difference: Optional[tuple] = None  # sorted (Path, coefficient) terms, when not 0


def verify_prism_identity(pc: PathComplex, codes: list) -> list:
    """One PrismReport per code of a regular path p in pc.store: does d(P e_p) + P(d e_p)
    == e_p' - e_p hold on the cylinder chains, P the prism over the inverse weights?

    Both sides are summed on cylinder codes (`pathcx.cylinder_tables`): P is `chain.prism`
    and d is `chain._face_terms`, which weighs p's vertices by store number and its
    lifts' by cylinder number.  Only a nonzero difference (left side minus right)
    becomes Paths.  Weights must be units (NonInvertibleWeightError) on every path
    vertex (MissingWeightError), and a complex with no cylinder is refused (`level_copies`).
    """
    coefficients = _inverse_weights(pc)
    store = pc.store
    cylinder = sorted(level_copies(store.vertices, (0, 1)))  # refuses a complex that has no cylinder
    _require_weights(coefficients, store.vertices, codes)
    ring = pc.ring
    add, mul, neg, one = ring.add, ring.mul, ring.neg, ring.one
    signed = {u: (w, neg(w)) for u, w in pc.level_weights((0, 1)).items()}
    by_store, by_cylinder = [signed.get(v) for v in store.vertices], [signed.get(u) for u in cylinder]
    bottom, top = cylinder_tables(len(store.vertices))

    reports = []
    for code in codes:
        n = len(code) - 1
        lifts = prism(code, bottom, top, coefficients)
        table = _face_terms([q for q, _ in lifts], {}.get, by_cylinder, n + 1)[0]
        terms = [(q, mul(x, y)) for (_, x), faces in zip(lifts, table) for q, y in faces]
        for r, y in _face_terms([code], {}.get, by_store, n)[0][0] if n else ():
            terms += [(q, mul(y, x)) for q, x in prism(r, bottom, top, coefficients)]
        total = {tuple([top[x] for x in code]): neg(one), tuple([bottom[x] for x in code]): one}
        for q, x in terms:
            total[q] = add(total[q], x) if q in total else x
        difference = tuple((Path(tuple(cylinder[k] for k in q)), x) for q, x in sorted(total.items()) if x)
        reports.append(PrismReport(not difference, difference or None))
    return reports


def _summed(terms, add) -> dict:
    """{key: the sum of its coefficients} of (key, coefficient) terms, zero sums dropped."""
    if len(terms) == 1:
        ((k, c),) = terms
        return {k: c} if c else {}
    out: dict = {}
    for k, c in terms:
        out[k] = add(out[k], c) if k in out else c
    return {k: c for k, c in out.items() if c}


def _vanishes(gen: dict, chains: list, add, mul) -> bool:
    """Whether the sum of gen[i] chains[i] over the rows i of an Omega generator is 0, each
    chains[i] a {key: coefficient} dict with no zero coefficient."""
    if len(gen) == 1:  # a nonzero multiple of a nonzero chain is not 0 over Z and Z/p
        return not chains[next(iter(gen))]
    return not _summed([(k, mul(x, c)) for i, x in gen.items() for k, c in chains[i].items()], add)


@dataclass
class CertificateReport:
    ok: bool
    problems: list = field(default_factory=list)
    degrees_checked: int = 0
    identity_holds: bool = False
    homology_maps_equal: bool = False


def chain_homotopy_certificate(
    f: PathMorphism,
    g: PathMorphism,
    max_degree: int,
    allow_degenerate: bool = False,
) -> CertificateReport:
    """Certify an explicit chain homotopy between f and g up to max_degree: the one-step
    check of f and g, then `certify_one_step` once it passes."""
    hrep = one_step_homotopy_pathcx(f, g, allow_degenerate=allow_degenerate)
    if not hrep.ok:
        return CertificateReport(False, [f"not one-step homotopic: {p}" for p in hrep.problems])
    return certify_one_step(f, g, max_degree)


def certify_one_step(f: PathMorphism, g: PathMorphism, max_degree: int) -> CertificateReport:
    """The certificate of f and g, whose one-step check has passed, up to max_degree.

    Checks that L = F_# P, the one-step homotopy F after the prism P, is a chain
    homotopy: dL + Ld = g_* - f_* exactly (HomotopyIdentityFailedError otherwise).
    Both sides must be weighted over one ring, as must each vertex L lifts (MissingWeightError).

    Only the source's Omega is built.  Every check runs on chains of the target's
    path codes: the images f_# x, g_# x and F_# P x of each Omega_n(source)
    generator x, and their weighted boundaries (`chain._face_terms`, which reads
    the target's regular paths once per degree).  Each source path's images under
    f, g and F after the prism (`chain.prism`, looked up when called) are taken
    once per call, irregular ones dropped; a generator's are their sums by
    linearity.  The checks run in this order: f's membership in every degree, then
    f's chain-map squares, the same two for g, the weights L lifts, L's membership and the identity,
    each degree by degree and generator by generator:
    - Membership.  Each image path must be a target path
      (ImageNotInOmegaError naming the image off it; for L, F's image of the least
      cylinder code off it) and the image's boundary must have no term off the
      target's paths (ImageNotInOmegaError naming the generator).  Over a field
      Omega_m(target) is the kernel of that outside part of the boundary; over Z it
      is the kernel's integer points, the saturated lattice that its Hermite basis
      spans.  So this is the test `chain.restrict_to_omega` makes against the basis.
    - The chain-map squares d f_# x = f_# d x and d g_# x = g_# d x
      (ImageNotInOmegaError naming the degree).
    - The identity d F_# P x + F_# P d x = g_# x - f_# x.
    The coordinates of Omega_m(target) in the regular m-paths are injective, so a
    square or the identity holds on path chains exactly when it holds on the
    matrices of f_*, g_* and L in the Omega bases (`chain.induced_chain_map`
    builds f_*'s): every verdict, and every error with its index, is the one those
    matrices give.  Once the identity holds, L is a chain homotopy on Omega,
    whatever complex the prism passes through.

    Over Q the certificate runs on the support complexes over Z.  The one-step
    check (weight preservation included), the source's unit weights and the
    same-ring check come first, on the Q complexes; then f and g are re-pointed
    at source.support() and target.support() (weight 1 where the weight is
    nonzero, 0 where it is 0), the ring becomes Z and every inverse weight 1.
    With w(p) the product of the nonzero weights on p, phi(e_p) = w(p)^-1 e_p
    is a chain isomorphism from the support complex onto the weighted one, as
    every nonzero weight is a unit of Q.  It commutes with f_*, g_* and L,
    because F preserves weights: the lift of p at k weighs w(p) delta(p_k), and
    the prism scales it by delta(p_k)^-1.  So dL + Ld = g_* - f_* holds for
    delta exactly when it holds on the support complex.  phi is diagonal, so
    generators keep their pivot rows, and Omega over Z has the same ranks as
    over Q.  Q is flat over Z and Omega over Z is saturated, so an integer
    image that lies in Omega (x) Q lies in the Z lattice: ImageNotInOmegaError
    fires on the same inputs.  Errors name a source generator by its index.
    When every pivot of the Hermite basis over Z is 1, that basis is the
    reduced echelon basis over Q, which phi carries onto the weighted one up to
    column scaling, so a failure is reported at the same index.  Where a pivot
    is not 1 the bases differ and the index could too; the tests compare every
    outcome with the run over Q itself and have not met such a case.  Over Z
    and Z/m the complexes keep their ring: a non-unit weight over Z is outside
    the argument, and Z/m is not flat over Z.

    Equal homology maps follow from the identity, so no further test runs.
    Take a basis K of the cycles of Omega_n(source), n < D (D below).  Then
    dK = 0, so (g_* - f_*) K = d(L_n K) + L_(n-1) dK = d(L_n K), and L_n K is a
    ring combination of Omega_(n+1)(target) generators: every column of
    (f_* - g_*) K lies in the lattice that d_(n+1) spans, over Z, Q and Z/m
    alike, and f_* = g_* on H_n.  The tests cross-check the flag with that
    lattice test on Omega built afresh (tests/helpers.py).

    Degree cap.  D = min(max_degree + 1, 1 + the longest path of the source and
    the target).  Omega of the source is built up to D; f and g are checked up to
    degree D, and L and the identity up to D - 1.  When D <= max_degree, every
    degree n from D to max_degree is past the source's longest path, so
    Omega_n(source) = 0: f_*, g_*, L_n and the identity have zero columns there,
    and H_n(source) = 0.  L_(D-1) lands in degree D of the target, whose paths up
    to D are read, and whose weights are checked there as `build_omega(target, D)`
    checks them.  Every path of length at most max_degree + 1 has length at most
    D, so the same regular paths are read, and the same errors raised, as up to
    max_degree + 1.
    """
    signs = _inverse_weights(f.source)
    ring = f.source.ring
    if not f.target.is_weighted or f.target.ring != ring:
        raise MissingWeightError("the certificate needs both sides weighted over one ring")
    if ring == QQ:  # the same outcome on the support complexes (see above)
        source, target = f.source.support(), f.target.support()
        f, g = (PathMorphism(source, target, m.vertex_map) for m in (f, g))
        signs = [s and (ZZ.one, -ZZ.one) for s in signs]

    source, target, ring = f.source, f.target, f.source.ring
    add, mul, neg, one = ring.add, ring.mul, ring.neg, ring.one
    top = min(max_degree + 1, max(len(source.store.buckets), len(target.store.buckets)))
    om = build_omega(source, top)
    codes = target.regular_path_codes(top)
    weights = signed_weights(target, codes)  # refuses as build_omega(target, top) does
    # each regular target path's face terms by face code, and {face: coefficient} of those off the target
    boundary = dict.fromkeys(codes[0], ((), {}))
    for m in range(1, top + 1):
        if codes[m]:
            keys = dict(zip(codes[m - 1], codes[m - 1]))  # a target path's face is keyed by its code; the rest are cut
            table, cut = _face_terms(codes[m], keys.get, weights, m)
            boundary.update(zip(codes[m], zip(table, map(dict, cut))))  # the faces of a regular path are distinct
    paths = [list(rows) for rows in om.rows]  # the source code in each row
    used = [sorted({i for gen in basis.entries for i in gen}) for basis in om.bases]  # the rows generators use
    signed, faces = signed_weights(source, ()), {}  # faces: a used source path's face terms
    for n in range(1, top + 1):
        if used[n]:
            sources = [paths[n][i] for i in used[n]]
            faces.update(zip(sources, _face_terms(sources, {}.get, signed, n)[0]))
    number, off_target = image_numbers(source.store, target.store)

    def in_omega(n: int, m: int, outside: dict, off: set, named) -> None:
        """The membership check, generator by generator, of the images of the Omega_n(source)
        generators in Omega_m(target): row i's image has the boundary terms outside[i] off
        the target, and its paths are target paths unless i is in off, when named(i) names
        the image path to report."""
        for j, gen in enumerate(om.bases[n].entries):
            for i in sorted(gen):
                if i in off:
                    raise off_target(named(i))
            if not _vanishes(gen, outside, add, mul):
                raise ImageNotInOmegaError(f"image of Omega_{n} generator {j} is not in the target Omega_{m}")

    maps = []  # per map, f and g: its vertex table and, by degree, its regular images {row: code}
    for h in (f, g):
        t, images = number(h.vertex_map), []
        for n in range(top + 1):
            image, off, outside = {}, set(), {}
            for i in used[n]:
                y = tuple([t[x] for x in paths[n][i]])
                outside[i] = {}
                if is_regular(y):
                    image[i] = y
                    if y in boundary:
                        outside[i] = boundary[y][1]
                    else:
                        off.add(i)
            in_omega(n, n, outside, off, image.get)
            images.append(image)
        for n in range(1, top + 1):  # d h_# x = h_# d x
            squares = {}
            for i in used[n]:
                terms = list(boundary[images[n][i]][0]) if i in images[n] else []
                for q, w in faces[paths[n][i]]:
                    y = tuple([t[x] for x in q])
                    if is_regular(y):
                        terms.append((y, neg(w)))
                squares[i] = _summed(terms, add)
            if not all(_vanishes(gen, squares, add, mul) for gen in om.bases[n].entries):
                raise ImageNotInOmegaError(f"induced map does not commute with the boundary in degree {n}")
        maps.append((t, images))

    (tf, f_images), (tg, g_images) = maps
    _require_weights(signs, source.store.vertices, (paths[n][i] for n in range(top) for i in used[n]))  # L lifts them
    low, high = cylinder_tables(len(signs))

    def lifted(p: tuple) -> list:  # the regular ones of F's images of the prism's lifts of p
        return [u for u in prism(p, tf, tg, signs) if is_regular(u[0])]

    def least_off(p: tuple) -> tuple:  # F's image of the least cylinder lift of p off the target
        lifts = zip(prism(p, low, high, signs), prism(p, tf, tg, signs))
        return min((c, y) for (c, _), (y, _) in lifts if is_regular(y) and y not in boundary)[1]

    L = []  # by degree: {row: F_# P of its path}
    for n in range(top):
        chains, off, outside = {}, set(), {}
        for i in used[n]:
            terms = lifted(paths[n][i])
            chains[i] = chain = _summed(terms, add)
            if all(y in boundary for y, _ in terms):
                outside[i] = _summed([(q, mul(c, w)) for y, c in chain.items() for q, w in boundary[y][1].items()], add)
            else:
                off.add(i)
        in_omega(n, n + 1, outside, off, lambda i: least_off(paths[n][i]))
        L.append(chains)

    lifts = {paths[n][i]: chain for n in range(top) for i, chain in L[n].items()}  # F_# P by source code
    for n in range(top):  # d F_# P x + F_# P d x = g_# x - f_# x
        defects = {}
        for i, chain in L[n].items():
            terms = [(q, mul(c, w)) for y, c in chain.items() for q, w in boundary[y][0]]
            if i in g_images[n]:
                terms.append((g_images[n][i], neg(one)))
            if i in f_images[n]:
                terms.append((f_images[n][i], one))
            for q, w in faces.get(paths[n][i], ()):
                if q not in lifts:  # a face that no generator uses
                    lifts[q] = _summed(lifted(q), add)
                terms += [(y, mul(w, c)) for y, c in lifts[q].items()]
            defects[i] = _summed(terms, add)
        for j, gen in enumerate(om.bases[n].entries):
            if not _vanishes(gen, defects, add, mul):
                raise HomotopyIdentityFailedError(f"chain-homotopy identity fails on Omega_{n} generator {j}")

    return CertificateReport(
        ok=True,
        degrees_checked=max_degree + 1,
        identity_holds=True,
        homology_maps_equal=True,
    )


@dataclass
class HyperHomotopyReport:
    ok: bool
    problems: list = field(default_factory=list)
    vertex_weighted: bool = False
    edge_weighted: bool = False
    strong_weighted: bool = False


def one_step_homotopy_dhyper(
    f: HyperMorphism, g: HyperMorphism, mode: str = "strict"
) -> HyperHomotopyReport:
    """Verify a one-step homotopy of directed-hypergraph morphisms.

    The candidate F on G x I_1 (forward) restricts to f on level 0 and g on
    level 1; the level-crossing arrows A x 0 -> A x 1 must map to arrows
    (f(A) -> g(A)) of the target.  In reflexive mode crossings with
    f(A) == g(A) are exempted (such an arrow cannot exist by disjointness).
    """
    if mode not in ("strict", "reflexive"):
        raise ValueError("mode must be 'strict' or 'reflexive'")
    problems = []
    if f.source is not g.source and f.source != g.source:
        problems.append("f and g have different sources")
    if f.target is not g.target and f.target != g.target:
        problems.append("f and g have different targets")
    if problems:
        return HyperHomotopyReport(False, problems)
    for name, m in (("f", f), ("g", g)):
        try:
            m.check()
        except NotAMorphismError as exc:
            problems.append(f"{name} is not a morphism: {exc}")
    if problems:
        return HyperHomotopyReport(False, problems)
    target_pairs = {(a.origin, a.end) for a in f.target.arrows}
    for s in f.source.origin_end_sets():
        fo, go = f.image_set(s), g.image_set(s)
        if fo == go:
            if mode == "strict":
                problems.append(
                    f"strict mode: the crossing arrow for set {render_set(s)} would need equal "
                    f"origin and end {render_set(fo)}, which arrow disjointness forbids"
                )
            continue
        if fo & go:
            problems.append(f"images of set {render_set(s)} overlap; no arrow can join them")
        elif (fo, go) not in target_pairs:
            problems.append(f"target lacks the crossing arrow {render_set(fo)} -> {render_set(go)}")
    flags = dict.fromkeys(("vertex_weighted", "edge_weighted", "strong_weighted"), False)
    if f.source.is_weighted and f.target.is_weighted:
        cf, cg = classify_morphism(f), classify_morphism(g)
        flags = {k: getattr(cf, k) and getattr(cg, k) for k in flags}
    return HyperHomotopyReport(ok=not problems, problems=problems, **flags)


def edge_weighted_certificate(
    f: HyperMorphism,
    g: HyperMorphism,
    max_degree: int,
    maxlen: int = 4,
    mode: str = "strict",
) -> CertificateReport:
    """Certify equal induced maps on edge-weighted homology (natural pipeline).

    Refuses with NonInvertibleWeight when the source is unweighted or some
    origin/end set weight |A| of the source is not a unit of the ring.
    """
    hrep = one_step_homotopy_dhyper(f, g, mode=mode)
    if not hrep.ok:
        return CertificateReport(False, [f"not one-step homotopic: {p}" for p in hrep.problems])
    if not f.source.is_weighted:
        raise NonInvertibleWeightError("an unweighted hypergraph has no invertible set weights")
    ring = f.source.ring
    wmap = f.source.weight_map()
    for s in f.source.origin_end_sets():
        w = set_weight(s, wmap, ring)
        if not ring.is_unit(w):
            raise NonInvertibleWeightError(f"set weight {w} of {render_set(s)} is not invertible in {ring.name}")
    # in reflexive mode an exempted crossing f(A) = g(A) maps its edge to one vertex
    return chain_homotopy_certificate(
        *natural_path_morphisms(f, g, maxlen), max_degree, allow_degenerate=(mode == "reflexive")
    )


def natural_path_morphisms(f: HyperMorphism, g: HyperMorphism, maxlen: int) -> tuple:
    """f and g on the natural path complexes (paths of length <= maxlen in the source,
    <= maxlen + 1 in the target): each sends set vertex S to set vertex f(S)."""
    src_pc = paths_functor(natural_digraph(f.source), maxlen)
    tgt_pc = paths_functor(natural_digraph(f.target), maxlen + 1)
    sets = f.source.origin_end_sets()
    return tuple(
        PathMorphism(src_pc, tgt_pc, {_set_vertex(s): _set_vertex(m.image_set(s)) for s in sets})
        for m in (f, g)
    )
