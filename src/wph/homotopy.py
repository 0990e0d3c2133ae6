"""Morphism verification, one-step homotopy, the prism operator and certificates."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import QQ, ZZ
from .chain import OmegaComplex, _face_terms, build_omega, code_images, induced_chain_map, prism, restrict_to_omega
from .dhyper import HyperMorphism, _set_vertex, classify_morphism, natural_digraph, render_set, set_weight
from .digraph import paths_functor
from .errors import (
    HomotopyIdentityFailedError,
    ImageNotInOmegaError,
    MissingWeightError,
    NonInvertibleWeightError,
    NotAMorphismError,
)
from .pathcx import Path, PathComplex, PathMorphism, cylinder_tables, level_copies


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


def _require_invertible_weights(pc: PathComplex) -> dict:
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
    return gammas


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
    gammas = _require_invertible_weights(pc)
    store = pc.store
    cylinder = sorted(level_copies(store.vertices, (0, 1)))  # refuses a complex that has no cylinder
    for k in sorted(set().union(*codes)):
        if store.vertices[k] not in gammas:
            raise MissingWeightError(f"vertex {store.vertices[k].render()} has no weight")
    ring = pc.ring
    add, mul, neg, one = ring.add, ring.mul, ring.neg, ring.one
    signed = {u: (w, neg(w)) for u, w in pc.level_weights((0, 1)).items()}
    by_store, by_cylinder = [signed.get(v) for v in store.vertices], [signed.get(u) for u in cylinder]
    coefficients = [(w, neg(w)) if w is not None else None for w in map(gammas.get, store.vertices)]
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


def chain_homotopy(f: PathMorphism, g: PathMorphism, gammas: dict, source: OmegaComplex, target: OmegaComplex) -> dict:
    """L_n : Omega_n(source) -> Omega_(n+1)(target) for n < source.max_degree: F_* after the prism.

    F is the one-step homotopy of f and g (F(v) = f(v), F(v') = g(v)) and gammas
    the inverse source weights.  `chain.code_images` maps the prism's cylinder codes
    (`chain.prism`, the prism check's lift walker) by F: lift k, v_0..v_k v_k'..v_n',
    goes to f(v_0)..f(v_k) g(v_k)..g(v_n) with coefficient (-1)^k gammas[v_k].
    `restrict_to_omega` re-expresses each generator's image in Omega_(n+1)(target)
    (ImageNotInOmegaError when it leaves it), with no Omega of the cylinder.
    """
    neg = target.ring.neg
    signs = [(w, neg(w)) for w in map(gammas.__getitem__, source.store.vertices)]
    bottom, top = cylinder_tables(len(signs))
    lifts = code_images(source, target, f.vertex_map, g.vertex_map, lambda c: prism(c, bottom, top, signs))
    return {
        n: restrict_to_omega(lifts(n, n + 1), source, n, target, n + 1, ImageNotInOmegaError)
        for n in range(source.max_degree)
    }


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

    Builds L_n : Omega_n(source) -> Omega_(n+1)(target) and checks the identity
    dL + Ld = g_* - f_* exactly (HomotopyIdentityFailedError otherwise).  Both
    sides must be weighted over one ring (MissingWeightError otherwise).

    L_n is F_* after the prism on path codes, F the one-step homotopy, with no
    Omega of the cylinder (`chain_homotopy`); f_* and g_* (`induced_chain_map`)
    take their images on the same codes.  Once the identity holds there, L is a
    chain homotopy on Omega, whatever complex the prism passes through.

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

    Degree cap.  Omega is built only up to D = min(max_degree + 1, 1 + the
    longest path of the source and the target), and the loops run to D - 1.
    When D <= max_degree, every degree n from D to max_degree is past the
    source's longest path, so Omega_n(source) = 0: f_*, g_*, L_n and the identity
    have zero columns there, and H_n(source) = 0.  L_(D-1) lands in
    Omega_D(target), which is built.  Every path of length at most
    max_degree + 1 has length at most D, so each Omega reads the same regular
    paths, and raises the same errors, as when built up to max_degree + 1.
    """
    gammas = _require_invertible_weights(f.source)
    ring = f.source.ring
    if not f.target.is_weighted or f.target.ring != ring:
        raise MissingWeightError("the certificate needs both sides weighted over one ring")
    if ring == QQ:  # the same outcome on the support complexes (see above)
        source, target = f.source.support(), f.target.support()
        f, g = (PathMorphism(source, target, m.vertex_map) for m in (f, g))
        gammas = dict.fromkeys(gammas, ZZ.one)

    top = min(max_degree + 1, max(len(f.source.store.buckets), len(f.target.store.buckets)))
    om_src, om_tgt = build_omega(f.source, top), build_omega(f.target, top)
    f_mats = induced_chain_map(f, om_src, om_tgt)
    g_mats = induced_chain_map(g, om_src, om_tgt)
    L = chain_homotopy(f, g, gammas, om_src, om_tgt)

    for n in range(top):
        total = om_tgt.boundary(n + 1) @ L[n]
        if n >= 1:
            total = total + L[n - 1] @ om_src.boundary(n)
        want = g_mats[n] - f_mats[n]
        for j in range(total.cols):
            if total.entries[j] != want.entries[j]:
                raise HomotopyIdentityFailedError(
                    f"chain-homotopy identity fails on Omega_{n} generator {j}"
                )

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
