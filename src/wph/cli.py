"""Command-line front end.

Subcommands: validate, homology, functor, homotopy-check, prism-check.
Standard output carries only documents and tables; diagnostics go to
standard error.  Exit codes: 0 success, 2 validation/schema failure,
3 unsupported ring or non-invertible weight, 4 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from typing import Optional

from . import io as wio
from .algebra import QQ, ZZ, ModularRing, Zmod
from .chain import HomologyResult, homology
from .dhyper import (
    HyperMorphism,
    edge_weighted_homology,
    hyper_box_product,
    natural_digraph,
    underlying_hypergraph,
    vertex_weighted_complex,
    vertex_weighted_homologies,
)
from .digraph import LineDigraph, box_product
from .errors import (
    InvariantError,
    MissingWeightError,
    NonInvertibleWeightError,
    SchemaError,
    UnsupportedRingError,
    WphError,
)
from .homotopy import (
    certify_one_step,
    chain_step_pairs,
    edge_weighted_certificate,
    one_step_homotopy_dhyper,
    one_step_homotopy_pathcx,
    verify_prism_identity,
)
from .pathcx import PathMorphism

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RING = 3
EXIT_VERIFY = 4

_PIPELINE_CODES = {"connective": "c", "bold": "b", "density2": "2"}


def _use_color() -> bool:
    mode = os.environ.get("WPH_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _diag(message: str) -> None:
    if _use_color():
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def _parse_coeff(text: str):
    if text == "z":
        return ZZ
    if text == "q":
        return QQ
    if text.startswith("mod:"):
        try:
            m = int(text[4:])
        except ValueError:
            raise SchemaError(f"bad modulus in --coeff {text!r}") from None
        try:
            return Zmod(m)
        except ValueError as exc:
            raise SchemaError(f"--coeff {exc}, got {text!r}") from None
    raise SchemaError(f"--coeff must be z, q or mod:p, got {text!r}")


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise SchemaError(f"{flag} must be >= {low}, got {value}")


def _load(path: str) -> wio.Document:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    return wio.parse(data)


def _expect(doc: wio.Document, path: str, *kinds: str):
    if doc.kind not in kinds:
        raise SchemaError(f"{path}: expected {' or '.join(kinds)}, got {doc.kind}")
    return doc.body


def _convert_weights(pairs, ring) -> dict:
    out = {}
    for v, w in pairs:
        try:
            out[v] = ring.coerce(w)
        except (ValueError, TypeError):
            raise SchemaError(
                f"weight {w} of {v.render()} cannot be interpreted in {ring.name}"
            ) from None
    return out


def _reweight(obj, ring, unweighted: bool, noun: str):
    """obj, a complex or hypergraph, with its weights taken into ring (all 1 when unweighted)."""
    if unweighted:
        return obj.reweighted({v: ring.one for v in obj.vertices}, ring)
    if not obj.is_weighted:
        raise MissingWeightError(f"input {noun} has no weights (use --unweighted)")
    return obj.reweighted(_convert_weights(obj.weights, ring), ring)


def _render_group(ring, group) -> str:
    parts = []
    if group.free_rank:
        base = f"({ring.name})" if isinstance(ring, ModularRing) else ring.name  # (Z/p)^r, not Z/(p^r)
        parts.append(ring.name if group.free_rank == 1 else f"{base}^{group.free_rank}")
    for t in group.torsion:
        parts.append(f"Z/{t}")
    return " + ".join(parts) if parts else "0"


def _print_homology_table(result: HomologyResult, header: str) -> None:
    print(header)
    for n, group in enumerate(result.groups):
        print(f"H_{n} = {_render_group(result.ring, group)}  "
              f"(free_rank={group.free_rank}, torsion={list(group.torsion)})")
    if result.groups and (result.groups[-1].free_rank or result.groups[-1].torsion):
        _diag(
            f"warning: homology at the top reported degree {len(result.groups) - 1} "
            "is nonzero; consider raising --max-dim or --maxlen"
        )


def cmd_validate(args) -> int:
    doc = _load(args.file)
    ring = doc.ring.name if doc.ring is not None else "none"
    print(f"OK kind={doc.kind} ring={ring}")
    return EXIT_OK


def cmd_homology(args) -> int:
    _require_at_least("--max-dim", args.max_dim, 1)
    _require_at_least("--maxlen", args.maxlen, 0)
    ring = _parse_coeff(args.coeff)
    doc = _load(args.file)
    header = (
        f"# homology input={os.path.basename(args.file)} coeff={args.coeff} "
        f"max-dim={args.max_dim} pipeline={args.pipeline} maxlen={args.maxlen} "
        f"unweighted={'yes' if args.unweighted else 'no'}"
    )
    if args.pipeline == "direct":
        pc = _expect(doc, args.file, "path_complex")
        result = homology(_reweight(pc, ring, args.unweighted, "complex"), args.max_dim)
    else:
        g = _expect(doc, args.file, "directed_hypergraph")
        g = _reweight(g, ring, args.unweighted, "hypergraph")
        if args.pipeline == "natural":
            result = edge_weighted_homology(g, args.max_dim, maxlen=args.maxlen)
        else:
            result = vertex_weighted_homologies(
                g, _PIPELINE_CODES[args.pipeline], args.max_dim, maxlen=args.maxlen
            )
    _print_homology_table(result, header)
    return EXIT_OK


def _apply_functor(doc: wio.Document, name: str, maxlen: int):
    body = doc.body
    if name == "cylinder":
        if doc.kind != "path_complex":
            raise SchemaError("functor cylinder needs a path_complex input")
        return body.cylinder()
    if name in ("box:I1f", "box:I1b"):
        line = LineDigraph.forward() if name == "box:I1f" else LineDigraph.backward()
        if doc.kind == "digraph":
            return box_product(body, line)
        if doc.kind == "directed_hypergraph":
            return hyper_box_product(body, line)
        raise SchemaError(f"functor {name} needs a digraph or directed_hypergraph input")
    if doc.kind != "directed_hypergraph":
        raise SchemaError(f"functor {name} needs a directed_hypergraph input")
    if name == "natural":
        return natural_digraph(body)
    if name == "underlying":
        return underlying_hypergraph(body)
    return vertex_weighted_complex(body, _PIPELINE_CODES[name], maxlen)


def cmd_functor(args) -> int:
    _require_at_least("--maxlen", args.maxlen, 0)
    doc = _load(args.file)
    out = _apply_functor(doc, args.functor, args.maxlen)
    description = f"functor={args.functor} maxlen={args.maxlen}"
    if args.functor in ("natural", "underlying", "cylinder", "box:I1f", "box:I1b"):
        description = f"functor={args.functor}"
    blob = wio.emit(out, description=description)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return EXIT_OK


def _morphism(kind, spec: wio.MorphismSpec, source, target, name: str):
    """spec as a `kind` (PathMorphism or HyperMorphism) from source to target, once its
    vertex map is defined on exactly the source's vertices and lands in the target's."""
    missing = sorted(v.render() for v in source.vertices if v not in spec.vertex_map)
    if missing:
        raise SchemaError(f"morphism {name} is undefined on source vertices {missing}")
    extra = sorted(v.render() for v in spec.vertex_map if v not in source.vertices)
    if extra:
        raise SchemaError(f"morphism {name} maps unknown vertices {extra}")
    bad = sorted(
        w.render() for w in spec.vertex_map.values() if w not in target.vertices
    )
    if bad:
        raise SchemaError(f"morphism {name} hits vertices outside the target: {bad}")
    return kind(source, target, dict(spec.vertex_map))


def _report(ok: bool, what: str, problems) -> int:
    print(f"{what}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        for p in problems:
            _diag(f"  {p}")
        return EXIT_VERIFY
    return EXIT_OK


def _report_certificate(cert, max_dim: int) -> int:
    code = _report(cert.ok, "chain-homotopy certificate", cert.problems)
    if cert.ok:
        print(f"identity dL + Ld = g* - f* holds in degrees <= {max_dim}")
        print(f"induced homology maps equal: {'yes' if cert.homology_maps_equal else 'no'}")
    return code


def cmd_homotopy_check(args) -> int:
    _require_at_least("--max-dim", args.max_dim, 0)
    _require_at_least("--maxlen", args.maxlen, 0)
    if (args.category, args.strictness) in (("pathcx", "reflexive"), ("dhyper", "allow-degenerate")):
        raise SchemaError(f"--strictness {args.strictness} does not apply to --category {args.category}")
    if args.chain is not None and args.mode != "chain":
        raise SchemaError(f"--chain does not apply to --mode {args.mode}")
    src_doc = _load(args.source)
    tgt_doc = _load(args.target)
    f_spec = _expect(_load(args.f), args.f, "morphism")
    g_spec = _expect(_load(args.g), args.g, "morphism")
    allow_deg = args.strictness == "allow-degenerate"

    if args.category == "pathcx":
        source = _expect(src_doc, args.source, "path_complex")
        target = _expect(tgt_doc, args.target, "path_complex")
        f = _morphism(PathMorphism, f_spec, source, target, "--f")
        g = _morphism(PathMorphism, g_spec, source, target, "--g")
        chained = args.mode == "chain"
        if chained:
            if not args.chain:
                raise SchemaError("--mode chain needs --chain with a homotopy_chain document")
            chain_spec = _expect(_load(args.chain), args.chain, "homotopy_chain")
            steps = [
                (_morphism(PathMorphism, m, source, target, f"chain step {i}"), direction)
                for i, (m, direction) in enumerate(chain_spec.steps)
            ]
            if steps[0][0].vertex_map != f.vertex_map:
                raise SchemaError("first chain step differs from --f")
            if steps[-1][0].vertex_map != g.vertex_map:
                raise SchemaError("last chain step differs from --g")
        pairs = chain_step_pairs(steps) if chained else [(f, g)]
        problems = []
        for k, (a, b) in enumerate(pairs):
            rep = one_step_homotopy_pathcx(a, b, allow_degenerate=allow_deg)
            if not rep.ok:
                problems += [f"step {k} -> {k + 1} fails: " + "; ".join(rep.problems)] if chained else rep.problems
        code = _report(not problems, "homotopy chain" if chained else "one-step homotopy", problems)
        if code == EXIT_OK and args.certify:
            # one certificate per step, whose one-step check passed above, so each holds or
            # raises; their L_k, signed by direction, sum to L with dL + Ld = g_* - f_*
            for k, (a, b) in enumerate(pairs):
                try:
                    cert = certify_one_step(a, b, args.max_dim)
                except WphError as exc:
                    raise type(exc)((f"step {k} -> {k + 1}: " if chained else "") + str(exc)) from None
            code = _report_certificate(cert, args.max_dim)
        return code

    source = _expect(src_doc, args.source, "directed_hypergraph")
    target = _expect(tgt_doc, args.target, "directed_hypergraph")
    if args.mode == "chain":
        raise SchemaError("--mode chain is only available for --category pathcx")
    f = _morphism(HyperMorphism, f_spec, source, target, "--f")
    g = _morphism(HyperMorphism, g_spec, source, target, "--g")
    rep = one_step_homotopy_dhyper(f, g, mode=args.strictness)
    code = _report(rep.ok, "one-step homotopy", rep.problems)
    if code == EXIT_OK and args.certify:
        cert = edge_weighted_certificate(f, g, args.max_dim, maxlen=args.maxlen, mode=args.strictness)
        code = _report_certificate(cert, args.max_dim)
    return code


def cmd_prism_check(args) -> int:
    _require_at_least("--samples", args.samples, 1)
    doc = _load(args.file)
    pc = _expect(doc, args.file, "path_complex")
    if not pc.is_weighted:
        raise NonInvertibleWeightError("prism-check needs a weighted complex")
    regular = pc.store.regular_codes
    codes = regular[args.degree] if 0 <= args.degree < len(regular) else ()
    if not codes:
        raise SchemaError(f"--degree {args.degree}: the complex has no regular paths of that length")
    rng = random.Random(args.seed)
    sample = codes if len(codes) <= args.samples else sorted(rng.sample(codes, args.samples))
    failures = [(c, rep) for c, rep in zip(sample, verify_prism_identity(pc, sample)) if not rep.ok]
    print(
        f"# prism-check input={os.path.basename(args.file)} degree={args.degree} "
        f"samples={args.samples} seed={args.seed}"
    )
    if failures:
        for code, rep in failures:
            difference = " + ".join(f"{c}*{q.render()}" for q, c in rep.difference)
            _diag(f"FAIL on {pc.store.path(code).render()}: difference {difference}")
        print(f"FAIL: {len(failures)} of {len(sample)} checked paths violate the prism identity")
        return EXIT_VERIFY
    print(f"PASS: prism identity holds on {len(sample)} regular paths of length {args.degree}")
    return EXIT_OK


@functools.cache  # the parser holds no data; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wph", description="Weighted path homology of path complexes, digraphs and directed hypergraphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a document")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("homology", help="compute weighted path homology")
    p.add_argument("file")
    p.add_argument("--coeff", default="z", help="coefficients: z, q or mod:p (default z)")
    p.add_argument("--max-dim", type=int, default=3, help="report degrees 0..N-1 (default 3)")
    p.add_argument(
        "--pipeline",
        choices=("direct", "natural", "connective", "bold", "density2"),
        default="direct",
    )
    p.add_argument("--unweighted", action="store_true", help="override all weights to 1")
    p.add_argument("--maxlen", type=int, default=4, help="path length truncation (default 4)")
    p.set_defaults(run=cmd_homology)

    p = sub.add_parser("functor", help="apply a functor and emit the resulting document")
    p.add_argument("file")
    p.add_argument(
        "--functor",
        required=True,
        choices=("natural", "connective", "bold", "underlying", "density2", "cylinder", "box:I1f", "box:I1b"),
    )
    p.add_argument("--maxlen", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_functor)

    p = sub.add_parser("homotopy-check", help="verify a one-step or chained homotopy")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--f", required=True, help="morphism document for f")
    p.add_argument("--g", required=True, help="morphism document for g")
    p.add_argument("--mode", choices=("one-step", "chain"), default="one-step")
    p.add_argument("--chain", default=None, help="homotopy_chain document (for --mode chain)")
    p.add_argument("--category", choices=("pathcx", "dhyper"), default="pathcx")
    p.add_argument(
        "--strictness",
        choices=("strict", "reflexive", "allow-degenerate"),
        default="strict",
    )
    p.add_argument(
        "--certify-chain-homotopy",
        dest="certify",
        action="store_true",
        help="also build the chain homotopy and check dL + Ld = g* - f* exactly, "
        "which makes the induced homology maps equal",
    )
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=4)
    p.set_defaults(run=cmd_homotopy_check)

    p = sub.add_parser("prism-check", help="verify the prism boundary identity on sampled paths")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_prism_check)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (SchemaError, InvariantError, MissingWeightError) as exc:
        _diag(f"error: {exc}")
        return EXIT_VALIDATION
    except (UnsupportedRingError, NonInvertibleWeightError) as exc:
        _diag(f"error: {exc}")
        return EXIT_RING
    except WphError as exc:
        _diag(f"error: {exc}")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
