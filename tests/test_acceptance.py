"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line to the real terminal (bypassing
pytest capture) so a full run yields one line per criterion.
"""
import random
import time
from fractions import Fraction

import pytest

from wph import io as wio
from wph.algebra import QQ, ZZ
from wph.chain import build_omega, homology
from wph.cli import main
from wph.dhyper import (
    connective_functor,
    bold_functor,
    density_two_of,
    hyper_box_product,
    natural_digraph,
)
from wph.digraph import (
    LineDigraph,
    box_product,
    paths_functor,
)
from wph.homotopy import chain_homotopy_certificate, one_step_homotopy_pathcx, verify_prism_identity
from wph.oracle import homology_dimensions
from wph.pathcx import inclusion_bottom, inclusion_top

from helpers import (
    FIXTURES,
    cli_homology_maps_equal,
    fixture_paths,
    homology_maps_equal,
    random_complex,
    random_unit_weight_complex,
)


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
        assert ok, detail

    return _announce


def groups_of(pc, max_degree):
    return [(g.free_rank, g.torsion) for g in homology(pc, max_degree).groups]


def test_criterion_1_diamond_reproduction(announce):
    start = time.monotonic()
    pc = wio.parse((FIXTURES / "pc_diamond_weighted.json").read_bytes()).body
    weighted = groups_of(pc, 4)
    unweighted = groups_of(pc.reweighted({v: 1 for v in pc.vertices}, ZZ), 4)
    elapsed = time.monotonic() - start
    ok = (
        weighted == [(2, []), (2, []), (0, []), (0, [])]
        and unweighted == [(1, []), (1, []), (0, []), (0, [])]
        and elapsed < 1.0
    )
    announce(
        1,
        ok,
        f"diamond homology Z^2, Z^2 weighted and Z, Z unweighted in {elapsed:.3f}s",
    )


def test_criterion_2_torsion_reproduction(announce):
    pc = wio.parse((FIXTURES / "pc_edge_torsion.json").read_bytes()).body
    weighted = groups_of(pc, 3)
    unweighted = groups_of(pc.reweighted({v: 1 for v in pc.vertices}, ZZ), 3)
    ok = weighted == [(1, [2]), (0, []), (0, [])] and unweighted[0] == (1, [])
    announce(2, ok, "single edge with weights 2, 4 gives Z + Z/2 in degree 0")


def test_criterion_3_boundary_squares_to_zero(announce):
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    ok = True
    for _ in range(200):
        pc = random_complex(rng, ring=ZZ, max_vertices=8, maxlen=4)
        om = build_omega(pc, 4)
        for n in range(1, 4):
            if not om.boundary(n).matmul(om.boundary(n + 1)).is_zero():
                ok = False
        checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    announce(3, ok, f"boundary composition zero on {checked} random complexes in {elapsed:.1f}s")


def test_criterion_4_prism_identity(announce):
    rng = random.Random(4096)
    complexes = paths_total = 0
    ok = True
    for _ in range(50):
        pc = random_unit_weight_complex(rng, max_vertices=6, maxlen=4)
        codes = [c for bucket in pc.regular_path_codes(4) for c in bucket]
        ok = ok and all(rep.ok for rep in verify_prism_identity(pc, codes))
        paths_total += len(codes)
        complexes += 1
    announce(4, ok, f"prism identity exact on {paths_total} paths over {complexes} complexes")


def test_criterion_5_chain_homotopy_instances(announce):
    rng = random.Random(17)
    pairs = 0
    ok = True
    while pairs < 20:
        pc = random_unit_weight_complex(rng, max_vertices=5, maxlen=3)
        f, g = inclusion_bottom(pc), inclusion_top(pc)
        if not one_step_homotopy_pathcx(f, g).ok:
            continue  # the cylinder inclusions are always homotopic; defensive
        cert = chain_homotopy_certificate(f, g, 3)
        if not (cert.ok and cert.identity_holds and cert.homology_maps_equal and homology_maps_equal(f, g, 3)):
            ok = False
        pairs += 1
    announce(5, ok, f"dL + Ld = g* - f* and equal homology maps (lattice cross-check) on {pairs} verified pairs")


def test_criterion_6_cylinder_equals_box_product(announce):
    ok = True
    dg_count = dh_count = 0
    for path in fixture_paths("dg_"):
        g = wio.parse(path.read_bytes()).body
        if paths_functor(g, 5).cylinder().truncate(5) != paths_functor(box_product(g, LineDigraph.forward()), 5):
            ok = False
        dg_count += 1
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        left = natural_digraph(hyper_box_product(g, LineDigraph.forward()))
        right = box_product(natural_digraph(g), LineDigraph.forward())
        if not (left.vertices == right.vertices and left.edges == right.edges
                and left.weight_map() == right.weight_map()):
            ok = False
        cyl = paths_functor(natural_digraph(g), 4).cylinder().truncate(4)
        boxed = paths_functor(natural_digraph(hyper_box_product(g, LineDigraph.forward())), 4)
        if cyl != boxed:
            ok = False
        dh_count += 1
    ok = ok and dg_count >= 10 and dh_count >= 10
    announce(6, ok, f"cylinder/box equality on {dg_count} digraphs and {dh_count} hypergraphs")


def test_criterion_7_vertex_pipeline_cylinder_relations(announce):
    # The connective equality requires every origin/end set to be a singleton:
    # a crossing arrow A x 0 -> A x 1 with |A| > 1 admits connective steps
    # a -> b' that no cylinder path contains.  Containment holds universally.
    L = 3
    ok = True
    singleton_eq = inclusions = 0
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        box = hyper_box_product(g, LineDigraph.forward())
        singletons = all(len(s) == 1 for s in g.origin_end_sets())
        for functor in (connective_functor, bold_functor, density_two_of):
            cyl = functor(g, L + 1).cylinder().truncate(L + 1)
            other = functor(box, L + 1)
            if not (cyl.paths <= other.paths and cyl.vertices == other.vertices):
                ok = False
            inclusions += 1
        if singletons:
            cyl = connective_functor(g, L + 1).cylinder().truncate(L + 1)
            if cyl != connective_functor(box, L + 1):
                ok = False
            singleton_eq += 1
    ok = ok and singleton_eq >= 5
    announce(
        7,
        ok,
        f"{inclusions} cylinder-into-box inclusions; connective equality on "
        f"{singleton_eq} singleton-set fixtures",
    )


def test_criterion_8_oracle_equivalence(announce):
    ok = True
    instances = 0

    def check(pc):
        nonlocal ok, instances
        dims = homology_dimensions(pc, 3)
        ranks = [g.free_rank for g in homology(pc, 3).groups]
        if dims != ranks:
            ok = False
        instances += 1

    for path in sorted(FIXTURES.glob("pc_*.json")):
        pc = wio.parse(path.read_bytes()).body
        check(pc.reweighted({v: Fraction(w) for v, w in pc.weights}, QQ))
    for path in fixture_paths("dg_"):
        g = wio.parse(path.read_bytes()).body
        pc = paths_functor(g, 3)
        check(pc.reweighted({v: Fraction(w) for v, w in pc.weights}, QQ))
    for path in fixture_paths("dh_"):
        g = wio.parse(path.read_bytes()).body
        pc = paths_functor(natural_digraph(g), 3)
        check(pc.reweighted({v: Fraction(w) for v, w in pc.weights}, QQ))
    rng = random.Random(88)
    for _ in range(100):
        check(random_complex(rng, ring=QQ, max_vertices=6, maxlen=3))
    announce(8, ok, f"SNF pipeline matches the rational elimination oracle on {instances} instances")


def test_criterion_9_cli_determinism(announce, capsys, monkeypatch):
    monkeypatch.setenv("WPH_COLOR", "never")
    commands = []
    for path in sorted(FIXTURES.glob("*.json")):
        commands.append(["validate", str(path)])
    for name in ("pc_diamond_weighted", "pc_edge_torsion", "pc_diamond_q"):
        commands.append(["homology", str(FIXTURES / f"{name}.json")])
    for pipeline in ("natural", "connective", "bold", "density2"):
        commands.append(
            ["homology", str(FIXTURES / "dh_chain.json"), "--pipeline", pipeline, "--max-dim", "2"]
        )
    for functor in ("natural", "underlying", "box:I1f"):
        commands.append(["functor", str(FIXTURES / "dh_single.json"), "--functor", functor])
    commands.append(["functor", str(FIXTURES / "pc_edge_torsion.json"), "--functor", "cylinder"])
    commands.append(["functor", str(FIXTURES / "dg_diamond.json"), "--functor", "box:I1f"])
    commands.append(["prism-check", str(FIXTURES / "pc_diamond_q.json"), "--degree", "1", "--seed", "3"])
    certify = [
        "homotopy-check",
        str(FIXTURES / "pc_point_q.json"),
        str(FIXTURES / "pc_edge_q.json"),
        "--f", str(FIXTURES / "mor_a_to_x.json"),
        "--g", str(FIXTURES / "mor_a_to_y.json"),
        "--certify-chain-homotopy",
    ]
    commands.append(certify)

    def run(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ok = cli_homology_maps_equal(certify)
    for argv in commands:
        first = run(argv)
        second = run(argv)
        if first != second:
            ok = False
    announce(9, ok, f"{len(commands)} CLI commands byte-identical across repeated runs")
