import itertools
import json
import time
import tracemalloc
from collections import Counter
from pathlib import Path as FsPath

import pytest

from wph import cli, homotopy
from wph import io as wio
from wph.algebra import MODULUS_BOUND
from wph.chain import build_omega, homology, homology_of_omega
from wph.cli import main
from wph.pathcx import PathComplex, PathStore

from helpers import FIXTURES, cli_homology_maps_equal, doubled_lifts


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("WPH_COLOR", "never")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "pc_diamond_weighted.json"))
    assert code == 0
    assert out == "OK kind=path_complex ring=Z\n"


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", str(FIXTURES / "does_not_exist.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_homology_diamond_table(capsys):
    code, out, _ = run(capsys, "homology", str(FIXTURES / "pc_diamond_weighted.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# homology ")
    assert "coeff=z" in lines[0] and "max-dim=3" in lines[0] and "maxlen=4" in lines[0]
    assert lines[1] == "H_0 = Z^2  (free_rank=2, torsion=[])"
    assert lines[2] == "H_1 = Z^2  (free_rank=2, torsion=[])"


def test_homology_torsion_and_unweighted(capsys):
    code, out, _ = run(capsys, "homology", str(FIXTURES / "pc_edge_torsion.json"), "--max-dim", "2")
    assert code == 0
    assert "H_0 = Z + Z/2  (free_rank=1, torsion=[2])" in out
    code, out, _ = run(
        capsys, "homology", str(FIXTURES / "pc_edge_torsion.json"), "--max-dim", "2", "--unweighted"
    )
    assert code == 0
    assert "H_0 = Z  (free_rank=1, torsion=[])" in out


def test_free_module_over_a_prime_field_renders_as_a_power_of_the_field(capsys):
    code, out, _ = run(
        capsys, "homology", str(FIXTURES / "dh_weighted24.json"), "--pipeline", "natural", "--coeff", "mod:2"
    )
    assert code == 0
    assert out.splitlines()[1:3] == [
        "H_0 = (Z/2)^2  (free_rank=2, torsion=[])",
        "H_1 = Z/2  (free_rank=1, torsion=[])",
    ]


def test_homology_composite_modulus_exits_3(capsys):
    code, _, err = run(capsys, "homology", str(FIXTURES / "pc_diamond_weighted.json"), "--coeff", "mod:6")
    assert code == 3
    assert "Z/6" in err


def half_weighted_edge(tmp_path):
    path = tmp_path / "half.json"
    body = {"vertices": ["a", "b"], "paths": [["a"], ["b"], ["a", "b"]], "weights": {"a": "1/2", "b": "1/2"}}
    path.write_text(json.dumps({"format_version": "1", "kind": "path_complex", "ring": "Q", "body": body}))
    return str(path)


def test_rational_weights_map_into_z_mod_m_through_the_inverse_denominator(tmp_path, capsys):
    # 1/2 is 2 mod 3, a unit: the edge joins its two points, so one component and no cycle
    code, out, err = run(capsys, "homology", half_weighted_edge(tmp_path), "--coeff", "mod:3", "--max-dim", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["H_0 = Z/3  (free_rank=1, torsion=[])", "H_1 = 0  (free_rank=0, torsion=[])"]


def test_a_rational_weight_whose_denominator_is_no_unit_mod_m_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "homology", half_weighted_edge(tmp_path), "--coeff", "mod:2")
    assert (code, out) == (2, "")
    assert err == "error: weight 1/2 of a cannot be interpreted in Z/2\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe{}", "error: document is not UTF-8: invalid start byte at byte 0\n"),
        (b"[" * 200000 + b"]" * 200000, "error: document nests too deeply\n"),
        (b"[" + b"7" * 5000 + b"]", "error: unreadable JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["utf16-bom", "deep-nesting", "huge-integer"],
)
def test_an_unreadable_document_exits_2_with_one_line(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("coeff", ["mod:0", "mod:1"])
def test_homology_modulus_below_two_exits_2(capsys, coeff):
    code, out, err = run(capsys, "homology", str(FIXTURES / "pc_diamond_weighted.json"), "--coeff", coeff)
    assert code == 2
    assert out == ""
    assert coeff in err


def test_homology_pipelines_on_hypergraph(capsys):
    for pipeline in ("natural", "connective", "bold", "density2"):
        code, out, _ = run(
            capsys,
            "homology",
            str(FIXTURES / "dh_chain.json"),
            "--pipeline",
            pipeline,
            "--max-dim",
            "2",
        )
        assert code == 0, pipeline
        assert "H_0 = Z" in out


def test_homology_pipeline_kind_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "homology", str(FIXTURES / "pc_diamond_weighted.json"), "--pipeline", "natural")
    assert code == 2
    assert "directed_hypergraph" in err


def test_functor_output_parses_and_is_deterministic(capsys):
    args = ("functor", str(FIXTURES / "dh_single.json"), "--functor", "natural")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    from wph import io as wio

    doc = wio.parse(out1)
    assert doc.kind == "digraph"


def test_functor_cylinder_writes_file(tmp_path, capsys):
    out_file = tmp_path / "cyl.json"
    code, out, _ = run(
        capsys, "functor", str(FIXTURES / "pc_edge_torsion.json"), "--functor", "cylinder",
        "-o", str(out_file),
    )
    assert code == 0 and out == ""
    from wph import io as wio

    doc = wio.parse(out_file.read_bytes())
    assert doc.kind == "path_complex"
    assert any(v.endswith("'") for v in [x.render() for x in doc.body.vertices])


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-directory", "a-directory"])
def test_functor_output_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "functor", str(FIXTURES / "pc_edge_torsion.json"), "--functor", "cylinder", "-o", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_a_large_prime_modulus_validates_promptly(tmp_path, capsys):
    doc = json.loads((FIXTURES / "pc_edge_torsion.json").read_text())
    doc["ring"] = {"Zmod": 2**53 - 111}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (0, f"OK kind=path_complex ring=Z/{2**53 - 111}\n", "")
    assert time.perf_counter() - start < 2  # trial division took seconds


def test_homology_modulus_at_the_primality_bound_exits_2(capsys):
    coeff = f"mod:{MODULUS_BOUND}"
    code, out, err = run(capsys, "homology", str(FIXTURES / "pc_diamond_weighted.json"), "--coeff", coeff)
    assert (code, out) == (2, "")
    assert err == f"error: --coeff modulus must be below {MODULUS_BOUND}, got {coeff!r}\n"


def test_homotopy_check_one_step_and_certificate(capsys):
    code, out, _ = run(capsys, *_CERT_ARGS)
    assert code == 0
    assert "one-step homotopy: PASS" in out
    assert "induced homology maps equal: yes" in out
    assert cli_homology_maps_equal(_CERT_ARGS)


def test_homotopy_check_fails_in_reverse(capsys):
    code, out, err = run(
        capsys,
        "homotopy-check",
        str(FIXTURES / "pc_point_q.json"),
        str(FIXTURES / "pc_edge_q.json"),
        "--f", str(FIXTURES / "mor_a_to_y.json"),
        "--g", str(FIXTURES / "mor_a_to_x.json"),
    )
    assert code == 4
    assert "FAIL" in out


def test_homotopy_check_chain_mode(capsys):
    code, out, _ = run(
        capsys,
        "homotopy-check",
        str(FIXTURES / "pc_point_q.json"),
        str(FIXTURES / "pc_edge_q.json"),
        "--f", str(FIXTURES / "mor_a_to_x.json"),
        "--g", str(FIXTURES / "mor_a_to_y.json"),
        "--mode", "chain",
        "--chain", str(FIXTURES / "chain_a_xy.json"),
    )
    assert code == 0
    assert "homotopy chain: PASS" in out


def point_into_a_path_args(tmp_path, steps: list, g: str) -> list:
    """homotopy-check, with every certificate, of the point a into x -> y -> z over Q
    along the chain of `steps`, (image of a, direction) pairs; f sends a to x."""
    docs = {
        "xyz.json": {"kind": "path_complex", "ring": "Q", "body": {
            "vertices": ["x", "y", "z"],
            "paths": [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"], ["x", "y", "z"]],
            "weights": {"x": "1/1", "y": "1/1", "z": "1/1"},
        }},
        "g.json": {"kind": "morphism", "body": {"vertex_map": {"a": g}}},
        "chain.json": {"kind": "homotopy_chain", "body": {
            "steps": [{"vertex_map": {"a": v}, "direction": d} for v, d in steps],
        }},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps({"format_version": "1", **doc}))
    return [
        "homotopy-check", str(FIXTURES / "pc_point_q.json"), str(tmp_path / "xyz.json"),
        "--f", str(FIXTURES / "mor_a_to_x.json"), "--g", str(tmp_path / "g.json"),
        "--mode", "chain", "--chain", str(tmp_path / "chain.json"), "--certify-chain-homotopy",
    ]


@pytest.mark.parametrize(
    "steps, g",
    [
        ([("x", "forward"), ("y", "forward"), ("z", "forward")], "z"),
        ([("x", "forward"), ("y", "forward"), ("x", "backward"), ("y", "forward")], "y"),
    ],
    ids=["forward", "back-and-forth"],
)
def test_a_homotopy_chain_is_certified_step_by_step(tmp_path, capsys, steps, g):
    # f and g are not one step apart, so each step has its own certificate
    code, out, err = run(capsys, *point_into_a_path_args(tmp_path, steps, g))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "homotopy chain: PASS",
        "chain-homotopy certificate: PASS",
        "identity dL + Ld = g* - f* holds in degrees <= 3",
        "induced homology maps equal: yes",
    ]


def test_a_chain_step_whose_certificate_fails_is_named(tmp_path, capsys):
    # twice every lift breaks the identity of every step; the first is named
    with doubled_lifts():
        code, out, err = run(capsys, *point_into_a_path_args(tmp_path, [("x", "forward"), ("y", "forward")], "y"))
    assert (code, out) == (4, "homotopy chain: PASS\n")
    assert err == "error: step 0 -> 1: chain-homotopy identity fails on Omega_0 generator 0\n"


def test_homotopy_check_dhyper(capsys):
    code, out, _ = run(capsys, *_DH_CERT_ARGS)
    assert code == 0
    assert "induced homology maps equal: yes" in out
    assert cli_homology_maps_equal(_DH_CERT_ARGS)


@pytest.mark.parametrize(
    "source, image, message",
    [("zzz", "a", "maps unknown vertices ['zzz']"), ("b", "zzz", "hits vertices outside the target: ['zzz']")],
    ids=["unknown-source-vertex", "image-outside-target"],
)
def test_homotopy_check_dhyper_refuses_a_vertex_map_off_the_complexes(tmp_path, capsys, source, image, message):
    doc = json.loads((FIXTURES / "mor_dh_f.json").read_text())
    doc["body"]["vertex_map"][source] = image
    path = tmp_path / "mor.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "homotopy-check",
        str(FIXTURES / "dh_mor_source.json"),
        str(FIXTURES / "dh_square_sets.json"),
        "--f", str(path),
        "--g", str(FIXTURES / "mor_dh_g.json"),
        "--category", "dhyper",
    )
    assert (code, out) == (2, "")
    assert f"morphism --f {message}" in err


def test_prism_check_pass_and_gate(capsys):
    code, out, _ = run(capsys, "prism-check", str(FIXTURES / "pc_diamond_q.json"), "--degree", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS")
    code, _, err = run(capsys, "prism-check", str(FIXTURES / "pc_edge_torsion.json"))
    assert code == 3


def test_prism_check_failure_exits_4(capsys):
    # twice every lift: the left side is 2(e_p' - e_p), so each difference is e_p' - e_p
    with doubled_lifts():
        code, out, err = run(capsys, "prism-check", _DIAMOND_Q, "--degree", "1")
    assert code == 4
    assert out.splitlines()[-1] == "FAIL: 4 of 4 checked paths violate the prism identity"
    assert err.splitlines() == [
        f"FAIL on ({u} {v}): difference -1*({u} {v}) + 1*({u}' {v}')" for u, v in ("ab", "ac", "bd", "cd")
    ]


def test_prism_check_refuses_a_huge_degree_without_allocating_for_it(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "prism-check", _DIAMOND_Q, "--degree", "1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: --degree 1000000: ")
    assert peak < 1 << 20


def test_prism_check_seeded_sampling_is_deterministic(capsys):
    args = ("prism-check", str(FIXTURES / "pc_diamond_q.json"), "--degree", "1",
            "--samples", "2", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_all_fixture_documents_validate(capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0, (path.name, err)


def test_prism_check_on_a_complex_without_cylinder_exits_2(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "kind": "path_complex",
        "ring": "Q",
        "body": {
            "vertices": ["a", "a'", "b"],
            "paths": [["a"], ["a'"], ["b"], ["a", "a'"], ["a'", "b"], ["a", "a'", "b"]],
            "weights": {"a": 1, "a'": 2, "b": 3},
        },
    }
    path = tmp_path / "primed_labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "prism-check", str(path), "--degree", "1")
    assert code == 2
    assert out == ""
    assert "collides with the primed copy" in err


def test_box_product_of_a_digraph_with_primed_labels_exits_2(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "kind": "digraph",
        "ring": "Z",
        "body": {
            "vertices": ["a", "a'", "b"],
            "edges": [["a", "a'"], ["a'", "b"]],
            "weights": {"a": 2, "a'": 1, "b": 3},
        },
    }
    path = tmp_path / "primed_labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "functor", str(path), "--functor", "box:I1f")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "collides with the primed copy" in err


def test_prism_check_builds_no_cylinder(monkeypatch, capsys):
    built = []
    original = PathComplex.cylinder

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(PathComplex, "cylinder", counting)
    code, out, _ = run(capsys, "prism-check", str(FIXTURES / "pc_diamond_q.json"), "--degree", "1")
    assert code == 0
    assert out.splitlines()[-1] == "PASS: prism identity holds on 4 regular paths of length 1"
    assert built == []


@pytest.mark.parametrize("command", ["validate", "homology"])
@pytest.mark.parametrize("entry", [5, "ab"], ids=["number", "string"])
def test_path_entry_that_is_not_a_label_list_exits_2(tmp_path, capsys, command, entry):
    doc = {
        "format_version": "1",
        "kind": "path_complex",
        "ring": "Z",
        "body": {"vertices": ["a", "b"], "paths": [["a"], ["b"], entry], "weights": {"a": 1, "b": 2}},
    }
    path = tmp_path / "bad_path_entry.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "each path must be a list" in err


def test_validate_homology_document_with_untyped_fields_exits_2(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "kind": "homology",
        "ring": "Z",
        "body": {"max_degree": 1, "groups": [{"degree": "x", "free_rank": -3, "torsion": "no"}]},
    }
    path = tmp_path / "untyped_homology.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "body",
    [
        {"max_degree": -1, "groups": [{"degree": 5, "free_rank": 1, "torsion": []}] * 2},
        {"max_degree": True, "groups": []},
        {"max_degree": 2, "groups": [{"degree": 1, "free_rank": 1, "torsion": []}]},
    ],
    ids=["negative-max-degree", "boolean-max-degree", "degrees-off-range"],
)
def test_validate_homology_document_with_bad_degrees_exits_2(tmp_path, capsys, body):
    doc = {"format_version": "1", "kind": "homology", "ring": "Z", "body": body}
    path = tmp_path / "bad_degrees.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_validate_accepts_an_emitted_homology_document(tmp_path, capsys):
    pc = wio.parse((FIXTURES / "pc_diamond_weighted.json").read_bytes()).body
    path = tmp_path / "homology.json"
    path.write_bytes(wio.emit(homology(pc, 2)))
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out) == (0, "OK kind=homology ring=Z\n")


def test_homology_past_the_longest_path_prints_what_the_whole_omega_route_printed(monkeypatch, capsys):
    argv = ("homology", str(FIXTURES / "pc_diamond_weighted.json"), "--max-dim", "40")
    code, out, err = run(capsys, *argv)
    monkeypatch.setattr(cli, "homology", lambda pc, n: homology_of_omega(build_omega(pc, n)))
    assert (code, out, err) == run(capsys, *argv)
    assert len(out.splitlines()) == 41


_CERT_ARGS = (
    "homotopy-check", str(FIXTURES / "pc_point_q.json"), str(FIXTURES / "pc_edge_q.json"),
    "--f", str(FIXTURES / "mor_a_to_x.json"), "--g", str(FIXTURES / "mor_a_to_y.json"),
    "--certify-chain-homotopy",
)
_DIAMOND_Z = str(FIXTURES / "pc_diamond_weighted.json")
_DIAMOND_Q = str(FIXTURES / "pc_diamond_q.json")


@pytest.mark.parametrize("chain", [(), ("--mode", "chain", "--chain", str(FIXTURES / "chain_a_xy.json"))],
                         ids=["one-step", "chain"])
def test_a_certified_homotopy_checks_each_step_once(monkeypatch, capsys, chain):
    # each step's certificate starts from the step's passing one-step check
    checked = []
    original = homotopy.verify_path_morphism

    def recording(f, allow_degenerate=False):
        checked.append(f)
        return original(f, allow_degenerate)

    monkeypatch.setattr(homotopy, "verify_path_morphism", recording)
    code, out, _ = run(capsys, *_CERT_ARGS, *chain)
    assert code == 0 and "chain-homotopy certificate: PASS" in out
    assert len(checked) == 1  # one step either way: chain_a_xy is a -> x, a -> y


_DH_CERT_ARGS = (
    "homotopy-check", str(FIXTURES / "dh_mor_source.json"), str(FIXTURES / "dh_square_sets.json"),
    "--f", str(FIXTURES / "mor_dh_f.json"), "--g", str(FIXTURES / "mor_dh_g.json"),
    "--category", "dhyper", "--certify-chain-homotopy",
)


@pytest.mark.parametrize("target_weighted", [True, False], ids=["weighted-target", "unweighted-target"])
def test_edge_weighted_certificate_on_an_unweighted_source_exits_3(tmp_path, capsys, target_weighted):
    # as the path-complex certificate on an unweighted source: no invertible weights
    argv = list(_DH_CERT_ARGS)
    for k in (1,) if target_weighted else (1, 2):
        doc = json.loads(FsPath(argv[k]).read_text())
        del doc["body"]["weights"]
        argv[k] = str(tmp_path / f"{k}.json")
        FsPath(argv[k]).write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "error: an unweighted hypergraph has no invertible set weights\n")
    assert out.startswith("one-step homotopy")


def _without_weights(tmp_path, name: str) -> str:
    doc = json.loads((FIXTURES / name).read_text())
    del doc["body"]["weights"]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_natural_functor_of_an_unweighted_hypergraph_is_the_unweighted_digraph(tmp_path, capsys):
    code, out, err = run(capsys, "functor", _without_weights(tmp_path, "dh_square_sets.json"), "--functor", "natural")
    assert (code, err) == (0, "")
    weighted = run(capsys, "functor", str(FIXTURES / "dh_square_sets.json"), "--functor", "natural")[1]
    body, weighted_body = json.loads(out)["body"], json.loads(weighted)["body"]
    assert "weights" not in body and "weights" in weighted_body
    assert body == {k: v for k, v in weighted_body.items() if k != "weights"}


def test_edge_weighted_certificate_on_an_unweighted_target_exits_2(tmp_path, capsys):
    argv = list(_DH_CERT_ARGS)
    argv[2] = _without_weights(tmp_path, "dh_square_sets.json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "one-step homotopy: PASS\n")
    assert err == "error: the certificate needs both sides weighted over one ring\n"


def test_the_hypergraph_certificate_checks_the_one_step_homotopy_once(monkeypatch, capsys):
    checked = []
    original = homotopy.one_step_homotopy_dhyper

    def recording(f, g, mode="strict"):
        checked.append((f, g))
        return original(f, g, mode=mode)

    for module in (cli, homotopy):
        monkeypatch.setattr(module, "one_step_homotopy_dhyper", recording)
    code, out, _ = run(capsys, *_DH_CERT_ARGS)
    assert code == 0 and "chain-homotopy certificate: PASS" in out
    assert len(checked) == 1


def test_chain_without_chain_mode_exits_2(capsys):
    argv = _CERT_ARGS[:-1] + ("--chain", "/nonexistent.json")
    assert run(capsys, *argv) == (2, "", "error: --chain does not apply to --mode one-step\n")


@pytest.mark.parametrize("argv", [_CERT_ARGS, _DH_CERT_ARGS], ids=["pathcx", "dhyper"])
def test_certificate_far_past_the_longest_path(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-dim", "20000")
    assert (code, err) == (0, "")
    assert "identity dL + Ld = g* - f* holds in degrees <= 20000\n" in out
    assert cli_homology_maps_equal(argv + ("--max-dim", "20000"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (_CERT_ARGS[:-1] + ("--strictness", "reflexive"), "--strictness reflexive does not apply to --category pathcx"),
        (
            _DH_CERT_ARGS[:-1] + ("--strictness", "allow-degenerate"),
            "--strictness allow-degenerate does not apply to --category dhyper",
        ),
    ],
    ids=["pathcx-reflexive", "dhyper-allow-degenerate"],
)
def test_a_strictness_the_category_has_not_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_certificate_over_two_rings_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "pc_edge_q.json").read_text())
    doc["ring"], doc["body"]["weights"] = "Z", {"x": 1, "y": 1}
    target = tmp_path / "edge_z.json"
    target.write_text(json.dumps(doc))
    argv = list(_CERT_ARGS)
    argv[2] = str(target)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "one-step homotopy: PASS\n"
    assert err == "error: the certificate needs both sides weighted over one ring\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", _DIAMOND_Z, "--max-dim", "0"),
        ("homology", _DIAMOND_Z, "--max-dim", "-1"),
        ("homology", _DIAMOND_Z, "--maxlen", "-1"),
        ("functor", str(FIXTURES / "dh_single.json"), "--functor", "connective", "--maxlen", "-1"),
        _CERT_ARGS + ("--max-dim", "-1"),
        ("prism-check", _DIAMOND_Q, "--samples", "0"),
        ("prism-check", _DIAMOND_Q, "--samples", "-3"),
        ("prism-check", _DIAMOND_Q, "--degree", "9"),
    ],
    ids=[
        "homology-max-dim-0", "homology-max-dim-neg", "homology-maxlen-neg", "functor-maxlen-neg",
        "certificate-max-dim-neg", "prism-samples-0", "prism-samples-neg", "prism-empty-degree",
    ],
)
def test_out_of_range_bounds_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "kind, body, functor",
    [
        ("path_complex", {"vertices": ["a", "b"], "paths": [["a"], ["b"], ["a", "b"]]}, "cylinder"),
        ("digraph", {"vertices": ["a", "b"], "edges": [["a", "b"]]}, "box:I1f"),
    ],
)
def test_weights_on_undeclared_vertices_exit_2(tmp_path, capsys, kind, body, functor):
    doc = {"format_version": "1", "kind": kind, "ring": "Z", "body": dict(body, weights={"a": 1, "b": 2, "z": 5})}
    path = tmp_path / "stray_weight.json"
    path.write_text(json.dumps(doc))
    for argv in (("validate", str(path)), ("functor", str(path), "--functor", functor)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: weighted vertex z is not a declared vertex\n"


def test_a_reflexive_certificate_of_a_map_with_itself_passes(capsys):
    # every crossing is exempt, f(A) = g(A), so the one-step homotopy collapses each to a vertex
    argv = _DH_CERT_ARGS[:3] + ("--f", str(FIXTURES / "mor_dh_g.json"), "--g", str(FIXTURES / "mor_dh_g.json"))
    argv += ("--category", "dhyper", "--strictness", "reflexive", "--certify-chain-homotopy")
    argv += ("--max-dim", "2", "--maxlen", "2")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "one-step homotopy: PASS",
        "chain-homotopy certificate: PASS",
        "identity dL + Ld = g* - f* holds in degrees <= 2",
        "induced homology maps equal: yes",
    ]
    assert cli_homology_maps_equal(argv)


@pytest.mark.parametrize("ring", ["z", "q"])
def test_a_weight_that_is_no_unit_is_why_the_certificate_refuses(capsys, ring):
    # the point a (weight 2) into the edge x -> y (weights 2, 2): f(a) = x and g(a) = y are one
    # step apart with weights kept, yet over Z, H_0 of the edge is Z + Z/2 and H(f) != H(g)
    point, edge = (str(FIXTURES / f"pc_{name}_w2_{ring}.json") for name in ("point", "edge"))
    argv = ("homotopy-check", point, edge, "--f", str(FIXTURES / "mor_a_to_x.json"),
            "--g", str(FIXTURES / "mor_a_to_y.json"), "--certify-chain-homotopy")
    code, out, err = run(capsys, *argv)
    h0 = run(capsys, "homology", edge, "--coeff", ring, "--max-dim", "1")[1].splitlines()[1]
    if ring == "z":
        assert (code, out) == (3, "one-step homotopy: PASS\n")
        assert err == "error: weight 2 of vertex a is not invertible in Z\n"
        assert h0.startswith("H_0 = Z + Z/2 ")
        assert not cli_homology_maps_equal(argv)
    else:
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "induced homology maps equal: yes"
        assert h0.startswith("H_0 = Q ")
        assert cli_homology_maps_equal(argv)


@pytest.mark.parametrize("ring", ["z", "q"])
def test_maps_that_do_not_keep_a_weight_are_refused_by_name(capsys, ring):
    # the point a (weight 1) into the edge x -> y (weights 3, 1): f(a) = x changes the weight,
    # and over Z and Q alike H_0 of the edge identifies x with 3y, so H(f) != H(g)
    point = str(FIXTURES / ("pc_point_z.json" if ring == "z" else "pc_point_q.json"))
    argv = ("homotopy-check", point, str(FIXTURES / f"pc_edge_w31_{ring}.json"), "--f", str(FIXTURES / "mor_a_to_x.json"),
            "--g", str(FIXTURES / "mor_a_to_y.json"), "--certify-chain-homotopy")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "one-step homotopy: FAIL\n")
    assert err == "  weight of a not preserved: 1 -> 3\n"
    assert not cli_homology_maps_equal(argv)


def fixture_commands() -> list:
    """Every subcommand on every fixture it takes: validate; homology under each --coeff and
    pipeline; functor; prism-check at degrees 0..3; homotopy-check in both categories, one-step
    and chain mode, with and without certificates, f and g either way round."""
    fx = {path.stem: str(path) for path in sorted(FIXTURES.glob("*.json"))}

    def of(prefix: str) -> list:
        return [path for name, path in fx.items() if name.startswith(prefix)]

    commands = [["validate", path] for path in fx.values()]
    for path in of("pc_"):
        commands += [["homology", path, "--coeff", coeff] for coeff in ("z", "q", "mod:2", "mod:3", "mod:6")]
        commands += [["homology", path, "--unweighted"], ["functor", path, "--functor", "cylinder"]]
        commands += [["prism-check", path, "--degree", str(n), "--samples", "2"] for n in range(4)]
    for path in of("dh_"):
        for pipeline in ("natural", "connective", "bold", "density2"):
            for coeff in ("z", "q", "mod:3"):
                commands.append(["homology", path, "--pipeline", pipeline, "--coeff", coeff, "--maxlen", "2"])
        functors = ("natural", "connective", "bold", "underlying", "density2", "box:I1f", "box:I1b")
        commands += [["functor", path, "--functor", name, "--maxlen", "2"] for name in functors]
    commands += [["functor", path, "--functor", "box:I1f"] for path in of("dg_")]
    pairs = [("pc_point_q", "pc_edge_q"), ("pc_point_w2_q", "pc_edge_w2_q"), ("pc_point_w2_z", "pc_edge_w2_z")]
    pairs += [("pc_point_q", "pc_edge_w31_q"), ("pc_point_z", "pc_edge_w31_z")]
    ends = [("mor_a_to_x", "mor_a_to_y"), ("mor_a_to_y", "mor_a_to_x")]
    certificates = ([], ["--certify-chain-homotopy"])
    for (source, target), (f, g) in itertools.product(pairs, ends):
        for strictness, certify in itertools.product(("strict", "allow-degenerate"), certificates):
            argv = ["homotopy-check", fx[source], fx[target], "--f", fx[f], "--g", fx[g], "--strictness", strictness]
            commands += [argv + certify, argv + ["--mode", "chain", "--chain", fx["chain_a_xy"]] + certify]
    for f, g in itertools.product(("mor_dh_f", "mor_dh_g"), repeat=2):
        for strictness, certify in itertools.product(("strict", "reflexive"), certificates):
            commands.append(["homotopy-check", fx["dh_mor_source"], fx["dh_square_sets"], "--f", fx[f], "--g", fx[g],
                             "--category", "dhyper", "--strictness", strictness, "--maxlen", "2"] + certify)
    return commands


def test_no_subcommand_reads_the_paths_view(monkeypatch, capsys):
    def refuse(store):
        raise AssertionError("the paths view was read")

    monkeypatch.setattr(PathStore, "paths", property(refuse))
    with pytest.raises(AssertionError, match="paths view"):
        wio.parse((FIXTURES / "pc_edge_q.json").read_bytes()).body.paths
    codes = Counter(run(capsys, *argv)[0] for argv in fixture_commands())
    assert set(codes) == {0, 2, 3, 4} and codes[0] >= 300, codes
