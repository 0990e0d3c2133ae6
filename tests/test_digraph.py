import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from wph import io as wio
from wph.algebra import ZZ
from wph.digraph import (
    LineDigraph,
    WeightedDigraph,
    box_product,
    paths_functor,
)
from wph.errors import InvariantError
from wph.pathcx import Path, Vertex

from helpers import fixture_paths

a, b, c = (Vertex(s) for s in "abc")


def triangle():
    return WeightedDigraph.build(
        [a, b, c], [(a, b), (b, c), (c, a)], {a: 1, b: 1, c: 1}, ZZ
    )


def test_build_rejects_loops_and_unknown_endpoints():
    with pytest.raises(InvariantError):
        WeightedDigraph.build([a], [(a, a)])
    with pytest.raises(InvariantError):
        WeightedDigraph.build([a], [(a, b)])


def test_an_edge_error_names_the_least_bad_edge_under_every_hash_seed(tmp_path):
    doc = tmp_path / "bad.json"
    edges = [["a", "b"], ["a'", "d"], ["a", "c"], ["b", "e"], ["c", "a"]]
    doc.write_text(json.dumps({"format_version": "1", "kind": "digraph", "body": {"vertices": ["a", "b"], "edges": edges}}))
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), WPH_COLOR="never", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(FsPath(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "wph.cli", "validate", str(doc)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: edge (a -> c) uses unknown vertex\n"), seed


def test_paths_functor_counts_edge_paths():
    pc = paths_functor(triangle(), 2)
    assert Path((a, b, c)) in pc.paths
    assert Path((a, c)) not in pc.paths  # no edge a -> c
    assert max(p.length for p in pc.paths) == 2
    assert pc.validate().ok


def test_box_product_with_forward_interval():
    g = WeightedDigraph.build([a, b], [(a, b)], {a: 1, b: 2}, ZZ)
    boxed = box_product(g, LineDigraph.forward())
    ap, bp = a.primed(), b.primed()
    assert boxed.vertices == frozenset({a, b, ap, bp})
    assert boxed.edges == frozenset({(a, b), (ap, bp), (a, ap), (b, bp)})
    assert boxed.weight_map()[bp] == 2


def test_box_product_with_backward_interval_flips_crossing_edges():
    g = WeightedDigraph.build([a, b], [(a, b)])
    boxed = box_product(g, LineDigraph.backward())
    assert (a.primed(), a) in boxed.edges
    assert (a, a.primed()) not in boxed.edges


def test_box_product_refuses_a_vertex_next_to_its_primed_copy():
    ap = a.primed()
    g = WeightedDigraph.build([a, ap, b], [(a, ap), (ap, b)], {a: 2, ap: 1, b: 3}, ZZ)
    with pytest.raises(InvariantError, match="vertex a' collides with the primed copy of a"):
        box_product(g, LineDigraph.forward())


def test_line_digraph_arrows():
    assert LineDigraph.forward().arrows() == [(0, 1)]
    assert LineDigraph.backward().arrows() == [(1, 0)]


def test_cylinder_equals_box_product_on_all_digraph_fixtures():
    for path in fixture_paths("dg_"):
        g = wio.parse(path.read_bytes()).body
        assert paths_functor(g, 5).cylinder().truncate(5) == paths_functor(box_product(g, LineDigraph.forward()), 5), path.name


def test_cylinder_comparison_detects_backward_interval_mismatch():
    g = WeightedDigraph.build([a, b], [(a, b)], {a: 1, b: 1}, ZZ)
    cyl = paths_functor(g, 3).cylinder().truncate(3)
    boxed = paths_functor(box_product(g, LineDigraph.backward()), 3)
    assert cyl != boxed


def test_compare_reports_one_sided_paths():
    left = paths_functor(triangle(), 2)
    right = paths_functor(triangle(), 1)
    assert left != right
