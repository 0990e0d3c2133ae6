"""Checks on the benchmark itself: counter anchors and metric names.

    python3 -m pytest -q perfbench/test_anchors.py

The anchor counts were measured with cProfile on the program before the
benchmark existed; a wrapper that misses a call site (a name imported into
another module and not rebound) would undercount them.  The suite takes
about 25 s and is not part of the tier-1 tests.
"""
from __future__ import annotations

import json
import sys

import run
import tracing
import workloads
from wph import chain, digraph, homotopy, pathcx


def _counts(tracer):
    return tracer.stats["algebra.solve"].calls, tracer.stats["algebra.snf"].calls


def test_wrappers_replace_every_reference_and_restore_them():
    originals = {id(owner.__dict__[attr]) for owner, attr, _ in tracing.SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, module in list(sys.modules.items()):
            if name.startswith("wph") and module is not None:
                leftovers = [k for k, v in vars(module).items() if id(v) in originals]
                assert not leftovers, f"{name} still holds untraced {leftovers}"
    finally:
        tracer.uninstall()
    for owner, attr, _ in tracing.SPANS:
        assert id(owner.__dict__[attr]) in originals


def test_k4_anchor_312_solves_317_snfs():
    g = workloads.complete_digraph(4, [1, 2, 3, 4])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        chain.homology(digraph.paths_functor(g, 3), 3)
    finally:
        tracer.uninstall()
    assert _counts(tracer) == (312, 317)
    assert tracer.metrics(1.0, 1.0)["omega.identity_share"]["value"] == 1.0


def test_criterion5_anchor_2126_solves_2279_snfs():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for pc in workloads.criterion5_complexes(20, seed=17):
            tracer.begin_op()
            cert = homotopy.chain_homotopy_certificate(
                pathcx.inclusion_bottom(pc), pathcx.inclusion_top(pc), 3
            )
            assert cert.ok and cert.identity_holds and cert.homology_maps_equal
    finally:
        tracer.uninstall()
    assert _counts(tracer) == (2126, 2279)


def test_benchmark_json_names_the_metrics_the_tracer_reports():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
