"""The benchmark's tracer wraps package attributes by name; each one must stay where it looks.

`perfbench/tracing.py` reads `owner.__dict__[attr]` for every span, so a refactor that
moves a traced function to a base class or renames it breaks traced benchmark runs
without failing any other test.  Its callbacks also read fields of the package's
results (such as `OmegaComplex.bases`), and each workload calls the package by name,
so one traced round of a workload runs here too.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_span_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up here
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.modules.pop("workloads", None)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.SPANS if attr not in vars(owner)
    ]
    assert tracing.SPANS
    assert missing == []


def test_a_traced_certify_q_round_is_correct():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "certify-q", "--seconds", "0", "--trace", "1"],
        cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
