import os
import subprocess
import sys

import pytest

from helpers import FIXTURES

SCRIPTS = FIXTURES.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["property_sweep.py", "--count", "2", "--seed", "1"], ["reproduce_examples.py"], ["ladder.py", "--repeat", "1"]],
    ids=["property_sweep", "reproduce_examples", "ladder"],
)
def test_script_runs_from_a_fresh_checkout(tmp_path, argv):
    # another working directory and no PYTHONPATH: each script finds src/ and tests/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
