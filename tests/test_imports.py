"""Each subcommand imports only what it runs, checked in a fresh interpreter.

numpy and scipy cost far more to import than the closed form costs to
evaluate, so the scalar subcommands must not load them.  The package's records
are tuples, so only scipy loads dataclasses; inspect, which dataclasses imports,
comes with numpy too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PROBED = ("numpy", "scipy", "scipy.optimize", "dataclasses", "inspect")
#: absent after a subcommand that runs without numpy, which imports inspect itself
SCALAR = ("numpy", "scipy", "dataclasses", "inspect")
#: runs one CLI invocation, then prints its exit code and which of PROBED it loaded
PROBE = f"""
import json, sys
import qmaxent.cli
code = qmaxent.cli.run(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": [m for m in {PROBED!r} if m in sys.modules]}}))
"""
DATA = ["--q", "2", "--b", "1.4142136", "--sigma2", "6"]


def run_fresh(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, absent", [
    (["infer", *DATA], SCALAR),
    (["thermo", *DATA], SCALAR),
    (["mutual", *DATA], ("scipy", "dataclasses")),
    (["verify", *DATA], SCALAR),
    (["verify", *DATA, "--json"], SCALAR),
    (["scan", "--q", "2", "--grid", "2"], ("scipy", "dataclasses")),
], ids=["infer", "thermo", "mutual", "verify-split", "verify-split-json", "scan"])
def test_subcommand_leaves_heavy_modules_unloaded(argv, absent):
    result = run_fresh(argv)
    assert result["code"] == 0
    assert not set(absent) & set(result["loaded"])


def test_general_oracle_loads_scipy_on_demand():
    result = run_fresh(["verify", "--oracle", "general", "--q", "0.5", "--b", "1",
                        "--sigma2", "6", "--seed", "7"])
    assert result["code"] == 0
    assert "scipy.optimize" in result["loaded"]
