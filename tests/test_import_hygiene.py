"""A cold ``cfdlang-flow`` compile loads only what it uses.

Each case runs in a fresh interpreter, so modules imported by other tests
cannot hide an eager import: NumPy, networkx, the solver and the broker,
transport and service stack must stay out of ``sys.modules`` unless the
command actually executes kernels.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: modules a compile-only invocation must never import
HEAVY = (
    "numpy",
    "networkx",
    "repro.flow.service",
    "repro.flow.nettransport",
    "repro.flow.distributed",
    "repro.flow.solver",
)

PROBE = """\
import json, sys
argv, heavy = json.loads(sys.argv[1]), json.loads(sys.argv[2])
import repro.flow.cli
rc = repro.flow.cli.main(argv) if argv else 0
print(json.dumps({"rc": rc, "loaded": sorted(set(heavy) & set(sys.modules))}))
"""


def run_probe(argv, cwd):
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), json.dumps(HEAVY)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--app", "helmholtz", "-n", "6", "-o", "OUT"],
        ["program", "--suite", "smoother", "-n", "6"],
    ],
    ids=["import", "app", "program"],
)
def test_compile_path_stays_light(argv, tmp_path):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    probe = run_probe(argv, tmp_path)
    assert probe == {"rc": 0, "loaded": []}


def test_exec_backend_still_loads_numpy(tmp_path):
    probe = run_probe(
        ["program", "--suite", "smoother", "-n", "6", "--exec-backend", "numpy"],
        tmp_path,
    )
    assert probe["rc"] == 0
    assert "numpy" in probe["loaded"]
