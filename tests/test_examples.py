"""Smoke tests: the runnable examples must keep working.

Only the fast examples run in the suite (the heavy ramp ones are exercised
by the benchmarks); each runs in a subprocess so module state cannot leak.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "throughput" in out
    assert "Table 1" in out


def test_reconfiguration():
    out = run_example("reconfiguration.py")
    assert "worker.properties on node1 (before)" in out
    assert "host=node2" in out
    assert "host=node3" in out  # rebound to tomcat2


def test_adl_deployment():
    out = run_example("adl_deployment.py")
    assert "Architecture invariants: OK" in out
    assert "Request path: l4 -> " in out
    assert "Topology view" in out


def test_three_tier():
    out = run_example("three_tier.py")
    assert "Initial architecture:" in out
    assert "[web] grow: apache2 active" in out
    assert "Peak provisioning: web x2, db x2" in out


def test_self_recovery():
    out = run_example("self_recovery.py")
    assert "State digests identical: True" in out
    assert "detected failure" in out


@pytest.mark.parametrize(
    "name",
    [
        "self_sizing.py",
        "latency_slo.py",
        "trace_replay.py",
        "capacity_planning.py",
    ],
)
def test_example_files_compile(name):
    """The heavy examples at least byte-compile (they run in benchmarks)."""
    source = (EXAMPLES / name).read_text()
    compile(source, name, "exec")


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
)
def test_example_imports_resolve(path):
    """Every example's top-level imports run (cheap: nothing simulates)."""
    tree = ast.parse(path.read_text())
    imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    src = str(EXAMPLES.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(imports)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
