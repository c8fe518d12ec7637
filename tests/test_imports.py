"""What a run imports, and when.

Package ``__init__`` files are documentation only, so a module loads just
what it imports.  These tests pin the consequences: the federation parent
stays free of the what-if, sweep and pool stacks; every module a
canonical run needs is loaded before the run starts (forked region
workers and timed runs import nothing); an untraced run loads no trace
events and no code it never calls; and the section gates keep failing
when ``python -O`` strips ``assert`` statements.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )


#: loaded by neither a federation run nor its coordinator (trace events
#: load on first emit; the result cache only with a caller's cache)
FEDERATION_UNUSED = (
    "repro.obs",
    "repro.runner.cache",
    "repro.capacity",
    "repro.runner.sweep",
    "repro.runner.parallel",
    "repro.obs.timeline",
    "repro.jade.three_tier",
    "repro.workload.traces",
    "concurrent.futures",
)


def test_federation_coordinator_leaves_unused_stacks_unloaded():
    out = run_python(
        "import sys\n"
        "import repro.federation.coordinator\n"
        f"print([m for m in {FEDERATION_UNUSED!r} if m in sys.modules])\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "workload", ["ramp-discrete", "ramp-fluid", "static-thrash", "federation-evac"]
)
def test_canonical_run_imports_nothing_after_build(workload):
    """No ``repro`` module, and neither ``numpy.ma`` (``np.percentile``'s
    first call imports it) nor ``numpy.random`` (numpy loads it on first
    use), ~10 ms each inside every forked region worker, loads once the
    system is built."""
    code = (
        "import sys\n"
        "def watched():\n"
        "    return {m for m in sys.modules\n"
        "            if m.startswith('repro') or m in ('numpy.ma', 'numpy.random')}\n"
        "from benchmarks.e2e.workloads import WORKLOADS\n"
        f"w = WORKLOADS[{workload!r}]\n"
        "if w.federated:\n"
        "    from repro.federation.coordinator import run_federation\n"
        "    target = w.build(1, 0.02)\n"
        "    call = lambda: run_federation(target, parallel=False)\n"
        "else:\n"
        "    from repro.jade.system import ManagedSystem\n"
        "    call = ManagedSystem(w.build(1, 0.02)).run\n"
        "loaded = watched()\n"
        "call()\n"
        "print(sorted(watched() - loaded))\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


#: trace-event classes, the wrappers and servers the managed RUBiS
#: deployment has no use for, and the arbitration manager
UNTRACED_UNUSED = (
    "repro.obs.events",
    "repro.obs.tracer",
    "repro.wrappers.apache",
    "repro.wrappers.l4switch",
    "repro.legacy.apache",
    "repro.legacy.l4switch",
    "repro.jade.arbitration",
)


def loaded_after_run(workload: str, **knobs) -> list[str]:
    """Which of :data:`UNTRACED_UNUSED` a scaled-down canonical run loads."""
    code = (
        "import dataclasses, json, sys\n"
        "from benchmarks.e2e.workloads import WORKLOADS\n"
        f"w = WORKLOADS[{workload!r}]\n"
        "if w.federated:\n"
        "    from repro.federation.coordinator import run_federation\n"
        "    run_federation(w.build(1, 0.02), parallel=False)\n"
        "else:\n"
        "    from repro.jade.system import ManagedSystem\n"
        f"    cfg = dataclasses.replace(w.build(1, 0.02), **{knobs!r})\n"
        "    ManagedSystem(cfg).run()\n"
        f"print(json.dumps([m for m in {UNTRACED_UNUSED!r} if m in sys.modules]))\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "workload", ["ramp-discrete", "ramp-fluid", "static-thrash", "federation-evac"]
)
def test_untraced_run_leaves_trace_and_unused_code_unloaded(workload):
    assert loaded_after_run(workload) == []


def test_traced_run_loads_trace_events():
    loaded = loaded_after_run("ramp-discrete", trace=True)
    assert {"repro.obs.events", "repro.obs.tracer"} <= set(loaded)


#: a report breaking each section gate's first check
BROKEN_REPORTS = {
    "chaos": (
        "repro.chaos.bench",
        {"seeds": [1], "campaigns": {"crash": {"unrepaired": 1}}},
    ),
    "deploy": ("repro.deploy.bench", {"headline": {"rollbacks": 0, "runs": 1}}),
    "market": (
        "repro.market.bench",
        {"headline": {"savings_pct": {"mean": 0.0}}, "min_savings_pct": 15.0},
    ),
    "fluid": (
        "repro.workload.fluid_bench",
        {"accuracy": {"replica_sequences_identical": False, "replica_sequences": []}},
    ),
    "policy": (
        "repro.policy.bench",
        {"seeds": [1], "arms": {"default": {"slo_violation_s": {"n": 0}}}},
    ),
    "federation": (
        "repro.federation.bench",
        {
            "smoke": True,
            "byte_identical": False,
            "speedup": 0.0,
            "evacuation": {},
            "follow_the_sun": {},
        },
    ),
}


@pytest.mark.parametrize("section", sorted(BROKEN_REPORTS))
def test_section_gate_fails_under_optimize(section):
    module, report = BROKEN_REPORTS[section]
    out = run_python(
        f"from {module} import check_section\ncheck_section({report!r})\n", "-O"
    )
    assert out.returncode != 0
    assert "AssertionError" in out.stderr
