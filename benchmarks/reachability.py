#!/usr/bin/env python
"""List the ``src/`` functions that no non-test entry point reaches.

Every entry point below runs in a fresh interpreter under a
``sys.setprofile`` hook (installed by a generated ``sitecustomize``, so
the pool and region worker processes they start are covered too) that
records each Python function called.  The report lists the functions of
``src/repro`` that none of them called, with their length and the number
of times their name occurs outside its own ``def``: in the program
(``src/``, ``benchmarks/``, ``examples/``) and in ``tests/``.  A function
with no program reference is reached only by tests, or not at all.

Each entry point runs with its working directory in a scratch copy of
``benchmarks/``, ``examples/``, ``pyproject.toml`` and ``BENCHMARK.json``
and writes its outputs there, so the
committed results are left as they are.  The whole sweep takes tens of
minutes: the hook slows every call, and ``pytest benchmarks/`` runs the
paper's figure benches at full scale.

Run:  python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_REPRO = [sys.executable, "-m", "repro"]

#: (label, argv); ``{out}`` is replaced by the scratch output directory
ENTRY_POINTS: list[tuple[str, list[str]]] = [
    *(
        (f"e2e {name}", [sys.executable, "-m", "benchmarks.e2e.worker", name, "1", "run", "1.0"])
        for name in ("ramp-discrete", "ramp-fluid", "static-thrash", "federation-evac")
    ),
    ("trace-demo", _REPRO + ["ramp", "--scale", "0.15", "--peak", "350", "--trace", "{out}/t.jsonl"]),
    ("trace-demo view", _REPRO + ["trace", "{out}/t.jsonl"]),
    ("whatif-demo", _REPRO + [
        "whatif", "--at", "150", "--scale", "0.25", "--peak", "350", "--horizon", "60",
        "--slo", "0.25", "--serial", "--no-cache", "--report", "{out}/whatif.json",
    ]),
    ("chaos-demo legacy", _REPRO + [
        "chaos", "--campaign", "gray", "--detector", "legacy", "--seeds", "1",
        "--clients", "60", "--duration", "420", "--serial",
    ]),
    ("chaos-demo events", _REPRO + [
        "chaos", "--campaign", "gray", "--seeds", "1", "--clients", "60",
        "--duration", "420", "--events", "--serial",
    ]),
    ("chaos-demo scorecard", _REPRO + [
        "chaos", "--campaign", "crash", "--seeds", "1,2,3", "--clients", "60",
        "--duration", "420", "--json", "{out}/chaos.json",
    ]),
    ("deploy-demo bad-push", _REPRO + ["deploy", "--scenario", "bad-push", "--seeds", "1", "--serial"]),
    ("deploy-demo crossover", _REPRO + [
        "deploy", "--scenario", "clean-bounce", "--strategy", "crossover", "--seeds", "1",
        "--events", "--serial",
    ]),
    ("deploy-demo scorecard", _REPRO + [
        "deploy", "--scenario", "bad-push", "--seeds", "1,2,3", "--json", "{out}/deploy.json",
    ]),
    ("market-demo spot-heavy", _REPRO + [
        "market", "--scenario", "spot-heavy", "--seeds", "1", "--events", "--serial",
    ]),
    ("market-demo volatile", _REPRO + ["market", "--scenario", "volatile", "--seeds", "1", "--serial"]),
    ("market-demo scorecard", _REPRO + [
        "market", "--scenario", "spot-heavy", "--seeds", "1,2,3", "--json", "{out}/market.json",
    ]),
    ("fluid-demo", _REPRO + ["ramp", "--fluid", "--scale", "0.25"]),
    ("fluid-demo hybrid", _REPRO + ["ramp", "--fluid", "--fluid-threshold", "300", "--scale", "0.25"]),
    ("fluid-demo 1M", _REPRO + ["ramp", "--fluid", "--cohort", "2000", "--peak", "1000000"]),
    ("federate-demo sun", _REPRO + [
        "federate", "--scenario", "follow-the-sun", "--regions", "3", "--serial",
    ]),
    ("federate-demo evacuation", _REPRO + [
        "federate", "--scenario", "evacuation", "--regions", "2", "--events", "--serial",
    ]),
    ("federate-demo scorecard", _REPRO + [
        "federate", "--scenario", "global-ramp", "--regions", "4",
        "--json", "{out}/federation.json",
    ]),
    ("tune-demo", _REPRO + [
        "tune", "--app-max", "0.7,0.8", "--app-min", "0.38", "--db-max", "0.65,0.75",
        "--db-min", "0.4", "--inhibitions", "30,60", "--seeds", "1", "--out", "{out}/tuned.json",
    ]),
    ("sweep-demo", _REPRO + [
        "sweep", "--seeds", "1,2", "--scales", "0.1", "--policies", "static,managed",
        "--csv", "{out}/sweep.csv",
    ]),
    *(
        (f"{name}-smoke", _REPRO + ["bench", "--only", name, "--smoke"])
        for name in ("chaos", "deploy", "market", "fluid", "policy", "federation")
    ),
    ("bench micro", _REPRO + ["bench", "--micro-only", "--rounds", "1", "--out", "{out}/bench.json"]),
    ("bench check-whatif", _REPRO + ["bench", "--check-whatif", str(ROOT / "BENCH_engine.json")]),
    *(
        (f"example {name}", [sys.executable, f"examples/{name}.py", *extra])
        for name, extra in (
            ("quickstart", []),
            ("reconfiguration", []),
            ("adl_deployment", []),
            ("self_recovery", []),
            ("latency_slo", []),
            ("three_tier", []),
            ("trace_replay", []),
            ("self_sizing", ["--quick"]),
            ("capacity_planning", []),
        )
    ),
    ("pytest benchmarks", [
        sys.executable, "-m", "pytest", "benchmarks", "--benchmark-only", "-q", "-p",
        "no:cacheprovider",
    ]),
]

_HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    src = {src!r}
    with open(os.path.join({out!r}, "%d.txt" % os.getpid()), "w") as fh:
        for code in _seen:
            if code.co_filename.startswith(src):
                fh.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))


def _exit(code, _os_exit=os._exit):
    # a forked worker leaves through os._exit, which skips atexit
    _dump()
    _os_exit(code)


os._exit = _exit
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def run_entry_points(work: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point under the hook; return the reached
    ``(file, first line)`` pairs and the labels of failed runs."""
    hook_dir, reached_dir, out = work / "hook", work / "reached", work / "out"
    for d in (hook_dir, reached_dir, out):
        d.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(src=str(SRC), out=str(reached_dir))
    )
    for name in ("benchmarks", "examples"):
        shutil.copytree(
            ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    for name in ("pyproject.toml", "BENCHMARK.json"):  # read by pytest benchmarks/
        shutil.copy(ROOT / name, work)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(map(str, (hook_dir, SRC, work))),
        "REPRO_CACHE_DIR": str(out / "cache"),
    }
    failed = []
    for label, argv in ENTRY_POINTS:
        argv = [a.replace("{out}", str(out)) for a in argv]
        t0 = time.monotonic()
        proc = subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"  {label:<28} {status:>8} {time.monotonic() - t0:7.1f} s", flush=True)
        if proc.returncode != 0:
            failed.append(label)
            print("\n".join(proc.stdout.strip().splitlines()[-3:]), flush=True)
    reached = set()
    for path in reached_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            reached.add((filename, int(lineno)))
    return reached, failed


def src_functions() -> list[tuple[str, int, str, int, int]]:
    """Every function and method of ``src/repro`` as ``(file, first
    line, qualified name, def line, length)``; the first line is the
    first decorator's, as in ``co_firstlineno``."""
    out = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qual = f"{prefix}{child.name}"
                    length = child.end_lineno - first + 1
                    out.append((str(path), first, qual, child.lineno, length))
                    visit(child, f"{qual}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(tree, "")
    return out


def reference_counts(names: set[str]) -> tuple[Counter, Counter]:
    """Occurrences of each name as a word in the program and in tests."""
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    program, tests = Counter(), Counter()
    for counter, dirs in ((program, ("src", "benchmarks", "examples")), (tests, ("tests",))):
        for d in dirs:
            for path in (ROOT / d).rglob("*.py"):
                for token in word.findall(path.read_text()):
                    if token in names:
                        counter[token] += 1
    return program, tests


def main() -> int:
    print(f"running {len(ENTRY_POINTS)} entry points under the profile hook...")
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        reached, failed = run_entry_points(Path(tmp))
    functions = src_functions()
    unreached = [f for f in functions if (f[0], f[1]) not in reached]
    names = {qual.rpartition(".")[2] for _, _, qual, _, _ in unreached}
    program, tests = reference_counts(names)
    print(
        f"\n{len(functions) - len(unreached)} of {len(functions)} src/ functions "
        f"reached; {len(unreached)} not reached"
    )
    print(f"\n{'function':<70} {'lines':>5} {'program':>7} {'tests':>5}")
    only_tests = 0
    for path, _, qual, def_line, length in unreached:
        name = qual.rpartition(".")[2]
        refs = program[name] - 1  # its own def
        where = f"{Path(path).relative_to(SRC)}:{def_line}::{qual}"
        print(f"{where:<70} {length:>5} {refs:>7} {tests[name]:>5}")
        if refs == 0:
            only_tests += length
    print(f"\nnot reached, and no program reference beyond the def: {only_tests} lines")
    if failed:
        print(f"entry points that failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
