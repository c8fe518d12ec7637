"""Orchestration: spawn runs, check digests, aggregate, print, compare.

Every measured run is a fresh single-threaded subprocess
(:mod:`benchmarks.e2e.worker`); runs never overlap, and repeats go
round-robin across the selected workloads so machine drift spreads
evenly.  No result cache and no runner pool are involved.  After the
untraced repeats, one traced run per workload re-runs the same config
under cProfile; its numbers form a separate ``trace`` block and never
feed an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.trace import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: end-to-end metric -> unit (host time, except the three exact ones);
#: ``ref_*`` are host times rescaled to the reference CPU speed by the
#: worker's in-run speed probe, steady where raw wall time is not
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ref_wall_s": "s",
    "us_per_request": "us",
    "ref_us_per_request": "us",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
}
#: deterministic model outputs: any change at all is a change of behaviour
EXACT = ("fail_rate", "sim_latency_p50_ms", "sim_latency_p99_ms")
#: set-up samples per workload (setup-only spawns top up the repeats)
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 300.0  # a traced ramp-discrete takes ~70 s


class WorkerError(RuntimeError):
    pass


def spawn(name: str, seed: int, mode: str, scale: float = 1.0) -> dict:
    """Run one worker to completion and return its record, with set-up
    times measured from the spawn on this process's monotonic clock."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.pop("REPRO_RUNNER_SERIAL", None)  # federation-evac must fork its regions
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker", name, str(seed), mode, repr(scale)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name} {mode}: timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerError(f"{name} {mode}: exit {proc.returncode}\n{tail}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_run"] - t_spawn
    record["import_s"] = record["t_imported"] - t_spawn
    record["build_s"] = record["t_run"] - record["t_imported"]
    return record


# ----------------------------------------------------------------------
# Metrics of one workload
# ----------------------------------------------------------------------
def _spread(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def e2e_metrics(runs: list[dict], setups: list[dict]) -> dict:
    per_run = {
        "wall_s": [r["wall_s"] for r in runs],
        "ref_wall_s": [r["ref_wall_s"] for r in runs],
        "us_per_request": [1e6 * r["wall_s"] / r["completed"] for r in runs],
        "ref_us_per_request": [1e6 * r["ref_wall_s"] / r["completed"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "fail_rate": [r["failed"] / (r["completed"] + r["failed"]) for r in runs],
        "sim_latency_p50_ms": [r["sim_latency_p50_ms"] for r in runs],
        "sim_latency_p99_ms": [r["sim_latency_p99_ms"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs + setups],
    }
    return {m: _spread(per_run[m], unit) for m, unit in E2E_UNITS.items()}


def layer_metrics(runs: list[dict], setups: list[dict]) -> dict:
    """Per-layer numbers read off public counters of the untraced runs."""

    def med(key, among=runs):
        values = [r[key] for r in among]
        return None if None in values else statistics.median(values)

    wall = med("wall_s")
    requests = med("completed")
    out = {
        "simulation.events": (med("events"), "count"),
        "simulation.events_per_request": (_ratio(med("events"), requests), "ratio"),
        "simulation.tombstones": (med("tombstones"), "count"),
        "jade.reconfigurations": (med("reconfigurations"), "count"),
        "setup.import_s": (med("import_s", runs + setups), "s"),
        "setup.build_s": (med("build_s", runs + setups), "s"),
        "federation.critical_path_s": (None, "s"),
        "federation.coordinator_busy_s": (None, "s"),
        "federation.overhead_s": (None, "s"),
    }
    if "critical_path_s" in runs[0]:
        path = med("critical_path_s")
        out["federation.critical_path_s"] = (path, "s")
        out["federation.coordinator_busy_s"] = (med("coordinator_busy_s"), "s")
        out["federation.overhead_s"] = (wall - path, "s")
    return {m: {"value": v, "unit": u} for m, (v, u) in out.items()}


def trace_metrics(traced: dict, untraced_wall: float) -> dict:
    """The traced run's layer split and call-count ratios."""
    wall = traced["wall_s"]
    requests = traced["completed"]
    self_s = traced["profile"]["self_s"]
    calls = traced["profile"]["calls"]
    out = {}
    for layer, _prefixes in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
    out.update({
        "simulation.resources.submits_per_request": (_ratio(calls["submits"], requests), "ratio"),
        "simulation.resources.wakes_per_completion": (_ratio(calls["wakes"], calls["submits"]), "ratio"),
        "simulation.process.resumes_per_request": (_ratio(calls["resumes"], requests), "ratio"),
        "workload.draws_per_request": (_ratio(calls["draws"], requests), "ratio"),
        "legacy.hops_per_request": (_ratio(calls["hops"], requests), "ratio"),
        "workload.fluid.solves_per_tick": (_ratio(calls["solves"], calls["ticks"]), "ratio"),
        "metrics.records_per_request": (_ratio(calls["records"], requests), "ratio"),
        "jade.probe_samples": (calls["probe_samples"], "count"),
        "policy.decisions": (calls["decisions"], "count"),
        "jade.repairs": (calls["repairs"], "count"),
        "trace.overhead": (wall / untraced_wall, "ratio"),
    })
    return {m: {"value": v, "unit": u} for m, (v, u) in out.items()}


# ----------------------------------------------------------------------
# The measurement loop
# ----------------------------------------------------------------------
def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def measure(
    names: list[str],
    seed: int = 1,
    repeats: int = 3,
    seconds: float | None = None,
    trace: bool = True,
    scale: float = 1.0,
    reference: dict | None = None,
    log=_progress,
) -> dict:
    """Run the benchmark; returns the report ``--out`` writes.

    ``repeats`` untraced rounds run at least; with ``seconds`` further
    rounds follow while the next one is due to end within ``seconds``
    of the start.  Every run of a workload must produce one digest, and
    it must match ``reference[workload][seed]`` where that exists.
    """
    runs: dict[str, list[dict]] = {n: [] for n in names}
    errors: dict[str, list[str]] = {n: [] for n in names}

    def attempt(name: str, mode: str) -> dict | None:
        try:
            return spawn(name, seed, mode, scale)
        except WorkerError as exc:
            errors[name].append(str(exc))
            log(f"FAILED {exc}")
            return None

    start = time.monotonic()
    rounds = 0
    while True:
        t_round = time.monotonic()
        for name in names:
            record = attempt(name, "run")
            if record is not None:
                runs[name].append(record)
                log(f"  {name} run {rounds + 1}: {record['wall_s']:.2f} s wall")
        rounds += 1
        now = time.monotonic()
        if rounds >= repeats and (
            seconds is None or now - start + (now - t_round) > seconds
        ):
            break

    setups = {n: [] for n in names}
    for name in names:
        while len(runs[name]) + len(setups[name]) < SETUP_SAMPLES:
            record = attempt(name, "setup")
            if record is None:
                break
            setups[name].append(record)
    traced = {}
    if trace:
        for name in names:
            traced[name] = attempt(name, "trace")
            if traced[name] is not None:
                log(f"  {name} traced: {traced[name]['wall_s']:.2f} s wall")

    reference = reference or {}
    report = {"seed": seed, "scale": scale, "rounds": rounds, "workloads": {}}
    for name in names:
        done = runs[name] + [traced[name]] if traced.get(name) else runs[name]
        digests = sorted({r["digest"] for r in done})
        expected = reference.get(name, {}).get(str(seed))
        entry = {
            "why": WORKLOADS[name].why,
            "attempted": sum(r["completed"] + r["failed"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "digests": digests,
            "reference": expected,
            "errors": errors[name],
        }
        if len(digests) > 1:
            errors[name].append(f"{name}: runs disagree: {digests}")
        elif expected is not None and digests != [expected]:
            errors[name].append(f"{name}: digest {digests} != reference {expected}")
        if runs[name]:
            entry["e2e"] = e2e_metrics(runs[name], setups[name])
            entry["layers"] = layer_metrics(runs[name], setups[name])
            if traced.get(name):
                entry["trace"] = trace_metrics(
                    traced[name], entry["e2e"]["wall_s"]["median"]
                )
        entry["correct"] = not errors[name] and bool(runs[name])
        report["workloads"][name] = entry
    report["correct"] = all(e["correct"] for e in report["workloads"].values())
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def render(report: dict) -> str:
    lines = []
    for name, entry in report["workloads"].items():
        verdict = "OK" if entry["correct"] else "FAILED"
        if entry["reference"] is None:
            ref = "(no reference for this seed)"
        else:
            ref = "(reference " + ("match)" if entry["digests"] == [entry["reference"]] else "MISMATCH)")
        lines.append(
            f"== {name} (seed {report['seed']}, {report['rounds']} rounds) "
            f"{verdict}: digest {','.join(d[:12] for d in entry['digests'])} {ref}"
        )
        lines.extend(f"   ! {e}" for e in entry["errors"])
        for metric, s in entry.get("e2e", {}).items():
            lines.append(
                f"   {metric:44s} {_fmt(s['median']):>12s} {s['unit']:6s} "
                f"[{_fmt(s['min'])} .. {_fmt(s['max'])}] n={s['n']}"
            )
        for block in ("layers", "trace"):
            if block in entry:
                lines.append(f"   -- {block}")
                for metric, m in entry[block].items():
                    lines.append(f"   {metric:44s} {_fmt(m['value']):>12s} {m['unit']}")
    return "\n".join(lines)


def result_line(report: dict, trace: bool) -> dict:
    """The one-line summary: every ``end_to_end`` metric of BENCHMARK.json
    (untraced), or with ``trace`` every ``per_layer`` one."""
    spec = load_json(BENCHMARK)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    entries = report["workloads"]
    metrics = {}
    for workload, entry in entries.items():
        found = {m: {"value": s["median"], "unit": s["unit"]}
                 for m, s in entry.get("e2e", {}).items()}
        found.update(entry.get("layers", {}))
        found.update(entry.get("trace", {}))
        for name in names:
            if name in found:
                key = name if len(entries) == 1 else f"{workload}/{name}"
                metrics[key] = {"value": found[name]["value"], "unit": found[name]["unit"]}
    return {
        "correct": report["correct"],
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def update_reference(report: dict) -> None:
    data = load_json(REFERENCE)
    for name, entry in report["workloads"].items():
        (digest,) = entry["digests"]
        data["digests"].setdefault(name, {})[str(report["seed"])] = digest
    data["digests"] = {
        n: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
        for n, d in sorted(data["digests"].items())
    }
    REFERENCE.write_text(json.dumps(data, indent=2) + "\n")


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, bound: float) -> tuple[float, str]:
    """B against base A for a lower-is-better metric: ``unresolved`` when
    the min-max ranges overlap by more than the bound (as a share of A's
    median), else ``worse``/``better`` past the bound, else
    ``within-bound``."""
    base = a["median"]
    if base == 0:
        ratio = 1.0 if b["median"] == 0 else float("inf")
        overlap = 0.0
    else:
        ratio = b["median"] / base
        overlap = (min(a["max"], b["max"]) - max(a["min"], b["min"])) / base
    if overlap > bound:
        return ratio, "unresolved"
    if ratio > 1.0 + bound:
        return ratio, "worse"
    if ratio < 1.0 - bound:
        return ratio, "better"
    return ratio, "within-bound"


def compare(path_a: str, path_b: str) -> str:
    bounds = {m["name"]: m["bound"] for m in load_json(BENCHMARK)["end_to_end"]}
    loosest = max(bounds.values())  # for the host metrics BENCHMARK.json leaves out
    bounds.update({m: 0.0 for m in EXACT})
    a, b = load_json(Path(path_a)), load_json(Path(path_b))
    lines = [
        f"{'workload':16s} {'metric':20s} {'A median':>11s} {'A min-max':>23s} "
        f"{'B median':>11s} {'B min-max':>23s} {'B/A':>7s} {'bound':>6s}  verdict"
    ]
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None or "e2e" not in entry_a or "e2e" not in entry_b:
            continue
        for metric in E2E_UNITS:
            sa, sb = entry_a["e2e"][metric], entry_b["e2e"][metric]
            bound = bounds.get(metric, loosest)
            ratio, word = verdict(sa, sb, bound)
            lines.append(
                f"{name:16s} {metric:20s} {_fmt(sa['median']):>11s} "
                f"{_fmt(sa['min']) + '-' + _fmt(sa['max']):>23s} {_fmt(sb['median']):>11s} "
                f"{_fmt(sb['min']) + '-' + _fmt(sb['max']):>23s} {ratio:7.3f} "
                f"{bound:6.2f}  {word}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("a", help="base --out file")
        parser.add_argument("b", help="--out file compared against the base")
        args = parser.parse_args(argv[1:])
        print(compare(args.a, args.b))
        return 0

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Time the canonical Jade runs end to end, profile one "
        "traced run per workload, and check output digests.",
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced rounds (default 3, or 1 with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="add rounds while the next ends within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also one traced run per workload (default)")
    parser.add_argument("--out", help="write the full report as JSON here")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this seed's digests in reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    repeats = args.repeats or (1 if args.seconds else 3)
    reference = None if args.update_reference else load_json(REFERENCE)["digests"]
    report = measure(names, args.seed, repeats, args.seconds, bool(args.trace),
                     reference=reference)
    print(render(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.update_reference:
        if report["correct"]:
            update_reference(report)
        else:
            print("reference.json not updated: a run failed or runs disagree", file=sys.stderr)
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0 if report["correct"] else 1
