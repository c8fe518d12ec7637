"""Alternating A/B runs of one end-to-end workload in two checkouts.

Usage, from anywhere::

    python benchmarks/ab.py PARENT_CHECKOUT CHANGED_CHECKOUT \\
        --workload ramp-discrete --seed 1 --pairs 10

Each pair runs ``python -m benchmarks.e2e.worker WORKLOAD SEED run 1.0``
once in each checkout: a fresh interpreter in that checkout's root, with
its ``src`` first on the path, exactly as the e2e harness spawns it.  The
side that goes first alternates from pair to pair, so drift in the
machine's speed falls on both sides alike.  Runs never overlap.

Prints, per side, the median and quartiles of ``ref_us_per_request``
(the harness's formula: rescaled run wall time per completed request),
``peak_rss_mb`` and ``setup_s`` (the harness's formula too: from the
spawn to the start of the run call), the set of output digests, the
kernel's dispatched ``events`` and skipped ``tombstones`` as the worker
records them, and the number of pairs in which that side had the lower
``ref_us_per_request``.  ``--json FILE`` also writes every run and the
summary.

Exits 1 when a side's runs disagree on the digest or the two sides' digest
sets differ: a timing of two programs with different outputs compares
nothing.  Kernel counts that differ between the sides only print a
warning: a change may dispatch fewer events for the same outputs.
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

METRICS = ("ref_us_per_request", "peak_rss_mb", "setup_s")
#: the worker's kernel counters (``tombstones`` is None for a federation)
COUNTS = ("events", "tombstones")


def run_worker(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced run of ``workload`` in ``checkout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout)])
    env.pop("REPRO_RUNNER_SERIAL", None)  # federation-evac must fork its regions
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker", workload, str(seed), "run", "1.0"]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise SystemExit(f"{checkout}: worker exit {proc.returncode}\n{tail}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "ref_us_per_request": 1e6 * record["ref_wall_s"] / record["completed"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": record["t_run"] - t_spawn,
        "digest": record["digest"],
        "events": record["events"],
        "tombstones": record["tombstones"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method (a single value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(a_runs: list[dict], b_runs: list[dict]) -> dict:
    """Per side: quartiles of each metric, digests and pairs won."""
    wins = [0, 0]
    for a, b in zip(a_runs, b_runs):
        if a["ref_us_per_request"] != b["ref_us_per_request"]:
            wins[b["ref_us_per_request"] < a["ref_us_per_request"]] += 1
    sides = {}
    for name, runs, won in (("a", a_runs, wins[0]), ("b", b_runs, wins[1])):
        side = {m: quartiles([r[m] for r in runs]) for m in METRICS}
        side["digests"] = sorted({r["digest"] for r in runs})
        for c in COUNTS:
            side[c] = list(dict.fromkeys(r[c] for r in runs))
        side["pairs_won"] = won
        sides[name] = side
    return sides


def digest_mismatch(sides: dict) -> str | None:
    """Why the runs' outputs disagree, or None when every run of both
    sides has the same digest."""
    a, b = sides["a"]["digests"], sides["b"]["digests"]
    for name, digests in (("a", a), ("b", b)):
        if len(digests) > 1:
            return f"{name}'s runs disagree: {len(digests)} distinct digests"
    if a != b:
        return "the two sides' digests differ"
    return None


def count_mismatch(sides: dict) -> str | None:
    """Which kernel counts differ between the sides, or None."""
    differ = [c for c in COUNTS if sides["a"][c] != sides["b"][c]]
    if differ:
        return f"the two sides' {' and '.join(differ)} differ"
    return None


def _table(args, sides: dict) -> str:
    lines = [f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs"]
    for name, path in (("a", args.a), ("b", args.b)):
        side = sides[name]
        lines.append(f"{name}: {path}")
        for m in METRICS:
            q1, med, q3 = side[m]
            lines.append(f"   {m:<20} median {med:9.3f}  quartiles {q1:9.3f} .. {q3:9.3f}")
        lines.append(f"   digests              {' '.join(d[:16] for d in side['digests'])}")
        for c in COUNTS:
            lines.append(f"   {c:<20} {' '.join(str(v) for v in side[c])}")
        lines.append(f"   pairs won            {side['pairs_won']}/{args.pairs}")
    (a_q1, a_med, a_q3), (_, b_med, _) = sides["a"][METRICS[0]], sides["b"][METRICS[0]]
    lines.append(
        f"b/a median {METRICS[0]} {b_med / a_med:.3f}; "
        f"gap {a_med - b_med:+.3f} against a's interquartile range {a_q3 - a_q1:.3f}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline checkout (its root)")
    parser.add_argument("b", type=Path, help="changed checkout (its root)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write every run and the summary")
    args = parser.parse_args(argv)
    checkouts = (args.a.resolve(), args.b.resolve())
    runs: tuple[list[dict], list[dict]] = ([], [])
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_worker(checkouts[side], args.workload, args.seed))
        a, b = runs[0][-1], runs[1][-1]
        print(
            f"pair {i + 1}/{args.pairs}: a {a['ref_us_per_request']:.3f} "
            f"b {b['ref_us_per_request']:.3f} us/request",
            file=sys.stderr,
        )
    sides = summarize(*runs)
    print(_table(args, sides))
    counts = count_mismatch(sides)
    if counts is not None:
        print(f"warning: {counts}", file=sys.stderr)
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "a": runs[0], "b": runs[1],
             "summary": sides},
            indent=2,
        ))
    mismatch = digest_mismatch(sides)
    if mismatch is not None:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
