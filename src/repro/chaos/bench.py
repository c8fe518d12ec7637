"""The ``"chaos"`` section of BENCH_engine.json and the ``repro chaos``
command.

Runs the crash, fail-slow and correlated campaigns across seeds and
records MTTR / detection latency / availability with 95 % confidence
intervals, plus the gray-failure detection comparison (the legacy
``up``-flag heartbeat misses a crawling replica; the phi-accrual
detector repairs it).  ``repro bench --only chaos --smoke`` is the CI
gate (one seed).  :func:`score_campaign` is the one seed fan-out both
the section and ``repro chaos`` score a campaign through.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.chaos.campaign import PRESETS, campaign_config
from repro.chaos.scorecard import AGGREGATED, render_scorecard, score_run
from repro.metrics.aggregates import seed_scorecard
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner

#: campaigns whose MTTR the committed report tracks with CIs
MTTR_CAMPAIGNS = ("crash", "fail-slow", "correlated")
#: campaign geometry: concurrent clients and run length (s)
CLIENTS = 60
DURATION_S = 420.0

#: ``repro chaos``'s help line and its ``--events`` help
COMMAND_HELP = (
    "run a fault-injection campaign and print the resilience scorecard "
    "(MTTR, detection latency, availability, goodput, SLO)"
)
EVENTS_HELP = "print the per-seed fault and detection event logs"


def score_campaign(
    campaign,
    seeds: Sequence[int],
    runner,
    clients: int = CLIENTS,
    duration_s: float = DURATION_S,
    slo_latency_s: float = 0.5,
) -> tuple[dict, dict]:
    """Run ``campaign`` once per seed through ``runner``; returns its
    multi-seed scorecard and the runs by seed."""
    runs = runner.run_seeds(
        lambda seed: campaign_config(
            campaign, seed=seed, clients=clients, duration_s=duration_s
        ),
        seeds,
        prefix=f"chaos-{campaign.name}-{campaign.detector}",
    )
    card = seed_scorecard(
        {
            "campaign": campaign.name,
            "detector": campaign.detector,
            "slo_latency_s": slo_latency_s,
        },
        [score_run(runs[s], slo_latency_s) for s in seeds],
        AGGREGATED,
    )
    return card, runs


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"chaos"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    campaigns = {}
    for name in MTTR_CAMPAIGNS:
        campaign = PRESETS[name]()
        card, _ = score_campaign(campaign, seeds, runner)
        agg = card["aggregate"]
        campaigns[name] = {
            "detector": campaign.detector,
            "mttr_s": agg["mttr_mean_s"],
            "detect_s": agg["detect_mean_s"],
            "availability": agg["availability"],
            "goodput_rps": agg["goodput_rps"],
            "disruptions": sum(r["disruptions"] for r in card["per_seed"]),
            "repairs": sum(r["repairs_completed"] for r in card["per_seed"]),
            "unrepaired": sum(r["unrepaired"] for r in card["per_seed"]),
        }

    gray = PRESETS["gray"]()
    arms = {}
    for detector in ("legacy", "phi"):
        campaign = dataclasses.replace(gray, detector=detector)
        card, _ = score_campaign(campaign, seeds, runner)
        arms[detector] = {
            "repairs": sum(r["repairs_completed"] for r in card["per_seed"]),
            "detections": sum(r["detections"] for r in card["per_seed"]),
            "detect_s": card["aggregate"]["detect_mean_s"],
            "goodput_rps": card["aggregate"]["goodput_rps"],
            "availability": card["aggregate"]["availability"],
        }
    return {
        "seeds": list(seeds),
        "clients": CLIENTS,
        "duration_s": DURATION_S,
        "campaigns": campaigns,
        "gray_detection": {
            **arms,
            "phi_catches_gray": (
                arms["legacy"]["repairs"] == 0 and arms["phi"]["repairs"] > 0
            ),
        },
    }


def add_arguments(parser) -> None:
    """``repro chaos``'s campaign and geometry flags."""
    parser.add_argument(
        "--campaign", default="crash", choices=sorted(PRESETS),
        help="named campaign preset (default: crash)",
    )
    parser.add_argument(
        "--detector", choices=("legacy", "phi"), default=None,
        help="override the campaign's failure-detection path "
        "(legacy heartbeat vs phi-accrual progress detector)",
    )
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument(
        "--duration", type=float, default=DURATION_S,
        help=f"simulated seconds per run (default {DURATION_S:.0f})",
    )


def _campaign(args):
    campaign = PRESETS[args.campaign]()
    if args.detector is not None:
        campaign = dataclasses.replace(campaign, detector=args.detector)
    return campaign


def describe(args, seeds: Sequence[int]) -> str:
    """The line ``repro chaos`` prints before its fan-out."""
    campaign = _campaign(args)
    return (
        f"Campaign '{campaign.name}' (detector: {campaign.detector}): "
        f"{len(campaign.faults)} fault spec(s), "
        f"{args.clients} clients x {args.duration:.0f}s, "
        f"seeds {', '.join(str(s) for s in seeds)}..."
    )


def command(args, seeds: Sequence[int], runner) -> tuple[dict, dict, list[str]]:
    """``repro chaos``: the scorecard, the runs by seed and the render."""
    card, runs = score_campaign(
        _campaign(args), seeds, runner, clients=args.clients,
        duration_s=args.duration, slo_latency_s=args.slo,
    )
    return card, runs, render_scorecard(card)


def render_section(section: dict) -> str:
    lines = [
        f"Chaos campaigns: {section['clients']} clients x "
        f"{section['duration_s']:.0f}s, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"{'campaign':<12s} {'detector':<8s} {'MTTR (s)':>16s} "
        f"{'detect (s)':>14s} {'avail (%)':>10s} {'repairs':>8s}",
    ]
    for name, c in section["campaigns"].items():
        mttr, det = c["mttr_s"], c["detect_s"]
        lines.append(
            f"{name:<12s} {c['detector']:<8s} "
            f"{mttr['mean']:8.1f} +/- {mttr['ci95']:4.1f} "
            f"{det['mean']:8.1f} +/- {det['ci95']:3.1f} "
            f"{c['availability']['mean'] * 100:10.2f} "
            f"{c['repairs']:>4d}/{c['disruptions']:d}"
        )
    g = section["gray_detection"]
    lines += [
        "",
        "Gray failure (replica answers heartbeats, serves at a crawl):",
        f"  legacy heartbeat : {g['legacy']['repairs']} repairs, "
        f"{g['legacy']['detections']} detections, "
        f"goodput {g['legacy']['goodput_rps']['mean']:.2f} req/s",
        f"  phi-accrual      : {g['phi']['repairs']} repairs, "
        f"{g['phi']['detections']} detections "
        f"(latency {g['phi']['detect_s']['mean']:.1f} s), "
        f"goodput {g['phi']['goodput_rps']['mean']:.2f} req/s",
        f"  phi catches what legacy misses: {g['phi_catches_gray']}",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The load-bearing assertions shared by pytest and the CI smoke."""
    n_seeds = len(section["seeds"])
    for name in MTTR_CAMPAIGNS:
        c = section["campaigns"][name]
        if c["unrepaired"] != 0:
            raise AssertionError(f"{name}: unrepaired faults")
        if c["mttr_s"]["n"] != n_seeds:
            raise AssertionError(
                f"{name}: MTTR over {c['mttr_s']['n']} of {n_seeds} seeds"
            )
        if not 0.0 < c["mttr_s"]["mean"] < 120.0:
            raise AssertionError(
                f"{name}: mean MTTR {c['mttr_s']['mean']} s outside (0, 120)"
            )
        if not c["availability"]["mean"] > 0.9:
            raise AssertionError(
                f"{name}: availability {c['availability']['mean']} not above 0.9"
            )
    g = section["gray_detection"]
    if not g["phi_catches_gray"]:
        raise AssertionError("phi detector failed to catch gray failure")
    if not g["phi"]["goodput_rps"]["mean"] > g["legacy"]["goodput_rps"]["mean"]:
        raise AssertionError(
            "phi detector did not raise goodput over the legacy heartbeat"
        )
