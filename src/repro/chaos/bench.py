"""The ``"chaos"`` section of BENCH_engine.json (shared logic).

Runs the crash, fail-slow and correlated campaigns across seeds and
records MTTR / detection latency / availability with 95 % confidence
intervals, plus the gray-failure detection comparison (the legacy
``up``-flag heartbeat misses a crawling replica; the phi-accrual
detector repairs it).  ``repro bench --only chaos --smoke`` is the CI
gate (one seed).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.chaos import PRESETS, campaign_config, score_campaign

#: campaigns whose MTTR the committed report tracks with CIs
MTTR_CAMPAIGNS = ("crash", "fail-slow", "correlated")
#: campaign geometry: concurrent clients and run length (s)
CLIENTS = 60
DURATION_S = 420.0


def _runs(runner, campaign, seeds):
    runs = runner.run_seeds(
        lambda seed: campaign_config(
            campaign, seed=seed, clients=CLIENTS, duration_s=DURATION_S
        ),
        seeds,
        prefix=f"chaos-{campaign.name}-{campaign.detector}",
    )
    return [runs[s] for s in seeds]


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"chaos"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    from repro.runner import ExperimentRunner, ResultCache

    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    seeds = tuple(seeds)
    campaigns = {}
    for name in MTTR_CAMPAIGNS:
        campaign = PRESETS[name]()
        card = score_campaign(
            campaign, _runs(runner, campaign, seeds)
        )
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
        card = score_campaign(
            campaign, _runs(runner, campaign, seeds)
        )
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
        assert c["unrepaired"] == 0, f"{name}: unrepaired faults"
        assert c["mttr_s"]["n"] == n_seeds
        assert 0.0 < c["mttr_s"]["mean"] < 120.0
        assert c["availability"]["mean"] > 0.9
    g = section["gray_detection"]
    assert g["phi_catches_gray"], "phi detector failed to catch gray failure"
    assert g["phi"]["goodput_rps"]["mean"] > g["legacy"]["goodput_rps"]["mean"]
