"""The ``federation`` section of BENCH_engine.json.

Headline: a 4-region federated Fig. 9 ramp runs at **near-linear
speedup** over executing the same 4 regions serially, with serial ==
parallel **byte-identical** per-region scorecards.

Speedup accounting (honest on any machine): the section records

* ``serial_elapsed_s`` / ``parallel_elapsed_s`` — measured wall-clock of
  both modes on the current machine, plus ``cores``;
* ``critical_path_s`` — the schedule-independent parallel cost from
  per-epoch CPU busy time measured inside each region's ``run_epoch``
  (busiest region per epoch + widest build/finish + coordinator
  routing);
* ``speedup`` = serial_elapsed / critical_path — the wall-clock ratio a
  machine with >= N cores achieves, deterministic by construction;
* ``speedup_measured`` = serial_elapsed / parallel_elapsed — what this
  machine actually got (≈1x on a single-core runner, approaching
  ``speedup`` as cores >= regions).

The committed gate asserts ``byte_identical`` and ``speedup >= 3.0`` on
4 regions.  The section also runs the two cross-region scenarios — a
2-region evacuation (the global LB drains the hit region and spills its
projected demand to the survivor) and a 3-region follow-the-sun cycle
(the demand peak walks around the federation) — and snapshots the
shared process pool's reuse counters (the spawn-overhead satellite).
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.federation.coordinator import run_federation
from repro.federation.spec import evacuation, follow_the_sun, global_ramp
from repro.runner.cache import ResultCache
from repro.runner.parallel import pool_stats

#: committed-gate geometry and floor (4-region full section)
REGIONS = 4
SCALE = 0.3
MIN_SPEEDUP = 3.0
#: smoke floor (2-region CI gate; shared runners jitter the per-epoch
#: busy maxima, so the floor sits well under the ~1.6x typically seen)
SMOKE_MIN_SPEEDUP = 1.3


# ----------------------------------------------------------------------
def _speedup_block(spec, use_cache: bool) -> dict:
    cache = ResultCache() if use_cache else None
    t0 = time.perf_counter()
    serial = run_federation(spec, parallel=False, cache=None)
    serial_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_federation(spec, parallel=True, cache=cache)
    parallel_elapsed = time.perf_counter() - t0
    critical_path = serial.critical_path_s()
    region_busy = {
        name: {
            "build_s": r.build_s,
            "epochs_busy_s": sum(r.epoch_busy_s),
            "finish_s": r.finish_s,
        }
        for name, r in sorted(serial.regions.items())
    }
    return {
        "regions": len(spec.regions),
        "epochs": spec.epochs,
        "epoch_s": spec.epoch_s,
        "seed": spec.seed,
        "serial_elapsed_s": serial_elapsed,
        "parallel_elapsed_s": parallel_elapsed,
        "parallel_mode": parallel.mode,
        "cores": os.cpu_count(),
        "critical_path_s": critical_path,
        "coordinator_busy_s": serial.coordinator_busy_s,
        "speedup": serial_elapsed / critical_path,
        "speedup_measured": serial_elapsed / parallel_elapsed,
        "byte_identical": (
            serial.scorecards_json() == parallel.scorecards_json()
        ),
        "updates_routed": serial.updates_routed,
        "region_busy": region_busy,
        "global": serial.summary(),
    }


def _evacuation_block(scale: float, seed: int) -> dict:
    spec = evacuation(regions=2, scale=scale, seed=seed)
    result = run_federation(spec, parallel=False)
    hit = spec.regions[0].name
    survivor = spec.regions[1].name
    hit_updates = result.regions[hit].updates_applied
    survivor_updates = result.regions[survivor].updates_applied
    drained = any(
        u.weight == 0.0 and u.reason == "evacuation" for u in hit_updates
    )
    spill_peak = max(
        (u.spill_clients for u in survivor_updates), default=0
    )
    hit_reports = result.regions[hit].reports
    drained_clients = hit_reports[-1].active_clients if hit_reports else -1
    return {
        "hit_region": hit,
        "survivor": survivor,
        "evacuate_at_s": spec.regions[0].evacuate_at_s,
        "drained": drained,
        "hit_final_active_clients": drained_clients,
        "survivor_spill_peak": spill_peak,
        "survivor_completed": result.regions[survivor].run.summary()[
            "completed"
        ],
        "global": result.summary(),
    }


def _follow_the_sun_block(scale: float, seed: int) -> dict:
    spec = follow_the_sun(regions=3, scale=scale, seed=seed)
    result = run_federation(spec, parallel=False)
    peak_epochs = {}
    for name, region in sorted(result.regions.items()):
        actives = [r.active_clients for r in region.reports]
        peak_epochs[name] = int(max(range(len(actives)), key=actives.__getitem__))
    return {
        "regions": len(spec.regions),
        "peak_epoch_by_region": peak_epochs,
        "distinct_peaks": len(set(peak_epochs.values())),
        "global": result.summary(),
    }


# ----------------------------------------------------------------------
def run_section(
    *,
    seeds: Sequence[int] = (1,),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """Build the BENCH_engine ``federation`` block on the first seed;
    ``smoke`` shrinks it to 2 regions at scale 0.1.  Serial and parallel
    always both run (the comparison *is* the benchmark), so ``parallel``
    changes nothing."""
    seed, regions, scale = seeds[0], REGIONS, SCALE
    if smoke:
        regions, scale = 2, min(scale, 0.1)
    spec = global_ramp(regions=regions, scale=scale, seed=seed)
    section = _speedup_block(spec, use_cache)
    section["scale"] = scale
    section["smoke"] = smoke
    section["evacuation"] = _evacuation_block(min(scale, 0.2), seed)
    section["follow_the_sun"] = _follow_the_sun_block(min(scale, 0.2), seed)
    section["pool"] = pool_stats()
    return section


def render_section(section: dict) -> str:
    lines = [
        "federation: "
        f"{section['regions']} regions x {section['epochs']} epochs "
        f"(epoch {section['epoch_s']:.0f}s, seed {section['seed']})",
        f"  serial   {section['serial_elapsed_s']:.2f}s wall",
        f"  parallel {section['parallel_elapsed_s']:.2f}s wall "
        f"({section['cores']} core(s), mode {section['parallel_mode']})",
        f"  critical path {section['critical_path_s']:.2f}s "
        f"-> speedup {section['speedup']:.2f}x on >= "
        f"{section['regions']} cores "
        f"(measured here: {section['speedup_measured']:.2f}x)",
        f"  byte-identical scorecards: {section['byte_identical']}",
        f"  evacuation: drained={section['evacuation']['drained']} "
        f"spill_peak={section['evacuation']['survivor_spill_peak']} "
        f"hit_final_clients="
        f"{section['evacuation']['hit_final_active_clients']}",
        f"  follow-the-sun: peak epochs "
        f"{section['follow_the_sun']['peak_epoch_by_region']}",
        f"  shared pool: {section['pool']['created']} created, "
        f"{section['pool']['reused']} reused "
        f"(~{section['pool']['est_spawn_saved_s'] * 1e3:.0f} ms spawn "
        "saved)",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The federation gate (committed report and CI smoke)."""
    floor = SMOKE_MIN_SPEEDUP if section["smoke"] else MIN_SPEEDUP
    if section["byte_identical"] is not True:
        raise AssertionError("serial and parallel federation scorecards diverged")
    if not section["speedup"] >= floor:
        raise AssertionError(
            f"critical-path speedup {section['speedup']:.2f}x below the "
            f"{floor:.1f}x floor"
        )
    evac = section["evacuation"]
    if evac["drained"] is not True:
        raise AssertionError("hit region was never evacuated")
    if evac["hit_final_active_clients"] != 0:
        raise AssertionError("evacuated region still had active clients at the end")
    if not evac["survivor_spill_peak"] > 0:
        raise AssertionError("survivor absorbed no spilled demand")
    fts = section["follow_the_sun"]
    if not fts["distinct_peaks"] >= 2:
        raise AssertionError("follow-the-sun peaks did not move across regions")
