"""Behaviour lock of the deploy path.

No end-to-end benchmark workload runs a bounce, a canary or a rolling
rebind, so these values pin that code instead: for seed 1, 120 clients
and 540 s, every deploy preset, three more clean-bounce strategies and
two bounces that fail for want of a spare node must reproduce the
collector digest, the kernel's event and tail-dispatch counts, and the
deploy manager's distilled event log, capacity timeline and verdict,
byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.deploy.scenario import PRESETS, deploy_config, with_strategy
from repro.jade.system import ManagedSystem
from tests.conftest import collector_digest

#: run -> (collector digest, events processed, tail dispatched,
#: sha256 of repr((events, capacity)), verdict, reason)
LOCK = {
    "clean-push": (
        "37aafcdf7872f3d1ab21a3039ed95f89e9267cda166e68a3f2811a0a38c05d29",
        91060, 77218,
        "2e95095448ff3b3ca67e665861f3ec5102b1a61ae2b00b286179b0bd0b1a28f1",
        "promoted", "slo-ok",
    ),
    "bad-push": (
        "90445e4c79e62a042908ad00ec9adbc025849f404b9c831b0d520afde3b417a3",
        90454, 76338,
        "4589b4ff5093a0f3d38918c63b8b154021616bdecd8bf55f07e955afe28af0ae",
        "rolled-back", "error-delta",
    ),
    "clean-bounce": (
        "36473537019fd2aff4bdf0d983a9d749a11c8697fd27caa280ff0919c650c83f",
        90957, 77182,
        "71972c3b7e1cf57ddc0ccc6fb0159d7002bac959ed5e38ab9e8a5d9adeaaa543",
        "promoted", "no-canary",
    ),
    "flash-crowd": (
        "0ac0e2d153456c1bccbccf1f9feb376bca5303e40b613754123975d740fe4fd7",
        101776, 85814,
        "52596f4590c6b6d02aea7af5a9ee5331357baa2a2fcd00b2fd79fe2241962719",
        "promoted", "no-canary",
    ),
    "crash-mid-bounce": (
        "e0629814b2d03cb4b22d01ead44c67664b285daea4c41d5f2ae3159a86168f08",
        92276, 76331,
        "3c391a5d053071f66447b3e2d594cc651b8f53d68e3a6cd086a69453fd2b4c34",
        "promoted", "no-canary",
    ),
    "clean-bounce/brutal": (
        "bdeb485daf61bd7a2c98eb54a8f1bd10e2110dd28462c189405a13a7a34867b1",
        90616, 76770,
        "91654bdd20aa524f9c3ef267bf93f85c621252b46d4c590c257ab9957cff4005",
        "promoted", "no-canary",
    ),
    "clean-bounce/downthenup": (
        "3607432bdaf14a463d505e143ef04023f9514dfcc02522695109b1e590f02d49",
        91028, 77186,
        "f5ff050bc9daea29c6b7487f94b8f5b3c651a5586ad2f0f20ccec0c04dad1041",
        "promoted", "no-canary",
    ),
    "clean-bounce/upthendown": (
        "c0987f13ecf76dd01922e52a31e909cc2ca44ef56ecec6ebb6d0c39420fcb347",
        90989, 77192,
        "ad1dede25ec34031c6d0c9b3dc487e2f74895d713d965fad1973823f15f899af",
        "promoted", "no-canary",
    ),
    # No spare node: the versioned grow is refused 120 times and the
    # bounce fails ("grow never started") at t=300 and t=308.
    "clean-bounce@6": (
        "918f175495535772aaa6bb78c47f97a008796b7ee9429bd1caea86ee36635df6",
        91137, 77170,
        "f021a593e47d925bf6dacf2021f6822a080eada036d0349fda5b85b4ed2de94a",
        "promoted", "no-canary",
    ),
    "clean-bounce/upthendown@7": (
        "92c7404a3c20762b78d892e75f5e44a93e62ad7d183b14c1117d41c121e776eb",
        90898, 77190,
        "44cedb3438c084876f75a49ac7d427d82fed5c5a763a721a6eb311281d67f2ab",
        "promoted", "no-canary",
    ),
}


def build(run: str) -> ManagedSystem:
    """A fresh system for ``run``: "preset", "preset/strategy", or either
    with "@N" for a pool of N nodes."""
    run, _, pool = run.partition("@")
    name, _, strategy = run.partition("/")
    scenario = PRESETS[name]()
    if strategy:
        scenario = with_strategy(scenario, strategy)
    config = deploy_config(scenario, seed=1, clients=120, duration_s=540.0)
    if pool:
        config = dataclasses.replace(config, pool_nodes=int(pool))
    return ManagedSystem(config)


def observed(system: ManagedSystem, collector) -> tuple:
    """The locked values of a finished run, in :data:`LOCK`'s layout."""
    stats = system.deploy.distill()
    log = repr((stats.events, stats.capacity)).encode()
    return (
        collector_digest(collector),
        system.kernel.events_processed,
        system.kernel.tail_dispatched,
        hashlib.sha256(log).hexdigest(),
        stats.verdict,
        stats.reason,
    )


@pytest.mark.parametrize("run", sorted(LOCK))
def test_deploy_run_is_locked(run):
    system = build(run)
    assert observed(system, system.run()) == LOCK[run]
