"""Lock of the grids ``repro tune`` and ``repro sweep`` enumerate.

A tune cell is a sweep cell (:mod:`repro.policy.tune` scores a
:class:`~repro.runner.sweep.SweepSpec`).  These values were recorded
while the tuner still had its own point and grid types, so they pin what
the fold must not move: the CLI's default tune grid (its 32 cells' knob
tuples, in ranking tie-break order, and each cell's seed-1 config
digest), the cells a random subsample draws, and the labels and digests
of the ``make sweep-demo`` grid and of the engine benchmark's sweep
section.  A digest is :meth:`ResultCache.key_for` under a fixed code
fingerprint, so it moves with the experiment a cell describes and not
with unrelated source edits.
"""

from __future__ import annotations

import pytest

from repro.cli import _sweep_spec, build_parser
from repro.policy.tune import tune_cells
from repro.runner.cache import ResultCache
from repro.runner.sweep import SweepSpec

#: (app_max, app_min, db_max, db_min, window_scale, inhibition_s) ->
#: seed-1 key prefix, in the CLI default grid's order
TUNE_GRID = [
    ((0.7, 0.38, 0.65, 0.4, 1.0, 30.0), "d0e8f54637171fe2"),
    ((0.7, 0.38, 0.65, 0.4, 1.0, 60.0), "8b00b166f894fe45"),
    ((0.7, 0.38, 0.65, 0.45, 1.0, 30.0), "eaad61053312bcdc"),
    ((0.7, 0.38, 0.65, 0.45, 1.0, 60.0), "8738c0ae51959a20"),
    ((0.7, 0.38, 0.75, 0.4, 1.0, 30.0), "346752b68d683dca"),
    ((0.7, 0.38, 0.75, 0.4, 1.0, 60.0), "cd53d44ccc904bf5"),
    ((0.7, 0.38, 0.75, 0.45, 1.0, 30.0), "db80ffc5cfbde010"),
    ((0.7, 0.38, 0.75, 0.45, 1.0, 60.0), "b2df4555ee968fc0"),
    ((0.7, 0.45, 0.65, 0.4, 1.0, 30.0), "bae96c3bae6f1777"),
    ((0.7, 0.45, 0.65, 0.4, 1.0, 60.0), "94ef6add191d0d0b"),
    ((0.7, 0.45, 0.65, 0.45, 1.0, 30.0), "c81c8c97f4ab8de2"),
    ((0.7, 0.45, 0.65, 0.45, 1.0, 60.0), "700d8ec99c5acef6"),
    ((0.7, 0.45, 0.75, 0.4, 1.0, 30.0), "c95bab9ae4729f88"),
    ((0.7, 0.45, 0.75, 0.4, 1.0, 60.0), "8e0a76d1f7f7d9b4"),
    ((0.7, 0.45, 0.75, 0.45, 1.0, 30.0), "9dac18edfee10cc9"),
    ((0.7, 0.45, 0.75, 0.45, 1.0, 60.0), "9dfa9ef213c22d13"),
    ((0.8, 0.38, 0.65, 0.4, 1.0, 30.0), "782dda024f7065d5"),
    ((0.8, 0.38, 0.65, 0.4, 1.0, 60.0), "9db72e6dbddc89ad"),
    ((0.8, 0.38, 0.65, 0.45, 1.0, 30.0), "411ff13b8d25ef64"),
    ((0.8, 0.38, 0.65, 0.45, 1.0, 60.0), "d45d7dc559990d81"),
    ((0.8, 0.38, 0.75, 0.4, 1.0, 30.0), "13d00a556ac44242"),
    ((0.8, 0.38, 0.75, 0.4, 1.0, 60.0), "9aef0b2180d5261d"),
    ((0.8, 0.38, 0.75, 0.45, 1.0, 30.0), "111f57374fac42fc"),
    ((0.8, 0.38, 0.75, 0.45, 1.0, 60.0), "d31c635724ea5885"),
    ((0.8, 0.45, 0.65, 0.4, 1.0, 30.0), "06f9d499aa39d1da"),
    ((0.8, 0.45, 0.65, 0.4, 1.0, 60.0), "e78eaf49c2def1c7"),
    ((0.8, 0.45, 0.65, 0.45, 1.0, 30.0), "511782869df8b4c0"),
    ((0.8, 0.45, 0.65, 0.45, 1.0, 60.0), "a80993fea5eda12d"),
    ((0.8, 0.45, 0.75, 0.4, 1.0, 30.0), "d2a468548c19d0b2"),
    ((0.8, 0.45, 0.75, 0.4, 1.0, 60.0), "fac88dc98dbe3ee8"),
    ((0.8, 0.45, 0.75, 0.45, 1.0, 30.0), "770e6603d2733eed"),
    ((0.8, 0.45, 0.75, 0.45, 1.0, 60.0), "7bd663178bd46262"),
]

#: the knob tuples ``--samples 5`` draws from the default grid, in order
SAMPLED = [
    (0.8, 0.45, 0.65, 0.4, 1.0, 30.0),
    (0.8, 0.45, 0.65, 0.45, 1.0, 30.0),
    (0.7, 0.38, 0.65, 0.45, 1.0, 30.0),
    (0.8, 0.38, 0.65, 0.4, 1.0, 30.0),
    (0.8, 0.45, 0.75, 0.45, 1.0, 60.0),
]

#: ``make sweep-demo`` (scale 0.1) and the benchmark's sweep (scale
#: 0.05): label -> key prefix, in row order
SWEEP_GRIDS = {
    0.1: [
        ("static-s1-x0.1-c1", "e0434c65c1c34dc6"),
        ("static-s2-x0.1-c1", "5123037f618d08d4"),
        ("managed-s1-x0.1-c1", "f3e1d56f6f316a2e"),
        ("managed-s2-x0.1-c1", "6387d55b45f81a8d"),
    ],
    0.05: [
        ("static-s1-x0.05-c1", "b859aae107c3f30a"),
        ("static-s2-x0.05-c1", "320d63c265fe09c1"),
        ("managed-s1-x0.05-c1", "97771b70af30e6bc"),
        ("managed-s2-x0.05-c1", "c23a4ac77c1e7d1b"),
    ],
}


def key(config, tmp_path) -> str:
    return ResultCache(root=tmp_path).key_for(config, fingerprint="lock")[:16]


def knobs(point) -> tuple:
    return (
        point.app_max, point.app_min, point.db_max, point.db_min,
        point.window_scale, point.inhibition_s,
    )


def cli_tune_spec() -> SweepSpec:
    """The grid ``repro tune`` runs with every option at its default."""
    args = build_parser().parse_args(["tune"])
    return _sweep_spec(args, scales=(args.scale,), policies=("managed",))


def test_cli_default_tune_grid_is_locked(tmp_path):
    cells = tune_cells(cli_tune_spec())
    assert [len(cell) for cell in cells] == [3] * 32  # seeds 1, 2, 3
    assert [
        (knobs(cell[0]), key(cell[0].config(), tmp_path)) for cell in cells
    ] == TUNE_GRID
    assert all(cell[0].seed == 1 for cell in cells)
    assert all(cell[0].controller == "default" for cell in cells)


def test_tune_subsample_draws_the_locked_cells():
    cells = tune_cells(cli_tune_spec(), samples=5)
    assert [knobs(cell[0]) for cell in cells] == SAMPLED


@pytest.mark.parametrize("scale", sorted(SWEEP_GRIDS))
def test_sweep_grid_is_locked(scale, tmp_path):
    spec = SweepSpec(
        seeds=(1, 2), scales=(scale,), policies=("static", "managed")
    )
    assert [
        (point.label, key(point.config(), tmp_path)) for point in spec.grid()
    ] == SWEEP_GRIDS[scale]
