"""benchmarks/ab.py: a timing of two programs whose outputs differ is refused;
differing kernel counts are shown and warned about."""

import importlib.util
from pathlib import Path

import pytest

_AB = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _AB)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _runs(*digests: str, events: int = 1000, tombstones=1) -> list[dict]:
    return [
        {"ref_us_per_request": 30.0 + i, "peak_rss_mb": 40.0, "setup_s": 0.3,
         "digest": digest, "events": events, "tombstones": tombstones}
        for i, digest in enumerate(digests)
    ]


def test_matching_digests_pass():
    assert ab.digest_mismatch(ab.summarize(_runs("x", "x"), _runs("x", "x"))) is None


@pytest.mark.parametrize(
    "a, b, reason",
    [
        (("x", "y"), ("x", "x"), "a's runs disagree"),
        (("x", "x"), ("y", "x"), "b's runs disagree"),
        (("x", "x"), ("y", "y"), "the two sides' digests differ"),
    ],
)
def test_mismatched_digests_are_named(a, b, reason):
    assert reason in ab.digest_mismatch(ab.summarize(_runs(*a), _runs(*b)))


def test_mismatch_exits_1(monkeypatch, capsys):
    digests = iter(["x", "y"])

    def fake_worker(checkout, workload, seed):
        return _runs(next(digests))[0]

    monkeypatch.setattr(ab, "run_worker", fake_worker)
    assert ab.main([".", ".", "--workload", "ramp-fluid", "--pairs", "1"]) == 1
    assert "the two sides' digests differ" in capsys.readouterr().err


def test_counts_are_printed_and_differences_warned(monkeypatch, capsys):
    sides = iter([
        _runs("x", events=1000, tombstones=None)[0],
        _runs("x", events=990, tombstones=None)[0],
    ])
    monkeypatch.setattr(ab, "run_worker", lambda checkout, workload, seed: next(sides))
    assert ab.main([".", ".", "--workload", "federation-evac", "--pairs", "1"]) == 0
    out = capsys.readouterr()
    assert "   events               1000\n" in out.out
    assert "   events               990\n" in out.out
    assert "   tombstones           None\n" in out.out
    assert out.err.splitlines()[-1] == "warning: the two sides' events differ"


def test_equal_counts_warn_nothing():
    sides = ab.summarize(_runs("x", "x"), _runs("x", "x"))
    assert sides["a"]["events"] == [1000] and sides["a"]["tombstones"] == [1]
    assert ab.count_mismatch(sides) is None
    sides = ab.summarize(_runs("x", tombstones=1), _runs("x", tombstones=2))
    assert ab.count_mismatch(sides) == "the two sides' tombstones differ"
