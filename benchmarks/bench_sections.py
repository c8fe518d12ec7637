"""The subsystem sections of BENCH_engine.json as pytest benchmarks.

One case per ``repro bench`` section with a CI gate (chaos, deploy,
market, fluid, policy, federation): the section at its committed size,
its render written to ``benchmarks/results/<name>.txt``, then its
assertions.  ``repro bench --only NAME --smoke`` is the same gate at CI
size; ``repro bench --only NAME --out BENCH_engine.json`` re-records it.
"""

from __future__ import annotations

import pytest

from repro.runner.bench import SECTIONS

GATED = [name for name, s in SECTIONS.items() if s.check_section is not None]


@pytest.mark.parametrize("name", GATED)
def bench_section(benchmark, name):
    from benchmarks._shared import emit  # pytest puts the rootdir on sys.path

    section = SECTIONS[name]
    block = benchmark.pedantic(section.run_section, rounds=1, iterations=1)
    emit(name, section.render_section(block))
    section.check_section(block)
