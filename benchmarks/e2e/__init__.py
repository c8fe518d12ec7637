"""End-to-end benchmark of the Jade reproduction: host cost of the four
canonical runs, a per-layer profile, and committed output digests.

Run ``PYTHONPATH=src python -m benchmarks.e2e --help`` (or
``python3 benchmarks/e2e/run.py --help``); see ``README.md`` here.

Importing this package must stay cheap and must not import ``repro``:
the harness process only orchestrates, every measured run is a fresh
subprocess (:mod:`benchmarks.e2e.worker`).
"""
