"""Run the benchmark by file path, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload ramp-fluid --seed 2 --seconds 20 --trace 0

Same command line as ``python -m benchmarks.e2e``.
"""

import sys
from pathlib import Path

# Import the harness as a package from the repository root; the script's
# own directory must not stay first on the path, where ``trace.py`` would
# shadow the standard library module of that name.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.harness import main  # noqa: E402

sys.exit(main())
