"""``PYTHONPATH=src python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.harness`."""

import sys

from benchmarks.e2e.harness import main

sys.exit(main())
