"""``python -m benchmarks.layers`` — see :mod:`benchmarks.layers.run`."""

import sys

from benchmarks.layers.run import main

sys.exit(main())
