#!/usr/bin/env python3
"""The ``BENCHMARK.json`` command: ``python3 benchmarks/ledger/run.py``.

Runs from the root of any checkout: puts the checkout root (for
``benchmarks.ledger``) and its ``src`` (for ``repro``) on ``sys.path``,
then hands over to :func:`benchmarks.ledger.cli.main`.  Also the entry
every round's fresh interpreter starts from (``--round``).
"""

import os
import sys
import time

_STARTED = time.perf_counter()  # a round's set-up time includes its imports

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Replace the script directory: the ledger's modules are imported as
# ``benchmarks.ledger.*`` only, never as top-level names.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != _HERE]
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks.ledger.cli import main  # noqa: E402 - needs the paths above

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED))
