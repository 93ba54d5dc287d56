"""``PYTHONPATH=src python -m benchmarks.ledger`` — see ``cli.py``."""

import sys
import time

_STARTED = time.perf_counter()

from .cli import main  # noqa: E402 - the clock above must start first

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED))
