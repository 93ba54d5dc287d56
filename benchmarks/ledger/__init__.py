"""The repo's one benchmark: four workloads, end-to-end metrics, a cost stack.

``python3 benchmarks/ledger/run.py`` (the ``BENCHMARK.json`` command) or
``PYTHONPATH=src python -m benchmarks.ledger``; see ``README.md`` here.
"""
