"""The ledger's own arithmetic: percentiles, spreads, bound comparison.

Everything here is pure (no clock, no ``repro`` import) so the unit tests
under ``benchmarks/ledger/tests`` can pin it down exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the ledger is willing to report, lowest first.
CANDIDATE_PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only trusted with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples (rounded
    first, so that 99.9 % of 10,000 is 9,990 and not 9,990.000000000002)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p % at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank p."""
    return n - _rank(n, p) if n else 0


def highest_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 of ``n`` samples beyond it."""
    best = None
    for p in CANDIDATE_PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Per-round raw values plus the median and quartiles the ledger reports."""
    q1, q2, q3 = quartiles(values)
    return {
        "rounds": list(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
    }


def worsening(parent: float, change: float, better: str) -> float:
    """Share of ``parent`` by which ``change`` is worse (negative = better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_metric(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """Classify run set ``b`` against ``a`` for one (metric, workload) pair.

    * ``unresolved`` — either side's spread is wider than the bound, unless
      every run of one side beats every run of the other (then that
      direction is reported);
    * ``regressed`` — ``b``'s median is worse than ``a``'s by more than the
      bound;
    * ``improved`` — ``b``'s median is better by more than ``a``'s own
      inter-quartile distance (and by more than nothing);
    * ``unchanged`` otherwise.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = worsening(med_a, med_b, better)
    if max(spread(a), spread(b)) > bound:
        signed_a = [v if better == "lower" else -v for v in a]
        signed_b = [v if better == "lower" else -v for v in b]
        if max(signed_b) < min(signed_a):
            return "improved"
        if min(signed_b) > max(signed_a) and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    q1, _, q3 = quartiles(a)
    noise = (q3 - q1) / abs(med_a) if med_a else 0.0
    if -worse > noise and worse < 0:
        return "improved"
    return "unchanged"


def compare_results(
    a: Dict[str, object], b: Dict[str, object], metrics: Sequence[Dict[str, object]]
) -> List[Tuple[str, str, str, float, float]]:
    """Rows of (workload, metric, status, median_a, median_b) for two result
    files (the dicts ``run_ledger`` writes), over the given end-to-end
    metric specs (``name``/``better``/``bound``)."""
    if a.get("mode") != b.get("mode"):
        raise ValueError(
            f"refusing to compare a {a.get('mode')!r} run with a "
            f"{b.get('mode')!r} run"
        )
    rows = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for spec in metrics:
            name = spec["name"]
            ra = wa["end_to_end"].get(name)
            rb = wb["end_to_end"].get(name)
            if ra is None or rb is None:
                continue
            status = compare_metric(
                ra["rounds"], rb["rounds"], spec["better"], spec["bound"]
            )
            rows.append((workload, name, status, ra["median"], rb["median"]))
    return rows
