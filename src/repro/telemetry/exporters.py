"""The JSON-lines exporter over telemetry snapshots.

:class:`JsonLinesExporter` writes one self-describing JSON object per
line (``record`` key discriminates), the format behind the CLI's
``--telemetry out.jsonl`` flag.  It accepts either a
:class:`~repro.telemetry.config.Telemetry` facade or a snapshot dict
already produced by one, so workers can export what crossed a process
boundary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from .config import Telemetry

Snapshot = Dict[str, Any]


def _coerce(source: Union[Telemetry, Snapshot]) -> Snapshot:
    if isinstance(source, Telemetry):
        return source.snapshot()
    return source


class JsonLinesExporter:
    """Append telemetry records to a JSON-lines file.

    Line grammar (one JSON object each):

    * ``{"record": "meta", ...}`` — one header per export call;
    * ``{"record": "counter"|"gauge", "name": ..., "value": ...}``;
    * ``{"record": "histogram", "name": ..., "bounds": [...], ...}``;
    * ``{"record": "span", "name": ..., "seconds": ...}``;
    * ``{"record": "report", ...}`` — verification reports, when given.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def export(
        self,
        source: Union[Telemetry, Snapshot],
        label: str = "",
        reports: Iterable[Any] = (),
    ) -> int:
        """Write one batch of records; returns the number of lines."""
        snap = _coerce(source)
        lines: List[str] = []

        def emit(payload: Dict[str, Any]) -> None:
            lines.append(json.dumps(payload, sort_keys=True, default=str))

        emit({"record": "meta", "label": label, "version": 1})
        metrics = snap.get("metrics", {})
        for name, value in metrics.get("counters", {}).items():
            emit({"record": "counter", "name": name, "value": value})
        for name, value in metrics.get("gauges", {}).items():
            emit({"record": "gauge", "name": name, "value": value})
        for name, payload in metrics.get("histograms", {}).items():
            emit({"record": "histogram", "name": name, **payload})
        for span in snap.get("spans", []):
            emit({"record": "span", **span})
        for report in reports:
            body = report.as_dict() if hasattr(report, "as_dict") else report
            emit({"record": "report", **body})
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        return len(lines)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSON-lines telemetry file back into records (for tests)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
