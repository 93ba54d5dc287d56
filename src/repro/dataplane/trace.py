"""Update-trace generation and (de)serialisation.

Table 2's "Update Generation" column for the trace settings reads: *"Insert
each rule in a sequence and then delete it in the same order from the
sequence"* — doubling the update count relative to the FIB scale.  This
module builds those sequences, plus interleavings that emulate update storms
(all devices bursting at once) and long-tail arrivals.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..errors import DataPlaneError
from ..headerspace.match import Match, Pattern
from .rule import Rule
from .update import RuleUpdate, UpdateOp, delete, insert


def insert_then_delete(
    rules_per_device: Dict[int, Sequence[Rule]],
) -> List[RuleUpdate]:
    """The Table-2 trace: insert every rule in sequence, then delete in order."""
    inserts: List[RuleUpdate] = []
    deletes: List[RuleUpdate] = []
    for device, rules in rules_per_device.items():
        for rule in rules:
            inserts.append(insert(device, rule))
            deletes.append(delete(device, rule))
    return inserts + deletes


def inserts_only(rules_per_device: Dict[int, Sequence[Rule]]) -> List[RuleUpdate]:
    """The Figure-6 storm: all rule insertions of all switches as one sequence."""
    return [
        insert(device, rule)
        for device, rules in rules_per_device.items()
        for rule in rules
    ]


def interleave_round_robin(
    per_device: Dict[int, Sequence[RuleUpdate]],
) -> List[RuleUpdate]:
    """Interleave per-device streams round-robin (a bursty multiplexed feed)."""
    iters = {d: iter(seq) for d, seq in per_device.items()}
    out: List[RuleUpdate] = []
    while iters:
        finished = []
        for d, it in iters.items():
            u = next(it, None)
            if u is None:
                finished.append(d)
            else:
                out.append(u)
        for d in finished:
            del iters[d]
    return out


def shuffled(
    updates: Sequence[RuleUpdate], seed: int = 0
) -> List[RuleUpdate]:
    """Deterministically shuffled copy of an update sequence."""
    out = list(updates)
    random.Random(seed).shuffle(out)
    return out


def long_tail_split(
    updates: Sequence[RuleUpdate],
    dampened_devices: Iterable[int],
) -> Tuple[List[RuleUpdate], List[RuleUpdate]]:
    """Split a trace into (prompt, delayed) parts by dampened device."""
    dampened = set(dampened_devices)
    prompt = [u for u in updates if u.device not in dampened]
    delayed = [u for u in updates if u.device in dampened]
    return prompt, delayed


# ----------------------------------------------------------------------
# Serialisation — keeps generated data planes reusable across runs.
# ----------------------------------------------------------------------

def _pattern_to_json(pattern: Pattern) -> List[List[int]]:
    return [[v, m] for v, m in pattern.ternaries]


def _pattern_from_json(data: List[List[int]]) -> Pattern:
    return Pattern(tuple((v, m) for v, m in data))


def update_to_json(update: RuleUpdate) -> str:
    payload = {
        "op": update.op.value,
        "device": update.device,
        "priority": update.rule.priority,
        "match": {
            f: _pattern_to_json(p) for f, p in update.rule.match.patterns.items()
        },
        "action": update.rule.action,
        "epoch": update.epoch,
    }
    return json.dumps(payload, separators=(",", ":"))


def update_from_json(line: str) -> RuleUpdate:
    payload = json.loads(line)
    match = Match(
        {f: _pattern_from_json(p) for f, p in payload["match"].items()}
    )
    action = payload["action"]
    if isinstance(action, list):
        action = tuple(action)
    rule = Rule(priority=payload["priority"], match=match, action=action)
    return RuleUpdate(
        UpdateOp(payload["op"]), payload["device"], rule, payload.get("epoch")
    )


def write_trace(path: str, updates: Iterable[RuleUpdate]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for u in updates:
            f.write(update_to_json(u) + "\n")
            count += 1
    return count


def read_trace(path: str) -> Iterator[RuleUpdate]:
    """Yield the updates of a JSON-lines trace file.

    A line that is not a well-formed update raises
    :class:`~repro.errors.DataPlaneError` naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    update = update_from_json(line)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise DataPlaneError(
                        f"{path}:{lineno}: malformed update "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc
                yield update
        except UnicodeDecodeError as exc:
            # Raised by the file iterator, a buffer at a time: the byte
            # offset in ``exc`` locates it, a line number would not.
            raise DataPlaneError(f"{path}: not UTF-8 text: {exc}") from exc
