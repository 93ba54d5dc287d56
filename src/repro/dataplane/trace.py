"""Update-trace generation and (de)serialisation.

Table 2's "Update Generation" column for the trace settings reads: *"Insert
each rule in a sequence and then delete it in the same order from the
sequence"* — doubling the update count relative to the FIB scale.  This
module builds those sequences, plus interleavings that emulate update storms
(all devices bursting at once) and long-tail arrivals.  It also holds the
one JSON codec for rules and updates, which trace files and fuzz scenarios
share.
"""

from __future__ import annotations

import json
import random
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import DataPlaneError
from ..headerspace.match import Match, Pattern
from .rule import DROP, Action, Rule, ecmp
from .update import EpochTag, RuleUpdate, UpdateOp, delete, insert


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


def shuffled(
    updates: Sequence[RuleUpdate], seed: int = 0
) -> List[RuleUpdate]:
    """Deterministically shuffled copy of an update sequence."""
    out = list(updates)
    random.Random(seed).shuffle(out)
    return out


# ----------------------------------------------------------------------
# The JSON codec for matches, actions, rules and updates.  Trace lines
# and fuzz scenarios both go through it; the decoder is the one place a
# rule from outside the program is checked and brought to canonical form.
# ----------------------------------------------------------------------

def match_to_json(match: Match) -> Dict[str, List[List[int]]]:
    return {
        f: [[v, m] for v, m in p.ternaries] for f, p in match.patterns.items()
    }


#: Canonical ternaries per field, sorted by field name: one key per
#: distinct match, whatever the JSON's key order or spelling.
MatchKey = Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]


def match_from_json(
    data: Dict[str, Any], interned: Optional[Dict[MatchKey, Match]] = None
) -> Match:
    """Decode a match: per field, a list of ``[value, mask]`` ternaries.

    Each ternary is brought to canonical form ``(value & mask, mask)``
    and each field's list is sorted and deduplicated, so one set of
    headers has one spelling.  With ``interned`` (one dict per trace
    being read), equal matches decode to the same :class:`Match` object;
    every ternary is checked before the look-up.
    """
    fields = [(f, _ternaries(p)) for f, p in data.items()]
    fields.sort()
    key = tuple(fields)
    if interned is None:
        interned = {}
    match = interned.get(key)
    if match is None:
        match = interned[key] = Match({f: Pattern(t) for f, t in key})
    return match


def _ternaries(data: List[Any]) -> Tuple[Tuple[int, int], ...]:
    out = []
    for value, mask in data:
        # ``type(...) is int`` also turns away bools, which JSON keeps apart.
        if (
            type(value) is not int
            or type(mask) is not int
            or value < 0
            or mask < 0
        ):
            raise DataPlaneError(
                f"ternary {json.dumps([value, mask])} is not two "
                f"non-negative integers"
            )
        out.append((value & mask, mask))
    return tuple(out) if len(out) < 2 else tuple(sorted(set(out)))


def _integer(value: Any, what: str) -> int:
    if type(value) is int:
        return value
    raise DataPlaneError(f"{what} {json.dumps(value)} is not an integer")


def action_from_json(data: Any) -> Action:
    """Decode an action: a next hop, ``"DROP"`` or a list of next hops.

    An ECMP list comes back in :func:`~repro.dataplane.rule.ecmp`'s
    canonical form, so ``[2, 1]`` and ``[1, 2]`` are one action and
    ``[3]`` is ``3`` (Definition 6: action vectors are unique).
    """
    if type(data) is int:
        return data
    if data == DROP:
        return DROP
    if type(data) is list:
        last = None
        canonical = len(data) > 1
        for hop in data:
            _integer(hop, "next hop")
            if last is not None and hop <= last:
                canonical = False
            last = hop
        return tuple(data) if canonical else ecmp(*data)
    raise DataPlaneError(
        f"action {json.dumps(data)} is not a next hop, "
        f"{json.dumps(DROP)} or a list of next hops"
    )


def rule_to_json(rule: Rule) -> Dict[str, Any]:
    action = rule.action
    return {
        "priority": rule.priority,
        "match": match_to_json(rule.match),
        "action": list(action) if isinstance(action, tuple) else action,
    }


def rule_from_json(
    data: Dict[str, Any], interned: Optional[Dict[MatchKey, Match]] = None
) -> Rule:
    return Rule(
        _integer(data["priority"], "priority"),
        match_from_json(data["match"], interned),
        action_from_json(data["action"]),
    )


#: ``op`` field -> :class:`UpdateOp` (a dict probe, not an Enum call a line).
_OPS = {op.value: op for op in UpdateOp}


def decode_update(
    head: Dict[str, Any],
    rule: Dict[str, Any],
    epoch: Optional[EpochTag],
    interned: Optional[Dict[MatchKey, Match]] = None,
) -> RuleUpdate:
    """An update from its ``op`` / ``device`` fields and its rule's fields
    (one object in a trace line, nested objects in a fuzz scenario)."""
    op = _OPS.get(head["op"])
    if op is None:
        raise DataPlaneError(
            f"op {json.dumps(head['op'])} is not one of {sorted(_OPS)}"
        )
    return RuleUpdate(
        op,
        _integer(head["device"], "device"),
        rule_from_json(rule, interned),
        epoch,
    )


def update_to_json(update: RuleUpdate) -> str:
    payload = {
        "op": update.op.value,
        "device": update.device,
        **rule_to_json(update.rule),
        "epoch": update.epoch,
    }
    return json.dumps(payload, separators=(",", ":"))


def update_from_json(
    line: str, interned: Optional[Dict[MatchKey, Match]] = None
) -> RuleUpdate:
    payload = json.loads(line)
    return decode_update(payload, payload, payload.get("epoch"), interned)


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
    :class:`~repro.errors.DataPlaneError` naming ``path:lineno``.  Equal
    matches in one file decode to one :class:`Match` object; the intern
    table lives as long as this reader.
    """
    interned: Dict[MatchKey, Match] = {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    update = update_from_json(line, interned)
                except DataPlaneError as exc:
                    raise DataPlaneError(f"{path}:{lineno}: {exc}") from exc
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
