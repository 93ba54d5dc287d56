"""Forwarding rules and actions (the forward-model vocabulary of §3.1).

A rule is ``(match, priority, action)``.  Actions are opaque hashables; the
library ships the conventions used throughout the reproduction:

* an ``int`` — forward to that neighbor device id (next hop);
* a sorted ``tuple`` of ints — ECMP over several next hops;
* :data:`DROP` — discard the packet.

:func:`next_hops_of` normalises any action into its next-hop tuple so graph
algorithms (loop detection, verification graphs) are action-representation
agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from ..headerspace.match import Match

Action = Hashable

DROP: Action = "DROP"

#: Priority reserved for the implicit default (wildcard) rule of a FIB.
DEFAULT_PRIORITY = -1


def ecmp(*next_hops: int) -> Action:
    """Build a canonical ECMP action over the given next hops."""
    hops = tuple(sorted(set(next_hops)))
    if not hops:
        return DROP
    if len(hops) == 1:
        return hops[0]
    return hops


def next_hops_of(action: Action) -> Tuple[int, ...]:
    """Next-hop device ids reachable under ``action`` (empty for DROP)."""
    if action == DROP or action is None:
        return ()
    if isinstance(action, int):
        return (action,)
    if isinstance(action, tuple):
        return action
    raise TypeError(f"unsupported action {action!r}")


@dataclass(frozen=True)
class Rule:
    """An immutable forwarding rule ⟨match, priority, action⟩."""

    priority: int
    match: Match
    action: Action

    def __post_init__(self) -> None:
        if self.priority < DEFAULT_PRIORITY:
            raise ValueError(f"priority {self.priority} below the default rule")

    @property
    def is_default(self) -> bool:
        return self.priority == DEFAULT_PRIORITY

    def __repr__(self) -> str:
        return f"Rule(pri={self.priority}, {self.match!r} -> {self.action!r})"


def default_rule(action: Action = DROP) -> Rule:
    """The implicit lowest-priority wildcard rule every FIB carries."""
    return Rule(priority=DEFAULT_PRIORITY, match=Match.wildcard(), action=action)
