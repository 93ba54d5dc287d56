"""Centralized convergence detection for vector protocols (Appendix D.1).

Each FIB update batch from a BGP-style router carries causal metadata: the
message that directly caused it and the messages sent as immediate
consequence.  The detector runs Dijkstra–Scholten-style termination
detection per *root event*: an event's wave has converged exactly when
every emitted message has been consumed.  Updates of one root event then
form a consistent model, playing the role the epoch tag plays for
sync-state protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..dataplane.update import RuleUpdate
from ..errors import DispatchError


@dataclass
class EventState:
    """Bookkeeping for one root event's message wave."""

    root: int
    outstanding: Set[int] = field(default_factory=set)
    consumed: Set[int] = field(default_factory=set)
    updates: List[RuleUpdate] = field(default_factory=list)
    devices: Set[int] = field(default_factory=set)
    records: int = 0
    converged: bool = False


class CausalConvergenceDetector:
    """Groups FIB updates by root event and detects quiescence."""

    def __init__(
        self,
        on_converged: Optional[Callable[[EventState], None]] = None,
    ) -> None:
        self.events: Dict[int, EventState] = {}
        self.on_converged = on_converged

    def observe(self, record) -> Optional[EventState]:
        """Feed one :class:`~repro.routing.bgp.CausalRecord`.

        Returns the event state if this record completed the wave.
        """
        state = self.events.setdefault(record.root_event, EventState(record.root_event))
        if state.converged:
            raise DispatchError(
                f"event {record.root_event} already converged; "
                "late record indicates a lost or reordered message"
            )
        state.records += 1
        state.devices.add(record.device)
        state.updates.extend(record.updates)
        for msg in record.consumed:
            if msg in state.outstanding:
                state.outstanding.remove(msg)
            else:
                # Consumption may be reported before we saw the emission
                # (reordered reports): remember it.
                state.consumed.add(msg)
        for msg in record.emitted:
            if msg in state.consumed:
                state.consumed.remove(msg)
            else:
                state.outstanding.add(msg)
        if not state.outstanding and not state.consumed:
            state.converged = True
            if self.on_converged is not None:
                self.on_converged(state)
            return state
        return None

    # -- queries -----------------------------------------------------------
    def is_converged(self, root: int) -> bool:
        state = self.events.get(root)
        return state is not None and state.converged

    def pending_events(self) -> List[int]:
        return [r for r, s in self.events.items() if not s.converged]

    def updates_of(self, root: int) -> List[RuleUpdate]:
        state = self.events.get(root)
        if state is None:
            raise DispatchError(f"unknown event {root}")
        return list(state.updates)
