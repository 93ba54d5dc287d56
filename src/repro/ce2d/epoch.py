"""Epoch tracking (§4.1): happens-before and the active set.

Flash differentiates rule updates computed from different network states by
epoch tags.  Message delivery between a device's agent and the dispatcher is
serialised, so observing tag ``t2`` after ``t1`` on the *same* device proves
``t1 ≺ t2`` — ``t1`` can no longer be the converged state.  The tracker
maintains, per device, the most recent tag, plus the *active set* of epochs
with no known successor: the potential converged states.
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional, Set

from ..dataplane.update import EpochTag


class EpochTracker:
    """Happens-before bookkeeping over epoch tags."""

    def __init__(self) -> None:
        self._latest: Dict[int, EpochTag] = {}
        # In first-observation order (a dict, not a set): what iterates
        # the active epochs must not depend on the hash seed.
        self._active: Dict[EpochTag, None] = {}
        self._inactive: Set[EpochTag] = set()

    # -- events ---------------------------------------------------------
    def observe(self, device: int, tag: EpochTag) -> bool:
        """Record that ``device`` reported updates for ``tag``.

        Returns True when the observation changed the active set (a new
        potential converged state appeared or an old one died).
        """
        old = self._latest.get(device)
        if old == tag:
            return False
        changed = False
        if old is not None:
            # old ≺ tag on this device: old can never converge.
            if old in self._active:
                del self._active[old]
                changed = True
            self._inactive.add(old)
        self._latest[device] = tag
        if tag not in self._inactive and tag not in self._active:
            self._active[tag] = None
            changed = True
        return changed

    # -- queries -----------------------------------------------------------
    def is_active(self, tag: EpochTag) -> bool:
        return tag in self._active

    def is_inactive(self, tag: EpochTag) -> bool:
        return tag in self._inactive

    def active_tags(self) -> KeysView[EpochTag]:
        """A snapshot of the active set, oldest (first observed) first."""
        return dict(self._active).keys()

    def latest_of(self, device: int) -> Optional[EpochTag]:
        return self._latest.get(device)

    def devices_at(self, tag: EpochTag) -> List[int]:
        """Devices whose most recent tag is ``tag``."""
        return [d for d, t in self._latest.items() if t == tag]

    def __repr__(self) -> str:
        return (
            f"EpochTracker(active={sorted(map(str, self._active))}, "
            f"devices={len(self._latest)})"
        )
