"""Seeded fault injection over rule-update streams.

A :class:`FaultInjector` wraps any sequence of
:class:`~repro.dataplane.update.RuleUpdate` and perturbs it with the
agent faults long churny traces actually exhibit (the Delta-net and
APKeep evaluations report the same classes): duplicate inserts and
deletes, deletes of never-installed rules, reordered and delayed
("dropped then retransmitted") updates, stale/regressing epoch tags, and
truncated batches that the agent retries in full.  Fault rates come from
a named, composable :class:`FaultProfile`.

**The self-healing construction.**  Every fault here is *recoverable by
validation*: under supervised ingestion
(:mod:`repro.resilience.validator`) the final installed state of each
``(device, rule)`` key depends only on the last valid operation on that
key, and each fault preserves per-key operation order —

* duplicates and stale-epoch copies are emitted adjacent to their
  original, before any later same-key operation;
* reordering and redelivery only commute updates with *different* keys;
* phantom deletes target keys with no installed state, so dropping them
  is a no-op;
* a truncated batch is retried in full, and replaying a validated
  prefix then the full batch lands on the full batch's final state.

A faulty stream therefore converges to the clean stream's data plane —
the property ``repro fuzz --chaos`` asserts against the brute-force
oracle.  A genuinely *lost* update is indistinguishable from operator
intent and is deliberately out of scope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dataplane.rule import Rule
from ..dataplane.update import EpochTag, RuleUpdate, UpdateOp
from ..errors import ReproError

#: Fault-rate field names, in the order they appear on :class:`FaultProfile`.
FAULT_KINDS = (
    "duplicate_insert",
    "duplicate_delete",
    "phantom_delete",
    "reorder",
    "redeliver",
    "stale_epoch",
    "truncate",
)


@dataclass(frozen=True)
class FaultProfile:
    """Per-update probabilities of each fault kind.

    Profiles compose with ``|`` (rate-wise maximum), so
    ``PROFILES["duplicates"] | PROFILES["reorder"]`` is a profile that
    injects both fault classes.
    """

    name: str
    duplicate_insert: float = 0.0
    duplicate_delete: float = 0.0
    phantom_delete: float = 0.0
    reorder: float = 0.0
    redeliver: float = 0.0
    stale_epoch: float = 0.0
    truncate: float = 0.0

    def rates(self) -> Dict[str, float]:
        return {kind: getattr(self, kind) for kind in FAULT_KINDS}

    def combine(self, other: "FaultProfile", name: Optional[str] = None) -> "FaultProfile":
        """The rate-wise maximum of two profiles."""
        merged = {
            kind: max(getattr(self, kind), getattr(other, kind))
            for kind in FAULT_KINDS
        }
        return FaultProfile(name=name or f"{self.name}+{other.name}", **merged)

    def __or__(self, other: "FaultProfile") -> "FaultProfile":
        return self.combine(other)


#: Named profiles, one per fault family plus the all-of-the-above mix.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "duplicates": FaultProfile(
        "duplicates", duplicate_insert=0.25, duplicate_delete=0.35
    ),
    "phantoms": FaultProfile("phantoms", phantom_delete=0.25),
    "reorder": FaultProfile("reorder", reorder=0.35),
    "redeliver": FaultProfile("redeliver", redeliver=0.25),
    "stale-epochs": FaultProfile("stale-epochs", stale_epoch=0.25),
    "truncation": FaultProfile("truncation", truncate=0.12),
    "mixed": FaultProfile(
        "mixed",
        duplicate_insert=0.12,
        duplicate_delete=0.15,
        phantom_delete=0.1,
        reorder=0.15,
        redeliver=0.1,
        stale_epoch=0.1,
        truncate=0.06,
    ),
}


def fault_profile(name: str) -> FaultProfile:
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ReproError(
            f"unknown fault profile {name!r}; pick from {sorted(FAULT_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector introduced, for chaos debugging."""

    kind: str
    index: int  # position in the *faulty* output stream
    update: RuleUpdate
    note: str = ""

    def __repr__(self) -> str:
        note = f" ({self.note})" if self.note else ""
        return f"InjectedFault({self.kind} @{self.index}: {self.update!r}{note})"


def stale_epoch_tag(epoch: EpochTag) -> EpochTag:
    """The synthetic predecessor tag stale-epoch copies are stamped with."""
    return f"stale<{epoch}"


_KeyState = Dict[Tuple[int, Rule], bool]  # (device, rule) -> installed?


class FaultInjector:
    """Deterministically perturb an update stream per a fault profile.

    ``inject()`` is a pure function of ``(profile, seed, stream)``; the
    faults it introduced are recorded on :attr:`injected` so chaos
    reports can name them.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        if isinstance(profile, str):
            profile = fault_profile(profile)
        self.profile = profile
        self.seed = seed
        self.injected: List[InjectedFault] = []

    # ------------------------------------------------------------------
    def inject(self, updates: Sequence[RuleUpdate]) -> List[RuleUpdate]:
        """Return the faulty stream for one clean update stream."""
        rng = random.Random((self.seed << 20) ^ 0xFA017 ^ len(updates))
        self.injected = []
        stream = self._noise_pass(list(updates), rng)
        stream = self._truncate_pass(stream, rng)
        stream = self._reorder_pass(stream, rng)
        self._index_faults(stream)
        return stream

    # -- pass 1: per-update noise (duplicates, phantoms, stale copies) ---
    def _noise_pass(
        self, updates: List[RuleUpdate], rng: random.Random
    ) -> List[RuleUpdate]:
        profile = self.profile
        out: List[RuleUpdate] = []
        installed: Set[Tuple[int, Rule]] = set()
        ever_installed: Set[Tuple[int, Rule]] = set()
        faults: List[Tuple[RuleUpdate, str, str]] = []
        for u in updates:
            out.append(u)
            key = (u.device, u.rule)
            if u.is_insert:
                installed.add(key)
                ever_installed.add(key)
                if rng.random() < profile.duplicate_insert:
                    copy = RuleUpdate(u.op, u.device, u.rule, u.epoch)
                    out.append(copy)
                    faults.append((copy, "duplicate_insert", "retransmitted"))
            else:
                installed.discard(key)
                if rng.random() < profile.duplicate_delete:
                    copy = RuleUpdate(u.op, u.device, u.rule, u.epoch)
                    out.append(copy)
                    faults.append((copy, "duplicate_delete", "re-deleted"))
            if rng.random() < profile.stale_epoch and u.epoch is not None:
                # A retransmission stamped with a regressed epoch tag.
                copy = u.with_epoch(stale_epoch_tag(u.epoch))
                out.append(copy)
                faults.append((copy, "stale_epoch", "regressed tag"))
            if rng.random() < profile.phantom_delete:
                phantom = self._phantom_rule(u, installed, ever_installed)
                if phantom is not None:
                    ghost = RuleUpdate(
                        UpdateOp.DELETE, u.device, phantom, u.epoch
                    )
                    out.append(ghost)
                    faults.append((ghost, "phantom_delete", "never installed"))
        self._pending_faults = faults
        return out

    def _phantom_rule(
        self,
        u: RuleUpdate,
        installed: Set[Tuple[int, Rule]],
        ever_installed: Set[Tuple[int, Rule]],
    ) -> Optional[Rule]:
        """A rule that was never installed on ``u.device`` at this point."""
        ghost = Rule(u.rule.priority + 7, u.rule.match, u.rule.action)
        key = (u.device, ghost)
        if key in installed or key in ever_installed:
            return None
        return ghost

    # -- pass 2: truncated batches, retried in full ----------------------
    def _truncate_pass(
        self, updates: List[RuleUpdate], rng: random.Random
    ) -> List[RuleUpdate]:
        if self.profile.truncate <= 0:
            return updates
        out: List[RuleUpdate] = []
        i = 0
        while i < len(updates):
            window = min(len(updates) - i, rng.randint(2, 5))
            if window >= 2 and rng.random() < self.profile.truncate:
                batch = updates[i : i + window]
                cut = rng.randint(1, window - 1)
                for partial in batch[:cut]:
                    out.append(partial)
                    self._pending_faults.append(
                        (partial, "truncate", f"partial {cut}/{window}, retried")
                    )
                out.extend(batch)  # the agent retries the whole batch
                i += window
            else:
                out.append(updates[i])
                i += 1
        return out

    # -- pass 3: commuting reorders and delayed redelivery ---------------
    def _reorder_pass(
        self, updates: List[RuleUpdate], rng: random.Random
    ) -> List[RuleUpdate]:
        profile = self.profile
        if profile.reorder <= 0 and profile.redeliver <= 0:
            return updates
        out = list(updates)
        # Adjacent swaps of commuting (different-key) updates.
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if (a.device, a.rule) == (b.device, b.rule):
                continue
            if rng.random() < profile.reorder:
                out[i], out[i + 1] = b, a
                self._pending_faults.append((a, "reorder", "swapped later"))
        # Redelivery: drop an update and re-deliver it a few slots later,
        # sliding only past commuting updates (per-key order preserved).
        i = 0
        while i < len(out):
            u = out[i]
            if rng.random() < profile.redeliver:
                key = (u.device, u.rule)
                j = i
                budget = rng.randint(1, 4)
                while (
                    budget > 0
                    and j + 1 < len(out)
                    and (out[j + 1].device, out[j + 1].rule) != key
                ):
                    out[j] = out[j + 1]
                    j += 1
                    budget -= 1
                if j != i:
                    out[j] = u
                    self._pending_faults.append(
                        (u, "redeliver", f"delayed by {j - i}")
                    )
            i += 1
        return out

    # ------------------------------------------------------------------
    def _index_faults(self, stream: List[RuleUpdate]) -> None:
        """Resolve recorded faults to positions in the final stream."""
        seen: Dict[int, int] = {}
        positions: Dict[int, List[int]] = {}
        for idx, u in enumerate(stream):
            positions.setdefault(id(u), []).append(idx)
        for update, kind, note in self._pending_faults:
            slots = positions.get(id(update), [])
            cursor = seen.get(id(update), 0)
            index = slots[min(cursor, len(slots) - 1)] if slots else -1
            seen[id(update)] = cursor + 1
            self.injected.append(InjectedFault(kind, index, update, note))
        del self._pending_faults

    # ------------------------------------------------------------------
    def fault_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.injected:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"FaultInjector(profile={self.profile.name!r}, seed={self.seed}, "
            f"{len(self.injected)} faults injected)"
        )
