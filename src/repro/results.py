"""The unified result API: verdicts, reports and the ``as_dict`` contract.

Every verification surface — ``Flash.verify_offline``, a standalone
:class:`~repro.ce2d.verifier.SubspaceVerifier`, the baselines, the CLI
and the benchmark harness — reports results through the types in this
module, and every report serialises through the same ``as_dict()``
contract consumed by exporters and the harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Union


class Verdict(enum.Enum):
    """Tri-state outcome of consistent early detection."""

    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


@dataclass
class VerificationReport:
    """One deterministic (or still-unknown) result for a requirement/epoch."""

    requirement: str
    verdict: Verdict
    epoch: Optional[Hashable] = None
    time: Optional[float] = None
    detail: str = ""
    witness: Optional[List[Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "verification",
            "requirement": self.requirement,
            "verdict": self.verdict.value,
            "epoch": None if self.epoch is None else str(self.epoch),
            "time": self.time,
            "detail": self.detail,
            "witness": self.witness,
        }

    def __repr__(self) -> str:
        extra = f", {self.detail}" if self.detail else ""
        return (
            f"VerificationReport({self.requirement}: {self.verdict.value}"
            f"{extra})"
        )


@dataclass
class LoopReport:
    """Outcome of consistent early loop detection."""

    verdict: Verdict
    epoch: Optional[Hashable] = None
    time: Optional[float] = None
    loop_path: Optional[List[int]] = None

    @property
    def has_loop(self) -> bool:
        return self.verdict is Verdict.VIOLATED

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "loop",
            "verdict": self.verdict.value,
            "epoch": None if self.epoch is None else str(self.epoch),
            "time": self.time,
            "loop_path": self.loop_path,
        }


@dataclass
class InterleaveReport:
    """Outcome of one interleaving exploration of an update block.

    Emitted by :class:`~repro.difftest.interleave.InterleaveRunner` for
    one scenario: how many valid orders existed, how many the partial-
    order reduction actually replayed, and whether any intermediate
    state disagreed with the oracle.  ``self_check`` records the POR
    soundness self-check outcome (``passed`` / ``failed`` / ``skipped``).
    """

    scenario: str
    block_size: int
    orders_possible: int
    orders_explored: int
    orders_pruned: int
    states_checked: int
    order_dependent: bool
    divergences: int
    self_check: str = "skipped"
    commute: Optional[Dict[str, int]] = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.VIOLATED if self.divergences else Verdict.SATISFIED

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "interleave",
            "scenario": self.scenario,
            "block_size": self.block_size,
            "orders_possible": self.orders_possible,
            "orders_explored": self.orders_explored,
            "orders_pruned": self.orders_pruned,
            "states_checked": self.states_checked,
            "order_dependent": self.order_dependent,
            "divergences": self.divergences,
            "self_check": self.self_check,
            "commute": None if self.commute is None else dict(self.commute),
        }

    def __repr__(self) -> str:
        return (
            f"InterleaveReport({self.scenario}: "
            f"{self.orders_explored}/{self.orders_possible} orders, "
            f"{self.divergences} divergences, "
            f"self_check={self.self_check})"
        )


#: Anything a checker can emit for one model update.
Report = Union[LoopReport, VerificationReport]


__all__ = [
    "Verdict",
    "VerificationReport",
    "LoopReport",
    "InterleaveReport",
    "Report",
]
