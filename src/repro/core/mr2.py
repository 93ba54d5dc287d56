"""The MR2 pipeline (§3.2): Map, Reduce I and Reduce II.

Fast IMT = one *map* (native updates → atomic conflict-free overwrites,
Algorithm 1) followed by two *reduces*:

* **Reduce I — aggregation by action**: overwrites with the same Δy merge by
  predicate disjunction (Theorem 4);
* **Reduce II — aggregation by predicate**: overwrites with the same Δp merge
  by combining their deltas (Theorem 5).

Theorem 3 (atomic overwrites commute) justifies the regrouping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate
from ..dataplane.fib import FibSnapshot
from ..dataplane.rule import Action
from ..dataplane.update import RuleUpdate, UpdateBlock
from ..errors import OverwriteConflictError
from ..headerspace.match import MatchCompiler
from ..telemetry import PhaseBreakdown, Telemetry
from .imt import decompose_block, replace_table_rules
from .rule_index import RuleIndex
from .inverse_model import InverseModel, Lineage
from .overwrite import ActionDelta, Overwrite


def map_phase(
    snapshot: FibSnapshot,
    block: UpdateBlock,
    compiler: MatchCompiler,
    indexes: Optional[Dict[int, "RuleIndex"]] = None,
) -> List[Overwrite]:
    """Decompose the block into atomic overwrites, updating the FIBs.

    With ``indexes`` (device → RuleIndex), effective predicates use the
    §3.4 trie look-up for overlapped rules instead of the sorted scan.
    """
    atomics: List[Overwrite] = []
    for device in block.devices():
        table = snapshot.table(device)
        index = indexes.get(device) if indexes is not None else None
        new_rules, overwrites = decompose_block(
            device, table, block.updates_for(device), compiler, index=index
        )
        replace_table_rules(table, new_rules)
        atomics.extend(overwrites)
    return atomics


def reduce_by_action(overwrites: Iterable[Overwrite]) -> List[Overwrite]:
    """Reduce I: merge overwrites sharing the same Δy by predicate disjunction.

    Each delta's predicates are disjoined in a balanced tree
    (:meth:`~repro.bdd.predicate.PredicateEngine.disj_many`), not folded
    into one growing union.
    """
    grouped: Dict[ActionDelta, List[Predicate]] = {}
    for ow in overwrites:
        grouped.setdefault(ow.delta, []).append(ow.predicate)
    return [
        Overwrite(preds[0].engine.disj_many(preds), delta)
        for delta, preds in grouped.items()
    ]


def reduce_by_predicate(overwrites: Iterable[Overwrite]) -> List[Overwrite]:
    """Reduce II: merge overwrites sharing the same Δp by combining deltas.

    Raises :class:`OverwriteConflictError` if two merged overwrites write
    different actions to the same device — they were not conflict-free.
    """
    # Keyed by node id with the handle in the value: the id cannot be
    # recycled while the entry is alive.
    grouped: Dict[int, Tuple[Predicate, Dict[int, Action]]] = {}
    for ow in overwrites:
        key = ow.predicate.node
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = (ow.predicate, dict(ow.delta))
            continue
        _, delta = entry
        for device, action in ow.delta:
            if delta.get(device, action) != action:
                raise OverwriteConflictError(
                    f"conflicting actions for device {device} under one predicate"
                )
            delta[device] = action
    return [
        Overwrite(pred, tuple(sorted(delta.items())))
        for pred, delta in grouped.values()
    ]


def aggregate(overwrites: Sequence[Overwrite]) -> List[Overwrite]:
    """Reduce I then Reduce II."""
    return reduce_by_predicate(reduce_by_action(overwrites))


class Mr2Pipeline:
    """Block-update transformation of one verifier, with phase accounting.

    ``aggregate=False`` yields the paper's "Flash (per-update mode)" /
    APKeep-like behaviour where atomic overwrites are applied one by one.

    Phase accounting flows through telemetry spans (``mr2.map`` /
    ``mr2.reduce`` / ``mr2.apply``) plus plain ``mr2.*`` counters; the
    classic :class:`~repro.telemetry.PhaseBreakdown` is served as a view
    over the registry via :attr:`breakdown`.
    """

    def __init__(
        self,
        snapshot: FibSnapshot,
        model: InverseModel,
        compiler: MatchCompiler,
        aggregate_overwrites: bool = True,
        use_trie: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.snapshot = snapshot
        self.model = model
        self.compiler = compiler
        self.aggregate_overwrites = aggregate_overwrites
        # §3.4 "fast look-up for overlapped rules": per-device tries kept
        # in sync with the FIBs, used by the map phase when enabled.
        self.indexes = (
            {d: RuleIndex(compiler.layout) for d in snapshot.devices()}
            if use_trie
            else None
        )
        # Share the engine's registry by default so BDD op counts and MR2
        # phase timings land in one snapshot.
        if telemetry is None:
            telemetry = Telemetry(registry=compiler.engine.registry)
        self.telemetry = telemetry

    @property
    def breakdown(self) -> PhaseBreakdown:
        """The Figure 11 phase decomposition, read back from the registry."""
        return PhaseBreakdown.from_registry(self.telemetry.registry)

    def process_block(self, block: UpdateBlock) -> Lineage:
        """Run Map → Reduce I/II → apply for one block of native updates."""
        block = block.remove_cancelling()
        if block.is_empty():
            return Lineage()
        telemetry = self.telemetry
        with telemetry.span("mr2.map"):
            atomics = map_phase(
                self.snapshot, block, self.compiler, self.indexes
            )
        with telemetry.span("mr2.reduce"):
            if self.aggregate_overwrites:
                compact = aggregate(atomics)
            else:
                compact = list(atomics)
        with telemetry.span("mr2.apply"):
            lineage = self.model.apply_overwrites(compact)

        telemetry.count("mr2.blocks")
        telemetry.count("mr2.updates", len(block))
        telemetry.count("mr2.overwrites.atomic", len(atomics))
        telemetry.count("mr2.overwrites.aggregated", len(compact))
        return lineage

    def process_updates(self, updates: Iterable[RuleUpdate]) -> Lineage:
        return self.process_block(UpdateBlock(updates))
