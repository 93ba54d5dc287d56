"""The inverse model — equivalence-class representation (§3.1, Definition 6).

An :class:`InverseModel` is the set ``M = {(p_j, y_j)}`` with the three
Definition-6 invariants: action vectors unique, predicates mutually
exclusive, predicates complementary (covering the verifier's universe).

Action vectors are PAT node ids (see :mod:`repro.core.actiontree`), so the
EC table is a plain ``dict`` keyed by vector id, and the model-overwrite
cross product (Definition 9) is the sequential application in
:meth:`InverseModel.apply_overwrites` — which reports a :class:`Lineage`,
only the ECs the block changed, each with its provenance, so CE2D can
duplicate verification graphs on EC splits (Algorithm 2, L7-10) without
walking the ECs the block left alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine, Remainder
from ..dataplane.rule import DROP, Action
from ..errors import ModelInvariantError
from .actiontree import ActionTreeStore
from .overwrite import Overwrite

VecId = int


@dataclass
class EcDelta:
    """One EC a step changed, with its lineage.

    ``origin`` is the predicate of the pre-step EC this one descends
    from — the handle, not its node id: the parent may be in nobody's
    table once the step is applied, and the delta is what keeps the id
    a consumer keys on from being recycled under it.  When several
    pre-step ECs merged into this one, any parent is equivalent for
    graph duplication (they agreed on every previously-synchronised
    device — see DESIGN.md §4) and the first is kept.
    """

    predicate: Predicate
    vector: VecId
    origin: Predicate


@dataclass
class Lineage:
    """One step of an EC table: what it changed, and nothing else.

    ``changed`` holds every post-step EC the step split, merged or
    re-vectored, in table order, each with its ``origin`` in the
    pre-step table; ``removed`` the pre-step predicates that left the
    table.  Every other EC keeps its handle and its vector, so the
    pre-step table minus ``removed`` plus ``changed`` is the post-step
    table.  An empty lineage is a step that changed nothing.
    """

    changed: List[EcDelta] = field(default_factory=list)
    removed: List[Predicate] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.changed or self.removed)


def compose_lineage(first: Lineage, then: Lineage) -> Lineage:
    """Two consecutive steps as one: ``then``'s origins re-pointed in
    place at ECs of the table before ``first``.

    Where ``first`` merged several parents into the EC ``then`` descends
    from, the one it kept stands for all of them (see :class:`EcDelta`),
    so a composed origin need not overlap its predicate.
    """
    if not first or not then:
        return first or then
    born = {d.predicate: d for d in first.changed}
    for delta in then.changed:
        parent = born.get(delta.origin)
        if parent is not None:
            delta.origin = parent.origin
    removed = list(first.removed)
    for pred in then.removed:
        if born.pop(pred, None) is None:
            removed.append(pred)  # an EC ``first`` left alone
    return Lineage([*born.values(), *then.changed], removed)


class InverseModel:
    """The equivalence-class model of one (subspace) verifier."""

    def __init__(
        self,
        engine: PredicateEngine,
        store: ActionTreeStore,
        devices: Sequence[int],
        default_action: Action = DROP,
        universe: Optional[Predicate] = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.devices = list(devices)
        self.universe = engine.true if universe is None else universe
        self._initial_vector = store.uniform(self.devices, default_action)
        self.restore()

    def restore(
        self, entries: Optional[Iterable[Tuple[Predicate, VecId]]] = None
    ) -> None:
        """Set the table to ``entries`` — the (p_j, y_j) pairs of a version
        this model held, e.g. a read view's — or, with ``None``, back to
        the initial one-EC table.  No predicate work: a version is
        canonical (Definition 6), so its pairs *are* the table."""
        if entries is None:
            entries = (
                [] if self.universe.is_false
                else [(self.universe, self._initial_vector)]
            )
        self._entries: Dict[VecId, Predicate] = {
            vec: pred for pred, vec in entries
        }
        # Each EC's cofactor signature, beside the table: one comprehension
        # over this dict picks the ECs a block may touch.
        sig_of = self.engine.signature
        self._sigs: Dict[VecId, int] = {
            vec: sig_of(pred) for vec, pred in self._entries.items()
        }

    # -- queries -------------------------------------------------------------
    def entries(self) -> List[Tuple[Predicate, VecId]]:
        """The (p_j, y_j) pairs of the model."""
        return [(p, v) for v, p in self._entries.items()]

    def as_deltas(self) -> Lineage:
        """The whole table as one step from the initial one-EC table.

        What a checker joining late (a CE2D epoch opening on the trunk)
        is handed: its state starts as that of the initial table, one EC,
        the universe, so the step removes the universe and names every EC
        of the table as changed, each descending from it.
        """
        universe = self.universe
        return Lineage(
            [
                EcDelta(predicate=pred, vector=vec, origin=universe)
                for vec, pred in self._entries.items()
            ],
            [] if universe.is_false else [universe],
        )

    def __len__(self) -> int:
        return len(self._entries)

    def action_of(self, vector: VecId, device: int) -> Action:
        return self.store.get(vector, device)

    def vector_for(self, assignment: Dict[int, bool]) -> VecId:
        """The behavior vector for one concrete header (test helper)."""
        for vector, pred in self._entries.items():
            if pred.evaluate(assignment):
                return vector
        raise ModelInvariantError("header not covered by any EC")

    def behavior(self, assignment: Dict[int, bool]) -> Dict[int, Action]:
        """The network-wide behavior b_M(h) for one concrete header."""
        return self.store.to_dict(self.vector_for(assignment))

    # -- mutation --------------------------------------------------------------
    def apply_overwrites(self, overwrites: Iterable[Overwrite]) -> Lineage:
        """Apply a block of conflict-free overwrites (the cross product).

        The table is updated in place and the :class:`Lineage` returned
        names only the ECs the block split, merged or re-vectored.  ECs
        whose predicate becomes empty disappear; ECs mapping to the same
        vector merge by predicate disjunction.

        The block is applied EC-major, one *run* at a time: a run is a
        stretch of consecutive overwrites that write the same devices,
        so inside it a header takes the vector the run's last overwrite
        holding it writes, as in sequential application.  Each piece of
        an EC is carved once per run through a
        :class:`~repro.bdd.predicate.Remainder`, the run's last overwrite
        first: a claim takes what is left of the piece inside the
        overwrite, one BDD walk, and the carve stops once the piece is
        used up.  An EC the block re-vectors whole costs one claim, an
        EC no overwrite meets costs the claims that prove it, and a
        handle is made only for what a claim took and for what is left.

        Cofactor *signatures* (kept beside the table) spare what walks
        they can: an EC whose signature misses the block's is not visited
        (``mr2.apply.ecs_skipped``), nor a (piece, overwrite) pair whose
        signatures miss (``mr2.apply.pairs_pruned``).
        """
        engine = self.engine
        sig_of = engine.signature
        # Runs of consecutive overwrites that write the same devices, as
        # (predicate, signature, delta).
        runs: List[List[Tuple[Predicate, int, Dict[int, Action]]]] = []
        block_sig = 0
        devices = None
        for ow in overwrites:
            if ow.predicate.is_false or ow.is_noop:
                continue
            sig = sig_of(ow.predicate)
            block_sig |= sig
            if ow.devices() != devices:
                devices = ow.devices()
                runs.append([])
            runs[-1].append((ow.predicate, sig, ow.delta_dict()))
        if not runs:
            return Lineage()
        entries, sigs = self._entries, self._sigs
        # Buckets carry (predicate, origin, signature).
        work: Dict[VecId, Tuple[Predicate, Predicate, int]] = {
            vec: (entries[vec], entries[vec], psig)
            for vec, psig in sigs.items()
            if psig & block_sig
        }
        if len(work) < len(entries):
            engine.registry.counter("mr2.apply.ecs_skipped").inc(
                len(entries) - len(work)
            )
        touched = {vec: pred for vec, (pred, _, _) in work.items()}
        overwrite, merge = self.store.overwrite, self._merge
        pruned = 0
        for run in runs:
            run.reverse()  # the last overwrite claims first: it wins
            next_work: Dict[VecId, Tuple[Predicate, Predicate, int]] = {}
            for vec, (pred, origin, psig) in work.items():
                rest = Remainder(pred)
                for ow_pred, ow_sig, delta in run:
                    if not psig & ow_sig:
                        pruned += 1
                        continue
                    claimed = rest.claim(ow_pred)
                    if not claimed.is_false:
                        new_vec = overwrite(vec, delta)
                        merge(next_work, new_vec, claimed, origin, psig & ow_sig)
                        if rest.is_false:
                            break
                if rest.node == pred.node:
                    merge(next_work, vec, pred, origin, psig)
                elif not rest.is_false:
                    merge(next_work, vec, engine.pred(rest.node), origin, psig)
            work = next_work
        if pruned:
            engine.registry.counter("mr2.apply.pairs_pruned").inc(pruned)
        # Commit: a touched EC that came back whole stays where it is (an
        # engine hands out one handle per live node, so "whole" is "is");
        # every other one leaves, and what the block made goes to the end.
        removed: List[Predicate] = []
        for vec, pred in touched.items():
            after = work.get(vec)
            if after is not None and after[0] is pred:
                del work[vec]
                continue
            removed.append(pred)
            del entries[vec], sigs[vec]
        changed: List[EcDelta] = []
        for vec, (pred, origin, _) in work.items():
            skipped = entries.pop(vec, None)
            if skipped is not None:  # an EC the block skipped takes a piece in
                removed.append(skipped)
                pred = pred | skipped
            entries[vec] = pred
            sigs[vec] = sig_of(pred)
            changed.append(EcDelta(predicate=pred, vector=vec, origin=origin))
        return Lineage(changed, removed)

    @staticmethod
    def _merge(
        bucket: Dict[VecId, Tuple[Predicate, Predicate, int]],
        vec: VecId,
        pred: Predicate,
        origin: Predicate,
        sig: int,
    ) -> None:
        """Merge a (predicate, signature) piece into a fast-path bucket.

        Signatures compose exactly over disjunction, so merged pieces
        keep a valid pruning mask without re-walking the BDD.
        """
        existing = bucket.get(vec)
        if existing is None:
            bucket[vec] = (pred, origin, sig)
        else:
            bucket[vec] = (existing[0] | pred, existing[1], existing[2] | sig)

    # -- verification of Definition 6 ------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`ModelInvariantError` on any Definition-6 violation,
        or on a signature dict out of step with the table.

        Uniqueness holds by construction (dict keys); exclusivity and
        complementarity are checked together: the predicates are disjoint
        and cover the universe iff their disjunction equals the universe
        *and* their cardinalities sum to the universe's.
        """
        total = 0
        union = self.engine.false
        for pred in self._entries.values():
            if pred.is_false:
                raise ModelInvariantError("model contains an empty EC")
            total += pred.sat_count()
            union = union | pred
        if union != self.universe:
            raise ModelInvariantError("ECs do not cover the universe")
        if total != self.universe.sat_count():
            raise ModelInvariantError("ECs are not mutually exclusive")
        if self._sigs.keys() != self._entries.keys():
            raise ModelInvariantError("signature dict and table disagree on keys")
        sig_of = self.engine.signature
        for vec, pred in self._entries.items():
            if self._sigs[vec] != sig_of(pred):
                raise ModelInvariantError(f"stale signature for vector {vec}")

    # -- reporting ---------------------------------------------------------------
    def memory_estimate_bytes(self) -> int:
        """EC table footprint: predicate DAG nodes (~40 B each) + 64 B per EC.

        EC predicates share BDD structure heavily (every split leaves
        both halves pointing into the same subgraphs), so the node term
        counts each distinct reachable node once across the whole table
        rather than summing per-predicate ``node_count()`` — the latter
        overstates Table-3 memory by the full sharing factor.
        """
        pred_nodes = self.engine.shared_node_count(self._entries.values())
        return pred_nodes * 40 + len(self._entries) * 64

    def __repr__(self) -> str:
        return f"InverseModel({len(self._entries)} ECs, {len(self.devices)} devices)"
