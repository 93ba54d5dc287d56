"""The inverse model — equivalence-class representation (§3.1, Definition 6).

An :class:`InverseModel` is the set ``M = {(p_j, y_j)}`` with the three
Definition-6 invariants: action vectors unique, predicates mutually
exclusive, predicates complementary (covering the verifier's universe).

Action vectors are PAT node ids (see :mod:`repro.core.actiontree`), so the
EC table is a plain ``dict`` keyed by vector id, and the model-overwrite
cross product (Definition 9) is the sequential application in
:meth:`InverseModel.apply_overwrites` — with provenance tracking so CE2D can
duplicate verification graphs on EC splits (Algorithm 2, L7-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.rule import DROP, Action
from ..errors import ModelInvariantError
from .actiontree import ActionTreeStore
from .overwrite import Overwrite

VecId = int


@dataclass
class EcDelta:
    """One post-block equivalence class with its lineage.

    ``origin`` is the predicate of the pre-block EC this one descends
    from — the handle, not its node id: the parent may be in nobody's
    table once the block is applied, and the delta is what keeps the id
    a consumer keys on from being recycled under it.  When several
    pre-block ECs merged into this one, any parent is equivalent for
    graph duplication (they agreed on every previously-synchronised
    device — see DESIGN.md §4) and the first is kept.
    """

    predicate: Predicate
    vector: VecId
    origin: Predicate


def compose_lineage(first: List[EcDelta], then: List[EcDelta]) -> List[EcDelta]:
    """Two consecutive blocks' deltas as one step: ``then``, re-pointed in
    place at origins in the table before ``first``.

    An empty list means "no block", not "empty table".  Where ``first``
    merged several parents into the EC ``then`` descends from, the one it
    kept stands for all of them (see :class:`EcDelta`), so a composed
    origin need not overlap its predicate.  An origin ``first`` does not
    list — a recovery fallback restarted from the initial table — is kept
    as it is.
    """
    if not first or not then:
        return first or then
    # Only what ``first`` changed needs re-pointing: an EC it left alone
    # is its own origin, the very handle.
    moved = {d.predicate: d.origin for d in first if d.origin is not d.predicate}
    if moved:
        for delta in then:
            delta.origin = moved.get(delta.origin, delta.origin)
    return then


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

    # -- queries -------------------------------------------------------------
    def entries(self) -> List[Tuple[Predicate, VecId]]:
        """The (p_j, y_j) pairs of the model."""
        return [(p, v) for v, p in self._entries.items()]

    def predicates(self) -> List[Predicate]:
        return list(self._entries.values())

    def as_deltas(self) -> List[EcDelta]:
        """The whole table as deltas, every EC descending from itself.

        What a block that changed nothing returns, and what a checker
        joining late (a CE2D epoch opening on the trunk) starts from.
        """
        return [
            EcDelta(predicate=pred, vector=vec, origin=pred)
            for vec, pred in self._entries.items()
        ]

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
    def apply_overwrites(
        self,
        overwrites: Iterable[Overwrite],
        support: Optional[Predicate] = None,
    ) -> List[EcDelta]:
        """Apply a block of conflict-free overwrites (the cross product).

        Returns the full post-block EC list annotated with lineage.  ECs
        whose predicate becomes empty disappear; ECs mapping to the same
        vector merge by predicate disjunction.

        The default path touches only what the block touches, at two
        granularities (the Delta-net discipline):

        * per EC — cofactor *signatures* (O(1) masks, see
          :meth:`~repro.bdd.predicate.PredicateEngine.signature`) and one
          conjunction against the block *support* (the disjunction of
          overwrite predicates — pass it in when Reduce I already has
          it) let ECs disjoint from the whole block bypass the
          per-overwrite loop entirely (``mr2.apply.ecs_skipped``);
        * per (EC, overwrite) pair, one pass per overwrite —
          non-intersecting signatures prove disjointness without any
          BDD operation (``mr2.apply.pairs_pruned``); each surviving
          pair computes its intersect/remainder halves in one
          :meth:`Predicate.split` traversal instead of two applies and
          is merged into the next bucket at once.
        """
        ows = [
            ow
            for ow in overwrites
            if not (ow.predicate.is_false or ow.is_noop)
        ]
        if not ows:
            return self.as_deltas()
        engine = self.engine
        sig_of = engine.signature
        ow_sigs = [sig_of(ow.predicate) for ow in ows]
        support_sig = 0
        for s in ow_sigs:
            support_sig |= s
        if support is None and len(ows) > 1:
            support = engine.disj_many([ow.predicate for ow in ows])
        exact = (
            len(ows) > 1 and support is not None and not support.is_true
        )
        # Buckets carry (predicate, origin, signature).
        work: Dict[VecId, Tuple[Predicate, Predicate, int]] = {}
        untouched: Dict[VecId, Tuple[Predicate, Predicate, int]] = {}
        for vec, pred in self._entries.items():
            psig = sig_of(pred)
            if psig & support_sig == 0 or (
                exact and (pred & support).is_false
            ):
                untouched[vec] = (pred, pred, psig)
            else:
                work[vec] = (pred, pred, psig)
        if untouched:
            engine.registry.counter("mr2.apply.ecs_skipped").inc(
                len(untouched)
            )
        pruned = 0
        for ow, ow_sig in zip(ows, ow_sigs):
            delta = ow.delta_dict()
            ow_pred = ow.predicate
            next_work: Dict[VecId, Tuple[Predicate, Predicate, int]] = {}
            for vec, (pred, origin, psig) in work.items():
                if psig & ow_sig == 0:
                    pruned += 1
                    self._merge(next_work, vec, pred, origin, psig)
                    continue
                inter, rest = pred.split(ow_pred)
                if inter.is_false:
                    self._merge(next_work, vec, pred, origin, psig)
                    continue
                if not rest.is_false:
                    self._merge(next_work, vec, rest, origin, psig)
                new_vec = self.store.overwrite(vec, delta)
                self._merge(next_work, new_vec, inter, origin, psig & ow_sig)
            work = next_work
        if pruned:
            engine.registry.counter("mr2.apply.pairs_pruned").inc(pruned)
        for vec, (pred, origin, psig) in untouched.items():
            self._merge(work, vec, pred, origin, psig)
        self._entries = {vec: pred for vec, (pred, _, _) in work.items()}
        return [
            EcDelta(predicate=pred, vector=vec, origin=origin)
            for vec, (pred, origin, _) in work.items()
        ]

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
        """Raise :class:`ModelInvariantError` on any Definition-6 violation.

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

    # -- reporting ---------------------------------------------------------------
    def memory_estimate_bytes(self) -> int:
        """EC table footprint: predicate DAG nodes + PAT nodes (~40 B each).

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
