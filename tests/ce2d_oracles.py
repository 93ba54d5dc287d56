"""Reference CE2D checkers: the constructions the shipped ones replaced.

Kept here, out of ``src/``, as the oracles the demand-driven checkers are
property-tested against (``test_loop_soundness.py``,
``test_ce2d_verifiers.py``):

* :class:`EagerLoopDetector` — Algorithm 3 over a successor table built up
  front for every synchronised device and every EC (``|synced| × |ECs|``
  model look-ups per update, even one that synchronises nobody), with the
  path kept as a plain list.
* :class:`MemoFreeRegexVerifier` — Algorithm 2 re-testing every EC of the
  model against the requirement's packet space on every update, and
  re-judging every undecided one, with its table rebuilt each time.
"""

from typing import Dict, FrozenSet, List, Tuple

from repro.ce2d.regex_verifier import RegexVerifier, _EcEntry
from repro.dataplane.rule import next_hops_of
from repro.results import LoopReport, Verdict


class _Hyper:
    def __init__(self, members, has_internal_cycle):
        self.members = frozenset(members)
        self.has_internal_cycle = has_internal_cycle


class _Loop(Exception):
    pass


class EagerLoopDetector:
    """The eager whole-table detector (``LoopDetector`` before PR 14).

    One deliberate difference from the deleted code: a device's successors
    are tried in order of first appearance over the ECs *live at that
    device*, not over all ECs, which is the order a search that only looks
    at live ECs can know.  The order is observable only in the one update
    that raises a deterministic loop (which cycle is reported, and how many
    potential loops were counted before it); every other count is a total
    over an exhaustive search.
    """

    def __init__(self, topology):
        self.topology = topology
        self.synced = set()
        self.verdict = Verdict.UNKNOWN
        self.loop_path = None
        self.potential_loops = 0
        self.lookups = 0

    def on_model_update(self, lineage, new_synced, model):
        if self.verdict is Verdict.VIOLATED:
            return self.report()
        fresh = sorted(set(new_synced) - self.synced)
        self.synced.update(fresh)
        vectors = [vec for _, vec in model.entries()]
        hyper_of = self._compress()
        edges = self._edges(vectors, model, hyper_of)
        self.potential_loops = 0
        try:
            for start in fresh:
                self._detect(
                    start, frozenset(range(len(vectors))), [], edges, hyper_of
                )
        except _Loop as loop:
            self.verdict = Verdict.VIOLATED
            self.loop_path = loop.args[0]
            return self.report()
        if set(self.topology.switches()) <= self.synced:
            self.verdict = Verdict.SATISFIED
        return self.report()

    def report(self):
        return LoopReport(verdict=self.verdict, loop_path=self.loop_path)

    def _compress(self) -> Dict[int, _Hyper]:
        unsynced = [s for s in self.topology.switches() if s not in self.synced]
        hyper_of = {}
        for component in self.topology.connected_components(unsynced):
            internal_links = sum(
                1
                for u in component
                for v in self.topology.neighbors(u)
                if v in component and u < v
            )
            node = _Hyper(component, internal_links >= len(component))
            for member in component:
                hyper_of[member] = node
        return hyper_of

    def _edges(self, vectors, model, hyper_of) -> Dict[int, List[Tuple]]:
        """Per synchronised device, per EC: its successors, in hop order."""
        out = {}
        for device in self.synced:
            per_ec = []
            for vector in vectors:
                self.lookups += 1
                succs = []
                for hop in next_hops_of(model.action_of(vector, device)):
                    if not self.topology.has_link(device, hop):
                        continue  # stale/foreign next hop: not a real edge
                    succs.append(hyper_of.get(hop, hop))
                per_ec.append(tuple(succs))
            out[device] = per_ec
        return out

    def _detect(self, node, ecs: FrozenSet[int], path, edges, hyper_of):
        if not ecs:
            return
        if isinstance(node, _Hyper):
            if node.has_internal_cycle:
                self.potential_loops += 1
            if node in path:
                self.potential_loops += 1
                return
        elif self.topology.device(node).is_external:
            return
        elif node in path:
            segment = path[path.index(node):]
            if any(isinstance(p, _Hyper) for p in segment):
                self.potential_loops += 1
                return
            raise _Loop([*segment, node])
        path.append(node)
        successors: Dict[object, set] = {}
        if isinstance(node, _Hyper):
            for member in node.members:
                for nb in self.topology.neighbors(member):
                    if nb not in node.members:
                        successors[hyper_of.get(nb, nb)] = set(ecs)
        else:
            per_ec = edges.get(node, ())
            for ec_index in sorted(ecs):
                for succ in per_ec[ec_index]:
                    successors.setdefault(succ, set()).add(ec_index)
        for succ, valid in successors.items():
            self._detect(succ, frozenset(valid), path, edges, hyper_of)
        path.pop()


class MemoFreeRegexVerifier(RegexVerifier):
    """``RegexVerifier`` with the pre-PR-14 update loop: one conjunction
    with the packet space per EC of the model per update, every undecided
    EC re-judged, the table rebuilt from the model's; the lineage is read
    for origins only."""

    def on_model_update(self, lineage, new_synced, model):
        fresh = [d for d in new_synced if d not in self.synced]
        self.synced.update(fresh)
        origin_of = {d.predicate.node: d.origin for d in lineage.changed}
        next_table: Dict[int, _EcEntry] = {}
        for pred, vector in model.entries():
            if not pred.intersects(self.space):
                continue
            entry = self._table.get(pred.node)
            if entry is None:
                origin = origin_of.get(pred.node)
                parent = None if origin is None else self._table.get(origin.node)
                if parent is None:
                    entry = self._entry(pred, vector, None)
                    for device in self.synced:
                        removed = entry.graph.prune_device(
                            device, model.action_of(vector, device)
                        )
                        entry.reach.delete_edges(removed)
                else:
                    entry = self._entry(pred, vector, parent)
            if entry.verdict is Verdict.UNKNOWN:
                for device in fresh:
                    removed = entry.graph.prune_device(
                        device, model.action_of(vector, device)
                    )
                    entry.reach.delete_edges(removed)
                entry.verdict = self._judge(entry)
            next_table[pred.node] = entry
        self._table = next_table
        self._tally = dict.fromkeys(Verdict, 0)
        for entry in next_table.values():
            self._tally[entry.verdict] += 1
        return self.report()
