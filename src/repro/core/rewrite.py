"""Header rewrites — the §7 "Data Plane Models" extension, prototyped.

The paper's Flash assumes no header rewrites (they happen at end hosts in
its target network) but sketches two extension directions; this module
implements them for converged models:

* a :class:`RewriteAction` — "set field F to value V, then forward" (NAT,
  tunnel-entry style);
* a :class:`RewriteAwareChecker` that analyses a converged inverse model
  where actions may rewrite: the state space becomes (device, EC) pairs,
  and a rewrite edge jumps from an EC to the EC(s) containing the rewritten
  header image (computed with BDD quantification).  When the image lands in
  exactly one EC this is the paper's direction 1; when it spans several the
  checker follows all of them (direction 2's recursive query).

Loops that cross a rewrite — invisible to per-EC loop detection — are the
motivating catch (test: NAT bounce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..bdd.predicate import Predicate
from ..dataplane.rule import DROP, Action, next_hops_of
from ..errors import HeaderSpaceError
from ..network.topology import Topology
from .model_manager import ModelWriter


@dataclass(frozen=True)
class RewriteAction:
    """Rewrite one header field to a constant, then forward."""

    next_hop: int
    field: str
    value: int

    def __repr__(self) -> str:
        return f"Rewrite({self.field}:={self.value} -> {self.next_hop})"


def action_next_hops(action: Action) -> Tuple[int, ...]:
    """next_hops_of, extended to rewrite actions."""
    if isinstance(action, RewriteAction):
        return (action.next_hop,)
    return next_hops_of(action)


State = Tuple[int, int]  # (device, EC predicate node)


class RewriteAwareChecker:
    """Loop/reachability analysis over (device, EC) states with rewrites."""

    def __init__(self, manager: ModelWriter, topology: Topology) -> None:
        self.manager = manager
        self.topology = topology
        self.layout = manager.layout
        self.engine = manager.engine
        # Node id → (handle, vector): the handle in the value keeps the
        # id this checker's states name from being recycled.
        self._entries = {
            pred.node: (pred, vec) for pred, vec in manager.model.entries()
        }

    # -- rewrite image --------------------------------------------------
    def _field_vars(self, field: str) -> List[int]:
        f = self.layout.field(field)
        base = self.layout.offset(field)
        return list(range(base, base + f.width))

    def rewrite_image(self, pred: Predicate, action: RewriteAction) -> Predicate:
        """The header set after rewriting ``field := value`` on ``pred``."""
        f = self.layout.field(action.field)
        if not 0 <= action.value <= f.max_value:
            raise HeaderSpaceError(
                f"rewrite value {action.value} out of range for {action.field}"
            )
        bdd = self.engine.bdd
        erased = bdd.exists(pred.node, self._field_vars(action.field))
        constant = bdd.cube(self.layout.bits_of(action.field, action.value))
        self.engine.metrics.record_conjunction()
        return self.engine.pred(bdd.apply_and(erased, constant))

    # -- transition relation ------------------------------------------------
    def successors(self, state: State) -> Iterator[State]:
        device, ec_node = state
        pred, vec = self._entries[ec_node]
        action = self.manager.model.action_of(vec, device)
        if action == DROP or action is None:
            return
        if isinstance(action, RewriteAction):
            image = self.rewrite_image(pred, action)
            for other_node, (other_pred, _) in self._entries.items():
                if image.intersects(other_pred):
                    yield (action.next_hop, other_node)
        else:
            for hop in next_hops_of(action):
                yield (hop, ec_node)

    def _switch_states(self) -> List[State]:
        return [
            (device, node)
            for device in self.topology.switches()
            for node in self._entries
        ]

    # -- queries -----------------------------------------------------------
    def find_loop(self) -> Optional[List[State]]:
        """A forwarding loop in (device, EC) space, or None.

        Iterative DFS with colors; a back edge closes a loop.  External
        devices absorb packets (delivery).
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[State, int] = {}
        parent: Dict[State, Optional[State]] = {}
        for root in self._switch_states():
            if color.get(root, WHITE) is not WHITE:
                continue
            stack: List[Tuple[State, Iterator[State]]] = []
            color[root] = GRAY
            parent[root] = None
            stack.append((root, self._succ_switches(root)))
            while stack:
                state, it = stack[-1]
                advanced = False
                for succ in it:
                    if color.get(succ, WHITE) == WHITE:
                        color[succ] = GRAY
                        parent[succ] = state
                        stack.append((succ, self._succ_switches(succ)))
                        advanced = True
                        break
                    if color.get(succ) == GRAY:
                        # Back edge: unwind the cycle.
                        cycle = [succ, state]
                        node = parent[state]
                        while node is not None and node != succ:
                            cycle.append(node)
                            node = parent[node]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[state] = BLACK
                    stack.pop()
        return None

    def _succ_switches(self, state: State) -> Iterator[State]:
        for device, node in self.successors(state):
            if self.topology.has_device(device) and not self.topology.device(
                device
            ).is_external:
                yield (device, node)

    def reachable_externals(self, device: int, header: Dict[str, int]) -> Set[int]:
        """External nodes a concrete header can reach from ``device``,
        following rewrites."""
        start_ec = self._ec_of(header)
        seen: Set[State] = set()
        out: Set[int] = set()
        stack: List[State] = [(device, start_ec)]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            for succ_device, succ_ec in self.successors(state):
                if self.topology.has_device(succ_device) and self.topology.device(
                    succ_device
                ).is_external:
                    out.add(succ_device)
                elif (succ_device, succ_ec) not in seen:
                    stack.append((succ_device, succ_ec))
        return out

    def trace(
        self, device: int, header: Dict[str, int], max_hops: int = 64
    ) -> List[Tuple[int, Dict[str, int]]]:
        """Hop-by-hop walk of one concrete header, applying rewrites.

        Follows the first next hop of each action; stops at external
        delivery, DROP, or the hop budget (a concrete loop witness).
        """
        values = dict(header)
        current = device
        path = [(current, dict(values))]
        for _ in range(max_hops):
            if self.topology.device(current).is_external:
                break
            ec_node = self._ec_of(values)
            _, vec = self._entries[ec_node]
            action = self.manager.model.action_of(vec, current)
            if action == DROP or action is None:
                break
            if isinstance(action, RewriteAction):
                values[action.field] = action.value
                current = action.next_hop
            else:
                hops = next_hops_of(action)
                if not hops:
                    break
                current = hops[0]
            path.append((current, dict(values)))
        return path

    def _ec_of(self, values: Dict[str, int]) -> int:
        assignment: Dict[int, bool] = {}
        for name in self.layout.field_names():
            assignment.update(dict(self.layout.bits_of(name, values.get(name, 0))))
        for node, (pred, _) in self._entries.items():
            if pred.evaluate(assignment):
                return node
        raise HeaderSpaceError(f"header {values} not covered by any EC")
