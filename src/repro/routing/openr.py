"""An OpenR-like routing suite over the discrete-event simulator.

This is the substitution for the paper's Mininet + real-OpenR testbed
(DESIGN.md §2): every switch runs a KV-store link-state protocol
(:mod:`repro.routing.linkstate`), a Decision module (shortest paths over its
own view), a Fib module (diffs against the previously announced FIB) and the
§4.1 *agent* that tags every update batch with the epoch hash of the state
it was computed from.

Fault/extreme-behaviour knobs reproduce the evaluation settings:

* ``buggy_nodes`` — compute a wrong next hop (worst neighbor) like the
  I2-OpenR/1buggy-loop setting;
* ``dampening`` — per-node delay between FIB computation and sending, the
  long-tail ("-lt") arrival generator (init/max 60 s backoff in the paper);
* per-hop flooding delays and decision debouncing, so consecutive link
  events yield the multi-epoch convergence patterns of Figure 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dataplane.rule import DROP, Rule
from ..dataplane.update import RuleUpdate, delete, insert
from ..errors import SimulationError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match
from ..network.topology import Topology
from .events import EventLoop
from .linkstate import KvStore, LinkKey, LinkState, link_key

Collector = Callable[[float, int, str, List[RuleUpdate]], None]


@dataclass
class FibBatch:
    """One epoch-tagged FIB update batch as delivered to the verifier."""

    time: float
    device: int
    tag: str
    updates: List[RuleUpdate]


@dataclass(frozen=True)
class PrefixOwner:
    """A destination: the switch that owns (announces) a prefix."""

    owner: int
    value: int
    length: int


class OpenRNode:
    """One switch's routing stack: KV store + Decision + Fib + agent."""

    def __init__(self, sim: "OpenRSimulation", node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.kv = KvStore()
        self.fib: Dict[PrefixOwner, Rule] = {}
        self._decision_pending = False
        self.is_buggy = False
        self.send_delay = 0.0

    # -- protocol ------------------------------------------------------
    def on_message(self, key: LinkKey, state: LinkState) -> None:
        if self.kv.merge(key, state):
            self._flood(key, state)
            self._schedule_decision()

    def on_local_event(self, key: LinkKey, state: LinkState) -> None:
        if self.kv.merge(key, state):
            self._flood(key, state)
            self._schedule_decision()

    def _flood(self, key: LinkKey, state: LinkState) -> None:
        for neighbor in self.sim.topology.neighbors(self.node_id):
            if self.sim.topology.device(neighbor).is_external:
                continue
            if not self.kv.is_up(link_key(self.node_id, neighbor)):
                continue
            self.sim.deliver_flood(self.node_id, neighbor, key, state)

    def _schedule_decision(self) -> None:
        if self._decision_pending:
            return
        self._decision_pending = True
        self.sim.loop.schedule(self.sim.decision_delay, self._run_decision)

    # -- decision ---------------------------------------------------------
    def _run_decision(self) -> None:
        self._decision_pending = False
        tag = self.kv.epoch_tag()
        new_fib = self._compute_fib()
        updates: List[RuleUpdate] = []
        for owner, rule in self.fib.items():
            if owner not in new_fib:
                updates.append(delete(self.node_id, rule, epoch=tag))
        for owner, rule in new_fib.items():
            old = self.fib.get(owner)
            if old is None:
                updates.append(insert(self.node_id, rule, epoch=tag))
            elif old != rule:
                updates.append(delete(self.node_id, old, epoch=tag))
                updates.append(insert(self.node_id, rule, epoch=tag))
        self.fib = new_fib
        # The agent ships the batch (serialised per device) after the
        # node's send delay — dampened nodes are the long tail.
        self.sim.deliver_batch(self.node_id, tag, updates, self.send_delay)

    def _compute_fib(self) -> Dict[PrefixOwner, Rule]:
        fib: Dict[PrefixOwner, Rule] = {}
        up = self.kv.up_links()
        for dest in self.sim.destinations:
            if dest.owner == self.node_id:
                continue
            dist = self.sim.distances_over(up, dest.owner)
            my_dist = dist.get(self.node_id)
            if my_dist is None:
                continue  # unreachable: no rule (falls back to DROP)
            candidates = [
                n
                for n in self.sim.topology.neighbors(self.node_id)
                if not self.sim.topology.device(n).is_external
                and link_key(self.node_id, n) in up
                and n in dist
            ]
            if not candidates:
                continue
            def score(n: int) -> int:
                return dist[n] + self.sim.link_costs.get(
                    link_key(self.node_id, n), 1
                )

            if self.is_buggy:
                # The buggy Decision module picks the worst live neighbor.
                next_hop = max(candidates, key=lambda n: (score(n), n))
            else:
                next_hop = min(candidates, key=lambda n: (score(n), n))
                if score(next_hop) > my_dist:
                    continue  # no shortest-path neighbor: converging, skip
            fib[dest] = Rule(
                priority=1, match=self.sim.matches[dest], action=next_hop
            )
        return fib


class OpenRSimulation:
    """The whole network of OpenR nodes plus fault injection."""

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        destinations: Optional[Sequence[PrefixOwner]] = None,
        flood_delay: float = 0.002,
        decision_delay: float = 0.010,
        send_delay: float = 0.005,
        send_jitter: float = 0.010,
        buggy_nodes: Iterable[int] = (),
        dampening: Optional[Dict[int, float]] = None,
        link_costs: Optional[Dict[LinkKey, int]] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.loop = EventLoop()
        self.flood_delay = flood_delay
        self.decision_delay = decision_delay
        self.collectors: List[Collector] = []
        self.batches: List[FibBatch] = []
        rng = random.Random(seed)
        self.destinations = (
            list(destinations)
            if destinations is not None
            else self._default_destinations()
        )
        # One Match per destination, shared by every Decision run.
        self.matches: Dict[PrefixOwner, Match] = {
            dest: Match.dst_prefix(dest.value, dest.length, layout)
            for dest in self.destinations
        }
        switch_links = [
            link_key(u, v)
            for u, v in topology.links()
            if not topology.device(u).is_external
            and not topology.device(v).is_external
        ]
        self._true_version: Dict[LinkKey, int] = {k: 0 for k in switch_links}
        # OSPF-style additive link costs; default 1 per hop.
        self.link_costs: Dict[LinkKey, int] = {
            k: 1 for k in switch_links
        }
        if link_costs:
            for key, cost in link_costs.items():
                canonical = link_key(*key)
                if canonical not in self.link_costs:
                    raise SimulationError(f"unknown link {key}")
                if cost <= 0:
                    raise SimulationError(f"non-positive cost on {key}")
                self.link_costs[canonical] = cost
        self.nodes: Dict[int, OpenRNode] = {}
        dampening = dampening or {}
        for switch in topology.switches():
            node = OpenRNode(self, switch)
            node.kv.seed(switch_links)
            node.is_buggy = switch in set(buggy_nodes)
            node.send_delay = dampening.get(
                switch, send_delay + rng.random() * send_jitter
            )
            self.nodes[switch] = node
        self._distance_cache: Dict[Tuple[frozenset, int], Dict[int, int]] = {}

    # -- configuration ---------------------------------------------------
    def _default_destinations(self) -> List[PrefixOwner]:
        """One prefix per switch (its loopback), densely packed."""
        switches = self.topology.switches()
        width = self.layout.field("dst").width
        plen = max(1, (len(switches) - 1).bit_length())
        if plen > width:
            raise SimulationError("dst field too narrow for one prefix/switch")
        return [
            PrefixOwner(owner=s, value=i << (width - plen), length=plen)
            for i, s in enumerate(switches)
        ]

    def add_collector(self, collector: Collector) -> None:
        self.collectors.append(collector)

    # -- transport ---------------------------------------------------------
    def deliver_flood(
        self, src: int, dst: int, key: LinkKey, state: LinkState
    ) -> None:
        node = self.nodes[dst]
        self.loop.schedule(self.flood_delay, lambda: node.on_message(key, state))

    def deliver_batch(
        self, device: int, tag: str, updates: List[RuleUpdate], delay: float
    ) -> None:
        def ship() -> None:
            batch = FibBatch(self.loop.now, device, tag, updates)
            self.batches.append(batch)
            for collector in self.collectors:
                collector(batch.time, device, tag, list(updates))

        self.loop.schedule(delay, ship)

    # -- fault injection ----------------------------------------------------
    def _set_link(self, u: int, v: int, up: bool, at: float) -> None:
        key = link_key(u, v)
        if key not in self._true_version:
            raise SimulationError(
                f"unknown switch link {self.topology.name_of(u)}-"
                f"{self.topology.name_of(v)}"
            )

        def fire() -> None:
            self._true_version[key] += 1
            state = LinkState(version=self._true_version[key], up=up)
            for endpoint in key:
                self.nodes[endpoint].on_local_event(key, state)

        self.loop.schedule_at(at, fire)

    def fail_link(self, u: int, v: int, at: float) -> None:
        self._set_link(u, v, up=False, at=at)

    def recover_link(self, u: int, v: int, at: float) -> None:
        self._set_link(u, v, up=True, at=at)

    def fail_link_by_name(self, u: str, v: str, at: float) -> None:
        self.fail_link(self.topology.id_of(u), self.topology.id_of(v), at)

    # -- bootstrap & run ------------------------------------------------------
    def bootstrap(self) -> None:
        """Compute and announce the initial (all links up) FIBs at t=0."""
        for node in self.nodes.values():
            node._schedule_decision()

    def run(self, until: Optional[float] = None) -> int:
        return self.loop.run(until=until)

    # -- shared shortest-path helper -------------------------------------------
    def distances_over(self, up_links: Set[LinkKey], target: int) -> Dict[int, int]:
        """Dijkstra distances to ``target`` over live links (cached).

        Unit costs degenerate to BFS; ``link_costs`` gives OSPF-style
        weighted shortest paths.
        """
        cache_key = (frozenset(up_links), target)
        cached = self._distance_cache.get(cache_key)
        if cached is not None:
            return cached
        import heapq

        dist: Dict[int, int] = {}
        heap = [(0, target)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v in self.topology.neighbors(u):
                if self.topology.device(v).is_external or v in dist:
                    continue
                key = link_key(u, v)
                if key not in up_links:
                    continue
                heapq.heappush(heap, (d + self.link_costs.get(key, 1), v))
        self._distance_cache[cache_key] = dist
        return dist
