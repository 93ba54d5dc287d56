"""Network topology model.

Devices are integer-identified switches/routers; external destinations are
modelled as *virtual nodes* attached to border ports, exactly as Appendix B
describes ("Flash attaches a virtual node to each external port" and assigns
owned prefixes to its ``prefixes`` label).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import TopologyError

SWITCH = "switch"
EXTERNAL = "external"

#: One switch's ``(switch neighbours, external neighbours)``.
ForwardingLinks = Tuple[FrozenSet[int], FrozenSet[int]]


@dataclass
class Device:
    """A network device (switch/router) or virtual external node."""

    device_id: int
    name: str
    kind: str = SWITCH
    labels: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_external(self) -> bool:
        return self.kind == EXTERNAL

    def label(self, key: str, default: Any = None) -> Any:
        return self.labels.get(key, default)

    def __repr__(self) -> str:
        return f"Device({self.device_id}, {self.name!r}, {self.kind})"


class Topology:
    """An undirected multigraph-free topology with named devices.

    Links are undirected; algorithms that need directed edges (verification
    graphs, routing) expand them on the fly.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._devices: Dict[int, Device] = {}
        self._by_name: Dict[str, int] = {}
        self._adj: Dict[int, Set[int]] = {}
        # neighbors() hands out immutable copies of _adj's sets; checkers
        # ask inside per-update loops, so a copy lives until a link changes.
        self._neighbors: Dict[int, FrozenSet[int]] = {}
        # forwarding_links()' table, built on first use; any new device or
        # link drops it.
        self._forwarding_links: Optional[Dict[int, ForwardingLinks]] = None

    # -- construction ----------------------------------------------------
    def add_device(
        self,
        name: str,
        kind: str = SWITCH,
        **labels: Any,
    ) -> int:
        if name in self._by_name:
            raise TopologyError(f"duplicate device name {name!r}")
        device_id = len(self._devices)
        self._devices[device_id] = Device(device_id, name, kind, dict(labels))
        self._by_name[name] = device_id
        self._adj[device_id] = set()
        self._forwarding_links = None
        return device_id

    def add_external(self, name: str, prefixes: Iterable[Any] = ()) -> int:
        return self.add_device(name, kind=EXTERNAL, prefixes=list(prefixes))

    def add_link(self, u: int, v: int) -> None:
        self._require(u)
        self._require(v)
        if u == v:
            raise TopologyError(f"self-loop on device {u}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate link {u}-{v}")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._neighbors.pop(u, None)
        self._neighbors.pop(v, None)
        self._forwarding_links = None

    def add_link_by_name(self, u: str, v: str) -> None:
        self.add_link(self.id_of(u), self.id_of(v))

    # -- lookup ------------------------------------------------------------
    def _require(self, device_id: int) -> None:
        if device_id not in self._devices:
            raise TopologyError(f"unknown device id {device_id}")

    def device(self, device_id: int) -> Device:
        self._require(device_id)
        return self._devices[device_id]

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"unknown device name {name!r}") from None

    def name_of(self, device_id: int) -> str:
        return self.device(device_id).name

    def has_device(self, device_id: int) -> bool:
        return device_id in self._devices

    def has_link(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, device_id: int) -> FrozenSet[int]:
        cached = self._neighbors.get(device_id)
        if cached is None:
            self._require(device_id)
            cached = self._neighbors[device_id] = frozenset(self._adj[device_id])
        return cached

    def forwarding_links(self) -> Dict[int, ForwardingLinks]:
        """``switch → (switch neighbours, external neighbours)`` for every
        switch: the edges a forwarding walk may take, split by whether the
        hop stays inside the network or delivers.

        Built once and kept until a device or link is added, so graph
        searches that run per action vector look up a set instead of
        asking :meth:`has_link` and :meth:`device` on every hop.
        """
        table = self._forwarding_links
        if table is None:
            # Filled before it is published: query threads read it
            # concurrently, and one may find it half built otherwise.
            devices = self._devices
            table = {}
            for node, nbrs in self._adj.items():
                if devices[node].is_external:
                    continue
                outward = frozenset(n for n in nbrs if devices[n].is_external)
                table[node] = (frozenset(nbrs - outward), outward)
            self._forwarding_links = table
        return table

    # -- iteration -----------------------------------------------------------
    def devices(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def device_ids(self) -> List[int]:
        return list(self._devices)

    def switches(self) -> List[int]:
        return [d.device_id for d in self._devices.values() if not d.is_external]

    def externals(self) -> List[int]:
        return [d.device_id for d in self._devices.values() if d.is_external]

    def links(self) -> List[Tuple[int, int]]:
        """Undirected links as (min, max) pairs."""
        out = []
        for u, nbrs in self._adj.items():
            out.extend((u, v) for v in nbrs if u < v)
        return sorted(out)

    def directed_edges(self) -> List[Tuple[int, int]]:
        out = []
        for u, nbrs in self._adj.items():
            out.extend((u, v) for v in nbrs)
        return sorted(out)

    def select(self, **labels: Any) -> List[int]:
        """Device ids whose labels match all given key=value pairs."""
        result = []
        for d in self._devices.values():
            if all(d.labels.get(k) == v for k, v in labels.items()):
                result.append(d.device_id)
        return result

    # -- stats -----------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self._devices)

    @property
    def num_links(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, |V|={self.num_devices}, "
            f"|E|={self.num_links * 2})"
        )

    # -- algorithms ------------------------------------------------------
    def shortest_path_tree(self, source: int) -> Dict[int, List[int]]:
        """BFS shortest paths: device → list of next hops toward ``source``.

        Returns, for every device that can reach ``source``, the neighbors
        that lie on some shortest path toward the source (ECMP set).  The
        source maps to an empty list.
        """
        self._require(source)
        dist: Dict[int, int] = {source: 0}
        frontier = [source]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        next_hops: Dict[int, List[int]] = {}
        for u, d in dist.items():
            if u == source:
                next_hops[u] = []
            else:
                next_hops[u] = sorted(
                    v for v in self._adj[u] if dist.get(v, -1) == d - 1
                )
        return next_hops

    def connected_components(self, nodes: Optional[Iterable[int]] = None) -> List[Set[int]]:
        """Connected components of the subgraph induced by ``nodes``."""
        pool = set(self._devices if nodes is None else nodes)
        components: List[Set[int]] = []
        while pool:
            seed = pool.pop()
            component = {seed}
            stack = [seed]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v in pool:
                        pool.remove(v)
                        component.add(v)
                        stack.append(v)
            components.append(component)
        return components
