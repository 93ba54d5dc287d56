"""Topology generators for every network family used in the evaluation.

The paper evaluates on: LNet (a proprietary Meta Fabric network, 6,016
switches), K-ary fat trees (the planning study of Fig. 15), Internet2
(9 switches / 28 directed edges), Stanford (16 / 37) and Airtel (68 / 260).
The LNet, Airtel and Stanford data are proprietary or external; these
generators rebuild topologies with the same architecture and the documented
sizes so the same code paths are exercised (see DESIGN.md §2).
"""

from __future__ import annotations

import random
from typing import List

from ..errors import TopologyError
from .topology import Topology


def line(n: int) -> Topology:
    """A line of ``n`` switches: s0 - s1 - ... - s(n-1)."""
    topo = Topology(f"line{n}")
    for i in range(n):
        topo.add_device(f"s{i}")
    for i in range(n - 1):
        topo.add_link(i, i + 1)
    return topo


def ring(n: int) -> Topology:
    if n < 3:
        raise TopologyError("a ring needs at least 3 nodes")
    topo = line(n)
    topo.name = f"ring{n}"
    topo.add_link(n - 1, 0)
    return topo


def grid(rows: int, cols: int) -> Topology:
    topo = Topology(f"grid{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            topo.add_device(f"g{r}_{c}", row=r, col=c)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                topo.add_link(u, u + 1)
            if r + 1 < rows:
                topo.add_link(u, u + cols)
    return topo


def fat_tree(k: int) -> Topology:
    """A standard K-ary fat tree (K pods; used by the Fig. 15 planning study).

    Per pod: k/2 edge (ToR) and k/2 aggregation switches; (k/2)^2 core
    switches grouped so that aggregation switch ``a`` of every pod connects
    to cores ``a*k/2 .. (a+1)*k/2 - 1``.
    """
    if k < 2 or k % 2:
        raise TopologyError("fat-tree K must be even and >= 2")
    half = k // 2
    topo = Topology(f"fattree{k}")
    cores = [
        topo.add_device(f"core{i}", role="core", index=i) for i in range(half * half)
    ]
    for pod in range(k):
        aggs = [
            topo.add_device(f"p{pod}_agg{a}", role="agg", pod=pod, index=a)
            for a in range(half)
        ]
        edges = [
            topo.add_device(f"p{pod}_tor{e}", role="tor", pod=pod, index=e)
            for e in range(half)
        ]
        for agg in aggs:
            for edge in edges:
                topo.add_link(agg, edge)
        for a, agg in enumerate(aggs):
            for c in range(half):
                topo.add_link(agg, cores[a * half + c])
    return topo


def fabric(
    pods: int = 8,
    tors_per_pod: int = 8,
    fabrics_per_pod: int = 4,
    spines_per_plane: int = 4,
    name: str = "fabric",
) -> Topology:
    """A Facebook-Fabric-style data center (the LNet architecture).

    * Each pod has ``tors_per_pod`` rack switches (ToRs) and
      ``fabrics_per_pod`` fabric switches; every ToR connects to every
      fabric switch of its pod.
    * There are ``fabrics_per_pod`` spine planes with ``spines_per_plane``
      spine switches each; fabric switch ``f`` of every pod connects to all
      spines of plane ``f``.
    * Every ToR gets one virtual external node holding the rack prefix id
      (filled in by the FIB generators).

    The paper's LNet has 6,016 switches; the default here is 112 switches —
    same architecture, laptop scale (see DESIGN.md §2 substitution 1).
    """
    if fabrics_per_pod < 1 or pods < 1 or tors_per_pod < 1:
        raise TopologyError("fabric dimensions must be positive")
    topo = Topology(name)
    spines: List[List[int]] = []
    for plane in range(fabrics_per_pod):
        spines.append(
            [
                topo.add_device(
                    f"spine{plane}_{i}", role="spine", plane=plane, index=i
                )
                for i in range(spines_per_plane)
            ]
        )
    for pod in range(pods):
        fabs = [
            topo.add_device(f"p{pod}_fab{f}", role="fabric", pod=pod, index=f)
            for f in range(fabrics_per_pod)
        ]
        tors = [
            topo.add_device(f"p{pod}_tor{t}", role="tor", pod=pod, index=t)
            for t in range(tors_per_pod)
        ]
        for fab in fabs:
            for tor in tors:
                topo.add_link(fab, tor)
        for f, fab in enumerate(fabs):
            for spine in spines[f]:
                topo.add_link(fab, spine)
        for t, tor in enumerate(tors):
            host = topo.add_external(f"p{pod}_rack{t}", prefixes=[])
            topo.add_link(tor, host)
            topo.device(tor).labels["rack"] = host
    return topo


_INTERNET2_LINKS = [
    ("seat", "salt"),
    ("seat", "losa"),
    ("losa", "atla"),
    ("losa", "hous"),
    ("salt", "kans"),
    ("kans", "hous"),
    ("kans", "chic"),
    ("hous", "atla"),
    ("hous", "chic"),
    ("chic", "atla"),
    ("chic", "newy"),
    ("chic", "wash"),
    ("atla", "wash"),
    ("wash", "newy"),
]


def internet2() -> Topology:
    """The Internet2/Abilene-style 9-node backbone (Figure 8's setting).

    9 switches, 28 directed edges, including the two links the paper fails
    in the CE2D timeline experiment (chic-atla and chic-kans).  The western
    region (seat-salt-kans-hous-losa-seat) is a chordless ring, like the
    real Abilene: failing a ring link flips routing direction for nearby
    nodes, the classic source of transient loops during convergence.
    """
    topo = Topology("internet2")
    for name in ["seat", "salt", "losa", "kans", "hous", "chic", "atla", "wash", "newy"]:
        topo.add_device(name, role="backbone")
    for u, v in _INTERNET2_LINKS:
        topo.add_link_by_name(u, v)
    return topo


def stanford(zones: int = 14, extra_zone_links: int = 9) -> Topology:
    """A Stanford-backbone-style topology: 2 backbone + 14 zone routers.

    16 switches and 37 undirected links by default (74 directed edges in
    our undirected accounting; the dataset's 37 counts match the link
    total).  Every zone router dual-homes to both backbones, the backbones
    interconnect, and a deterministic set of zone-zone links tops up the
    count.
    """
    topo = Topology("stanford")
    bbra = topo.add_device("bbra", role="backbone")
    bbrb = topo.add_device("bbrb", role="backbone")
    zone_ids = [
        topo.add_device(f"zone{i}", role="zone", index=i) for i in range(zones)
    ]
    topo.add_link(bbra, bbrb)
    for z in zone_ids:
        topo.add_link(bbra, z)
        topo.add_link(bbrb, z)
    rng = random.Random(0x5747)
    added = 0
    attempts = 0
    while added < extra_zone_links and attempts < 1000:
        u, v = rng.sample(zone_ids, 2)
        attempts += 1
        if not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    return topo


def airtel(n: int = 68, links: int = 130, seed: int = 0xA112) -> Topology:
    """An Airtel-style ISP topology: 68 switches, 260 directed edges.

    Built as a preferential-attachment graph (ISP-like degree skew) with a
    deterministic seed, then topped up with random links to hit the exact
    link count.
    """
    if links < n - 1:
        raise TopologyError("too few links for a connected graph")
    topo = Topology("airtel")
    for i in range(n):
        topo.add_device(f"r{i}", role="isp")
    rng = random.Random(seed)
    # Preferential attachment over a seed triangle.
    degree = [0] * n
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        topo.add_link(u, v)
        degree[u] += 1
        degree[v] += 1
    for new in range(3, n):
        candidates = [i for i in range(new) for _ in range(degree[i])]
        target = rng.choice(candidates)
        topo.add_link(new, target)
        degree[new] += 1
        degree[target] += 1
    while topo.num_links < links:
        u, v = rng.sample(range(n), 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    return topo


def three_node_example() -> Topology:
    """The 3-switch network of Figure 2 (S1/S2/S3 with subnet A and GW)."""
    topo = Topology("fig2")
    s1 = topo.add_device("S1")
    s2 = topo.add_device("S2")
    s3 = topo.add_device("S3")
    a = topo.add_external("A", prefixes=["10.0.1.0/24", "10.0.2.0/24"])
    gw = topo.add_external("GW", prefixes=["0.0.0.0/0"])
    topo.add_link(s1, s2)
    topo.add_link(s2, s3)
    topo.add_link(s1, s3)
    topo.add_link(s1, a)
    topo.add_link(s3, gw)
    return topo


def figure3_example() -> Topology:
    """The 8-node waypoint example of Figure 3 (S,A,B,E,C,D,W,Y)."""
    topo = Topology("fig3")
    for name in ["S", "A", "B", "E", "C", "D", "W", "Y"]:
        topo.add_device(name)
    dest = topo.add_external("NET", prefixes=["10.0.0.0/24"])
    for u, v in [
        ("S", "W"),
        ("S", "A"),
        ("A", "B"),
        ("A", "W"),
        ("B", "E"),
        ("B", "Y"),
        ("W", "C"),
        ("Y", "C"),
        ("E", "C"),
        ("C", "D"),
    ]:
        topo.add_link_by_name(u, v)
    topo.add_link(topo.id_of("D"), dest)
    return topo
