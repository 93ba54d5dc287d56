"""The product's per-vector classifiers against the oracle's graph searches.

``repro.ce2d.forwarding`` answers every served loop, reachability and
waypoint query; ``repro.difftest.oracle`` keeps its own plain searches
over the same semantics.  Random topologies and random action vectors —
ECMP sets, ``DROP``, a missing action, next hops with no link, hops onto
externals and onto devices that are not neighbours — must get the same
answer from both, for every source and every waypoint.
"""

import pytest

from repro.ce2d import forwarding
from repro.dataplane.rule import DROP
from repro.difftest import oracle
from repro.network.topology import Topology

from .conftest import case_rng


def random_topology(rng):
    topo = Topology("random")
    switches = [topo.add_device(f"s{i}") for i in range(rng.randint(2, 7))]
    for i in range(1, len(switches)):
        topo.add_link(switches[i], switches[rng.randrange(i)])
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(switches, 2)
        if not topo.has_link(u, v):
            topo.add_link(u, v)
    for i in range(rng.randint(1, 3)):
        topo.add_link(rng.choice(switches), topo.add_external(f"x{i}"))
    return topo


def random_action(rng, devices):
    roll = rng.random()
    if roll < 0.15:
        return DROP
    if roll < 0.2:
        return None  # the device has no entry in the vector
    if roll < 0.45:
        return tuple(sorted(rng.sample(devices, min(len(devices), rng.randint(2, 3)))))
    return rng.choice(devices)  # linked or not, switch or external


@pytest.mark.parametrize("seed", range(4))
def test_product_classifiers_equal_the_oracle(seed):
    rng = case_rng(0xF0A + seed)
    kinds = set()
    for _ in range(60):
        topo = random_topology(rng)
        devices = topo.device_ids()
        actions = {s: random_action(rng, devices) for s in topo.switches()}
        action_of = actions.get
        cycle = forwarding.forwarding_cycle(topo, action_of)
        assert cycle == oracle.forwarding_cycle(topo, action_of), actions
        kinds.add(("cycle", cycle))
        for source in devices:
            reach = forwarding.reaches_external(topo, action_of, source)
            assert reach == oracle.reaches_external(topo, action_of, source)
            kinds.add(("reach", reach))
            for waypoint in devices:
                bypass = forwarding.reaches_external_avoiding(
                    topo, action_of, source, waypoint
                )
                assert bypass == oracle.reaches_external_avoiding(
                    topo, action_of, source, waypoint
                ), (actions, source, waypoint)
                kinds.add(("bypass", bypass))
    assert len(kinds) == 6  # every answer of every classifier was exercised


def test_links_added_after_a_search_are_seen():
    topo = Topology("grow")
    a, b = topo.add_device("a"), topo.add_device("b")
    actions = {a: b, b: a}
    assert not forwarding.forwarding_cycle(topo, actions.get)  # no link yet
    topo.add_link(a, b)
    assert forwarding.forwarding_cycle(topo, actions.get)
    x = topo.add_external("x")
    topo.add_link(b, x)
    assert forwarding.reaches_external(topo, {a: b, b: x}.get, a)
