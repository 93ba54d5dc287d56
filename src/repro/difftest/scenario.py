"""Fuzzing scenarios: the unit of differential testing.

A :class:`Scenario` is a fully self-contained, JSON-serialisable test
case — topology, header layout, an ordered epoch-tagged update sequence
and requirement specs.  :class:`ScenarioGenerator` draws randomized
scenarios from a seed; the same ``(seed, index)`` always produces the
identical scenario, which is what makes corpus replay and shrinking
deterministic.

The generator aims at the places equivalence-class maintenance engines
historically diverge: overlapping prefixes, priority ties, suffix
matches (Delta-net*'s interval explosion), multi-field matches, ECMP
actions, delete/re-insert churn and rule modifications.  It always emits
*well-behaved* data planes (Definition 4): no two same-priority rules on
one device overlap with different actions, so every engine's tie-break
agrees by construction and any divergence is a genuine bug.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataplane.rule import DROP, Action, Rule, ecmp
from ..dataplane.trace import (
    decode_update,
    match_from_json,
    match_to_json,
    rule_to_json,
)
from ..dataplane.update import RuleUpdate, delete, insert
from ..errors import ReproError
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import Match, Pattern
from ..network import generators
from ..network.topology import Topology
from ..core.rule_index import matches_intersect
from ..spec.requirement import Multiplicity, Requirement, requirement

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------
@dataclass
class RequirementSpec:
    """A serialisable requirement: names in, :class:`Requirement` out."""

    name: str
    sources: Tuple[str, ...]
    expression: str
    packet_space: Match = field(default_factory=Match.wildcard)
    multiplicity: str = Multiplicity.UNICAST.value

    def build(self, topology: Topology, layout: HeaderLayout) -> Requirement:
        return requirement(
            self.name,
            topology,
            layout,
            self.packet_space,
            list(self.sources),
            self.expression,
            Multiplicity(self.multiplicity),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sources": list(self.sources),
            "expression": self.expression,
            "packet_space": match_to_json(self.packet_space),
            "multiplicity": self.multiplicity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequirementSpec":
        return cls(
            name=data["name"],
            sources=tuple(data["sources"]),
            expression=data["expression"],
            packet_space=match_from_json(data.get("packet_space", {})),
            multiplicity=data.get("multiplicity", Multiplicity.UNICAST.value),
        )


@dataclass
class Scenario:
    """One self-contained differential test case."""

    name: str
    seed: int
    layout_fields: Tuple[Tuple[str, int], ...]
    devices: Tuple[Dict[str, Any], ...]  # [{"name", "kind", "prefixes"?}]
    links: Tuple[Tuple[int, int], ...]
    epoch: str
    order: Tuple[int, ...]  # device sync order for the Flash facade
    updates: Tuple[RuleUpdate, ...]
    requirements: Tuple[RequirementSpec, ...] = ()
    description: str = ""

    # -- builders --------------------------------------------------------
    def build_layout(self) -> HeaderLayout:
        return HeaderLayout(list(self.layout_fields))

    def build_topology(self) -> Topology:
        topo = Topology(self.name)
        for spec in self.devices:
            if spec.get("kind") == "external":
                prefixes = [tuple(p) for p in spec.get("prefixes", [])]
                topo.add_external(spec["name"], prefixes=prefixes)
            else:
                topo.add_device(spec["name"])
        for u, v in self.links:
            topo.add_link(u, v)
        return topo

    def build_requirements(
        self, topology: Topology, layout: HeaderLayout
    ) -> List[Requirement]:
        return [spec.build(topology, layout) for spec in self.requirements]

    # -- serialisation ---------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "layout": [[n, w] for n, w in self.layout_fields],
            "devices": [dict(d) for d in self.devices],
            "links": [[u, v] for u, v in self.links],
            "epoch": self.epoch,
            "order": list(self.order),
            "updates": [
                {
                    "op": u.op.value,
                    "device": u.device,
                    "rule": rule_to_json(u.rule),
                }
                for u in self.updates
            ],
            "requirements": [r.as_dict() for r in self.requirements],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if data.get("format") != FORMAT_VERSION:
            raise ReproError(
                f"unsupported scenario format {data.get('format')!r}"
            )
        epoch = data["epoch"]
        return cls(
            name=data["name"],
            seed=int(data.get("seed", 0)),
            layout_fields=tuple((n, int(w)) for n, w in data["layout"]),
            devices=tuple(dict(d) for d in data["devices"]),
            links=tuple((int(u), int(v)) for u, v in data["links"]),
            epoch=epoch,
            order=tuple(int(d) for d in data["order"]),
            updates=tuple(
                decode_update(u, u["rule"], epoch) for u in data["updates"]
            ),
            requirements=tuple(
                RequirementSpec.from_dict(r) for r in data.get("requirements", ())
            ),
            description=data.get("description", ""),
        )

    def replace_updates(self, updates: Sequence[RuleUpdate]) -> "Scenario":
        return Scenario(
            name=self.name,
            seed=self.seed,
            layout_fields=self.layout_fields,
            devices=self.devices,
            links=self.links,
            epoch=self.epoch,
            order=self.order,
            updates=tuple(updates),
            requirements=self.requirements,
            description=self.description,
        )

    def replace_requirements(
        self, requirements: Sequence[RequirementSpec]
    ) -> "Scenario":
        return Scenario(
            name=self.name,
            seed=self.seed,
            layout_fields=self.layout_fields,
            devices=self.devices,
            links=self.links,
            epoch=self.epoch,
            order=self.order,
            updates=self.updates,
            requirements=tuple(requirements),
            description=self.description,
        )

    def __len__(self) -> int:
        return len(self.updates)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs of one fuzzing profile."""

    name: str
    min_switches: int
    max_switches: int
    min_ops: int
    max_ops: int
    layouts: Tuple[Tuple[Tuple[str, int], ...], ...]
    max_requirements: int


PROFILES: Dict[str, FuzzProfile] = {
    # Smoke keeps the flattened universe at <= 2^6 headers so the
    # brute-force oracle stays fast enough for a CI gate.
    "smoke": FuzzProfile(
        name="smoke",
        min_switches=4,
        max_switches=6,
        min_ops=4,
        max_ops=18,
        layouts=(
            (("dst", 4),),
            (("dst", 5),),
            (("dst", 6),),
            (("dst", 4), ("src", 2)),
        ),
        max_requirements=2,
    ),
    "deep": FuzzProfile(
        name="deep",
        min_switches=4,
        max_switches=9,
        min_ops=8,
        max_ops=48,
        layouts=(
            (("dst", 4),),
            (("dst", 6),),
            (("dst", 8),),
            (("dst", 4), ("src", 2)),
            (("dst", 6), ("src", 2)),
            (("dst", 4), ("src", 2), ("proto", 1)),
        ),
        max_requirements=3,
    ),
}


class ScenarioGenerator:
    """Seeded generator of randomized differential scenarios.

    ``generator.scenario(i)`` is a pure function of ``(seed, profile, i)``;
    iterating the generator yields scenario 0, 1, 2, ... in order.
    """

    def __init__(self, seed: int = 1234, profile: str = "smoke") -> None:
        if profile not in PROFILES:
            raise ReproError(
                f"unknown fuzz profile {profile!r}; pick from {sorted(PROFILES)}"
            )
        self.seed = seed
        self.profile = PROFILES[profile]

    # -- public API ------------------------------------------------------
    def scenario(self, index: int) -> Scenario:
        rng = random.Random((self.seed << 24) ^ (index * 0x9E3779B1) ^ index)
        return self._build(rng, index)

    def stream(self, count: Optional[int]) -> Iterator[Scenario]:
        """Scenarios 0, 1, ... — ``count`` of them, or endless on None."""
        for i in range(count) if count is not None else itertools.count():
            yield self.scenario(i)

    # -- internals -------------------------------------------------------
    def _build(self, rng: random.Random, index: int) -> Scenario:
        profile = self.profile
        layout_fields = rng.choice(profile.layouts)
        layout = HeaderLayout(list(layout_fields))
        topo, sink = self._random_topology(rng)
        switches = sorted(topo.switches())
        updates = self._random_updates(rng, topo, layout, switches)
        order = list(switches)
        rng.shuffle(order)
        requirements = self._random_requirements(
            rng, topo, layout, switches, updates
        )
        epoch = f"fuzz-{self.profile.name}-{self.seed}-{index}"
        devices: List[Dict[str, Any]] = []
        for dev_id in sorted(topo._devices):  # noqa: SLF001 - id order
            dev = topo.device(dev_id)
            if dev.is_external:
                devices.append(
                    {
                        "name": dev.name,
                        "kind": "external",
                        "prefixes": [list(p) for p in dev.label("prefixes", [])],
                    }
                )
            else:
                devices.append({"name": dev.name, "kind": "switch"})
        links = sorted(
            (min(u, v), max(u, v))
            for u in topo._adj  # noqa: SLF001
            for v in topo._adj[u]
            if u < v
        )
        return Scenario(
            name=f"fuzz_{self.profile.name}_{self.seed}_{index}",
            seed=self.seed,
            layout_fields=tuple(layout_fields),
            devices=tuple(devices),
            links=tuple(links),
            epoch=epoch,
            order=tuple(order),
            updates=tuple(u.with_epoch(epoch) for u in updates),
            requirements=tuple(requirements),
            description=f"generated by ScenarioGenerator(seed={self.seed}, "
            f"profile={self.profile.name!r}), index {index}",
        )

    def _random_topology(self, rng: random.Random) -> Tuple[Topology, int]:
        profile = self.profile
        n = rng.randint(profile.min_switches, profile.max_switches)
        family = rng.choice(["random", "random", "line", "ring", "grid"])
        if family == "line":
            topo = generators.line(n)
        elif family == "ring":
            topo = generators.ring(max(n, 3))
        elif family == "grid":
            topo = generators.grid(2, max(n // 2, 2))
        else:
            topo = Topology(f"rand{n}")
            for i in range(n):
                topo.add_device(f"s{i}")
            for i in range(1, n):
                topo.add_link(i, rng.randrange(i))
            for _ in range(rng.randint(0, n)):
                u, v = rng.sample(range(n), 2)
                if not topo.has_link(u, v):
                    topo.add_link(u, v)
        # One external sink owning the whole space: the unambiguous '>'
        # destination for requirements and the oracle alike.
        switches = sorted(topo.switches())
        sink = topo.add_external("sink", prefixes=[(0, 0)])
        topo.add_link(rng.choice(switches), sink)
        return topo, sink

    def _random_match(
        self, rng: random.Random, layout: HeaderLayout
    ) -> Match:
        dst = layout.field("dst")
        kind = rng.random()
        patterns: Dict[str, Pattern] = {}
        if kind < 0.55:  # overlapping prefixes (the common FIB shape)
            length = rng.randint(0, dst.width)
            patterns["dst"] = Pattern.prefix(
                rng.randint(0, dst.max_value), length, dst.width
            )
        elif kind < 0.72:  # suffix matches: Delta-net*'s interval explosion
            length = rng.randint(1, dst.width)
            patterns["dst"] = Pattern.suffix(
                rng.randint(0, dst.max_value), length, dst.width
            )
        elif kind < 0.9:  # exact / range
            if rng.random() < 0.5:
                patterns["dst"] = Pattern.exact(
                    rng.randint(0, dst.max_value), dst.width
                )
            else:
                lo = rng.randint(0, dst.max_value)
                hi = rng.randint(lo, dst.max_value)
                patterns["dst"] = Pattern.range(lo, hi, dst.width)
        # else: dst wildcard
        if layout.has_field("src") and rng.random() < 0.35:
            src = layout.field("src")
            patterns["src"] = Pattern.prefix(
                rng.randint(0, src.max_value),
                rng.randint(1, src.width),
                src.width,
            )
        return Match(patterns)

    def _random_action(
        self, rng: random.Random, topo: Topology, device: int
    ) -> Action:
        neighbors = sorted(topo.neighbors(device))
        roll = rng.random()
        if roll < 0.15 or not neighbors:
            return DROP
        if roll < 0.3 and len(neighbors) >= 2:
            return ecmp(*rng.sample(neighbors, 2))
        return rng.choice(neighbors)

    def _random_updates(
        self,
        rng: random.Random,
        topo: Topology,
        layout: HeaderLayout,
        switches: List[int],
    ) -> List[RuleUpdate]:
        profile = self.profile
        num_ops = rng.randint(profile.min_ops, profile.max_ops)
        installed: Dict[int, List[Rule]] = {d: [] for d in switches}
        updates: List[RuleUpdate] = []
        for _ in range(num_ops):
            device = rng.choice(switches)
            have = installed[device]
            roll = rng.random()
            if have and roll < 0.18:  # delete
                victim = rng.choice(have)
                have.remove(victim)
                updates.append(delete(device, victim))
                continue
            if have and roll < 0.33:  # modify: delete + re-insert new action
                victim = rng.choice(have)
                action = self._random_action(rng, topo, device)
                replacement = Rule(victim.priority, victim.match, action)
                if replacement == victim or not self._well_behaved(
                    replacement, [r for r in have if r is not victim]
                ):
                    continue
                have.remove(victim)
                updates.append(delete(device, victim))
                have.append(replacement)
                updates.append(insert(device, replacement))
                continue
            rule = self._fresh_rule(rng, topo, layout, device, have)
            if rule is None:
                continue
            have.append(rule)
            updates.append(insert(device, rule))
        return updates

    def _fresh_rule(
        self,
        rng: random.Random,
        topo: Topology,
        layout: HeaderLayout,
        device: int,
        installed: List[Rule],
    ) -> Optional[Rule]:
        """A new rule keeping the device's table well behaved."""
        for _ in range(8):
            match = self._random_match(rng, layout)
            # Small priority range on purpose: priority ties are where
            # tie-break bugs live.
            priority = rng.randint(0, 4)
            action = self._random_action(rng, topo, device)
            rule = Rule(priority, match, action)
            if rule in installed:
                continue
            if self._well_behaved(rule, installed):
                return rule
            # Conflict at the same priority: adopting the conflicting
            # rule's action keeps the tie while staying well behaved.
            peers = [
                r
                for r in installed
                if r.priority == priority and matches_intersect(r.match, match)
            ]
            actions = {r.action for r in peers}
            if len(actions) == 1:
                adopted = Rule(priority, match, actions.pop())
                if adopted not in installed:
                    return adopted
        return None

    @staticmethod
    def _well_behaved(rule: Rule, installed: Sequence[Rule]) -> bool:
        """Definition 4: no same-priority overlap with a different action."""
        return not any(
            r.priority == rule.priority
            and r.action != rule.action
            and matches_intersect(r.match, rule.match)
            for r in installed
        )

    def _random_requirements(
        self,
        rng: random.Random,
        topo: Topology,
        layout: HeaderLayout,
        switches: List[int],
        updates: Sequence[RuleUpdate],
    ) -> List[RequirementSpec]:
        from .oracle import ReferenceOracle  # local import: no cycle at load

        specs: List[RequirementSpec] = []
        count = rng.randint(0, self.profile.max_requirements)
        oracle: Optional[ReferenceOracle] = None
        for i in range(count):
            source_id = rng.choice(switches)
            source = topo.name_of(source_id)
            roll = rng.random()
            space: Optional[Match] = None
            if roll < 0.30:
                # Bias toward a header the final data plane delivers, so
                # SATISFIED verdicts are exercised, not just VIOLATED
                # ones (a random space almost never fully delivers).
                if oracle is None:
                    oracle = ReferenceOracle(topo, layout)
                    oracle.process_updates(updates)
                delivered = oracle.reachable_headers(source_id)
                if delivered:
                    values = layout.unflatten(rng.choice(delivered))
                    space = Match.exact(layout, **values)
            if space is None and roll < 0.70:
                space = Match.wildcard()
            if space is None:
                dst = layout.field("dst")
                space = Match.dst_prefix(
                    rng.randint(0, dst.max_value),
                    rng.randint(1, min(2, dst.width)),
                    layout,
                )
            specs.append(
                RequirementSpec(
                    name=f"reach-{i}-{source}",
                    sources=(source,),
                    expression=f"{source} .* >",
                    packet_space=space,
                )
            )
        return specs
