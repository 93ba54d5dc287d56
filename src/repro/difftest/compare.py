"""Canonical model views for cross-engine comparison.

Every engine under differential test exports its final model as a
:class:`ModelView`: a list of ``(predicate, behavior)`` entries living in
one shared *comparison engine*, with behavior as a device→action dict
over the canonical (ascending id) device order.  Flash and APKeep*
predicates are transplanted BDD-to-BDD
(:meth:`~repro.bdd.predicate.PredicateEngine.import_predicate`);
Delta-net* atoms become prefix-cover cubes over the flattened header
integer; oracle header classes become disjunctions of exact-header cubes.

Because everything lands in one engine with one variable order, *BDD
node equality* is function equality — reachability predicates, loop
predicates and per-device behavior maps are compared exactly, not by
sampling.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.rule import Action
from ..headerspace.fields import HeaderLayout
from ..network.topology import Topology
from .oracle import (
    ReferenceOracle,
    StepVerdicts,
    forwarding_cycle,
    reaches_external,
    verdicts_of,
)

#: A model as ``(predicate, action_of)`` pairs, ``action_of(device)``
#: being the action that device applies to the predicate's headers.
ActionEntries = List[Tuple[Predicate, Callable[[int], Action]]]


def header_cube(engine: PredicateEngine, header: int, total_bits: int) -> Predicate:
    """The exact-header cube: variable k holds flattened bit total_bits-1-k."""
    return engine.cube(
        (k, bool((header >> (total_bits - 1 - k)) & 1)) for k in range(total_bits)
    )


def interval_predicate(
    engine: PredicateEngine, lo: int, hi: int, total_bits: int
) -> Predicate:
    """The predicate of the inclusive flattened-header range [lo, hi]."""
    full = (1 << total_bits) - 1
    result = engine.false
    while lo <= hi:
        size = lo & -lo if lo else full + 1
        while lo + size - 1 > hi:
            size >>= 1
        mask = full & ~(size - 1)
        result = result | engine.cube(
            (k, bool((lo >> (total_bits - 1 - k)) & 1))
            for k in range(total_bits)
            if (mask >> (total_bits - 1 - k)) & 1
        )
        lo += size
    return result


def assignment_to_values(
    layout: HeaderLayout, assignment: Optional[Dict[int, bool]]
) -> Optional[Dict[str, int]]:
    """Decode a BDD satisfying assignment into field values (don't-cares → 0)."""
    if assignment is None:
        return None
    values: Dict[str, int] = {}
    for f in layout.fields:
        base = layout.offset(f.name)
        value = 0
        for i in range(f.width):
            value = (value << 1) | int(assignment.get(base + i, False))
        values[f.name] = value
    return values


class ModelView:
    """One engine's final data plane model, in the comparison engine."""

    def __init__(
        self,
        name: str,
        engine: PredicateEngine,
        devices: Sequence[int],
        entries: Iterable[Tuple[Predicate, Dict[int, Action]]],
    ) -> None:
        self.name = name
        self.engine = engine
        self.devices = list(devices)
        # Coalesce same-behavior entries so views are canonical regardless
        # of how fragmented the source engine's EC table was.
        merged: Dict[Tuple[Action, ...], Predicate] = {}
        for pred, actions in entries:
            if pred.is_false:
                continue
            vector = tuple(actions[d] for d in self.devices)
            existing = merged.get(vector)
            merged[vector] = pred if existing is None else existing | pred
        self.entries: List[Tuple[Predicate, Dict[int, Action]]] = [
            (pred, dict(zip(self.devices, vector)))
            for vector, pred in merged.items()
        ]

    # -- derived predicates ---------------------------------------------
    def behavior_map(self) -> Dict[int, Dict[Action, Predicate]]:
        """Per device: action → header space forwarded with that action."""
        out: Dict[int, Dict[Action, Predicate]] = {d: {} for d in self.devices}
        for pred, actions in self.entries:
            for device in self.devices:
                action = actions[device]
                existing = out[device].get(action)
                out[device][action] = (
                    pred if existing is None else existing | pred
                )
        return out

    def action_entries(self) -> ActionEntries:
        return [(pred, actions.__getitem__) for pred, actions in self.entries]

    def reach_predicate(self, topology: Topology, source: int) -> Predicate:
        """Headers delivered externally from ``source`` (existential)."""
        return reach_predicate(self.engine, self.action_entries(), topology, source)

    def loop_predicate(self, topology: Topology) -> Predicate:
        """Headers whose forwarding graph contains a cycle."""
        result = self.engine.false
        for pred, actions in self.entries:
            if forwarding_cycle(topology, actions.__getitem__):
                result = result | pred
        return result

    def universe(self) -> Predicate:
        return self.engine.disj_many(p for p, _ in self.entries)

    def __repr__(self) -> str:
        return f"ModelView({self.name!r}, {len(self.entries)} classes)"


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------
def reach_predicate(
    engine: PredicateEngine, entries: ActionEntries, topology: Topology, source: int
) -> Predicate:
    """The union of the entries some walk from ``source`` delivers."""
    result = engine.false
    for pred, action_of in entries:
        if reaches_external(topology, action_of, source):
            result = result | pred
    return result


def model_entries(model) -> ActionEntries:
    """The :data:`ActionEntries` of an ``InverseModel`` or ``FrozenReadView``."""
    return [(pred, partial(model.action_of, vec)) for pred, vec in model.entries()]


def derive_verdicts(
    entries: ActionEntries, topology: Topology, requirements, spaces
) -> StepVerdicts:
    """The loop verdict and one verdict per requirement, off a model.

    The verdicts every engine without a checker of its own is held to —
    the baselines' and the oracle's final models, the chaos runner's
    supervised writers and every intermediate state the interleave
    runner steps through.  ``spaces`` are the requirements' packet
    spaces compiled in the entries' engine.  The model loops when some
    header's forwarding graph has a cycle; a requirement is VIOLATED
    when some source fails to deliver part of its packet space.
    """
    entries = [(pred, action_of) for pred, action_of in entries if not pred.is_false]
    looped = any(forwarding_cycle(topology, action_of) for _, action_of in entries)
    reach: Dict[int, Predicate] = {}
    violated = []
    for req, space in zip(requirements, spaces):
        missed = False
        for source in req.sources:
            if source not in reach:
                reach[source] = reach_predicate(space.engine, entries, topology, source)
            if not (space - reach[source]).is_false:
                missed = True
                break
        violated.append(missed)
    return verdicts_of(looped, violated)


# ---------------------------------------------------------------------------
# per-engine extraction
# ---------------------------------------------------------------------------
def view_from_inverse_model(
    name: str,
    engine: PredicateEngine,
    model,
    devices: Sequence[int],
) -> ModelView:
    """From a Flash :class:`~repro.core.inverse_model.InverseModel`.

    The EC predicates travel as one bulk import: the table's shared DAG
    is walked once, not once per EC.
    """
    pairs = model.entries()
    imported = engine.import_predicates([pred for pred, _ in pairs])
    entries = [
        (ipred, {d: model.action_of(vec, d) for d in devices})
        for ipred, (_, vec) in zip(imported, pairs)
    ]
    return ModelView(name, engine, devices, entries)


def view_from_apkeep(name: str, engine: PredicateEngine, verifier) -> ModelView:
    devices = list(verifier.devices)
    pairs = list(verifier.entries())
    imported = engine.import_predicates([pred for pred, _ in pairs])
    entries = [
        (ipred, dict(zip(devices, vector)))
        for ipred, (_, vector) in zip(imported, pairs)
    ]
    return ModelView(name, engine, devices, entries)


def view_from_deltanet(
    name: str, engine: PredicateEngine, verifier, layout: HeaderLayout
) -> ModelView:
    devices = list(verifier.devices)
    entries = []
    for lo, hi, vector in verifier.atoms():
        pred = interval_predicate(engine, lo, hi - 1, layout.total_bits)
        entries.append((pred, dict(zip(devices, vector))))
    return ModelView(name, engine, devices, entries)


def view_from_oracle(
    name: str, engine: PredicateEngine, oracle: ReferenceOracle
) -> ModelView:
    layout = oracle.layout
    entries = []
    for vector, headers in oracle.classes().items():
        pred = engine.disj_many(
            header_cube(engine, h, layout.total_bits) for h in headers
        )
        entries.append((pred, dict(zip(oracle.devices, vector))))
    return ModelView(name, engine, oracle.devices, entries)
