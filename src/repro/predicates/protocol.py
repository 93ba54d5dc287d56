"""The formal predicate-backend protocol.

Flash's performance story rests on *one* predicate representation (BDDs),
but the lattice view of header spaces (PAPERS.md: Horn/Kheradmand/Prasad)
shows BDDs, Delta-net atoms and interval sets are instances of a single
abstraction: a Boolean algebra over the flattened header universe with a
canonical identity per element.  This module writes that abstraction down
as a :class:`typing.Protocol` pair so the higher layers — the inverse
model, MR2, CE2D checkers, difftest compare and FBW1 shipping — can be
written once and run against any representation.

The contract is exactly the duck-typed surface
:class:`~repro.bdd.predicate.PredicateEngine` already exposes, so the BDD
engine *is* a backend without adaptation; the interval backend
(:mod:`repro.predicates.intervals`) is the second implementation, and the
cross-backend conformance suite (``tests/test_backend_conformance.py``)
is the definition of "implements the protocol correctly":

* algebraic laws (commutativity, associativity, distributivity,
  De Morgan, absorption, double negation);
* ``split(a, b) == (a & b, a - b)``;
* signatures over-approximate exactly as documented
  (``sig(a|b) == sig(a)|sig(b)``, disjoint signatures ⇒ disjoint sets);
* FBW1 wire round-trips, including cross-backend import;
* ``sat_count`` against brute-force enumeration.

Requirements beyond the method signatures
-----------------------------------------

**Canonical node ids.**  ``handle.node`` must be a hashable id such that
two handles of one engine denote the same Boolean function iff their
``node`` ids are equal, with ``FALSE == 0`` and ``TRUE == 1`` reserved
for ⊥ and ⊤.  The EC table (:class:`~repro.core.inverse_model.EcDelta`
lineage), ``reduce_by_predicate`` grouping and the CE2D regex verifier
all key dictionaries on ``node``.

**Handles are GC roots.**  Backends with storage reclamation must keep a
node alive while any handle for it is reachable; backends without
reclamation return 0 from :meth:`PredicateBackend.collect`.

**Variable order.**  Variable ``0`` is the most significant bit of the
flattened header (:class:`~repro.headerspace.fields.HeaderLayout` order);
all backends over one layout agree on it, which is what makes the wire
format and the signature masks interchangeable.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)


@runtime_checkable
class PredicateHandle(Protocol):
    """An immutable Boolean function over a backend's header variables.

    Operators mirror :class:`~repro.bdd.predicate.Predicate`; equality
    and hashing are O(1) by canonicity of ``node`` ids.
    """

    engine: "PredicateBackend"
    node: int

    # -- algebra -------------------------------------------------------
    def __and__(self, other: "PredicateHandle") -> "PredicateHandle": ...
    def __or__(self, other: "PredicateHandle") -> "PredicateHandle": ...
    def __invert__(self) -> "PredicateHandle": ...
    def __sub__(self, other: "PredicateHandle") -> "PredicateHandle": ...
    def __xor__(self, other: "PredicateHandle") -> "PredicateHandle": ...

    def split(
        self, other: "PredicateHandle"
    ) -> Tuple["PredicateHandle", "PredicateHandle"]: ...

    # -- queries -------------------------------------------------------
    @property
    def is_false(self) -> bool: ...
    @property
    def is_true(self) -> bool: ...

    def intersects(self, other: "PredicateHandle") -> bool: ...
    def covers(self, other: "PredicateHandle") -> bool: ...
    def sat_count(self) -> int: ...
    def evaluate(self, assignment: Dict[int, bool]) -> bool: ...
    def any_assignment(self) -> Optional[Dict[int, bool]]: ...
    def node_count(self) -> int: ...


@runtime_checkable
class PredicateBackend(Protocol):
    """Factory, algebra and accounting for one predicate representation.

    Every operation that allocates or combines predicates is *counted*
    through ``metrics`` (an :class:`~repro.telemetry.OpMetrics` over
    ``registry``) so Table-3 op counts stay comparable across
    representations.
    """

    #: Stable identifier ("bdd", "intervals", ...) used by the selector,
    #: the difftest backend sweep and telemetry labels.
    backend_name: str

    registry: object  # MetricsRegistry
    metrics: object  # OpMetrics

    # -- constants -----------------------------------------------------
    @property
    def false(self) -> PredicateHandle: ...
    @property
    def true(self) -> PredicateHandle: ...
    @property
    def num_vars(self) -> int: ...

    # -- construction --------------------------------------------------
    def pred(self, node: int) -> PredicateHandle: ...
    def variable(self, i: int) -> PredicateHandle: ...
    def literal(self, i: int, value: bool) -> PredicateHandle: ...
    def cube(
        self, literals: Iterable[Tuple[int, bool]]
    ) -> PredicateHandle: ...

    # -- counted operations --------------------------------------------
    def conj(
        self, a: PredicateHandle, b: PredicateHandle
    ) -> PredicateHandle: ...
    def disj(
        self, a: PredicateHandle, b: PredicateHandle
    ) -> PredicateHandle: ...
    def neg(self, a: PredicateHandle) -> PredicateHandle: ...
    def diff(
        self, a: PredicateHandle, b: PredicateHandle
    ) -> PredicateHandle: ...
    def xor(
        self, a: PredicateHandle, b: PredicateHandle
    ) -> PredicateHandle: ...
    def ite(
        self, f: PredicateHandle, g: PredicateHandle, h: PredicateHandle
    ) -> PredicateHandle: ...
    def split(
        self, a: PredicateHandle, b: PredicateHandle
    ) -> Tuple[PredicateHandle, PredicateHandle]: ...
    def disj_many(
        self, preds: Iterable[PredicateHandle]
    ) -> PredicateHandle: ...
    def conj_many(
        self, preds: Iterable[PredicateHandle]
    ) -> PredicateHandle: ...

    # -- pruning masks -------------------------------------------------
    def signature(self, pred: PredicateHandle) -> int: ...

    # -- cross-engine --------------------------------------------------
    def import_predicate(self, pred: PredicateHandle) -> PredicateHandle: ...
    def import_predicates(
        self, preds: Iterable[PredicateHandle]
    ) -> List[PredicateHandle]: ...
    def export_bytes(self, preds: Iterable[PredicateHandle]) -> bytes: ...
    def import_bytes(self, data: bytes) -> List[PredicateHandle]: ...

    # -- delta frames (FBW2) -------------------------------------------
    # A table shipped repeatedly is encoded against the last shipped
    # frame: export returns FBW2 (or a smaller full FBW1 frame), apply
    # accepts either and hard-fails on a stale base fingerprint.
    # Fingerprints are of the base frame's *bytes*
    # (wire.fingerprint_blob), never recomputed from engine contents.
    def export_delta_bytes(
        self,
        preds: Iterable[PredicateHandle],
        base_preds: Iterable[PredicateHandle],
        base_fingerprint: int,
    ) -> bytes: ...
    def apply_delta_bytes(
        self,
        data: bytes,
        base_preds: Sequence[PredicateHandle],
        base_fingerprint: int,
    ) -> Tuple[List[PredicateHandle], List[Optional[int]]]: ...

    # -- lifecycle -----------------------------------------------------
    def collect(self, extra_roots: Iterable[int] = ()) -> int: ...
    def pin(self, pred: PredicateHandle) -> PredicateHandle: ...
    def unpin(self, pred: PredicateHandle) -> None: ...

    # -- reporting -----------------------------------------------------
    def shared_node_count(self, preds: Iterable[PredicateHandle]) -> int: ...
    def memory_estimate_bytes(self) -> int: ...
