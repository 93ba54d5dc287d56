"""The model manager of a subspace verifier (Figure 1, steps 5-6).

Maintains the FIB snapshot and the inverse model, buffering incoming rule
updates until the *block size threshold* (BST, §5.2's parameter B) is
reached, then running the Fast IMT pipeline to produce conflict-free model
overwrites and the updated equivalence classes.

The API is split along CE2D's read/write seam:

* :class:`ModelWriter` — the single-writer surface (``submit`` /
  ``flush`` / ``rollback``).  Every flush that changes the model
  advances a monotonically increasing **model epoch**.
* :class:`FrozenReadView` — the one type readers consume: a
  snapshot-pinned EC table (``entries`` / ``num_ecs`` / ``action_of`` /
  ``vector_for``) plus the engine/layout needed to evaluate queries.
  :meth:`ModelWriter.read_view` captures one; because predicates are
  immutable BDD handles and the PAT store is append-only hash-consed,
  the captured view stays valid (and answers identically) no matter how
  far the writer advances.

A model version is one object: a :class:`FrozenReadView` holds both
halves of it, the installed rules and the EC table they determine, and
:meth:`ModelWriter.rollback` puts a view back in place.

``repro.serve`` builds its snapshot-isolated query daemon on this split;
see ``docs/serve.md`` for the consistency contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.predicate import Predicate, PredicateEngine
from ..dataplane.fib import FibSnapshot
from ..dataplane.rule import Action, Rule, default_rule
from ..dataplane.update import RuleUpdate, UpdateBlock
from ..headerspace.fields import HeaderLayout
from ..headerspace.match import MatchCompiler
from ..telemetry import PhaseBreakdown, Telemetry
from .actiontree import FAN, ActionTreeStore
from .imt import replace_table_rules
from .inverse_model import InverseModel, Lineage, VecId, compose_lineage
from .mr2 import Mr2Pipeline

# Bytes a PAT node takes; ModelWriter.memory_estimate_bytes spells out the sum.
_PAT_NODE_BYTES = (40 + 8 * FAN + 15) // 16 * 16 + 64 + 32 + 8 + 24


class FrozenReadView:
    """One model epoch, immutable: its installed rules and its EC table.

    What a reader may do with a model version, and nothing else.  Every
    method answers against the one consistent model version (one writer
    epoch) the view was captured at, regardless of concurrent writer
    progress; ``repro.serve`` publishes views of this type as its
    snapshots.

    Cheap to capture: predicates are shared immutable handles (holding
    them also roots them against engine GC), action vectors are ids
    into the append-only PAT store and rules are immutable values, so
    the capture is a copy of the table and of each device's rule list —
    no BDD state is duplicated.  ``rules`` holds ``(device, rules)``
    pairs, each device's installed rules in table order without the
    default rule.  The view keeps answering for the epoch it was pinned
    at even while the owning :class:`ModelWriter` keeps flushing, and
    :meth:`ModelWriter.rollback` restores it.

    A reader on another thread than the writer's may count, sign and
    import the view's predicates but never combine them: an apply
    allocates in the writer's store.  What a reader builds (a query's
    scope) it builds with :attr:`compiler`, in a private engine.
    """

    __slots__ = (
        "engine",
        "layout",
        "store",
        "devices",
        "epoch",
        "universe",
        "rules",
        "_entries",
        "_compiler",
    )

    def __init__(
        self,
        engine: PredicateEngine,
        layout: HeaderLayout,
        store: ActionTreeStore,
        devices: Sequence[int],
        entries: Sequence[Tuple[Predicate, VecId]],
        epoch: int,
        universe: Predicate,
        rules: Tuple[Tuple[int, Tuple[Rule, ...]], ...],
    ) -> None:
        self.engine = engine
        self.layout = layout
        self.store = store
        self.devices = list(devices)
        self.epoch = epoch
        self.universe = universe
        self.rules = rules
        self._entries: Tuple[Tuple[Predicate, VecId], ...] = tuple(entries)
        self._compiler: Optional[MatchCompiler] = None

    # -- the read surface ----------------------------------------------
    def num_ecs(self) -> int:
        return len(self._entries)

    def entries(self) -> Sequence[Tuple[Predicate, VecId]]:
        return self._entries

    def action_of(self, vector: VecId, device: int) -> Action:
        return self.store.get(vector, device)

    def vector_for(self, assignment: Dict[int, bool]) -> VecId:
        for pred, vector in self._entries:
            if pred.evaluate(assignment):
                return vector
        from ..errors import ModelInvariantError

        raise ModelInvariantError("header not covered by any EC")

    def behavior(self, assignment: Dict[int, bool]) -> Dict[int, Action]:
        return self.store.to_dict(self.vector_for(assignment))

    @property
    def compiler(self) -> MatchCompiler:
        """A match compiler over this view's private scope engine (built
        lazily), never over the store its predicates live in.  Not
        thread-safe: the serve daemon holds a snapshot's lock around it."""
        if self._compiler is None:
            self._compiler = MatchCompiler(
                PredicateEngine(
                    self.engine.num_vars, sig_vars=self.engine.sig_vars
                ),
                self.layout,
            )
        return self._compiler

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"FrozenReadView(epoch={self.epoch}, {len(self._entries)} ECs, "
            f"{len(self.devices)} devices)"
        )


class ModelWriter:
    """FIB snapshot + inverse model + Fast IMT: the writer surface.

    Parameters
    ----------
    block_threshold:
        Flush the buffered updates into the model once at least this many
        are pending (``1`` reproduces per-update verification; ``None``
        means "only flush explicitly" — the throughput-optimal whole-storm
        block of Figure 6).
    subspace_match:
        Restrict this manager to a header subspace (§3.4 input-space
        partition); defaults to the full space.
    aggregate:
        Disable to get the paper's "Flash (per-update mode)" used in the
        Figure 11 breakdown.

    The writer applies what it is given, as a
    :class:`~repro.dataplane.fib.FibTable` does: each insert adds a copy
    of its rule, each delete removes one.  Its one failure rule: **a
    flush that raises leaves the writer at its pre-block version** and
    drops the block — a delete of a rule that is not installed or an
    inserted match that does not compile (even one a higher rule
    shadows whole) raises before anything is written.  A
    caller that must survive a faulty stream puts a
    :class:`~repro.resilience.UpdateValidator` in front of the writer;
    one that applies a batch as several flushes undoes them with
    :meth:`rollback`.

    Readers never touch this class: they pin a :class:`FrozenReadView`
    via :meth:`read_view` and evaluate against it.  Each flush that
    changes the model (and each rollback) advances
    :attr:`epoch`, so a view's ``epoch`` names exactly one model
    version.  Every device's table defaults to ``DROP``.
    """

    def __init__(
        self,
        devices: Sequence[int],
        layout: HeaderLayout,
        engine: Optional[PredicateEngine] = None,
        store: Optional[ActionTreeStore] = None,
        block_threshold: Optional[int] = None,
        subspace_match=None,
        aggregate: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.layout = layout
        if engine is None:
            # Share the system's registry (when given) so every manager's
            # predicate op counts land in one snapshot.
            registry = telemetry.registry if telemetry is not None else None
            engine = PredicateEngine(
                layout.total_bits, registry, sig_vars=layout.signature_vars
            )
        self.engine = engine
        if telemetry is None:
            telemetry = Telemetry(registry=self.engine.registry)
        self.telemetry = telemetry
        self.store = store if store is not None else ActionTreeStore()
        self.compiler = MatchCompiler(self.engine, layout)
        self.snapshot = FibSnapshot(devices)
        universe = (
            self.compiler.compile(subspace_match)
            if subspace_match is not None
            else None
        )
        self.model = InverseModel(
            self.engine, self.store, list(devices), universe=universe
        )
        self.block_threshold = block_threshold
        self._pending: List[RuleUpdate] = []
        self.pipeline = Mr2Pipeline(
            self.snapshot,
            self.model,
            self.compiler,
            aggregate_overwrites=aggregate,
            telemetry=self.telemetry,
        )
        self._epoch = 0

    # -- read/write split ---------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic model-version counter: +1 per state-changing flush
        and per rollback."""
        return self._epoch

    def read_view(self) -> FrozenReadView:
        """Pin the current model version as an immutable read view.

        The returned view keeps answering for this epoch even as the
        writer advances — the CE2D snapshot-isolation guarantee applied
        to query serving — and :meth:`rollback` can put it back.
        """
        return FrozenReadView(
            engine=self.engine,
            layout=self.layout,
            store=self.store,
            devices=self.model.devices,
            entries=self.model.entries(),
            epoch=self._epoch,
            universe=self.model.universe,
            rules=tuple(
                (device, tuple(table.rules(include_default=False)))
                for device, table in self.snapshot.tables.items()
            ),
        )

    # -- ingestion ---------------------------------------------------------
    def submit(self, updates: Iterable[RuleUpdate]) -> Lineage:
        """Buffer updates; flush every time the threshold is crossed.

        Returns what the flushes triggered changed, composed into one
        step from the table before the call (empty if nothing flushed or
        nothing changed) — so that a caller can hand its checkers one
        batch as one lineage step whatever the threshold
        (:meth:`~repro.ce2d.verifier.SubspaceVerifier.apply`).
        """
        lineage = Lineage()
        for u in updates:
            self._pending.append(u)
            if (
                self.block_threshold is not None
                and len(self._pending) >= self.block_threshold
            ):
                lineage = compose_lineage(lineage, self.flush())
        return lineage

    def flush(self) -> Lineage:
        """Process all buffered updates as one block; one that raises is
        dropped and changes nothing."""
        if not self._pending:
            return Lineage()
        block = UpdateBlock(self._pending)
        self._pending = []
        lineage = self.pipeline.process_block(block)
        self._epoch += 1
        # The block is applied and nothing is mid-flight: the one point
        # where the engine may recycle node ids.  Everything that outlives
        # a block holds Predicate handles (the EC table, the lineage's
        # changed ECs, their origins and its removed predicates, the match
        # cache, checker tables, read views) and handles are the sweep's
        # roots; a bare ``pred.node`` kept past here may name another
        # predicate afterwards.  Threads: only this thread allocates in,
        # applies on or sweeps this engine.  Serve readers hold published
        # views, whose handles root their nodes; they only read them and
        # fill the satcount memo (``BDD.sat_count`` says why that is
        # sound).  A reader may drop a retired snapshot's last reference,
        # so a handle may die on any thread: ``PredicateEngine.collect``
        # copies the handle table in one step, which that cannot race.
        self.engine.collect_if_grown()
        return lineage

    # -- rollback (repro.resilience) ---------------------------------------
    def rollback(self, view: Optional[FrozenReadView] = None) -> None:
        """Put the model back to a version :meth:`read_view` captured, in
        place; pending updates are dropped.

        No MR2 work: the view's rules go back into the tables and its EC
        table into the model — the same handles and vector ids a
        recompute would build, the model being a function of the FIB.
        ``None`` resets to the empty model.  A view of another engine or
        store (another writer's), or of another subspace or device set,
        is a :class:`ValueError`.
        """
        if view is not None and (
            view.engine is not self.engine
            or view.store is not self.store
            or view.universe != self.model.universe
            or view.devices != self.model.devices
        ):
            raise ValueError(f"{view!r} is not a version of this model")
        self._pending = []
        self._restore(view)
        self._epoch += 1
        self.telemetry.count("resilience.rollback.count")

    def _restore(self, view: Optional[FrozenReadView]) -> None:
        """FIB and EC table set to ``view`` (empty on None)."""
        installed = dict(view.rules) if view is not None else {}
        for device, table in self.snapshot.tables.items():
            rules = installed.get(device, ())
            replace_table_rules(
                table, [*rules, default_rule(table.default_action)]
            )
        self.model.restore(view.entries() if view is not None else None)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- accessors -----------------------------------------------------------
    @property
    def breakdown(self) -> PhaseBreakdown:
        """The MR2 phase view over this manager's telemetry registry."""
        return self.pipeline.breakdown

    @property
    def metrics(self):
        """The engine's predicate-operation metrics (Table 3 accounting)."""
        return self.engine.metrics

    def num_ecs(self) -> int:
        return len(self.model)

    def memory_estimate_bytes(self) -> int:
        """Engine + EC table + PAT store, the Table 3 memory figure.

        A PAT node is charged its layout on 64-bit CPython, each object
        rounded up to the allocator's 16 B: its tuple of ``FAN`` slots
        (40 B of header and GC link + 8 B a slot: 168 -> 176 B at
        ``FAN`` = 16), the ``(level, slots)`` pair that the node list and
        the intern dict share (56 -> 64 B), the id's int (28 -> 32 B), its
        node-list slot (8 B) and its intern-dict entry (hash, key, value:
        24 B), 304 B in all.  tracemalloc read 295-312 B a node over
        30,000 single-device overwrites of 100- and 2,048-device vectors,
        the spread being the dict's slack.
        """
        return (
            self.engine.memory_estimate_bytes()
            + self.model.memory_estimate_bytes()
            + self.store.num_nodes * _PAT_NODE_BYTES
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.snapshot.tables)} devices, "
            f"{self.num_ecs()} ECs, pending={self.pending_count}, "
            f"epoch={self._epoch})"
        )
