"""Subspace verifiers (Figure 1): a model plus the CE2D checkers reading it.

A :class:`SubspaceVerifier` owns its checkers (loop detector, regex/cover
verifiers, custom ones), their per-EC state, each checker's current
verdict and the set of devices that have synchronised — and *reads* a
:class:`~repro.core.model_manager.ModelWriter`.  Built on its own it
creates that model and writes it too (``receive`` = ``apply`` then
``observe``): the pinned verifier that ``repro.serve``, the differential
runners and offline callers drive.
Built with ``manager=`` it shares a model someone else writes — under
:class:`~repro.flash.Flash` the *trunk*, one model per subspace holding
every device's latest FIB — and is only ever told what changed
(``observe``).  Either way there is one checker path.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Set, Union

from ..core.inverse_model import Lineage, compose_lineage
from ..core.model_manager import ModelWriter
from ..dataplane.update import EpochTag, RuleUpdate
from ..headerspace.fields import HeaderLayout
from ..network.topology import Topology
from ..results import Report, Verdict
from ..spec.requirement import Requirement
from ..telemetry import Telemetry
from .loop_detector import LoopDetector
from .regex_verifier import CoverVerifier, RegexVerifier
from .verification_graph import VerificationGraph


class Checker:
    """The §5.1 extension point: a custom CE2D verification function.

    Subclass (or duck-type) and attach via ``SubspaceVerifier.add_checker``.
    ``on_model_update(lineage, new_synced, model)`` is called once per
    model update with the :class:`~repro.core.inverse_model.Lineage` of
    the update, the devices that just synchronised, and the inverse model;
    it must return a report object carrying a ``verdict`` attribute (e.g.
    :class:`~repro.results.VerificationReport`).

    The lineage names only what the update changed: ``lineage.changed``,
    the ECs it split, merged or re-vectored, each with its ``origin`` in
    the table the checker last saw, and ``lineage.removed``, the
    predicates of that table that left it.  Every other EC kept its
    predicate and its vector, so per-EC state carries over untouched: drop
    what was removed, and key each changed EC's state off its origin's.
    The first call starts from the model's initial one-EC table, the
    universe (an epoch opening on a trunk that has moved on is handed
    :meth:`~repro.core.inverse_model.InverseModel.as_deltas`, the whole
    table as one step from it).  A checker that needs every EC reads
    ``model.entries()``.

    ``model`` may be a trunk shared by every live epoch: read only the
    columns (``model.action_of(vector, device)``) of devices passed in
    some ``new_synced`` so far — any other column is that device's latest
    FIB, which belongs to a different epoch.  ``new_synced == ()`` means
    *lineage only*: a device outside this epoch changed the partition, so
    re-key per-EC state along ``delta.origin``; the returned report is
    dropped, nobody having synchronised.

    The model's engine sweeps itself between blocks and reuses the node
    ids it frees, so ``pred.node`` identifies a predicate only while some
    handle to it is alive.  A checker that keys per-EC state by node id
    keeps the :class:`~repro.bdd.predicate.Predicate` in the value (as
    ``RegexVerifier`` does), or keys by the handle itself — equal
    predicates hash equal.  ``delta.predicate``, ``delta.origin`` and the
    removed predicates are handles; a key built from any of them stays
    good exactly as long as the checker holds on to one of them.
    """

    def on_model_update(self, lineage, new_synced, model) -> Report:
        raise NotImplementedError


class SubspaceVerifier:
    """One (epoch, subspace) verifier: CE2D checkers over a model."""

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        epoch: Optional[EpochTag] = None,
        subspace_match=None,
        check_loops: bool = False,
        requirements: Sequence[Requirement] = (),
        graphs: Optional[Sequence[VerificationGraph]] = None,
        block_threshold: Optional[int] = None,
        manager: Optional[ModelWriter] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.epoch = epoch
        self.subspace_match = subspace_match
        if manager is None:
            manager = ModelWriter(
                topology.switches(),
                layout,
                block_threshold=block_threshold,
                subspace_match=subspace_match,
                telemetry=telemetry,
            )
        self.manager = manager
        self.telemetry = (
            telemetry if telemetry is not None else manager.telemetry
        )
        self.synced: Set[int] = set()
        self.loop_detector = (
            LoopDetector(topology, telemetry=self.telemetry)
            if check_loops
            else None
        )
        # ``graphs``: each requirement's unpruned verification graph, read
        # only, so one build can serve every epoch; each checker builds its
        # own when None.
        if graphs is None:
            graphs = [None] * len(requirements)
        self.regex_verifiers: List[Union[RegexVerifier, CoverVerifier]] = []
        for req, graph in zip(requirements, graphs):
            if req.is_cover:
                verifier = CoverVerifier(
                    req, topology, layout, self.manager.compiler, graph=graph
                )
            else:
                verifier = RegexVerifier(
                    req,
                    topology,
                    layout,
                    self.manager.compiler,
                    universe=self.manager.model.universe,
                    graph=graph,
                )
            self.regex_verifiers.append(verifier)
        self.custom_checkers: List[Checker] = []
        # One slot per checker, in ``observe``'s order: the report at which
        # that checker's verdict last changed.
        self._verdicts: List[Report] = []
        self._started = time.perf_counter()

    def add_checker(self, checker: Checker) -> None:
        """Attach a custom CE2D verification function (§5.1)."""
        self.custom_checkers.append(checker)

    # ------------------------------------------------------------------
    def apply(self, updates: Iterable[RuleUpdate]) -> Lineage:
        """Write one batch into the model; what it changed, as one step
        from the pre-batch table however many blocks ``block_threshold``
        cut the batch into."""
        flushed = self.manager.submit(updates)
        return compose_lineage(flushed, self.manager.flush())

    def as_deltas(self) -> Lineage:
        """The model's whole table as one step from its initial table
        (what an epoch opens on)."""
        return self.manager.model.as_deltas()

    def receive(
        self, device: int, updates: Iterable[RuleUpdate], now: Optional[float] = None
    ) -> List[Report]:
        """Ingest one device's update batch for this epoch.

        The device is considered synchronised afterwards (its FIB for this
        epoch is complete), and every attached checker runs early detection
        on the updated, consistent model.
        """
        return self.observe(self.apply(updates), [device], now)

    def ingest(
        self,
        device: int,
        updates: Sequence[RuleUpdate],
        *,
        now: Optional[float] = None,
    ) -> List[Report]:
        """:meth:`receive`: the door a serve daemon's writer enters by."""
        return self.receive(device, updates, now=now)

    def read_view(self):
        """Snapshot-pinned :class:`~repro.core.model_manager.FrozenReadView`."""
        return self.manager.read_view()

    def observe(
        self,
        lineage: Lineage,
        new_synced: Sequence[int],
        now: Optional[float] = None,
    ) -> List[Report]:
        """Run every checker on one model update.

        ``new_synced`` are the devices whose FIB for this epoch the update
        completed.  With none the call is lineage only (see
        :class:`Checker`): no verdict can have moved, nothing is reported.
        """
        stamp = time.perf_counter() - self._started if now is None else now
        self.synced.update(new_synced)
        model = self.manager.model
        checkers = [self.loop_detector] if self.loop_detector is not None else []
        checkers += self.regex_verifiers + self.custom_checkers
        with self.telemetry.span("ce2d.check"):
            results = [c.on_model_update(lineage, new_synced, model) for c in checkers]
        if not new_synced:
            return []
        for report in results:
            if hasattr(report, "epoch"):
                report.epoch = self.epoch
            if hasattr(report, "time"):
                report.time = stamp
            self.telemetry.count(f"ce2d.verdicts.{report.verdict.value}")
        held = self._verdicts
        held.extend(results[len(held):])  # a checker's first report
        for slot, report in enumerate(results):
            if held[slot].verdict is not report.verdict:
                held[slot] = report
        return results

    # ------------------------------------------------------------------
    def deterministic_reports(self) -> List[Report]:
        """The current non-UNKNOWN verdicts, one per checker at most.

        Each is the report at which its checker's verdict last changed, so
        ``time`` says when the verdict was established.  The reports of
        every call are what that call returned; a caller that wants the
        transcript keeps it.
        """
        return [r for r in self._verdicts if r.verdict is not Verdict.UNKNOWN]

    @property
    def num_synced(self) -> int:
        return len(self.synced)

    def __repr__(self) -> str:
        return (
            f"SubspaceVerifier(epoch={self.epoch!r}, "
            f"synced={len(self.synced)}/{len(self.topology.switches())})"
        )
