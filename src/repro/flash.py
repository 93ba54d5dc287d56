"""The Flash system facade — the full workflow of Figure 1.

:class:`Flash` wires together every component of the reproduction:

* operators specify requirements in the Appendix-B language (step 1);
* epoch-tagged rule updates arrive from devices/agents/simulators (2);
* the CE2D dispatcher tracks epochs and manages verifier lifecycles (3-4);
* each subspace verifier runs Fast IMT to maintain its inverse model (5-6);
* CE2D checkers update verification graphs and report consistent results
  early (7-8).

For offline/one-shot use (validating simulated FIBs, Figure 6 style) use
:meth:`Flash.verify_offline`, which skips epochs entirely.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from .ce2d.dispatcher import CE2DDispatcher
from .ce2d.verifier import SubspaceVerifier
from .core.model_manager import ModelReadView
from .core.rule_index import matches_intersect
from .core.subspace import Subspace, SubspacePartition
from .dataplane.update import EpochTag, RuleUpdate
from .headerspace.fields import HeaderLayout
from .network.topology import Topology
from .results import Report, Verdict
from .spec.requirement import Requirement
from .telemetry import Telemetry, TelemetryConfig


@runtime_checkable
class QueryableVerifier(Protocol):
    """The one facade every consumer of a verifier speaks.

    Historically this repo grew two divergent ``receive()`` doors —
    :meth:`Flash.receive` (device, *epoch*, updates, now) and the
    :meth:`SubspaceVerifier.receive` / :meth:`EpochGroupVerifier.receive`
    shape (device, updates, now) — which forced every caller (offline
    verification, difftest, and now ``repro.serve``) to know which layer
    it was holding.  ``QueryableVerifier`` is the unified contract:

    * :meth:`ingest` — one epoch-aware ingestion door.  Implementations
      that are pinned to an epoch (subspace/epoch-group verifiers)
      ignore the ``epoch`` argument; the epoch-routing :class:`Flash`
      facade uses it to dispatch.
    * :meth:`read_view` — the current consistent model as a
      snapshot-pinned :class:`~repro.core.model_manager.ModelReadView`.
    * :meth:`deterministic_reports` — the non-UNKNOWN verdicts so far.

    ``repro.serve`` daemons, :meth:`Flash.verify_offline` and the
    differential runner all consume exactly this protocol, so the
    serving and batch paths cannot drift apart.
    """

    def ingest(
        self,
        device: int,
        updates: Sequence[RuleUpdate],
        *,
        epoch: Optional[EpochTag] = None,
        now: Optional[float] = None,
    ) -> List[Report]: ...

    def read_view(self) -> ModelReadView: ...

    def deterministic_reports(self) -> List[Report]: ...


class EpochGroupVerifier:
    """All subspace verifiers of one epoch, behind one receive() door.

    Implements the same duck-typed interface the dispatcher expects from a
    single :class:`SubspaceVerifier`, fanning updates out per subspace
    (§3.4's input-space partition) and merging reports.
    """

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        partition: Optional[SubspacePartition],
        requirements: Sequence[Requirement],
        check_loops: bool,
        use_dgq: bool,
        epoch: Optional[EpochTag] = None,
        telemetry: Optional[Telemetry] = None,
        block_threshold: Optional[int] = None,
        validation: str = "strict",
        recovery: bool = False,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.partition = partition
        self.epoch = epoch
        self.telemetry = telemetry
        self.reports: List[Report] = []
        self.members: List[SubspaceVerifier] = []
        self._subspaces: List[Optional[Subspace]] = []
        if partition is None:
            self.members.append(
                SubspaceVerifier(
                    topology,
                    layout,
                    epoch=epoch,
                    check_loops=check_loops,
                    requirements=requirements,
                    use_dgq=use_dgq,
                    block_threshold=block_threshold,
                    telemetry=telemetry,
                    validation=validation,
                    recovery=recovery,
                )
            )
            self._subspaces.append(None)
        else:
            # One verifier per subspace; each gets the requirements whose
            # packet space overlaps it.
            for subspace in partition:
                relevant = [
                    r
                    for r in requirements
                    if matches_intersect(r.packet_space, subspace.match)
                ]
                verifier = SubspaceVerifier(
                    topology,
                    layout,
                    epoch=epoch,
                    subspace_match=subspace.match,
                    check_loops=check_loops,
                    requirements=relevant,
                    use_dgq=use_dgq,
                    block_threshold=block_threshold,
                    telemetry=telemetry,
                    validation=validation,
                    recovery=recovery,
                )
                self.members.append(verifier)
                self._subspaces.append(subspace)

    def receive(
        self, device: int, updates: Iterable[RuleUpdate], now: Optional[float] = None
    ) -> List[Report]:
        updates = list(updates)
        results: List[Report] = []
        for subspace, verifier in zip(self._subspaces, self.members):
            if subspace is None:
                subset = updates
            else:
                subset = [
                    u
                    for u in updates
                    if matches_intersect(subspace.match, u.rule.match)
                ]
            # The device synchronises in every subspace, even with no
            # intersecting rules.
            results.extend(verifier.receive(device, subset, now=now))
        self.reports.extend(results)
        return results

    # -- QueryableVerifier --------------------------------------------------
    def ingest(
        self,
        device: int,
        updates: Sequence[RuleUpdate],
        *,
        epoch: Optional[EpochTag] = None,
        now: Optional[float] = None,
    ) -> List[Report]:
        """Unified ingestion door; this group is pinned, ``epoch`` ignored."""
        return self.receive(device, updates, now=now)

    def read_view(self) -> ModelReadView:
        """The first member's current model, snapshot-pinned.

        Multi-subspace groups expose the first subspace's model here;
        per-subspace consumers should walk :attr:`members` and call each
        verifier's own :meth:`~SubspaceVerifier.read_view`.
        """
        if not self.members:
            raise ValueError("epoch group has no subspace verifiers")
        return self.members[0].read_view()

    @property
    def num_synced(self) -> int:
        return self.members[0].num_synced if self.members else 0

    def deterministic_reports(self) -> List[Report]:
        return [r for r in self.reports if r.verdict is not Verdict.UNKNOWN]


class Flash:
    """The end-to-end Flash verification system."""

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        requirements: Sequence[Requirement] = (),
        check_loops: bool = True,
        partition: Optional[SubspacePartition] = None,
        use_dgq: bool = True,
        max_live_verifiers: int = 8,
        block_threshold: Optional[int] = None,
        telemetry: Optional[Union[Telemetry, TelemetryConfig]] = None,
        validation: str = "strict",
        recovery: bool = False,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.requirements = list(requirements)
        self.check_loops = check_loops
        self.partition = partition
        self.use_dgq = use_dgq
        # None = aggregate each device batch as one MR2 block (the fast
        # path); 1 = the paper's per-update mode, exposed here so the
        # differential tester can cross-check both facade paths.
        self.block_threshold = block_threshold
        # Supervised-ingestion knobs threaded down to every subspace
        # verifier's ModelWriter (repro.resilience).
        self.validation = validation
        self.recovery = recovery
        if telemetry is None:
            telemetry = Telemetry()
        elif isinstance(telemetry, TelemetryConfig):
            telemetry = Telemetry.from_config(telemetry)
        self.telemetry = telemetry
        self.dispatcher = CE2DDispatcher(
            self._make_verifier,
            max_live_verifiers=max_live_verifiers,
            telemetry=self.telemetry,
        )

    def _make_verifier(self, epoch: EpochTag) -> EpochGroupVerifier:
        return EpochGroupVerifier(
            self.topology,
            self.layout,
            self.partition,
            self.requirements,
            self.check_loops,
            self.use_dgq,
            epoch=epoch,
            telemetry=self.telemetry,
            block_threshold=self.block_threshold,
            validation=self.validation,
            recovery=self.recovery,
        )

    # -- online ingestion (Figure 1 steps 2-8) -----------------------------
    def receive(
        self,
        device: int,
        epoch: EpochTag,
        updates: Sequence[RuleUpdate],
        now: Optional[float] = None,
    ) -> List[Report]:
        """Ingest one epoch-tagged update batch from a device agent."""
        return self.dispatcher.receive(device, epoch, updates, now=now)

    # -- QueryableVerifier --------------------------------------------------
    def ingest(
        self,
        device: int,
        updates: Sequence[RuleUpdate],
        *,
        epoch: Optional[EpochTag] = None,
        now: Optional[float] = None,
    ) -> List[Report]:
        """The unified ingestion door (:class:`QueryableVerifier`).

        ``epoch=None`` means "the offline epoch" — batch consumers that do
        not care about CE2D epochs get a stable default instead of having
        to invent a tag.
        """
        tag: EpochTag = epoch if epoch is not None else "offline"
        return self.dispatcher.receive(device, tag, updates, now=now)

    def read_view(self, epoch: Optional[EpochTag] = None) -> ModelReadView:
        """A snapshot-pinned view of the model at ``epoch``.

        With ``epoch=None`` the most recently created live epoch group is
        used (the group receiving ingest right now).
        """
        group = self.dispatcher.latest_verifier(epoch)
        if group is None:
            raise ValueError(
                "no live epoch group to read from"
                if epoch is None
                else f"no live epoch group for epoch {epoch!r}"
            )
        return group.read_view()

    def attach_to(self, simulation) -> None:
        """Subscribe to an :class:`~repro.routing.openr.OpenRSimulation`."""
        simulation.add_collector(
            lambda when, device, tag, updates: self.receive(
                device, tag, updates, now=when
            )
        )

    # -- offline / one-shot ---------------------------------------------------
    def verify_offline(
        self, updates: Sequence[RuleUpdate], epoch: EpochTag = "offline"
    ) -> List[Report]:
        """Verify one complete data plane (all devices synchronised).

        Updates are grouped per device and fed through the unified
        :meth:`ingest` door as one epoch; devices with no updates are
        synchronised with empty batches so verdicts become deterministic.
        """
        per_device: Dict[int, List[RuleUpdate]] = {
            d: [] for d in self.topology.switches()
        }
        for u in updates:
            per_device.setdefault(u.device, []).append(u)
        reports: List[Report] = []
        for device, batch in per_device.items():
            reports = self.ingest(device, batch, epoch=epoch)
        return reports

    # -- results ----------------------------------------------------------------
    def telemetry_snapshot(self) -> Dict[str, Any]:
        """One dict capturing metrics and finished spans for this system."""
        return self.telemetry.snapshot()

    def deterministic_reports(self) -> List[Report]:
        return self.dispatcher.deterministic_reports()

    def first_violation(self) -> Optional[Report]:
        for report in self.dispatcher.reports:
            if report.verdict is Verdict.VIOLATED:
                return report
        return None

    def __repr__(self) -> str:
        return (
            f"Flash({self.topology!r}, {len(self.requirements)} requirements, "
            f"loops={self.check_loops})"
        )
