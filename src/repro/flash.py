"""The Flash system facade — the full workflow of Figure 1.

:class:`Flash` wires together every component of the reproduction:

* operators specify requirements in the Appendix-B language (step 1);
* epoch-tagged rule updates arrive from devices/agents/simulators (2);
* the CE2D dispatcher tracks epochs and manages verifier lifecycles (3-4);
* Fast IMT maintains one inverse model per subspace — the trunk, written
  once per batch and read by every live epoch (5-6);
* each epoch's CE2D checkers update verification graphs and report
  consistent results early (7-8).

For offline/one-shot use (validating simulated FIBs, Figure 6 style) use
:meth:`Flash.verify_offline`, which skips epochs entirely.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from .ce2d.dispatcher import CE2DDispatcher
from .ce2d.regex_verifier import requirement_graph
from .ce2d.verification_graph import VerificationGraph
from .ce2d.verifier import SubspaceVerifier
from .core.inverse_model import Lineage
from .core.model_manager import FrozenReadView
from .core.rule_index import matches_intersect
from .core.subspace import SubspacePartition
from .dataplane.update import EpochTag, RuleUpdate
from .headerspace.fields import HeaderLayout
from .network.topology import Topology
from .results import Report
from .spec.requirement import Requirement
from .telemetry import Telemetry


class EpochGroupVerifier:
    """One subspace verifier per subspace, behind one door.

    The same ``apply`` / ``observe`` / ``receive`` shape as a single
    :class:`SubspaceVerifier`: ``apply`` fans a batch out by subspace
    (§3.4's input-space partition) and returns one lineage per member,
    ``observe`` hands each member its own and merges the reports.
    :class:`Flash` builds two kinds: its trunk (no epoch, no checkers —
    the models every epoch reads) and, per live epoch, the checkers over
    those models.  With a ``partition`` there is one member per subspace,
    in its order; without one, a single member covers the whole space and
    ``apply`` hands it the caller's batch untouched.
    """

    def __init__(
        self,
        members: Sequence[SubspaceVerifier],
        epoch: Optional[EpochTag] = None,
        partition: Optional[SubspacePartition] = None,
    ) -> None:
        self.members = list(members)
        self.epoch = epoch
        self.partition = partition
        matches = [m.subspace_match for m in self.members]
        expected = [None] if partition is None else [s.match for s in partition]
        if matches != expected:
            raise ValueError("members do not follow the partition")

    def apply(self, updates: Iterable[RuleUpdate]) -> List[Lineage]:
        """Write one batch into every member's model it intersects."""
        if self.partition is None:
            return [self.members[0].apply(updates)]
        routed = self.partition.route_updates(updates)
        return [
            member.apply(batch)
            for member, batch in zip(self.members, routed.values())
        ]

    def as_deltas(self) -> List[Lineage]:
        """Every member's whole table as one step from its initial table
        (an epoch opening late)."""
        return [member.as_deltas() for member in self.members]

    def observe(
        self,
        lineages: Sequence[Lineage],
        new_synced: Sequence[int],
        now: Optional[float] = None,
    ) -> List[Report]:
        # A device synchronises in every subspace, even one none of its
        # rules intersect.
        results: List[Report] = []
        for member, lineage in zip(self.members, lineages):
            results.extend(member.observe(lineage, new_synced, now))
        return results

    def receive(
        self, device: int, updates: Iterable[RuleUpdate], now: Optional[float] = None
    ) -> List[Report]:
        return self.observe(self.apply(updates), [device], now)

    def read_view(self) -> FrozenReadView:
        """The one member's current model, snapshot-pinned.

        A partitioned group has one model per subspace and no single view
        of them all: read ``members[i].read_view()`` for each.  An epoch's
        group reads :class:`Flash`'s trunk, so the view holds every
        device's latest FIB: the epoch's own state in the columns of its
        synchronised devices, other epochs' in the rest.
        """
        if len(self.members) != 1:
            raise ValueError(
                f"epoch group has {len(self.members)} subspace models; "
                f"read members[i].read_view() for each"
            )
        return self.members[0].read_view()

    @property
    def num_synced(self) -> int:
        return self.members[0].num_synced if self.members else 0

    def deterministic_reports(self) -> List[Report]:
        """Every member's current non-UNKNOWN verdicts, in member order."""
        return [r for m in self.members for r in m.deterministic_reports()]


class Flash:
    """The end-to-end Flash verification system."""

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout,
        requirements: Sequence[Requirement] = (),
        check_loops: bool = True,
        partition: Optional[SubspacePartition] = None,
        max_live_verifiers: int = 8,
        block_threshold: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.requirements = list(requirements)
        self.check_loops = check_loops
        self.partition = partition
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        # The trunk: one model per subspace for this system's lifetime,
        # every batch applied to it once.  ``block_threshold=None``
        # aggregates each device batch as one MR2 block (the fast path);
        # 1 is the paper's per-update mode, exposed so the differential
        # tester can cross-check both.
        matches = [None] if partition is None else [s.match for s in partition]
        self.trunk = EpochGroupVerifier(
            [
                SubspaceVerifier(
                    topology,
                    layout,
                    subspace_match=match,
                    block_threshold=block_threshold,
                    telemetry=telemetry,
                )
                for match in matches
            ],
            partition=partition,
        )
        # Each requirement's verification graph, built for the first epoch
        # and cloned by every epoch's checkers after it.
        self._graphs: Optional[List[VerificationGraph]] = None
        self.dispatcher = CE2DDispatcher(
            self.trunk,
            self._make_verifier,
            max_live_verifiers=max_live_verifiers,
            telemetry=telemetry,
        )

    def _make_verifier(self, epoch: EpochTag) -> EpochGroupVerifier:
        """One epoch's checkers over the trunk's models; each subspace
        gets the requirements whose packet space overlaps it."""
        if self._graphs is None:
            self._graphs = [
                requirement_graph(r, self.topology, self.layout)
                for r in self.requirements
            ]
        members = []
        for member in self.trunk.members:
            chosen = [
                i
                for i, r in enumerate(self.requirements)
                if member.subspace_match is None
                or matches_intersect(r.packet_space, member.subspace_match)
            ]
            members.append(
                SubspaceVerifier(
                    self.topology,
                    self.layout,
                    epoch=epoch,
                    subspace_match=member.subspace_match,
                    check_loops=self.check_loops,
                    requirements=[self.requirements[i] for i in chosen],
                    graphs=[self._graphs[i] for i in chosen],
                    manager=member.manager,
                    telemetry=self.telemetry,
                )
            )
        return EpochGroupVerifier(members, epoch=epoch, partition=self.partition)

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

    def ingest(
        self,
        device: int,
        updates: Sequence[RuleUpdate],
        *,
        epoch: Optional[EpochTag] = None,
        now: Optional[float] = None,
    ) -> List[Report]:
        """:meth:`receive` with the epoch optional.

        ``epoch=None`` means "the offline epoch" — batch consumers that do
        not care about CE2D epochs get a stable default instead of having
        to invent a tag.
        """
        tag: EpochTag = epoch if epoch is not None else "offline"
        return self.dispatcher.receive(device, tag, updates, now=now)

    def read_view(self) -> FrozenReadView:
        """A snapshot-pinned view of the trunk: every device's latest FIB.

        There is no per-epoch model to select.  For an epoch every device
        has reached, this is that epoch's model; a partly synchronised
        epoch owns only the columns of its synchronised devices.  With a
        ``partition`` there is one model per subspace and this raises
        ``ValueError``: read ``trunk.members[i].read_view()`` instead.
        """
        return self.trunk.read_view()

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
        """One dict capturing every metric (``span.*`` too) of this system."""
        return self.telemetry.snapshot()

    def deterministic_reports(self) -> List[Report]:
        """The current non-UNKNOWN verdicts of every live epoch."""
        return self.dispatcher.deterministic_reports()

    def first_violation(self) -> Optional[Report]:
        """The first VIOLATED report any call ever returned."""
        return self.dispatcher.first_violation

    def __repr__(self) -> str:
        return (
            f"Flash({self.topology!r}, {len(self.requirements)} requirements, "
            f"loops={self.check_loops})"
        )
