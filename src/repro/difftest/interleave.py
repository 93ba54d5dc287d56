"""Interleaving exploration: model-check update orders with POR.

The CE2D consistency story is about *orders*: the dispatcher and the
epoch machinery must produce correct answers no matter how an update
block's entries interleave across devices.  The plain differential
runner replays one linearization and checks one final state; this
module turns a scenario's trailing updates into an :class:`UpdateBlock`
worth of concurrency and model-checks it:

1. **Enumerate inequivalent interleavings** — all orders that preserve
   each device's serialized sub-sequence, reduced to one representative
   per Mazurkiewicz trace with sleep sets.  Two updates commute iff
   they land on different devices and their footprints (compiled rule
   matches) are disjoint — the signature fast path with an exact
   conjunction fallback (:class:`~repro.core.commute.CommutativityAnalyzer`).
2. **Replay every representative** through the flash-incr pipeline
   (a per-update :class:`~repro.core.model_manager.ModelWriter`) and
   through the full dispatcher/epoch path (the :class:`~repro.flash.Flash`
   facade fed one update per batch), asserting the requirement and loop
   invariants in **every intermediate state** against the brute-force
   :class:`~repro.difftest.oracle.ReferenceOracle`.
3. **Self-check the reduction** (POR soundness): for small blocks,
   exhaustively enumerate *all* valid orders and assert the reduced set
   reaches the identical set of per-header violation facts and the same
   final state.

POR soundness argument
----------------------

Valid interleavings preserve per-device order, so the final tables are
identical in every order; only intermediate states differ.  The checked
invariants decompose per header ``h``: "``h`` loops", "``h`` is not
delivered from source ``s``".  Swapping adjacent commuting updates
``u`` (device a) and ``v`` (device b) with disjoint footprints changes
only the middle state, and for any header ``h`` at most one of ``u, v``
can change ``h``'s lookup — so the middle state's ``h``-vector equals
one of its two (unswapped) neighbours', and the *set* of ``h``-vectors
over all states **from the shared pre-block state onward** is the same
in both orders.  The starting state is load-bearing: if the swap
happens at the front of the order, the linearization applying
``h``-irrelevant ``u`` first re-observes the starting state's
``h``-vector at step 1, while its swap applies ``h``-changing ``v``
immediately and observes that vector *only* at step 0.  (The fuzzer
found exactly this: a pre-existing transient-loop fact was "missed" by
a reduced representative whose first move fixed it.)  With step 0
included, every per-header violation fact observable in a pruned
linearization is observable in the retained representative of its
trace, and the union of violation facts over the reduced set equals
the union over the exhaustive set.  Note the global verdict *tuples*
of individual intermediate states need not coincide across equivalent
linearizations (two headers may flip in either order); the invariant
the self-check asserts — and the one POR preserves — is the per-header
fact set from the pre-block state through the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bdd.predicate import PredicateEngine
from ..core.commute import CommutativityAnalyzer
from ..core.model_manager import ModelWriter
from ..dataplane.update import RuleUpdate
from ..errors import ReproError
from ..flash import Flash
from ..headerspace.match import MatchCompiler
from ..results import (
    InterleaveReport,
    LoopReport,
    Verdict,
    VerificationReport,
)
from ..telemetry import Telemetry
from .oracle import ReferenceOracle, forwarding_cycle, reaches_external
from .runner import DiffResult, Divergence
from .scenario import Scenario

#: One interleaving: block-update indices in execution order.
Order = Tuple[int, ...]

#: One intermediate-state observation: the loop verdict plus one verdict
#: per requirement (in requirement order).
StepVerdicts = Tuple[Verdict, Tuple[Verdict, ...]]

#: One per-header violation: ("loop", header) or (req name, source, header).
Fact = Tuple[Any, ...]

INTERLEAVE_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------
class InterleavingExplorer:
    """Enumerate interleavings of a block, one per Mazurkiewicz trace.

    Valid interleavings preserve each device's serialized update order
    (the device streams the dispatcher actually applies), so the search
    space is the set of linear extensions of the per-device chains —
    ``multinomial(n; n_d1, n_d2, ...)`` orders in total.  ``reduced()``
    walks it with sleep sets: after exploring a move from a state, that
    move sleeps in the subtrees of its independent siblings, so exactly
    one linearization per trace survives.  ``exhaustive()`` enumerates
    everything (the self-check's ground truth).
    """

    def __init__(
        self,
        updates: Sequence[RuleUpdate],
        analyzer: CommutativityAnalyzer,
    ) -> None:
        self.updates = list(updates)
        self.analyzer = analyzer
        self.chains: Dict[int, List[int]] = {}
        for i, update in enumerate(self.updates):
            self.chains.setdefault(update.device, []).append(i)
        self.devices = sorted(self.chains)
        #: Subtrees skipped because their head move slept (commuting
        #: alternative already explored).
        self.sleep_prunes = 0

    # ------------------------------------------------------------------
    def possible_orders(self) -> int:
        """How many valid interleavings exist (multinomial coefficient)."""
        total = math.factorial(len(self.updates))
        for chain in self.chains.values():
            total //= math.factorial(len(chain))
        return total

    # ------------------------------------------------------------------
    def reduced(self) -> Iterator[Order]:
        """One representative per trace (sleep-set DFS, device-id order)."""
        if not self.updates:
            return
        progress = {d: 0 for d in self.devices}
        yield from self._dfs(progress, frozenset(), ())

    def _dfs(
        self,
        progress: Dict[int, int],
        sleep: FrozenSet[int],
        prefix: Order,
    ) -> Iterator[Order]:
        heads = [
            (d, self.chains[d][progress[d]])
            for d in self.devices
            if progress[d] < len(self.chains[d])
        ]
        if not heads:
            yield prefix
            return
        explored: List[int] = []
        for device, index in heads:
            if index in sleep:
                self.sleep_prunes += 1
                continue
            update = self.updates[index]
            child_sleep = frozenset(
                s
                for s in (*sleep, *explored)
                if self.analyzer.commutes(self.updates[s], update)
            )
            child = dict(progress)
            child[device] += 1
            yield from self._dfs(child, child_sleep, prefix + (index,))
            explored.append(index)

    # ------------------------------------------------------------------
    def exhaustive(self) -> Iterator[Order]:
        """Every valid interleaving (no reduction)."""
        if not self.updates:
            return
        progress = {d: 0 for d in self.devices}

        def rec(progress: Dict[int, int], prefix: Order) -> Iterator[Order]:
            any_enabled = False
            for device in self.devices:
                pos = progress[device]
                if pos >= len(self.chains[device]):
                    continue
                any_enabled = True
                child = dict(progress)
                child[device] += 1
                yield from rec(child, prefix + (self.chains[device][pos],))
            if not any_enabled:
                yield prefix

        yield from rec(progress, ())


# ---------------------------------------------------------------------------
# the oracle walk: memoized intermediate-state ground truth
# ---------------------------------------------------------------------------
class _OracleWalk:
    """Brute-force per-step verdicts and violation facts along orders.

    The state after any step is fully determined by how many of each
    device's block updates have applied (per-device order is fixed), so
    evaluations memoize on that progress vector — exhaustive self-check
    enumeration costs one evaluation per *distinct state*, not per order.
    """

    def __init__(
        self,
        topology,
        layout,
        requirements,
        prefix: Sequence[RuleUpdate],
        block: Sequence[RuleUpdate],
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.devices = sorted(topology.switches())
        self.requirements = list(requirements)
        self.prefix = list(prefix)
        self.block = list(block)
        # Concrete header membership of each requirement's packet space.
        self.spaces: List[Set[int]] = []
        values_of = [
            layout.unflatten(h) for h in range(layout.universe_size)
        ]
        for req in self.requirements:
            self.spaces.append(
                {
                    h
                    for h, values in enumerate(values_of)
                    if req.packet_space.matches(values)
                }
            )
        self._memo: Dict[
            Tuple[int, ...], Tuple[StepVerdicts, FrozenSet[Fact]]
        ] = {}
        self.states_evaluated = 0

    # ------------------------------------------------------------------
    def walk(
        self, order: Order
    ) -> Tuple[List[Tuple[StepVerdicts, FrozenSet[Fact]]], Any]:
        """Per-step (verdicts, facts) along ``order``, plus the final
        table fingerprint.

        ``steps[0]`` is the pre-block state (prefix applied, no block
        update yet); ``steps[k]`` is the state after ``order[k - 1]``,
        so the result has ``len(order) + 1`` entries.  Including the
        shared starting state is what makes the per-header fact union
        invariant within a trace class: an order that defers a header's
        first affecting update re-observes the starting state's facts
        for that header at later steps, while the class representative
        may overwrite them at step 1 — only the union *from step 0* is
        equal across equivalent linearizations.
        """
        oracle = ReferenceOracle(self.topology, self.layout)
        oracle.process_updates(self.prefix)
        counts = {d: 0 for d in self.devices}
        steps: List[Tuple[StepVerdicts, FrozenSet[Fact]]] = []
        key = tuple(counts[d] for d in self.devices)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._evaluate(oracle)
            self._memo[key] = entry
            self.states_evaluated += 1
        steps.append(entry)
        for index in order:
            update = self.block[index]
            oracle.apply(update)
            counts[update.device] += 1
            key = tuple(counts[d] for d in self.devices)
            entry = self._memo.get(key)
            if entry is None:
                entry = self._evaluate(oracle)
                self._memo[key] = entry
                self.states_evaluated += 1
            steps.append(entry)
        fingerprint = tuple(
            tuple(oracle.snapshot.table(d).rules(include_default=False))
            for d in self.devices
        )
        return steps, fingerprint

    def _evaluate(
        self, oracle: ReferenceOracle
    ) -> Tuple[StepVerdicts, FrozenSet[Fact]]:
        facts: Set[Fact] = set()
        req_violated = [False] * len(self.requirements)
        for vector, headers in oracle.classes().items():
            actions = dict(zip(oracle.devices, vector))
            action_of = actions.__getitem__
            if forwarding_cycle(self.topology, action_of):
                facts.update(("loop", h) for h in headers)
            for ri, req in enumerate(self.requirements):
                relevant = [h for h in headers if h in self.spaces[ri]]
                if not relevant:
                    continue
                for source in req.sources:
                    if reaches_external(self.topology, action_of, source):
                        continue
                    req_violated[ri] = True
                    facts.update((req.name, source, h) for h in relevant)
        loop_verdict = (
            Verdict.VIOLATED
            if any(f[0] == "loop" for f in facts)
            else Verdict.SATISFIED
        )
        verdicts: StepVerdicts = (
            loop_verdict,
            tuple(
                Verdict.VIOLATED if violated else Verdict.SATISFIED
                for violated in req_violated
            ),
        )
        return verdicts, frozenset(facts)


# ---------------------------------------------------------------------------
# model-side step verdicts
# ---------------------------------------------------------------------------
def model_step_verdicts(
    model, topology, requirements, spaces
) -> StepVerdicts:
    """Loop + requirement verdicts straight off an EC model's entries.

    ``model`` is anything with ``entries() -> [(Predicate, vec)]`` and
    ``action_of(vec, device)`` (an ``InverseModel`` or a
    ``FrozenReadView``); ``spaces`` are the requirements' packet spaces
    compiled in the model's engine.  This is the per-step analogue of
    :func:`~repro.difftest.runner.derive_verdicts`, organised entry-major
    so one pass over the EC table answers every invariant.
    """
    loop_violated = False
    req_violated = [False] * len(requirements)
    for pred, vec in model.entries():
        if pred.is_false:
            continue
        action_of = partial(model.action_of, vec)
        if not loop_violated and forwarding_cycle(topology, action_of):
            loop_violated = True
        for ri, req in enumerate(requirements):
            if req_violated[ri]:
                continue
            for source in req.sources:
                if reaches_external(topology, action_of, source):
                    continue
                if not (spaces[ri] & pred).is_false:
                    req_violated[ri] = True
                    break
    return (
        Verdict.VIOLATED if loop_violated else Verdict.SATISFIED,
        tuple(
            Verdict.VIOLATED if violated else Verdict.SATISFIED
            for violated in req_violated
        ),
    )


def _header_assignment(header: int, total_bits: int) -> Dict[int, bool]:
    """BDD assignment of one flattened header (the header_cube convention)."""
    return {
        k: bool((header >> (total_bits - 1 - k)) & 1)
        for k in range(total_bits)
    }


# ---------------------------------------------------------------------------
# the interleave case: scenario + exploration recipe
# ---------------------------------------------------------------------------
@dataclass
class InterleaveCase:
    """One interleave regression: a scenario plus its exploration recipe.

    ``block_start`` splits the update sequence into a sequentially
    applied prefix and the concurrent block; ``orders`` optionally pins
    the exact interleavings to replay (the shrinker's minimized order)
    instead of exploring.
    """

    scenario: Scenario
    block_start: int = 0
    max_orders: int = 16
    self_check: bool = True
    orders: Optional[Tuple[Order, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"interleave_{self.scenario.name}"
        if self.orders is not None:
            self.orders = tuple(tuple(o) for o in self.orders)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "interleave",
            "interleave_format": INTERLEAVE_FORMAT_VERSION,
            "name": self.name,
            "block_start": self.block_start,
            "max_orders": self.max_orders,
            "self_check": self.self_check,
            "orders": (
                None
                if self.orders is None
                else [list(o) for o in self.orders]
            ),
            "scenario": self.scenario.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InterleaveCase":
        if data.get("kind") != "interleave":
            raise ReproError("not an interleave case (missing kind)")
        if data.get("interleave_format") != INTERLEAVE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported interleave format "
                f"{data.get('interleave_format')!r}"
            )
        orders = data.get("orders")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            block_start=int(data.get("block_start", 0)),
            max_orders=int(data.get("max_orders", 16)),
            self_check=bool(data.get("self_check", True)),
            orders=(
                None
                if orders is None
                else tuple(tuple(int(i) for i in o) for o in orders)
            ),
            name=data.get("name", ""),
        )

    def __repr__(self) -> str:
        return (
            f"InterleaveCase({self.name!r}, block_start={self.block_start}, "
            f"max_orders={self.max_orders}, "
            f"pinned={len(self.orders) if self.orders else 0})"
        )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class InterleaveRunner:
    """Replay a scenario's update block under every inequivalent order.

    Exposes the same ``run() -> DiffResult`` surface as the other
    difftest runners, so the shrinker and the fuzz loop work unchanged.
    Any disagreement with the oracle at *any* intermediate state of
    *any* explored order is a divergence; so is a failed POR soundness
    self-check (kind ``por-unsound``).
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        max_orders: int = 8,
        block_tail: int = 8,
        self_check: bool = True,
        self_check_limit: int = 120,
        force_commute=None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.max_orders = max_orders
        self.block_tail = block_tail
        self.self_check = self_check
        self.self_check_limit = self_check_limit
        #: Test-only misclassification hook, forwarded to the analyzer.
        self.force_commute = force_commute
        self.last_report: Optional[InterleaveReport] = None

    # ------------------------------------------------------------------
    def block_start_for(self, scenario: Scenario) -> int:
        """Default prefix/block split: the last ``block_tail`` updates."""
        return max(0, len(scenario.updates) - self.block_tail)

    def run(
        self,
        scenario: Scenario,
        *,
        block_start: Optional[int] = None,
        max_orders: Optional[int] = None,
        self_check: Optional[bool] = None,
        orders: Optional[Sequence[Order]] = None,
    ) -> DiffResult:
        result = DiffResult(scenario)
        with self.telemetry.span(
            "difftest.interleave.run", scenario=scenario.name
        ):
            self._run_inner(
                scenario,
                result,
                self.block_start_for(scenario)
                if block_start is None
                else block_start,
                self.max_orders if max_orders is None else max_orders,
                self.self_check if self_check is None else self_check,
                None if orders is None else [tuple(o) for o in orders],
            )
        self.telemetry.count("difftest.interleave.scenarios")
        if result.divergences:
            self.telemetry.count(
                "difftest.interleave.divergences", len(result.divergences)
            )
        return result

    def run_case(self, case: InterleaveCase) -> DiffResult:
        return self.run(
            case.scenario,
            block_start=case.block_start,
            max_orders=case.max_orders,
            self_check=case.self_check,
            orders=case.orders,
        )

    def run_order(
        self,
        scenario: Scenario,
        order: Order,
        *,
        block_start: Optional[int] = None,
    ) -> DiffResult:
        """Replay exactly one pinned interleaving (no exploration)."""
        return self.run(
            scenario, block_start=block_start, orders=[tuple(order)]
        )

    def case_for(
        self,
        scenario: Scenario,
        result: Optional[DiffResult] = None,
    ) -> InterleaveCase:
        """Package a (possibly shrunk) scenario as a corpus case."""
        orders = None
        if result is not None:
            pinned = result.stats.get("minimized_order")
            if pinned is not None:
                orders = (tuple(pinned),)
        return InterleaveCase(
            scenario=scenario,
            block_start=self.block_start_for(scenario),
            max_orders=self.max_orders,
            self_check=self.self_check,
            orders=orders,
        )

    # ------------------------------------------------------------------
    def _run_inner(
        self,
        scenario: Scenario,
        result: DiffResult,
        block_start: int,
        max_orders: int,
        self_check: bool,
        pinned: Optional[List[Order]],
    ) -> None:
        layout = scenario.build_layout()
        topology = scenario.build_topology()
        requirements = scenario.build_requirements(topology, layout)
        updates = list(scenario.updates)
        block_start = max(0, min(block_start, len(updates)))
        prefix, block = updates[:block_start], updates[block_start:]

        engine = PredicateEngine(layout.total_bits)
        analyzer = CommutativityAnalyzer(
            engine,
            layout,
            compiler=MatchCompiler(engine, layout),
            force_commute=self.force_commute,
        )
        explorer = InterleavingExplorer(block, analyzer)
        possible = explorer.possible_orders() if block else 0

        truncated = False
        if pinned is not None:
            orders = list(pinned)
        else:
            orders = []
            for order in explorer.reduced():
                if len(orders) >= max_orders:
                    truncated = True
                    break
                orders.append(order)

        walk = _OracleWalk(topology, layout, requirements, prefix, block)
        signatures: Set[Tuple] = set()
        divergent_orders: List[Order] = []
        states_checked = 0
        for oi, order in enumerate(orders):
            before = len(result.divergences)
            oracle_steps, oracle_final = walk.walk(order)
            states_checked += len(oracle_steps)
            signatures.add(
                tuple(verdicts for verdicts, _ in oracle_steps)
            )
            try:
                self._replay_flash_incr(
                    scenario, topology, layout, requirements,
                    prefix, block, order, oi, oracle_steps, walk, result,
                )
            except Exception as exc:  # noqa: BLE001 - crash = divergence
                self.telemetry.count("difftest.interleave.engine_errors")
                result.divergences.append(
                    Divergence(
                        "error",
                        ("flash-incr", "oracle"),
                        subject=f"order[{oi}]",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
            try:
                self._replay_dispatcher(
                    scenario, topology, layout, requirements,
                    prefix, block, order, oi, oracle_steps, walk, result,
                )
            except Exception as exc:  # noqa: BLE001 - crash = divergence
                self.telemetry.count("difftest.interleave.engine_errors")
                result.divergences.append(
                    Divergence(
                        "error",
                        ("dispatcher", "oracle"),
                        subject=f"order[{oi}]",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
            if len(result.divergences) > before:
                divergent_orders.append(order)

        self_check_status = "skipped"
        if (
            self_check
            and pinned is None
            and block
            and 1 < possible <= self.self_check_limit
        ):
            self_check_status = self._self_check(
                block, analyzer, walk, result
            )

        stats = analyzer.stats
        self.telemetry.count(
            "difftest.interleave.orders_explored", len(orders)
        )
        self.telemetry.count(
            "difftest.interleave.orders_pruned",
            max(0, possible - len(orders)),
        )
        self.telemetry.count(
            "difftest.interleave.states_checked", states_checked
        )
        self.telemetry.count(
            "difftest.interleave.commute.checks", stats.checks
        )
        self.telemetry.count(
            "difftest.interleave.commute.sig_hits", stats.sig_disjoint
        )
        self.telemetry.count(
            "difftest.interleave.commute.exact_checks", stats.exact_checks
        )
        if stats.forced:
            self.telemetry.count(
                "difftest.interleave.commute.forced", stats.forced
            )

        report = InterleaveReport(
            scenario=scenario.name,
            block_size=len(block),
            orders_possible=possible,
            orders_explored=len(orders),
            orders_pruned=max(0, possible - len(orders)),
            states_checked=states_checked,
            order_dependent=len(signatures) > 1,
            divergences=len(result.divergences),
            self_check=self_check_status,
            commute=stats.as_dict(),
        )
        self.last_report = report
        result.stats["interleave"] = report.as_dict()
        result.stats["orders_explored"] = len(orders)
        result.stats["orders_possible"] = possible
        result.stats["truncated"] = truncated
        result.stats["order_dependent"] = report.order_dependent
        result.stats["divergent_orders"] = [
            list(o) for o in divergent_orders
        ]
        result.stats["block_start"] = block_start

    # ------------------------------------------------------------------
    def _replay_flash_incr(
        self,
        scenario: Scenario,
        topology,
        layout,
        requirements,
        prefix: List[RuleUpdate],
        block: List[RuleUpdate],
        order: Order,
        oi: int,
        oracle_steps,
        walk: _OracleWalk,
        result: DiffResult,
    ) -> None:
        """Per-update ModelWriter replay with verdicts at every step."""
        manager = ModelWriter(
            sorted(topology.switches()),
            layout,
            block_threshold=1,
            telemetry=Telemetry(registry=self.telemetry.registry),
        )
        manager.submit(prefix)
        manager.flush()
        manager.model.check_invariants()
        spaces = [
            manager.compiler.compile(req.packet_space)
            for req in requirements
        ]
        got = model_step_verdicts(
            manager.model, topology, requirements, spaces
        )
        self._diff_step(
            "flash-incr", oi, 0, None, got,
            oracle_steps[0][0], requirements, result,
        )
        for si, index in enumerate(order):
            manager.submit([block[index]])
            manager.flush()
            manager.model.check_invariants()
            got = model_step_verdicts(
                manager.model, topology, requirements, spaces
            )
            self._diff_step(
                "flash-incr", oi, si + 1, block[index], got,
                oracle_steps[si + 1][0], requirements, result,
            )
        self._diff_final_behavior(
            "flash-incr", oi, manager.model, walk, topology, layout, result
        )

    # ------------------------------------------------------------------
    def _replay_dispatcher(
        self,
        scenario: Scenario,
        topology,
        layout,
        requirements,
        prefix: List[RuleUpdate],
        block: List[RuleUpdate],
        order: Order,
        oi: int,
        oracle_steps,
        walk: _OracleWalk,
        result: DiffResult,
    ) -> None:
        """Full Flash facade replay: dispatcher, epoch tracker, checkers.

        Every intermediate state is a *potential converged state*, so
        each block step gets its own epoch tag that every device reports
        — the updating device with its batch, the rest with empty sync
        batches.  The dispatcher then does exactly what CE2D prescribes:
        applies each batch to the trunk model, opens a verifier for the
        new epoch over it, retires the superseded epoch, and the
        checkers' deterministic verdicts describe precisely the
        intermediate state the oracle evaluated.  The per-epoch verdict
        latch (early detection binds verdicts to one converged state)
        is thereby respected rather than worked around.
        """
        flash = Flash(
            topology,
            layout,
            requirements=requirements,
            check_loops=True,
            block_threshold=1,
            telemetry=Telemetry(registry=self.telemetry.registry),
        )
        devices = sorted(topology.switches())
        per_device: Dict[int, List[RuleUpdate]] = {d: [] for d in devices}
        for update in prefix:
            per_device[update.device].append(update)
        tag = f"{scenario.epoch}~pre"
        reports: List[Any] = []
        for device in scenario.order:
            reports.extend(
                flash.ingest(device, per_device.get(device, []), epoch=tag)
            )
        got = self._verdicts_from_reports(reports, requirements)
        self._diff_step(
            "dispatcher", oi, 0, None, got,
            oracle_steps[0][0], requirements, result,
        )
        for si, index in enumerate(order):
            update = block[index]
            tag = f"{scenario.epoch}~s{si}"
            reports = []
            # The updating device reports last, so the round's final
            # checker pass runs fully synchronised (deterministic).
            for device in devices:
                if device == update.device:
                    continue
                reports.extend(flash.ingest(device, [], epoch=tag))
            reports.extend(
                flash.ingest(update.device, [update], epoch=tag)
            )
            got = self._verdicts_from_reports(reports, requirements)
            self._diff_step(
                "dispatcher", oi, si + 1, update, got,
                oracle_steps[si + 1][0], requirements, result,
            )
        view = flash.read_view()
        self._diff_final_behavior(
            "dispatcher", oi, view, walk, topology, layout, result
        )

    @staticmethod
    def _verdicts_from_reports(reports, requirements) -> StepVerdicts:
        loop_verdict = Verdict.UNKNOWN
        by_req: Dict[str, Verdict] = {}
        for report in reports:
            if isinstance(report, LoopReport):
                loop_verdict = report.verdict
            elif isinstance(report, VerificationReport):
                by_req[report.requirement] = report.verdict
        return (
            loop_verdict,
            tuple(
                by_req.get(req.name, Verdict.UNKNOWN)
                for req in requirements
            ),
        )

    # ------------------------------------------------------------------
    def _diff_step(
        self,
        engine_name: str,
        oi: int,
        si: int,
        update: Optional[RuleUpdate],
        got: StepVerdicts,
        expected: StepVerdicts,
        requirements,
        result: DiffResult,
    ) -> None:
        got_loop, got_reqs = got
        exp_loop, exp_reqs = expected
        where = f"order[{oi}] step {si}"
        # Step 0 is the shared pre-block state; no update applied yet.
        after = "in the pre-block state" if update is None else f"after {update!r}"
        if got_loop is not exp_loop:
            result.divergences.append(
                Divergence(
                    "step-loop-verdict",
                    (engine_name, "oracle"),
                    subject=where,
                    detail=f"{got_loop.value} vs {exp_loop.value} {after}",
                )
            )
        for req, got_v, exp_v in zip(requirements, got_reqs, exp_reqs):
            if got_v is not exp_v:
                result.divergences.append(
                    Divergence(
                        "step-verdict",
                        (engine_name, "oracle"),
                        subject=f"{req.name} @ {where}",
                        detail=f"{got_v.value} vs {exp_v.value} {after}",
                    )
                )

    # ------------------------------------------------------------------
    def _diff_final_behavior(
        self,
        engine_name: str,
        oi: int,
        model,
        walk: _OracleWalk,
        topology,
        layout,
        result: DiffResult,
    ) -> None:
        """Exhaustive per-header behavior check of the order's end state."""
        oracle = ReferenceOracle(topology, layout)
        oracle.process_updates(walk.prefix)
        oracle.process_updates(walk.block)
        total_bits = layout.total_bits
        for header in range(layout.universe_size):
            values = layout.unflatten(header)
            expected = oracle.behavior(values)
            got = model.behavior(_header_assignment(header, total_bits))
            if got != expected:
                diff_devices = sorted(
                    d
                    for d in expected
                    if got.get(d) != expected[d]
                )
                result.divergences.append(
                    Divergence(
                        "final-behavior",
                        (engine_name, "oracle"),
                        subject=f"order[{oi}]",
                        detail=(
                            f"header {values} behaves differently on "
                            f"devices {diff_devices}"
                        ),
                        witness=values,
                    )
                )
                return  # one witness per order is plenty

    # ------------------------------------------------------------------
    def _self_check(
        self,
        block: List[RuleUpdate],
        analyzer: CommutativityAnalyzer,
        walk: _OracleWalk,
        result: DiffResult,
    ) -> str:
        """Exhaustive-vs-reduced fact comparison (POR soundness)."""
        self.telemetry.count("difftest.interleave.selfcheck.runs")
        exhaustive_facts: Set[Fact] = set()
        exhaustive_finals: Set[Any] = set()
        checker = InterleavingExplorer(block, analyzer)
        for order in checker.exhaustive():
            steps, final = walk.walk(order)
            for _, facts in steps:
                exhaustive_facts |= facts
            exhaustive_finals.add(final)
        reduced_facts: Set[Fact] = set()
        reduced_finals: Set[Any] = set()
        reduced_count = 0
        for order in checker.reduced():
            reduced_count += 1
            steps, final = walk.walk(order)
            for _, facts in steps:
                reduced_facts |= facts
            reduced_finals.add(final)
        ok = (
            reduced_facts == exhaustive_facts
            and reduced_finals == exhaustive_finals
            and len(exhaustive_finals) == 1
        )
        result.stats["self_check_reduced_orders"] = reduced_count
        if ok:
            return "passed"
        self.telemetry.count("difftest.interleave.selfcheck.failures")
        missing = sorted(
            exhaustive_facts - reduced_facts, key=repr
        )[:3]
        detail = (
            f"reduced set missed {len(exhaustive_facts - reduced_facts)} "
            f"violation facts (e.g. {missing})"
            if missing
            else f"final states differ across orders "
            f"({len(exhaustive_finals)} distinct)"
        )
        result.divergences.append(
            Divergence(
                "por-unsound",
                ("reduced", "exhaustive"),
                detail=detail,
            )
        )
        return "failed"


__all__ = [
    "INTERLEAVE_FORMAT_VERSION",
    "InterleaveCase",
    "InterleaveRunner",
    "InterleavingExplorer",
    "Order",
    "model_step_verdicts",
]
