"""Interleaving enumeration with partial-order reduction.

An update block's valid interleavings are the orders that preserve each
device's serialized sub-sequence (the device streams the dispatcher
actually applies).  :class:`InterleavingExplorer` enumerates them all, or
one representative per Mazurkiewicz trace with sleep sets.  It needs
only the block and a ``commutes(a, b)`` relation — in the fuzzer,
:meth:`~repro.core.commute.CommutativityAnalyzer.commutes`: two updates
commute iff they land on different devices and their footprints
(compiled rule matches) are disjoint.  The module imports nothing from
the verifier, so it can drive other model checkers as well.

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
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Sequence, Tuple

#: One interleaving: block-update indices in execution order.
Order = Tuple[int, ...]


class InterleavingExplorer:
    """Enumerate interleavings of a block, one per Mazurkiewicz trace.

    ``updates`` are anything with a ``device`` attribute; the search
    space is the set of linear extensions of the per-device chains —
    ``multinomial(n; n_d1, n_d2, ...)`` orders in total.  ``reduced()``
    walks it with sleep sets: after exploring a move from a state, that
    move sleeps in the subtrees of its independent siblings, so exactly
    one linearization per trace survives.  ``exhaustive()`` enumerates
    everything (the self-check's ground truth).
    """

    def __init__(
        self,
        updates: Sequence[Any],
        commutes: Callable[[Any, Any], bool],
    ) -> None:
        self.updates = list(updates)
        self.commutes = commutes
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
                if self.commutes(self.updates[s], update)
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


__all__ = ["InterleavingExplorer", "Order"]
