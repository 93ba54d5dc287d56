"""Historical algorithms kept verbatim as oracles.

:func:`apply_overwrites_reference` is the apply loop
:class:`~repro.core.inverse_model.InverseModel` shipped before support
pruning, signatures and ``split``: no pre-pass, and separate ``&``/``-``
traversals per (EC, overwrite) pair.  It is the semantic baseline
``tests/test_apply_fastpath.py`` and ``tests/test_backend_conformance.py``
hold :meth:`InverseModel.apply_overwrites` equal to.

:func:`unrestricted_overwrites` is Algorithm 1's second phase as the
paper states it: every expanding rule — inserted, or below a deleted
rule — overwrites its whole effective predicate.
``tests/test_imt.py`` holds the freed-region restriction of
:mod:`repro.core.imt` to the same model.

Do not optimise this module — its value is that it stays the known-good
semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.bdd.predicate import Predicate
from repro.core.inverse_model import EcDelta, InverseModel, VecId
from repro.core.overwrite import Overwrite, atomic
from repro.dataplane.rule import Rule
from repro.headerspace.match import MatchCompiler


def unrestricted_overwrites(
    device: int,
    new_rules: Sequence[Rule],
    expanding: Sequence[int],
    compiler: MatchCompiler,
) -> List[Overwrite]:
    """Alg. 1 L29-44: ``(e'_r, a_r)`` for every expanding index, ascending."""
    accumulated = compiler.engine.false
    overwrites: List[Overwrite] = []
    j = 0
    for idx in expanding:
        while j < idx:
            accumulated = accumulated | compiler.compile(new_rules[j].match)
            j += 1
        rule = new_rules[idx]
        effective = compiler.compile(rule.match) - accumulated
        if not effective.is_false:
            overwrites.append(atomic(effective, device, rule.action))
    return overwrites


def apply_overwrites_reference(
    model: InverseModel, overwrites: Iterable[Overwrite]
) -> List[EcDelta]:
    """Apply a block to ``model`` in place; the full post-block EC list
    (the table :meth:`InverseModel.apply_overwrites` must leave, whatever
    lineage it reports)."""
    work: Dict[VecId, Tuple[Predicate, Predicate]] = {
        vec: (pred, pred) for vec, pred in model._entries.items()
    }
    for ow in overwrites:
        if ow.predicate.is_false or ow.is_noop:
            continue
        delta = ow.delta_dict()
        next_work: Dict[VecId, Tuple[Predicate, Predicate]] = {}
        for vec, (pred, origin) in work.items():
            inter = pred & ow.predicate
            if inter.is_false:
                _merge_reference(next_work, vec, pred, origin)
                continue
            rest = pred - ow.predicate
            if not rest.is_false:
                _merge_reference(next_work, vec, rest, origin)
            new_vec = model.store.overwrite(vec, delta)
            _merge_reference(next_work, new_vec, inter, origin)
        work = next_work
    model.restore((pred, vec) for vec, (pred, _) in work.items())
    return [
        EcDelta(predicate=pred, vector=vec, origin=origin)
        for vec, (pred, origin) in work.items()
    ]


def _merge_reference(
    bucket: Dict[VecId, Tuple[Predicate, Predicate]],
    vec: VecId,
    pred: Predicate,
    origin: Predicate,
) -> None:
    existing = bucket.get(vec)
    if existing is None:
        bucket[vec] = (pred, origin)
    else:
        bucket[vec] = (existing[0] | pred, existing[1])
