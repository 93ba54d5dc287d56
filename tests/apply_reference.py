"""The historical per-overwrite cross product, kept verbatim as an oracle.

This is the apply loop :class:`~repro.core.inverse_model.InverseModel`
shipped before support pruning, signatures and ``split``: no pre-pass,
and separate ``&``/``-`` traversals per (EC, overwrite) pair.  It is the
semantic baseline ``tests/test_apply_fastpath.py`` and
``tests/test_backend_conformance.py`` hold
:meth:`InverseModel.apply_overwrites` equal to.  Do not optimise this
module — its value is that it stays the known-good Definition-9
semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.bdd.predicate import Predicate
from repro.core.inverse_model import EcDelta, InverseModel, VecId
from repro.core.overwrite import Overwrite


def apply_overwrites_reference(
    model: InverseModel, overwrites: Iterable[Overwrite]
) -> List[EcDelta]:
    """Apply a block to ``model`` in place; the full post-block EC list."""
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
    model._entries = {vec: pred for vec, (pred, _) in work.items()}
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
