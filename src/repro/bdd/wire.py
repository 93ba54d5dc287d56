"""Compact levelized binary wire format for BDD predicate sets (FBW1).

Shipping predicates between processes (``run_partitioned`` workers) or
between engines (the difftest comparison engine) previously meant either
re-walking each predicate node-by-node through ``import_predicate`` or
not shipping models at all.  This module serialises a *set* of
predicates from one node store into a single flat byte blob:

* **shared structure once** — the export walks the union DAG of all
  roots with one memo, so a thousand ECs over a few hundred distinct
  subgraphs serialise each node exactly once;
* **topological int arrays** — nodes are emitted children-first
  (completion order of the walk), so the importer is a single linear
  pass of hash-consing ``_mk`` calls with no recursion, no dict memo
  and no per-node Python object;
* **encoding-agnostic** — both the complement-edge engine and the
  plain-node reference oracle export and import the same format; the
  wire encoding uses explicit complement bits (``wire_edge =
  (wire_id << 1) | c``) which the importer lowers to whatever negation
  the target store uses.

Layout (all little-endian)::

    magic      4 bytes  b"FBW1"
    header     <HHIII   version, flags, num_vars, node_count, root_count
    var        node_count * u32   variable level per node
    low        node_count * u32   else-child as a wire edge
    high       node_count * u32   then-child as a wire edge
    roots      root_count * u32   wire edges, in export order

Wire node ids are 1-based; id 0 is the terminal, so the wire edges
``0``/``1`` are FALSE/TRUE.  Children always precede parents, which the
importer validates (a forward reference is a corrupt blob, not a crash).

FBW2 delta frames
-----------------

A predicate *table* shipped repeatedly (serve's published snapshots)
mostly repeats itself: under incremental churn only a handful of ECs
change between ships.  An FBW2 frame
encodes a table as a diff against a **base table** both sides already
hold, identified by the blake2b fingerprint of the base's frame bytes
(never by engine contents: FBW1 bytes are canonical for a function,
engine node ids are not).  Layout::

    magic      4 bytes  b"FBW2"
    header     <HHIIQII version, flags, num_vars, base_count,
                        base_fp, node_count, slot_count
    var/low/high        node_count * u32 each (as FBW1, NEW roots only)
    slots      slot_count * u32

Each slot is one root of the new table, in order:

* ``(base_index << 1) | 0`` — **KEEP**: root ``base_index`` of the base
  table, unchanged;
* ``(wire_edge << 1) | 1`` — **NEW**: a wire edge into this frame's own
  node section.

Applying a delta to any table other than the fingerprinted base is a
hard :class:`WireFormatError`, never a silently wrong model.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from .engine import FALSE, TRUE

MAGIC = b"FBW1"
VERSION = 1

DELTA_MAGIC = b"FBW2"
DELTA_VERSION = 1

_HEADER = struct.Struct("<HHIII")
_DELTA_HEADER = struct.Struct("<HHIIQII")

#: 4-byte unsigned typecode for :mod:`array` (platform-dependent name).
_U32 = "I" if array("I").itemsize == 4 else "L"
if array(_U32).itemsize != 4:  # pragma: no cover - exotic platforms
    raise ImportError("no 4-byte unsigned array typecode available")

import sys as _sys

_SWAP = _sys.byteorder == "big"


class WireFormatError(ValueError):
    """Raised when a blob fails structural validation on import."""


def _u32_bytes(arr: "array[int]") -> bytes:
    if _SWAP:  # pragma: no cover - big-endian hosts only
        arr = array(_U32, arr)
        arr.byteswap()
    return arr.tobytes()


def _u32_read(data: bytes, offset: int, count: int) -> "array[int]":
    end = offset + 4 * count
    if end > len(data):
        raise WireFormatError("truncated blob")
    arr = array(_U32)
    arr.frombytes(data[offset:end])
    if _SWAP:  # pragma: no cover - big-endian hosts only
        arr.byteswap()
    return arr


def _walk_nodes(
    bdd, roots: Iterable[int]
) -> "Tuple[array, array, array, array]":
    """Walk the union DAG of ``roots`` into levelized wire arrays.

    Returns ``(var, low, high, out_roots)`` with children preceding
    parents; ``out_roots`` holds one wire edge per input root in order.
    """
    comp = bool(getattr(bdd, "complement_edges", False))
    decompose = bdd.decompose
    var_arr = array(_U32)
    low_arr = array(_U32)
    high_arr = array(_U32)
    append_var = var_arr.append
    append_low = low_arr.append
    append_high = high_arr.append
    # Source reference (complement bit stripped on edge encodings) ->
    # regular wire edge.  The terminal maps to wire edge 0; on the
    # complement-edge engine that one entry covers both constants, on
    # the plain engine TRUE is its own terminal node.
    memo = {FALSE: 0} if comp else {FALSE: 0, TRUE: 1}
    memo_get = memo.get
    out_roots = array(_U32)
    for root in roots:
        key = root & ~1 if comp else root
        if memo_get(key) is None:
            stack = [key]
            while stack:
                k = stack[-1]
                if k in memo:
                    stack.pop()
                    continue
                var, lo, hi = decompose(k)
                klo = lo & ~1 if comp else lo
                khi = hi & ~1 if comp else hi
                wlo = memo_get(klo)
                whi = memo_get(khi)
                if wlo is not None and whi is not None:
                    append_var(var)
                    if comp:
                        append_low(wlo | (lo & 1))
                        append_high(whi | (hi & 1))
                    else:
                        append_low(wlo)
                        append_high(whi)
                    memo[k] = len(var_arr) << 1
                    stack.pop()
                else:
                    if whi is None:
                        stack.append(khi)
                    if wlo is None:
                        stack.append(klo)
        out_roots.append(memo[key] | (root & 1) if comp else memo[key])
    return var_arr, low_arr, high_arr, out_roots


def export_blob(bdd, roots: Iterable[int]) -> bytes:
    """Serialise the given root references from ``bdd`` into one blob."""
    var_arr, low_arr, high_arr, out_roots = _walk_nodes(bdd, roots)
    header = _HEADER.pack(
        VERSION, 0, bdd.num_vars, len(var_arr), len(out_roots)
    )
    return b"".join(
        (
            MAGIC,
            header,
            _u32_bytes(var_arr),
            _u32_bytes(low_arr),
            _u32_bytes(high_arr),
            _u32_bytes(out_roots),
        )
    )


def import_blob(bdd, data: bytes) -> List[int]:
    """Rebuild a blob's roots inside ``bdd``; returns target references.

    The linear pass hash-conses every node through the target store's
    ``_mk``, so subgraphs the target already knows dedupe instead of
    allocating.  Blobs from a *narrower* variable space import fine
    (variable indices are preserved); wider ones are rejected.
    """
    if data[:4] != MAGIC:
        raise WireFormatError("bad magic; not an FBW1 blob")
    if len(data) < 4 + _HEADER.size:
        raise WireFormatError("truncated blob")
    version, _flags, num_vars, node_count, root_count = _HEADER.unpack_from(
        data, 4
    )
    if version != VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    if num_vars > bdd.num_vars:
        raise WireFormatError(
            f"blob spans {num_vars} vars, target engine has {bdd.num_vars}"
        )
    offset = 4 + _HEADER.size
    var_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    low_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    high_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    root_arr = _u32_read(data, offset, root_count)
    tgt = _build_nodes(bdd, num_vars, var_arr, low_arr, high_arr)
    comp = bool(getattr(bdd, "complement_edges", False))
    negate = bdd.negate
    roots: List[int] = []
    for we in root_arr:
        if (we >> 1) > node_count:
            raise WireFormatError("root references a missing node")
        r = tgt[we >> 1]
        if we & 1:
            r = r ^ 1 if comp else negate(r)
        roots.append(r)
    return roots


def _build_nodes(bdd, num_vars, var_arr, low_arr, high_arr) -> List[int]:
    """Rebuild a wire node section inside ``bdd`` (shared FBW1/FBW2).

    Returns the target reference of each regular wire edge; slot 0 is
    the terminal.  Every structural-corruption check lives here.
    """
    node_count = len(var_arr)
    comp = bool(getattr(bdd, "complement_edges", False))
    mk = bdd._mk  # noqa: SLF001
    negate = bdd.negate
    tgt: List[int] = [FALSE] * (node_count + 1)
    for i in range(node_count):
        v = var_arr[i]
        wlo = low_arr[i]
        whi = high_arr[i]
        if v >= num_vars:
            raise WireFormatError(f"node {i + 1}: variable {v} out of range")
        if (wlo >> 1) > i or (whi >> 1) > i:
            raise WireFormatError(f"node {i + 1}: forward child reference")
        if (wlo >> 1 and var_arr[(wlo >> 1) - 1] <= v) or (
            whi >> 1 and var_arr[(whi >> 1) - 1] <= v
        ):
            raise WireFormatError(f"node {i + 1}: child above parent level")
        lo = tgt[wlo >> 1]
        if wlo & 1:
            lo = lo ^ 1 if comp else negate(lo)
        hi = tgt[whi >> 1]
        if whi & 1:
            hi = hi ^ 1 if comp else negate(hi)
        tgt[i + 1] = mk(v, lo, hi)
    return tgt


# ---------------------------------------------------------------------------
# FBW2: delta frames against a fingerprinted base table
# ---------------------------------------------------------------------------


def fingerprint_blob(data: bytes) -> int:
    """64-bit fingerprint of a frame's bytes (blake2b, little-endian).

    Fingerprints identify the *bytes* of the base frame, not the
    function it denotes: FBW1 output differs between complement-edge
    and plain engines for the same table, so a fingerprint recomputed
    from an engine would not transfer.  Both sides of a delta chain
    therefore thread the fingerprint of the last frame *as shipped*.
    """
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def export_delta_blob(
    bdd,
    roots: Sequence[int],
    base_roots: Sequence[int],
    base_fingerprint: int,
) -> bytes:
    """Serialise ``roots`` as an FBW2 delta against ``base_roots``.

    Both sequences are references in ``bdd``; a root that is reference-
    identical to some base root becomes a 4-byte KEEP slot (hash-consing
    makes reference equality function equality within one store).  The
    node section covers only the NEW roots.
    """
    base_index = {}
    for i, ref in enumerate(base_roots):
        base_index.setdefault(ref, i)
    new_roots = [r for r in roots if r not in base_index]
    var_arr, low_arr, high_arr, new_edges = _walk_nodes(bdd, new_roots)
    slots = array(_U32)
    new_pos = 0
    for r in roots:
        kept = base_index.get(r)
        if kept is not None:
            slots.append(kept << 1)
        else:
            slots.append((new_edges[new_pos] << 1) | 1)
            new_pos += 1
    header = _DELTA_HEADER.pack(
        DELTA_VERSION,
        0,
        bdd.num_vars,
        len(base_roots),
        base_fingerprint,
        len(var_arr),
        len(slots),
    )
    return b"".join(
        (
            DELTA_MAGIC,
            header,
            _u32_bytes(var_arr),
            _u32_bytes(low_arr),
            _u32_bytes(high_arr),
            _u32_bytes(slots),
        )
    )


def delta_base_fingerprint(data: bytes) -> "Tuple[int, int]":
    """Peek ``(base_count, base_fingerprint)`` from an FBW2 header."""
    if data[:4] != DELTA_MAGIC:
        raise WireFormatError("bad magic; not an FBW2 delta blob")
    if len(data) < 4 + _DELTA_HEADER.size:
        raise WireFormatError("truncated delta blob")
    (
        version,
        _flags,
        _num_vars,
        base_count,
        base_fp,
        _node_count,
        _slot_count,
    ) = _DELTA_HEADER.unpack_from(data, 4)
    if version != DELTA_VERSION:
        raise WireFormatError(f"unsupported delta wire version {version}")
    return base_count, base_fp


def import_delta_blob(
    bdd,
    data: bytes,
    base_refs: Sequence[int],
    base_fingerprint: int,
) -> "Tuple[List[int], List[Optional[int]]]":
    """Apply an FBW2 delta on top of ``base_refs`` inside ``bdd``.

    ``base_refs`` must be the imported table of the frame whose bytes
    hash to ``base_fingerprint``; any mismatch (count or fingerprint)
    is a hard :class:`WireFormatError` — a stale base must never be
    silently patched.  Returns ``(roots, sources)`` where ``sources[i]``
    is the base index root ``i`` was kept from, or ``None`` if it was
    rebuilt from the frame's node section.
    """
    base_count, base_fp = delta_base_fingerprint(data)
    (
        _version,
        _flags,
        num_vars,
        _base_count,
        _base_fp,
        node_count,
        slot_count,
    ) = _DELTA_HEADER.unpack_from(data, 4)
    if base_count != len(base_refs):
        raise WireFormatError(
            f"delta expects {base_count} base roots, got {len(base_refs)}"
        )
    if base_fp != base_fingerprint:
        raise WireFormatError(
            f"delta base fingerprint {base_fp:#018x} does not match "
            f"held base {base_fingerprint:#018x}"
        )
    if num_vars > bdd.num_vars:
        raise WireFormatError(
            f"blob spans {num_vars} vars, target engine has {bdd.num_vars}"
        )
    offset = 4 + _DELTA_HEADER.size
    var_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    low_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    high_arr = _u32_read(data, offset, node_count)
    offset += 4 * node_count
    slot_arr = _u32_read(data, offset, slot_count)
    if len(data) != offset + 4 * slot_count:
        raise WireFormatError("delta blob length mismatch")
    tgt = _build_nodes(bdd, num_vars, var_arr, low_arr, high_arr)
    comp = bool(getattr(bdd, "complement_edges", False))
    negate = bdd.negate
    roots: List[int] = []
    sources: List[Optional[int]] = []
    for slot in slot_arr:
        if slot & 1:
            we = slot >> 1
            if (we >> 1) > node_count:
                raise WireFormatError("delta slot references a missing node")
            r = tgt[we >> 1]
            if we & 1:
                r = r ^ 1 if comp else negate(r)
            roots.append(r)
            sources.append(None)
        else:
            idx = slot >> 1
            if idx >= base_count:
                raise WireFormatError(
                    f"delta slot keeps base root {idx} of {base_count}"
                )
            roots.append(base_refs[idx])
            sources.append(idx)
    return roots, sources
