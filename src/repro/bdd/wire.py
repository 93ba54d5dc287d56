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
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, List, Tuple

from .engine import FALSE, TRUE

MAGIC = b"FBW1"
VERSION = 1

_HEADER = struct.Struct("<HHIII")

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
    """Rebuild a wire node section inside ``bdd``.

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
