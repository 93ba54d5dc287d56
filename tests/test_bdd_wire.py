"""Round-trip and rejection properties of the FBW1 compact wire format.

The blob is the only way predicates cross process boundaries (partitioned
workers) and the bulk path of every difftest model comparison, so both
directions of every engine pairing must preserve function equality, and
corrupt input must fail loudly rather than build a non-canonical BDD.
"""

import struct

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.bdd.wire import (
    DELTA_MAGIC,
    MAGIC,
    WireFormatError,
    _DELTA_HEADER,
    delta_base_fingerprint,
    export_blob,
    fingerprint_blob,
    import_blob,
)

from .bdd_reference import ReferenceBDD
from .conftest import case_rng
from .test_bdd_split import NUM_VARS, fresh_engine, random_pred


def _random_batch(engine, rng, n=24):
    return [random_pred(engine, rng, 5) for _ in range(n)]


@pytest.mark.parametrize("src_kind", ["fast", "reference"])
@pytest.mark.parametrize("dst_kind", ["fast", "reference"])
def test_roundtrip_across_engine_pairings(src_kind, dst_kind):
    src = fresh_engine(src_kind)
    dst = fresh_engine(dst_kind)
    probe = fresh_engine("fast")
    rng = case_rng(0xF1B1)
    preds = _random_batch(src, rng)
    blob = src.export_bytes(preds)
    imported = dst.import_bytes(blob)
    assert len(imported) == len(preds)
    # Function equality via a third engine: both transplants must land
    # on the same node there.
    for original, transplanted in zip(preds, imported):
        assert probe.import_predicate(original) == probe.import_predicate(
            transplanted
        )


def test_roundtrip_preserves_terminals_and_duplicates():
    src = fresh_engine("fast")
    dst = fresh_engine("reference")
    rng = case_rng(0xF1B2)
    f = random_pred(src, rng)
    batch = [src.false, src.true, f, f, ~f]
    out = dst.import_bytes(src.export_bytes(batch))
    assert out[0].is_false
    assert out[1].is_true
    assert out[2] == out[3]
    assert out[4] == ~out[2]


def test_blob_is_deterministic_and_compact():
    engine = fresh_engine("fast")
    rng = case_rng(0xF1B3)
    preds = _random_batch(engine, rng)
    blob_a = engine.export_bytes(preds)
    blob_b = engine.export_bytes(preds)
    assert blob_a == blob_b
    # magic + header + 3 u32 arrays + u32 roots: linear in DAG size.
    nodes = engine.shared_node_count(preds)
    assert len(blob_a) == 20 + 12 * nodes + 4 * len(preds)


def test_import_predicates_bulk_matches_per_pred_import():
    src = fresh_engine("reference")
    dst = fresh_engine("fast")
    rng = case_rng(0xF1B4)
    preds = _random_batch(src, rng)
    bulk = dst.import_predicates(preds)
    single = [dst.import_predicate(p) for p in preds]
    assert bulk == single


def test_import_predicates_mixed_sources():
    a = fresh_engine("fast")
    b = fresh_engine("reference")
    dst = fresh_engine("fast")
    rng = case_rng(0xF1B5)
    mixed = [random_pred(a, rng), random_pred(b, rng), a.true, b.false]
    out = dst.import_predicates(mixed)
    assert out[0] == dst.import_predicate(mixed[0])
    assert out[1] == dst.import_predicate(mixed[1])
    assert out[2].is_true
    assert out[3].is_false


class TestRejection:
    def _blob(self):
        engine = fresh_engine("fast")
        rng = case_rng(0xF1B6)
        return engine, engine.export_bytes(_random_batch(engine, rng, 8))

    def test_bad_magic(self):
        engine, blob = self._blob()
        with pytest.raises(WireFormatError):
            engine.import_bytes(b"XXXX" + blob[4:])

    def test_truncated(self):
        engine, blob = self._blob()
        with pytest.raises(WireFormatError):
            engine.import_bytes(blob[: len(blob) - 3])

    def test_wider_blob_rejected_narrower_accepted(self):
        engine, blob = self._blob()
        narrower = PredicateEngine(NUM_VARS - 1)
        with pytest.raises(WireFormatError):
            narrower.import_bytes(blob)
        # The other direction is allowed: variable indices are preserved.
        wider = PredicateEngine(NUM_VARS + 1)
        assert len(wider.import_bytes(blob)) == 8

    def test_variable_out_of_range(self):
        engine, blob = self._blob()
        header = blob[: 4 + struct.calcsize("<HHIII")]
        body = bytearray(blob[len(header):])
        # First node's var field: set beyond num_vars.
        struct.pack_into("<I", body, 0, NUM_VARS + 7)
        with pytest.raises(WireFormatError):
            engine.import_bytes(bytes(header) + bytes(body))

    def test_forward_reference_rejected(self):
        engine = fresh_engine("fast")
        node_count = 1
        payload = struct.pack("<HHIII", 1, 0, NUM_VARS, node_count, 1)
        # One node whose low child points at wire id 2 (doesn't exist yet).
        payload += struct.pack("<I", 0)  # var
        payload += struct.pack("<I", 2 << 1)  # low: forward ref
        payload += struct.pack("<I", 1)  # high: TRUE
        payload += struct.pack("<I", 1 << 1)  # root
        with pytest.raises(WireFormatError):
            engine.import_bytes(MAGIC + payload)

    def test_level_order_violation_rejected(self):
        engine = fresh_engine("fast")
        payload = struct.pack("<HHIII", 1, 0, NUM_VARS, 2, 1)
        vars_ = struct.pack("<II", 3, 3)  # child var == parent var
        lows = struct.pack("<II", 0, 1 << 1)
        highs = struct.pack("<II", 1, 1)
        root = struct.pack("<I", 2 << 1)
        with pytest.raises(WireFormatError):
            engine.import_bytes(MAGIC + payload + vars_ + lows + highs + root)


# ---------------------------------------------------------------------------
# FBW2 delta frames
# ---------------------------------------------------------------------------


def _chain_start(kind="fast", seed=0xF2B0, n=16):
    """A (src, dst, src_preds, dst_preds, frame0, fp0) chained pair."""
    src = fresh_engine(kind)
    dst = fresh_engine(kind)
    rng = case_rng(seed)
    preds = _random_batch(src, rng, n)
    frame = src.export_bytes(preds)
    imported = dst.import_bytes(frame)
    return src, dst, preds, imported, frame, fingerprint_blob(frame), rng


def _fold_chain(engine, frames):
    """Fold a full frame plus later frames the way serve's DeltaIsolator
    does: each frame applies to the previous result, keyed by the
    fingerprint of the previous frame's bytes."""
    preds = engine.import_bytes(frames[0])
    fp = fingerprint_blob(frames[0])
    for frame in frames[1:]:
        preds, _ = engine.apply_delta_bytes(frame, preds, fp)
        fp = fingerprint_blob(frame)
    return preds


class TestDeltaFrames:
    def test_small_change_ships_as_fbw2_and_roundtrips(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        changed = list(preds)
        changed[3] = ~changed[3]
        changed[9] = changed[9] | random_pred(src, rng, 4)
        delta = src.export_delta_bytes(changed, preds, fp)
        assert delta[:4] == DELTA_MAGIC
        assert len(delta) < len(src.export_bytes(changed))
        applied, sources = dst.apply_delta_bytes(delta, base, fp)
        # Unchanged slots ride as KEEPs of the base table.
        keeps = [s for s in sources if s is not None]
        assert len(keeps) >= len(preds) - 2
        for i, s in enumerate(sources):
            if s is not None:
                assert applied[i] == base[s]
        probe = fresh_engine("fast")
        for a, b in zip(changed, applied):
            assert probe.import_predicate(a) == probe.import_predicate(b)

    def test_total_rewrite_falls_back_to_full_fbw1(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        rewritten = [random_pred(src, rng, 5) for _ in preds]
        blob = src.export_delta_bytes(rewritten, preds, fp)
        assert blob[:4] == MAGIC  # full frame was no larger: chain reset
        applied, sources = dst.apply_delta_bytes(blob, base, fp)
        assert sources == [None] * len(rewritten)
        probe = fresh_engine("fast")
        for a, b in zip(rewritten, applied):
            assert probe.import_predicate(a) == probe.import_predicate(b)

    def test_identity_delta_is_all_keeps(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        delta = src.export_delta_bytes(preds, preds, fp)
        assert delta[:4] == DELTA_MAGIC
        applied, sources = dst.apply_delta_bytes(delta, base, fp)
        assert sources == list(range(len(preds)))
        assert applied == base

    def test_wrong_base_fingerprint_rejected(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        changed = list(preds)
        changed[0] = ~changed[0]
        delta = src.export_delta_bytes(changed, preds, fp)
        with pytest.raises(WireFormatError, match="fingerprint"):
            dst.apply_delta_bytes(delta, base, fp ^ 1)

    def test_wrong_base_count_rejected(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        delta = src.export_delta_bytes(preds, preds, fp)
        with pytest.raises(WireFormatError, match="base roots"):
            dst.apply_delta_bytes(delta, base[:-1], fp)

    def test_truncated_delta_rejected(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        changed = list(preds)
        changed[0] = changed[0] | random_pred(src, rng, 4)
        delta = src.export_delta_bytes(changed, preds, fp)
        for cut in (3, 4 + _DELTA_HEADER.size - 1, len(delta) - 2):
            with pytest.raises(WireFormatError):
                dst.apply_delta_bytes(delta[:cut], base, fp)

    def test_trailing_garbage_rejected(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        changed = list(preds)
        changed[0] = changed[0] | random_pred(src, rng, 4)
        delta = src.export_delta_bytes(changed, preds, fp)
        with pytest.raises(WireFormatError, match="length mismatch"):
            dst.apply_delta_bytes(delta + b"\x00\x00\x00\x00", base, fp)

    def test_keep_slot_out_of_range_rejected(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        delta = bytearray(src.export_delta_bytes(preds, preds, fp))
        # Last u32 is the final KEEP slot; point it past the base table.
        struct.pack_into("<I", delta, len(delta) - 4, len(preds) << 1)
        with pytest.raises(WireFormatError, match="keeps base root"):
            dst.apply_delta_bytes(bytes(delta), base, fp)

    def test_fingerprint_is_of_bytes_and_deterministic(self):
        src, dst, preds, base, frame, fp, rng = _chain_start()
        assert fingerprint_blob(frame) == fp
        assert fingerprint_blob(frame + b"x") != fp
        count, peeked = delta_base_fingerprint(
            src.export_delta_bytes(preds, preds, fp)
        )
        assert (count, peeked) == (len(preds), fp)
        with pytest.raises(WireFormatError):
            delta_base_fingerprint(frame)  # FBW1 is not a delta

    def test_mixed_chain_folds_frame_by_frame(self):
        src, _, preds, _, frame, fp, rng = _chain_start()
        frames = [frame]
        current = list(preds)
        for i in range(3):
            current = list(current)
            current[i] = current[i] | random_pred(src, rng, 4)
            nxt = src.export_delta_bytes(current, preds, fp)
            frames.append(nxt)
            preds, fp = current, fingerprint_blob(nxt)
        # Splice a full-frame reset mid-chain, then one more delta.
        reset = src.export_bytes(current)
        frames.append(reset)
        fp = fingerprint_blob(reset)
        current = list(current)
        current[-1] = ~current[-1]
        frames.append(src.export_delta_bytes(current, preds, fp))
        fresh = fresh_engine("fast")
        folded = _fold_chain(fresh, frames)
        probe = fresh_engine("fast")
        for a, b in zip(current, folded):
            assert probe.import_predicate(a) == probe.import_predicate(b)

    def test_broken_chain_link_rejected(self):
        src, _, preds, _, frame, fp, rng = _chain_start()
        changed = list(preds)
        changed[0] = changed[0] | random_pred(src, rng, 4)
        d1 = src.export_delta_bytes(changed, preds, fp)
        changed2 = list(changed)
        changed2[1] = ~changed2[1]
        d2 = src.export_delta_bytes(
            changed2, changed, fingerprint_blob(d1)
        )
        fresh = fresh_engine("fast")
        # Dropping d1 breaks d2's base fingerprint: must fail loudly.
        with pytest.raises(WireFormatError):
            _fold_chain(fresh, [frame, d2])
        assert len(_fold_chain(fresh, [frame, d1, d2])) == len(preds)
