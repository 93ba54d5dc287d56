"""Round-trip and rejection properties of the FBW1 compact wire format.

The blob is the only way predicates cross process boundaries (partitioned
workers) and the bulk path of every difftest model comparison, so both
directions of every engine pairing must preserve function equality, and
corrupt input must fail loudly rather than build a non-canonical BDD.
"""

import struct

import pytest

from repro.bdd.predicate import PredicateEngine
from repro.bdd.wire import MAGIC, WireFormatError

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
