"""Unit tests for smaller components and error paths."""

import os
import subprocess
import sys

import pytest

import repro
from repro.bdd.predicate import PredicateEngine
from repro.core.actiontree import ActionTreeStore
from repro.core.inverse_model import InverseModel
from repro.core.overwrite import atomic
from repro.telemetry import PhaseBreakdown
from repro.dataplane.fib import FibSnapshot, enumerate_headers
from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import insert
from repro.errors import ModelInvariantError, SimulationError
from repro.headerspace.fields import dst_only_layout, five_tuple_layout
from repro.headerspace.match import Match, Pattern
from repro.network.generators import figure3_example, line
from repro.routing.events import EventLoop
from repro.spec.ast import SelectorContext
from repro.spec.dfa import compile_path_set
from repro.spec.parser import parse_path_set
from repro.ce2d.verification_graph import VerificationGraph

LAYOUT = dst_only_layout(4)


class TestPhaseBreakdown:
    def test_merge_and_total(self):
        a = PhaseBreakdown(map_seconds=1, reduce_seconds=2, apply_seconds=3, blocks=1)
        b = PhaseBreakdown(map_seconds=0.5, blocks=2, updates=7)
        a.merge(b)
        assert a.map_seconds == 1.5
        assert a.total_seconds == 6.5
        assert a.blocks == 3
        assert a.as_dict()["updates"] == 7


class TestEventLoopGuards:
    def test_livelock_guard(self):
        loop = EventLoop()

        def rearm():
            loop.schedule(0.0, rearm)

        loop.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)

    def test_run_advances_to_until_even_when_idle(self):
        loop = EventLoop()
        loop.run(until=5.0)
        assert loop.now == 5.0


class TestEnumerateHeaders:
    def test_counts(self):
        layout = dst_only_layout(3)
        headers = list(enumerate_headers(layout))
        assert len(headers) == 8
        assert headers[5] == {"dst": 5}


class TestInverseModelInvariants:
    def test_detects_missing_coverage(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        # Corrupt: shrink the only EC.
        vec = next(iter(model._entries))
        model._entries[vec] = engine.variable(0)
        with pytest.raises(ModelInvariantError):
            model.check_invariants()

    def test_detects_overlap(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        vec = next(iter(model._entries))
        other = store.overwrite(vec, {0: 9})
        model._entries[other] = engine.variable(0)  # overlaps the full EC
        with pytest.raises(ModelInvariantError):
            model.check_invariants()

    def test_detects_empty_ec(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        vec = next(iter(model._entries))
        other = store.overwrite(vec, {0: 9})
        model._entries[other] = engine.false
        with pytest.raises(ModelInvariantError):
            model.check_invariants()

    def test_detects_signature_dict_out_of_step(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(engine, store, [0])
        half = engine.variable(0)
        model.apply_overwrites([atomic(half, 0, 9)])
        model.check_invariants()
        vec = next(v for v, p in model._entries.items() if p == half)
        model._sigs[vec] = engine.signature(~half)
        with pytest.raises(ModelInvariantError, match="stale signature"):
            model.check_invariants()
        del model._sigs[vec]
        with pytest.raises(ModelInvariantError, match="keys"):
            model.check_invariants()

    def test_uncovered_header_raises(self):
        engine = PredicateEngine(LAYOUT.total_bits)
        store = ActionTreeStore()
        model = InverseModel(
            engine, store, [0], universe=engine.variable(0)
        )
        bits = {0: False, 1: False, 2: False, 3: False}
        with pytest.raises(ModelInvariantError):
            model.vector_for(bits)


class TestFiveTupleCompilation:
    def test_policy_match_semantics(self):
        layout = five_tuple_layout(4)
        engine = PredicateEngine(layout.total_bits)
        match = Match(
            {
                "dst": Pattern.prefix(0b1000, 1, 4),
                "proto": Pattern.exact(2, 2),
                "dport": Pattern.range(16, 31, 8),
            }
        )
        pred = match.to_predicate(engine, layout)
        # 8 dst values x 16 src x 1 proto x 16 dports
        assert pred.sat_count() == 8 * 16 * 1 * 16


class TestVerificationGraphGuards:
    def test_max_nodes_enforced(self):
        topo = figure3_example()
        automaton = compile_path_set(parse_path_set(". .* ."))
        with pytest.raises(MemoryError):
            VerificationGraph(
                topo,
                automaton,
                topo.switches(),
                SelectorContext(),
                max_nodes=3,
            )

    def test_counts(self):
        topo = line(3)
        automaton = compile_path_set(parse_path_set("s0 .* s2"))
        graph = VerificationGraph(
            topo, automaton, [topo.id_of("s0")], SelectorContext()
        )
        assert graph.num_nodes >= 3
        assert graph.num_edges >= 2
        clone = graph.clone()
        assert clone.num_edges == graph.num_edges


def test_package_imports_without_numpy():
    """``src/`` is stdlib-only: no entry point may pull numpy in
    (≈10 MB RSS and ≈0.1 s set-up per process where it is installed)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import repro.flash, repro.serve, repro.cli, sys; "
        "assert 'numpy' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_verifier_core_imports_no_outer_layer():
    """The model and the Flash facade stand below the layers that drive
    them: importing ``repro.core`` and ``repro.flash`` loads none of
    ``repro.resilience``, ``repro.serve`` or ``repro.difftest``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import repro.core, repro.flash, sys; "
        "print(sorted(m for m in sys.modules if m.startswith(("
        "'repro.resilience', 'repro.serve', 'repro.difftest'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
