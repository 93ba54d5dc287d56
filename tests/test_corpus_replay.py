"""Deterministic replay of the checked-in regression corpus.

Every file under ``tests/corpus/`` is replayed on each test run — plain
scenarios through the full differential runner, chaos cases
(``"kind": "chaos"`` payloads) through the fault-injecting
:class:`~repro.difftest.chaos.ChaosRunner`, interleave cases
(``"kind": "interleave"`` payloads) through the order-exploring
:class:`~repro.difftest.interleave.InterleaveRunner` — so a fixed
divergence can never silently come back.  Each case must stay fast
(< 1 s) so the corpus scales.
"""

import json
import time
from pathlib import Path

import pytest

from repro.difftest import (
    ChaosCase,
    ChaosRunner,
    DifferentialRunner,
    InterleaveCase,
    InterleaveRunner,
    Scenario,
)
from repro.difftest.corpus import iter_cases, load_case, save_case
from repro.errors import ReproError

CORPUS_DIR = Path(__file__).parent / "corpus"


def _split_corpus():
    plain, chaos, interleave = [], [], []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        case = load_case(path)
        if isinstance(case, ChaosCase):
            chaos.append(path)
        elif isinstance(case, InterleaveCase):
            interleave.append(path)
        else:
            plain.append(path)
    return plain, chaos, interleave


CORPUS, CHAOS_CORPUS, INTERLEAVE_CORPUS = _split_corpus()


def test_corpus_is_populated():
    assert len(CORPUS) >= 3, "expected at least 3 checked-in scenarios"
    assert len(CHAOS_CORPUS) >= 2, "expected at least 2 chaos cases"
    assert len(INTERLEAVE_CORPUS) >= 2, "expected at least 2 interleave cases"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scenario_replays_clean(path):
    scenario = load_case(path)
    start = time.perf_counter()
    result = DifferentialRunner().run(scenario)
    elapsed = time.perf_counter() - start
    assert result.ok, (scenario.name, result.divergences)
    assert elapsed < 1.0, f"{scenario.name} took {elapsed:.2f}s (budget 1s)"


@pytest.mark.chaos
@pytest.mark.parametrize("path", CHAOS_CORPUS, ids=lambda p: p.stem)
def test_chaos_case_converges(path):
    """The self-healing property, pinned: the recorded faulty stream
    through supervised ingestion still matches the clean-stream oracle."""
    case = load_case(path)
    start = time.perf_counter()
    result = ChaosRunner.for_case(case).run(case.scenario)
    elapsed = time.perf_counter() - start
    assert result.ok, (case.name, result.divergences)
    # The recipe must actually inject something, or the case is inert.
    assert sum(result.stats["faults"].values()) >= 1, case.name
    assert elapsed < 1.0, f"{case.name} took {elapsed:.2f}s (budget 1s)"


@pytest.mark.parametrize("path", INTERLEAVE_CORPUS, ids=lambda p: p.stem)
def test_interleave_case_replays_clean(path):
    """Every explored order agrees with the oracle in every intermediate
    state, and the POR soundness self-check (when it runs) passes."""
    case = load_case(path)
    runner = InterleaveRunner()
    start = time.perf_counter()
    result = runner.run_case(case)
    elapsed = time.perf_counter() - start
    assert result.ok, (case.name, result.divergences)
    assert runner.last_report.self_check in ("passed", "skipped")
    assert elapsed < 1.0, f"{case.name} took {elapsed:.2f}s (budget 1s)"


def test_interleave_corpus_pins_measured_pruning():
    """The disjoint-block case pins POR effectiveness: 3! valid orders,
    one explored — if reduction stops pruning, this fails loudly."""
    path = CORPUS_DIR / "interleave_disjoint_prefixes.json"
    runner = InterleaveRunner()
    result = runner.run_case(load_case(path))
    assert result.ok
    report = runner.last_report
    assert report.orders_possible == 6
    assert report.orders_explored == 1


def test_interleave_corpus_pins_order_dependence():
    """The transient-loop case must stay order-dependent: its two orders
    produce different intermediate verdict sequences."""
    path = CORPUS_DIR / "interleave_transient_loop_min.json"
    runner = InterleaveRunner()
    result = runner.run_case(load_case(path))
    assert result.ok
    report = runner.last_report
    assert report.order_dependent is True
    assert report.orders_explored == 2


def test_corpus_files_are_canonical(tmp_path):
    """Checked-in files match their canonical serialised form exactly."""
    seen = set()
    for path, case in iter_cases(CORPUS_DIR):
        resaved = save_case(case, tmp_path)
        assert path.read_text() == resaved.read_text(), path.name
        seen.add(path)
    assert seen == set(CORPUS) | set(CHAOS_CORPUS) | set(INTERLEAVE_CORPUS)


def _round_trips(path, kind, tmp_path):
    case = load_case(path)
    assert isinstance(case, kind)
    saved = save_case(case, tmp_path)
    assert load_case(saved).as_dict() == case.as_dict()


def test_save_round_trips(tmp_path):
    _round_trips(CORPUS[0], Scenario, tmp_path)


def test_chaos_save_round_trips(tmp_path):
    _round_trips(CHAOS_CORPUS[0], ChaosCase, tmp_path)


def test_interleave_save_round_trips(tmp_path):
    _round_trips(INTERLEAVE_CORPUS[0], InterleaveCase, tmp_path)


def test_unknown_case_kind_is_an_error(tmp_path):
    """A payload of a kind no runner replays is never silently skipped."""
    data = json.loads(CHAOS_CORPUS[0].read_text(encoding="utf-8"))
    data["kind"] = "chaoss"
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ReproError, match="typo.json.*'chaoss'"):
        load_case(path)
    with pytest.raises(ReproError, match="'chaoss'"):
        list(iter_cases(tmp_path))
