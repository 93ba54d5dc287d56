"""Shared fixtures, seeding, and strategy helpers for the test suite.

All randomized tests derive their randomness from one pytest option::

    pytest --repro-seed 4242

An autouse fixture reseeds the global :mod:`random` module per test from
``(--repro-seed, test nodeid)``, and failing tests print the seed so any
failure reproduces with the printed value.  Tests that need their own
generator call :func:`case_rng`, which mixes the base seed in the same
way.
"""

import random
import zlib
from typing import Dict, List

import pytest
from hypothesis import strategies as st

from repro.dataplane.rule import DROP, Rule
from repro.dataplane.update import RuleUpdate, UpdateOp
from repro.headerspace.fields import HeaderLayout, dst_only_layout
from repro.headerspace.match import Match, Pattern

DEFAULT_SEED = 1234
_base_seed = DEFAULT_SEED


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        type=int,
        default=DEFAULT_SEED,
        help="base seed for all randomized tests (printed on failure)",
    )


def pytest_configure(config):
    global _base_seed
    _base_seed = config.getoption("--repro-seed")


def base_seed() -> int:
    """The --repro-seed value of the current run."""
    return _base_seed


def case_rng(case_seed: int = 0) -> random.Random:
    """A fresh generator mixing ``--repro-seed`` with a per-case seed.

    Property tests drawing a case index from hypothesis pass it here, so
    one CLI option reseeds every randomized test in the suite.
    """
    return random.Random((_base_seed << 32) ^ (case_seed & 0xFFFFFFFF))


def _seed_for(nodeid: str) -> int:
    return (_base_seed << 32) ^ zlib.crc32(nodeid.encode("utf-8"))


@pytest.fixture(autouse=True)
def _reseed_global_random(request):
    """Reseed the global random module per test, reproducibly."""
    seed = _seed_for(request.node.nodeid)
    state = random.getstate()
    random.seed(seed)
    yield
    random.setstate(state)


@pytest.fixture
def always_sweep(monkeypatch):
    """Patch the engine's sweep rule to "always": every block boundary
    (``ModelWriter.flush``) collects.

    The product has no such switch — the rule is
    ``PredicateEngine.collect_if_grown`` and nothing selects another —
    so the tests that audit id reuse force it from here.  The fixture's
    value is a callable returning the number of sweeps forced so far.
    """
    from repro.bdd.predicate import PredicateEngine

    sweeps = [0]

    def sweep(engine):
        sweeps[0] += 1
        return engine.collect()

    monkeypatch.setattr(PredicateEngine, "collect_if_grown", sweep)
    return lambda: sweeps[0]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            (
                "repro seed",
                f"--repro-seed {_base_seed} "
                f"(this test's derived seed: {_seed_for(item.nodeid)})",
            )
        )


def random_rule_strategy(layout: HeaderLayout, actions: List[int], max_priority=6):
    """Hypothesis strategy producing well-behaved rules for a small layout."""
    width = layout.field("dst").width

    def make_prefix(value, length, priority, action):
        return Rule(priority, Match.dst_prefix(value, length, layout), action)

    def make_suffix(value, length, priority, action):
        return Rule(
            priority, Match({"dst": Pattern.suffix(value, length, width)}), action
        )

    prefix_rules = st.builds(
        make_prefix,
        st.integers(0, (1 << width) - 1),
        st.integers(0, width),
        st.integers(0, max_priority),
        st.sampled_from(actions),
    )
    suffix_rules = st.builds(
        make_suffix,
        st.integers(0, (1 << width) - 1),
        st.integers(0, width),
        st.integers(0, max_priority),
        st.sampled_from(actions),
    )
    return st.one_of(prefix_rules, suffix_rules)


def assert_model_matches_snapshot(model, snapshot, layout):
    """Check R ~ M by exhaustive header enumeration (small layouts only)."""
    for header in range(layout.universe_size):
        values = layout.unflatten(header)
        assignment = {}
        for name in layout.field_names():
            assignment.update(dict(layout.bits_of(name, values[name])))
        expected = snapshot.behavior(values)
        actual = model.behavior(assignment)
        assert actual == expected, (
            f"header {values}: model {actual} != snapshot {expected}"
        )
