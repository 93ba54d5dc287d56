"""Differential fuzzing of the verification engines (``repro.difftest``).

Flash's core claim (§5) is that Fast IMT/MR2 and CE2D produce the *same
verdicts* as per-update verifiers while being much faster.  This subsystem
hunts for counterexamples systematically instead of hand-writing them:

* :class:`ScenarioGenerator` produces seeded random scenarios — topology,
  header layout, an epoch-tagged insert/delete/modify update sequence and
  reachability requirements;
* :class:`DifferentialRunner` replays each scenario through the Flash
  facade (batch MR2 *and* per-update mode), Delta-net*, APKeep* and a
  brute-force :class:`ReferenceOracle`, then diffs forwarding behaviour,
  reachability predicates (by BDD equality), loop predicates and verdicts;
* :class:`Shrinker` minimises any divergent scenario by greedy delta
  debugging and the corpus helpers serialise it into ``tests/corpus/`` as
  a deterministic regression test.

Entry points: ``repro fuzz`` on the CLI, ``tests/test_corpus_replay.py``
in the suite.  See ``docs/difftest.md``.
"""

from .chaos import CHAOS_POLICIES, ChaosCase, ChaosRunner
from .corpus import (
    iter_chaos_corpus,
    iter_corpus,
    iter_interleave_corpus,
    load_chaos_case,
    load_interleave_case,
    load_scenario,
    save_chaos_case,
    save_interleave_case,
    save_scenario,
)
from .interleave import (
    InterleaveCase,
    InterleaveRunner,
    InterleavingExplorer,
)
from .oracle import ReferenceOracle
from .runner import DifferentialRunner, DiffResult, Divergence
from .scenario import RequirementSpec, Scenario, ScenarioGenerator
from .shrink import InterleaveShrinker, Shrinker

__all__ = [
    "CHAOS_POLICIES",
    "ChaosCase",
    "ChaosRunner",
    "DifferentialRunner",
    "DiffResult",
    "Divergence",
    "InterleaveCase",
    "InterleaveRunner",
    "InterleaveShrinker",
    "InterleavingExplorer",
    "ReferenceOracle",
    "RequirementSpec",
    "Scenario",
    "ScenarioGenerator",
    "Shrinker",
    "iter_chaos_corpus",
    "iter_corpus",
    "iter_interleave_corpus",
    "load_chaos_case",
    "load_interleave_case",
    "load_scenario",
    "save_chaos_case",
    "save_interleave_case",
    "save_scenario",
]
