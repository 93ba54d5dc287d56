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
  debugging and :func:`save_case` serialises it into ``tests/corpus/`` as
  a deterministic regression test.

Entry points: ``repro fuzz`` on the CLI, ``tests/test_corpus_replay.py``
in the suite.  See ``docs/difftest.md``.
"""

from importlib import import_module

# Public name -> defining module, resolved on first access (PEP 562), so
# ``repro.difftest.explore`` imports without the verifier stack.
_EXPORTS = {
    "ChaosCase": ".corpus",
    "ChaosRunner": ".chaos",
    "DifferentialRunner": ".runner",
    "DiffResult": ".runner",
    "Divergence": ".runner",
    "InterleaveCase": ".corpus",
    "InterleaveRunner": ".interleave",
    "InterleaveShrinker": ".shrink",
    "InterleavingExplorer": ".explore",
    "ReferenceOracle": ".oracle",
    "RequirementSpec": ".scenario",
    "Scenario": ".scenario",
    "ScenarioGenerator": ".scenario",
    "Shrinker": ".shrink",
    "iter_cases": ".corpus",
    "load_case": ".corpus",
    "save_case": ".corpus",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
