"""Flash: fast, consistent data plane verification — SIGCOMM 2022 reproduction.

Public API tour:

* :class:`repro.Flash` — the end-to-end system (Figure 1);
* :mod:`repro.core` — Fast IMT: inverse models, Algorithm 1, MR2, PAT;
* :mod:`repro.ce2d` — epochs, dispatcher, verification graphs, Alg. 2/3;
* :mod:`repro.spec` — the requirement language of Appendix B;
* :mod:`repro.baselines` — Delta-net* and APKeep* reimplementations;
* :mod:`repro.network` / :mod:`repro.fibgen` / :mod:`repro.routing` —
  topologies, FIB patterns and the OpenR-like routing simulator.
"""

from importlib import import_module

__version__ = "1.0.0"

# Public name -> defining module.  Resolved on first access (PEP 562), so
# importing one subsystem (e.g. ``repro.difftest.explore``) does not load
# every other one.
_EXPORTS = {
    "find_blackholes": ".analysis",
    "trace_header": ".analysis",
    "Predicate": ".bdd",
    "PredicateEngine": ".bdd",
    "CE2DDispatcher": ".ce2d",
    "SubspaceVerifier": ".ce2d",
    "Verdict": ".results",
    "VerificationReport": ".results",
    "LoopReport": ".results",
    "Report": ".results",
    "FrozenReadView": ".core",
    "ModelWriter": ".core",
    "SubspacePartition": ".core",
    "MetricsRegistry": ".telemetry",
    "Telemetry": ".telemetry",
    "DROP": ".dataplane",
    "FibSnapshot": ".dataplane",
    "FibTable": ".dataplane",
    "Rule": ".dataplane",
    "RuleUpdate": ".dataplane",
    "UpdateBlock": ".dataplane",
    "delete": ".dataplane",
    "insert": ".dataplane",
    "EpochGroupVerifier": ".flash",
    "Flash": ".flash",
    "HeaderLayout": ".headerspace",
    "Match": ".headerspace",
    "Pattern": ".headerspace",
    "dst_only_layout": ".headerspace",
    "dst_src_layout": ".headerspace",
    "Topology": ".network",
    "fabric": ".network",
    "fat_tree": ".network",
    "internet2": ".network",
    "DifferentialRunner": ".difftest",
    "ReferenceOracle": ".difftest",
    "ScenarioGenerator": ".difftest",
    "Shrinker": ".difftest",
    "OpenRSimulation": ".routing",
    "Multiplicity": ".spec",
    "Requirement": ".spec",
    "requirement": ".spec",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
