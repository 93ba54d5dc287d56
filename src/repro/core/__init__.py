"""Fast IMT: the paper's first core contribution (§3) and its data structures."""

from ..telemetry import PhaseBreakdown
from .actiontree import EMPTY, ActionTreeStore
from .arraystore import ArrayActionStore
from .imt import (
    calculate_atomic_overwrites,
    decompose_block,
    device_action_predicates,
    effective_predicates,
    merge_block_and_diff,
    natural_transformation,
)
from .commute import CommutativityAnalyzer, CommuteStats
from .inverse_model import EcDelta, InverseModel, Lineage, VecId
from .model_manager import FrozenReadView, ModelWriter
from .mr2 import (
    Mr2Pipeline,
    aggregate,
    map_phase,
    reduce_by_action,
    reduce_by_predicate,
)
from .overwrite import Overwrite, atomic, check_conflict_free, make_delta
from .rule_index import RuleIndex, matches_intersect, patterns_intersect
from .subspace import Subspace, SubspacePartition

__all__ = [
    "EMPTY",
    "ActionTreeStore",
    "ArrayActionStore",
    "calculate_atomic_overwrites",
    "decompose_block",
    "device_action_predicates",
    "effective_predicates",
    "merge_block_and_diff",
    "natural_transformation",
    "CommutativityAnalyzer",
    "CommuteStats",
    "EcDelta",
    "InverseModel",
    "Lineage",
    "VecId",
    "FrozenReadView",
    "ModelWriter",
    "Mr2Pipeline",
    "aggregate",
    "map_phase",
    "reduce_by_action",
    "reduce_by_predicate",
    "Overwrite",
    "atomic",
    "check_conflict_free",
    "make_delta",
    "RuleIndex",
    "matches_intersect",
    "patterns_intersect",
    "PhaseBreakdown",
    "Subspace",
    "SubspacePartition",
]
