"""Binary decision diagram substrate (the paper's JDD equivalent)."""

from .engine import BDD, CACHE_LIMIT, FALSE, TRUE, BddStats
from .predicate import Predicate, PredicateEngine

__all__ = [
    "BDD",
    "CACHE_LIMIT",
    "FALSE",
    "TRUE",
    "BddStats",
    "Predicate",
    "PredicateEngine",
]
