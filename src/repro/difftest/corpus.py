"""The regression corpus: one case format for all three runners.

Divergent scenarios found by fuzzing are shrunk and serialised to JSON
under ``tests/corpus/``; a deterministic pytest entry point
(``tests/test_corpus_replay.py``) replays every file on each run, so a
fixed divergence can never silently regress.  Files are stable
(``sort_keys`` + indent) to keep diffs reviewable.

A file holds one case, and its payload's ``kind`` says which runner
replays it:

* no ``kind`` — a plain :class:`Scenario`, replayed through the
  :class:`~repro.difftest.runner.DifferentialRunner`;
* ``"chaos"`` — a :class:`ChaosCase`, a scenario plus its fault recipe,
  replayed through the :class:`~repro.difftest.chaos.ChaosRunner`;
* ``"interleave"`` — an :class:`InterleaveCase`, a scenario plus its
  exploration recipe, replayed through the
  :class:`~repro.difftest.interleave.InterleaveRunner`.

:func:`save_case`, :func:`load_case` and :func:`iter_cases` handle all
three; any other ``kind`` is an error, never a silently skipped file.
Each runner's ``case_for(scenario, result)`` builds the case to save.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..errors import ReproError
from .explore import Order
from .scenario import Scenario

PathLike = Union[str, Path]

CHAOS_FORMAT_VERSION = 2
INTERLEAVE_FORMAT_VERSION = 1


@dataclass
class ChaosCase:
    """One chaos regression: a scenario plus its exact fault recipe.

    Serialisable like a :class:`Scenario`, with enough extra state
    (profile name, injector seed) to replay the identical faulty stream
    deterministically.
    """

    scenario: Scenario
    profile: str
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"chaos_{self.profile}_{self.scenario.name}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos",
            "chaos_format": CHAOS_FORMAT_VERSION,
            "name": self.name,
            "profile": self.profile,
            "seed": self.seed,
            "scenario": self.scenario.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosCase":
        if data.get("kind") != "chaos":
            raise ReproError("not a chaos case (missing kind='chaos')")
        if data.get("chaos_format") != CHAOS_FORMAT_VERSION:
            raise ReproError(
                f"unsupported chaos format {data.get('chaos_format')!r}"
            )
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            profile=data["profile"],
            seed=int(data.get("seed", 0)),
            name=data.get("name", ""),
        )

    def __repr__(self) -> str:
        return (
            f"ChaosCase({self.name!r}, profile={self.profile!r}, "
            f"seed={self.seed})"
        )


@dataclass
class InterleaveCase:
    """One interleave regression: a scenario plus its exploration recipe.

    ``block_start`` splits the update sequence into a sequentially
    applied prefix and the concurrent block; ``orders`` optionally pins
    the exact interleavings to replay (the shrinker's minimized order)
    instead of exploring.
    """

    scenario: Scenario
    block_start: int = 0
    max_orders: int = 16
    self_check: bool = True
    orders: Optional[Tuple[Order, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"interleave_{self.scenario.name}"
        if self.orders is not None:
            self.orders = tuple(tuple(o) for o in self.orders)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "interleave",
            "interleave_format": INTERLEAVE_FORMAT_VERSION,
            "name": self.name,
            "block_start": self.block_start,
            "max_orders": self.max_orders,
            "self_check": self.self_check,
            "orders": (
                None
                if self.orders is None
                else [list(o) for o in self.orders]
            ),
            "scenario": self.scenario.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InterleaveCase":
        if data.get("kind") != "interleave":
            raise ReproError("not an interleave case (missing kind)")
        if data.get("interleave_format") != INTERLEAVE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported interleave format "
                f"{data.get('interleave_format')!r}"
            )
        orders = data.get("orders")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            block_start=int(data.get("block_start", 0)),
            max_orders=int(data.get("max_orders", 16)),
            self_check=bool(data.get("self_check", True)),
            orders=(
                None
                if orders is None
                else tuple(tuple(int(i) for i in o) for o in orders)
            ),
            name=data.get("name", ""),
        )

    def __repr__(self) -> str:
        return (
            f"InterleaveCase({self.name!r}, block_start={self.block_start}, "
            f"max_orders={self.max_orders}, "
            f"pinned={len(self.orders) if self.orders else 0})"
        )


#: A corpus case of any kind.
Case = Union[Scenario, ChaosCase, InterleaveCase]

_KINDS = {None: Scenario, "chaos": ChaosCase, "interleave": InterleaveCase}


def save_case(case: Case, directory: PathLike) -> Path:
    """Write ``<directory>/<case.name>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    path.write_text(
        json.dumps(case.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_case(path: PathLike) -> Case:
    """Read one case, of whichever kind its payload names."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ReproError(f"{path}: unknown corpus case kind {kind!r}")
    return _KINDS[kind].from_dict(data)


def iter_cases(directory: PathLike) -> Iterator[Tuple[Path, Case]]:
    """Yield ``(path, case)`` for every corpus file, in name order."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield path, load_case(path)
