#!/usr/bin/env python3
"""Regenerate ``golden/<workload>.json`` and cross-check it once.

    python3 benchmarks/ledger/golden/make_golden.py [--workload W] [--mode full|quick]

For the default seed, each workload runs one round in this process and its
digests are recorded:

* ``input_digest`` — blake2b over the generated inputs (trace bytes /
  block and batch lists / query list).  A change to ``repro.fibgen``,
  ``network.generators`` or ``routing.openr`` that silently alters a
  workload then fails every run instead of moving its numbers.
* ``output_digest`` — blake2b over the verdict sequence and the canonical
  final model (sorted ``(sat_count, action map)`` pairs per subspace).

Before anything is written the final model is cross-checked, exactly, with
an engine that shares no code with Fast IMT: ``DeltaNetVerifier`` replays
the same updates into interval atoms, and its atoms grouped by behaviour
vector must give the same ``(count, action map)`` rows.  Where the system
reported "no loop" for a freshly synchronised epoch (``storm``,
``epochs``), no atom's forwarding graph may contain a cycle either.  The
runs themselves then only compare digests (plus their own cheaper
sampled FIB look-ups, which also cover the seeds that have no golden).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.baselines.deltanet import DeltaNetVerifier  # noqa: E402
from repro.difftest.oracle import forwarding_cycle  # noqa: E402
from repro.results import Verdict  # noqa: E402

from benchmarks.ledger import workloads  # noqa: E402
from benchmarks.ledger.cli import DEFAULT_SEED, WORKLOAD_NAMES  # noqa: E402


def subspace_ranges(workload, views: Sequence) -> List[Tuple[int, int]]:
    """Flattened-header range [lo, hi) of each view's universe."""
    layout = workload.layout
    partition = getattr(workload, "partition", None)
    if partition is None:
        return [(0, layout.universe_size)] * len(views)
    below_dst = layout.total_bits - layout.field("dst").width
    width = layout.field("dst").width
    out = []
    for subspace in partition.subspaces:
        ((value, mask),) = subspace.match.patterns["dst"].ternaries
        size = (~mask & ((1 << width) - 1)) + 1  # a prefix: free bits are low
        out.append((value << below_dst, (value + size) << below_dst))
    return out


def deltanet_rows(workload, views, installed) -> Tuple[List[List], Dict[str, object]]:
    """Canonical model rows per view, derived from Delta-net* atoms."""
    devices = sorted(workload.topology.switches())
    net = DeltaNetVerifier(devices, workload.layout, max_intervals_per_rule=1 << 20)
    net.process_updates(installed)
    ranges = subspace_ranges(workload, views)
    counts: List[Dict[Tuple, int]] = [dict() for _ in views]
    vectors = set()
    for lo, hi, vector in net.atoms():
        vectors.add(vector)
        for i, (ulo, uhi) in enumerate(ranges):
            overlap = min(hi, uhi) - max(lo, ulo)
            if overlap > 0:
                counts[i][vector] = counts[i].get(vector, 0) + overlap
    rows = []
    for per_vector in counts:
        view_rows = [
            (count, json.dumps(sorted(
                (device, repr(action)) for device, action in zip(devices, vector)
            )))
            for vector, count in per_vector.items()
        ]
        view_rows.sort()
        rows.append(view_rows)
    looping = sum(
        1 for vector in vectors
        if forwarding_cycle(workload.topology, dict(zip(devices, vector)).__getitem__)
    )
    facts = {
        "engine": "DeltaNetVerifier",
        "atoms": net.num_atoms,
        "behaviour_vectors": len(vectors),
        "vectors_with_a_forwarding_cycle": looping,
    }
    return rows, facts


def generate(name: str, quick: bool, workdir: str) -> Dict[str, object]:
    workload = workloads.WORKLOADS[name](DEFAULT_SEED, quick, workdir)
    try:
        workload.setup()
        workload.timed()
        attempted, failed, problems = workload.verify()
        if failed:
            raise SystemExit(f"{name}: the round itself failed: {problems}")
        views, installed = workload.final_state()
        expected, facts = deltanet_rows(workload, views, installed)
        got = [workloads.canonical_model(view) for view in views]
        if got != expected:
            raise SystemExit(
                f"{name}: Fast IMT's final model differs from Delta-net*'s "
                f"({[len(g) for g in got]} vs {[len(e) for e in expected]} ECs)"
            )
        facts["model_equal"] = True
        facts["ecs"] = [len(g) for g in got]
        reports = getattr(workload, "reports", None)
        if name in ("storm", "epochs"):
            # The last epoch synchronised every device inside the timed
            # region, so Algorithm 3's "no loop" is a claim about exactly
            # the state Delta-net* holds.
            final_loops = [
                r for r in reports[-1] if type(r).__name__ == "LoopReport"
            ]
            said_loop_free = all(r.verdict is Verdict.SATISFIED for r in final_loops)
            truly_loop_free = facts["vectors_with_a_forwarding_cycle"] == 0
            if said_loop_free != truly_loop_free:
                raise SystemExit(
                    f"{name}: loop verdict {said_loop_free} but the atoms say "
                    f"{truly_loop_free}"
                )
            facts["loop_verdict_checked"] = True
        else:
            # churn/serve synchronise every device during set-up; Algorithm 3
            # starts its search only at newly synchronised devices, so the
            # per-block verdict is not a claim about later overlay rules.
            facts["loop_verdict_checked"] = False
        return {
            "seed": DEFAULT_SEED,
            "input_digest": workload.input_digest,
            "output_digest": workload.output_digest,
            "operations": attempted,
            "crosscheck": facts,
        }
    finally:
        workload.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--mode", choices=("full", "quick"))
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    modes = [args.mode] if args.mode else ["quick", "full"]
    for name in names:
        path = os.path.join(HERE, f"{name}.json")
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {}
        for mode in modes:
            with tempfile.TemporaryDirectory(dir=HERE) as workdir:
                doc[mode] = generate(name, mode == "quick", workdir)
            print(f"{name} {mode}: {json.dumps(doc[mode]['crosscheck'])}")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
