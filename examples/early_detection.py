#!/usr/bin/env python3
"""Consistent early detection under long-tail arrivals (the §4/§5.3 story).

Runs the OpenR-like routing simulation on the Internet2 backbone with:

* one switch running a buggy Decision module (wrong next hops → loop);
* one switch dampened by 60 s (the long tail).

Flash attaches to the simulation, tracks epochs, and reports the forwarding
loop consistently within milliseconds of simulated time — it never needs
the dampened switch's FIB.

Run:  python examples/early_detection.py
"""

from repro import Flash, dst_only_layout
from repro.network.generators import internet2
from repro.routing.openr import OpenRSimulation

DAMPEN_SECONDS = 60.0


def main():
    topo = internet2()
    layout = dst_only_layout(8)
    buggy = topo.id_of("kans")
    dampened = topo.id_of("seat")
    print(f"buggy switch: {topo.name_of(buggy)}; "
          f"dampened switch: {topo.name_of(dampened)} (+{DAMPEN_SECONDS:.0f}s)\n")

    sim = OpenRSimulation(
        topo,
        layout,
        buggy_nodes=[buggy],
        dampening={dampened: DAMPEN_SECONDS},
        seed=42,
    )
    flash = Flash(topo, layout, check_loops=True)
    flash.attach_to(sim)

    sim.bootstrap()
    sim.run()

    print("FIB arrival timeline (simulated seconds):")
    for batch in sim.batches:
        print(f"  t={batch.time:>7.3f}  {topo.name_of(batch.device):<5} "
              f"epoch {batch.tag[:8]}  {len(batch.updates)} rule updates")

    # Flash keeps no transcript; the first violation it ever reported is
    # the one fact it latches.
    first = flash.first_violation()
    assert first is not None, "the buggy switch should create a forwarding loop"
    print(f"\nCE2D reported a consistent LOOP at t={first.time:.3f}s "
          f"(path {[topo.name_of(d) for d in first.loop_path]})")
    print(f"waiting for the dampened switch would have taken "
          f"{DAMPEN_SECONDS:.0f}s — a "
          f"{DAMPEN_SECONDS / max(first.time, 1e-3):,.0f}x speedup, "
          "matching the Figure-9 story.")


if __name__ == "__main__":
    main()
