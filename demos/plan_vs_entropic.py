"""
Planning mass flows: exact simplex vs entropic scaling
======================================================

Solves one seeded transport instance with both planners and shows how
the regularization strength trades plan sharpness against cost.  The
exact plan is a vertex of the transportation polytope (at most
m + n - 1 active routes); the scaled plans keep every route slightly
open and approach the exact cost as the regularization shrinks.
"""

import argparse
from pathlib import Path

import numpy as np

from branchflow import (
    SinkhornConfig,
    TransportInstance,
    cost_matrix,
    plan_cost,
    solve_exact,
    solve_sinkhorn,
)
from branchflow.io import plan_to_json
from branchflow.seeding import substream


def make_instance(seed: int, m: int, n: int) -> TransportInstance:
    sources = substream(seed, "demo-plan", "sources").uniform(-1.0, 1.0, (m, 2))
    targets = substream(seed, "demo-plan", "targets").uniform(-1.0, 1.0, (n, 2))
    p = substream(seed, "demo-plan", "p").random(m) + 0.05
    q = substream(seed, "demo-plan", "q").random(n) + 0.05
    return TransportInstance(sources, targets, p / p.sum(), q / q.sum())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None, help="write the exact plan as JSON")
    args = ap.parse_args()

    instance = make_instance(args.seed, 8, 12)
    c = cost_matrix(instance)

    # the exact baseline: sparse, optimal
    exact = solve_exact(instance, c)
    base = plan_cost(exact, c)
    active = int((exact.gamma > 0).sum())
    print(f"instance: {instance.n_sources} sources, {instance.n_targets} targets")
    print(f"exact plan: cost {base:.6f}, {active} active routes "
          f"(bound {instance.n_sources + instance.n_targets - 1})")

    # sweep the regularization: cost gap closes, plans sharpen
    print("\n  reg      cost      gap      iterations")
    for reg in (0.5, 0.1, 0.05, 0.01, 0.005):
        res = solve_sinkhorn(instance, c, SinkhornConfig(reg=reg))
        cost = plan_cost(res.plan, c)
        gap = (cost - base) / base
        print(f"  {reg:<8g} {cost:.6f}  {gap:8.3%}  {res.n_iter}")

    if args.out is not None:
        args.out.write_text(plan_to_json(instance, exact, base), encoding="utf-8")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
