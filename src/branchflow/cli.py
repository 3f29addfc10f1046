"""Command-line interface: parse arguments, call the library, write files.

Subcommands: ``ot`` (plan one instance), ``branch`` (one-to-many build),
``net`` (plan-then-branch forest), ``dual`` (paired artery/vein trees),
``santa`` (geographic hierarchy from a cities CSV), ``render`` (network
JSON to SVG/GeoJSON).  Exit codes: 0 success, 2 bad input or parameters,
3 solver non-convergence, 4 structurally invalid network.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .branching import build_one_to_many
from .core import (
    BotParams,
    BranchFlowError,
    ConvergenceError,
    InputError,
    ParameterError,
    StructuralError,
    bot_cost,
)
from .io import (
    load_cities_csv,
    network_from_json,
    network_to_json,
    plan_to_json,
    sample_cities_path,
)
from .ot import SinkhornConfig, cost_matrix, plan_cost, solve_exact, solve_sinkhorn
from .pipeline import (
    DEFAULT_POLE,
    NetworkResult,
    dual_network,
    santa_pipeline,
    solve_network,
    synthetic_instance,
    synthetic_problem,
)
from .render import render_geojson, render_svg

SEED_ENV = "BRANCHFLOW_SEED"
WORKERS_ENV = "BRANCHFLOW_WORKERS"


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = _env_int(SEED_ENV)
    return 0 if env is None else env


def _resolve_workers(value):
    if value is not None:
        return int(value)
    return _env_int(WORKERS_ENV)


# ---------------------------------------------------------------------------
# subcommand bodies


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _make_out_dir(path):
    """Create an output directory before any work, so an unusable path fails at once."""
    if path is not None:
        path.mkdir(parents=True, exist_ok=True)


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


def _sinkhorn_config(args: argparse.Namespace) -> SinkhornConfig:
    return SinkhornConfig(reg=args.reg, tol=args.tol, max_iter=args.max_iter)


def _cmd_ot(args: argparse.Namespace) -> int:
    instance = synthetic_instance(args.seed, args.n_sources, args.n_targets)
    c = cost_matrix(instance)
    if args.ot_mode == "exact":
        plan = solve_exact(instance, c)
        print(f"ot cost {plan_cost(plan, c)!r} (exact)")
    else:
        res = solve_sinkhorn(instance, c, _sinkhorn_config(args))
        plan = res.plan
        print(f"ot cost {plan_cost(plan, c)!r} (sinkhorn)")
        print(f"iterations {res.n_iter} converged {res.converged} "
              f"marginal error {res.marginal_error!r}")
    if args.out is not None:
        _write_text(args.out, plan_to_json(instance, plan))
        print(f"wrote {args.out}")
    return 0


def _cmd_branch(args: argparse.Namespace) -> int:
    params = BotParams(alpha=args.alpha, formula=args.formula, shift_norm=args.shift_norm,
                       shift_delta=args.shift_delta, seed=args.seed)
    result = build_one_to_many(synthetic_problem(args.seed, args.n_targets, args.d), params)
    n_branch = int(np.sum(result.tree.kind == "branch"))
    print(f"star cost {float(result.trace[0])!r}")
    print(f"tree cost {float(result.trace[-1])!r}")
    print(f"branches {n_branch} candidate evals {result.candidate_evals}")
    if args.out is not None:
        _write_text(args.out, network_to_json(result.tree, args.alpha))
        print(f"wrote {args.out}")
    if args.trace is not None:
        rows = "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(result.trace))
        _write_text(args.trace, "iter,cost\n" + rows)
        print(f"wrote {args.trace}")
    return 0


def _forest_manifest(result: NetworkResult, args: argparse.Namespace, files) -> dict:
    rep = result.report
    return {
        "trees": [
            {"file": name, "source": src, "star_cost": star, "bot_cost": bot}
            for name, (src, star, bot) in zip(files, rep.per_source)
        ],
        "alpha": args.alpha,
        "formula": args.formula,
        "seed": args.seed,
        "ot_mode": rep.ot_mode,
        "threshold": rep.threshold,
        "ot_cost": rep.ot_cost,
        "star_cost": rep.star_cost,
        "bot_cost": rep.bot_cost,
    }


def _cmd_net(args: argparse.Namespace) -> int:
    _make_out_dir(args.out)
    result = solve_network(
        synthetic_instance(args.seed, args.n_sources, args.n_targets),
        BotParams(alpha=args.alpha, formula=args.formula, seed=args.seed),
        args.ot_mode,
        _sinkhorn_config(args),
        threshold=args.threshold,
    )
    rep = result.report
    print(f"ot cost {rep.ot_cost!r} ({rep.ot_mode})")
    print(f"star cost {rep.star_cost!r} (alpha {args.alpha!r})")
    print(f"bot cost {rep.bot_cost!r}")
    print(f"trees {len(result.trees)}")
    if args.out is not None:
        files = [f"tree_{k:04d}.json" for k in range(len(result.trees))]
        for name, tree in zip(files, result.trees):
            _write_text(args.out / name, network_to_json(tree, args.alpha))
        _write_text(args.out / "manifest.json", _json_text(_forest_manifest(result, args, files)))
        print(f"wrote {args.out / 'manifest.json'}")
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    _make_out_dir(args.out)
    params = BotParams(alpha=args.alpha, formula=args.formula, shift_norm=args.shift_norm,
                       shift_delta=args.shift_delta, seed=args.seed)
    artery, vein = dual_network(synthetic_problem(args.seed, args.n_targets, args.d), params)
    print(f"artery cost {bot_cost(artery, args.alpha)!r}")
    print(f"vein cost {bot_cost(vein, args.alpha)!r}")
    if args.out is not None:
        _write_text(args.out / "artery.json", network_to_json(artery, args.alpha))
        _write_text(args.out / "vein.json", network_to_json(vein, args.alpha))
        print(f"wrote {args.out / 'artery.json'} and {args.out / 'vein.json'}")
    return 0


def _cmd_santa(args: argparse.Namespace) -> int:
    _make_out_dir(args.out)
    path = args.cities if args.cities is not None else sample_cities_path()
    report = load_cities_csv(path)
    print(report.summary())
    if not report.cities:
        raise InputError(f"{path} contains no loadable cities")
    params = BotParams(alpha=args.alpha, formula=args.formula, seed=args.seed)
    network = santa_pipeline(
        report.cities, (args.pole_lat, args.pole_lon), params, workers=args.workers
    )
    entries = list(network.all_trees())
    costs = [bot_cost(tree, args.alpha) for _, _, tree in entries]
    print(f"countries {len(network.countries)} trees {network.n_trees}")
    print(f"total cost {sum(costs)!r}")
    if args.out is not None:
        files = [f"tree_{k:04d}.json" for k in range(len(entries))]
        manifest_trees = []
        for name, (level, label, tree), cost in zip(files, entries, costs):
            _write_text(args.out / name, network_to_json(tree, args.alpha, cost))
            manifest_trees.append(
                {"file": name, "level": level, "label": label,
                 "cost": cost, "n_nodes": tree.n_nodes}
            )
        manifest = {
            "levels": ["global", "country", "regional"],
            "pole": [network.pole[0], network.pole[1]],
            "alpha": args.alpha,
            "formula": args.formula,
            "seed": args.seed,
            "share_rule": "population-proportional",
            "n_cities": len(report.cities),
            "countries": list(network.countries),
            "trees": manifest_trees,
        }
        _write_text(args.out / "manifest.json", _json_text(manifest))
        geo = render_geojson(
            [tree for _, _, tree in entries], [level for level, _, _ in entries]
        )
        _write_text(args.out / "network.geojson", geo)
        print(f"wrote {args.out / 'manifest.json'} and {args.out / 'network.geojson'}")
    return 0


def _load_forest(path: Path):
    """Read one network JSON file, or a directory of them (manifest-aware)."""
    import json as _json

    if path.is_dir():
        manifest = path / "manifest.json"
        if manifest.is_file():
            try:
                doc = _json.loads(manifest.read_text(encoding="utf-8"))
                # KeyError/TypeError: no "trees" list, or an entry without a "file" name
                entries = [(path / item["file"], item.get("level")) for item in doc["trees"]]
            except (OSError, _json.JSONDecodeError, KeyError, TypeError) as exc:
                raise InputError(f"cannot read manifest {manifest}: {exc!r}") from None
        else:
            names = sorted(p for p in path.glob("*.json"))
            if not names:
                raise InputError(f"{path} contains no network JSON files")
            entries = [(p, None) for p in names]
    elif path.is_file():
        entries = [(path, None)]
    else:
        raise InputError(f"{path} does not exist")

    trees, levels = [], []
    for k, (file, level) in enumerate(entries):
        try:
            text = file.read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {file}: {exc}") from None
        doc = network_from_json(text)
        trees.append(doc.tree)
        levels.append(level if level is not None else k)
    return trees, levels


def _cmd_render(args: argparse.Namespace) -> int:
    if args.svg is None and args.geojson is None:
        raise ParameterError("render needs --svg and/or --geojson output paths")
    trees, levels = _load_forest(args.input)
    if args.svg is not None:
        _write_text(args.svg, render_svg(trees, alpha=args.alpha))
        print(f"wrote {args.svg}")
    if args.geojson is not None:
        _write_text(args.geojson, render_geojson(trees, levels))
        print(f"wrote {args.geojson}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, *, alpha: float):
    sub.add_argument("--seed", type=int, default=None,
                     help=f"random seed (default: ${SEED_ENV} or 0)")
    sub.add_argument("--alpha", type=float, default=alpha,
                     help=f"cost exponent in [0, 1] (default {alpha})")
    sub.add_argument("--formula", choices=("interp", "power"), default="interp",
                     help="branch-point rule (default interp)")


def _add_sinkhorn(sub):
    sub.add_argument("--ot-mode", choices=("exact", "sinkhorn"), default="exact",
                     help="planning solver (default exact)")
    sub.add_argument("--lambda", dest="reg", type=float, default=0.01,
                     help="entropic regularization strength (default 0.01)")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="marginal L1 convergence threshold (default 1e-9)")
    sub.add_argument("--max-iter", type=int, default=100_000,
                     help="scaling iteration cap (default 100000)")
    sub.add_argument("--threshold", type=float, default=None,
                     help="drop plan entries at or below this before branching "
                          "(default 0 exact, 1e-8 sinkhorn)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Branched transport networks: plan mass flows, then "
                    "merge them into trees with cheap shared trunks.",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)

    ot = commands.add_parser("ot", help="solve one seeded transport instance")
    _add_common(ot, alpha=1.0)
    _add_sinkhorn(ot)
    ot.add_argument("--n-sources", type=int, default=3)
    ot.add_argument("--n-targets", type=int, default=4)
    ot.add_argument("--out", type=Path, default=None, help="write the plan as JSON")

    br = commands.add_parser("branch", help="build one one-to-many tree")
    _add_common(br, alpha=0.5)
    br.add_argument("--n-targets", type=int, default=100)
    br.add_argument("--d", type=int, choices=(2, 3), default=2,
                    help="ambient dimension (default 2)")
    br.add_argument("--shift-norm", type=float, default=0.0)
    br.add_argument("--shift-delta", type=float, default=0.01)
    br.add_argument("--out", type=Path, default=None, help="write the tree as network JSON")
    br.add_argument("--trace", type=Path, default=None, help="write iter,cost CSV")

    net = commands.add_parser("net", help="plan an instance, then branch every source")
    _add_common(net, alpha=0.25)
    _add_sinkhorn(net)
    net.add_argument("--n-sources", type=int, default=50)
    net.add_argument("--n-targets", type=int, default=1000)
    net.add_argument("--out", type=Path, default=None,
                     help="directory for tree_*.json and manifest.json")

    dual = commands.add_parser("dual", help="build paired artery/vein trees")
    _add_common(dual, alpha=0.5)
    dual.add_argument("--n-targets", type=int, default=200)
    dual.add_argument("--d", type=int, choices=(2, 3), default=2)
    dual.add_argument("--shift-norm", type=float, default=0.01)
    dual.add_argument("--shift-delta", type=float, default=0.01)
    dual.add_argument("--out", type=Path, default=None,
                      help="directory for artery.json and vein.json")

    santa = commands.add_parser("santa", help="geographic hierarchy from a cities CSV")
    _add_common(santa, alpha=0.5)
    santa.add_argument("--cities", type=Path, default=None,
                       help="cities CSV (default: bundled 1000-city sample)")
    santa.add_argument("--pole-lat", type=float, default=DEFAULT_POLE[0])
    santa.add_argument("--pole-lon", type=float, default=DEFAULT_POLE[1])
    santa.add_argument("--workers", type=int, default=None,
                       help=f"country-level parallelism (default: ${WORKERS_ENV} or serial)")
    santa.add_argument("--out", type=Path, default=None,
                       help="directory for tree files, manifest.json, network.geojson")

    render = commands.add_parser("render", help="draw network JSON as SVG or GeoJSON")
    render.add_argument("input", type=Path,
                        help="a network JSON file or a directory of them")
    render.add_argument("--alpha", type=float, default=0.5,
                        help="stroke-width exponent for SVG (default 0.5)")
    render.add_argument("--svg", type=Path, default=None)
    render.add_argument("--geojson", type=Path, default=None)
    return parser


_COMMANDS = {"ot": _cmd_ot, "branch": _cmd_branch, "net": _cmd_net,
             "dual": _cmd_dual, "santa": _cmd_santa, "render": _cmd_render}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _resolve_seed(getattr(args, "seed", None))
        if hasattr(args, "workers"):
            args.workers = _resolve_workers(args.workers)
        return _COMMANDS[args.subcommand](args)
    except (BranchFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            return 3
        if isinstance(exc, StructuralError):
            return 4
        return 2


if __name__ == "__main__":
    sys.exit(main())
