"""Command-line interface: parse arguments, call the library, write files.

Subcommands: ``ot`` (plan one instance), ``branch`` (one-to-many build),
``net`` (plan-then-branch forest), ``dual`` (paired artery/vein trees),
``santa`` (geographic hierarchy from a cities CSV), ``render`` (network
JSON to SVG/GeoJSON).  Exit codes: 0 success, 2 bad input or parameters,
3 solver non-convergence, 4 structurally invalid network.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np

from .branching import build_one_to_many
from .core import (
    FORMULAS,
    BotParams,
    BranchFlowError,
    ConvergenceError,
    InputError,
    ParameterError,
    StructuralError,
    bot_cost,
)
from .io import (
    _read_networks,
    load_cities_csv,
    network_to_json,
    plan_to_json,
    sample_cities_path,
)
from .ot import SinkhornConfig
from .pipeline import (
    DEFAULT_POLE,
    OT_MODES,
    _plan,
    dual_network,
    santa_pipeline,
    solve_network,
    synthetic_instance,
    synthetic_problem,
)
from .render import _geojson_chunks, _svg_chunks

SEED_ENV = "BRANCHFLOW_SEED"


def _resolve_seed(value) -> int:
    """The ``--seed`` value, else the environment variable's, else 0."""
    raw = os.environ.get(SEED_ENV, "0") if value is None else value
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {SEED_ENV} must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# subcommand bodies


def _write_text(path: Path, text):
    """Write a str, or an iterable of str pieces, to a file that ends with a newline.

    The first piece is made before the file is opened and a later failure
    removes the file, so that an error leaves no partial file.
    """
    pieces = iter((text,) if isinstance(text, str) else text)
    last = next(pieces, "")
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(last)
            for last in filter(None, pieces):
                fh.write(last)
            if not last.endswith("\n"):
                fh.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _make_out_dir(cmd):
    """``cmd`` with its ``--out`` directory created before any work, so an
    unusable path fails at once.

    If the command fails, each directory this created that is still empty
    is removed, deepest first.  One that existed before stays, and so does
    one that holds files.
    """
    @functools.wraps(cmd)
    def run(args: argparse.Namespace) -> int:
        if args.out is None:
            return cmd(args)
        made = list(takewhile(lambda d: not d.exists(), (args.out, *args.out.parents)))
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            return cmd(args)
        except BaseException:
            for path in made:
                with contextlib.suppress(OSError):   # not empty, or not made
                    path.rmdir()
            raise
    return run


def _from_args(cls, args: argparse.Namespace):
    """A ``BotParams`` or ``SinkhornConfig`` from the options of its fields' names."""
    return cls(**{name: getattr(args, name) for name in cls.__dataclass_fields__ if name in args})


def _cmd_ot(args: argparse.Namespace) -> int:
    cfg = _from_args(SinkhornConfig, args)
    instance = synthetic_instance(args.seed, args.n_sources, args.n_targets)
    plan, cost, res = _plan(instance, args.ot_mode, cfg)
    print(f"ot cost {cost!r} ({args.ot_mode})")
    if res is not None:
        print(f"iterations {res.n_iter} converged {res.converged} "
              f"marginal error {res.marginal_error!r}")
    if args.out is not None:
        _write_text(args.out, plan_to_json(instance, plan, cost))
        print(f"wrote {args.out}")
    return 0


def _cmd_branch(args: argparse.Namespace) -> int:
    params = _from_args(BotParams, args)
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


def _write_forest(out: Path, trees, alpha, costs, rows, manifest: dict):
    """Write each tree to ``tree_NNNN.json`` and a manifest listing the files.

    Each manifest entry is the file's name followed by its ``rows`` entry;
    the entries go to ``manifest["trees"]``, in that key's place if it has one.
    """
    files = [f"tree_{k:04d}.json" for k in range(len(trees))]
    for name, tree, cost in zip(files, trees, costs):
        _write_text(out / name, network_to_json(tree, alpha, cost))
    manifest["trees"] = [{"file": name, **row} for name, row in zip(files, rows)]
    _write_text(out / "manifest.json", json.dumps(manifest, separators=(",", ":")))


@_make_out_dir
def _cmd_net(args: argparse.Namespace) -> int:
    result = solve_network(
        synthetic_instance(args.seed, args.n_sources, args.n_targets),
        _from_args(BotParams, args),
        args.ot_mode,
        _from_args(SinkhornConfig, args),
        threshold=args.threshold,
    )
    rep = result.report
    print(f"ot cost {rep.ot_cost!r} ({rep.ot_mode})")
    print(f"star cost {rep.star_cost!r} (alpha {args.alpha!r})")
    print(f"bot cost {rep.bot_cost!r}")
    print(f"trees {len(result.trees)}")
    if args.out is not None:
        rows = [{"source": src, "star_cost": star, "bot_cost": bot}
                for src, star, bot in rep.per_source]
        _write_forest(args.out, result.trees, args.alpha, [r["bot_cost"] for r in rows], rows, {
            "trees": None,
            "alpha": args.alpha,
            "formula": args.formula,
            "seed": args.seed,
            **{key: getattr(rep, key)
               for key in ("ot_mode", "threshold", "ot_cost", "star_cost", "bot_cost")},
        })
        print(f"wrote {args.out / 'manifest.json'}")
    return 0


@_make_out_dir
def _cmd_dual(args: argparse.Namespace) -> int:
    params = _from_args(BotParams, args)
    artery, vein = dual_network(synthetic_problem(args.seed, args.n_targets, args.d), params)
    artery_cost, vein_cost = bot_cost(artery, args.alpha), bot_cost(vein, args.alpha)
    print(f"artery cost {artery_cost!r}")
    print(f"vein cost {vein_cost!r}")
    if args.out is not None:
        _write_text(args.out / "artery.json", network_to_json(artery, args.alpha, artery_cost))
        _write_text(args.out / "vein.json", network_to_json(vein, args.alpha, vein_cost))
        print(f"wrote {args.out / 'artery.json'} and {args.out / 'vein.json'}")
    return 0


@_make_out_dir
def _cmd_santa(args: argparse.Namespace) -> int:
    path = args.cities if args.cities is not None else sample_cities_path()
    report = load_cities_csv(path)
    print(report.summary())
    if not report.cities:
        raise InputError(f"{path} contains no loadable cities")
    params = _from_args(BotParams, args)
    network = santa_pipeline(report.cities, (args.pole_lat, args.pole_lon), params)
    entries = list(network.all_trees())
    trees = [tree for _, _, tree in entries]
    costs = [bot_cost(tree, args.alpha) for tree in trees]
    print(f"countries {len(network.countries)} trees {network.n_trees}")
    # in order, as solve_network sums its totals: sum() compensates from Python 3.12 on
    print(f"total cost {float(np.cumsum(costs)[-1])!r}")
    if args.out is not None:
        rows = [{"level": level, "label": label, "cost": cost, "n_nodes": tree.n_nodes}
                for (level, label, tree), cost in zip(entries, costs)]
        _write_forest(args.out, trees, args.alpha, costs, rows, {
            "levels": ["global", "country", "regional"],
            "pole": [network.pole[0], network.pole[1]],
            "alpha": args.alpha,
            "formula": args.formula,
            "seed": args.seed,
            "share_rule": "population-proportional",
            "n_cities": len(report.cities),
            "countries": list(network.countries),
        })
        _write_text(args.out / "network.geojson",
                    _geojson_chunks(trees, [level for level, _, _ in entries]))
        print(f"wrote {args.out / 'manifest.json'} and {args.out / 'network.geojson'}")
    return 0


def _load_forest(path: Path):
    """Read one network JSON file, or a directory of them (manifest-aware)."""
    if path.is_dir():
        manifest = path / "manifest.json"
        if manifest.is_file():
            try:
                doc = json.loads(manifest.read_text(encoding="utf-8"))
                # KeyError/TypeError: no "trees" list, or an entry without a "file" name
                entries = [(path / item["file"], item.get("level")) for item in doc["trees"]]
            except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError,
                    TypeError) as exc:
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

    def texts():
        for file, _ in entries:
            try:
                yield file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read {file}: {exc}") from None

    levels = [k if level is None else level for k, (_, level) in enumerate(entries)]
    return [doc.tree for doc in _read_networks(texts())], levels


def _cmd_render(args: argparse.Namespace) -> int:
    if args.svg is None and args.geojson is None:
        raise ParameterError("render needs --svg and/or --geojson output paths")
    trees, levels = _load_forest(args.input)
    if args.svg is not None:
        _write_text(args.svg, _svg_chunks(trees, args.alpha))
        print(f"wrote {args.svg}")
    if args.geojson is not None:
        _write_text(args.geojson, _geojson_chunks(trees, levels))
        print(f"wrote {args.geojson}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help=f"random seed (default: ${SEED_ENV} or 0)")


def _add_common(sub, *, alpha: float):
    _add_seed(sub)
    sub.add_argument("--alpha", type=float, default=alpha,
                     help=f"cost exponent in [0, 1] (default {alpha})")
    sub.add_argument("--formula", choices=FORMULAS, default=BotParams.formula,
                     help=f"branch-point rule (default {BotParams.formula})")


def _add_sinkhorn(sub):
    sub.add_argument("--ot-mode", choices=OT_MODES, default="exact",
                     help="planning solver (default exact)")
    sub.add_argument("--lambda", dest="reg", type=float, default=SinkhornConfig.reg,
                     help=f"entropic regularization strength (default {SinkhornConfig.reg})")
    tol = np.format_float_scientific(SinkhornConfig.tol, trim="-", exp_digits=1)
    sub.add_argument("--tol", type=float, default=SinkhornConfig.tol,
                     help=f"marginal L1 convergence threshold (default {tol})")
    sub.add_argument("--max-iter", type=int, default=SinkhornConfig.max_iter,
                     help=f"scaling iteration cap (default {SinkhornConfig.max_iter})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Branched transport networks: plan mass flows, then "
                    "merge them into trees with cheap shared trunks.",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)

    ot = commands.add_parser("ot", help="solve one seeded transport instance")
    _add_seed(ot)
    _add_sinkhorn(ot)
    ot.add_argument("--n-sources", type=int, default=3)
    ot.add_argument("--n-targets", type=int, default=4)
    ot.add_argument("--out", type=Path, default=None, help="write the plan as JSON")

    br = commands.add_parser("branch", help="build one one-to-many tree")
    _add_common(br, alpha=0.5)
    br.add_argument("--n-targets", type=int, default=100)
    br.add_argument("--d", type=int, choices=(2, 3), default=2,
                    help="ambient dimension (default 2)")
    br.add_argument("--shift-norm", type=float, default=BotParams.shift_norm)
    br.add_argument("--shift-delta", type=float, default=BotParams.shift_delta)
    br.add_argument("--out", type=Path, default=None, help="write the tree as network JSON")
    br.add_argument("--trace", type=Path, default=None, help="write iter,cost CSV")

    net = commands.add_parser("net", help="plan an instance, then branch every source")
    _add_common(net, alpha=0.25)
    _add_sinkhorn(net)
    net.add_argument("--threshold", type=float, default=None,
                     help="drop plan entries at or below this before branching "
                          "(default 0 exact, 1e-8 sinkhorn)")
    net.add_argument("--n-sources", type=int, default=50)
    net.add_argument("--n-targets", type=int, default=1000)
    net.add_argument("--out", type=Path, default=None,
                     help="directory for tree_*.json and manifest.json")

    dual = commands.add_parser("dual", help="build paired artery/vein trees")
    _add_common(dual, alpha=0.5)
    dual.add_argument("--n-targets", type=int, default=200)
    dual.add_argument("--d", type=int, choices=(2, 3), default=2)
    dual.add_argument("--shift-norm", type=float, default=0.01)
    dual.add_argument("--shift-delta", type=float, default=BotParams.shift_delta)
    dual.add_argument("--out", type=Path, default=None,
                      help="directory for artery.json and vein.json")

    santa = commands.add_parser("santa", help="geographic hierarchy from a cities CSV")
    _add_common(santa, alpha=0.5)
    santa.add_argument("--cities", type=Path, default=None,
                       help="cities CSV (default: bundled 1000-city sample)")
    santa.add_argument("--pole-lat", type=float, default=DEFAULT_POLE[0])
    santa.add_argument("--pole-lon", type=float, default=DEFAULT_POLE[1])
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
        if "seed" in args:   # render takes no seed
            args.seed = _resolve_seed(args.seed)
        return _COMMANDS[args.subcommand](args)
    except (BranchFlowError, OSError, MemoryError) as exc:   # MemoryError: sizes too large
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            return 3
        if isinstance(exc, StructuralError):
            return 4
        return 2


if __name__ == "__main__":
    sys.exit(main())
