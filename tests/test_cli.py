"""End-to-end command-line runs via main(argv)."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import logging
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branchflow.core
import branchflow.io
from branchflow import (
    BotParams,
    FlowTree,
    ParameterError,
    SinkhornConfig,
    cli,
    geo_embed,
    network_to_json,
    render_geojson,
    render_svg,
)
from branchflow.cli import build_parser, main
from branchflow.io import network_from_json
from branchflow.render import _geojson_chunks, _svg_chunks


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def write_small_cities(path, n_per_country=8):
    rng = np.random.default_rng(3)
    rows = ["city,country,lat,lng,population"]
    for country in ("Andora", "Borland", "Cresta"):
        for k in range(n_per_country):
            lat = float(rng.uniform(-60, 70))
            lon = float(rng.uniform(-170, 170))
            pop = int(rng.integers(10_000, 5_000_000))
            rows.append(f"{country}_{k},{country},{lat!r},{lon!r},{pop}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def network_doc(kinds, coords, edges):
    """A network JSON document; ``edges`` holds (from, to, area) triples."""
    return {
        "nodes": [{"id": i, "kind": k, "coords": c} for i, (k, c) in enumerate(zip(kinds, coords))],
        "edges": [{"from": a, "to": b, "area": s} for a, b, s in edges],
        "alpha": 0.5,
        "cost": None,
    }


def write_network(path, kinds, coords, edges):
    """One network JSON file; ``edges`` holds (from, to, area) triples."""
    path.write_text(json.dumps(network_doc(kinds, coords, edges)), encoding="utf-8")
    return path


def write_dangling_branch(path):
    """A branch node with inflow but no children breaks conservation."""
    return write_network(path, ["source", "branch"], [[0.0, 0.0], [1.0, 0.0]], [(0, 1, 0.5)])


def test_cli_defines_no_public_callable_but_main_and_build_parser():
    own = {
        name for name, value in vars(cli).items()
        if callable(value) and not name.startswith("_") and value.__module__ == cli.__name__
    }
    assert own == {"main", "build_parser"}


# ---------------------------------------------------------------------------
# parser defaults


def test_parser_defaults_net():
    args = build_parser().parse_args(["net"])
    assert args.n_sources == 50
    assert args.n_targets == 1000
    assert args.alpha == 0.25
    assert args.ot_mode == "exact"
    assert args.reg == 0.01


def test_parser_defaults_dual():
    args = build_parser().parse_args(["dual"])
    assert args.n_targets == 200
    assert args.alpha == 0.5
    assert args.shift_norm == 0.01
    assert args.shift_delta == 0.01


def test_parser_defaults_are_the_dataclass_defaults():
    # --alpha differs per subcommand, as does dual's --shift-norm, on
    # purpose; --seed falls back to the environment
    checked = set()
    for command in ("ot", "branch", "net", "dual", "santa", "render"):
        args = build_parser().parse_args([command, "in.json"] if command == "render" else [command])
        for cls in (BotParams, SinkhornConfig):
            for field in dataclasses.fields(cls):
                if field.name in args and field.name not in ("alpha", "seed") and not (
                        command == "dual" and field.name == "shift_norm"):
                    assert getattr(args, field.name) == field.default, (command, field.name)
                    checked.add(field.name)
    assert checked == {"formula", "shift_norm", "shift_delta", "reg", "tol", "max_iter"}


def test_parser_defaults_ot(capsys):
    args = build_parser().parse_args(["ot"])
    assert args.n_sources == 3
    assert args.n_targets == 4
    assert not {"alpha", "formula", "threshold"} & set(vars(args))
    # ot plans only: nothing reads a tree option there, so argparse refuses one
    for option in (["--alpha", "0.5"], ["--formula", "power"], ["--threshold", "0"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["ot"] + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert build_parser().parse_args(["net", "--threshold", "0"]).threshold == 0.0


# ---------------------------------------------------------------------------
# exit codes


def test_ot_smoke_exit_zero(capsys):
    assert main(["ot", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ot cost" in out
    assert "(exact)" in out


def test_bad_alpha_exits_two(capsys):
    assert main(["branch", "--alpha", "2.0", "--n-targets", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_cities_csv_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["santa", "--cities", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sinkhorn_underflow_exits_three(capsys):
    code = main(["ot", "--ot-mode", "sinkhorn", "--lambda", "1e-9", "--seed", "0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_invalid_network_render_exits_four(tmp_path, capsys):
    bad = write_dangling_branch(tmp_path / "bad.json")
    code = main(["render", str(bad), "--svg", str(tmp_path / "out.svg")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


# one case per exception family main() maps to an exit code; "{tmp}" is the test directory
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["branch", "--alpha", "2.0", "--n-targets", "5"], 2,
         "alpha must lie in [0, 1], got 2.0"),
        (["branch", "--shift-norm", "nan", "--n-targets", "5"], 2,
         "shift_norm must be finite and nonnegative"),
        (["santa", "--cities", "{tmp}/nope.csv"], 2,
         "cannot read {tmp}/nope.csv: [Errno 2] No such file or directory"),
        (["render", "{tmp}/nope.json", "--svg", "{tmp}/out.svg"], 2,
         "{tmp}/nope.json does not exist"),
        (["ot", "--ot-mode", "sinkhorn", "--lambda", "1e-9"], 3,
         "scaling kernel underflowed to zero rows/columns; increase reg"),
        (["ot", "--ot-mode", "sinkhorn", "--lambda", "1e-320"], 3,
         "scaling kernel underflowed to zero rows/columns; increase reg"),
        (["net", "--ot-mode", "sinkhorn", "--lambda", "1e-320", "--n-sources", "3",
          "--n-targets", "5"], 3,
         "scaling kernel underflowed to zero rows/columns; increase reg"),
        (["render", "{tmp}/bad.json", "--svg", "{tmp}/out.svg"], 4,
         "invalid flow tree: node 1 carries 0.5 but sends 0.0"),
        (["net", "--n-sources", "3", "--n-targets", "5", "--out", "{tmp}/exists.txt"], 2,
         "[Errno 17] File exists: '{tmp}/exists.txt'"),
        (["net", "--n-sources", "-1"], 2, "n_sources must be at least 1, got -1"),
        (["net", "--n-sources", "0"], 2, "n_sources must be at least 1, got 0"),
        (["branch", "--n-targets", "-5"], 2, "n_targets must be at least 1, got -5"),
        (["ot", "--n-targets", "-2"], 2, "n_targets must be at least 1, got -2"),
        (["dual", "--n-targets", "-1"], 2, "n_targets must be at least 1, got -1"),
        (["santa", "--cities", "{tmp}/latin1.csv"], 2,
         "cannot read {tmp}/latin1.csv: 'utf-8' codec can't decode byte 0xfc"),
        (["santa", "--cities", "{tmp}/long.csv"], 2,
         "cannot read {tmp}/long.csv: field larger than field limit (131072)"),
        (["render", "{tmp}/latin1.json", "--svg", "{tmp}/out.svg"], 2,
         "cannot read {tmp}/latin1.json: 'utf-8' codec can't decode byte 0xfc"),
        (["render", "{tmp}/forest", "--svg", "{tmp}/out.svg"], 2,
         "cannot read manifest {tmp}/forest/manifest.json: UnicodeDecodeError('utf-8'"),
        (["net", "--n-sources", "3", "--n-targets", "5", "--threshold", "1"], 2,
         "threshold 1.0 drops every plan entry; the largest is 0.29872"),
        (["net", "--n-sources", "3", "--n-targets", "5", "--threshold", "1",
          "--ot-mode", "sinkhorn"], 2,
         "threshold 1.0 drops every plan entry; the largest is 0.29872"),
        (["render", "{tmp}/wide.json", "--svg", "{tmp}/out.svg"], 2,
         "coordinates too large to draw: the drawing box overflows"),
        (["render", "{tmp}/source-outflow.json", "--svg", "{tmp}/out.svg"], 2,
         "area contains non-finite entries"),
        (["render", "{tmp}/branch-outflow.json", "--svg", "{tmp}/out.svg"], 4,
         "invalid flow tree: node 1 carries 1e+308 but sends inf (residual -inf)"),
        (["render", "{tmp}/deep.json", "--svg", "{tmp}/out.svg"], 2,
         "not valid JSON: maximum recursion depth exceeded"),
        (["render", "{tmp}/deep", "--svg", "{tmp}/out.svg"], 2,
         "cannot read manifest {tmp}/deep/manifest.json: RecursionError('maximum recursion depth"),
        (["ot", "--n-targets", "4611686018427387904"], 2,
         "n_targets must be at most 144115188075855871, got 4611686018427387904"),
        (["ot", "--n-targets", "1125899906842624"], 2, "Unable to allocate 16.0 PiB"),
        (["santa", "--cities", "{tmp}/huge.csv"], 2, "the total population must be finite"),
        (["santa", "--cities", "{tmp}/far.csv"], 2,
         "weights times squared distances overflow the float range"),
        (["santa", "--cities", "{tmp}/tiny-city.csv"], 2,
         "the population share of city 'B' in 'X' underflows to 0"),
        (["santa", "--cities", "{tmp}/tiny-region.csv"], 2,
         "the population share of the region of city 'B' in 'X' underflows to 0"),
        (["santa", "--cities", "{tmp}/tiny-country.csv"], 2,
         "the population share of country 'Y' underflows to 0"),
    ],
    ids=["parameter", "nan-parameter", "input", "render-missing", "convergence",
         "ot-subnormal-lambda", "net-subnormal-lambda", "structural", "os",
         "net-negative-sources", "net-zero-sources", "branch-negative-targets",
         "ot-negative-targets", "dual-negative-targets", "latin1-cities", "long-field-cities",
         "latin1-tree", "latin1-manifest", "net-threshold-exact", "net-threshold-sinkhorn",
         "svg-box-overflow", "source-outflow-overflow", "branch-outflow-overflow",
         "deep-tree", "deep-manifest", "ot-huge-count", "ot-unallocatable-count",
         "huge-total-population", "kmeans-overflow", "tiny-city-share", "tiny-region-share",
         "tiny-country-share"],
)
def test_errors_map_to_exit_codes(tmp_path, capsys, argv, code, message):
    write_dangling_branch(tmp_path / "bad.json")
    (tmp_path / "exists.txt").write_text("a regular file\n", encoding="utf-8")
    header = "city,country,lat,lng,population\n"
    (tmp_path / "latin1.csv").write_bytes((header + "Z\u00fcrich,CH,47.4,8.5,400000\n").encode("latin-1"))
    (tmp_path / "long.csv").write_text(header + "A,X,1.0,2.0," + "1" * 131073 + "\n",
                                       encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"nodes":[{"kind":"s\u00fc"}]}'.encode("latin-1"))
    (tmp_path / "forest").mkdir()
    (tmp_path / "forest" / "manifest.json").write_bytes('{"trees":["\u00fc"]}'.encode("latin-1"))
    # a drawing box, a source's outflow and a branch node's outflow past the float range
    write_network(tmp_path / "wide.json", ["source", "target"],
                  [[-1e308, 0.0], [1e308, 0.0]], [(0, 1, 1.0)])
    write_network(tmp_path / "source-outflow.json", ["source", "target", "target"],
                  [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 1e308), (0, 2, 1e308)])
    write_network(tmp_path / "branch-outflow.json", ["source", "branch", "target", "target"],
                  [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0]],
                  [(0, 1, 1e308), (1, 2, 1e308), (1, 3, 1e308)])
    # JSON nested past the recursion limit, as a tree file and as a manifest's "trees"
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    (tmp_path / "deep").mkdir()
    (tmp_path / "deep" / "manifest.json").write_text(
        '{"trees":' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
    # populations whose sum, or whose K-means weighted squared distances, pass the float range
    (tmp_path / "huge.csv").write_text(header + "A,X,10,20,1e308\nB,X,-10,-160,1e308\n",
                                       encoding="utf-8")
    (tmp_path / "far.csv").write_text(header + "A,X,10,20,8e307\nB,X,-10,-160,8e307\n",
                                      encoding="utf-8")
    # a population share that underflows to 0: of a city in its region, of a
    # region in its country, of a country in the world
    for name, rows in [("tiny-city", "A,X,10,20,8e307\nB,X,10.001,20,1e-320\nC,X,-10,-160,1\n"),
                       ("tiny-region", "A,X,10,20,8e307\nB,X,-10,-160,1e-320\n"),
                       ("tiny-country", "A,X,10,20,8e307\nB,Y,-10,-160,1e-320\n")]:
        (tmp_path / f"{name}.csv").write_text(header + rows, encoding="utf-8")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1
    assert not (tmp_path / "out.svg").exists()


# every numeric flag of the solving commands, each on a small run of its command
_SMALL_RUNS = [
    (["ot", "--n-sources", "3", "--n-targets", "4"],
     ["--seed", "--lambda", "--tol", "--max-iter", "--n-sources", "--n-targets"]),
    (["branch", "--n-targets", "6"],
     ["--seed", "--alpha", "--n-targets", "--d", "--shift-norm", "--shift-delta"]),
    (["net", "--n-sources", "3", "--n-targets", "8"],
     ["--seed", "--alpha", "--lambda", "--tol", "--max-iter", "--threshold", "--n-sources",
      "--n-targets"]),
    (["dual", "--n-targets", "6"],
     ["--seed", "--alpha", "--n-targets", "--d", "--shift-norm", "--shift-delta"]),
    (["santa"], ["--seed", "--alpha", "--pole-lat", "--pole-lon"]),
]
_MODES = {"ot": ["exact", "sinkhorn"], "net": ["exact", "sinkhorn"]}
# the last three: past int64, past numpy's array size limit, and 16 PiB of float pairs
_BOUNDARY_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "1e-320",
                    "99999999999999999999", "4611686018427387904", "1125899906842624"]
_BOUNDARY_CASES = [
    pytest.param(base + (["--ot-mode", mode] if mode else []) + [flag, value],
                 id="-".join(filter(None, [base[0], mode])) + f"{flag}={value}")
    for base, flags in _SMALL_RUNS
    for mode in _MODES.get(base[0], [None])
    for flag in flags
    for value in _BOUNDARY_VALUES
]


@pytest.mark.parametrize("argv", _BOUNDARY_CASES)
def test_numeric_flags_at_boundary_values_end_cleanly(capsys, argv):
    """Each value either runs or is refused with one error line and exit
    2, 3 or 4: no traceback and no numpy warning (the suite makes a
    RuntimeWarning an error)."""
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's refusal: usage lines, then one error line
        err = capsys.readouterr().err
        assert exc.code == 2
        assert err.splitlines()[-1].startswith(f"branchflow {argv[0]}: error: ")
        assert err.count("error:") == 1
        return
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command, norm", [("branch", "1e200"), ("dual", "1e308")])
def test_huge_shift_builds_the_star_without_warnings(capsys, command, norm):
    """A branch point shifted that far overflows and cannot pay: no merge,
    and no numpy warning on the way."""
    assert main([command, "--shift-norm", norm, "--n-targets", "20"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "branch":
        assert "branches 0 " in out


def test_net_sinkhorn_infinite_tol_exits_two(capsys):
    argv = ["net", "--ot-mode", "sinkhorn", "--tol", "inf", "--n-sources", "3", "--n-targets", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: tol must be positive and finite, got inf\n"


@pytest.mark.parametrize("mode", ["exact", "sinkhorn"])
@pytest.mark.parametrize("option, message", [
    (["--tol", "nan"], "tol must be positive and finite, got nan"),
    (["--tol", "inf"], "tol must be positive and finite, got inf"),
    (["--lambda", "0"], "reg must be positive, got 0.0"),
], ids=["tol-nan", "tol-inf", "lambda-zero"])
def test_ot_rejects_bad_sinkhorn_options_in_either_mode(capsys, mode, option, message):
    # checked before the mode branch, as net checks them
    assert main(["ot", "--ot-mode", mode, "--n-sources", "3", "--n-targets", "5"] + option) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["net", "--n-sources", "3", "--n-targets", "5"],
    ["dual", "--n-targets", "5"],
    ["santa"],
])
def test_unusable_out_dir_fails_before_solving(tmp_path, capsys, command):
    taken = tmp_path / "exists.txt"
    taken.write_text("a regular file\n", encoding="utf-8")
    assert main(command + ["--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize("command", [
    ["net", "--n-sources", "3", "--n-targets", "5", "--threshold", "1"],
    ["dual", "--n-targets", "5", "--alpha", "2"],
    ["santa", "--cities", "{tmp}/missing.csv"],
], ids=["net", "dual", "santa"])
def test_failed_run_removes_the_out_dirs_it_made(tmp_path, capsys, command):
    argv = [arg.format(tmp=tmp_path) for arg in command]
    assert main(argv + ["--out", str(tmp_path / "a" / "b")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "a").exists()


def test_failed_run_keeps_out_dirs_it_did_not_make_or_that_hold_files(tmp_path, capsys,
                                                                       monkeypatch):
    fail = ["net", "--n-sources", "3", "--n-targets", "5", "--threshold", "1", "--out"]
    made_before = tmp_path / "before"
    made_before.mkdir()
    assert main(fail + [str(made_before)]) == 2
    assert made_before.is_dir()
    # a/b made by the run, then given a file: b stays, and so does a above it
    held = tmp_path / "a" / "b"

    def write_then_fail(*args, **kwargs):
        (held / "partial.txt").write_text("kept\n", encoding="utf-8")
        raise OSError("failed after writing")

    monkeypatch.setattr("branchflow.cli.solve_network", write_then_fail)
    assert main(fail + [str(held)]) == 2
    assert (held / "partial.txt").is_file()
    assert "error: " in capsys.readouterr().err


def test_render_without_outputs_exits_two(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["branch", "--n-targets", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["render", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_checks_outputs_before_reading_input(tmp_path, capsys):
    assert main(["render", str(tmp_path / "missing.json")]) == 2
    assert "--svg" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["--geojson", "--svg"])
def test_render_tree_at_sphere_center_exits_two(tmp_path, capsys, output):
    # a 3-D branch tree has its source at the origin, which has no lat/lon
    tree = tmp_path / "t.json"
    assert main(["branch", "--d", "3", "--n-targets", "20", "--out", str(tree)]) == 0
    capsys.readouterr()
    assert main(["render", str(tree), output, str(tmp_path / "out")]) == 2
    assert "error: cannot project the sphere center" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["--geojson", "--svg"])
def test_render_tree_with_overflowing_norms_exits_two(tmp_path, capsys, output):
    huge = write_network(tmp_path / "t.json", ["source", "target"],
                         [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]], [(0, 1, 1.0)])
    assert main(["render", str(huge), output, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coordinates too large")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["--geojson", "--svg"])
def test_render_huge_integer_coordinate_exits_two(tmp_path, capsys, output):
    # json.dumps writes the int as a 401-digit literal, beyond the float range
    huge = write_network(tmp_path / "t.json", ["source", "target"],
                         [[0.0, 1.0], [10**400, 0.0]], [(0, 1, 1.0)])
    assert main(["render", str(huge), output, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: node 1 has a non-finite coordinate\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, message", [
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "cannot project the sphere center"),
    ([[0.0, 0.0, 1.0], [1e200, 0.0, 0.0]], "coordinates too large to project onto the sphere"),
], ids=["center", "overflow"])
@pytest.mark.parametrize("output", ["--geojson", "--svg"])
def test_render_bad_second_tree_of_a_forest_exits_two(tmp_path, capsys, output, bad, message):
    good = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    for name, coords in (("a.json", good), ("b.json", bad), ("c.json", good)):
        write_network(tmp_path / name, ["source", "target"], coords, [(0, 1, 1.0)])
    assert main(["render", str(tmp_path), output, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("files, code, message", [
    ({1: "structural", 3: "malformed"}, 4, "invalid flow tree: node 1 carries 0.5 but sends 0.0"),
    ({1: "malformed", 3: "structural"}, 2, "not valid JSON: Expecting property name"),
], ids=["structural-first", "malformed-first"])
def test_render_reports_the_first_bad_file_of_a_directory(tmp_path, capsys, files, code, message):
    """Reading stops at a file that does not parse, but the trees before it
    are checked first, so the first bad file in order decides the error."""
    for k in range(5):
        path = tmp_path / f"tree_{k:04d}.json"
        if files.get(k) == "structural":
            write_dangling_branch(path)
        elif files.get(k) == "malformed":
            path.write_text("{", encoding="utf-8")
        else:
            write_network(path, ["source", "target"], [[0.0, 0.0], [1.0, 0.0]], [(0, 1, 1.0)])
    assert main(["render", str(tmp_path), "--svg", str(tmp_path / "out.svg")]) == code
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out.svg").exists()


def test_load_forest_checks_a_mixed_planar_and_sphere_directory_at_once(tmp_path, monkeypatch):
    for k, tree in enumerate(forest("mixed")):
        (tmp_path / f"tree_{k:04d}.json").write_text(network_to_json(tree, 0.5), encoding="utf-8")
    check = branchflow.core._check_forest
    checked = []
    monkeypatch.setattr(branchflow.core, "_check_forest",
                        lambda kind, *args: checked.append(kind.size) or check(kind, *args))
    trees, levels = cli._load_forest(tmp_path)
    assert checked == [sum(t.n_nodes for t in trees)] and levels == [0, 1, 2, 3]
    monkeypatch.undo()
    assert [t.dim for t in trees] == [3, 2, 3, 2]
    for tree, path in zip(trees, sorted(tmp_path.iterdir())):
        want = network_from_json(path.read_text(encoding="utf-8")).tree
        for name in ("coords", "kind", "parent", "area"):
            a, b = getattr(tree, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable


@pytest.mark.parametrize("files, code, message", [
    ({9: "structural", 10: "malformed"}, 4, "invalid flow tree: node 1 carries 0.5"),
    ({9: "malformed", 10: "structural"}, 2, "not valid JSON"),
    ({1: "structural", 10: "malformed"}, 4, "invalid flow tree: node 1 carries 0.5"),
], ids=["pending-block-first", "parse-error-first", "checked-block-first"])
def test_load_forest_checks_blocks_of_nodes_in_input_order(tmp_path, capsys, monkeypatch, files,
                                                           code, message):
    """The loader checks about 8 * _BLOCK nodes at a time: here 8 nodes,
    four 2-node trees a block.  The first bad file still decides the error."""
    for k in range(12):
        path = tmp_path / f"tree_{k:04d}.json"
        if files.get(k) == "structural":
            write_dangling_branch(path)
        elif files.get(k) == "malformed":
            path.write_text("{", encoding="utf-8")
        else:
            write_network(path, ["source", "target"], [[0.0, k], [1.0, k]], [(0, 1, 1.0)])
    monkeypatch.setattr(branchflow.io, "_BLOCK", 1)
    assert main(["render", str(tmp_path), "--svg", str(tmp_path / "out.svg")]) == code
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_load_forest_in_blocks_matches_one_block(tmp_path, monkeypatch):
    trees = forest("mixed") * 3
    for k, tree in enumerate(trees):
        (tmp_path / f"tree_{k:04d}.json").write_text(network_to_json(tree, 0.5), encoding="utf-8")
    whole, levels = cli._load_forest(tmp_path)
    check = branchflow.core._check_forest
    checked = []
    monkeypatch.setattr(branchflow.core, "_check_forest",
                        lambda kind, *args: checked.append(kind.size) or check(kind, *args))
    monkeypatch.setattr(branchflow.io, "_BLOCK", 2)
    blocks, same_levels = cli._load_forest(tmp_path)
    assert sum(checked) == sum(t.n_nodes for t in trees) and len(checked) > 2
    assert all(16 <= n < 16 + max(t.n_nodes for t in trees) for n in checked[:-1])
    assert same_levels == levels
    for a, b in zip(whole, blocks, strict=True):
        for name in ("coords", "kind", "parent", "area"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_render_arc_that_fails_after_the_first_piece_leaves_no_file(tmp_path, capsys,
                                                                    monkeypatch):
    # every check passes before the head; the arcs then fail while they are
    # drawn, after the file was opened
    good = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    for name in ("a.json", "b.json"):
        write_network(tmp_path / name, ["source", "target"], good, [(0, 1, 1.0)])

    def failing(*args):
        raise ParameterError("no arc")

    monkeypatch.setattr("branchflow.render._arc_block", failing)
    seen = []

    def recording(pieces):
        for piece in pieces:
            seen.append(piece)
            yield piece

    write_text = cli._write_text
    monkeypatch.setattr(cli, "_write_text", lambda path, text: write_text(path, recording(text)))
    assert main(["render", str(tmp_path), "--geojson", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: no arc\n"
    assert seen == ['{"type":"FeatureCollection","features":[']
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coords", [[[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                    [[0.0, 0.0, 1.0], [1e200, 0.0, 0.0]]],
                         ids=["center", "overflow"])
def test_render_norm_fault_leaves_an_existing_geojson_unchanged(tmp_path, capsys, coords):
    # every sphere node's norm is checked before the first piece, so before the file opens
    tree = write_network(tmp_path / "t.json", ["source", "target"], coords, [(0, 1, 1.0)])
    out = tmp_path / "out.geojson"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["render", str(tree), "--geojson", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "trees",
    [[{"level": "global"}], [1], ["tree_0000.json"]],
    ids=["entry-without-file", "entry-not-object", "entry-is-string"],
)
def test_render_malformed_manifest_exits_two(tmp_path, capsys, trees):
    (tmp_path / "manifest.json").write_text(json.dumps({"trees": trees}), encoding="utf-8")
    assert main(["render", str(tmp_path), "--svg", str(tmp_path / "out.svg")]) == 2
    assert "error: cannot read manifest" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["NaN", "1e999", "-Infinity"])
def test_render_non_finite_manifest_level_exits_two_and_writes_no_file(tmp_path, capsys, level):
    # json reads each of these as a float, which GeoJSON cannot hold
    write_network(tmp_path / "tree_0000.json", ["source", "target"], [[0.0, 0.0], [1.0, 0.0]],
                  [(0, 1, 1.0)])
    (tmp_path / "manifest.json").write_text(
        '{"trees":[{"file":"tree_0000.json","level":%s}]}' % level, encoding="utf-8")
    out = tmp_path / "out.geojson"
    assert main(["render", str(tmp_path), "--geojson", str(out)]) == 2
    assert "levels must be finite JSON values" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_env_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BRANCHFLOW_SEED", "not-an-int")
    assert main(["branch", "--n-targets", "4"]) == 2
    assert "BRANCHFLOW_SEED" in capsys.readouterr().err


def test_bad_seed_env_is_ignored_by_render(tmp_path, monkeypatch, capsys):
    # render takes no seed; santa, which does, still rejects the variable
    tree = write_network(tmp_path / "t.json", ["source", "target"], [[0.0, 0.0], [1.0, 0.0]],
                         [(0, 1, 1.0)])
    monkeypatch.setenv("BRANCHFLOW_SEED", "abc")
    assert main(["render", str(tree), "--svg", str(tmp_path / "x.svg")]) == 0
    assert (tmp_path / "x.svg").is_file()
    capsys.readouterr()
    assert main(["santa", "--out", str(tmp_path / "santa")]) == 2
    assert "BRANCHFLOW_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed resolution


def test_seed_env_matches_flag(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.delenv("BRANCHFLOW_SEED", raising=False)
    assert main(["branch", "--seed", "7", "--n-targets", "30", "--out", str(a)]) == 0
    monkeypatch.setenv("BRANCHFLOW_SEED", "7")
    assert main(["branch", "--n-targets", "30", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_env(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("BRANCHFLOW_SEED", "7")
    assert main(["branch", "--seed", "3", "--n-targets", "30", "--out", str(a)]) == 0
    monkeypatch.delenv("BRANCHFLOW_SEED")
    assert main(["branch", "--seed", "3", "--n-targets", "30", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# artifacts


def test_branch_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "tree.json"
    code = main(["branch", "--seed", "5", "--n-targets", "40",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "iter,cost"
    costs = [float(row.split(",")[1]) for row in lines[1:]]
    assert len(costs) >= 1
    assert all(b < a for a, b in zip(costs, costs[1:]))
    net = network_from_json(out.read_text(encoding="utf-8"))
    assert net.cost == pytest.approx(costs[-1])


def test_ot_out_plan_json(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["ot", "--seed", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["nodes"]) == 3 + 4
    areas = np.array([e["area"] for e in doc["edges"]])
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(doc["edges"]) <= 3 + 4 - 1


def test_net_repeat_runs_byte_identical(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    argv = ["net", "--seed", "4", "--n-sources", "4", "--n-targets", "60"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2)]) == 0
    files1 = read_dir(d1)
    files2 = read_dir(d2)
    assert set(files1) == set(files2)
    assert "manifest.json" in files1
    assert files1 == files2


# sha256 over every file (name, NUL, bytes, in name order) of a forest directory,
# pinned so that any change to the tree files or manifests of either command shows
@pytest.mark.parametrize("argv, n_files, digest", [
    (["net", "--seed", "5", "--n-sources", "4", "--n-targets", "40"], 5,
     "73834fb33a7b438ed437df9d22701ad3813942c81bb89b4a11495e0b5166ca53"),
    (["net", "--ot-mode", "sinkhorn", "--seed", "5", "--n-sources", "4", "--n-targets", "40"], 5,
     "d28951d91d213e0e9775a6742ee96cfc86109bd7f789c403454bd8f109ec2bc5"),
    (["santa", "--seed", "0"], 174,
     "3d33d0673c9627c8d1f1d6094e5e605e1fa454db2f462ab5fc435e62f88493d8"),
], ids=["net", "net-sinkhorn", "santa"])
def test_forest_directory_bytes_pinned(tmp_path, capsys, argv, n_files, digest):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    files = read_dir(tmp_path / "out")
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode("utf-8") + b"\0" + data)
    assert len(files) == n_files
    assert h.hexdigest() == digest


def test_net_manifest_consistent(tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["net", "--seed", "4", "--n-sources", "3",
                 "--n-targets", "40", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["ot_mode"] == "exact"
    assert len(manifest["trees"]) == 3
    total = 0.0
    for entry in manifest["trees"]:
        doc = network_from_json((out / entry["file"]).read_text(encoding="utf-8"))
        assert doc.cost == pytest.approx(entry["bot_cost"])
        total += entry["bot_cost"]
    assert total == pytest.approx(manifest["bot_cost"])


def test_net_threshold_drops_a_source_from_the_manifest(tmp_path, capsys):
    # the smallest row maximum of the exact plan: source 2 keeps no entry above it
    out = tmp_path / "net"
    assert main(["net", "--seed", "0", "--n-sources", "3", "--n-targets", "5",
                 "--threshold", "0.18136517925028542", "--out", str(out)]) == 0
    assert "trees 2\n" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["threshold"] == 0.18136517925028542
    assert [entry["source"] for entry in manifest["trees"]] == [0, 1]


def test_santa_total_cost_is_the_in_order_sum_of_the_manifest_costs(tmp_path, capsys):
    # sum() compensates from Python 3.12 on, which would change the printed digits
    out = tmp_path / "santa"
    assert main(["santa", "--seed", "3", "--out", str(out)]) == 0
    total = 0.0
    for entry in json.loads((out / "manifest.json").read_text(encoding="utf-8"))["trees"]:
        total += entry["cost"]
    assert f"\ntotal cost {total!r}\n" in capsys.readouterr().out


def test_dual_out_files(tmp_path, capsys):
    out = tmp_path / "dual"
    assert main(["dual", "--seed", "1", "--n-targets", "25", "--out", str(out)]) == 0
    artery = network_from_json((out / "artery.json").read_text(encoding="utf-8"))
    vein = network_from_json((out / "vein.json").read_text(encoding="utf-8"))
    assert artery.alpha == vein.alpha == 0.5
    assert artery.tree.n_nodes >= 26
    assert vein.tree.n_nodes >= 26


def test_santa_small_csv_outputs(tmp_path, capsys):
    csv = write_small_cities(tmp_path / "cities.csv")
    out = tmp_path / "santa"
    assert main(["santa", "--cities", str(csv), "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["levels"] == ["global", "country", "regional"]
    assert manifest["countries"] == ["Andora", "Borland", "Cresta"]
    assert manifest["n_cities"] == 24
    tree_files = [p for p in out.iterdir() if p.name.startswith("tree_")]
    assert len(tree_files) == len(manifest["trees"])
    geo = json.loads((out / "network.geojson").read_text(encoding="utf-8"))
    assert geo["type"] == "FeatureCollection"
    levels = {f["properties"]["level"] for f in geo["features"]}
    assert levels <= {"global", "country", "regional"}
    assert "global" in levels


def test_render_reproduces_the_santa_geojson(tmp_path, capsys):
    # the tree reader, the manifest's levels and the writer together
    out = tmp_path / "santa"
    assert main(["santa", "--seed", "0", "--out", str(out)]) == 0
    geo = tmp_path / "render.geojson"
    assert main(["render", str(out), "--geojson", str(geo)]) == 0
    assert geo.read_bytes() == (out / "network.geojson").read_bytes()


def test_render_on_net_directory(tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["net", "--seed", "6", "--n-sources", "3",
                 "--n-targets", "30", "--out", str(out)]) == 0
    svg = tmp_path / "net.svg"
    geo = tmp_path / "net.geojson"
    code = main(["render", str(out), "--svg", str(svg), "--geojson", str(geo)])
    assert code == 0
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    doc = json.loads(geo.read_text(encoding="utf-8"))
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) > 0


# ---------------------------------------------------------------------------
# the streamed files against the joined documents


def sphere_star(rng, n):
    """A source and n targets at random places on the sphere: edges of up to 202 arc points."""
    lat = rng.uniform(-80.0, 80.0, n + 1)
    lon = rng.uniform(-180.0, 180.0, n + 1)
    return FlowTree(geo_embed(lat, lon), ["source"] + ["target"] * n, [-1] + [0] * n,
                    [float(n)] + [1.0] * n)


def planar_star(rng, n):
    return FlowTree(rng.uniform(-3.0, 3.0, (n + 1, 2)), ["source"] + ["target"] * n,
                    [-1] + [0] * n, [float(n)] + [1.0] * n)


def forest(name):
    rng = np.random.default_rng(12)
    if name == "sphere":   # about 50k arc points: more than one arc block
        return [sphere_star(rng, 60) for _ in range(8)]
    if name == "planar":
        return [planar_star(rng, n) for n in (1, 30, 4)]
    return [sphere_star(rng, 3), planar_star(rng, 5), sphere_star(rng, 1), planar_star(rng, 2)]


@pytest.mark.parametrize("name", ["sphere", "planar", "mixed"])
def test_render_files_equal_the_joined_documents(tmp_path, capsys, caplog, name):
    src = tmp_path / "in"
    src.mkdir()
    for k, tree in enumerate(forest(name)):
        (src / f"tree_{k:04d}.json").write_text(network_to_json(tree, 0.5), encoding="utf-8")
    svg, geo = tmp_path / "f.svg", tmp_path / "f.geojson"
    with caplog.at_level(logging.DEBUG, logger="branchflow.render"):
        assert main(["render", str(src), "--svg", str(svg), "--geojson", str(geo)]) == 0
    logged = [r.getMessage() for r in caplog.records]

    trees = [network_from_json(p.read_text(encoding="utf-8")).tree for p in sorted(src.iterdir())]
    text = render_geojson(trees)
    assert geo.read_bytes() == (text + "\n").encode("utf-8")
    assert svg.read_bytes() == (render_svg(trees) + "\n").encode("utf-8")
    features = json.loads(text)["features"]
    n_points = sum(len(f["geometry"]["coordinates"]) for f in features)
    assert logged == [f"render_geojson: {len(trees)} trees, {len(features)} edges, "
                      f"{n_points} arc points"]


def test_write_text_keeps_the_newline_rule_for_pieces(tmp_path):
    cases = {
        "empty-geojson": (_geojson_chunks([], None), render_geojson([]) + "\n"),
        "empty-svg": (_svg_chunks([], 0.5), render_svg([]) + "\n"),
        "no-pieces": (iter(()), "\n"),
        "empty-pieces": (["", ""], "\n"),
        "newline-then-empty": (["a\n", ""], "a\n"),
        "newline-inside": (["a\n", "b"], "a\nb\n"),
        "str": ("a\nb\n", "a\nb\n"),
    }
    for name, (text, expected) in cases.items():
        cli._write_text(tmp_path / name, text)
        assert (tmp_path / name).read_bytes() == expected.encode("utf-8"), name


# ---------------------------------------------------------------------------
# malformed input files

_ODD_VALUES = [None, True, "x", "", [], {}, -1, 0, 3, 2.5, 1e308, -1e308, 5e-324, 10**400,
               "source", "branch", [0.0], [1.0, 2.0, 3.0, 4.0], [[1]]]
_TREES = [  # a planar tree and a unit-sphere tree, the second drawn as great-circle arcs
    network_doc(["source", "target", "target"], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                [(0, 1, 0.5), (0, 2, 0.5)]),
    network_doc(["source", "branch", "target", "target"],
                [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5)]),
]


def _nested(depth):
    return "[" * depth + "]" * depth


@st.composite
def _mistyped_json(draw, doc):
    """JSON text of ``doc`` with at most one value replaced or one key dropped."""
    doc = copy.deepcopy(doc)   # drawn values are shared: never change one in place
    places = []   # (container, key) of every value in doc

    def walk(value):
        for key in (value if isinstance(value, dict) else range(len(value))):
            places.append((value, key))
            if isinstance(value[key], (dict, list)):
                walk(value[key])

    walk(doc)
    if places and draw(st.booleans()):
        container, key = draw(st.sampled_from(places))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return json.dumps(doc)


@st.composite
def _file_bytes(draw, text):
    """``text`` as UTF-8, then at most one corruption: truncated, a BOM, a
    Latin-1 letter, a stray byte or a NUL, or the whole text nested deep."""
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data if draw(st.booleans()) else draw(st.sampled_from([
        data[:at], b"\xef\xbb\xbf" + data, data[:at] + "ü".encode("latin-1") + data[at:],
        data[:at] + b"\xff" + data[at:], data[:at] + b"\0" + data[at:],
        _nested(draw(st.sampled_from([3, 900, 200_000]))).encode("ascii"),
    ]))


@st.composite
def render_inputs(draw):
    """Files for ``render``: one tree file, or a directory with or without a manifest."""
    files = {}
    for k in range(draw(st.integers(0, 2))):
        doc = draw(st.sampled_from(_TREES))
        files[f"tree_{k:04d}.json"] = draw(_file_bytes(draw(_mistyped_json(doc))))
    layout = draw(st.sampled_from(["file", "directory", "manifest"]))
    if layout == "file" and files:
        return {"input": files.popitem()[1]}
    if layout == "manifest":
        entry = st.one_of(
            st.fixed_dictionaries(
                {"file": st.sampled_from([*files, "missing.json", ""])},
                optional={"level": st.sampled_from(_ODD_VALUES + ["%s", "deep"])}),
            st.sampled_from(_ODD_VALUES))
        manifest = {"trees": draw(st.lists(entry, max_size=3)), "alpha": 0.5}
        text = draw(_mistyped_json(manifest)).replace('"deep"', _nested(900))   # a deep level
        files["manifest.json"] = draw(_file_bytes(text))
    return files


@st.composite
def cities_inputs(draw):
    """A cities CSV: a header with or without every column, rows with
    missing, mistyped or extreme fields, then one corruption."""
    header = draw(st.sampled_from(["city,country,lat,lng,population",
                                   "Name,Country,Latitude,Longitude,Pop", "city,country,lat,lng",
                                   "city,lat,lng,population", ""]))
    odd = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e308", "-5", "0", "1e-320", "91",
                           "-90", "180", '"quoted, field"', '"open'])
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(st.sampled_from(["A1", "B1"])), draw(st.sampled_from(["X", "Y"])),
                 draw(st.sampled_from(["10", "-10", "89.5"])),
                 draw(st.sampled_from(["20", "-160", "135.25"])),
                 draw(st.sampled_from(["1000", "250000", "8e307"]))]
        change = draw(st.sampled_from(["none", "field", "short"]))
        if change == "field":
            cells[draw(st.integers(0, 4))] = draw(odd)
        rows.append(",".join(cells[:3] if change == "short" else cells))
    return draw(_file_bytes("\n".join(rows) + "\n"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(render_inputs(), cities_inputs()))
def test_malformed_input_files_end_cleanly(files):
    """``render`` and ``santa --cities`` on a malformed file either run or
    exit 2, 3 or 4 with one error line, no numpy warning and no output file."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if isinstance(files, bytes):
            (tmp / "cities.csv").write_bytes(files)
            argv = ["santa", "--cities", str(tmp / "cities.csv"), "--out", str(out)]
        else:
            target = tmp / "input" if "input" in files else tmp / "forest"
            if "input" in files:
                target.write_bytes(files["input"])
            else:
                target.mkdir()
                for name, data in files.items():
                    (target / name).write_bytes(data)
            out.mkdir()
            argv = ["render", str(target), "--svg", str(out / "f.svg"),
                    "--geojson", str(out / "f.geojson")]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not [p for p in out.rglob("*") if p.is_file()], err
