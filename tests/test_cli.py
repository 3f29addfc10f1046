"""End-to-end command-line runs via main(argv)."""

import json

import numpy as np
import pytest

from branchflow import cli
from branchflow.cli import build_parser, main
from branchflow.io import network_from_json


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


def write_network(path, kinds, coords, edges):
    """One network JSON file; ``edges`` holds (from, to, area) triples."""
    doc = {
        "nodes": [{"id": i, "kind": k, "coords": c} for i, (k, c) in enumerate(zip(kinds, coords))],
        "edges": [{"from": a, "to": b, "area": s} for a, b, s in edges],
        "alpha": 0.5,
        "cost": None,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
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


def test_parser_defaults_ot():
    args = build_parser().parse_args(["ot"])
    assert args.alpha == 1.0
    assert args.n_sources == 3
    assert args.n_targets == 4


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
        (["santa", "--cities", "{tmp}/nope.csv"], 2,
         "cannot read {tmp}/nope.csv: [Errno 2] No such file or directory"),
        (["ot", "--ot-mode", "sinkhorn", "--lambda", "1e-9"], 3,
         "scaling kernel underflowed to zero rows/columns; increase reg"),
        (["render", "{tmp}/bad.json", "--svg", "{tmp}/out.svg"], 4,
         "invalid flow tree: node 1 carries 0.5 but sends 0.0"),
        (["net", "--n-sources", "3", "--n-targets", "5", "--out", "{tmp}/exists.txt"], 2,
         "[Errno 17] File exists: '{tmp}/exists.txt'"),
    ],
    ids=["parameter", "input", "convergence", "structural", "os"],
)
def test_errors_map_to_exit_codes(tmp_path, capsys, argv, code, message):
    write_dangling_branch(tmp_path / "bad.json")
    (tmp_path / "exists.txt").write_text("a regular file\n", encoding="utf-8")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("output", ["--geojson", "--svg"])
def test_render_tree_with_overflowing_norms_exits_two(tmp_path, capsys, output):
    huge = write_network(tmp_path / "t.json", ["source", "target"],
                         [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]], [(0, 1, 1.0)])
    assert main(["render", str(huge), output, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coordinates too large")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "trees",
    [[{"level": "global"}], [1], ["tree_0000.json"]],
    ids=["entry-without-file", "entry-not-object", "entry-is-string"],
)
def test_render_malformed_manifest_exits_two(tmp_path, capsys, trees):
    (tmp_path / "manifest.json").write_text(json.dumps({"trees": trees}), encoding="utf-8")
    assert main(["render", str(tmp_path), "--svg", str(tmp_path / "out.svg")]) == 2
    assert "error: cannot read manifest" in capsys.readouterr().err


def test_bad_seed_env_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BRANCHFLOW_SEED", "not-an-int")
    assert main(["branch", "--n-targets", "4"]) == 2
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


def test_santa_workers_env_matches_serial(tmp_path, monkeypatch, capsys):
    csv = write_small_cities(tmp_path / "cities.csv")
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    monkeypatch.delenv("BRANCHFLOW_WORKERS", raising=False)
    assert main(["santa", "--cities", str(csv), "--seed", "2", "--out", str(serial)]) == 0
    monkeypatch.setenv("BRANCHFLOW_WORKERS", "2")
    assert main(["santa", "--cities", str(csv), "--seed", "2", "--out", str(threaded)]) == 0
    assert read_dir(serial) == read_dir(threaded)


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
