"""Command-line contract: file layouts, exit codes, and reproducibility.

The tests run the CLI through subprocess so the argv recorded in the
manifest matches what a shell user would produce; the CSV read-back test
calls `cli.main` in process to compare with `simulate_path` directly.
"""

import csv
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schedfilt import cli, model
from schedfilt.presets import build_preset
from schedfilt.simulate import simulate_path

CLI = [sys.executable, "-m", "schedfilt.cli"]


@pytest.fixture()
def run_cli(cli_env):
    def run(args, tmp, epoch="1700000000"):
        env = cli_env(epoch, SCHEDFILT_OUT=str(tmp / "default-out"))
        return subprocess.run(
            CLI + args, capture_output=True, text=True, env=env, cwd=str(tmp)
        )

    return run


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def first_line(path: Path) -> str:
    return path.read_text().splitlines()[0]


def test_simulate_layout_and_headers(tmp_path, run_cli):
    out = tmp_path / "sim"
    proc = run_cli(["simulate", "ou_kalman", "--paths", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = read_manifest(out)
    listed = set(manifest["outputs"])
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    assert listed == {"path_0000.csv", "events_0000.csv", "path_0001.csv", "events_0001.csv"}
    assert first_line(out / "path_0000.csv") == "path_id,t,x_1,y_1,is_jump_time,event_index"
    assert first_line(out / "events_0000.csv") == "path_id,i,T_i,dY_1"
    assert manifest["subcommand"] == "simulate"
    assert manifest["created_unix"] == 1700000000


def _read_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: np.array([float(row[j]) for row in rows]) for j, name in enumerate(header)}


@pytest.mark.parametrize(
    "source, n_paths",
    [
        ("ou_kalman", 3),
        ("credit_risk", 3),
        ("njode_style", 3),
        ("medical", 3),
        ("medical_firing", 4),
        ("m2_constant_matrix", 3),
    ],
)
def test_simulate_csv_reads_back_as_simulate_path(
    tmp_path, capsys, euler_scenarios, medical_firing_scenario, source, n_paths
):
    # in process: the files, read back, hold simulate_path's numbers exactly
    if source in ("medical_firing", "m2_constant_matrix"):
        scn = medical_firing_scenario if source == "medical_firing" else euler_scenarios[source]
        arg = tmp_path / f"{source}.json"
        arg.write_text(model.scenario_to_json(scn.config), encoding="utf-8")
    else:
        scn, arg = build_preset(source), source
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(arg), "--paths", str(n_paths), "--seed", "11", "--out", str(out)]) == 0
    capsys.readouterr()
    for p in range(n_paths):
        res = simulate_path(scn, p, seed=11)
        path = _read_columns(out / f"path_{p:04d}.csv")
        events = _read_columns(out / f"events_{p:04d}.csv")
        index = np.zeros(len(res.path.t))
        for k, ev in zip(res.path.event_rows, res.events):
            index[k] = ev.index
        expected_path = {
            "path_id": np.full(len(res.path.t), p),
            "t": res.path.t,
            **{f"x_{j + 1}": res.path.x[:, j] for j in range(scn.m)},
            **{f"y_{j + 1}": res.path.y[:, j] for j in range(scn.n)},
            "is_jump_time": index > 0,
            "event_index": index,
        }
        expected_events = {
            "path_id": np.full(len(res.events), p),
            "i": [ev.index for ev in res.events],
            "T_i": [ev.time for ev in res.events],
            **{f"dY_{j + 1}": [ev.dy[j] for ev in res.events] for j in range(scn.n)},
        }
        for got, expected in ((path, expected_path), (events, expected_events)):
            assert list(got) == list(expected)
            for name, values in expected.items():
                np.testing.assert_array_equal(got[name], np.asarray(values, dtype=float), err_msg=f"{source} path {p} {name}")
    if source == "medical_firing":
        assert sum(len(_read_columns(out / f"events_{p:04d}.csv")["i"]) for p in range(n_paths)) > 0


def test_manifest_hash_same_for_preset_and_file(tmp_path, run_cli):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = Path(__file__).resolve().parents[1] / "configs" / "ou_kalman.json"
    pa = run_cli(["simulate", "ou_kalman", "--paths", "1", "--out", str(out_a)], tmp_path)
    pb = run_cli(["simulate", str(cfg), "--paths", "1", "--out", str(out_b)], tmp_path)
    assert pa.returncode == 0, pa.stderr
    assert pb.returncode == 0, pb.stderr
    assert read_manifest(out_a)["scenario_sha256"] == read_manifest(out_b)["scenario_sha256"]
    # same scenario content means bit-identical data files
    assert filecmp.cmp(out_a / "path_0000.csv", out_b / "path_0000.csv", shallow=False)


def test_repeat_runs_are_byte_identical(tmp_path, run_cli):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        proc = run_cli(
            ["filter", "ou_kalman", "--method", "kalman", "--out", str(out)], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = {p.name for p in outs[0].iterdir()}
    assert names == {p.name for p in outs[1].iterdir()}
    for name in names:
        if name == "manifest.json":
            a = json.loads((outs[0] / name).read_text())
            b = json.loads((outs[1] / name).read_text())
            # identical except the user-chosen output directory in argv
            a["command"] = b["command"] = None
            assert a == b
        else:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_filter_all_methods(tmp_path, run_cli):
    out = tmp_path / "fil"
    proc = run_cli(
        [
            "filter", "ou_kalman", "--method", "all",
            "--particles", "2000", "--nodes", "400", "--out", str(out),
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = {p.name for p in out.iterdir()}
    assert {
        "manifest.json", "events_used.csv", "comparison.csv",
        "kalman_trajectory.csv", "ks_trajectory.csv",
        "zakai_trajectory.csv", "grid_trajectory.csv",
    } <= names
    head = first_line(out / "comparison.csv").split(",")
    assert head[0] == "t"
    assert {"kalman_m", "ks_m", "zakai_m", "grid_m"} <= set(head)
    assert first_line(out / "ks_trajectory.csv") == "t,phi_name,estimate,estimate_se,ess,log_rho1"
    # the Kalman column filters the same model as the grid: pre-jump observation, then the jump
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for exact, oracle, bound in (("kalman_m", "grid_m", 2e-3), ("kalman_P", "grid_P", 1e-2)):
        gaps = [abs(float(r[exact]) - float(r[oracle])) for r in rows if r[exact] and r[oracle]]
        assert gaps and max(gaps) <= bound, (exact, max(gaps, default=None))


def test_comparison_rows_are_the_last_row_at_each_time(tmp_path, run_cli):
    out = tmp_path / "fil"
    proc = run_cli(["filter", "ou_kalman", "--method", "all", "--particles", "500", "--nodes", "200", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(out / "comparison.csv", newline="") as fc, open(out / "kalman_trajectory.csv", newline="") as fk:
        comparison, kalman = list(csv.DictReader(fc)), list(csv.DictReader(fk))
    with open(out / "grid_trajectory.csv", newline="") as fg:
        grid = list(csv.DictReader(fg))
    last = {}  # rounded time -> last row index, in row order
    for k, row in enumerate(kalman):
        last[round(float(row["t"]), 10)] = k
    assert [float(r["t"]) for r in comparison] == list(last)
    for row, k in zip(comparison, last.values()):
        assert float(row["kalman_m"]) == float(kalman[k]["m_1"]) and float(row["kalman_P"]) == float(kalman[k]["P_11"])
        assert float(row["grid_m"]) == float(grid[k]["mean"]) and float(row["grid_P"]) == float(grid[k]["var"])


def test_filter_events_round_trip(tmp_path, run_cli):
    sim_out = tmp_path / "sim"
    sim = run_cli(["simulate", "ou_kalman", "--paths", "1", "--out", str(sim_out)], tmp_path)
    assert sim.returncode == 0, sim.stderr
    direct = tmp_path / "direct"
    reload = tmp_path / "reload"
    pa = run_cli(
        ["filter", "ou_kalman", "--method", "kalman", "--out", str(direct)], tmp_path
    )
    pb = run_cli(
        [
            "filter", "ou_kalman", "--method", "kalman",
            "--events", str(sim_out / "events_0000.csv"),
            "--path-id", "0", "--out", str(reload),
        ],
        tmp_path,
    )
    assert pa.returncode == 0, pa.stderr
    assert pb.returncode == 0, pb.stderr
    assert filecmp.cmp(
        direct / "kalman_trajectory.csv", reload / "kalman_trajectory.csv", shallow=False
    )


@pytest.mark.parametrize(
    "header, rows, message",
    [
        ("path_id,i,T_i,dY_1", ["0,1,0.5,0.1", "0,2,abc,0.2"], "could not read events"),
        ("path_id,i,T_i,dY_2", ["0,1,0.5,0.1"], "could not read events"),
        ("path_id,i,T_i,dY_1", ["0,1,0.5,0.1", "0,x,1.0,0.2"], "could not read events"),
        ("path_id,i,T_i,dY_1", ["0,1,0.7,0.1", "0,2,5.0,0.2"], "not on the scenario's schedule"),
        ("path_id,i,T_i,dY_1", ["0,1,0.5,nan", "0,2,1.0,0.2"], "non-finite"),
        ("path_id,i,T_i,dY_1", ["0,1,0.5,0.1", "0,2,inf,0.2"], "non-finite"),
    ],
    ids=[
        "time_not_a_number", "no_dY_1_column", "index_not_an_integer", "times_off_the_schedule",
        "dY_not_finite", "time_not_finite",
    ],
)
def test_events_file_outside_the_contract_exits_2(tmp_path, run_cli, header, rows, message):
    out, events = tmp_path / "fil", tmp_path / "events.csv"
    events.write_text("\n".join([header, *rows]) + "\n")
    proc = run_cli(["filter", "ou_kalman", "--method", "kalman", "--events", str(events), "--out", str(out)], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["diagnose", "ou_kalman", "--checks", "compensator,nosuch"], 2),
        (["filter", "ou_kalman", "--events", "missing.csv"], 2),
        (["filter", "njode_style", "--method", "kalman"], 3),
        (["diagnose", "njode_style", "--checks", "zakai"], 3),
    ],
    ids=["unknown_check", "missing_events_file", "incompatible_filter", "incompatible_check"],
)
def test_refused_run_leaves_no_directory(tmp_path, run_cli, argv, code):
    out = tmp_path / "out"
    proc = run_cli([*argv, "--out", str(out)], tmp_path)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert not out.exists()


def test_threshold_events_round_trip(tmp_path, run_cli, medical_firing_scenario):
    scenario = tmp_path / "medical_firing.json"
    scenario.write_text(model.scenario_to_json(medical_firing_scenario.config), encoding="utf-8")
    sim = run_cli(["simulate", str(scenario), "--paths", "4", "--out", str(tmp_path / "sim")], tmp_path)
    assert sim.returncode == 0, sim.stderr
    fired = [p for p in range(4) if len((tmp_path / "sim" / f"events_{p:04d}.csv").read_text().splitlines()) > 1]
    assert fired
    events = str(tmp_path / "sim" / f"events_{fired[0]:04d}.csv")
    proc = run_cli(
        ["filter", str(scenario), "--method", "grid", "--events", events, "--path-id", str(fired[0]), "--out", str(tmp_path / "fil")],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert filecmp.cmp(events, tmp_path / "fil" / "events_used.csv", shallow=False)


def test_incompatible_method_exits_3(tmp_path, run_cli):
    proc = run_cli(
        ["filter", "medical", "--method", "kalman", "--out", str(tmp_path / "x")], tmp_path
    )
    assert proc.returncode == 3, proc.stderr
    assert "incompatible" in proc.stderr.lower()


def test_negative_control_without_signal_jumps_exits_3(tmp_path, run_cli):
    # njode_style has xi = 0, so the KS-residual negative control has no
    # expected-jump term to drop
    proc = run_cli(
        [
            "diagnose", "njode_style", "--negative-control", "--checks", "ks-residual",
            "--runs", "1", "--out", str(tmp_path / "x"),
        ],
        tmp_path,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "signal jumps" in proc.stderr


def test_single_particle_exits_2(tmp_path, run_cli):
    proc = run_cli(
        ["filter", "ou_kalman", "--method", "ks-particle", "--particles", "1", "--out", str(tmp_path / "x")],
        tmp_path,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "two particles" in proc.stderr


def _off_lattice_config(tmp: Path) -> Path:
    """ou_kalman with an event time the grid's dt lattice cannot hit."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "ou_kalman.json").read_text())
    cfg["schedule"]["times"] = [0.3333, 1.0]
    path = tmp / "off_lattice.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("nodes", ["0", "1", "15"])
def test_grid_nodes_below_floor_exit_2(tmp_path, run_cli, nodes):
    proc = run_cli(
        ["filter", "ou_kalman", "--method", "grid", "--nodes", nodes, "--out", str(tmp_path / "x")], tmp_path
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at least 16 nodes" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "ou_kalman", "--paths", "-3"],
        ["simulate", "ou_kalman", "--paths", "0"],
        ["diagnose", "ou_kalman", "--checks", "zakai,ks-residual", "--runs", "0"],
        ["diagnose", "ou_kalman", "--checks", "compensator", "--paths", "0"],
    ],
)
def test_counts_below_one_exit_2(tmp_path, run_cli, args):
    proc = run_cli(args + ["--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "must be at least 1" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_negative_path_id_exit_2(tmp_path, run_cli):
    proc = run_cli(["filter", "ou_kalman", "--path-id", "-1", "--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nonnegative" in proc.stderr
    # the manifest is written last, so a failed run leaves none
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_absent_events_path_id_exit_2(tmp_path, run_cli):
    sim = run_cli(["simulate", "ou_kalman", "--paths", "1", "--out", str(tmp_path / "sim")], tmp_path)
    assert sim.returncode == 0, sim.stderr
    events = str(tmp_path / "sim" / "events_0000.csv")
    proc = run_cli(
        ["filter", "ou_kalman", "--method", "kalman", "--events", events, "--path-id", "7", "--out", str(tmp_path / "x")],
        tmp_path,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "path id 7" in proc.stderr
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_manifest_lists_only_written_files(tmp_path, run_cli):
    # njode_style's observation map is not affine, so --method all skips kalman
    out = tmp_path / "fil"
    proc = run_cli(
        ["filter", "njode_style", "--method", "all", "--particles", "500", "--nodes", "200", "--out", str(out)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "skipping kalman" in proc.stderr
    listed = set(read_manifest(out)["outputs"])
    assert listed == {p.name for p in out.iterdir()} - {"manifest.json"}
    assert "kalman_trajectory.csv" not in listed


@pytest.mark.parametrize(
    "args",
    [
        ["diagnose", "ou_kalman", "--checks", "martingale", "--paths", "1"],
        ["diagnose", "ou_kalman", "--checks", "martingale", "--paths", "3"],
        ["diagnose", "ou_kalman", "--checks", "compensator", "--paths", "1"],
    ],
)
def test_too_few_paths_for_a_check_exit_2(tmp_path, run_cli, args):
    proc = run_cli(args + ["--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "needs at least" in proc.stderr


def test_off_lattice_times_run_grid_under_all(tmp_path, run_cli):
    out = tmp_path / "fil"
    proc = run_cli(
        [
            "filter", str(_off_lattice_config(tmp_path)), "--method", "all",
            "--particles", "2000", "--out", str(out),
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "skipping" not in proc.stderr
    assert "Traceback" not in proc.stderr
    names = {p.name for p in out.iterdir()}
    assert {"kalman_trajectory.csv", "ks_trajectory.csv", "zakai_trajectory.csv", "grid_trajectory.csv"} <= names


def test_off_lattice_times_grid_only_matches_kalman(tmp_path, run_cli):
    # the grid ends each interval with a partial substep, so it runs on
    # 0.3333 and agrees with the exact filter as well as on the lattice
    cfg = str(_off_lattice_config(tmp_path))
    for method in ("grid", "kalman"):
        proc = run_cli(["filter", cfg, "--method", method, "--out", str(tmp_path / method)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
    with open(tmp_path / "grid" / "grid_trajectory.csv") as fg, open(tmp_path / "kalman" / "kalman_trajectory.csv") as fk:
        grid_rows, kalman_rows = list(csv.DictReader(fg)), list(csv.DictReader(fk))
    assert [(r["t"], r["side"]) for r in grid_rows] == [(r["t"], r["side"]) for r in kalman_rows]
    assert ("0.33329999999999999", "pre") in [(r["t"], r["side"]) for r in grid_rows]
    for g, k in zip(grid_rows, kalman_rows):
        assert abs(float(g["mean"]) - float(k["m_1"])) < 1e-3
        assert abs(float(g["var"]) - float(k["P_11"])) < 1e-3


def test_unknown_scenario_exits_2(tmp_path, run_cli):
    proc = run_cli(["simulate", "no_such_scenario", "--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 2, proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc2 = run_cli(["simulate", str(bad), "--out", str(tmp_path / "y")], tmp_path)
    assert proc2.returncode == 2, proc2.stderr


def test_malformed_descriptor_file_exits_2(tmp_path, run_cli):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "ou_kalman.json").read_text())
    cfg["model"]["drift"] = {"kind": "sum", "children": 5}
    path = tmp_path / "bad_drift.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["simulate", str(path), "--out", str(tmp_path / "x")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "drift" in proc.stderr


@pytest.mark.parametrize("edit, names", [
    (lambda cfg: cfg["filters"].update(resample_threshold=0.5), "resample_threshold"),
    (lambda cfg: cfg["schedule"].update(times=[0.5, 1.0, 1.5, 5.0]), "5.0 lies past the horizon 2.0"),
], ids=["retired_setting", "time_past_horizon"])
def test_scenario_outside_the_contract_exits_2(tmp_path, run_cli, edit, names):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "ou_kalman.json").read_text())
    edit(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    proc = run_cli(["simulate", str(path), "--paths", "3", "--out", str(out)], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and names in proc.stderr, proc.stderr
    assert not (out / "manifest.json").exists()


def test_empty_check_list_exits_2(tmp_path, run_cli):
    out = tmp_path / "diag"
    proc = run_cli(["diagnose", "ou_kalman", "--checks", ",", "--out", str(out)], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "names no check" in proc.stderr, proc.stderr
    assert not out.exists()


def test_diagnose_pass_and_negative_control(tmp_path, run_cli):
    out = tmp_path / "diag"
    proc = run_cli(
        [
            "diagnose", "ou_kalman", "--checks", "compensator",
            "--paths", "800", "--out", str(out),
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "diagnostics_report.json").read_text())
    assert report["all_passed"] is True
    assert report["checks"][0]["name"] == "compensator"

    nc_out = tmp_path / "diag-nc"
    proc_nc = run_cli(
        [
            "diagnose", "ou_kalman", "--checks", "compensator",
            "--paths", "2000", "--negative-control", "--out", str(nc_out),
        ],
        tmp_path,
    )
    assert proc_nc.returncode == 1, proc_nc.stderr
    nc_report = json.loads((nc_out / "diagnostics_report.json").read_text())
    assert nc_report["negative_control"] is True
    assert nc_report["all_passed"] is False


def test_help_and_version(tmp_path, run_cli):
    proc = run_cli(["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for sub in ("simulate", "filter", "diagnose"):
        assert sub in proc.stdout
    ver = run_cli(["--version"], tmp_path)
    assert ver.returncode == 0, ver.stderr
    assert "schedfilt" in ver.stdout


def test_simulate_blowup_exits_1_in_one_line(tmp_path, run_cli):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "ou_kalman.json").read_text())
    cfg["model"]["drift"] = {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}
    cfg["model"]["x0"] = [10.0]
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    proc = run_cli(["simulate", str(path), "--paths", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # the typed error alone, without numpy's overflow warnings before it
    assert proc.stderr.splitlines() == ["run failed: state became non-finite at t = 0.114"], proc.stderr
    assert not (out / "manifest.json").exists()


def _csv_writer_bytes(path: Path, header, columns) -> bytes:
    """The bytes csv.writer gives for these columns, each formatted by
    cli._cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*[cli._cells(column) for column in columns]))
    return path.read_bytes()


@pytest.mark.parametrize(
    "header, columns",
    [
        (
            ["t", "side", "x", "i", "v"],
            [
                np.array([-0.0, 5e-324, 1e300, np.inf, np.nan, -np.inf]),
                ["interior", "pre", "post", "interior", "pre", "post"],
                np.array(["pre", "post", "interior", "pre", "post", "interior"]),
                np.array([0, -3, 7, 2**40, 1, 2]),
                np.array([None, 1.5, None, -0.0, 2.0, np.nan], dtype=object),
            ],
        ),
        (["path_id", "t"], [np.zeros(0, dtype=int), np.zeros(0)]),
        (["t", "kalman_m"], [[0.5, 1.0], [None, 0.25]]),
        (["t", "x"], [cli._cells(np.array([0.1, 0.2])), np.array([1e-17, -2.5])]),
    ],
    ids=["every_cell_kind", "no_rows", "lists", "formatted_column"],
)
def test_csv_bytes_are_csv_writers(tmp_path, header, columns):
    cli._write_csv(tmp_path / "fast.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(tmp_path / "slow.csv", header, columns)


def test_csv_rows_end_in_crlf(tmp_path):
    assert cli._write_csv(tmp_path / "a.csv", ["a", "b"], [np.array([-0.0, 0.5]), [None, 2]]) == "a.csv"
    assert (tmp_path / "a.csv").read_bytes() == b"a,b\r\n-0,\r\n0.5,2\r\n"
