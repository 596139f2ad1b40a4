"""Command line front end.

Three subcommands:

    simulate   draw signal/observation paths, dump them as CSV
    filter     run one or all filters along a realized event sequence
    diagnose   run the consistency check battery, emit a JSON report

Every run that completes writes a `manifest.json` into the output
directory after its data files, recording the resolved scenario hash,
seed, command line and the list of files the run wrote; a run that fails
writes none.  Re-running the same command with the same scenario and seed
reproduces every data file byte for byte; set SOURCE_DATE_EPOCH to also
pin the manifest timestamp.

Exit codes: 0 success (all checks passed), 1 a check or numerical run
failed, 2 bad configuration or I/O, 3 method incompatible with scenario.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import CHECKS, report_table, run_checks
from .errors import IncompatibleMethod, SchedFiltError, UnsupportedScenario, ValidationError
from .grid import grid_run_filter
from .kalman import run_filter as run_kalman_filter
from .model import ValidatedScenario, scenario_from_json, scenario_to_json, validate
from .particle import run_particle_filter
from .presets import PRESETS, build_preset
from .simulate import ObservationEvent, simulate_path
from .testfns import clipped_identity, clipped_square

OUT_ROOT_ENV = "SCHEDFILT_OUT"

FILTER_METHODS = ("kalman", "ks-particle", "zakai-particle", "grid")


class CliError(Exception):
    """User-facing error with a fixed exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# formatting and small helpers

def _cells(column) -> list[str]:
    """One CSV column as text, in one pass: floats at full round-trip
    precision, integers and strings as they are, None (no value) empty; a
    list of strings, such as a column formatted once for many files, is kept."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return [format(v, ".17g") for v in column.tolist()]
    if column.dtype.kind == "O":
        return ["" if v is None else format(v, ".17g") for v in column.tolist()]
    return [str(v) for v in column.tolist()]


def _write_csv(path: Path, header: list, columns) -> str:
    """Write a CSV file from its columns, all of one length, in one call;
    returns its name.  The bytes are those of `csv.writer` (CRLF rows), since
    no header or cell here holds a comma, a quote or a line break."""
    cells = [_cells(column) for column in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(map(",".join, [header, *zip(*cells)])) + "\r\n")
    return path.name


def _load_scenario(source: str) -> tuple[ValidatedScenario, str]:
    """Resolve a preset name or a JSON file path.

    Returns the validated scenario and its canonical JSON text, which is
    what the manifest hashes (so a preset and a file with the same content
    get the same hash).
    """
    if source in PRESETS:
        scenario = build_preset(source)
    else:
        path = Path(source)
        if not path.is_file():
            raise CliError(2, f"scenario {source!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file")
        try:
            scenario = validate(scenario_from_json(path.read_text(encoding="utf-8")))
        except ValueError as exc:  # ValidationError and JSONDecodeError among them
            raise CliError(2, f"could not load scenario from {source}: {exc}") from exc
    return scenario, scenario_to_json(scenario.config)


def _out_dir(args, subcommand: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "schedfilt-out")) / subcommand
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, canonical_json: str, seed: int, outputs: list) -> None:
    """Record provenance once the data files are written."""
    import hashlib  # here, not at module level: nothing else needs it, and it adds to import time
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    manifest = {
        "tool": "schedfilt",
        "version": __version__,
        "command": list(sys.argv[1:]) or [args.subcommand],
        "subcommand": args.subcommand,
        "scenario_source": args.scenario,
        "scenario_sha256": hashlib.sha256(canonical_json.encode("utf-8")).hexdigest(),
        "seed": int(seed),
        "created_unix": int(stamp) if stamp is not None else int(time.time()),
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate

def _path_columns(result, path_id: int, t_cells: list) -> list:
    path = result.path
    index = np.zeros(path.t.shape[0], dtype=int)
    for k, ev in zip(path.event_rows, result.events):
        index[k] = ev.index  # a row with several events shows the last
    return [np.full(index.shape, path_id), t_cells, *path.x.T, *path.y.T, (index > 0).astype(int), index]


def _event_columns(events, path_id: int, n: int) -> list:
    dy = np.reshape([ev.dy for ev in events], (len(events), n))
    index = np.array([ev.index for ev in events], dtype=int)
    return [np.full(index.shape, path_id), index, np.array([ev.time for ev in events], dtype=float), *dy.T]


def cmd_simulate(args) -> int:
    scenario, canonical = _load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    m, n = scenario.m, scenario.n
    out = _out_dir(args, "simulate")

    path_header = (
        ["path_id", "t"]
        + [f"x_{j + 1}" for j in range(m)]
        + [f"y_{j + 1}" for j in range(n)]
        + ["is_jump_time", "event_index"]
    )
    event_header = ["path_id", "i", "T_i"] + [f"dY_{j + 1}" for j in range(n)]

    # one simulate_path call a path, the unit perfbench/tracer.py times and
    # counts steps on; simulate_batch would step them as blocks
    written = []
    t_cells = None  # every path of a scenario has the same time grid
    for p in range(args.paths):
        result = simulate_path(scenario, path_id=p, seed=seed)
        t_cells = t_cells or _cells(result.path.t)
        written.append(_write_csv(out / f"path_{p:04d}.csv", path_header, _path_columns(result, p, t_cells)))
        written.append(_write_csv(out / f"events_{p:04d}.csv", event_header, _event_columns(result.events, p, n)))
    _write_manifest(out, args, canonical, seed, written)
    print(f"wrote {len(written)} files to {out}")
    return 0


# ---------------------------------------------------------------------------
# filter

def _load_events(path: Path, path_id: int, n: int) -> list:
    """The events of one path in an events CSV; Y- accumulates from zero."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = [r for r in reader if int(r["path_id"]) == path_id]
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(2, f"could not read events from {path}: {exc}") from exc
    if not rows:
        raise CliError(2, f"no event in {path} has path id {path_id}")
    rows.sort(key=lambda r: int(r["i"]))
    events = []
    y = np.zeros(n)
    for r in rows:
        dy = np.array([float(r[f"dY_{j + 1}"]) for j in range(n)])
        events.append(ObservationEvent(int(r["i"]), float(r["T_i"]), dy, y.copy()))
        y = y + dy
    return events


def _kalman_columns(traj, m: int, n: int) -> list:
    """Columns of a Kalman trajectory; innovation data sits on the post row."""
    T = len(traj.sides)
    index = np.zeros(T, dtype=int)
    innovation = np.full((T, n + n * n + m * n), None, dtype=object)
    pre_rows = [k for k, side in enumerate(traj.sides) if side == "pre"]
    for k, ev in zip(pre_rows, traj.events):  # each post row follows its pre row
        index[k : k + 2] = ev.index
        innovation[k + 1] = np.concatenate([np.ravel(part) for part in (ev.innovation, ev.pred_cov, ev.gain)])
    return [traj.times, traj.sides, *traj.means.T, *traj.covs.reshape(T, m * m).T, index, *innovation.T]


def _particle_columns(traj, phis: list) -> list:
    """One row per phi at every reported time but the pre-event ones."""
    rows = np.array([k for k, side in enumerate(traj.sides) if side != "pre"], dtype=int)
    ks = np.repeat(rows, len(phis))

    def per_phi(values: dict) -> np.ndarray:
        return np.stack([values[name] for name in phis], axis=1)[rows].ravel()

    estimates, ses = per_phi(traj.phi_estimates), per_phi(traj.phi_se)
    return [traj.times[ks], phis * len(rows), estimates, ses, traj.ess[ks], traj.log_mass[ks]]


def _density_columns(traj) -> list:
    G, T = traj.x.size, len(traj.densities)
    return [np.repeat(traj.times, G), np.repeat(traj.sides, G), np.tile(traj.x, T), np.ravel(traj.densities)]


def _final_by_time(times, sides, values) -> dict:
    """Last reported value at each distinct time (post overrides pre)."""
    out = {}
    for t, _side, v in zip(times, sides, values):
        out[round(float(t), 10)] = float(v)
    return out


def cmd_filter(args) -> int:
    scenario, canonical = _load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    m, n = scenario.m, scenario.n
    out = _out_dir(args, "filter")
    methods = list(FILTER_METHODS) if args.method == "all" else [args.method]

    file_for = {
        "kalman": "kalman_trajectory.csv",
        "ks-particle": "ks_trajectory.csv",
        "zakai-particle": "zakai_trajectory.csv",
        "grid": "grid_trajectory.csv",
    }

    if args.events is not None:
        events = _load_events(Path(args.events), args.path_id, n)
    else:
        events = simulate_path(scenario, path_id=args.path_id, seed=seed).events
    event_header = ["path_id", "i", "T_i"] + [f"dY_{j + 1}" for j in range(n)]
    written = [_write_csv(out / "events_used.csv", event_header, _event_columns(events, args.path_id, n))]

    reporting = scenario.reporting_times
    columns: dict[str, dict] = {}
    ran: list[str] = []
    skipped: list[str] = []

    for method in methods:
        try:
            if method == "kalman":
                traj = run_kalman_filter(scenario, events, reporting)
                header = (
                    ["t", "side"]
                    + [f"m_{i + 1}" for i in range(m)]
                    + [f"P_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
                    + ["event_index"]
                    + [f"v_{i + 1}" for i in range(n)]
                    + [f"S_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
                    + [f"K_{i + 1}{j + 1}" for i in range(m) for j in range(n)]
                )
                written.append(_write_csv(out / file_for[method], header, _kalman_columns(traj, m, n)))
                columns["kalman_m"] = _final_by_time(traj.times, traj.sides, traj.means[:, 0])
                columns["kalman_P"] = _final_by_time(traj.times, traj.sides, traj.covs[:, 0, 0])
            elif method in ("ks-particle", "zakai-particle"):
                mode = "ks" if method == "ks-particle" else "zakai"
                # cap 1e6 makes the smooth clip exact to ~1e-13 on any sane domain
                phis = [clipped_identity(1e6, name="x"), clipped_square(1e6, name="x_squared")]
                traj = run_particle_filter(
                    scenario,
                    events,
                    method=mode,
                    n_particles=args.particles,
                    seed=seed,
                    reporting_times=reporting,
                    phis=phis,
                )
                header = ["t", "phi_name", "estimate", "estimate_se", "ess", "log_rho1"]
                written.append(_write_csv(out / file_for[method], header, _particle_columns(traj, [p.name for p in phis])))
                key = "ks_m" if mode == "ks" else "zakai_m"
                columns[key] = _final_by_time(traj.times, traj.sides, traj.means[:, 0])
            elif method == "grid":
                traj = grid_run_filter(
                    scenario, events, reporting, n_nodes=args.nodes, collect_densities=args.dump_density
                )
                grid_columns = [traj.times, traj.sides, traj.means[:, 0], traj.vars[:, 0]]
                written.append(_write_csv(out / file_for[method], ["t", "side", "mean", "var"], grid_columns))
                if args.dump_density:
                    written.append(_write_csv(out / "grid_density.csv", ["t", "side", "node_x", "p"], _density_columns(traj)))
                columns["grid_m"] = _final_by_time(traj.times, traj.sides, traj.means[:, 0])
                columns["grid_P"] = _final_by_time(traj.times, traj.sides, traj.vars[:, 0])
        except UnsupportedScenario as exc:
            if args.method != "all":
                raise
            skipped.append(method)
            print(f"skipping {method}: {exc}", file=sys.stderr)
            continue
        ran.append(method)

    if not ran:
        raise IncompatibleMethod("no requested filter applies to this scenario")

    if args.method == "all":
        col_names = [c for c in ("kalman_m", "kalman_P", "ks_m", "zakai_m", "grid_m", "grid_P") if c in columns]
        times = sorted(set().union(*(columns[c] for c in col_names)))
        comparison = [times] + [[columns[c].get(t) for t in times] for c in col_names]
        written.append(_write_csv(out / "comparison.csv", ["t"] + col_names, comparison))
    _write_manifest(out, args, canonical, seed, written)

    print(f"ran {', '.join(ran)} on {len(events)} events; output in {out}")
    if skipped:
        print(f"skipped (incompatible): {', '.join(skipped)}")
    return 0


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args) -> int:
    scenario, canonical = _load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    out = _out_dir(args, "diagnose")

    names = [c.strip() for c in args.checks.split(",") if c.strip()] if args.checks else sorted(CHECKS)
    for name in names:
        if name not in CHECKS:
            raise CliError(2, f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")

    overrides: dict[str, dict] = {name: {} for name in names}
    if args.paths is not None:
        for name in ("compensator", "martingale"):
            if name in overrides:
                overrides[name]["n_paths"] = args.paths
    if args.runs is not None:
        for name in ("ks-residual", "zakai"):
            if name in overrides:
                overrides[name]["n_runs"] = args.runs
    if args.particles is not None and "zakai" in overrides:
        overrides["zakai"]["n_particles"] = args.particles

    reports = run_checks(scenario, names, seed=seed, negative_control=args.negative_control, **overrides)
    payload = {
        "scenario": args.scenario,
        "seed": int(seed),
        "negative_control": bool(args.negative_control),
        "checks": [rep.to_dict() for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    with open(out / "diagnostics_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, args, canonical, seed, ["diagnostics_report.json"])

    print(report_table(reports))
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing

def _count(text: str) -> int:
    """A count of at least one; argparse exits 2 on anything else."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedfilt",
        description="Filtering for jump diffusions observed at scheduled or threshold-triggered times.",
    )
    parser.add_argument("--version", action="version", version=f"schedfilt {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("scenario", help="preset name or path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ROOT_ENV}/<subcommand>)")

    p_sim = sub.add_parser("simulate", help="draw paths and dump them as CSV")
    common(p_sim)
    p_sim.add_argument("--paths", type=_count, default=10, help="number of independent paths")
    p_sim.set_defaults(func=cmd_simulate)

    p_fil = sub.add_parser("filter", help="run filters along one event sequence")
    common(p_fil)
    p_fil.add_argument("--method", choices=FILTER_METHODS + ("all",), default="all")
    p_fil.add_argument("--events", default=None, help="events CSV to filter on (default: simulate one path)")
    p_fil.add_argument("--path-id", type=int, default=0, help="path id to simulate or select from --events")
    p_fil.add_argument("--particles", type=int, default=None, help="particle count override")
    p_fil.add_argument("--nodes", type=int, default=None, help="grid node count override")
    p_fil.add_argument("--dump-density", action="store_true", help="also dump grid densities")
    p_fil.set_defaults(func=cmd_filter)

    p_diag = sub.add_parser("diagnose", help="run consistency checks")
    common(p_diag)
    p_diag.add_argument("--checks", default=None, help=f"comma list from: {', '.join(sorted(CHECKS))}")
    p_diag.add_argument("--paths", type=_count, default=None, help="Monte Carlo paths for path-based checks")
    p_diag.add_argument("--runs", type=_count, default=None, help="independent runs for per-run checks")
    p_diag.add_argument("--particles", type=int, default=None, help="particle count for particle checks")
    p_diag.add_argument("--negative-control", action="store_true",
                        help="deliberately break each check; it must then fail")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except UnsupportedScenario as exc:
        print(f"incompatible: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except SchedFiltError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
