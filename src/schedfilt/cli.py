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
import functools
import inspect
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
from .simulate import _MERGE_TOL, ObservationEvent, simulate_path
from .testfns import clipped_identity, clipped_square

OUT_ROOT_ENV = "SCHEDFILT_OUT"


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


def _write_json(path: Path, data) -> str:
    """Write data as indented JSON with sorted keys; returns the name."""
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# simulate

def _path_columns(result, path_id: int, t_cells: list) -> list:
    path = result.path
    index = np.zeros(path.t.shape[0], dtype=int)
    for k, ev in zip(path.event_rows, result.events):
        index[k] = ev.index  # a row with several events shows the last
    return [np.full(index.shape, path_id), t_cells, *path.x.T, *path.y.T, (index > 0).astype(int), index]


def _write_events(path: Path, events, path_id: int, n: int) -> str:
    """Write the events of one path, one row an event; returns the name."""
    header = ["path_id", "i", "T_i"] + [f"dY_{j + 1}" for j in range(n)]
    dy = np.reshape([ev.dy for ev in events], (len(events), n))
    index = np.array([ev.index for ev in events], dtype=int)
    columns = [np.full(index.shape, path_id), index, np.array([ev.time for ev in events], dtype=float), *dy.T]
    return _write_csv(path, header, columns)


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

    # one simulate_path call a path, the unit perfbench/tracer.py times and
    # counts steps on; simulate_batch would step them as blocks
    written = []
    t_cells = None  # every path of a scenario has the same time grid
    for p in range(args.paths):
        result = simulate_path(scenario, path_id=p, seed=seed)
        t_cells = t_cells or _cells(result.path.t)
        written.append(_write_csv(out / f"path_{p:04d}.csv", path_header, _path_columns(result, p, t_cells)))
        written.append(_write_events(out / f"events_{p:04d}.csv", result.events, p, n))
    _write_manifest(out, args, canonical, seed, written)
    print(f"wrote {len(written)} files to {out}")
    return 0


# ---------------------------------------------------------------------------
# filter

def _load_events(path: Path, path_id: int, scenario: ValidatedScenario) -> list:
    """The events of one path in an events CSV, in `i` order; Y- accumulates
    from zero.  They must be events the scenario's schedule fires: times that
    do not decrease, each within _MERGE_TOL of the k-th fixed time or of an
    observation-grid time, and no more events than the schedule holds."""
    n, schedule = scenario.n, scenario.schedule
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["path_id"]) == path_id]
        rows = [(int(r["i"]), float(r["T_i"]), [float(r[f"dY_{j + 1}"]) for j in range(n)]) for r in rows]
    except (OSError, KeyError, TypeError, ValueError) as exc:  # TypeError: a row short of cells
        raise CliError(2, f"could not read events from {path}: {exc}") from exc
    if not rows:
        raise CliError(2, f"no event in {path} has path id {path_id}")
    if not np.all(np.isfinite([[t, *dy] for _, t, dy in rows])):
        raise CliError(2, f"the events of path id {path_id} in {path} hold a non-finite time or increment")
    rows.sort(key=lambda r: r[0])
    times = [t for _, t, _ in rows]
    if schedule.kind == "deterministic":
        slots = schedule.times
    else:  # the nearest observation-grid time
        slots = [min(schedule.obs_grid, key=lambda s: abs(s - t)) for t in times]
    on_schedule = all(abs(t - s) <= _MERGE_TOL for t, s in zip(times, slots))  # false for a NaN time
    if len(rows) > schedule.n_events or times != sorted(times) or not on_schedule:
        raise CliError(2, f"the events of path id {path_id} in {path} are not on the scenario's schedule")
    y_pre = np.cumsum([np.zeros(n), *(dy for *_, dy in rows)], axis=0)
    return [ObservationEvent(i, t, np.array(dy), y) for (i, t, dy), y in zip(rows, y_pre)]


def _run_kalman(scenario: ValidatedScenario, events, seed: int, args) -> tuple:
    """Kalman trajectory; innovation data sits on the post row."""
    m, n = scenario.m, scenario.n
    traj = run_kalman_filter(scenario, events, scenario.reporting_times)
    T = len(traj.sides)
    index = np.zeros(T, dtype=int)
    innovation = np.full((T, n + n * n + m * n), None, dtype=object)
    pre_rows = [k for k, side in enumerate(traj.sides) if side == "pre"]
    for i, (k, ev) in enumerate(zip(pre_rows, traj.events), 1):  # each post row follows its pre row
        index[k : k + 2] = i
        innovation[k + 1] = np.concatenate([np.ravel(part) for part in (ev.innovation, ev.pred_cov, ev.gain)])
    header = (
        ["t", "side"]
        + [f"m_{i + 1}" for i in range(m)]
        + [f"P_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
        + ["event_index"]
        + [f"v_{i + 1}" for i in range(n)]
        + [f"S_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        + [f"K_{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    )
    columns = [traj.times, traj.sides, *traj.means.T, *traj.covs.reshape(T, m * m).T, index, *innovation.T]
    return traj, {"kalman_trajectory.csv": (header, columns)}, {"kalman_m": traj.means[:, 0], "kalman_P": traj.covs[:, 0, 0]}


def _run_particle(mode: str, scenario: ValidatedScenario, events, seed: int, args) -> tuple:
    """One row per phi at every reported time but the pre-event ones."""
    # cap 1e6 makes the smooth clip exact to ~1e-13 on any sane domain
    phis = [clipped_identity(1e6, name="x"), clipped_square(1e6, name="x_squared")]
    traj = run_particle_filter(scenario, events, method=mode, n_particles=args.particles, seed=seed, phis=phis)
    names = [phi.name for phi in phis]
    rows = np.array([k for k, side in enumerate(traj.sides) if side != "pre"], dtype=int)
    ks = np.repeat(rows, len(names))

    def per_phi(values: dict) -> np.ndarray:
        return np.stack([values[name] for name in names], axis=1)[rows].ravel()

    header = ["t", "phi_name", "estimate", "estimate_se", "ess", "log_rho1"]
    columns = [traj.times[ks], names * len(rows), per_phi(traj.phi_estimates), per_phi(traj.phi_se), traj.ess[ks], traj.log_mass[ks]]
    return traj, {f"{mode}_trajectory.csv": (header, columns)}, {f"{mode}_m": traj.means[:, 0]}


def _run_grid(scenario: ValidatedScenario, events, seed: int, args) -> tuple:
    traj = grid_run_filter(scenario, events, n_nodes=args.nodes, collect_densities=args.dump_density)
    files = {"grid_trajectory.csv": (["t", "side", "mean", "var"], [traj.times, traj.sides, traj.means[:, 0], traj.vars[:, 0]])}
    if args.dump_density:
        G, T = traj.x.size, len(traj.densities)
        density = [np.repeat(traj.times, G), np.repeat(traj.sides, G), np.tile(traj.x, T), np.ravel(traj.densities)]
        files["grid_density.csv"] = (["t", "side", "node_x", "p"], density)
    return traj, files, {"grid_m": traj.means[:, 0], "grid_P": traj.vars[:, 0]}


# Each --method value and its runner, in the column order of comparison.csv.
# A runner returns the trajectory, its files as name -> (header, columns) and
# its columns of comparison.csv, one value a trajectory row.
FILTERS = {
    "kalman": _run_kalman,
    "ks-particle": functools.partial(_run_particle, "ks"),
    "zakai-particle": functools.partial(_run_particle, "zakai"),
    "grid": _run_grid,
}


def cmd_filter(args) -> int:
    scenario, canonical = _load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    if args.events is not None:
        events = _load_events(Path(args.events), args.path_id, scenario)
    else:
        events = simulate_path(scenario, path_id=args.path_id, seed=seed).events

    ran, skipped, files, comparison = [], [], {}, {}
    for method, runner in FILTERS.items():
        if args.method not in (method, "all"):
            continue
        try:
            traj, method_files, columns = runner(scenario, events, seed, args)
        except UnsupportedScenario as exc:
            if args.method != "all":
                raise
            skipped.append(method)
            print(f"skipping {method}: {exc}", file=sys.stderr)
            continue
        ran.append(method)
        files.update(method_files)
        comparison.update(columns)

    if not ran:
        raise IncompatibleMethod("no requested filter applies to this scenario")

    if args.method == "all":
        # every filter reports the rows of model.walk_events, in time order:
        # keep the last row at each time, so post beats pre
        times = [round(float(t), 10) for t in traj.times]
        last = [k for k in range(len(times)) if k + 1 == len(times) or times[k + 1] != times[k]]
        table = [[times[k] for k in last], *(values[last] for values in comparison.values())]
        files["comparison.csv"] = (["t", *comparison], table)

    # the directory is made only once every filter has run, so a refused
    # or failed run leaves nothing behind
    out = _out_dir(args, "filter")
    written = [_write_events(out / "events_used.csv", events, args.path_id, scenario.n)]
    written += [_write_csv(out / name, header, cols) for name, (header, cols) in files.items()]
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
    names = [c.strip() for c in args.checks.split(",") if c.strip()] if args.checks is not None else sorted(CHECKS)
    if not names:
        raise CliError(2, f"--checks names no check; known: {', '.join(sorted(CHECKS))}")
    for name in names:
        if name not in CHECKS:
            raise CliError(2, f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")

    # each size flag given goes to every selected check that takes it
    sizes = {"n_paths": args.paths, "n_runs": args.runs, "n_particles": args.particles}
    overrides = {
        name: {key: value for key, value in sizes.items() if value is not None and key in inspect.signature(CHECKS[name]).parameters}
        for name in names
    }
    reports = run_checks(scenario, names, seed=seed, negative_control=args.negative_control, **overrides)
    payload = {
        "scenario": args.scenario,
        "seed": int(seed),
        "negative_control": bool(args.negative_control),
        "checks": [rep.to_dict() for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    out = _out_dir(args, "diagnose")
    _write_manifest(out, args, canonical, seed, [_write_json(out / "diagnostics_report.json", payload)])

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


def _nonnegative(text: str) -> int:
    """A seed or path id; refused at parse time, before any directory exists."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
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
        p.add_argument("--seed", type=_nonnegative, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ROOT_ENV}/<subcommand>)")

    p_sim = sub.add_parser("simulate", help="draw paths and dump them as CSV")
    common(p_sim)
    p_sim.add_argument("--paths", type=_count, default=10, help="number of independent paths")
    p_sim.set_defaults(func=cmd_simulate)

    p_fil = sub.add_parser("filter", help="run filters along one event sequence")
    common(p_fil)
    p_fil.add_argument("--method", choices=[*FILTERS, "all"], default="all")
    p_fil.add_argument("--events", default=None, help="events CSV to filter on (default: simulate one path)")
    p_fil.add_argument("--path-id", type=_nonnegative, default=0, help="path id to simulate or select from --events")
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
