"""The four workloads.

A workload makes its inputs from the benchmark seed in `setup`, which the
runner repeats to time it, and runs once `warm_up`.  `ops(r)` lists the
operations of round r, or None when the workload has no fresh inputs
left.  Every round holds the same operations, so a run attempts whole
rounds and its failed share is the same whatever its length.  An
operation's `run` is timed; its `check` is not, and returns problems with
the output or raises OperationFailed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref


class OperationFailed(Exception):
    """The operation ran but did not do what was asked of it."""


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], list]
    steps: int  # work units the input asks for


def seeds(seed: int, code: int, n: int = 64) -> list[int]:
    """Independent nonnegative ints derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([seed, code]).generate_state(n)]


def n_steps(scenario) -> int:
    return int(round(scenario.horizon / scenario.dt))


def event_triples(events) -> list[tuple[float, float, float]]:
    return [(float(e.time), float(e.dy[0]), float(e.y_pre[0])) for e in events]


class Workload:
    name = ""
    min_rounds = 1  # rounds a run makes even when --seconds have passed

    def __init__(self, sf, seed: int, root: Path):
        self.sf = sf
        self.seed = seed
        self.root = root
        self.notes: list[str] = []  # check statistics, printed to stderr

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def ops(self, r: int) -> list[Op] | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ParticleFilter(Workload):
    """KS and Zakai particle filters over the whole horizon."""

    name = "particle_filter"
    presets = ("ou_kalman", "credit_risk", "njode_style")
    small, large = 20_000, 100_000  # the presets' default; acceptance criterion 2

    def setup(self) -> None:
        s = seeds(self.seed, 1)
        self.inputs = {}
        for k, name in enumerate(self.presets):
            scenario = self.sf.build_preset(name)
            events = self.sf.simulate.simulate_path(scenario, path_id=0, seed=s[k]).events
            self.inputs[name] = (scenario, events)
        self.filter_seeds = s[10:]
        self.last_ks = None

    def ops(self, r: int) -> list[Op]:
        plan = [(name, method, self.small) for name in self.presets for method in ("ks", "zakai")]
        plan.append(("ou_kalman", "ks", self.large))
        return [self._op(k, *job) for k, job in enumerate(plan)]

    def _op(self, k: int, name: str, method: str, n: int) -> Op:
        scenario, events = self.inputs[name]
        particle = self.sf.particle

        def run():
            return particle.run_particle_filter(scenario, events, method=method, n_particles=n, seed=self.filter_seeds[k])

        def check(traj):
            label = f"{name} {method} N={n}"
            ess = checks.effective_ess(traj.sides, traj.ess, [e.ess_pre for e in traj.events])
            if name == "njode_style":
                if method == "ks":
                    self.last_ks = (traj, ess)
                    return checks.finite(label, traj.means)
                ks, ks_ess = self.last_ks
                z, problems = checks.particle_pair_agree(
                    label, traj.times, ks.means[:, 0], ks.vars[:, 0], ks_ess, traj.means[:, 0], traj.vars[:, 0], ess
                )
            else:
                preset = ref.PRESETS[name]
                ref_m, ref_v = ref.filter_rows(preset, event_triples(events), traj.times, traj.sides)
                z, problems = checks.particle_vs_exact(
                    label, traj.times, traj.means[:, 0], traj.vars[:, 0], ess, ref_m, ref_v
                )
                problems += self._check_exact_filter(name, scenario, events, traj.times)
            self.notes.append(f"{label}: max z {z:.2f}")
            return problems

        return Op(run, check, n * n_steps(scenario))

    def _check_exact_filter(self, name, scenario, events, times) -> list:
        """The package's exact filter against the reference recursion."""
        kt = self.sf.kalman.run_filter(scenario, events, sorted(set(float(t) for t in times)))
        ref_m, ref_v = ref.filter_rows(ref.PRESETS[name], event_triples(events), kt.times, kt.sides)
        _, problems = checks.grid_vs_exact(f"{name} exact filter", kt.means[:, 0], kt.covs[:, 0, 0], ref_m, ref_v, tol=1e-9)
        return problems


class GridFilter(Workload):
    """grid_run_filter on a scenario seed the process has not seen, so each
    filter estimates a new domain and builds its kernel and powers cold, as
    every one-shot `schedfilt filter --method grid` does.  Four filters a
    round fill the 4-entry power cache in the first round, so peak memory
    does not depend on how many rounds a run makes."""

    name = "grid_filter"
    plan = (("ou_kalman", 0), ("credit_risk", 0), ("njode_style", 0), ("ou_kalman", 1))
    max_rounds = 8

    def setup(self) -> None:
        s = seeds(self.seed, 2)
        self.inputs = {}
        for k, (name, path_id) in enumerate(self.plan):
            scenario = self.sf.build_preset(name)
            self.inputs[name, path_id] = self.sf.simulate.simulate_path(scenario, path_id=path_id, seed=s[k]).events
        # fresh scenario seeds give fresh grid domains
        self.scenarios = [
            [self.sf.build_preset(name, seed=s[16 + r * len(self.plan) + k]) for k, (name, _) in enumerate(self.plan)]
            for r in range(self.max_rounds)
        ]

    def ops(self, r: int) -> list[Op] | None:
        if r >= self.max_rounds:
            return None
        return [self._op(self.scenarios[r][k], name, path_id) for k, (name, path_id) in enumerate(self.plan)]

    def _op(self, scenario, name: str, path_id: int) -> Op:
        events = self.inputs[name, path_id]
        grid = self.sf.grid

        def run():
            return grid.grid_run_filter(scenario, events)

        def check(traj):
            preset = ref.PRESETS[name]
            label = f"{name} grid path {path_id}"
            if name == "njode_style":
                worst, problems = checks.grid_follows_flow(label, preset, traj.times, traj.sides, traj.means[:, 0], traj.vars[:, 0])
            else:
                ref_m, ref_v = ref.filter_rows(preset, event_triples(events), traj.times, traj.sides)
                worst, problems = checks.grid_vs_exact(label, traj.means[:, 0], traj.vars[:, 0], ref_m, ref_v)
            self.notes.append(f"{label}: max deviation {worst:.2e}")
            return problems

        return Op(run, check, scenario.filters.grid_nodes * n_steps(scenario))


class StructureChecks(Workload):
    """The four diagnostics on the linear presets, plainly and as negative
    controls, as scripts/run_all_diagnostics.py runs them."""

    name = "structure_checks"
    presets = ("ou_kalman", "credit_risk")
    # Sizes of the script's --fast mode, with one KS-residual run and one
    # Zakai run so that a round stays near 15 s on one core.  The
    # martingale check keeps 10,000 paths: below ~6,000 its negative
    # control on ou_kalman loses the power to fail.
    sizes = {
        "compensator": {"n_paths": 2000},
        "martingale": {"n_paths": 10_000},
        "ks-residual": {"n_runs": 1},
        "zakai": {"n_runs": 1, "n_particles": 5000},
    }
    # The 3-SE Monte Carlo checks fail by chance on a few per cent of seeds
    # (seed 5 fails the Zakai reference-martingale subcheck), and on
    # credit_risk the KS-residual negative control passes on 7 of 40 single
    # paths, so all checks run at seed 0, the default of
    # scripts/run_all_diagnostics.py, and `correct` does not depend on luck.
    # The benchmark seed sets the scenario seed, and with it the grid
    # domain of the KS-residual check, so each seed builds a new kernel.
    check_seed = 0
    # A round takes 13-19 s; two of them halve the weight of a slow burst
    # of the shared machine.
    min_rounds = 2
    # Dropping the jump sum biases M_t by the expected jump effect, which
    # for credit_risk's small jumps stays under 3 SE at 10,000 paths.
    powerless = {"credit_risk": ("martingale_Mphi",)}

    def setup(self) -> None:
        s = seeds(self.seed, 3)
        self.scenarios = {name: self.sf.build_preset(name, seed=s[k]) for k, name in enumerate(self.presets)}

    def warm_up(self) -> None:
        """Build each preset's grid kernel and powers up to 64 steps."""
        grid = self.sf.grid
        for scenario in self.scenarios.values():
            density = grid.init_density(grid.make_grid(scenario), float(scenario.x0[0]))
            grid.grid_propagate(density, scenario, 64 * scenario.dt)

    def ops(self, r: int) -> list[Op]:
        return [self._op(name, negative) for name in self.presets for negative in (False, True)]

    def _op(self, name: str, negative: bool) -> Op:
        scenario = self.scenarios[name]
        diagnostics = self.sf.diagnostics

        def run():
            return diagnostics.run_checks(scenario, self.sizes, seed=self.check_seed, negative_control=negative, **self.sizes)

        def check(reports):
            label = f"{name} {'negative control' if negative else 'plain'}"
            dicts = [rep.to_dict() for rep in reports]
            self.notes.append(label + ": " + ", ".join(f"{d['name']}={'PASS' if d['passed'] else 'FAIL'}({d['statistic']:.3g})" for d in dicts))
            return checks.structure_reports(label, dicts, negative, self.powerless.get(name, ()))

        mc_paths = self.sizes["compensator"]["n_paths"] + self.sizes["martingale"]["n_paths"]
        return Op(run, check, mc_paths * n_steps(scenario))


class SimulatePaths(Workload):
    """`schedfilt simulate` on every preset, in process through cli.main,
    writing CSV files that the check reads back."""

    name = "simulate_paths"
    presets = ("ou_kalman", "credit_risk", "njode_style", "medical")
    n_paths = 24
    # A round takes 5-7 s, and pure-Python work like this drifts most with
    # the load of the shared machine: six rounds average over 30-40 s.
    min_rounds = 6

    def setup(self) -> None:
        self.out = self.root / ".perfbench_out" / "simulate_paths"
        self.scenarios = {name: self.sf.build_preset(name) for name in self.presets}
        self.cli_seed = seeds(self.seed, 4)[0]

    def ops(self, r: int) -> list[Op]:
        return [self._op(name) for name in self.presets]

    def _op(self, name: str) -> Op:
        scenario = self.scenarios[name]
        out = self.out / name
        argv = ["simulate", name, "--paths", str(self.n_paths), "--seed", str(self.cli_seed), "--out", str(out)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.sf.cli.main(argv)

        def check(code):
            if code != 0:
                return [f"{name}: schedfilt simulate exited {code}"]
            paths = [_read_csv(out / f"path_{p:04d}.csv") for p in range(self.n_paths)]
            events = [_read_csv(out / f"events_{p:04d}.csv") for p in range(self.n_paths)]
            if scenario.schedule.kind == "threshold":
                if not any(len(ev) for ev in events):
                    raise OperationFailed(f"{name}: threshold schedule yielded no event in {self.n_paths} paths")
                return checks.simulated_batch(name, paths, events, None, None)
            preset = ref.PRESETS[name]
            moments = ref.unconditional_moments(preset, scenario.horizon)
            return checks.simulated_batch(name, paths, events, preset.event_times, moments)

        return Op(run, check, self.n_paths * n_steps(scenario))

    def close(self) -> None:
        shutil.rmtree(self.root / ".perfbench_out", ignore_errors=True)


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


WORKLOADS = {w.name: w for w in (ParticleFilter, GridFilter, StructureChecks, SimulatePaths)}
