"""Per-layer timing for the traced run.

The tracer replaces chosen module-level functions of schedfilt with timing
wrappers.  It patches every module attribute and every module-level dict
value that holds the original function, so calls made from inside the
package (``from .simulate import simulate_path`` in the CLI, the
``diagnostics.CHECKS`` registry, a module calling its own globals) are
caught too.  A wrapper records the call count, the busy (inclusive) time
and the self time, which is busy time minus that of traced calls nested
inside it.  Optional hooks add counters at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "schedfilt"

# Functions timed per layer.  Helpers a function uses without being listed
# here (testfns and quad under diagnostics, per-row statistics in the
# run_particle_filter) count toward that function's self time.
TRACED = {
    "model": ("validate",),
    "simulate": ("simulate_path", "run_ensemble"),
    "kalman": ("run_filter", "filter_events_vectorized"),
    "particle": ("propagate", "ks_update", "zakai_update", "run_particle_filter"),
    "grid": ("estimate_domain", "grid_propagate", "grid_event_update", "grid_nu_integral", "grid_run_filter"),
    "diagnostics": ("check_compensator", "check_martingale_Mphi", "check_ks_residual", "check_zakai"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.ess_min = float("inf")
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._seen_grids: set = set()
        self._hooks = {
            "simulate.simulate_path": self._count_path_steps,
            "particle.propagate": self._count_particle_steps,
            "particle.ks_update": self._count_update,
            "particle.zakai_update": self._count_update,
            "grid.grid_propagate": self._split_cold_warm,
            "cli.main": self._count_bytes,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original, False))
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._patched.append((value, key, original, True))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(args, kwargs) if hook else None
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self.busy[name] += dur
                self.self_time[name] += dur - child
                self.calls[name] += 1
            if after:
                after(result, dur)
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _count_path_steps(self, args, kwargs):
        def after(result, dur):
            self.counters["simulate.steps"] += len(result.path.t) - 1

        return after

    def _count_particle_steps(self, args, kwargs):
        ensemble, scenario, t_end = args[0], args[1], args[2]
        span = float(t_end) - ensemble.time
        steps = 0 if span <= 1e-12 else int(-(-(span - 1e-12) // scenario.dt))
        n = ensemble.n

        def after(result, dur):
            self.counters["particle.particle_steps"] += n * steps

        return after

    def _count_update(self, args, kwargs):
        def after(record, dur):
            self.counters["particle.resamples"] += int(record.resampled)
            self.ess_min = min(self.ess_min, float(record.ess_pre))

        return after

    def _split_cold_warm(self, args, kwargs):
        density, scenario = args[0], args[1]
        substep = args[3] if len(args) > 3 else kwargs.get("substep")
        key = (float(density.x[0]), float(density.x[-1]), density.x.size, substep or scenario.dt)
        cold = key not in self._seen_grids
        self._seen_grids.add(key)

        def after(result, dur):
            self.counters["grid.grid_propagate.cold_s" if cold else "grid.grid_propagate.warm_s"] += dur

        return after

    def _count_bytes(self, args, kwargs):
        argv = list(args[0] if args else kwargs.get("argv") or [])

        def after(result, dur):
            if "--out" in argv:
                out = Path(argv[argv.index("--out") + 1])
                self.counters["cli.bytes_written"] += sum(f.stat().st_size for f in out.iterdir() if f.is_file())

        return after

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark declares, 0 where unused."""
        out: dict[str, float] = {}
        for name in (
            "model.validate",
            "simulate.simulate_path",
            "simulate.run_ensemble",
            "kalman.filter_events_vectorized",
            "kalman.run_filter",
            "particle.propagate",
            "particle.ks_update",
            "particle.zakai_update",
            "grid.estimate_domain",
            "grid.grid_event_update",
            "grid.grid_nu_integral",
        ):
            out[f"{name}.busy_s"] = self.busy[name]
        for name in (
            "particle.run_particle_filter",
            "grid.grid_run_filter",
            "diagnostics.check_compensator",
            "diagnostics.check_martingale_Mphi",
            "diagnostics.check_ks_residual",
            "diagnostics.check_zakai",
            "cli.main",
        ):
            out[f"{name}.self_s"] = self.self_time[name]
        out["particle.propagate.calls"] = self.calls["particle.propagate"]
        out["grid.grid_event_update.calls"] = self.calls["grid.grid_event_update"]
        for name in (
            "simulate.steps",
            "particle.particle_steps",
            "particle.resamples",
            "grid.grid_propagate.cold_s",
            "grid.grid_propagate.warm_s",
            "cli.bytes_written",
        ):
            out[name] = self.counters[name]
        out["particle.ess_min"] = 0.0 if self.ess_min == float("inf") else self.ess_min
        return out
