"""schedfilt benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload particle_filter --seed 1 --seconds 10 --trace 0

The package is imported from ./src.  The run sets up the workload's
inputs from --seed (several times, to time set-up), runs whole rounds of
its operations until --seconds have passed and the workload's min_rounds
are done, checks every output, and prints one JSON object as the last
line of standard output.

A round's operations differ in size (a 100,000-particle filter next to
20,000-particle ones), so the median of single operation times would jump
between neighbours from run to run.  Each operation of the round is
instead timed in every round, and its median over the rounds taken; op_s
is the mean of these medians, the mean operation time of a typical round.
A slow burst of the shared machine that hits one operation in one round
then moves op_s only when the run holds two rounds or fewer.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the package's
layer functions (see tracer.py) during set-up and one round, and reports
the per-layer metrics plus the tracing overhead: the traced round's mean
operation time minus that of one untraced round run just before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# Times the package import in a fresh interpreter, numpy already loaded as
# it is in the run, and prints the seconds taken.
IMPORT_TIMER = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import schedfilt
from schedfilt import cli, diagnostics, grid, kalman, particle, simulate
print(time.perf_counter() - t0)
"""


def import_package(src: Path):
    """Import schedfilt from ./src and return its modules."""
    sys.path.insert(0, str(src))
    import schedfilt
    from schedfilt import cli, diagnostics, grid, kalman, particle, simulate

    if Path(schedfilt.__file__).resolve().parent != (src / "schedfilt").resolve():
        raise ImportError(f"schedfilt imported from {schedfilt.__file__}, not from {src}")
    sf = argparse.Namespace(
        build_preset=schedfilt.build_preset,
        cli=cli,
        diagnostics=diagnostics,
        grid=grid,
        kalman=kalman,
        particle=particle,
        simulate=simulate,
    )
    return sf


def import_seconds(src: Path) -> float:
    """Median import time over SETUP_REPEATS fresh interpreters: a single
    import of some 30 ms spreads by half its value from run to run."""
    reps = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(src)], capture_output=True, text=True, check=True, timeout=60
        )
        reps.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(reps)


def run_round(workload, r: int, result: dict) -> bool:
    """Run and check round r; False when the workload has no round r."""
    from workloads import OperationFailed

    ops = workload.ops(r)
    if ops is None:
        return False
    times = []
    for op in ops:
        t0 = time.perf_counter()
        output = op.run()
        times.append(time.perf_counter() - t0)
        result["attempted"] += 1
        result["steps"] += op.steps
        try:
            result["problems"] += op.check(output)
        except OperationFailed as exc:
            result["failed"] += 1
            result["failures"].add(str(exc))
    result["op_times"].append(times)
    return True


def new_result() -> dict:
    return {"attempted": 0, "failed": 0, "op_times": [], "steps": 0, "problems": [], "failures": set()}


def measure(workload, seconds: float, rounds: int | None = None, first: int = 0) -> dict:
    """Whole rounds from round `first` on, until `seconds` have passed and
    the workload's min_rounds are done, or exactly `rounds` rounds."""
    result = new_result()
    start = time.perf_counter()
    r = first
    while run_round(workload, r, result):
        r += 1
        if rounds is not None and r - first >= rounds:
            break
        if rounds is None and r - first >= workload.min_rounds and time.perf_counter() - start >= seconds:
            break
    result["rounds"] = r - first
    return result


def typical_round(result: dict) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(op) for op in zip(*result["op_times"])]


def set_up(workload, import_s: float) -> float:
    """Set-up time: the import, the median of repeated input making, and
    the warm-up, which fills caches and so happens once."""
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        reps.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.warm_up()
    return import_s + statistics.median(reps) + (time.perf_counter() - t0)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "schedfilt" / "__init__.py").is_file():
        log(f"no schedfilt package under {src}; run from the root of a checkout")
        return 2
    try:
        sf = import_package(src)
    except ImportError as exc:
        log(f"cannot import schedfilt: {exc}")
        return 2
    log(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"threads={os.environ.get('OMP_NUM_THREADS')} cpus={os.cpu_count()} python={sys.version.split()[0]}"
    )

    workload = WORKLOADS[args.workload](sf, args.seed, root)
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            set_up(workload, 0.0)
            tracer.uninstall()
            plain = measure(workload, args.seconds, rounds=1)
            tracer.install()
            traced = measure(workload, args.seconds, rounds=1, first=1)
            tracer.uninstall()
            results = (plain, traced)
            metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in tracer.metrics().items()}
            overhead = statistics.fmean(traced["op_times"][0]) - statistics.fmean(plain["op_times"][0])
            metrics["trace.op_s_overhead"] = {"value": overhead, "unit": "s"}
        else:
            setup_s = set_up(workload, import_seconds(src))
            result = measure(workload, args.seconds)
            results = (result,)
            typical = typical_round(result)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s": {"value": statistics.fmean(typical), "unit": "s"},
                "steps_per_s": {"value": result["steps"] / result["rounds"] / sum(typical), "unit": "steps/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        workload.close()

    for note in dict.fromkeys(workload.notes):
        log(note)
    problems = [p for res in results for p in res["problems"]]
    for problem in dict.fromkeys(problems):
        log(f"INCORRECT: {problem}")
    for failure in sorted(set().union(*(res["failures"] for res in results))):
        log(f"failed operation: {failure}")
    log(f"rounds={[res['rounds'] for res in results]} ops={sum(res['attempted'] for res in results)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(res["attempted"] for res in results),
                "failed": sum(res["failed"] for res in results),
                "metrics": metrics,
            }
        )
    )
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith("bytes_written") else "count"


if __name__ == "__main__":
    # Pin BLAS and OpenMP pools to one thread before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
