#!/usr/bin/env python3
"""Effect of modelling the event-time state jump in the exact filter.

Runs the linear scenario twice along the same realized paths: once with the
correct jump variance injected at each event, once with a filter that
pretends the state never jumps (Q forced to zero).  Writes one CSV with the
two conditional means and covariances along a single illustrative path, and
prints ensemble RMSE for both variants so the difference is not anecdotal.

Usage: python3 scripts/compare_jump_handling.py [--out OUT.csv] [--paths N]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses

import numpy as np

from schedfilt.kalman import linear_params_from_scenario, run_filter
from schedfilt.presets import build_preset
from schedfilt.simulate import simulate_batch, simulate_path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="jump_handling.csv")
    ap.add_argument("--paths", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1234)
    args = ap.parse_args()

    scenario = build_preset("ou_kalman")
    params = linear_params_from_scenario(scenario)
    params_nojump = dataclasses.replace(params, Q=np.zeros_like(params.Q))

    reporting = np.linspace(0.0, scenario.horizon, 81)

    # one illustrative path for the CSV
    res = simulate_path(scenario, path_id=0, seed=args.seed)
    with_jump = run_filter(scenario, res.events, reporting, params=params)
    without = run_filter(scenario, res.events, reporting, params=params_nojump)
    x_at = np.interp(with_jump.times, res.path.t, res.path.x[:, 0])

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "side", "x_true", "m_jump", "P_jump", "m_nojump", "P_nojump"])
        for k in range(with_jump.times.shape[0]):
            w.writerow([
                format(v, ".17g") if isinstance(v, float) else v
                for v in (
                    float(with_jump.times[k]),
                    with_jump.sides[k],
                    float(x_at[k]),
                    float(with_jump.means[k, 0]),
                    float(with_jump.covs[k, 0, 0]),
                    float(without.means[k, 0]),
                    float(without.covs[k, 0, 0]),
                )
            ])
    print(f"wrote {args.out}")

    # ensemble RMSE of the terminal estimate, both variants on identical paths
    err_jump, err_nojump = [], []
    for r in simulate_batch(scenario, range(args.paths), args.seed):
        x_T = float(r.path.x[-1, 0])
        tj = run_filter(scenario, r.events, [scenario.horizon], params=params)
        tn = run_filter(scenario, r.events, [scenario.horizon], params=params_nojump)
        err_jump.append(float(tj.means[-1, 0]) - x_T)
        err_nojump.append(float(tn.means[-1, 0]) - x_T)
    rj = float(np.sqrt(np.mean(np.square(err_jump))))
    rn = float(np.sqrt(np.mean(np.square(err_nojump))))
    # claimed variance is deterministic here (variance never sees the data)
    claim_j = float(tj.covs[-1, 0, 0])
    claim_n = float(tn.covs[-1, 0, 0])
    print(f"terminal error over {args.paths} paths (realized MSE vs claimed variance):")
    print(f"  with jump term: realized {rj ** 2:.4f}, claimed {claim_j:.4f}  (calibrated)")
    print(f"  jump ignored:   realized {rn ** 2:.4f}, claimed {claim_n:.4f}  (overconfident)")


if __name__ == "__main__":
    main()
