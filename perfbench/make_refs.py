"""Remake perfbench/refs.json, the reference values the workloads are checked against.

    python3 perfbench/make_refs.py

Every value comes from references.py, which does not import cylcov.  The
Monte Carlo references use TRIALS deployments per point, in one process
per core (about 5 minutes on 2 cores); each stores its standard error,
from which the checks derive their tolerances.  The pair CDF and the
histogram bin masses store the gap between Gauss orders 48 and 96 as
their error.
"""

import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np

import references
import workloads as w

REF_SEED = 20261018
# The tolerances in workloads.py and the figures in README.md are for
# references of this many trials per Monte Carlo point.
TRIALS = 4_000_000
ORDER, CHECK_ORDER = 96, 48
KNOT_STRIDE = 16


def _mc(task):
    kind, key, args = task
    p, se = getattr(references, kind)(*args)
    return kind, key, {"p": p, "se": se}


def _mc_tasks():
    tasks = []
    R, H = w.PF_GEOM
    index = 0
    for N in w.PF_SWEEP["N"]:
        for beta_db in w.PF_SWEEP["beta_dB"]:
            for m in w.PF_SWEEP["m"]:
                key = w.point_key(N, beta_db, m)
                beta = 10.0 ** (beta_db / 10.0)
                for kind in ("deployment_mc", "paper_model_mc"):
                    index += 1
                    tasks.append((kind, ("paper-figures", key),
                                  (R, H, N, w.PF_ALPHA, m, beta, TRIALS, [REF_SEED, index])))
    for (R, H), N, m, beta in w.EQ_POINTS + [w.EQ_FAILING]:
        index += 1
        tasks.append(("deployment_mc", ("exact-queries", w.point_key(R, H, N, m, beta)),
                      (R, H, N, w.EQ_ALPHA, m, beta, TRIALS, [REF_SEED, index])))
    for (R, H), N, m, beta, _ in w.MC_POINTS:
        index += 1
        tasks.append(("deployment_mc", ("mc-oracle", w.point_key(R, H, N, m, beta)),
                      (R, H, N, w.MC_ALPHA, m, beta, TRIALS, [REF_SEED, index])))
    # Longest first, so the pool's last task is short.
    return sorted(tasks, key=lambda t: -t[2][2] * (2 if t[0] == "paper_model_mc" else 1))


def _pair_cdf(R, H, l):
    fine = references.pair_cdf(R, H, l, ORDER)
    return fine, float(np.max(np.abs(fine - references.pair_cdf(R, H, l, CHECK_ORDER))))


def main():
    R, H = w.PF_GEOM
    d_max = math.hypot(2.0 * R, H)
    knots = list(range(0, w.PF_GRID, KNOT_STRIDE)) + [w.PF_GRID - 1]
    l = np.array(knots) * d_max / (w.PF_GRID - 1)
    F, F_err = _pair_cdf(R, H, l)
    edges = np.linspace(0.0, d_max, w.PF_BINS + 1)
    E, E_err = _pair_cdf(R, H, edges)
    refs = {
        "about": f"made by perfbench/make_refs.py, {TRIALS} trials per Monte Carlo point",
        "paper-figures": {
            "pair_cdf": {"knots": knots, "l": l.tolist(), "F": F.tolist(), "err": F_err},
            "histogram": {"width": d_max / w.PF_BINS, "mass": np.diff(E).tolist(),
                          "err": 2.0 * E_err},
            "ppp_m1": {},
            "deployment_mc": {},
            "paper_model_mc": {},
        },
        "exact-queries": {},
        "mc-oracle": {},
    }
    for beta_db in w.PF_SWEEP["beta_dB"]:
        pc, err = references.ppp_coverage_m1(w.PF_ALPHA, 10.0 ** (beta_db / 10.0))
        refs["paper-figures"]["ppp_m1"][repr(float(beta_db))] = {"p": pc, "err": err}

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count() or 1) as pool:
        for kind, (workload, key), value in pool.imap_unordered(_mc, _mc_tasks()):
            table = refs[workload][kind] if workload == "paper-figures" else refs[workload]
            table[key] = value
            print(workload, kind, key, value, flush=True)
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
