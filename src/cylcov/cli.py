"""Command-line front end: scenario files, sweeps, figure-data CSVs, caching.

Subcommands
-----------
pdf       Tabulate the pair-distance density (numeric and closed-form
          columns), optionally overlaid with an empirical histogram.
coverage  Evaluate coverage probability over a scenario file's sweep grid
          by any of the analytic engine, the Monte Carlo simulator, and
          the PPP baseline; one CSV row per sweep point per method.
cache     Build and store a CDF table for reuse via --cdf-cache.

Scenario files are JSON: a ``version`` (currently 1), a ``scenario``
object with N, R, H, alpha, m and exactly one of beta / beta_dB, an
optional ``sweep`` object mapping parameter names to value lists
(cartesian product, file order), plus optional method / trials / seed /
output settings.  Flags override file entries.

Every CSV starts with '#' comment lines recording the schema version,
tool version, full parameter echo, and seed, enough to regenerate the
file exactly.  All randomness is seeded (default seed 1, never the
clock), so repeated runs are byte-identical; the wall_time_s column is
the lone intentional exception and therefore defaults to off
(--timing on opts in).  Sweep points evaluate concurrently, but rows are
written in sweep order regardless of completion order.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import __version__
from .coverage import coverage_probability
from .distance import (
    DEFAULT_GRID_SIZE,
    TabulatedDistribution,
    build_cdf,
    cylinder_pair_pdf_closed,
    cylinder_pair_pdf_numeric,
)
from .errors import (
    DegenerateConditionError,
    DomainError,
    ScenarioFormatError,
    StaleCacheError,
    UnsupportedParameterError,
)
from .geometry import CylinderGeometry
from .network import ChannelModel, NetworkScenario
from .ppp import ppp_coverage, ppp_model_from_scenario
from .simulation import empirical_distance_histogram, simulate_coverage

SCHEMA_VERSION = 1
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 1
SWEEPABLE = ("N", "R", "H", "alpha", "m", "beta", "beta_dB")


def db_to_linear(beta_db: float) -> float:
    return 10.0 ** (beta_db / 10.0)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _check_grid_size(grid_size, name: str) -> None:
    if not isinstance(grid_size, int) or grid_size < 64:
        raise ScenarioFormatError(f"{name}: integer >= 64 required")


def load_scenario_file(path) -> dict:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFormatError("scenario file must hold a JSON object")
    if raw.get("version") != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"field 'version': expected {SCHEMA_VERSION}, got {raw.get('version')!r}"
        )
    base = raw.get("scenario")
    if not isinstance(base, dict):
        raise ScenarioFormatError("field 'scenario': required object missing")
    for key in ("N", "R", "H", "alpha", "m"):
        if not isinstance(base.get(key), (int, float)) or isinstance(base.get(key), bool):
            raise ScenarioFormatError(f"field 'scenario.{key}': number required")
    if not float(base["N"]).is_integer():
        raise ScenarioFormatError("field 'scenario.N': integer required")
    has_beta = "beta" in base
    has_db = "beta_dB" in base
    if has_beta == has_db:
        raise ScenarioFormatError(
            "field 'scenario.beta': exactly one of beta / beta_dB must be present"
        )
    sweep = raw.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ScenarioFormatError("field 'sweep': object of name -> value list required")
    for name, values in sweep.items():
        if name not in SWEEPABLE:
            raise ScenarioFormatError(
                f"field 'sweep.{name}': unknown parameter (choose from {', '.join(SWEEPABLE)})"
            )
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        ):
            raise ScenarioFormatError(f"field 'sweep.{name}': non-empty number list required")
        if name == "N" and not all(float(v).is_integer() for v in values):
            raise ScenarioFormatError("field 'sweep.N': integer list required")
    method = raw.get("method", "analytic")
    if method not in ("analytic", "simulate", "ppp", "all"):
        raise ScenarioFormatError(
            f"field 'method': {method!r} not one of analytic | simulate | ppp | all"
        )
    trials = raw.get("trials", DEFAULT_TRIALS)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ScenarioFormatError("field 'trials': positive integer required")
    seed = raw.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioFormatError("field 'seed': nonnegative integer required")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ScenarioFormatError("field 'output': object required")
    if output.get("format", "csv") != "csv":
        raise ScenarioFormatError("field 'output.format': only 'csv' is supported")
    grid_size = output.get("grid_size", DEFAULT_GRID_SIZE)
    _check_grid_size(grid_size, "field 'output.grid_size'")
    return {
        "base": dict(base),
        "sweep": {k: list(v) for k, v in sweep.items()},
        "method": method,
        "trials": trials,
        "seed": seed,
        "output_path": output.get("path"),
        "grid_size": grid_size,
    }


def _point_scenario(params: dict) -> NetworkScenario:
    beta = params["beta"] if "beta" in params else db_to_linear(params["beta_dB"])
    return NetworkScenario(
        N=int(params["N"]),
        geom=CylinderGeometry(R=float(params["R"]), H=float(params["H"])),
        channel=ChannelModel(alpha=float(params["alpha"]), m=float(params["m"])),
        beta=float(beta),
    )


def _open_output(path):
    try:
        return open(path, "w", encoding="ascii", newline="")
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def cmd_pdf(args) -> int:
    if args.scenario:
        spec = load_scenario_file(args.scenario)
        base = spec["base"]
        geom = CylinderGeometry(R=float(base["R"]), H=float(base["H"]))
    elif args.R is not None and args.H is not None:
        geom = CylinderGeometry(R=args.R, H=args.H)
    else:
        raise ScenarioFormatError("pdf needs either --scenario or both --R and --H")
    points = args.points
    grid = np.linspace(0.0, geom.d_max, points)
    f_num = [cylinder_pair_pdf_numeric(l, geom) for l in grid]
    f_clo = [cylinder_pair_pdf_closed(l, geom) for l in grid]

    header = [
        "# cylcov pdf-csv v1",
        f"# tool cylcov {__version__}",
        f"# R={geom.R!r} H={geom.H!r} points={points}",
    ]
    columns = ["l", "f_numeric", "f_closed"]
    hist_centers = hist_density = None
    if args.with_histogram:
        bins = args.bins if args.bins is not None else points
        est = empirical_distance_histogram(geom, args.pairs, bins, args.seed)
        edges = np.linspace(0.0, geom.d_max, bins + 1)
        hist_centers = 0.5 * (edges[:-1] + edges[1:])
        hist_density = est.mean
        header.append(f"# histogram pairs={args.pairs} bins={bins} seed={args.seed}")
        columns += ["bin_center", "f_empirical"]

    nrows = points if hist_centers is None else max(points, len(hist_centers))
    with _open_output(args.output) as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(",".join(columns) + "\n")
        for i in range(nrows):
            row = []
            row += [_fmt(float(grid[i])), _fmt(f_num[i]), _fmt(f_clo[i])] if i < points else ["", "", ""]
            if hist_centers is not None:
                if i < len(hist_centers):
                    row += [_fmt(float(hist_centers[i])), _fmt(float(hist_density[i]))]
                else:
                    row += ["", ""]
            fh.write(",".join(row) + "\n")
    return 0


def cmd_cache(args) -> int:
    geom = CylinderGeometry(R=args.R, H=args.H)
    dist = build_cdf(geom, args.grid_size)
    try:
        dist.save(args.output)
    except OSError as exc:
        raise OSError(f"cannot write output file {args.output}: {exc}") from exc
    return 0


def _sweep_points(base: dict, sweep: dict):
    """Cartesian product of sweep axes in file order; beta axes exclusive."""
    names = list(sweep.keys())
    points = [{}]
    for name in names:
        points = [dict(p, **{name: v}) for p in points for v in sweep[name]]
    out = []
    for overrides in points:
        params = dict(base)
        if "beta" in overrides:
            params.pop("beta_dB", None)
        if "beta_dB" in overrides:
            params.pop("beta", None)
        params.update(overrides)
        out.append(params)
    return names, out


def cmd_coverage(args) -> int:
    spec = load_scenario_file(args.scenario)
    if args.trials is not None:
        spec["trials"] = args.trials
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.grid_size is not None:
        _check_grid_size(args.grid_size, "--grid-size")
        spec["grid_size"] = args.grid_size
    if args.beta_db is not None:
        spec["base"].pop("beta", None)
        spec["base"]["beta_dB"] = args.beta_db
    output_path = args.output or spec["output_path"]
    if output_path is None:
        raise ScenarioFormatError("no output path: pass --output or set output.path")
    method = spec["method"]
    methods = {"analytic": ["analytic"], "simulate": ["monte-carlo"], "ppp": ["ppp"],
               "all": ["analytic", "monte-carlo", "ppp"]}[method]
    axis_names, points = _sweep_points(spec["base"], spec["sweep"])
    scenarios = [_point_scenario(p) for p in points]

    # One CDF table per distinct geometry, for analytic rows only; reuse a
    # supplied cache when its parameters match exactly.
    dists: dict = {}
    if args.cdf_cache and "analytic" in methods:
        cached = TabulatedDistribution.load(
            args.cdf_cache,
            expected_geometry=scenarios[0].geom,
            expected_grid_size=spec["grid_size"],
        )
        dists[cached.geometry] = cached
    for sc in scenarios:
        if "analytic" in methods and sc.geom not in dists:
            dists[sc.geom] = build_cdf(sc.geom, spec["grid_size"])

    trials, seed = spec["trials"], spec["seed"]
    timing = args.timing == "on"

    def run(task):
        idx, meth = task
        sc = scenarios[idx]
        started = time.perf_counter()
        if meth == "monte-carlo":
            est = simulate_coverage(sc, trials, seed)
            tag, pc, err = meth, est.mean, est.ci_half_width
            row_trials, row_seed = str(trials), str(seed)
        else:
            if meth == "analytic":
                res = coverage_probability(sc, dists[sc.geom])
            else:
                res = ppp_coverage(ppp_model_from_scenario(sc))
            tag, pc, err = res.method, res.pc, res.error_estimate
            row_trials = row_seed = ""
        elapsed = _fmt(time.perf_counter() - started) if timing else "NA"
        values = [_fmt(points[idx][name]) for name in axis_names]
        return values + [tag, _fmt(pc), _fmt(err), row_trials, row_seed, elapsed]

    tasks = [(i, meth) for i in range(len(points)) for meth in methods]
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        rows = list(pool.map(run, tasks))

    base_echo = " ".join(f"{k}={_fmt(v)}" for k, v in spec["base"].items())
    sweep_echo = (
        " ".join(f"{k}={json.dumps(v)}" for k, v in spec["sweep"].items()) or "none"
    )
    with _open_output(output_path) as fh:
        fh.write("# cylcov coverage-csv v1\n")
        fh.write(f"# tool cylcov {__version__}\n")
        fh.write(f"# scenario {base_echo}\n")
        fh.write(f"# sweep {sweep_echo}\n")
        fh.write(
            f"# method={method} trials={trials} seed={seed} "
            f"grid_size={spec['grid_size']} timing={'on' if timing else 'off'}\n"
        )
        fh.write(",".join(axis_names + ["method", "pc", "err", "trials", "seed", "wall_time_s"]) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylcov",
        description="Coverage probability of finite 3-D networks in a cylinder",
    )
    parser.add_argument("--version", action="version", version=f"cylcov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pdf = sub.add_parser("pdf", help="tabulate the pair-distance density")
    p_pdf.add_argument("--scenario", help="scenario file supplying R and H")
    p_pdf.add_argument("--R", type=float, help="cylinder radius")
    p_pdf.add_argument("--H", type=float, help="cylinder height")
    p_pdf.add_argument("--points", type=int, default=512, help="grid points (default 512)")
    p_pdf.add_argument("--output", required=True, help="CSV output path")
    p_pdf.add_argument("--with-histogram", action="store_true",
                       help="add empirical histogram columns")
    p_pdf.add_argument("--pairs", type=int, default=1_000_000,
                       help="simulated point pairs for the histogram")
    p_pdf.add_argument("--bins", type=int, default=None,
                       help="histogram bins (default: same as --points)")
    p_pdf.add_argument("--seed", type=int, default=DEFAULT_SEED, help="histogram RNG seed")
    p_pdf.set_defaults(func=cmd_pdf)

    p_cov = sub.add_parser("coverage", help="evaluate coverage over a sweep")
    p_cov.add_argument("--scenario", required=True, help="scenario JSON file")
    p_cov.add_argument("--output", help="CSV output path (overrides output.path)")
    p_cov.add_argument("--cdf-cache", help="CDF cache file from 'cylcov cache'")
    p_cov.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_cov.add_argument("--trials", type=int, default=None, help="override scenario trials")
    p_cov.add_argument("--grid-size", type=int, default=None, help="override CDF grid size")
    p_cov.add_argument("--beta-db", type=float, default=None,
                       help="override the SIR threshold, in dB")
    p_cov.add_argument("--workers", type=int, default=4,
                       help="concurrent sweep-point evaluations (default 4)")
    p_cov.add_argument("--timing", choices=["on", "off"], default="off",
                       help="measure wall_time_s per row (off keeps output byte-stable)")
    p_cov.set_defaults(func=cmd_coverage)

    p_cache = sub.add_parser("cache", help="build and store a CDF table")
    p_cache.add_argument("--R", type=float, required=True, help="cylinder radius")
    p_cache.add_argument("--H", type=float, required=True, help="cylinder height")
    p_cache.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                         help=f"CDF knots (default {DEFAULT_GRID_SIZE})")
    p_cache.add_argument("--output", required=True, help="cache file path")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ScenarioFormatError,
        StaleCacheError,
        DomainError,
        UnsupportedParameterError,
        DegenerateConditionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
