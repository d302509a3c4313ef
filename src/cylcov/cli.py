"""Command-line front end: scenario files, sweeps, figure-data CSVs, caching.

Subcommands
-----------
pdf       Tabulate the pair-distance density (numeric and closed-form
          columns), optionally overlaid with an empirical histogram.
coverage  Evaluate coverage probability over a scenario file's sweep grid
          by any of the analytic engine, the Monte Carlo simulator, and
          the PPP baseline; one CSV row per sweep point per method.
cache     Build and store a CDF table for reuse via --cdf-cache.

Scenario files are JSON: a ``version`` (the integer 1), a ``scenario``
object with N, R, H, alpha, m and exactly one of beta / beta_dB, an
optional ``sweep`` object mapping parameter names to value lists
(cartesian product, file order), plus optional method / trials / seed /
output settings.  KEYS lists the keys each object may hold, and any other
key is an error.  Every scenario value and sweep element is a JSON number
that is not a bool; N, trials and output.grid_size are integral, trials at
least 1 and grid_size at least 64.  METHODS maps each method to the CSV
row tags it writes.  Each run parameter has one home: --seed and --output
are the only flags that override a file entry (seed, output.path).

Every CSV starts with '#' comment lines recording the schema version,
tool version, full parameter echo, and seed, enough to regenerate the
file exactly.  All randomness is seeded (default seed 1, never the
clock), so repeated runs are byte-identical; the wall_time_s column is
the lone intentional exception and therefore defaults to off
(--timing on opts in).  Sweep points evaluate in order on the calling
thread, and rows are written in sweep order; --workers is accepted and has
no effect.  Monte Carlo rows that share geometry and N are one group, one
simulate_coverage call counted from one set of draws, and each such row's
wall_time_s is the group's wall time divided by its row count, so the
column still sums to the sweep's Monte Carlo time.  A size that numpy
cannot allocate is an error line too.
"""

import argparse
import json
import math
import sys
import time
from itertools import product, zip_longest
from typing import Optional

import numpy as np

from . import __version__
from .coverage import coverage_probability
from .distance import (
    DEFAULT_GRID_SIZE,
    _MAX_ARRAY,
    TabulatedDistribution,
    _checked_grid_size,
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
from .ppp import ppp_coverage
from .simulation import empirical_distance_histogram, simulate_coverage

SCHEMA_VERSION = 1
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 1
SWEEPABLE = ("N", "R", "H", "alpha", "m", "beta", "beta_dB")
# the keys each object of a scenario file may hold; "" is the file object
KEYS = {"": ("version", "scenario", "sweep", "method", "trials", "seed", "output"),
        "scenario": SWEEPABLE, "sweep": SWEEPABLE, "output": ("path", "format", "grid_size")}
# each file method and the CSV row tags it writes, in row order
METHODS = {"analytic": ("analytic",), "simulate": ("monte-carlo",), "ppp": ("ppp",),
           "all": ("analytic", "monte-carlo", "ppp")}


def db_to_linear(beta_db: float) -> float:
    try:
        return 10.0 ** (beta_db / 10.0)
    except OverflowError:
        raise ScenarioFormatError(f"field 'beta_dB': {beta_db!r} dB overflows a float") from None


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _check_seed(seed, name: str) -> None:
    """The file field and the flag alike; a seed is one Philox key word, as in substream."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ScenarioFormatError(f"{name}: integer in [0, 2**64) required, got seed={seed!r}")


def _require(ok, field: str, what: str) -> None:
    if not ok:
        raise ScenarioFormatError(f"field '{field}': {what}")


def _object(value, field: str) -> dict:
    """value if it is a JSON object holding only keys that KEYS[field] lists."""
    _require(isinstance(value, dict), field or "file", "JSON object required")
    for key in value:
        _require(key in KEYS[field], f"{field}.{key}" if field else key,
                 f"unknown key (allowed: {', '.join(KEYS[field])})")
    return value


def _number(value, field: str, integral: bool = False, least: float = -math.inf):
    """value if it is a JSON number and not a bool; an integral one comes back as int."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(is_number, field, f"number required, got {value!r}")
    if not integral:
        return value
    _require(isinstance(value, int) or value.is_integer(), field, f"integer required, got {value!r}")
    _require(value >= least, field, f"at least {least} required, got {value!r}")
    return int(value)


def load_scenario_file(path) -> dict:
    """Parse a scenario JSON file and check it against KEYS, the number rule and METHODS."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _object(json.load(fh), "")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"scenario file {path} is not valid JSON: {exc}") from exc
    version = raw.get("version")
    _require(type(version) is int and version == SCHEMA_VERSION, "version",
             f"expected {SCHEMA_VERSION}, got {version!r}")
    base = _object(raw.get("scenario"), "scenario")
    has_beta = "beta" in base
    _require(has_beta != ("beta_dB" in base), "scenario.beta", "exactly one of beta / beta_dB required")
    for key in ("N", "R", "H", "alpha", "m", "beta" if has_beta else "beta_dB"):
        _number(base.get(key), f"scenario.{key}", integral=key == "N")
    sweep = _object(raw.get("sweep", {}), "sweep")
    for key, values in sweep.items():
        _require(isinstance(values, list) and values, f"sweep.{key}", "non-empty number list required")
        for value in values:
            _number(value, f"sweep.{key}", integral=key == "N")
    _require(not {"beta", "beta_dB"} <= sweep.keys(), "sweep", "at most one of beta / beta_dB may be swept")
    method = raw.get("method", "analytic")
    _require(isinstance(method, str) and method in METHODS, "method",
             f"one of {' | '.join(METHODS)} required, got {method!r}")
    seed = raw.get("seed", DEFAULT_SEED)
    _check_seed(seed, "field 'seed'")
    output = _object(raw.get("output", {}), "output")
    _require(output.get("format", "csv") == "csv", "output.format", "only 'csv' is supported")
    output_path = output.get("path")
    _require(output_path is None or (isinstance(output_path, str) and output_path), "output.path",
             f"non-empty string required, got {output_path!r}")
    trials = _number(raw.get("trials", DEFAULT_TRIALS), "trials", integral=True, least=1)
    grid_size = output.get("grid_size", DEFAULT_GRID_SIZE)
    # the header echoes the grid size, so build_cdf's rule holds whatever the method
    grid_size = _checked_grid_size(_number(grid_size, "output.grid_size", integral=True, least=64))
    return {"base": base, "sweep": sweep, "method": method, "trials": trials, "seed": seed,
            "output_path": output_path, "grid_size": grid_size}


def _point_scenario(params: dict) -> NetworkScenario:
    beta = params["beta"] if "beta" in params else db_to_linear(params["beta_dB"])
    return NetworkScenario(
        N=params["N"],
        geom=CylinderGeometry(R=float(params["R"]), H=float(params["H"])),
        channel=ChannelModel(alpha=float(params["alpha"]), m=float(params["m"])),
        beta=float(beta),
    )


def _write_csv(path, header: list, names, rows) -> None:
    """The '#' header lines, the column names and one line per row of cells, each line ended."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join((*header, ",".join(names), *(",".join(map(_fmt, r)) for r in rows), "")))
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def cmd_pdf(args) -> int:
    geom = CylinderGeometry(R=args.R, H=args.H)
    points = args.points
    if points < 1:
        raise ScenarioFormatError(f"--points: positive integer required, got points={points!r}")
    if points > _MAX_ARRAY:
        raise ScenarioFormatError(f"--points: points={points} is past numpy's largest array")
    grid = np.linspace(0.0, geom.d_max, points)
    f_num = cylinder_pair_pdf_numeric(grid, geom).tolist()
    f_clo = [cylinder_pair_pdf_closed(l, geom) for l in grid]

    header = [
        "# cylcov pdf-csv v1",
        f"# tool cylcov {__version__}",
        f"# R={geom.R!r} H={geom.H!r} points={points}",
    ]
    columns = {"l": grid.tolist(), "f_numeric": f_num, "f_closed": f_clo}
    if args.with_histogram:
        bins = args.bins if args.bins is not None else points
        est = empirical_distance_histogram(geom, args.pairs, bins, args.seed)
        edges = np.linspace(0.0, geom.d_max, bins + 1)
        columns["bin_center"] = (0.5 * (edges[:-1] + edges[1:])).tolist()
        columns["f_empirical"] = est.mean.tolist()
        header.append(f"# histogram pairs={args.pairs} bins={bins} seed={args.seed}")

    # a shorter column is padded with empty cells
    _write_csv(args.output, header, columns, zip_longest(*columns.values(), fillvalue=""))
    return 0


def cmd_cache(args) -> int:
    geom = CylinderGeometry(R=args.R, H=args.H)
    dist = build_cdf(geom, args.grid_size)
    try:
        dist.save(args.output)
    except OSError as exc:
        raise OSError(f"cannot write output file {args.output}: {exc}") from exc
    return 0


def _sweep_points(base: dict, sweep: dict) -> list:
    """The scenario at each point of the sweep's cartesian product, in file order.

    A swept beta or beta_dB replaces the other in the base scenario.
    """
    other = {"beta": "beta_dB", "beta_dB": "beta"}
    fixed = {k: v for k, v in base.items() if other.get(k) not in sweep}
    return [dict(fixed, **dict(zip(sweep, values))) for values in product(*sweep.values())]


def cmd_coverage(args) -> int:
    if args.workers < 1:
        raise ScenarioFormatError(f"--workers: positive integer required, got workers={args.workers!r}")
    spec = load_scenario_file(args.scenario)
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
        spec["seed"] = args.seed
    output_path = args.output or spec["output_path"]
    if output_path is None:
        raise ScenarioFormatError("no output path: pass --output or set output.path")
    method = spec["method"]
    methods = METHODS[method]
    points = _sweep_points(spec["base"], spec["sweep"])
    scenarios = [_point_scenario(p) for p in points]

    # One CDF table per distinct geometry, for analytic rows only; reuse a
    # supplied cache built at the grid size for one of the sweep's geometries.
    dists: dict = {}
    if args.cdf_cache and "analytic" in methods:
        cached = TabulatedDistribution.load(args.cdf_cache)
        if cached.grid.size != spec["grid_size"]:
            raise StaleCacheError(f"stale CDF cache {args.cdf_cache}: grid_size={cached.grid.size}, "
                                  f"requested {spec['grid_size']}")
        if cached.geometry not in {sc.geom for sc in scenarios}:
            g = cached.geometry
            raise StaleCacheError(f"stale CDF cache {args.cdf_cache}: built for R={g.R}, H={g.H}, "
                                  "which no sweep point has")
        dists[cached.geometry] = cached
    for sc in scenarios:
        if "analytic" in methods and sc.geom not in dists:
            dists[sc.geom] = build_cdf(sc.geom, spec["grid_size"])

    trials, seed = spec["trials"], spec["seed"]
    # Monte Carlo rows sharing geometry and N are one group, counted from one
    # set of draws: each point's estimate and its share of the group's time.
    groups: dict = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault((sc.geom, sc.N), []).append(i)
    drawn: dict = {}
    for indices in groups.values() if "monte-carlo" in methods else ():
        started = time.perf_counter()
        ests = simulate_coverage([scenarios[i] for i in indices], trials, seed)
        share = (time.perf_counter() - started) / len(indices)
        drawn.update((i, (est, share)) for i, est in zip(indices, ests))

    rows = []
    for i, (params, sc) in enumerate(zip(points, scenarios)):
        for meth in methods:
            started = time.perf_counter()
            if meth == "monte-carlo":
                est, elapsed = drawn[i]
                cells = [meth, est.mean, est.ci_half_width, trials, seed]
            else:
                res = ppp_coverage(sc) if meth == "ppp" else coverage_probability(sc, dists[sc.geom])
                elapsed = time.perf_counter() - started
                cells = [res.method, res.pc, res.error_estimate, "", ""]
            timed = elapsed if args.timing == "on" else "NA"
            rows.append([params[name] for name in spec["sweep"]] + cells + [timed])

    header = [
        "# cylcov coverage-csv v1",
        f"# tool cylcov {__version__}",
        "# scenario " + " ".join(f"{k}={_fmt(v)}" for k, v in spec["base"].items()),
        "# sweep " + (" ".join(f"{k}={json.dumps(v)}" for k, v in spec["sweep"].items()) or "none"),
        f"# method={method} trials={trials} seed={seed} grid_size={spec['grid_size']} timing={args.timing}",
    ]
    names = [*spec["sweep"], "method", "pc", "err", "trials", "seed", "wall_time_s"]
    _write_csv(output_path, header, names, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylcov",
        description="Coverage probability of finite 3-D networks in a cylinder",
    )
    parser.add_argument("--version", action="version", version=f"cylcov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pdf = sub.add_parser("pdf", help="tabulate the pair-distance density")
    p_pdf.add_argument("--R", type=float, required=True, help="cylinder radius")
    p_pdf.add_argument("--H", type=float, required=True, help="cylinder height")
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
    p_cov.add_argument("--workers", type=int, default=1,
                       help="accepted for old command lines; no effect, the sweep runs in order")
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
    # RuntimeError covers StaleCacheError and an analytic row whose error
    # estimate or derivative series fails its check; MemoryError a size that
    # numpy cannot allocate (--points, --grid-size or N)
    except (
        ScenarioFormatError,
        DomainError,
        UnsupportedParameterError,
        DegenerateConditionError,
        OSError,
        RuntimeError,
        MemoryError,
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
