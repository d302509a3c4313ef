"""The three workloads: their inputs, their ops and the checks on each output.

A workload has a set-up (run as a child process so that it includes
process start and imports, and timed setup_repeats times), an in-process
preparation that gives the ops what they need, and a round: a fixed list
of ops.  A run attempts whole rounds, so the share of failed ops is the
same in every run.  The seed only permutes a round's ops and picks the
Monte Carlo seeds, so every seed does the same amount of work.

An op is what a user waits for: one figure regeneration through the CLI
(paper-figures), one ``exact_coverage_probability`` call (exact-queries)
or one ``simulate_coverage`` call (mc-oracle).  ``Op.call`` is timed;
``Op.check`` runs after the clock stops and raises ``CheckError`` when
the output disagrees with the stored references or with a property the
method must have.
"""

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

# Tolerance, in standard errors, on every comparison with a Monte Carlo
# estimate.  A 5-sigma miss has probability 6e-7 per comparison, so no seed
# fails by chance over the few thousand comparisons of a set of runs.
Z = 5.0
# Accuracy contracts the program states: 1e-4 on a coverage value and 1e-9
# on the tabulated pair CDF.
COVERAGE_CONTRACT = 1e-4
TABLE_CONTRACT = 1e-9
# The Fig. 2 density columns must agree to this, absolutely.
PDF_AGREEMENT = 1e-6

TALL = (20.0, 120.0)  # UAV column
SQUAT = (120.0, 20.0)  # wide flat layer

# paper-figures: the tall column at alpha = 4, where the PPP baseline is
# not identically 0, on the CLI's default 2048-knot table.
PF_GEOM = TALL
PF_ALPHA = 4.0
PF_GRID = 2048
PF_SWEEP = {"N": [5, 20], "beta_dB": [0, 10], "m": [1, 2]}
PF_TRIALS = 100_000
PF_PDF_POINTS = 256
PF_PAIRS = 1_000_000
PF_BINS = 64
# One sweep worker.  A second one makes the op about a sixth faster on two
# cores, but its time then follows the load on the other core, which the
# single-threaded reference kernel in run.py does not see.
PF_WORKERS = 1

# exact-queries: (R, H), N, m, beta at alpha = 3.  The last point fails
# every time: its error estimate, 2.1e-4, is over the 1e-4 contract.
EQ_ALPHA = 3.0
EQ_POINTS = [
    (SQUAT, 3, 1, 0.1),
    (SQUAT, 10, 2, 1.0),
    (SQUAT, 20, 4, 3.0),
    (SQUAT, 40, 5, 10.0),
    (TALL, 3, 5, 10.0),
    (TALL, 10, 1, 0.3),
    (TALL, 20, 3, 10.0),
    (TALL, 40, 2, 1.0),
]
EQ_FAILING = (TALL, 80, 3, 10.0)

# mc-oracle: (R, H), N, m, beta, trials at alpha = 3, with non-integer m
# that only the simulator accepts.  A call costs about 0.26 us per trial
# and node, so trials x N is held near 5e6: every op then takes about
# 1.4 s and the median op is not a jump between unequal ones.
MC_ALPHA = 3.0
MC_POINTS = [
    (SQUAT, 3, 1.5, 1.0, 1_800_000),
    (TALL, 5, 2.5, 0.5, 1_000_000),
    (SQUAT, 10, 1.0, 3.0, 560_000),
    (TALL, 20, 1.5, 10.0, 250_000),
    (SQUAT, 30, 2.5, 0.3, 170_000),
    (TALL, 50, 2.0, 1.0, 100_000),
]


class CheckError(AssertionError):
    """An output disagrees with its reference or breaks a required property."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    expected_failure: bool = False


def point_key(*values):
    return "/".join(repr(float(v)) for v in values)


def load_refs():
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def derived_seed(seed, *index):
    """A nonnegative 31-bit seed for the program, from the workload seed."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0] >> 1)


class Context:
    """Where a run reads and writes, and how it calls the CLI."""

    def __init__(self, root: Path, out: Path, env: dict, in_process: bool):
        self.root = root
        self.out = out
        self.env = env
        self.in_process = in_process

    def cylcov(self, argv):
        """Run one cylcov command; raise RuntimeError when it fails."""
        if self.in_process:
            import cylcov.cli

            status = cylcov.cli.main(argv)
            message = ""
        else:
            done = subprocess.run(
                [sys.executable, "-m", "cylcov.cli", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=170,
            )
            status, message = done.returncode, done.stderr.strip()
        if status != 0:
            raise RuntimeError(f"cylcov {argv[0]} exited with {status}: {message}")

    def python(self, code):
        """Run a Python snippet in a fresh interpreter with the program on its path."""
        subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, env=self.env, check=True, timeout=170
        )


def _read_csv(path):
    """The CSV's lines below its '#' header, and its rows as dicts."""
    with open(path, encoding="ascii") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return body, list(csv.DictReader(io.StringIO("".join(body))))


class PaperFigures:
    name = "paper-figures"
    round_s = 9.5
    # Two 8 s table builds, not three: a full set of runs of all workloads
    # must end within 3,420 s, and a third would take 200 s of it.
    setup_repeats = 2

    def __init__(self, ctx: Context, refs):
        self.ctx = ctx
        self.refs = refs["paper-figures"]
        self.cache = ctx.out / "pf-tall.tsv"
        self.scenario = ctx.out / "pf-scenario.json"
        self.first_rows = None

    def setup(self):
        R, H = PF_GEOM
        self.ctx.cylcov(
            ["cache", "--R", repr(R), "--H", repr(H), "--grid-size", str(PF_GRID),
             "--output", str(self.cache)]
        )

    def prepare(self):
        R, H = PF_GEOM
        scenario = {
            "version": 1,
            "scenario": {"N": 10, "R": R, "H": H, "alpha": PF_ALPHA, "m": 1, "beta_dB": 0.0},
            "sweep": PF_SWEEP,
            "method": "all",
            "trials": PF_TRIALS,
            "seed": 1,
            "output": {"grid_size": PF_GRID},
        }
        self.scenario.write_text(json.dumps(scenario), encoding="ascii")
        self.check_table()

    def check_table(self):
        """The cached table against the pair-CDF reference, at the stored knots."""
        ref = self.refs["pair_cdf"]
        rows = [line.split("\t") for line in self.cache.read_text("ascii").splitlines()
                if not line.startswith("#")]
        require(len(rows) == PF_GRID, f"cache holds {len(rows)} knots, not {PF_GRID}")
        tol = TABLE_CONTRACT + ref["err"]
        for i, l, F in zip(ref["knots"], ref["l"], ref["F"]):
            require(abs(float(rows[i][0]) - l) <= 1e-12 * ref["l"][-1], f"knot {i} is not at l={l!r}")
            got = float(rows[i][1])
            require(abs(got - F) <= tol, f"table F at knot {i} is {got!r}, reference {F!r}")

    def round(self, seed, k):
        mc_seed = derived_seed(seed, k)
        return [Op(f"figures-{k}", lambda: self.regenerate(mc_seed, k), self.check)]

    def regenerate(self, mc_seed, k):
        R, H = PF_GEOM
        pdf = self.ctx.out / f"pf-pdf-{k}.csv"
        cov = self.ctx.out / f"pf-coverage-{k}.csv"
        self.ctx.cylcov(
            ["pdf", "--R", repr(R), "--H", repr(H), "--points", str(PF_PDF_POINTS),
             "--with-histogram", "--pairs", str(PF_PAIRS), "--bins", str(PF_BINS),
             "--seed", str(mc_seed), "--output", str(pdf)]
        )
        self.ctx.cylcov(
            ["coverage", "--scenario", str(self.scenario), "--cdf-cache", str(self.cache),
             "--workers", str(PF_WORKERS), "--seed", str(mc_seed), "--output", str(cov)]
        )
        return pdf, cov

    def check(self, paths):
        pdf, cov = paths
        self.check_pdf(_read_csv(pdf)[1])
        self.check_coverage(*_read_csv(cov))

    def check_pdf(self, rows):
        hist = self.refs["histogram"]
        width = hist["width"]
        centers = 0
        for row in rows:
            if row["l"]:
                f_num, f_clo = float(row["f_numeric"]), float(row["f_closed"])
                require(abs(f_num - f_clo) <= PDF_AGREEMENT,
                        f"f_numeric {f_num!r} and f_closed {f_clo!r} differ at l={row['l']}")
            if row["bin_center"]:
                mass = hist["mass"][centers]
                se = math.sqrt(mass * (1.0 - mass) / PF_PAIRS) / width
                got = float(row["f_empirical"])
                require(abs(got - mass / width) <= Z * se + hist["err"] / width,
                        f"histogram bin {centers} density {got!r}, reference {mass / width!r}")
                centers += 1
        require(centers == PF_BINS, f"histogram has {centers} bins, not {PF_BINS}")

    def check_coverage(self, lines, rows):
        require(len(rows) == 3 * math.prod(len(v) for v in PF_SWEEP.values()),
                f"coverage CSV has {len(rows)} rows")
        deployment = self.refs["deployment_mc"]
        paper = self.refs["paper_model_mc"]
        ppp_m1 = self.refs["ppp_m1"]
        ppp = {}
        for row in rows:
            key = point_key(row["N"], row["beta_dB"], row["m"])
            pc, err = float(row["pc"]), float(row["err"])
            method = row["method"]
            if method == "analytic":
                ref = paper[key]
                tol = Z * ref["se"] + err + COVERAGE_CONTRACT
            elif method == "monte-carlo":
                ref = deployment[key]
                tol = Z * math.hypot(err / 1.96, ref["se"])
            else:
                ppp[(float(row["N"]), float(row["beta_dB"]), float(row["m"]))] = (pc, err)
                if float(row["m"]) != 1.0:
                    continue
                ref = ppp_m1[repr(float(row["beta_dB"]))]
                tol = ref["err"] + err
            require(abs(pc - ref["p"]) <= tol,
                    f"{method} at {key}: pc {pc!r}, reference {ref['p']!r}, tolerance {tol!r}")
        for (N, b, m), (pc, err) in ppp.items():
            other = ppp[(PF_SWEEP["N"][0], b, m)]
            require(abs(pc - other[0]) <= err + other[1],
                    f"ppp-baseline depends on the intensity at N={N}, beta_dB={b}, m={m}")
            if b != PF_SWEEP["beta_dB"][0]:
                require(pc < ppp[(N, PF_SWEEP["beta_dB"][0], m)][0],
                        f"ppp-baseline does not fall with beta at N={N}, m={m}")
        # The analytic and PPP rows are deterministic: byte-identical across ops.
        stable = [line for line in lines if ",analytic," in line or ",ppp-baseline," in line]
        if self.first_rows is None:
            self.first_rows = stable
        require(stable == self.first_rows, "analytic or ppp-baseline rows changed between ops")


class ExactQueries:
    name = "exact-queries"
    round_s = 21.0
    setup_repeats = 3

    def __init__(self, ctx: Context, refs):
        self.ctx = ctx
        self.refs = refs["exact-queries"]
        self.mixtures = {}

    def setup(self):
        self.ctx.python(
            "import cylcov\n"
            f"for R, H in ({TALL!r}, {SQUAT!r}):\n"
            "    cylcov.build_receiver_cdfs(cylcov.CylinderGeometry(R=R, H=H))\n"
        )

    def prepare(self):
        import cylcov

        self.mixtures = {
            geom: cylcov.build_receiver_cdfs(cylcov.CylinderGeometry(*geom))
            for geom in (TALL, SQUAT)
        }

    def round(self, seed, k):
        points = [(p, False) for p in EQ_POINTS] + [(EQ_FAILING, True)]
        order = np.random.Generator(np.random.PCG64([seed, k])).permutation(len(points))
        return [self.op(*points[i]) for i in order]

    def op(self, point, expected_failure):
        import cylcov

        (R, H), N, m, beta = point
        scenario = cylcov.NetworkScenario(
            N=N,
            geom=cylcov.CylinderGeometry(R=R, H=H),
            channel=cylcov.ChannelModel(alpha=EQ_ALPHA, m=float(m)),
            beta=beta,
        )
        mixture = self.mixtures[(R, H)]
        key = point_key(R, H, N, m, beta)
        ref = self.refs[key]

        def check(result):
            require(result.error_estimate <= COVERAGE_CONTRACT,
                    f"exact {key}: error estimate {result.error_estimate!r} over the contract")
            tol = Z * ref["se"] + COVERAGE_CONTRACT
            require(abs(result.pc - ref["p"]) <= tol,
                    f"exact {key}: pc {result.pc!r}, reference {ref['p']!r}, tolerance {tol!r}")

        return Op(
            f"exact {key}",
            lambda: cylcov.exact_coverage_probability(scenario, mixture),
            check,
            expected_failure,
        )


class McOracle:
    name = "mc-oracle"
    round_s = 8.5
    setup_repeats = 3

    def __init__(self, ctx: Context, refs):
        self.ctx = ctx
        self.refs = refs["mc-oracle"]

    def setup(self):
        self.ctx.python("import cylcov")

    def prepare(self):
        pass

    def round(self, seed, k):
        order = np.random.Generator(np.random.PCG64([seed, k])).permutation(len(MC_POINTS))
        return [self.op(MC_POINTS[i], derived_seed(seed, k, int(i))) for i in order]

    def op(self, point, mc_seed):
        import cylcov

        (R, H), N, m, beta, trials = point
        scenario = cylcov.NetworkScenario(
            N=N,
            geom=cylcov.CylinderGeometry(R=R, H=H),
            channel=cylcov.ChannelModel(alpha=MC_ALPHA, m=m),
            beta=beta,
        )
        key = point_key(R, H, N, m, beta)
        ref = self.refs[key]

        def check(est):
            tol = Z * math.hypot(est.ci_half_width / 1.96, ref["se"])
            require(abs(est.mean - ref["p"]) <= tol,
                    f"simulate {key}: {est.mean!r}, reference {ref['p']!r}, tolerance {tol!r}")

        return Op(
            f"simulate {key} seed={mc_seed}",
            lambda: cylcov.simulate_coverage(scenario, trials, mc_seed),
            check,
        )


WORKLOADS = {w.name: w for w in (PaperFigures, ExactQueries, McOracle)}
