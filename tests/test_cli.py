"""Command-line surface: scenario files, CSV schemas, caching, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cylcov
from cylcov import CylinderGeometry, build_cdf
from cylcov.cli import db_to_linear, load_scenario_file, main

GEOM = CylinderGeometry(R=12.0, H=30.0)


BASE = {"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.0, "m": 1}  # the scenario less its threshold
SCENARIO = dict(BASE, beta=1.0)


def write_scenario(path, **overrides):
    spec = {
        "version": 1,
        "scenario": SCENARIO,
        "method": "analytic",
        "trials": 2000,
        "seed": 3,
        "output": {"grid_size": 256},
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


# Sweeps over the default scenario of write_scenario at 5,000 trials, and the
# SHA-256 of their --timing off CSVs as written when every Monte Carlo row was
# its own simulate_coverage call.  A Monte Carlo task now counts all the rows
# of one (geometry, N) from one set of draws; not a byte may move.  The "all"
# digest was re-taken when the PPP baseline moved from hyp2f1 to incomplete
# beta functions, which moved its pc and err cells by a few ulps, and again
# when survival came to be read from the table's tail, which moved the
# analytic pc and err cells by at most 3.8e-15.  ALL_WITHOUT_PPP is the digest
# of that CSV without its ppp-baseline lines, and ALL_WITHOUT_ANALYTIC without
# its analytic lines, as written before the survival change: so every Monte
# Carlo and ppp-baseline byte is still held.  The "all" and ALL_WITHOUT_PPP
# digests were re-taken when a serving distance's own panel took partial-panel
# weights from a stored knot above it, which moved the analytic pc cells by at
# most 8.9e-16 and the err cells by at most 3.4e-16, and again when the pair
# law's CDF came to share the density's split-angle rule, which moved them by
# at most 2.8e-15 and 4.4e-16, and again when the pair table's knot slopes
# became the law's density held to 3 secants (no longer PCHIP's) and the
# paper model came to read the table as its serving law, which moved them by
# at most 7.7e-8 and 3.9e-8 on these 256-knot tables.
PINNED_SWEEPS = {
    "all": (
        {"N": [3, 8], "beta_dB": [-5, 0, 10], "m": [1, 2], "alpha": [3, 4, 8]},
        "6de21ae965751b7432459a460711b45052b5f14cbe9144491dd900527a38ee48",
    ),
    "simulate": (
        {"N": [3, 8], "beta_dB": [-5, 0, 10], "m": [0.5, 1.5], "alpha": [3, 4, 8]},
        "3e0502636f064cd9f5e6d829173da51737af11dc2425ec308d595b134a423b0d",
    ),
}
ALL_WITHOUT_PPP = "fc395e189d8248ff13fee051fee733cbca2e4e330baccbc8523c7a59f7458a15"
ALL_WITHOUT_ANALYTIC = "6c3db85b2807e03276abddfecd6bada27fa7efbe27cd690161f2fbabcef065ac"


# float64 elements whose 4 EiB exceed any address space: numpy accepts the
# size and its allocation fails at once, a MemoryError.  A size a machine
# could actually allocate must never stand here.
UNALLOCATABLE = 2**59


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDbConversion:
    @pytest.mark.parametrize("beta", [1e-3, 0.5, 1.0, 7.25, 1e4])
    def test_round_trip(self, beta):
        assert db_to_linear(10.0 * math.log10(beta)) == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("db", [-30.0, 0.0, 3.0, 10.0])
    def test_round_trip_from_db(self, db):
        assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)


class TestScenarioFile:
    def test_loads_minimal(self, tmp_path):
        spec = load_scenario_file(write_scenario(tmp_path / "s.json"))
        assert spec["base"]["N"] == 6
        assert spec["method"] == "analytic"
        whole = load_scenario_file(write_scenario(tmp_path / "t.json", sweep={"N": [5.0, 6]}))
        assert whole["sweep"]["N"] == [5.0, 6]

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"version": 2}, "version"),
            ({"scenario": {"R": 12.0, "H": 30.0, "alpha": 3, "m": 1, "beta": 1}}, "scenario.N"),
            ({"scenario": {"N": 6, "R": 12.0, "H": 30.0, "alpha": 3, "m": 1}}, "scenario.beta"),
            (
                {
                    "scenario": {
                        "N": 6, "R": 12.0, "H": 30.0, "alpha": 3, "m": 1,
                        "beta": 1.0, "beta_dB": 0.0,
                    }
                },
                "scenario.beta",
            ),
            ({"sweep": {"gamma": [1, 2]}}, "sweep.gamma"),
            ({"sweep": {"N": []}}, "sweep.N"),
            # int() would truncate these, and the row would be labelled
            # with the requested N but computed at another
            ({"scenario": {"N": 5.5, "R": 12.0, "H": 30.0, "alpha": 3, "m": 1, "beta": 1}},
             "scenario.N"),
            ({"sweep": {"N": [5.7, 5]}}, "sweep.N"),
            ({"method": "exactly"}, "method"),
            ({"trials": -5}, "trials"),
            # simulation.substream takes a seed below 2**64, one Philox key word
            ({"seed": 2**64}, "seed"),
            ({"seed": -1}, "seed"),
            ({"output": {"grid_size": 10}}, "output.grid_size"),
            # the rows would be computed at the swept beta and labelled with beta_dB
            ({"sweep": {"beta": [1.0], "beta_dB": [0, 10]}}, "sweep"),
            # open() takes an integer or a bool as a file descriptor: True is stdout
            ({"output": {"path": True}}, "output.path"),
            ({"output": {"path": 2}}, "output.path"),
            ({"output": {"path": ""}}, "output.path"),
            ({"output": {"path": ["x"]}}, "output.path"),
            # a misspelled key would drop its setting and run the default
            ({"sweeps": {"N": [4, 8]}}, "sweeps"),
            ({"trails": 5}, "trails"),
            ({"scenario": dict(SCENARIO, Beta=2.0)}, "scenario.Beta"),
            ({"output": {"paht": "x.csv"}}, "output.paht"),
            ({"version": True}, "version"),
            ({"method": ["all"]}, "method"),
            ({"method": {}}, "method"),
        ]
        # the threshold takes the number rule of the other parameters: true ran at beta = 1
        + [
            case
            for bad in ("abc", [1], None, True)
            for case in (
                ({"scenario": dict(SCENARIO, beta=bad)}, "scenario.beta"),
                ({"scenario": {**BASE, "beta_dB": bad}}, "scenario.beta_dB"),
                ({"sweep": {"beta": [1.0, bad]}}, "sweep.beta"),
                ({"sweep": {"beta_dB": [bad]}}, "sweep.beta_dB"),
            )
        ],
    )
    def test_invalid_fields_are_named(self, tmp_path, overrides, field):
        from cylcov import ScenarioFormatError

        path = write_scenario(tmp_path / "s.json", **overrides)
        with pytest.raises(ScenarioFormatError, match=f"field '{re.escape(field)}'"):
            load_scenario_file(path)

    def test_integral_counts_load_as_ints(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", trials=1e5, output={"grid_size": 2048.0})
        spec = load_scenario_file(path)
        assert (spec["trials"], spec["grid_size"]) == (100000, 2048)
        assert type(spec["trials"]) is int and type(spec["grid_size"]) is int

    def test_boolean_threshold_is_an_error_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", scenario=dict(SCENARIO, beta=True))
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: field 'scenario.beta'")
        assert not out.exists()

    def test_sweep_over_both_beta_axes_is_an_error_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", method="ppp", sweep={"beta": [1.0], "beta_dB": [0, 10]})
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: field 'sweep'")
        assert not out.exists()

    def test_invalid_json_reported(self, tmp_path):
        from cylcov import ScenarioFormatError

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            load_scenario_file(path)

    def test_undecodable_scenario_is_an_error_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json")
        path.write_bytes(path.read_bytes().replace(b'"analytic"', b'"analytic\xff"'))
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(path), "--output", str(out)]) == 1
        assert "error: scenario file" in capsys.readouterr().err
        assert not out.exists()


class TestPdfCommand:
    def test_csv_shape_and_agreement(self, tmp_path):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--R", "20", "--H", "120", "--points", "128", "--output", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["l", "f_numeric", "f_closed"]
        assert len(rows) == 128
        assert float(rows[0]["l"]) == 0.0
        assert float(rows[-1]["l"]) == pytest.approx(math.sqrt(4 * 400 + 120**2), rel=1e-12)
        for row in rows:
            assert abs(float(row["f_numeric"]) - float(row["f_closed"])) <= 1e-6

    def test_histogram_columns_and_determinism(self, tmp_path):
        args = [
            "pdf", "--R", "12", "--H", "30", "--points", "64",
            "--with-histogram", "--pairs", "20000", "--bins", "64", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_rows(out1)
        assert header == ["l", "f_numeric", "f_closed", "bin_center", "f_empirical"]
        dmax = GEOM.d_max
        masses = sum(float(r["f_empirical"]) for r in rows) * (dmax / 64)
        assert masses == pytest.approx(1.0, abs=1e-9)

    def test_negative_histogram_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "pdf.csv"
        rc = main([
            "pdf", "--R", "12", "--H", "30", "--points", "64", "--with-histogram",
            "--pairs", "20000", "--seed", "-1", "--output", str(out),
        ])
        assert rc == 1
        assert "seed=-1" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_column_is_one_array_call(self, tmp_path, monkeypatch):
        shapes = []
        density = cylcov.cli.cylinder_pair_pdf_numeric

        def counted(l, geom):
            shapes.append(np.shape(l))
            return density(l, geom)

        monkeypatch.setattr(cylcov.cli, "cylinder_pair_pdf_numeric", counted)
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--R", "12", "--H", "30", "--points", "64", "--output", str(out)]) == 0
        assert shapes == [(64,)]

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_non_positive_points_rejected(self, tmp_path, capsys, points):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--R", "12", "--H", "30", "--points", points, "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --points: ") and f"points={points}" in err
        assert not out.exists()

    def test_unallocatable_points_are_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--R", "12", "--H", "30", "--points", str(UNALLOCATABLE), "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_requires_geometry(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["pdf", "--output", str(out)])
        assert exc.value.code == 2
        assert "--R" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_reports_path(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "out.csv"
        rc = main(["pdf", "--R", "5", "--H", "5", "--points", "64", "--output", str(bad)])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err


class TestCoverageCommand:
    def test_single_point_all_methods(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            scenario={"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.5, "m": 1, "beta": 1.0},
            method="all",
        )
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["method", "pc", "err", "trials", "seed", "wall_time_s"]
        assert [r["method"] for r in rows] == ["analytic", "monte-carlo", "ppp-baseline"]
        analytic, mc, ppp = (float(r["pc"]) for r in rows)
        assert 0.0 <= analytic <= 1.0 and 0.0 <= ppp <= 1.0
        assert abs(analytic - mc) < 0.05  # 2000 trials, loose sanity band
        assert rows[1]["trials"] == "2000" and rows[1]["seed"] == "3"
        assert rows[0]["trials"] == "" and rows[2]["trials"] == ""
        assert all(r["wall_time_s"] == "NA" for r in rows)

    def test_sweep_order_and_trend(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            sweep={"N": [4, 8], "beta": [0.1, 1.0, 10.0]},
        )
        out = tmp_path / "sweep.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[:2] == ["N", "beta"]
        assert [(r["N"], r["beta"]) for r in rows] == [
            ("4", "0.1"), ("4", "1.0"), ("4", "10.0"),
            ("8", "0.1"), ("8", "1.0"), ("8", "10.0"),
        ]
        for i in (0, 3):  # pc decreasing in beta within each N block
            pcs = [float(rows[i + j]["pc"]) for j in range(3)]
            assert pcs[0] > pcs[1] > pcs[2]

    def test_height_sweep_table(self, tmp_path):
        # squat-regime geometry sweep: pc drops with H inside each N block
        scen = write_scenario(
            tmp_path / "s.json",
            scenario={"N": 6, "R": 120.0, "H": 20.0, "alpha": 3.0, "m": 1, "beta": 1.0},
            sweep={"N": [5, 10], "H": [20.0, 60.0]},
        )
        out = tmp_path / "fig3.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4
        for block in (0, 2):
            assert float(rows[block]["pc"]) > float(rows[block + 1]["pc"])

    def test_fading_sweep_table(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", sweep={"m": [1, 2, 3]})
        out = tmp_path / "fig4.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        _, rows = read_rows(out)
        pcs = [float(r["pc"]) for r in rows]
        assert pcs[0] < pcs[1] < pcs[2]

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            method="all",
            sweep={"m": [1, 2], "alpha": [3, 8, 20]},
        )
        # the alpha axis needs panel layouts of three ratios, which the
        # sweep's one table builds on first use and keeps for later points
        outs = [tmp_path / f"d{i}.csv" for i in range(3)]
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[0]), "--workers", "1"]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[1]), "--workers", "4"]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[2]), "--workers", "2"]) == 0
        blobs = [p.read_bytes() for p in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        # The sweep runs in order on the calling thread, at the default
        # --workers too: a thread started anywhere under it fails the run.
        def refuse(thread):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        scen = write_scenario(tmp_path / "s.json", method="all", sweep={"N": [3, 8], "m": [1, 2]})
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        assert len(read_rows(out)[1]) == 12

    def test_analytic_digits_independent_of_blas_threads(self, tmp_path, tall_dist):
        # The analytic rows are reduced in a fixed order, so a BLAS library
        # that splits its work over threads cannot change their digits.
        cache = tmp_path / "tall.tsv"
        tall_dist.save(cache)
        scen = write_scenario(
            tmp_path / "s.json",
            scenario={"N": 5, "R": 20.0, "H": 120.0, "alpha": 4.0, "m": 1, "beta_dB": 0.0},
            sweep={"N": [5, 20], "beta_dB": [0, 10], "m": [1, 2]},
            output={"grid_size": tall_dist.grid.size},
        )
        src = str(Path(cylcov.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}.csv"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            subprocess.run(
                [sys.executable, "-m", "cylcov.cli", "coverage", "--scenario", str(scen),
                 "--cdf-cache", str(cache), "--workers", "1", "--output", str(out)],
                env=env, check=True, timeout=600,
            )
            blobs.append(out.read_bytes())
        assert len(read_rows(tmp_path / "threads-1.csv")[1]) == 8
        assert blobs[0] == blobs[1]

    def test_beta_db_equivalence(self, tmp_path):
        linear = write_scenario(tmp_path / "lin.json")
        db = write_scenario(
            tmp_path / "db.json",
            scenario={"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.0, "m": 1, "beta_dB": 0.0},
        )
        out_lin, out_db = tmp_path / "lin.csv", tmp_path / "db.csv"
        assert main(["coverage", "--scenario", str(linear), "--output", str(out_lin)]) == 0
        assert main(["coverage", "--scenario", str(db), "--output", str(out_db)]) == 0
        _, rows_lin = read_rows(out_lin)
        _, rows_db = read_rows(out_db)
        assert rows_lin[0]["pc"] == rows_db[0]["pc"]

    def test_header_metadata(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
        joined = "\n".join(comments)
        assert "coverage-csv v1" in joined
        assert "tool cylcov" in joined
        assert "N=6" in joined and "seed=3" in joined and "grid_size=256" in joined

    def test_missing_output_is_an_error(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json")
        assert main(["coverage", "--scenario", str(scen)]) == 1
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["simulate", "all"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, method):
        # the scenario file's seed field already refuses -1
        scen = write_scenario(tmp_path / "s.json", method=method)
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--seed", "-1"]) == 1
        assert "seed=-1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["analytic", "ppp"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed=-1"),
            (["--seed", str(2**64)], f"seed={2**64}"),
        ],
    )
    def test_seed_flag_checked_without_simulation(
        self, tmp_path, capsys, method, flags, message
    ):
        # checked like the scenario file's field, though no row uses it
        scen = write_scenario(tmp_path / "s.json", method=method)
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_field_past_the_key_range_rejected(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", seed=2**64)
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 1
        assert "field 'seed'" in capsys.readouterr().err
        assert not out.exists()
        scen = write_scenario(tmp_path / "s.json", seed=2**64 - 1)
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0

    @pytest.mark.parametrize("method", ["simulate", "ppp"])
    def test_rows_without_analytic_build_no_table(self, tmp_path, monkeypatch, method):
        def no_table(*args):
            raise AssertionError("a CDF table was built for no analytic row")

        monkeypatch.setattr(cylcov.cli, "build_cdf", no_table)
        scen = write_scenario(tmp_path / "s.json", method=method, sweep={"R": [8.0, 12.0]})
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_non_positive_workers_rejected(self, tmp_path, capsys, workers):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --workers: positive integer required") and f"workers={workers}" in err
        assert not out.exists()

    def test_failed_analytic_row_is_an_error_line(self, tmp_path):
        # At alpha = 200, m beta l^alpha overflows for l > 34.8: the library
        # raises DomainError, and the command reports it.  Run as a user
        # runs it, where numpy's overflow warnings would only print.
        scen = write_scenario(
            tmp_path / "s.json",
            scenario={"N": 5, "R": 20.0, "H": 120.0, "alpha": 200.0, "m": 1, "beta": 1.0},
            output={"grid_size": 64},
        )
        out = tmp_path / "x.csv"
        src = str(Path(cylcov.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "cylcov.cli", "coverage", "--scenario", str(scen), "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: m beta l^alpha overflows at alpha=200.0, l=")
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("method", ["analytic", "simulate", "ppp"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"R": math.inf}, "R=inf"),
            ({"H": math.inf}, "H=inf"),
            ({"R": 20e150, "H": 120e150}, "R=2e+151"),  # the volume overflows
            ({"beta_dB": 4000}, "field 'beta_dB': 4000 dB"),
            ({"beta_dB": math.inf}, "beta=inf"),
        ],
    )
    def test_non_finite_scenario_is_an_error_line(self, tmp_path, capsys, method, fields, message):
        # json writes inf as Infinity, which json.load reads back
        base = {"N": 5, "R": 20.0, "H": 120.0, "alpha": 4.0, "m": 1, "beta_dB": 0.0, **fields}
        scen = write_scenario(tmp_path / "s.json", scenario=base, method=method)
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert not out.exists()

    def test_grid_size_past_numpy_is_an_error_line(self, tmp_path, capsys):
        # numpy refuses 1e30 knots outright; its ValueError was a traceback
        scen = write_scenario(tmp_path / "s.json", output={"grid_size": 1e30})
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_size=") and err.endswith(" is past numpy's largest array\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["simulate", "ppp"])
    def test_grid_size_past_numpy_is_an_error_line_without_a_table(self, tmp_path, capsys, method):
        # the header echoes the grid size, so a method that builds no table checks it too
        scen = write_scenario(tmp_path / "s.json", method=method, output={"grid_size": 1e30})
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: grid_size={int(1e30)} is past numpy's largest array\n"
        assert not out.exists()

    def test_unallocatable_node_count_is_an_error_line(self, tmp_path, capsys):
        # one trial draws one row of N - 1 distances: 4 EiB
        scen = write_scenario(tmp_path / "s.json", method="simulate", trials=1,
                              scenario=dict(SCENARIO, N=UNALLOCATABLE))
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_one_ordered_pass(self, tmp_path, monkeypatch):
        # one simulate_coverage call per (geometry, N) group, one table per
        # geometry, and the rows in sweep order, each point's methods in turn
        groups, tables = [], []
        simulate, build = cylcov.cli.simulate_coverage, cylcov.cli.build_cdf

        def counted_simulate(scenarios, trials, seed):
            groups.append([(sc.geom.R, sc.N, sc.beta) for sc in scenarios])
            return simulate(scenarios, trials, seed)

        monkeypatch.setattr(cylcov.cli, "simulate_coverage", counted_simulate)
        monkeypatch.setattr(cylcov.cli, "build_cdf", lambda geom, n: tables.append(geom.R) or build(geom, n))
        sweep = {"R": [8.0, 12.0], "N": [3, 5], "beta_dB": [0, 10]}
        scen = write_scenario(tmp_path / "s.json", method="all", sweep=sweep, trials=500,
                              output={"grid_size": 64})
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        assert tables == [8.0, 12.0]
        assert groups == [[(R, N, 1.0), (R, N, 10.0)] for R in (8.0, 12.0) for N in (3, 5)]
        _, rows = read_rows(out)
        assert [(r["R"], r["N"], r["beta_dB"], r["method"]) for r in rows] == [
            (str(R), str(N), str(b), tag)
            for R in (8.0, 12.0) for N in (3, 5) for b in (0, 10)
            for tag in ("analytic", "monte-carlo", "ppp-baseline")
        ]

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    @pytest.mark.parametrize("method", sorted(PINNED_SWEEPS))
    def test_grouped_sweeps_keep_their_bytes(self, tmp_path, method, workers):
        sweep, digest = PINNED_SWEEPS[method]
        scen = write_scenario(tmp_path / "s.json", method=method, sweep=sweep, trials=5000)
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--workers", workers]) == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        if method == "all":
            for tag, kept_digest in ((b",ppp-baseline,", ALL_WITHOUT_PPP),
                                     (b",analytic,", ALL_WITHOUT_ANALYTIC)):
                kept = b"".join(line for line in data.splitlines(keepends=True) if tag not in line)
                assert hashlib.sha256(kept).hexdigest() == kept_digest, tag

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("coverage", ["--trials", "10"]),
            ("coverage", ["--grid-size", "64"]),
            ("coverage", ["--beta-db", "10"]),
            ("pdf", ["--scenario", "s.json", "--R", "12", "--H", "30"]),
        ],
        ids=["trials", "grid-size", "beta-db", "pdf-scenario"],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flags):
        # each was a second route to a scenario field or to --R / --H
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "x.csv"
        argv = [command, *(["--scenario", str(scen)] if command == "coverage" else []), *flags]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("coverage", "--scenario --output --cdf-cache --seed --workers --timing"),
            ("pdf", "--R --H --points --output --with-histogram --pairs --bins --seed"),
        ],
        ids=["coverage", "pdf"],
    )
    def test_each_flag_has_one_home(self, capsys, command, flags):
        # --seed and --output are the only flags that override a file field
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert re.findall(r"^  (--[\w-]+)", text, flags=re.M) == flags.split()
        if command == "pdf":
            assert "[-h] --R R --H H " in text  # both required

    def test_timing_flag_emits_numbers(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--timing", "on"]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["wall_time_s"]) > 0.0
        # each grouped Monte Carlo row holds its group's time over the group's rows
        scen = write_scenario(
            tmp_path / "g.json", method="all", sweep={"N": [3, 8], "m": [1, 2], "beta": [0.5, 2.0]}
        )
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--timing", "on"]) == 0
        _, rows = read_rows(out)
        assert all(float(r["wall_time_s"]) > 0.0 for r in rows)
        mc = [r for r in rows if r["method"] == "monte-carlo"]
        assert len(mc) == 8
        for N in ("3", "8"):
            assert len({r["wall_time_s"] for r in mc if r["N"] == N}) == 1


class TestCacheCommand:
    def test_build_reload_and_reuse(self, tmp_path):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        from cylcov import TabulatedDistribution

        loaded = TabulatedDistribution.load(cache)
        fresh = build_cdf(GEOM, 256)
        assert np.array_equal(loaded.cdf_values, fresh.cdf_values)

        scen = write_scenario(tmp_path / "s.json")
        out_cached = tmp_path / "cached.csv"
        out_fresh = tmp_path / "fresh.csv"
        assert main([
            "coverage", "--scenario", str(scen), "--output", str(out_cached),
            "--cdf-cache", str(cache),
        ]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(out_fresh)]) == 0
        assert out_cached.read_bytes() == out_fresh.read_bytes()

    def test_grid_size_past_numpy_is_an_error_line(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        size = "100000000000000000000"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", size, "--output", str(cache)]) == 1
        assert capsys.readouterr().err == f"error: grid_size={size} is past numpy's largest array\n"
        assert not cache.exists()

    def test_unallocatable_grid_size_is_an_error_line(self, tmp_path, capsys):
        # within numpy's largest array, so the rule passes it and the allocation fails
        cache = tmp_path / "cdf.tsv"
        size = str(UNALLOCATABLE)
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", size, "--output", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not cache.exists()

    def test_mismatched_cache_is_reported(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "9", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        scen = write_scenario(tmp_path / "s.json")  # R = 12 mismatch
        rc = main([
            "coverage", "--scenario", str(scen), "--output", str(tmp_path / "x.csv"),
            "--cdf-cache", str(cache),
        ])
        assert rc == 1
        assert "stale" in capsys.readouterr().err.lower()

    def test_nan_cache_is_reported(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        lines = cache.read_text().splitlines()
        lines[100] = lines[100].split("\t")[0] + "\tnan"
        cache.write_text("\n".join(lines) + "\n")
        scen, out = write_scenario(tmp_path / "s.json"), str(tmp_path / "x.csv")
        assert main(["coverage", "--scenario", str(scen), "--output", out, "--cdf-cache", str(cache)]) == 1
        assert "error: corrupt CDF cache" in capsys.readouterr().err

    def test_undecodable_cache_is_reported(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        lines = cache.read_bytes().splitlines()
        lines[100] = lines[100] + b"\xe9"
        cache.write_bytes(b"\n".join(lines) + b"\n")
        scen, out = write_scenario(tmp_path / "s.json"), tmp_path / "x.csv"
        rc = main(["coverage", "--scenario", str(scen), "--output", str(out), "--cdf-cache", str(cache)])
        assert rc == 1
        assert "error: corrupt CDF cache" in capsys.readouterr().err
        assert not out.exists()

    def test_cache_of_a_later_sweep_point_is_used(self, tmp_path, monkeypatch):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        scen = write_scenario(tmp_path / "s.json", sweep={"R": [10.0, 12.0]})
        out_cached, out_fresh = tmp_path / "cached.csv", tmp_path / "fresh.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out_fresh)]) == 0
        built = []
        build = cylcov.cli.build_cdf
        monkeypatch.setattr(cylcov.cli, "build_cdf", lambda geom, n: built.append(geom) or build(geom, n))
        rc = main(["coverage", "--scenario", str(scen), "--output", str(out_cached), "--cdf-cache", str(cache)])
        assert rc == 0
        assert built == [CylinderGeometry(R=10.0, H=30.0)]
        assert out_cached.read_bytes() == out_fresh.read_bytes()

    def test_cache_of_no_sweep_point_is_stale(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "9", "--H", "30", "--grid-size", "256", "--output", str(cache)]) == 0
        scen = write_scenario(tmp_path / "s.json", sweep={"R": [10.0, 12.0]})
        out = tmp_path / "x.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--cdf-cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stale CDF cache") and "R=9.0, H=30.0, which no sweep point has" in err
        assert not out.exists()

    def test_cache_of_another_grid_size_is_stale(self, tmp_path, capsys):
        cache = tmp_path / "cdf.tsv"
        assert main(["cache", "--R", "12", "--H", "30", "--grid-size", "128", "--output", str(cache)]) == 0
        scen, out = write_scenario(tmp_path / "s.json"), tmp_path / "x.csv"  # grid_size 256
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--cdf-cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stale CDF cache") and "grid_size=128, requested 256" in err
        assert not out.exists()

    def test_grid_refinement_changes_little(self, tmp_path):
        coarse, fine = tmp_path / "c.csv", tmp_path / "f.csv"
        for grid_size, out in ((64, coarse), (2048, fine)):
            scen = write_scenario(tmp_path / "s.json", output={"grid_size": grid_size})
            assert main(["coverage", "--scenario", str(scen), "--output", str(out)]) == 0
        _, rows_c = read_rows(coarse)
        _, rows_f = read_rows(fine)
        assert abs(float(rows_c[0]["pc"]) - float(rows_f[0]["pc"])) <= 1e-3
