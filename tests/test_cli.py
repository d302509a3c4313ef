"""Command-line surface: scenario files, CSV schemas, caching, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylcov
from cylcov import CylinderGeometry, build_cdf
from cylcov.cli import db_to_linear, load_scenario_file, main

GEOM = CylinderGeometry(R=12.0, H=30.0)


def write_scenario(path, **overrides):
    spec = {
        "version": 1,
        "scenario": {"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.0, "m": 1, "beta": 1.0},
        "method": "analytic",
        "trials": 2000,
        "seed": 3,
        "output": {"grid_size": 256},
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


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
            ({"scenario": {"N": 6, "R": 12.0, "H": 30.0, "alpha": 3, "m": 1}}, "beta"),
            (
                {
                    "scenario": {
                        "N": 6, "R": 12.0, "H": 30.0, "alpha": 3, "m": 1,
                        "beta": 1.0, "beta_dB": 0.0,
                    }
                },
                "beta",
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
            ({"output": {"grid_size": 10}}, "grid_size"),
        ],
    )
    def test_invalid_fields_are_named(self, tmp_path, overrides, field):
        from cylcov import ScenarioFormatError

        path = write_scenario(tmp_path / "s.json", **overrides)
        with pytest.raises(ScenarioFormatError, match=field.split(".")[-1]):
            load_scenario_file(path)

    def test_invalid_json_reported(self, tmp_path):
        from cylcov import ScenarioFormatError

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            load_scenario_file(path)


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

    def test_requires_geometry(self, tmp_path, capsys):
        rc = main(["pdf", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "--R" in capsys.readouterr().err

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
            sweep={"m": [1, 2]},
        )
        outs = [tmp_path / f"d{i}.csv" for i in range(3)]
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[0]), "--workers", "1"]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[1]), "--workers", "4"]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(outs[2]), "--workers", "2"]) == 0
        blobs = [p.read_bytes() for p in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_analytic_digits_independent_of_blas_threads(self, tmp_path, tall_dist):
        # The analytic rows are reduced in a fixed order, so a BLAS library
        # that splits its work over threads cannot change their digits.
        cache = tmp_path / "tall.tsv"
        tall_dist.save(cache)
        scen = write_scenario(
            tmp_path / "s.json",
            scenario={"N": 5, "R": 20.0, "H": 120.0, "alpha": 4.0, "m": 1, "beta_dB": 0.0},
            sweep={"N": [5, 20], "beta_dB": [0, 10], "m": [1, 2]},
            output={"grid_size": tall_dist.grid_size},
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

    def test_beta_db_flag_override(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out_a), "--beta-db", "10"]) == 0
        ten = write_scenario(
            tmp_path / "ten.json",
            scenario={"N": 6, "R": 12.0, "H": 30.0, "alpha": 3.0, "m": 1, "beta": 10.0},
        )
        assert main(["coverage", "--scenario", str(ten), "--output", str(out_b)]) == 0
        _, rows_a = read_rows(out_a)
        _, rows_b = read_rows(out_b)
        assert float(rows_a[0]["pc"]) == pytest.approx(float(rows_b[0]["pc"]), abs=1e-12)

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

    @pytest.mark.parametrize("method", ["analytic", "simulate"])
    def test_grid_size_flag_checked_like_the_file_field(self, tmp_path, capsys, method):
        scen = write_scenario(tmp_path / "s.json", method=method)
        args = ["coverage", "--scenario", str(scen), "--output", str(tmp_path / "x.csv")]
        assert main(args + ["--grid-size", "10"]) == 1
        assert "error: --grid-size: integer >= 64 required" in capsys.readouterr().err
        assert main(args + ["--grid-size", "64"]) == 0

    def test_timing_flag_emits_numbers(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(out), "--timing", "on"]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["wall_time_s"]) > 0.0


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

    def test_grid_refinement_changes_little(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        coarse, fine = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main(["coverage", "--scenario", str(scen), "--output", str(coarse), "--grid-size", "64"]) == 0
        assert main(["coverage", "--scenario", str(scen), "--output", str(fine), "--grid-size", "2048"]) == 0
        _, rows_c = read_rows(coarse)
        _, rows_f = read_rows(fine)
        assert abs(float(rows_c[0]["pc"]) - float(rows_f[0]["pc"])) <= 1e-3
