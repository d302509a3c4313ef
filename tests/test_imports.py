"""Import surface: what importing cylcov loads, the names it exports, and unused imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cylcov

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import cylcov\n"
        "import cylcov.cli\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr


def test_library_loads_no_numpy_ma():
    # np.union1d -> np.unique -> np.ma.is_masked imported numpy.ma, about
    # 20 ms of a cold process's first receiver table build
    code = (
        "import sys\n"
        "from cylcov import (ChannelModel, CylinderGeometry, NetworkScenario, build_cdf,\n"
        "    build_receiver_cdfs, coverage_probability, empirical_distance_histogram,\n"
        "    exact_coverage_probability, ppp_coverage, simulate_coverage)\n"
        "geom = CylinderGeometry(R=20.0, H=120.0)\n"
        "sc = NetworkScenario(N=5, geom=geom, channel=ChannelModel(alpha=4.0, m=2.0), beta=1.0)\n"
        "exact_coverage_probability(sc, build_receiver_cdfs(geom))\n"
        "coverage_probability(sc, build_cdf(geom, 256))\n"
        "simulate_coverage(sc, 2000, seed=1)\n"
        "empirical_distance_histogram(geom, 10_000, 16, seed=1)\n"
        "ppp_coverage(sc)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr


def test_commands_run_without_scipy(tmp_path):
    # with sys.modules["scipy"] = None every import of scipy raises ImportError
    scenario = tmp_path / "s.json"
    scenario.write_text(
        '{"version": 1, "scenario": {"N": 5, "R": 20, "H": 120, "alpha": 4, "m": 2, "beta_dB": 0},'
        ' "sweep": {"beta_dB": [0, 10]}, "method": "all", "trials": 2000,'
        ' "output": {"grid_size": 64}}'
    )
    runs = [
        ["pdf", "--R", "20", "--H", "120", "--points", "16", "--with-histogram",
         "--pairs", "10000", "--bins", "8", "--output", str(tmp_path / "pdf.csv")],
        ["cache", "--R", "20", "--H", "120", "--grid-size", "64", "--output", str(tmp_path / "c.tsv")],
        ["coverage", "--scenario", str(scenario), "--cdf-cache", str(tmp_path / "c.tsv"),
         "--output", str(tmp_path / "cov.csv")],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cylcov.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in (tmp_path / "cov.csv").read_text().splitlines() if line[0] != "#"]
    column = lines[0].split(",").index("method")
    methods = sorted(line.split(",")[column] for line in lines[1:])
    assert methods == ["analytic", "analytic", "monte-carlo", "monte-carlo",
                       "ppp-baseline", "ppp-baseline"], methods


PUBLIC = """
    CoverageResult CylinderGeometry ChannelModel DEFAULT_GRID_SIZE DegenerateConditionError
    DomainError NetworkScenario ReceiverMixture ScenarioFormatError
    SimulationEstimate StaleCacheError TabulatedDistribution UnsupportedParameterError build_cdf
    build_receiver_cdfs complete_E complete_K conditional_coverage coverage_probability
    cylinder_pair_pdf_closed cylinder_pair_pdf_numeric disk_pair_pdf empirical_distance_histogram
    exact_coverage_probability incomplete_E incomplete_F laplace_with_derivatives ppp_coverage
    segment_pair_pdf simulate_coverage
""".split()

# helpers only tests used, as module.name under cylcov; their oracles are in tests/
REMOVED = """
    interference.inner_integral special.gamma_tail_series simulation.sample_point
    simulation.sample_fading_gain simulation._sample_points cli.linear_to_db
    simulation.sample_conditional_interferer_distances distance.build_receiver_cdf
    distance.TabulatedDistribution.kind distance.TabulatedDistribution.ppf
    simulation._sample_coordinates simulation._distance ppp.PppModel ppp.ppp_model_from_scenario
    network.serving_distance_pdf network.serving_distance_cdf network.conditional_interferer_pdf
    distance.TableStack distance.TabulatedDistribution.stack interference.LaplaceEvaluation
    simulation.SPAN_BLOCKS simulation.simulate_ppp_coverage simulation.sample_pair_distances
    simulation.PPP_BLOCK_POINTS
""".split()


def test_public_surface_is_pinned():
    assert cylcov.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(cylcov, name)
    for dotted in REMOVED:
        module, *parents, name = dotted.split(".")
        owner = importlib.import_module(f"cylcov.{module}")
        for parent in parents:
            owner = getattr(owner, parent)
        assert not hasattr(owner, name) and not hasattr(cylcov, name), dotted


def _unused_imports(path):
    """Names a module imports and never reads, with their line numbers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # the repository has no linter; names re-exported through cylcov.__all__ count as used
    root = SRC.parent
    files = sorted((SRC / "cylcov").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = []
    for path in files:
        exempt = set(cylcov.__all__) if path.name == "__init__.py" else set()
        unused += [
            f"{path.relative_to(root)}:{line} {name}"
            for line, name in _unused_imports(path)
            if name not in exempt
        ]
    assert not unused, unused


def test_no_module_imports_concurrent_futures():
    # The CLI sweep runs in order on the calling thread; no module keeps a pool.
    found = []
    for path in sorted((SRC / "cylcov").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if (name + ".").startswith("concurrent.futures.")]
    assert not found, found


def test_analytic_path_reads_no_cylinder():
    # Past the laws, which the stacks carry, a geometry needs only d_max and
    # equality: coverage.py and interference.py take from distance.py the
    # table classes and a panel rule, and with network.py read no R or H.
    allowed = {"TabulatedDistribution", "ReceiverMixture", "_gauss_on_panels"}
    found = []
    for name in ("coverage.py", "interference.py", "network.py"):
        tree = ast.parse((SRC / "cylcov" / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("R", "H"):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            if (name != "network.py" and isinstance(node, ast.ImportFrom)
                    and node.module == "distance"):
                found += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name not in allowed]
    assert not found, found
