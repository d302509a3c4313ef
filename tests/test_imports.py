"""Import surface: what importing cylcov loads, the names it exports, and unused imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cylcov

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy subpackages whose import costs about 0.6 s of a cold start
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import cylcov\n"
        f"loaded = [name for name in {HEAVY!r} if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


PUBLIC = """
    CoverageResult CylinderGeometry ChannelModel DEFAULT_GRID_SIZE DegenerateConditionError
    DomainError LaplaceEvaluation NetworkScenario ReceiverMixture ScenarioFormatError
    SimulationEstimate StaleCacheError TabulatedDistribution UnsupportedParameterError build_cdf
    build_receiver_cdfs complete_E complete_K conditional_coverage conditional_interferer_pdf
    coverage_probability cylinder_pair_pdf_closed cylinder_pair_pdf_numeric disk_pair_pdf
    empirical_distance_histogram exact_coverage_probability incomplete_E incomplete_F
    laplace_with_derivatives ppp_coverage sample_pair_distances segment_pair_pdf
    serving_distance_cdf serving_distance_pdf simulate_coverage simulate_ppp_coverage
""".split()

# helpers only tests used, as module.name under cylcov; their oracles are in tests/
REMOVED = """
    interference.inner_integral special.gamma_tail_series simulation.sample_point
    simulation.sample_fading_gain simulation._sample_points cli.linear_to_db
    simulation.sample_conditional_interferer_distances distance.build_receiver_cdf
    distance.TabulatedDistribution.kind distance.TabulatedDistribution.ppf
    simulation._sample_coordinates simulation._distance ppp.PppModel ppp.ppp_model_from_scenario
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
