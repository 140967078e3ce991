"""Self-tests of the benchmark: the percentile rule, the output digest,
and that the benchmark reaches spetscat only through public names."""
from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spetscat  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from digest import digest  # noqa: E402


def test_p90_needs_one_hundred_samples():
    assert "p90" not in run.percentiles([float(i) for i in range(99)])
    pct = run.percentiles([float(i) for i in range(100)])
    assert pct["p50"] == 49.5
    assert 89 < pct["p90"] < 91


def test_digest_ignores_ms_only():
    report = {"group": "G(2,1,2)", "p": 3, "claim": "main", "equal": True,
              "lhs": None, "rhs": None, "witness": None, "ms": 12}
    assert digest(report) == digest(dict(report, ms=99999))
    assert digest(report) != digest(dict(report, p=5))


def test_digest_depends_on_values_not_on_how_they_are_written():
    minus_one = {"conductor": 1, "coeffs": [[0, "-1"]]}
    zeta4_squared = {"conductor": 4, "coeffs": [[2, "1"]]}
    assert digest(minus_one) == digest(zeta4_squared)
    assert digest(minus_one) != digest({"conductor": 4, "coeffs": [[1, "1"]]})
    zero = {"conductor": 3, "coeffs": []}
    in_q = {"var": "q", "root_order": 1, "terms": [[1, minus_one]]}
    in_y = {"var": "q", "root_order": 2,
            "terms": [[2, zeta4_squared], [3, zero]]}
    assert digest(in_q) == digest(in_y)


def test_one_operation_per_workload_matches_expected():
    expected = json.loads((HERE / "expected.json").read_text())
    results = {
        "sweep": workloads.sweep_op(spetscat, "G(4,4,3)", "vanishing", 5),
        "chars": workloads.chars_op(spetscat, "G(4,4,3)"),
    }
    for name, res in results.items():
        assert res.ok
        for key, payload in res.outputs.items():
            assert expected[name][key] == digest(payload), key


def _public(module) -> set[str]:
    return set(getattr(module, "__all__", ())) | {
        n for n in vars(module) if not n.startswith("_")
    }


def test_benchmark_calls_spetscat_through_public_names_only():
    package = _public(spetscat)
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spetscat"):
                raise AssertionError(f"{path.name} imports from spetscat directly")
            # the loaded package is always bound to the name S
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "S"):
                assert node.attr in package and not node.attr.startswith("_"), (
                    f"{path.name}:{node.lineno} uses spetscat.{node.attr}")
    for module, attr, _ in spans.TRACED:
        mod = sys.modules[f"spetscat.{module}"]
        assert attr in mod.__all__, f"spetscat.{module}.{attr} is not public"
