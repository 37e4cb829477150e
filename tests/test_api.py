import ast
import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import interodds

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = Path(interodds.__file__).resolve().parents[1]


def _names_imported_from_package(source):
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "interodds"
        for alias in node.names
    }


def test_every_exported_name_resolves():
    assert len(set(interodds.__all__)) == len(interodds.__all__)
    for name in interodds.__all__:
        assert hasattr(interodds, name), name


PUBLIC = {
    # what the demos and the README import
    "ConfounderModel", "MeasureSpec", "SimDesign", "StructuralParams",
    "UndefinedSynergyError", "bootstrap_ci", "bootstrap_replicates", "delta_ci",
    "fit_logit", "measure", "measure_parts", "odds_ratio", "or_increment",
    "psi_coordinate_names", "simulate", "true_measure",
    # the other error classes: each maps to an exit code
    "BootstrapFailureError", "ConvergenceError", "CsvParseError", "EmptyClassError",
    "InterOddsError", "NegativeVarianceError", "NonBinaryFactorError",
    "OrderRangeError", "PrevalenceError", "SeparationError", "SingularDesignError",
    "TransformRangeError",
    # the data and result types, and CSV in and out
    "CaseControlDataset", "FitResult", "EstimateReport", "load_csv", "write_csv",
}

# names left to their own modules, each still importable there
SUBMODULE_ONLY = [
    ("logit", "FullParams"), ("logit", "fit_design"), ("inference", "fit_design"),
    ("inference", "measure_parts"), ("inference", "measure"),
    ("inference", "measure_gradient"),
    ("measures", "KINDS"), ("measures", "MeasureParts"), ("measures", "canonical_kind"),
    ("measures", "excess_or"), ("measures", "predicted_or"),
    ("patterns", "MAX_FACTORS"), ("patterns", "PatternIndex"),
    ("patterns", "pattern_index"), ("dataio", "parse_design_file"),
    ("dataio", "parse_measure_token"), ("selfcheck", "run_all"),
]


def test_the_public_surface_is_what_callers_use():
    assert len(PUBLIC) == 33
    assert set(interodds.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", SUBMODULE_ONLY)
def test_submodule_names_still_import(module, name):
    assert hasattr(importlib.import_module(f"interodds.{module}"), name)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("demos/*.py")), ids=lambda path: path.name
)
def test_demo_imports_are_exported(path):
    names = _names_imported_from_package(path.read_text(encoding="utf-8"))
    assert names, f"{path.name} imports nothing from interodds"
    assert names <= set(interodds.__all__), names - set(interodds.__all__)


def test_readme_quick_start_imports_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    names = set().union(*(_names_imported_from_package(b) for b in blocks))
    assert names, "README has no python block importing from interodds"
    assert names <= set(interodds.__all__), names - set(interodds.__all__)


def test_every_dataclass_with_a_cached_property_is_frozen():
    # a cached value is stale once a field it was derived from is reassigned
    unfrozen = []
    for info in pkgutil.iter_modules(interodds.__path__):
        module = importlib.import_module(f"interodds.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and not cls.__dataclass_params__.frozen
                    and any(isinstance(v, functools.cached_property)
                            for v in vars(cls).values())):
                unfrozen.append(f"{module.__name__}.{name}")
    assert unfrozen == []


def test_package_imports_without_scipy():
    # scipy is a test dependency only; the library and CLI need numpy alone
    script = (
        "import sys, interodds, interodds.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]", done.stdout
