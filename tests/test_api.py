import ast
from pathlib import Path

import pytest

import qellip

PACKAGE_DIR = Path(qellip.__file__).parent

PUBLIC_NAMES = [
    "AcquisitionPlan",
    "ClassicalInstrument",
    "CountRecord",
    "CountTable",
    "DetectorModel",
    "EllipsometricEstimate",
    "ExperimentScale",
    "FilmStack",
    "FitError",
    "ReflectionPair",
    "SampleParams",
    "__version__",
    "classical_psi_estimate",
    "coincidence_rate",
    "expected_counts",
    "film_stack_reflectance",
    "fresnel_interface",
    "least_squares_fit",
    "psi_delta_from_coeffs",
    "simulate_counts",
    "subtract_accidentals",
    "three_angle_from_counts",
    "three_angle_invert",
    "visibility",
]


def test_public_names_are_pinned():
    assert sorted(qellip.__all__) == PUBLIC_NAMES
    for name in qellip.__all__:
        getattr(qellip, name)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # No linter runs on the package, so a name left imported after its last use would stay.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # __init__ imports to re-export: the names in __all__ are used
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= {elt.value for elt in node.value.elts}
    assert sorted(bound - used) == []


def test_cli_takes_the_estimate_from_the_entry_alone():
    # The estimate, its residuals and its failure come from estimate._estimate_table;
    # the CLI neither reaches into the estimator nor rebuilds the forward model.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    imported = {((node.module or "").rpartition(".")[2], alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if module == "estimate" and name.startswith("_")} == {"_estimate_table"}
    kernel = {"analyzer_terms", "rate_shape", "mean_counts", "record_columns"}
    assert {name for module, name in imported if module == "experiment"} & kernel == set()


def test_cli_opens_files_in_its_reader_and_writer_alone():
    # Both input files are read by _read_text, so each read fails the same way.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    openers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"}
    calls = sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open" for node in ast.walk(tree))
    assert openers == {"_read_text", "_write_text"} and calls == 2
