"""The lazy package namespace: every public name resolves on first use to
the object its submodule defines, and each submodule resolves as a package
attribute without an explicit import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mesoc_kit as mk

# the 59 public names and their home modules: the eager __init__'s, less
# lyap_basis_monotone_nonneg, which is lyap_basis_mesoc(p, 0),
# duality_chain, whose chain is cones.complementarity_terms, and
# hyperplane_isotone_test, whose question check_isotone asks of z - <a, z> a
PUBLIC = {
    "cones": (
        "CompPair", "ComplementarityReport", "ConeSpec", "Decomposition",
        "PartitionedVector", "contains", "contains_batch", "cylinder", "cylinder_dual",
        "decompose", "dual_of", "esoc", "esoc_dual",
        "in_complementarity_set", "lorentz", "membership_slacks", "mesoc", "mesoc_dual",
        "monotone", "monotone_dual", "monotone_nonneg", "monotone_nonneg_dual",
        "nonneg_orthant",
    ),
    "errors": (
        "DimensionError", "MembershipError", "MesocKitError", "OracleError", "SchemaError",
        "UnsupportedConeError",
    ),
    "lyapunov": (
        "LyapMatrix", "is_lyapunov_like", "lyap_basis_mesoc", "lyapunov_rank_numeric",
        "predicted_rank",
    ),
    "micp_solver": (
        "AffineMap", "IterationTrace", "MicpInstance", "ScalarComboMap", "ScalarField",
        "StructuredMap", "check_solvability_preconditions", "evaluate_map",
        "example_instance", "picard_solve", "picard_step", "region_membership",
        "verify_solution",
    ),
    "order": (
        "IsotonicityReport", "OrderedPairSample", "check_isotone", "cone_leq",
    ),
    "projections": ("ProjectionResult", "project", "project_batch", "project_oracle"),
    "sampling": ("complementarity_pairs", "rng_from_seed", "sample", "sample_ordered_pairs"),
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def _fresh(code: str) -> str:
    src = Path(mk.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_parents_public_names():
    assert len(HOME) == 59
    assert mk.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_submodule_object(name):
    module = importlib.import_module(f"mesoc_kit.{HOME[name]}")
    assert getattr(mk, name) is getattr(module, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from mesoc_kit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOME)
    assert all(namespace[name] is getattr(mk, name) for name in HOME)
    assert set(HOME) <= set(dir(mk))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mk.no_such_name
    assert not hasattr(mk, "no_such_name")


def test_star_import_in_fresh_interpreter():
    out = _fresh(
        "import mesoc_kit\nfrom mesoc_kit import *\n"
        "print(all(name in globals() for name in mesoc_kit.__all__), project.__module__)"
    )
    assert out.split() == ["True", "mesoc_kit.projections"]


def test_submodules_resolve_without_import():
    out = _fresh(
        "import sys, mesoc_kit as mk\n"
        "for name in ('_kernels', 'cli', 'sampling'):\n"
        "    module = getattr(mk, name)\n"
        "    print(module.__name__, module is sys.modules[module.__name__])"
    )
    assert out.split() == [
        "mesoc_kit._kernels", "True", "mesoc_kit.cli", "True", "mesoc_kit.sampling", "True",
    ]
