"""Calculus for ordered cones with a norm tail, and an isotone fixed-point
solver for complementarity problems on cylinders.

Importing the package loads nothing else (PEP 562).  Each public name, and
each submodule (``mesoc_kit.cones``, ``mesoc_kit.projections``, ...), is
imported on first use and then cached here, so the CLI pays only for the
modules a subcommand runs."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
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
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = ("_kernels", "cli", *_PUBLIC)

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
