"""Every metric the benchmark reports, with its unit.

``END_TO_END`` are the figures every workload reports on the last line of an
untraced run (``--trace 0``); ``PER_LAYER`` the figures every traced run
(``--trace 1``) reports.  ``NAMED`` are the per-workload end-to-end figures a
user of each entry point sees; they are printed and written to the result
file of every untraced run, and ``repeat.py`` flags them against their bounds.
"""

WORKLOADS = ("cli_problems", "solve_sweep", "batch_analysis")

# name -> unit; every workload reports all of them
END_TO_END = {
    "round_rel": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# workload -> name -> (unit, better, bound as a share of the median).  These
# are raw wall-clock figures, so their bounds are wide: on the shared machine
# the benchmark was written on, raw times of five seeds spread 5-35% between
# their quartiles (see README.md).
NAMED = {
    "cli_problems": {
        "cli_p50_s": ("s", "lower", 0.15),
        "cli_tail_s": ("s", "lower", 0.2),
    },
    "solve_sweep": {
        "solve_small_ms": ("ms", "lower", 0.25),
        "solve_large_pav_ms": ("ms", "lower", 0.25),
        "solve_large_closed_ms": ("ms", "lower", 0.25),
        "solve_iters": ("count", "lower", 0.1),
    },
    "batch_analysis": {
        "pav_batch_rows_per_s": ("rows/s", "higher", 0.25),
        "membership_rows_per_s": ("rows/s", "higher", 0.25),
        "isotone_pairs_per_s": ("pairs/s", "higher", 0.25),
        "lyap_rank_ms": ("ms", "lower", 0.25),
    },
}
# the raw wall time behind round_rel, reported by every workload
for _named in NAMED.values():
    _named["round_s"] = ("s", "lower", 0.25)

CLI_COMMANDS = (
    "contains",
    "solve",
    "lyap-rank",
    "check.project",
    "check.isotone",
    "check.complementarity",
    "check.verify",
    "check.decompose",
)
PROJECTION_KINDS = ("monotone", "monotone_nonneg", "nonneg_orthant", "lorentz", "cylinder")


def _per_layer() -> dict:
    out = {
        "import.total_ms": "ms",
        "import.scipy_optimize_ms": "ms",
        "import.numpy_ms": "ms",
        "cli.load_problem_ms": "ms",
    }
    out.update({f"cli.compute_ms.{c}": "ms" for c in CLI_COMMANDS})
    out.update(
        {
            "cli.emit_ms": "ms",
            "cli.process_overhead_ms": "ms",
            "kernels.isotonic_decreasing.calls": "count",
            "kernels.isotonic_decreasing.us_per_call": "us",
            "kernels.isotonic_decreasing_batch.rows_per_s": "rows/s",
        }
    )
    for kind in PROJECTION_KINDS:
        out[f"projections.project.{kind}.calls"] = "count"
        out[f"projections.project.{kind}.us_per_call"] = "us"
    out.update(
        {
            "projections.project_oracle.ms": "ms",
            "micp_solver.picard_step.us_per_call": "us",
            "micp_solver.map_update.us_per_call": "us",
            "micp_solver.picard_solve.self_ms": "ms",
            "micp_solver.verify_solution.ms": "ms",
            "micp_solver.order_cert_ok_ratio": "ratio",
            "cones.contains.us_per_call": "us",
            "cones.contains_batch.rows_per_s": "rows/s",
            "order.check_isotone.pairs_per_s": "pairs/s",
            "sampling.sample_ordered_pairs.ms": "ms",
            "sampling.complementarity_pairs.ms": "ms",
            "lyapunov.svd.ms": "ms",
            "trace.spans": "count",
            "trace.overhead_ratio": "ratio",
        }
    )
    return out


PER_LAYER = _per_layer()
