"""End-to-end CLI coverage: the shipped problem files, exit codes, output
byte-determinism, the CSV trace, and the schema/dimension error paths."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mesoc_kit as mk
from mesoc_kit import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# shipped problem files


@pytest.mark.parametrize(
    "name,args,code",
    [
        ("contains_mesoc.json", ("contains",), 0),
        ("solve_cylinder.json", ("solve",), 0),
        ("lyap_rank_mesoc.json", ("lyap-rank",), 0),
        ("check_project_monotone_nonneg.json", ("check", "project"), 0),
        ("check_isotone_mesoc.json", ("check", "isotone"), 0),
        ("check_isotone_esoc.json", ("check", "isotone"), 5),
        ("check_complementarity_mesoc.json", ("check", "complementarity"), 0),
        ("check_verify_cylinder.json", ("check", "verify"), 0),
        ("check_decompose_mesoc.json", ("check", "decompose"), 0),
    ],
)
def test_shipped_problems(capsys, name, args, code):
    got, out, _ = run_cli(capsys, *args, str(PROBLEMS / name))
    assert got == code, out
    json.loads(out)  # always a single well-formed JSON document


def test_contains_report(capsys):
    _, out, _ = run_cli(capsys, "contains", str(PROBLEMS / "contains_mesoc.json"))
    doc = json.loads(out)
    assert doc["contains"] is True
    assert doc["min_slack"] == 0.0  # the point sits on the norm face
    assert doc["cone"] == {"kind": "mesoc", "p": 3, "q": 2}
    assert len(doc["slacks"]) == 3
    assert doc["command"] == "contains" and doc["exit_status"] == 0


def test_contains_worked_instance_direction(capsys, tmp_path):
    # the first combination direction of the shipped map is itself a member
    doc = {
        "version": 1,
        "command": "contains",
        "cone": {"kind": "mesoc", "p": 2, "q": 2},
        "payload": {"point": [2.0, 1.0, 1.0 / 3.0, 1.0 / 6.0]},
    }
    code, out, _ = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 0 and json.loads(out)["contains"] is True


def test_solve_report(capsys):
    code, out, _ = run_cli(capsys, "solve", str(PROBLEMS / "solve_cylinder.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert doc["verify"]["ok"] is True and doc["verify"]["failed"] == []
    assert doc["order_certificates_all_ok"] is True
    np.testing.assert_allclose(
        doc["solution"]["x"] + doc["solution"]["u"],
        [1.4371366669911425, 0.7185683334955713, 0.30698734726143195, 0.052296819486353625],
        atol=1e-11,
    )


def test_lyap_rank_report(capsys):
    _, out, _ = run_cli(capsys, "lyap-rank", str(PROBLEMS / "lyap_rank_mesoc.json"))
    doc = json.loads(out)
    assert doc["rank"] == 5 and doc["predicted"] == 5 and doc["agree"] is True
    assert doc["matrix_dim"] == 4 and doc["singular_gap"] > 1e6
    assert doc["settings"] == {"n_pairs": 300, "seed": 0}


def test_lyap_rank_refuses_large_cones(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "lyap-rank",
        "cone": {"kind": "mesoc", "p": 8, "q": 4},
        "payload": {},
    }
    code, _, err = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    assert code == 3 and "dimension" in err


def test_isotone_failure_report_names_the_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "isotone", str(PROBLEMS / "check_isotone_esoc.json"))
    assert code == 5
    doc = json.loads(out)
    assert doc["held"] is False and doc["violations"] >= 1
    # the reported witness is the worst violation found; replay it by hand
    cone = mk.esoc(2, 2)
    lo, hi = np.array(doc["witness"]["lo"]), np.array(doc["witness"]["hi"])
    assert mk.contains(cone, hi - lo)  # the input pair really is ordered
    slacks = mk.membership_slacks(cone, np.array(doc["witness"]["image_diff"]))
    assert doc["witness"]["margin"] < 0
    np.testing.assert_allclose(slacks[doc["witness"]["failed_inequality"]],
                               doc["witness"]["margin"], rtol=1e-12)


def test_decompose_report(capsys):
    _, out, _ = run_cli(capsys, "check", "decompose", str(PROBLEMS / "check_decompose_mesoc.json"))
    doc = json.loads(out)
    assert doc["ok"] is True
    np.testing.assert_allclose(doc["weights"], [2.0, 1.5, 1.5], atol=1e-12)


# ---------------------------------------------------------------------------
# output behaviour


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "solve", str(PROBLEMS / "solve_cylinder.json"))
    _, second, _ = run_cli(capsys, "solve", str(PROBLEMS / "solve_cylinder.json"))
    assert first == second
    assert first.endswith("\n")


def test_text_output(capsys):
    _, out, _ = run_cli(
        capsys, "contains", str(PROBLEMS / "contains_mesoc.json"), "--output", "text"
    )
    lines = out.splitlines()
    assert "contains: true" in lines
    assert "cone.kind: \"mesoc\"" in lines
    assert any(line.startswith("slacks: [") for line in lines)


def test_trace_csv(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "solve", str(PROBLEMS / "solve_cylinder.json"), "--trace", str(trace)
    )
    assert code == 0
    rows = list(csv.reader(trace.open()))
    assert rows[0] == ["iter", "x_1", "x_2", "u_1", "u_2", "step_norm", "order_ok"]
    assert len(rows) == json.loads(out)["iterations"] + 2  # header + start row
    start = [float(v) for v in rows[1][1:5]]
    assert start == [0.0, 0.0, 0.0, 0.0] and rows[1][5] == "0.0" and rows[1][6] == "1"
    np.testing.assert_allclose(
        [float(v) for v in rows[2][1:5]], [0.8, 0.4, 7.0 / 30.0, 0.0], rtol=1e-15
    )
    np.testing.assert_allclose(
        [float(v) for v in rows[3][1:5]],
        [7.0 / 6.0, 7.0 / 12.0, 331.0 / 1200.0, 19.0 / 1200.0],
        rtol=1e-14,
    )
    assert all(row[6] == "1" for row in rows[1:])
    # floats round-trip exactly through the file
    assert float(rows[2][3]) == 7.0 / 30.0


def test_hyperplane_mode(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "check.isotone",
        "cone": {"kind": "mesoc", "p": 2, "q": 2},
        "payload": {"normal": [0.0, 0.0, 1.0, 0.0]},
    }
    code, out, _ = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "hyperplane" and report["held"] is True

    doc["payload"]["normal"] = [1.0, 0.0, 0.0, 0.0]
    code, out, _ = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
    assert code == 5
    report = json.loads(out)
    assert report["held"] is False and "witness" in report


# ---------------------------------------------------------------------------
# exit codes on bad input


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "contains", "/no/such/file.json")
    assert code == 2 and "cannot read" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "contains", str(path))
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"version": 1, "command": "solve", "cone": {"kind": "mesoc", "p": 2, "q": 2},
         "payload": {}},  # wrong command for the subcommand invoked
        {"version": 2, "command": "contains", "cone": {"kind": "mesoc", "p": 2, "q": 2},
         "payload": {"point": [1, 1, 0, 0]}},  # unsupported version
        {"version": 1, "command": "contains", "cone": {"kind": "moebius", "p": 2},
         "payload": {"point": [1, 1]}},  # unknown cone kind
        {"version": 1, "command": "contains", "cone": {"kind": "mesoc", "p": 2, "q": 2}},
        {"version": 1, "command": "contains", "cone": {"kind": "mesoc", "p": 2, "q": 2},
         "payload": {}},  # payload missing the point
        {"version": 1, "command": "contains", "cone": {"kind": "cylinder", "p": 2},
         "payload": {"point": [1, 1]}},  # cylinder without inner cone
    ],
)
def test_schema_errors(capsys, tmp_path, doc):
    code, _, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 2 and err.startswith("error:")


def test_dimension_error(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "contains",
        "cone": {"kind": "mesoc", "p": 2, "q": 2},
        "payload": {"point": [1.0, 1.0, 0.0]},
    }
    code, _, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 3 and "error:" in err


def test_non_convergence_exit(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "solve",
        "cone": {"kind": "cylinder", "p": 2, "inner": {"kind": "monotone_nonneg", "p": 2}},
        "payload": {
            "map": {
                "kind": "affine",
                "p": 2,
                "q": 2,
                "matrix": [[-2.0, 0, 0, 0], [0, -2.0, 0, 0], [0, 0, -2.0, 0], [0, 0, 0, -2.0]],
                "offset": [-1.0, -1.0, -1.0, -1.0],
            }
        },
    }
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    assert code == 4
    assert json.loads(out)["status"] == "diverged"


def test_check_failed_exit_for_non_member_pair(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "check.complementarity",
        "cone": {"kind": "mesoc", "p": 2, "q": 2},
        "payload": {"primal": [1.0, 1.0, 0.6, 0.8], "dual": [0.5, 0.5, 0.6, 0.8]},
    }
    code, out, _ = run_cli(capsys, "check", "complementarity", write_problem(tmp_path, doc))
    assert code == 5
    doc_out = json.loads(out)
    assert doc_out["member"] is False and doc_out["failed"]


def test_check_failed_exit_for_non_solution(capsys, tmp_path):
    shipped = json.loads((PROBLEMS / "check_verify_cylinder.json").read_text())
    shipped["payload"]["point"] = [0.8, 0.4, 7.0 / 30.0, 0.0]  # one step in, not a fixed point
    code, out, _ = run_cli(capsys, "check", "verify", write_problem(tmp_path, shipped))
    assert code == 5
    report = json.loads(out)
    assert report["ok"] is False and "g_norm" in report["failed"]
    assert report["region"]["in_feasible"] is False
    assert report["exit_status"] == 5  # the report echoes its own exit code


def test_check_project_cone_without_constraints(capsys, tmp_path):
    doc = {
        "version": 1,
        "command": "check.project",
        "cone": {"kind": "monotone", "p": 1},
        "payload": {"point": [-2.5]},
    }
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["point"] == [-2.5] and report["oracle_gap"] == 0.0


def test_check_project_cylinder_over_lorentz(capsys, tmp_path, rng):
    cone = {"kind": "cylinder", "p": 2, "inner": {"kind": "lorentz", "p": 3}}
    for i, point in enumerate(2.0 * rng.normal(size=(200, 5))):
        doc = {"version": 1, "command": "check.project", "cone": cone,
               "payload": {"point": point.tolist()}}
        code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
        assert code == 0, (i, point, out)


def test_cli_import_loads_no_scipy():
    src = Path(mk.__file__).resolve().parent.parent
    code = "import sys, mesoc_kit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "mesoc-kit" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mesoc_kit", "contains", str(PROBLEMS / "contains_mesoc.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["contains"] is True
