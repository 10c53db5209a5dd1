"""End-to-end CLI coverage: the shipped problem files, exit codes, output
byte-determinism, the CSV trace, and the schema/dimension error paths."""

import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mesoc_kit as mk
from mesoc_kit import cli, projections

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

_BASE_KINDS = sorted(mk.cones.KINDS - {"cylinder", "cylinder_dual"})


def _no_oracle(*args, **kwargs):
    raise AssertionError("a CLI path ran the face-enumeration oracle")


# project_oracle is the tests' independent second projection; no subcommand
# may call it (check project certifies by Moreau's conditions instead)
@pytest.fixture(autouse=True, scope="module")
def _oracle_off_the_cli_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projections, "project_oracle", _no_oracle)
        yield


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


GOLDEN = Path(__file__).resolve().parent / "golden"


# stdout of every shipped file, byte for byte; a golden file changes only with
# an intended change to a report
@pytest.mark.parametrize("mode", ["json", "text"])
@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda path: path.stem)
def test_golden_reports(capsys, path, mode):
    command = json.loads(path.read_text())["command"]
    code, out, _ = run_cli(capsys, *command.split("."), str(path), "--output", mode)
    assert out == (GOLDEN / f"{path.stem}.{mode}.out").read_text(encoding="utf-8")
    assert code == json.loads((GOLDEN / f"{path.stem}.json.out").read_text())["exit_status"]


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
    assert doc["matrix_dim"] == 4 and doc["singular_gap_log10"] > 6
    assert doc["settings"] == {"n_pairs": 300, "seed": 0}


# At the least sample the CLI takes, one doubling of the Moreau pairs can
# agree on a wrong rank; doubling until the rank repeats finds the right one.
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("shape", [(5, 5), (3, 2)], ids=str)
def test_lyap_rank_at_the_least_sample(capsys, tmp_path, shape, seed):
    p, q = shape
    doc = {"version": 1, "command": "lyap-rank", "cone": {"kind": "mesoc", "p": p, "q": q},
           "payload": {"n_pairs": (p + q) ** 2}}
    code, out, _ = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc), "--seed", str(seed))
    assert code == 0 and json.loads(out)["agree"] is True


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
    assert doc["factors"] == [{"factor": "ray", "columns": [0, 2]},
                              {"factor": "lorentz", "columns": [2, 5]}]
    # A's drops and x_p of [5.0, 3.5, 2.0, 1.2, 1.6]
    np.testing.assert_allclose(doc["image"][:3], [1.5, 1.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(doc["summands"], [[3.0, 1.5, 0, 0, 0], [2, 2, 2, 1.2, 1.6]])


@pytest.mark.parametrize("point", [[5.0, 3.0, 4.0], [2.0, 0.5, -1.0], [1.0, 0.0, 0.0, 0.0]])
def test_decompose_reads_lorentz_as_mesoc(capsys, tmp_path, point):
    # lorentz(n) is L(1, n - 1): the two descriptions give the same bytes
    outs = []
    for cone in ({"kind": "lorentz", "p": len(point)},
                 {"kind": "mesoc", "p": 1, "q": len(point) - 1}):
        doc = {"version": 1, "command": "check.decompose", "cone": cone, "payload": {"point": point}}
        for mode in ("json", "text"):
            code, out, _ = run_cli(capsys, "check", "decompose", write_problem(tmp_path, doc),
                                   "--output", mode)
            outs.append((code, out))
    assert outs[:2] == outs[2:] and outs[0][0] == 0


def _wrapped(kind, wrap, p=2, q=1):
    """A cone of ``kind``, in a cylinder or dual cylinder when ``wrap`` says so."""
    cone = mk.cones.ConeSpec(kind, p, q if kind in mk.cones.PARTITIONED_KINDS else 0)
    return mk.cones.ConeSpec(wrap, 2, cone.dim, cone) if wrap else cone


def _decompose(capsys, tmp_path, cone, point):
    doc = {"version": 1, "command": "check.decompose", "cone": cli.cone_to_json(cone),
           "payload": {"point": point.tolist()}}
    return run_cli(capsys, "check", "decompose", write_problem(tmp_path, doc))


@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
def test_decompose_splits_every_kind(capsys, tmp_path, rng, kind, wrap):
    cone = _wrapped(kind, wrap)
    for z in mk.sample(cone, rng, 5):
        code, out, err = _decompose(capsys, tmp_path, cone, z)
        report = json.loads(out)
        assert code == 0 and report["ok"] is True, (cone, err)
        np.testing.assert_allclose(np.sum(report["summands"], axis=0), z, rtol=0, atol=1e-12)


# The reconstruction gap is judged over 1 + max|z|, so no sampled member is
# refused for it at any scale.  Membership stays absolute (ROADMAP item 2): a
# point holding an equality may miss it by its rounding at a large scale and
# be refused as not in the cone, the one refusal left.
@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decompose_refuses_no_member_for_its_reconstruction(capsys, tmp_path, kind, wrap, data):
    cone = _wrapped(kind, wrap, data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3)))
    rng = mk.rng_from_seed(data.draw(st.integers(0, 99)))
    z = mk.sample(cone, rng, 1)[0] * 10.0 ** data.draw(st.floats(-3.0, 9.0))
    code, out, err = _decompose(capsys, tmp_path, cone, z)
    if code:
        assert code == 5 and out == "" and "is not in" in err, (cone, out, err)
    else:
        assert json.loads(out)["reconstruction_gap"] <= mk.cones.DEFAULT_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: membership is judged by an "
                   "absolute tolerance, and the sum of a scaled monotone_dual point "
                   "misses 0 by more than 1e-10")
def test_decompose_takes_scaled_members_of_an_equality_cone(capsys, tmp_path, rng):
    cone = mk.monotone_dual(4)
    for z in mk.sample(cone, rng, 20) * 1e9:
        code, _, err = _decompose(capsys, tmp_path, cone, z)
        assert code == 0, err


@pytest.mark.parametrize("cone", [mk.mesoc(3, 2), mk.monotone(4),
                                  mk.cylinder_dual(2, mk.lorentz(3))], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_decompose_refuses_summands_that_miss_the_point(capsys, tmp_path, monkeypatch, rng,
                                                        cone, scale):
    # summands that miss z by 1e-6 of 1 + max|z| must fail the check
    def off(cone, z, tol):
        dec = mk.decompose(cone, z, tol)
        summands = dec.summands.copy()
        summands[0, 0] += 1e-6 * (1.0 + np.abs(z).max())
        return mk.Decomposition(dec.factors, dec.image, summands)

    monkeypatch.setattr(cli, "decompose", off)
    code, out, _ = _decompose(capsys, tmp_path, cone, mk.sample(cone, rng, 1)[0] * scale)
    report = json.loads(out)
    assert code == 5 and report["ok"] is False
    assert report["reconstruction_gap"] == pytest.approx(1e-6, rel=1e-3)


_LIMIT = 1.7e308


# A split that overflows is judged again on the point scaled by a power of
# two: the first point's drop x_1 - x_2 is inf, the third's image is finite
# but its summands add up past the float limit.
@pytest.mark.parametrize("cone,point", [(mk.monotone(2), [_LIMIT, -_LIMIT]),
                                        (mk.mesoc(2, 1), [_LIMIT, 1e308, 1e150]),
                                        (mk.monotone(3), [_LIMIT, 0.0, -_LIMIT])],
                         ids=["monotone", "mesoc", "monotone-sum"])
def test_decompose_at_the_float_limit(capsys, recwarn, tmp_path, cone, point):
    code, out, err = _decompose(capsys, tmp_path, cone, np.array(point))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["reconstruction_gap"] == 0.0, report
    assert err == "" and not recwarn.list, [str(w.message) for w in recwarn]


def test_decompose_refuses_a_non_member_at_the_float_limit(capsys, tmp_path):
    code, out, err = _decompose(capsys, tmp_path, mk.monotone(2), np.array([-1e308, 1e308]))
    assert code == 5 and out == "" and "is not in" in err


def test_decompose_names_a_nested_cone_in_one_short_line(capsys, tmp_path):
    # the refusal names the outer kind and the dimension, not the whole nest
    cone = mk.mesoc(1, 1)
    for _ in range(100):
        cone = mk.cylinder(1, cone)
    code, out, err = _decompose(capsys, tmp_path, cone, -np.ones(cone.dim))
    lines = err.splitlines()
    assert code == 5 and out == "" and len(lines) == 1, err
    assert lines[0].startswith("error:") and "cylinder" in lines[0] and len(lines[0]) < 200, lines[0]


# An overflow to +-inf, or inf - inf = NaN, is a slack of the report, never a
# warning on stderr; the verdicts at the float limit belong to ROADMAP item 2.
@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
def test_contains_is_silent_at_the_float_limit(capsys, recwarn, tmp_path, kind, wrap):
    cone = _wrapped(kind, wrap, 2, 2)
    for signs in itertools.product([1.0, -1.0], repeat=cone.dim):
        doc = {"version": 1, "command": "contains", "cone": cli.cone_to_json(cone),
               "payload": {"point": [s * _LIMIT for s in signs]}}
        code, out, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
        assert code == 0 and err == "", (cone, signs, err)
        json.loads(out)
    assert not recwarn.list, [str(w.message) for w in recwarn]


def _silent_at_the_limit(capsys, recwarn, tmp_path, command, cone, payloads, codes):
    """Run ``command`` on each payload: an exit code in ``codes``, one JSON
    report, and no traceback or warning."""
    for payload in payloads:
        doc = {"version": 1, "command": command, "cone": cli.cone_to_json(cone),
               "payload": payload}
        code, out, err = run_cli(capsys, *command.split("."), write_problem(tmp_path, doc))
        assert code in codes and err == "", (cone, payload, code, err)
        json.loads(out)
    assert not recwarn.list, [str(w.message) for w in recwarn]


def _limit_points(n):
    return [[s * _LIMIT for s in signs] for signs in itertools.product([1.0, -1.0], repeat=n)]


def _of_dim(kind, n):
    """A cone of ``kind`` in R^n, with p = n - n // 2 where it has a u block."""
    if kind in mk.cones.PARTITIONED_KINDS:
        return mk.cones.ConeSpec(kind, n - n // 2, n // 2)
    return mk.cones.ConeSpec(kind, n)


# ||v - P(v)|| past the float range reads null, and the rescaled distance
# used to raise OverflowError in math.ldexp
@pytest.mark.parametrize("kind", _BASE_KINDS)
def test_check_project_is_silent_at_the_float_limit(capsys, recwarn, tmp_path, kind):
    cone = _of_dim(kind, 4)
    points = _limit_points(4) + [[_LIMIT, -_LIMIT, _LIMIT, 1e308]]
    _silent_at_the_limit(capsys, recwarn, tmp_path, "check.project", cone,
                         [{"point": point} for point in points], {0, 5})


@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
def test_check_complementarity_is_silent_at_the_float_limit(capsys, recwarn, tmp_path, kind, wrap):
    cone = _wrapped(kind, wrap, 2, 2)
    points = _limit_points(cone.dim)
    pairs = [{"primal": z, "dual": w} for z, w in zip(points, points[::-1] + points[1:])]
    _silent_at_the_limit(capsys, recwarn, tmp_path, "check.complementarity", cone, pairs, {0, 5})


# the shipped map over a cylinder on every base kind of dimension 2
@pytest.mark.parametrize("kind", _BASE_KINDS)
def test_check_verify_is_silent_at_the_float_limit(capsys, recwarn, tmp_path, kind):
    shipped = json.loads((PROBLEMS / "check_verify_cylinder.json").read_text())["payload"]
    cone = mk.cylinder(2, _of_dim(kind, 2))
    points = _limit_points(4) + [[_LIMIT, -_LIMIT, _LIMIT, 1e308]]
    _silent_at_the_limit(capsys, recwarn, tmp_path, "check.verify", cone,
                         [dict(shipped, point=point) for point in points], {0, 5})


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


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_trace_exits_2(capsys, tmp_path, where):
    trace = tmp_path if where == "directory" else tmp_path / "missing" / "trace.csv"
    code, out, err = run_cli(
        capsys, "solve", str(PROBLEMS / "solve_cylinder.json"), "--trace", str(trace)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write trace file: ")
    assert not (tmp_path / "missing").exists()


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
    # the map mode's report: the map test runs on z - <a, z> a
    assert report["mode"] == "hyperplane" and report["held"] is True
    assert report["checked"] == 200 and report["violations"] == 0 and "witness" not in report

    doc["payload"]["normal"] = [1.0, 0.0, 0.0, 0.0]
    code, out, _ = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
    assert code == 5
    report = json.loads(out)
    assert report["mode"] == "hyperplane" and report["held"] is False
    assert report["violations"] > 0 and "min_margin" not in report
    witness = report["witness"]
    assert set(witness) == {"lo", "hi", "image_diff", "failed_inequality", "margin"}
    assert witness["margin"] < 0 and not mk.contains(mk.mesoc(2, 2), witness["image_diff"])


def test_hyperplane_normal_is_held_to_1e8(capsys, tmp_path):
    # np.isclose kept its default rtol=1e-5, so a length of 1 + 9e-6 passed
    doc = {"version": 1, "command": "check.isotone", "cone": {"kind": "mesoc", "p": 2, "q": 2}}
    for length, expect in ((1.0 + 9e-6, 2), (1.0 + 2e-8, 2), (1.0 + 5e-9, 0)):
        doc["payload"] = {"normal": [0.0, 0.0, length, 0.0]}
        code, out, err = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
        assert code == expect, (length, err)
        assert (out == "" and "unit vector" in err) if code else json.loads(out)["held"]


def _edited(name, path=(), value=None):
    """The shipped problem ``name`` with the entry at ``path`` set to ``value``."""
    doc = json.loads((PROBLEMS / name).read_text())
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "args,name,path,value,tol",
    [
        # each point misses its check by 0.1
        (("contains",), "contains_mesoc.json", ("payload", "point"), [3.0, 2.0, 1.4, 0.9, 1.2], 0.25),
        (("check", "complementarity"), "check_complementarity_mesoc.json",
         ("payload", "primal"), [1.1, 1.0, 0.6, 0.8], 0.25),
        (("check", "decompose"), "check_decompose_mesoc.json",
         ("payload", "point"), [5.0, 3.5, 1.9, 1.2, 1.6], 0.25),
        # the worst image difference has margin -2.985
        (("check", "isotone"), "check_isotone_esoc.json", (), None, 3.0),
    ],
)
def test_tol_flag_reaches_the_check(capsys, tmp_path, args, name, path, value, tol):
    path_ = write_problem(tmp_path, _edited(name, path, value))
    code, out, _ = run_cli(capsys, *args, path_)
    assert code == 5 or json.loads(out)["contains"] is False
    code, out, _ = run_cli(capsys, *args, path_, "--tol", str(tol))
    report = json.loads(out)
    assert code == 0 and report["settings"]["tol"] == tol
    assert report.get("contains", True) is True


@pytest.mark.parametrize(
    "args,name,cone",
    [
        (("solve",), "solve_cylinder.json", {"kind": "mesoc", "p": 2, "q": 2}),
        (("check", "verify"), "check_verify_cylinder.json", {"kind": "mesoc", "p": 2, "q": 2}),
    ],
)
def test_commands_refuse_other_cone_kinds(capsys, tmp_path, args, name, cone):
    code, out, err = run_cli(capsys, *args, write_problem(tmp_path, _edited(name, ("cone",), cone)))
    assert code == 2 and out == "" and "expects a" in err


@pytest.mark.parametrize("cone", [{"kind": "nonneg_orthant", "p": 2, "q": 1},
                                  {"kind": "monotone", "p": 2, "q": 2}])
def test_unpartitioned_kinds_take_no_q(capsys, tmp_path, cone):
    # nonneg_orthant(2) with q = 1 read only x: it held [1, 1, -5] but
    # projected it to [1, 1, 0]
    doc = {"version": 1, "command": "contains", "cone": cone,
           "payload": {"point": [1.0] * (cone["p"] + cone["q"])}}
    code, out, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "q must be 0" in err


def test_lyap_rank_predicts_the_esoc_dual(capsys, tmp_path):
    # esoc(2, 1) has rank 1 + q(q - 1)/2 = 1 (Sznajder), and so has its dual
    doc = {"version": 1, "command": "lyap-rank", "cone": {"kind": "esoc_dual", "p": 2, "q": 1},
           "payload": {"n_pairs": 100}}
    code, out, _ = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["predicted"] == report["rank"] == 1 and report["agree"] is True
    assert report["rank"] == mk.lyapunov_rank_numeric(mk.esoc_dual(2, 1), n_pairs=100).rank


@pytest.mark.parametrize("cone,rank", [({"kind": "monotone", "p": 3}, 5),
                                       ({"kind": "monotone_dual", "p": 4}, 7)])
def test_lyap_rank_predicts_the_monotone_pair(capsys, tmp_path, cone, rank):
    doc = {"version": 1, "command": "lyap-rank", "cone": cone, "payload": {"n_pairs": 100}}
    code, out, _ = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["rank"] == report["predicted"] == rank and report["agree"] is True


def test_check_isotone_refuses_before_evaluating(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "check_isotone_mesoc.json").read_text())
    # the unit length is held to 1e-8: 1 + 9e-6 is refused too
    for length in (2.0, 1.0 + 9e-6):
        hyper = dict(doc, payload={"normal": [0.0, 0.0, length, 0.0]})
        code, out, err = run_cli(capsys, "check", "isotone", write_problem(tmp_path, hyper))
        assert code == 2 and out == "" and "unit vector" in err
    for n in (3, 5):  # an affine map of another size than the cone's 4
        bad = dict(doc, payload={"map": {"kind": "affine", "p": 2, "q": n - 2,
                                         "matrix": np.eye(n).tolist(), "offset": [0.0] * n}})
        code, out, err = run_cli(capsys, "check", "isotone", write_problem(tmp_path, bad))
        assert code == 3 and out == "" and "does not match" in err


@pytest.mark.parametrize("keep", [("map", "pairs"), ("map",), ("pairs",)], ids="+".join)
def test_check_isotone_refuses_a_normal_beside_a_map(capsys, tmp_path, keep):
    # the hyperplane test used to run and drop the map and its pairs in silence
    doc = json.loads((PROBLEMS / "check_isotone_esoc.json").read_text())
    doc["payload"] = {key: doc["payload"][key] for key in keep}
    doc["payload"]["normal"] = [0.0, 0.0, 1.0, 0.0]
    code, out, err = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'normal'" in err


@pytest.mark.parametrize("pairs", [5, None])
def test_check_isotone_refuses_extra_pairs_that_are_not_a_list(capsys, tmp_path, pairs):
    doc = json.loads((PROBLEMS / "check_isotone_mesoc.json").read_text())
    doc["payload"]["pairs"] = pairs
    code, out, err = run_cli(capsys, "check", "isotone", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'pairs' must be a list" in err


def test_verify_reports_no_slack_for_a_cone_without_inequalities(capsys, tmp_path):
    # monotone(1) holds every u: its least slack is +inf, reported as null
    doc = {"version": 1, "command": "check.verify",
           "cone": {"kind": "cylinder", "p": 1, "inner": {"kind": "monotone", "p": 1}},
           "payload": {"map": {"kind": "affine", "p": 1, "q": 1,
                               "matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
                       "point": [0.0, 0.0]}}
    code, out, _ = run_cli(capsys, "check", "verify", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["inner_slack"] is None and report["dual_slack"] == 0.0


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
        {"version": 1, "command": "contains", "cone": {"kind": [1], "p": 2},
         "payload": {"point": [1, 1]}},  # a kind that is not a string
        # versions equal to 1 that are not the integer 1
        {"version": True, "command": "contains", "cone": {"kind": "mesoc", "p": 2, "q": 2},
         "payload": {"point": [1, 1, 0, 0]}},
        {"version": 1.0, "command": "contains", "cone": {"kind": "mesoc", "p": 2, "q": 2},
         "payload": {"point": [1, 1, 0, 0]}},
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


@pytest.mark.parametrize("inner", [{"kind": "esoc", "p": 2, "q": 2}, {"kind": "esoc_dual", "p": 2, "q": 2}])
@pytest.mark.parametrize("max_iter", ["0", "1", "2000"])
def test_solve_on_a_cylinder_over_an_esoc_kind(capsys, tmp_path, inner, max_iter):
    # the update 0.5 z - b is a contraction: it converges, and a budget it
    # does not reach, no steps included, exits 4
    doc = {
        "version": 1,
        "command": "solve",
        "cone": {"kind": "cylinder", "p": 2, "inner": inner},
        "payload": {"map": {"kind": "affine", "p": 2, "q": 4, "matrix": (0.5 * np.eye(6)).tolist(),
                            "offset": [0.3, -0.2, 1.0, -0.5, 0.25, -1.5]}},
    }
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, doc), "--max-iter", max_iter)
    report = json.loads(out)
    if max_iter != "2000":
        assert code == 4 and report["status"] == "max_iter" and report["iterations"] == int(max_iter)
        return
    assert code == 0 and report["status"] == "converged"
    assert report["verify"]["ok"] is True and report["verify"]["failed"] == []
    cone = getattr(mk, inner["kind"])(2, 2)
    assert mk.contains(cone, report["solution"]["u"])


def test_lyap_rank_on_an_esoc_kind(capsys, tmp_path):
    # the numeric rank needs only project_batch; the rule gives 1 + q(q - 1)/2
    doc = {"version": 1, "command": "lyap-rank", "cone": {"kind": "esoc", "p": 2, "q": 3},
           "payload": {"n_pairs": 300}}
    code, out, _ = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0
    assert report["rank"] == report["predicted"] == 4 and report["agree"] is True


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


@pytest.mark.parametrize(
    "cone,primal,dual",
    [({"kind": "monotone", "p": 2}, [1e9, 1e9], [0, 5e-11]),
     ({"kind": "cylinder", "p": 1, "inner": {"kind": "nonneg_orthant", "p": 1}},
      [1e6, 0], [5e-11, 0])],
)
def test_check_complementarity_refuses_a_line_against_a_zero(capsys, tmp_path, cone, primal, dual):
    # both memberships hold within tol, but <z, w> is 0.05 and 5e-5, about
    # ||z|| ||w|| each
    doc = {"version": 1, "command": "check.complementarity", "cone": cone,
           "payload": {"primal": primal, "dual": dual}}
    code, out, _ = run_cli(capsys, "check", "complementarity", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 5 and report["failed"] == ["orthogonality"]
    assert sorted(report["residuals"]) == ["dual_membership", "orthogonality", "primal_membership"]


def test_check_failed_exit_for_non_solution(capsys, tmp_path):
    shipped = json.loads((PROBLEMS / "check_verify_cylinder.json").read_text())
    shipped["payload"]["point"] = [0.8, 0.4, 7.0 / 30.0, 0.0]  # one step in, not a fixed point
    code, out, _ = run_cli(capsys, "check", "verify", write_problem(tmp_path, shipped))
    assert code == 5
    report = json.loads(out)
    assert report["ok"] is False and "g_norm" in report["failed"]
    assert report["region"]["in_feasible"] is False
    assert report["exit_status"] == 5  # the report echoes its own exit code


def test_solve_rejects_nan_start(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "solve_cylinder.json").read_text())
    doc["payload"]["start"] = [0.0, float("nan"), 0.0, 0.0]
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'start'" in err and "finite" in err


def test_contains_rejects_nan_point(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "contains_mesoc.json").read_text())
    doc["payload"]["point"][1] = float("nan")
    code, out, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'point'" in err and "finite" in err


def test_contains_rejects_string_entry(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "contains_mesoc.json").read_text())
    doc["payload"]["point"][0] = "one"
    code, out, err = run_cli(capsys, "contains", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'point'" in err


@pytest.mark.parametrize(
    "path",
    [("fields", 0, "linear", 1), ("fields", 1, "norm_coeff"), ("fields", 0, "offset"),
     ("directions", 1, 2)],
)
@pytest.mark.parametrize("bad", [float("inf"), True, "0.5"])
def test_solve_rejects_bad_map_numbers(capsys, tmp_path, path, bad):
    doc = json.loads((PROBLEMS / "solve_cylinder.json").read_text())
    parent = doc["payload"]["map"]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "bad map description" in err


@pytest.mark.parametrize(
    "command,file,path",
    [
        ("contains", "contains_mesoc.json", ("cone", "p")),
        ("contains", "contains_mesoc.json", ("cone", "q")),
        ("solve", "solve_cylinder.json", ("cone", "inner", "p")),
        ("solve", "solve_cylinder.json", ("payload", "map", "p")),
        ("solve", "solve_cylinder.json", ("payload", "map", "q")),
        ("lyap-rank", "lyap_rank_mesoc.json", ("payload", "n_pairs")),
    ],
)
@pytest.mark.parametrize("bad", ["float", "truncated", True, "string", "x", None])
def test_integer_fields_must_be_json_integers(capsys, tmp_path, command, file, path, bad):
    doc = json.loads((PROBLEMS / file).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    good = parent[path[-1]]
    # the same number as a float or a string, a truncating float, a bool,
    # a non-numeric string and null
    parent[path[-1]] = {"float": float(good), "truncated": good + 0.7, "string": str(good)}.get(bad, bad)
    code, out, err = run_cli(capsys, command, write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "must be an integer" in err


def test_lyap_rank_refuses_negative_n_pairs(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "lyap_rank_mesoc.json").read_text())
    doc["payload"]["n_pairs"] = -3
    code, out, err = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    assert code == 2 and out == "" and "'n_pairs'" in err


@pytest.mark.parametrize("n_pairs,code", [(0, 2), (1, 2), (15, 2), (16, 0)])
def test_lyap_rank_needs_dim_squared_pairs(capsys, tmp_path, n_pairs, code):
    # mesoc(2, 2): each pair constrains the 16 entries of T once, so fewer
    # than 16 pairs cannot pin the rank down (0 and 1 used to report rank 6)
    doc = json.loads((PROBLEMS / "lyap_rank_mesoc.json").read_text())
    doc["payload"]["n_pairs"] = n_pairs
    got, out, err = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    assert got == code
    if code:
        assert out == "" and "'n_pairs'" in err and "16" in err
    else:
        assert json.loads(out)["agree"] is True


@pytest.mark.parametrize(
    "n_pairs,code", [(62500, 0), (62501, 2), (10**400, 2)], ids=["62500", "62501", "1e400"]
)
def test_lyap_rank_caps_the_constraint_matrix(capsys, tmp_path, n_pairs, code):
    # mesoc(2, 2): 10^6 / 16 pairs at most.  An n_pairs beyond the float range
    # ended in a traceback, and a large one asked for n_pairs x 16 floats,
    # up to 81 times over
    doc = json.loads((PROBLEMS / "lyap_rank_mesoc.json").read_text())
    doc["payload"]["n_pairs"] = n_pairs
    got, out, err = run_cli(capsys, "lyap-rank", write_problem(tmp_path, doc))
    assert got == code
    if code:
        assert out == "" and "'n_pairs' must be at most 1000000 / dim^2 = 62500" in err


def test_check_isotone_caps_the_samples(capsys, monkeypatch):
    # mesoc(2, 2): 10^7 / 4 samples at most.  10^12 asked NumPy for 29.1 TiB;
    # the refusal comes before anything is drawn
    from mesoc_kit import order, sampling

    def refuse(*args, **kwargs):
        raise AssertionError("sampled past the bound")

    monkeypatch.setattr(sampling, "sample_ordered_pairs", refuse)
    monkeypatch.setattr(order, "check_isotone", refuse)
    most = cli.MAX_SAMPLE_ENTRIES // 4
    for samples in (most + 1, 10**12):
        code, out, err = run_cli(capsys, "check", "isotone", str(PROBLEMS / "check_isotone_mesoc.json"),
                                 "--samples", str(samples))
        assert code == 2 and out == ""
        assert err == f"error: --samples must be at most 10000000 / dim = {most}, got {samples}\n"


def _nested_cylinders(depth: int, inner: str = '{"kind": "nonneg_orthant", "p": 1}') -> str:
    """The JSON text of ``depth`` cylinders nested over ``inner``, written
    out, as ``json.dumps`` stops at Python's recursion limit."""
    return '{"kind": "cylinder", "p": 1, "inner": ' * depth + inner + "}" * depth


@pytest.mark.parametrize(
    "cone,point,code",
    [
        (_nested_cylinders(cli.MAX_CONE_DEPTH), json.dumps([1.0] * (cli.MAX_CONE_DEPTH + 1)), 0),
        (_nested_cylinders(cli.MAX_CONE_DEPTH + 1), "[1.0]", 2),
        # these two ended in a RecursionError traceback from json.load
        (_nested_cylinders(2000), "[1.0]", 2),
        ('{"kind": "nonneg_orthant", "p": 1}', "[" * 5000 + "]" * 5000, 2),
    ],
    ids=["cone-at-bound", "cone-past-bound", "cone-2000", "point-5000"],
)
def test_deep_nesting_exits_2(capsys, tmp_path, cone, point, code):
    # at 496 cylinders the echo of the cone hit the recursion limit
    path = tmp_path / "problem.json"
    path.write_text(f'{{"version": 1, "command": "contains", "cone": {cone}, "payload": {{"point": {point}}}}}')
    got, out, err = run_cli(capsys, "contains", str(path))
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert json.loads(out)["contains"] is True and err == ""


def test_check_handlers_come_from_the_command_table(capsys, monkeypatch):
    assert ["check." + name for name in cli._CHECKS] == [c for c in cli._COMMANDS if c.startswith("check.")]
    assert all(cli._CHECKS[name] is getattr(cli, "cmd_check_" + name) for name in cli._CHECKS)
    # main looks the handler up in _CHECKS on every call, so a wrapper put
    # there runs (the benchmark tracer wraps them so)
    calls = []

    def wrapper(*args):
        calls.append(args[0])
        return cli.cmd_check_project(*args)

    monkeypatch.setitem(cli._CHECKS, "project", wrapper)
    code, out, _ = run_cli(capsys, "check", "project", str(PROBLEMS / "check_project_monotone_nonneg.json"))
    assert code == 0 and len(calls) == 1 and json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("check", "isotone", "check_isotone_mesoc.json", "--samples", "-3"), "--samples"),
        # zero samples checked nothing and reported the map isotone
        (("check", "isotone", "check_isotone_mesoc.json", "--samples", "0"), "--samples"),
        (("check", "isotone", "check_isotone_mesoc.json", "--seed", "-1"), "--seed"),
        (("lyap-rank", "lyap_rank_mesoc.json", "--seed", "-1"), "--seed"),
        # every comparison with NaN is false, so a NaN tolerance passed any point
        (("check", "verify", "check_verify_cylinder.json", "--tol", "nan"), "--tol"),
        (("check", "complementarity", "check_complementarity_mesoc.json", "--tol", "inf"), "--tol"),
        (("contains", "contains_mesoc.json", "--tol", "-0.001"), "--tol"),
        (("solve", "solve_cylinder.json", "--tol", "nan"), "--tol"),
        (("solve", "solve_cylinder.json", "--max-iter", "-1"), "--max-iter"),
    ],
)
def test_bad_flag_values_exit_2(capsys, argv, flag):
    command = [a if not a.endswith(".json") else str(PROBLEMS / a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}" in captured.err


# the flags each subcommand reads; every subcommand also takes --output
_READS = {
    "contains": ("--tol",),
    "solve": ("--tol", "--max-iter", "--trace"),
    "lyap-rank": ("--seed", "--samples"),
    "check.project": ("--tol",),
    "check.isotone": ("--tol", "--seed", "--samples"),
    "check.complementarity": ("--tol",),
    "check.verify": ("--tol",),
    "check.decompose": ("--tol",),
}
_FLAG_VALUES = {"--tol": "1e-6", "--max-iter": "10", "--seed": "1", "--samples": "10",
                "--trace": "trace.csv"}
_UNREAD = [(command, flag) for command, reads in _READS.items()
           for flag in _FLAG_VALUES if flag not in reads]


def _shipped(command):
    return next(path for path in sorted(PROBLEMS.glob("*.json"))
                if json.loads(path.read_text())["command"] == command)


@pytest.mark.parametrize("command,flag", _UNREAD, ids="".join)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, tmp_path, monkeypatch, command, flag):
    # accepted and ignored before: contains --seed, lyap-rank --tol, ...
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split("."), str(_shipped(command)), flag, _FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", _READS)
def test_subcommand_help_lists_only_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split("."), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    shown = {flag for flag in _FLAG_VALUES if flag in out}
    assert shown == set(_READS[command])


def _leaf_parsers(parser, prefix=""):
    """Dotted name -> parser of every subcommand that takes a problem file."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix[:-1]: parser}
    return {name: leaf for action in subs for sub_name, sub in action.choices.items()
            for name, leaf in _leaf_parsers(sub, f"{prefix}{sub_name}.").items()}


def _doc_value(cell):
    text = cell.strip().strip("`")
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return {"none": None}.get(text, text)


def test_flag_table_in_the_schema_matches_the_parser():
    # docs/schema.md's "Flags" table: one row per subcommand, one column per
    # flag, each cell the default or "—" for a flag the subcommand refuses
    text = (Path(__file__).resolve().parent.parent / "docs" / "schema.md").read_text()
    section = text.split("### Flags", 1)[1].splitlines()
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                itertools.dropwhile(lambda line: not line.startswith("|"), section))
    header, _, *body = [line.strip("|").split("|") for line in table]
    flags = [cell.strip().strip("`").split()[0] for cell in header[1:]]
    documented = {
        row[0].strip().strip("`"): {flag: _doc_value(cell) for flag, cell in zip(flags, row[1:])
                                    if cell.strip() != "—"}
        for row in body
    }
    parsed = {
        command: {option: action.default for action in leaf._actions
                  for option in action.option_strings if option != "-h" and option != "--help"}
        for command, leaf in _leaf_parsers(cli.build_parser()).items()
    }
    assert documented == parsed
    assert {command: set(reads) | {"--output"} for command, reads in _READS.items()} == {
        command: set(options) for command, options in parsed.items()}
    assert len(_UNREAD) == 27  # of the 8 x 6 slots the shared flags used to fill


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_stops_on_nonfinite_iterate(capsys, tmp_path):
    # the first update overflows to (0, 0, inf), and its Lorentz projection is
    # not finite
    doc = {
        "version": 1,
        "command": "solve",
        "cone": {"kind": "cylinder", "p": 1, "inner": {"kind": "lorentz", "p": 2}},
        "payload": {
            "map": {"kind": "affine", "p": 1, "q": 2,
                    "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "offset": [0, 0, -1e308]},
            "start": [0, 0, 1e308],
        },
    }
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, doc), "--trace", str(trace))
    assert code == 4
    report = json.loads(out)
    assert report["status"] == "nonfinite" and report["exit_status"] == 4
    assert report["iterations"] == 0
    # the reported point is the last finite iterate, here the start
    assert report["solution"] == {"x": [0.0], "u": [0.0, 1e308]}
    rows = list(csv.reader(trace.open()))
    assert len(rows) == 2 and rows[1][1:4] == ["0.0", "0.0", "1e+308"]


# Small cones only: lyap-rank's constraint matrix grows with dim^4.
_FUZZ_CONES = st.one_of(
    st.builds(
        lambda kind, p, q: {"kind": kind, "p": p, "q": q},
        st.one_of(
            st.sampled_from(sorted(set(mk.cones.KINDS) - {"cylinder", "cylinder_dual"})),
            st.sampled_from([[1], {"kind": "mesoc"}]),  # not a string, not hashable
        ),
        st.integers(1, 3),
        st.integers(0, 3),
    ),
    st.builds(
        lambda kind, p, inner, n, q: {"kind": kind, "p": p, "inner": {"kind": inner, "p": n, "q": q}},
        st.sampled_from(["cylinder", "cylinder_dual"]),
        st.integers(1, 3),
        st.sampled_from(sorted(set(mk.cones.KINDS) - {"cylinder", "cylinder_dual"})),
        st.integers(1, 3),
        st.integers(0, 2),
    ),
)
_FUZZ_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(),  # NaN, +-inf and values near the float limits
    st.sampled_from([1e308, -1e308, 10**400, -(10**400), 5e-324]),
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
)


@st.composite
def _fuzz_points(draw, dim):
    form = draw(st.sampled_from(["clean", "one_bad", "any"]))
    if form == "any":
        return draw(st.one_of(_FUZZ_ENTRIES, st.lists(_FUZZ_ENTRIES, max_size=8),
                              st.dictionaries(st.text(max_size=2), _FUZZ_ENTRIES, max_size=2)))
    length = draw(st.sampled_from([dim, dim, dim - 1, dim + 1]))
    point = draw(st.lists(st.floats(-10.0, 10.0), min_size=length, max_size=length))
    if form == "one_bad" and point:
        point[draw(st.integers(0, len(point) - 1))] = draw(_FUZZ_ENTRIES)
    return point


@st.composite
def _fuzz_maps(draw, p, q):
    """A map description for R^p x R^q, now and then of another size or with
    one malformed entry."""
    p, q = draw(st.sampled_from([(p, q), (p, q), (p, q), (p + 1, q), (p, max(q - 1, 0))]))
    n = p + q
    if draw(st.booleans()):
        doc = {"kind": "affine", "p": p, "q": q,
               "matrix": [draw(_fuzz_points(n)) for _ in range(n)],
               "offset": draw(_fuzz_points(n))}
    else:
        k = draw(st.integers(1, 2))
        doc = {"kind": "scalar_combo", "p": p, "q": q,
               "fields": [{"linear": draw(_fuzz_points(p)),
                           "norm_coeff": draw(st.floats(-1.0, 1.0)),
                           "offset": draw(st.floats(-1.0, 1.0))} for _ in range(k)],
               "directions": [draw(_fuzz_points(n)) for _ in range(k)]}
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_FUZZ_ENTRIES)
    return doc


# values near the float limits overflow in norms and maps; the exit code is
# the contract
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [("contains",), ("check", "project"), ("check", "isotone"), ("solve",), ("lyap-rank",),
     ("check", "complementarity"), ("check", "verify"), ("check", "decompose")],
)
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(capsys, tmp_path, argv, data):
    cone = data.draw(_FUZZ_CONES)
    try:
        spec = cli.cone_from_json(cone)
        dim, p = spec.dim, (spec.p if spec.inner is not None else 1)
    except mk.MesocKitError:
        dim, p = 2, 1
    flags, oversize = [], False
    if argv == ("check", "isotone"):
        # now and then one sample over the bound, which exits 2 undrawn
        oversize = data.draw(st.sampled_from([False, False, False, True]))
        flags = ["--samples", str(cli.MAX_SAMPLE_ENTRIES // dim + 1 if oversize else 20)]
        if data.draw(st.booleans()):
            payload = {"normal": data.draw(_fuzz_points(dim))}
        else:
            payload = {"map": data.draw(_fuzz_maps(p, max(dim - p, 0)))}
    elif argv == ("solve",):
        flags = ["--max-iter", "50"]
        payload = {"map": data.draw(_fuzz_maps(p, max(dim - p, 0)))}
    elif argv == ("lyap-rank",):
        # --samples is the default n_pairs; both stay near dim^2 to keep the SVD small
        flags = ["--samples", str(data.draw(st.integers(1, 40)))]
        payload = data.draw(st.dictionaries(
            st.just("n_pairs"), st.one_of(st.integers(-2, 40), _FUZZ_ENTRIES), max_size=1))
    elif argv == ("check", "complementarity"):
        payload = {"primal": data.draw(_fuzz_points(dim)), "dual": data.draw(_fuzz_points(dim))}
    elif argv == ("check", "verify"):
        payload = {"map": data.draw(_fuzz_maps(p, max(dim - p, 0))),
                   "point": data.draw(_fuzz_points(dim))}
    else:
        payload = {"point": data.draw(_fuzz_points(dim))}
    doc = {"version": 1, "command": ".".join(argv), "cone": cone, "payload": payload}
    text = json.dumps(doc)
    # now and then the cone inside cylinders nested past the bound or 2000
    # deep, or the payload a list nested 5000 deep: each exits 2
    nesting = data.draw(st.sampled_from([None] * 6 + ["cone", "payload"]))
    if nesting == "cone":
        depth = data.draw(st.sampled_from([cli.MAX_CONE_DEPTH + 1, 2000]))
        text = text.replace(json.dumps(cone), _nested_cylinders(depth, json.dumps(cone)), 1)
    elif nesting == "payload":
        text = json.dumps(dict(doc, payload="@")).replace('"@"', "[" * 5000 + "]" * 5000)
    path = tmp_path / "problem.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *argv, str(path), *flags)
    assert code in (0, 2, 3, 4, 5)
    if nesting or oversize:
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")


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
    assert report["point"] == [-2.5] and report["failed"] == [] and report["ok"] is True
    # monotone(1) is R: no inequality, so its least slack is +inf and reads null
    assert report["residuals"] == {"primal_membership": None, "dual_membership": 0.0,
                                   "orthogonality": 0.0}


def test_check_project_cylinder_over_lorentz(capsys, tmp_path, rng):
    cone = {"kind": "cylinder", "p": 2, "inner": {"kind": "lorentz", "p": 3}}
    for i, point in enumerate(2.0 * rng.normal(size=(200, 5))):
        doc = {"version": 1, "command": "check.project", "cone": cone,
               "payload": {"point": point.tolist()}}
        code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
        assert code == 0, (i, point, out)


def test_solve_on_cylinder_over_mesoc(capsys, tmp_path, rng):
    # an affine map whose update I - M has spectral norm 0.5 is a contraction,
    # so the Picard iteration converges on any closed convex inner cone
    g = rng.normal(size=(6, 6))
    doc = {"version": 1, "command": "solve",
           "cone": {"kind": "cylinder", "p": 2, "inner": {"kind": "mesoc", "p": 2, "q": 2}},
           "payload": {"map": {"kind": "affine", "p": 2, "q": 4,
                               "matrix": (np.eye(6) - 0.5 * g / np.linalg.norm(g, 2)).tolist(),
                               "offset": rng.normal(size=6).tolist()}}}
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["status"] == "converged"
    assert report["verify"]["ok"] is True and report["verify"]["failed"] == []
    assert mk.contains(mk.mesoc(2, 2), report["solution"]["u"])


def test_check_project_certifies_mesoc(capsys, tmp_path):
    # the paper's own cone, which no face-enumeration oracle covers
    doc = {"version": 1, "command": "check.project", "cone": {"kind": "mesoc", "p": 2, "q": 2},
           "payload": {"point": [1.0, 0.0, 3.0, 4.0]}}
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["failed"] == []
    np.testing.assert_allclose(report["point"], [2.0, 2.0, 1.2, 1.6], rtol=1e-15)
    assert sorted(report["residuals"]) == ["dual_membership", "orthogonality", "primal_membership"]


@pytest.mark.parametrize(
    "cone",
    [{"kind": "monotone", "p": 14},
     {"kind": "cylinder", "p": 1, "inner": {"kind": "nonneg_orthant", "p": 13}}],
)
def test_check_project_needs_no_oracle(capsys, tmp_path, monkeypatch, cone):
    # 13 constraint rows: the oracle would build 2^13 face projectors
    monkeypatch.setattr(projections, "_FACE_CACHE", {})
    dim = cli.cone_from_json(cone).dim
    doc = {"version": 1, "command": "check.project", "cone": cone,
           "payload": {"point": np.linspace(-1.0, 1.0, dim).tolist()}}
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and json.loads(out)["ok"] is True
    assert projections._FACE_CACHE == {}


@st.composite
def _projection_problems(draw, kind, wrap, exponents=(0.0, 9.0)):
    """A cone of ``kind``, in a cylinder or dual cylinder when ``wrap`` says
    so, and a point in its space whose norm is 10 to a power in ``exponents``
    (1 to 1e9 by default)."""
    cone = {"kind": kind, "p": draw(st.integers(1, 4))}
    if kind in mk.cones.PARTITIONED_KINDS:
        cone["q"] = draw(st.integers(0, 3))
    if wrap:
        cone = {"kind": wrap, "p": draw(st.integers(1, 3)), "inner": cone}
    dim = cli.cone_from_json(cone).dim
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    norm = np.linalg.norm(direction)
    assume(norm > 1e-3)
    scale = 10.0 ** draw(st.floats(*exponents))
    return cone, (direction * (scale / norm)).tolist()


# Moreau's conditions hold for the kit's projection on every kind, cylinders
# and dual cylinders included, at every scale
@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_project_certifies_every_kind(capsys, tmp_path, kind, wrap, data):
    cone, point = data.draw(_projection_problems(kind, wrap))
    doc = {"version": 1, "command": "check.project", "cone": cone, "payload": {"point": point}}
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["failed"] == [], report


# above about 1e154 the squares of v overflow; the conditions are then
# evaluated on v and its projection scaled by a power of two, and no
# overflow warning is printed
@pytest.mark.parametrize("wrap", [None, "cylinder", "cylinder_dual"])
@pytest.mark.parametrize("kind", _BASE_KINDS)
@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_project_certifies_every_kind_near_the_float_limit(
        capsys, recwarn, tmp_path, kind, wrap, data):
    cone, point = data.draw(_projection_problems(kind, wrap, (150.0, 300.0)))
    doc = {"version": 1, "command": "check.project", "cone": cone, "payload": {"point": point}}
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["distance"] is not None, report
    assert not recwarn.list, [str(w.message) for w in recwarn]


@pytest.mark.parametrize("cone,point", [({"kind": "lorentz", "p": 2}, [5e199, 5e199]),
                                        ({"kind": "monotone", "p": 2}, [5e199, 5e199])])
def test_check_project_past_the_square_overflow(capsys, recwarn, tmp_path, cone, point):
    # both exited 5 with null residuals and distance while <v, v> overflowed
    doc = {"version": 1, "command": "check.project", "cone": cone, "payload": {"point": [0, 1e200]}}
    code, out, err = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["point"] == point
    assert err == "" and not recwarn.list, [str(w.message) for w in recwarn]
    assert report["distance"] == pytest.approx(math.sqrt(0.5) * 1e200, rel=1e-15)
    assert all(math.isfinite(r) for r in report["residuals"].values())


def test_check_project_distance_past_the_float_range(capsys, recwarn, tmp_path):
    # ||v - P(v)|| is about 2.1e308: inf, which reads null, not OverflowError
    point = [_LIMIT, -_LIMIT, _LIMIT, 1e308]
    with np.errstate(over="ignore"):  # as the CLI projects
        assert mk.project(mk.mesoc(2, 2), point).distance == math.inf
    doc = {"version": 1, "command": "check.project", "cone": {"kind": "mesoc", "p": 2, "q": 2},
           "payload": {"point": point}}
    code, out, err = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["distance"] is None, report
    assert err == "" and not recwarn.list, [str(w.message) for w in recwarn]


def test_check_project_refuses_a_wrong_point_past_the_overflow(capsys, tmp_path, monkeypatch):
    # the zero stub is not the projection of (0, 1e200) onto lorentz(2)
    monkeypatch.setattr(projections, "project",
                        lambda cone, z: projections.ProjectionResult(np.zeros(cone.dim), 0.0))
    doc = {"version": 1, "command": "check.project", "cone": {"kind": "lorentz", "p": 2},
           "payload": {"point": [0, 1e200]}}
    code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
    report = json.loads(out)
    assert code == 5 and report["failed"] == ["dual_membership"]


@pytest.mark.parametrize(
    "cone",
    [mk.mesoc(2, 2), mk.esoc_dual(2, 1), mk.monotone(4), mk.cylinder(2, mk.lorentz(3))],
    ids=str,
)
def test_check_project_refuses_a_feasible_point_that_is_not_nearest(
        capsys, tmp_path, monkeypatch, rng, cone):
    # 0 lies in every cone, but it is the projection of v only for v in -K*;
    # for any other v, 0 - v is not in K* and the certificate must say so
    monkeypatch.setattr(projections, "project",
                        lambda cone, z: projections.ProjectionResult(np.zeros(cone.dim), 0.0))
    refused = 0
    for v in rng.normal(size=(60, cone.dim)):
        if mk.contains(mk.dual_of(cone), -v, tol=1e-6):
            continue
        doc = {"version": 1, "command": "check.project", "cone": cli.cone_to_json(cone),
               "payload": {"point": v.tolist()}}
        code, out, _ = run_cli(capsys, "check", "project", write_problem(tmp_path, doc))
        report = json.loads(out)
        assert code == 5 and report["ok"] is False and report["failed"] == ["dual_membership"]
        refused += 1
    assert refused >= 30


# mesoc_kit submodules each subcommand must leave unloaded; no case loads
# scipy or dataclasses
_BEYOND_CONES = ("projections", "_kernels", "sampling", "order", "lyapunov", "micp_solver")
_NOT_LOADED = {
    "contains": _BEYOND_CONES,
    "check.complementarity": _BEYOND_CONES,
    "check.decompose": _BEYOND_CONES,
    "check.project": ("lyapunov", "order", "sampling", "micp_solver"),
    "solve": ("lyapunov", "order", "sampling"),
    "check.verify": ("lyapunov", "order", "sampling"),
    "lyap-rank": ("micp_solver", "order"),
    "check.isotone": ("lyapunov", "projections", "_kernels"),
}


@pytest.mark.parametrize(
    "path", [None, *sorted(PROBLEMS.glob("*.json"))], ids=lambda p: "import" if p is None else p.stem
)
def test_subcommand_loads_only_what_it_runs(path):
    src = Path(mk.__file__).resolve().parent.parent
    if path is None:
        code = "import sys, mesoc_kit; print(0)"
    else:
        command = json.loads(path.read_text())["command"]
        argv = [*command.split("."), str(path)]
        code = (
            "import contextlib, io, sys\nfrom mesoc_kit import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main({argv!r})\n"
            "print(code)"
        )
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sys.modules, sep='\\n')"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    status, *loaded = proc.stdout.split()
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    assert "dataclasses" not in loaded
    if path is None:
        assert status == "0"
        assert "numpy" not in loaded
        assert not [m for m in loaded if m.startswith("mesoc_kit.")]
        return
    # the subcommand ran to its report, so the modules it skipped were not needed
    assert int(status) == json.loads((GOLDEN / f"{path.stem}.json.out").read_text())["exit_status"]
    assert "mesoc_kit.cli" in loaded and "numpy" in loaded
    assert not [m for m in _NOT_LOADED[command] if f"mesoc_kit.{m}" in loaded]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "mesoc-kit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the process entry point: cli.run ends the process with os._exit once the
# report is flushed and the exit handlers have run


def _module_call(*argv, code=None, env=None, **kwargs):
    """``python -m mesoc_kit *argv`` (or ``python -c code``) on this tree's
    sources, with stdout and stderr captured unless given."""
    src = str(Path(mk.__file__).resolve().parent.parent)
    args = ["-c", code] if code is not None else ["-m", "mesoc_kit", *argv]
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args],
        stderr=subprocess.PIPE,
        timeout=120,
        env=dict(env if env is not None else os.environ, PYTHONPATH=src),
        **kwargs,
    )


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda path: path.stem)
def test_module_entry_point(path):
    command = json.loads(path.read_text())["command"]
    proc = _module_call(*command.split("."), str(path))
    golden = (GOLDEN / f"{path.stem}.json.out").read_bytes()
    assert proc.stdout == golden
    assert proc.returncode == json.loads(golden)["exit_status"]
    assert proc.stderr == b""


def test_module_entry_point_schema_error(tmp_path):
    path = write_problem(tmp_path, {"version": 2, "command": "contains", "cone": {}, "payload": {}})
    proc = _module_call("contains", path)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: unsupported problem version 2\n"


def test_module_entry_point_writes_the_whole_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    proc = _module_call("solve", str(PROBLEMS / "solve_cylinder.json"), "--trace", str(trace))
    assert proc.returncode == 0 and proc.stderr == b""
    rows = trace.read_text().splitlines()
    assert len(rows) == 36 == json.loads(proc.stdout)["iterations"] + 2
    assert rows[-1].endswith(",1")  # the last row is written in full


def test_module_entry_point_runs_the_exit_handlers():
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        f"sys.argv = ['mesoc-kit', 'contains', {str(PROBLEMS / 'contains_mesoc.json')!r}]\n"
        "runpy.run_module('mesoc_kit', run_name='__main__')\n"
        "print('not reached')\n"
    )
    proc = _module_call(code=code)
    golden = (GOLDEN / "contains_mesoc.json.out").read_bytes()
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == golden + b"handler ran\n"


@pytest.mark.parametrize(
    "argv,code,stream,start",
    [
        (["--version"], 0, "stdout", b"mesoc-kit 0.1.0"),
        (["nope"], 2, "stderr", b"usage: mesoc-kit"),
    ],
)
def test_module_entry_point_argparse_exits(argv, code, stream, start):
    proc = _module_call(*argv)
    assert proc.returncode == code
    assert getattr(proc, stream).startswith(start)


def test_closed_stdout_exits_2():
    # as `python -m mesoc_kit contains FILE >&-`
    proc = _module_call(
        "contains", str(PROBLEMS / "contains_mesoc.json"), stdout=None, preexec_fn=lambda: os.close(1)
    )
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write the report: stdout is closed\n"


# unbuffered, the write in emit fails; buffered, the flush in run does
@pytest.mark.parametrize("unbuffered", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("name", ["contains_mesoc", "solve_cylinder"])
def test_stdout_without_a_reader_exits_2(name, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = PROBLEMS / f"{name}.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _module_call(json.loads(path.read_text())["command"], str(path), env=env, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write the report: [Errno 32] Broken pipe\n"
