import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_spans, rand_unitary
import hvsim
from hvsim import PureState, eigh, ensure_hermitian, joint_propositions, projector_meet
from hvsim.bell import SECTOR_SNAP_TOL_MAX
from hvsim.cli import COMMANDS, build_parser, load_problem, main, run_chsh
from hvsim.linalg import MEET_TOL_MAX, _jacobi

FIXTURES = ("pauli", "singlet_chsh", "commuting_chsh")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_bad_input(code, err, *fragments):
    """Exit 2 with one `hv: error:` line naming each fragment, and no traceback."""
    assert code == 2
    assert err.startswith("hv: error: ")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_bundled_fixtures_load_and_validate():
    for name in FIXTURES:
        problem = load_problem(name)
        assert problem.dimension in (2, 4)
        assert problem.digest
        assert problem.experiments


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(["spectra", "--input", "/no/such/file.json"], capsys)
    assert_bad_input(code, err, "/no/such/file.json")


def test_non_hermitian_operator_is_exit_2(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "operators": {"bad": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
        "experiments": [{"kind": "spectra", "operator": "bad"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["spectra", "--input", str(path)], capsys)
    assert_bad_input(code, err, "self-adjointness defect")


def test_operator_with_eigenvalue_beyond_float64_is_exit_2(tmp_path, capsys):
    # every entry is finite, but the largest eigenvalue, 2.4e308, is not
    doc = {"dimension": 3, "operators": {"huge": [[[8e307, 0]] * 3] * 3}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["spectra", "--input", str(path), "--operator", "huge"], capsys)
    assert_bad_input(code, err, "non-finite eigenvalue inf")


def test_unknown_name_is_exit_2(capsys):
    code, _, err = run(["spectra", "--input", "pauli", "--operator", "nope"], capsys)
    assert_bad_input(code, err, "unknown operator 'nope'")


def test_spectra_z(capsys):
    code, out, _ = run(["spectra", "--input", "pauli", "--operator", "z"], capsys)
    assert code == 0
    report = json.loads(out)
    section = report["results"][0]
    assert section["eigenvalues"] == [-1.0, 1.0]
    assert section["multiplicities"] == [1, 1]
    assert section["checks"]["reconstruction_ok"]


def test_spectra_degenerate_multiplicities(tmp_path, capsys):
    doc = {
        "dimension": 3,
        "operators": {
            "flat": [
                [[2, 0], [0, 0], [0, 0]],
                [[0, 0], [2, 0], [0, 0]],
                [[0, 0], [0, 0], [5, 0]],
            ]
        },
    }
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["spectra", "--input", str(path), "--operator", "flat"], capsys)
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["eigenvalues"] == [2.0, 5.0]
    assert section["multiplicities"] == [2, 1]


def test_prob_command(capsys):
    code, out, _ = run(
        ["prob", "--input", "pauli", "--operator", "z", "--state", "plus", "--borel", "nonpositive"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"][0]["probability"] == pytest.approx(0.5, abs=1e-12)


def test_quantile_command(capsys):
    code, out, _ = run(
        ["quantile", "--input", "pauli", "--operator", "z", "--state", "plus"], capsys
    )
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["values"] == [-1.0, 1.0]
    assert section["cuts"][1] == pytest.approx(0.5, abs=1e-12)
    assert section["checks"]["pushforward_ok"]


def test_verify_command_eigenstate_exact(capsys):
    code, out, _ = run(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "up", "--samples", "500"],
        capsys,
    )
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["empirical"] == [1.0]
    assert section["max_abs_deviation"] == 0.0


def test_verify_command_budget(capsys):
    code, out, _ = run(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "plus", "--seed", "42"],
        capsys,
    )
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["samples"] == 100_000
    assert section["max_abs_deviation"] <= 0.01
    assert section["checks"]["within_budget"]


def test_verify_tiny_sample_count_may_fail_statistically(capsys):
    # n = 10 is deliberately undersized: the run must complete and report
    # either way; the budget flag is allowed to fail here
    argv = ["verify", "--input", "pauli", "--operator", "z", "--state", "plus"]
    code, out, err = run([*argv, "--samples", "10", "--seed", "3"], capsys)
    assert code in (0, 1), err
    section = json.loads(out)["results"][0]
    assert section["samples"] == 10
    assert isinstance(section["checks"]["within_budget"], bool)


def test_hv_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HV_SEED", "123")
    code, out, _ = run(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "plus", "--samples", "1000"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 123
    monkeypatch.setenv("HV_SEED", "not-a-number")
    code, _, err = run(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "plus", "--samples", "10"],
        capsys,
    )
    assert_bad_input(code, err, "HV_SEED")


def test_roundtrip_command_with_and_without_function(capsys):
    code, out, _ = run(["roundtrip", "--input", "pauli", "--operator", "x"], capsys)
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["identity_residual"] < 1e-10

    code, out, _ = run(
        ["roundtrip", "--input", "pauli", "--operator", "z", "--function", "absolute"],
        capsys,
    )
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["post_residual"] < 1e-10
    assert section["checks"]["post_roundtrip_ok"]


def test_chsh_singlet_violates_and_exits_1(capsys):
    code, out, _ = run(["chsh", "--input", "singlet_chsh"], capsys)
    assert code == 1
    section = json.loads(out)["results"][0]
    assert section["chsh_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert section["checks"]["classical_bound_respected"] is False
    assert section["checks"]["joint_propositions_consistent"] is True
    assert section["proposition_intersections_admitted"] is False
    assert section["admission_failure"] == "e1 and e2 do not commute"
    assert all(section["cross_pairs_commute"].values())


def test_chsh_singlet_reaches_tsirelsons_bound_within_rounding(tmp_path, capsys):
    # its CHSH value is 2 sqrt 2 within 1e-12, and each of its four expectations is
    # +-1/sqrt 2 within two ulp (2.3e-16)
    path = tmp_path / "singlet.json"
    code, _, _ = run(["chsh", "--input", "singlet_chsh", "--out", str(path)], capsys)
    assert code == 1
    section = json.loads(path.read_text())["results"][0]
    assert abs(section["chsh_value"] - 2 * math.sqrt(2)) <= 1e-12, section["chsh_value"]
    table = section["expectations"]
    assert all(abs(abs(x) - math.sqrt(0.5)) <= 2.3e-16 for row in table for x in row), table


@pytest.mark.parametrize("meet_tol", [0, 0.3, 1e300])
def test_chsh_meet_tol_outside_its_range_is_exit_2(tmp_path, capsys, meet_tol):
    # at 0 every meet would be empty and the singlet would score 0 with exit 0; past
    # 1 - 1/sqrt 2 an eigenvalue could count as shared and as crossing at once
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "singlet_chsh.json").read_text())
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps({**doc, "tolerances": {"meet_tol": meet_tol}}))
    code, _, err = run(["chsh", "--input", str(path)], capsys)
    assert_bad_input(code, err, str(path), f"tolerance 'meet_tol' must be in (0, 1 - 1/sqrt 2 "
                     f"= 0.2929]: {meet_tol!r}")


@pytest.mark.parametrize("sector_snap_tol, code", [(5e-4, 0), (5.1e-4, 2), (1.0, 2)])
def test_chsh_sector_snap_tol_above_its_range_is_exit_2(tmp_path, capsys, sector_snap_tol, code):
    # past 5e-4 a pair's purified sectors could miss the projector checks
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "commuting_chsh.json").read_text())
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps({**doc, "tolerances": {"sector_snap_tol": sector_snap_tol}}))
    got, _, err = run(["chsh", "--input", str(path)], capsys)
    if code:
        assert_bad_input(got, err, str(path), f"tolerance 'sector_snap_tol' must be in "
                         f"[0, 5e-04]: {sector_snap_tol!r}")
    else:
        assert got == 0


HALF = np.diag([1.0, 0.0])
# each bounded tolerance: a library call that reads it, a fixture and command that read it
# from a file, and the edge of its range, which both accept
BOUNDED_TOLERANCES = {
    "cluster_tol": (lambda tol: eigh(np.diag([1.0, -1.0]), cluster_tol=tol),
                    "pauli", ["spectra", "--operator", "z"], 5e-324),
    "meet_tol": (lambda tol: projector_meet(HALF, HALF, tol), "singlet_chsh", ["chsh"],
                 MEET_TOL_MAX),
    "sector_snap_tol": (lambda tol: joint_propositions(HALF, HALF, sector_snap_tol=tol),
                        "commuting_chsh", ["chsh"], SECTOR_SNAP_TOL_MAX),
}


@pytest.mark.parametrize("key, refused", [("cluster_tol", 0), ("meet_tol", 0), ("meet_tol", 0.3),
                                          ("sector_snap_tol", 1e-3)])
def test_bounded_tolerance_is_refused_by_the_library_and_hv_in_one_wording(tmp_path, capsys, key,
                                                                           refused):
    call, fixture, argv, edge = BOUNDED_TOLERANCES[key]
    with pytest.raises(ValueError) as exc:
        call(refused)
    wording = re.fullmatch(rf"{key} (.+), got {re.escape(repr(refused))}", str(exc.value))[1]
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / f"{fixture}.json").read_text())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**doc, "tolerances": {key: refused}}))
    code, _, err = run([argv[0], "--input", str(path), *argv[1:]], capsys)
    assert_bad_input(code, err)
    assert err == f"hv: error: {path}: tolerance {key!r} {wording}: {refused!r}\n"
    call(edge)
    path.write_text(json.dumps({**doc, "tolerances": {key: edge}}))
    code, _, err = run([argv[0], "--input", str(path), *argv[1:]], capsys)
    assert code in (0, 1) and err == ""


def test_chsh_commuting_fixture_passes(capsys):
    code, out, _ = run(["chsh", "--input", "commuting_chsh"], capsys)
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["chsh_value"] <= 2.0 + 1e-9
    assert section["proposition_intersections_admitted"] is True
    checks = section["checks"]
    assert checks["classical_bound_respected"]
    assert checks["joint_propositions_consistent"]
    assert checks["pointwise_identity_ok"]
    assert checks["fiber_integrals_match"]


def _complex_rows(matrix):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


def _scaled_first_half():
    # first_half scaled by 1 + 1e-8 has an idempotence defect of about 1e-8
    doc = json.loads(
        (Path(hvsim.__file__).parent / "fixtures" / "commuting_chsh.json").read_text()
    )
    doc["operators"]["first_half"] = [
        [[(1.0 + 1e-8) * re, (1.0 + 1e-8) * im] for re, im in row]
        for row in doc["operators"]["first_half"]
    ]
    return doc


def _line_pair(t):
    # e = line(0) x I and f = line(t) x I: with 1 - cos t = 1e-7 their meet is empty
    # at the default meet_tol 1e-8 and all of e at 1e-6; with t = 1e-8 their
    # commutator, about 1e-8, fails the default commute_tol 1e-9 and passes 1e-6
    v = np.array([math.cos(t), math.sin(t)])
    return {
        "dimension": 4,
        "operators": {"e": _complex_rows(np.kron(np.diag([1.0, 0.0]), np.eye(2))),
                      "f": _complex_rows(np.kron(np.outer(v, v), np.eye(2)))},
        "states": {"h": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        "experiments": [{"kind": "chsh", "e1": "e", "e2": "e", "f1": "f", "f2": "f", "state": "h"}],
    }


def _z_doc(z_entries, state, **extra):
    return {"dimension": len(state), "operators": {"z": _complex_rows(np.array(z_entries))},
            "states": {"s": [[c, 0] for c in state]}, **extra}


# single linkage chains the four eigenvalues near 1 into one cluster spanning 2.7e-8,
# so the operator rebuilt from its clusters is 1.35e-8 off, above the default 1e-8
CHAINED_Z = _z_doc(np.diag([1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8, 1.0 + 2.7e-8, -1.0]), [1, 0, 0, 0, 0])


def _rotated_commuting_chsh():
    # the commuting fixture conjugated by a random unitary: its joint eigenvalues then sit
    # about 1e-15 from their integer sector labels, where on the diagonal fixture they sit on them
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "commuting_chsh.json").read_text())
    u = rand_unitary(np.random.default_rng(0), doc["dimension"])

    def matrix(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    doc["operators"] = {k: _complex_rows(u @ matrix(v) @ u.conj().T)
                        for k, v in doc["operators"].items()}
    doc["states"] = {k: [[z.real, z.imag] for z in u @ matrix([v])[0]]
                     for k, v in doc["states"].items()}
    return doc


# each tolerance key set in the file, with what the default gives and what the set value
# gives (a str: the exit-2 message); every key is loosened but sector_snap_tol,
# pushforward_tol and homomorphism_tol, which are set to 0
LOOSENED_TOLERANCES = {
    "projector_tol": (
        1e-6, _scaled_first_half(), ["chsh"],
        lambda r: (r["checks"]["classical_bound_respected"],
                   r["proposition_intersections_admitted"]),
        "idempotence defect", (True, True),
    ),
    "hermitian_tol": (
        1e-8, _z_doc([[1.0, 1e-9], [0.0, -1.0]], [1, 0]), ["spectra", "--operator", "z"],
        lambda r: r["eigenvalues"],
        "operator 'z': self-adjointness defect 1.000e-09 exceeds tol 1.0e-10 "
        "(tolerance 'hermitian_tol')",
        [-1.0, 1.0],
    ),
    "cluster_tol": (
        1e-6, _z_doc(np.diag([1.0, 1.0 + 1e-7]), [1, 0]), ["spectra", "--operator", "z"],
        lambda r: r["multiplicities"], [1, 1], [2],
    ),
    "snap_tol": (
        1e-6,
        _z_doc(np.diag([1.0, -1.0]), [1, 0],
               borel_sets={"low": [{"hi": 1 - 1e-8, "hi_closed": True}]}),
        ["prob", "--operator", "z", "--state", "s", "--borel", "low"],
        lambda r: r["probability"], 0.0, 1.0,
    ),
    "weight_floor": (
        0.05, _z_doc(np.diag([1.0, -1.0]), [1, 0.1]),
        ["quantile", "--operator", "z", "--state", "s"],
        lambda r: r["values"], [-1.0, 1.0], [1.0],
    ),
    "meet_tol": (
        1e-6, _line_pair(math.acos(1.0 - 1e-7)), ["chsh"],
        lambda r: [x for row in r["expectations"] for x in row], [0.0] * 4, [1.0] * 4,
    ),
    "commute_tol": (
        1e-6, _line_pair(1e-8), ["chsh"],
        lambda r: (*r["cross_pairs_commute"].values(), r["proposition_intersections_admitted"]),
        (False,) * 5, (True,) * 5,
    ),
    # the quantile cells of (0.6, 0.8) are 0.36 and 0.64 to within a defect of 1.1e-16
    "pushforward_tol": (
        0, _z_doc(np.diag([1.0, -1.0]), [0.6, 0.8]), ["quantile", "--operator", "z", "--state", "s"],
        lambda r: r["checks"]["pushforward_ok"], True, False,
    ),
    # on the rotated fixture each event's projector equals the product of two only to rounding
    "homomorphism_tol": (
        0, _rotated_commuting_chsh(), ["chsh"],
        lambda r: r["checks"]["joint_propositions_consistent"], True, False,
    ),
    "reconstruction_tol": (
        1e-7, CHAINED_Z, ["spectra", "--operator", "z"],
        lambda r: r["checks"]["reconstruction_ok"], False, True,
    ),
    "roundtrip_tol": (
        1e-7, CHAINED_Z, ["roundtrip", "--operator", "z"],
        lambda r: r["checks"]["identity_roundtrip_ok"], False, True,
    ),
    "sector_snap_tol": (
        0, _rotated_commuting_chsh(), ["chsh"],
        lambda r: r["checks"]["classical_bound_respected"], True,
        "from integer sector label exceeds sector_snap_tol 0.0e+00",
    ),
}


@pytest.mark.parametrize("key", list(LOOSENED_TOLERANCES))
def test_loosened_tolerance_takes_effect(tmp_path, capsys, key):
    value, doc, argv, read, at_default, loosened = LOOSENED_TOLERANCES[key]
    path = tmp_path / "problem.json"
    for tolerances, want in (({}, at_default), ({key: value}, loosened)):
        path.write_text(json.dumps({**doc, "tolerances": tolerances}))
        code, out, err = run([argv[0], "--input", str(path), *argv[1:]], capsys)
        if isinstance(want, str):
            assert_bad_input(code, err, want)
        else:
            assert code in (0, 1), err
            assert read(json.loads(out)["results"][0]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("scale", [3e9, 1.7e308])
def test_residual_checks_scale_with_the_operator(tmp_path, capsys, scale):
    # rounding leaves absolute residuals far above 1e-8 (9.5e-7 at 3e9), about 3e-16 relative;
    # each is compared with its tolerance times max(1, max|target|) and reported as it is
    halve = {"breakpoints": [], "pieces": [[0.5, 0]], "breakpoint_values": []}
    doc = _z_doc([[0.0, scale], [scale, 0.0]], [1, 0], functions={"halve": halve})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv, checks in ((["spectra"], ["reconstruction_ok"]),
                         (["roundtrip", "--function", "halve"],
                          ["identity_roundtrip_ok", "post_roundtrip_ok"])):
        code, out, err = run([argv[0], "--input", str(path), "--operator", "z", *argv[1:]], capsys)
        assert code == 0, err
        assert json.loads(out)["results"][0]["checks"] == dict.fromkeys(checks, True)


def test_residual_check_still_fails_a_merged_large_spectrum(tmp_path, capsys):
    # a cluster_tol of 1e3 merges 1e9 and 1e9 + 100 into 1e9 + 50: off by 50, above 1e-8 * 1e9
    path = tmp_path / "merged.json"
    doc = _z_doc(np.diag([1e9, 1e9 + 100]), [1, 0])
    for tolerances, want in (({}, 0), ({"cluster_tol": 1e3}, 1)):
        path.write_text(json.dumps({**doc, "tolerances": tolerances}))
        for command in ("spectra", "roundtrip"):
            code, out, err = run([command, "--input", str(path), "--operator", "z"], capsys)
            assert code == want, err
            (result,) = json.loads(out)["results"]
            residual = result.get("reconstruction_residual", result.get("identity_residual"))
            assert residual == pytest.approx(50.0 if want else 0.0, abs=1e-6)


def test_verify_reads_the_files_weight_floor(tmp_path, capsys):
    # the outcome -1 weighs 0.0099 at (1, 0.1): sampled at the default floor, not at 0.05
    path = tmp_path / "problem.json"
    argv = ["verify", "--input", str(path), "--operator", "z", "--state", "s", "--samples", "1000"]
    for tolerances, outcomes in (({}, [-1.0, 1.0]), ({"weight_floor": 0.05}, [1.0])):
        path.write_text(json.dumps(_z_doc(np.diag([1.0, -1.0]), [1, 0.1], tolerances=tolerances)))
        code, out, err = run(argv, capsys)
        assert code == 0, err
        section = json.loads(out)["results"][0]
        assert section["outcomes"] == outcomes
        assert section["predicted"] == pytest.approx(
            [0.01 / 1.01, 1.0 / 1.01] if len(outcomes) == 2 else [1.0], abs=1e-12)


def test_a_weight_floor_of_one_refuses_an_eigenvector(tmp_path, capsys):
    # <v, P v> / <v, v> rounds to 1 + 2**-52 at this eigenvector of a rotated diag(-1, 1);
    # clipped to 1, its weight no longer exceeds a floor of 1
    r = np.array([[math.cos(0.2), -math.sin(0.2)], [math.sin(0.2), math.cos(0.2)]])
    path = tmp_path / "eigenvector.json"
    path.write_text(json.dumps(_z_doc((r * [-1.0, 1.0]) @ r.T, list(r[:, 1]),
                                      tolerances={"weight_floor": 1.0})))
    for command, *rest in (["quantile"], ["verify", "--samples", "10"]):
        code, _, err = run([command, "--input", str(path), "--operator", "z", "--state", "s",
                            *rest], capsys)
        assert_bad_input(code, err, "no weight exceeds weight_floor 1.0e+00")


# the fiber_chsh_value each floor gives, or the exit-2 message
@pytest.mark.parametrize("weight_floor, code, want", [
    (1e-12, 0, 1.2000000000000002),
    # the fiber keeps only the cells above 0.3, so its value leaves the operators' 1.2
    (0.3, 1, 2.0),
    (1.0, 2, "no weight exceeds weight_floor 1.0e+00"),
])
def test_chsh_reads_the_files_weight_floor(tmp_path, capsys, weight_floor, code, want):
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "commuting_chsh.json").read_text())
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps({**doc, "tolerances": {"weight_floor": weight_floor}}))
    got, out, err = run(["chsh", "--input", str(path)], capsys)
    if code == 2:
        assert_bad_input(got, err, want)
        return
    assert got == code, err
    section = json.loads(out)["results"][0]
    assert section["fiber_chsh_value"] == want
    assert section["checks"]["fiber_integrals_match"] is (code == 0)


def test_chsh_projector_error_names_file_operator_role_and_knob(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(_scaled_first_half()))
    code, _, err = run(["chsh", "--input", str(path)], capsys)
    assert code == 2
    assert err == (
        f"hv: error: {path}: operator 'first_half' as e1 is not a projector: "
        "idempotence defect 1.000e-08 exceeds tol 1.0e-09 (tolerance 'projector_tol')\n"
    )


@pytest.mark.parametrize(
    "doc, argv, fragment",
    [
        (_z_doc([[math.nan, 0.0], [0.0, -1.0]], [1, 0]), ["spectra", "--operator", "z"],
         "operator 'z'"),
        (_z_doc(np.diag([1.0, -1.0]), [math.inf, 0]), ["quantile", "--operator", "z", "--state", "s"],
         "state 's'"),
        *(
            (_z_doc(np.diag([1.0, -1.0]), [1, 0], functions={"g": function}),
             ["roundtrip", "--operator", "z", "--function", "g"], "function 'g'")
            for function in (
                {"breakpoints": [math.nan], "pieces": [[-1, 0], [1, 0]], "breakpoint_values": [0]},
                {"breakpoints": [0], "pieces": [[math.nan, 0], [1, 0]], "breakpoint_values": [0]},
                {"breakpoints": [0], "pieces": [[-1, 0], [1, math.inf]], "breakpoint_values": [0]},
                {"breakpoints": [0], "pieces": [[-1, 0], [1, 0]], "breakpoint_values": [math.inf]},
            )
        ),
    ],
    ids=["nan-operator", "infinite-state", "nan-breakpoint", "nan-slope", "infinite-intercept",
         "infinite-breakpoint-value"],
)
def test_non_finite_entries_are_exit_2(tmp_path, capsys, doc, argv, fragment):
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, _, err = run([argv[0], "--input", str(path), *argv[1:]], capsys)
    assert_bad_input(code, err, str(path), fragment, "finite")


@pytest.mark.parametrize("fixture", ["commuting_chsh", "singlet_chsh"])
def test_chsh_report_decides_each_pairs_commutation_once(capsys, monkeypatch, fixture):
    # the 6 pairs among e1, e2, f1, f2 once each
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hvsim.linalg._commutes(*args, **kwargs)

    for module in (hvsim.bell, hvsim.cli):
        if hasattr(module, "_commutes"):
            monkeypatch.setattr(module, "_commutes", counted)
    code, _, _ = run(["chsh", "--input", fixture], capsys)
    assert code == (0 if fixture == "commuting_chsh" else 1)
    assert len(calls) == 6


@pytest.mark.parametrize("fixture", ["commuting_chsh", "singlet_chsh"])
def test_chsh_report_solves_the_cross_pairs_as_stacks(capsys, monkeypatch, fixture):
    # the four e + f - I as one stack; the four cross pairs' e + 2f and, where all six pairs
    # commute, the four-way sectors take their sectors from products, with no solve
    calls, jacobi = [], hvsim.linalg._jacobi

    def counted(a):
        calls.append(a.shape)
        return jacobi(a)

    monkeypatch.setattr(hvsim.linalg, "_jacobi", counted)
    code, _, _ = run(["chsh", "--input", fixture], capsys)
    assert code == (0 if fixture == "commuting_chsh" else 1)
    n = load_problem(fixture).dimension
    assert calls == [(4, n, n)]


@pytest.mark.parametrize("fixture", ["commuting_chsh", "singlet_chsh"])
def test_chsh_report_reads_its_terms_without_spanning_projectors(capsys, monkeypatch, fixture):
    # the terms step reads the stacked solve's eigenvector weights, and every joint sector
    # comes from products, so a report spans no projector
    spans, steps, terms = counted_spans(monkeypatch), [], hvsim.cli._chsh_terms

    def counted_terms(*args):
        before = len(spans)
        out = terms(*args)
        steps.append(len(spans) - before)
        return out

    monkeypatch.setattr(hvsim.cli, "_chsh_terms", counted_terms)
    code, _, _ = run(["chsh", "--input", fixture], capsys)
    assert code == (0 if fixture == "commuting_chsh" else 1)
    assert steps == [0]
    assert spans == []


def test_experiment_blocks_run_when_no_names_given(capsys):
    code, out, _ = run(["roundtrip", "--input", "pauli"], capsys)
    assert code == 0
    report = json.loads(out)
    kinds = [r["kind"] for r in report["results"]]
    assert kinds == ["roundtrip", "roundtrip"]  # both blocks from the file


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_result_leads_with_its_kind_names_and_settings(capsys, command):
    # kind, then the command's names and settings in Command order, as the block gave them
    spec = COMMANDS[command]
    fixture = "commuting_chsh" if command == "chsh" else "pauli"
    code, out, err = run([command, "--input", fixture], capsys)
    assert code == 0, err
    blocks = [b for b in load_problem(fixture).experiments if b["kind"] == command]
    results = json.loads(out)["results"]
    keys = ["kind", *spec.names, *spec.optional, *spec.settings]
    assert len(results) == len(blocks)
    for block, result in zip(blocks, results):
        assert list(result)[:len(keys)] == keys
        assert {k: result[k] for k in block} == block
        assert {result[k] for k in spec.optional if k not in block} <= {None}
        # a chsh result holds its e1..f2 at the top level, in no nested 'projectors' object
        assert "projectors" not in result


def test_out_file_and_csv_format(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "plus",
         "--samples", "2000", "--out", str(out_json)]
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["results"][0]["kind"] == "verify"

    out_csv = tmp_path / "report.csv"
    code = main(
        ["verify", "--input", "pauli", "--operator", "z", "--state", "plus",
         "--samples", "2000", "--format", "csv", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("result,outcome,predicted,empirical")
    assert len(lines) == 3  # header plus one row per outcome


@pytest.mark.parametrize("argv", [["spectra", "--input", "pauli", "--operator", "z"],
                                  ["chsh", "--input", "commuting_chsh"]])
def test_key_value_csv_matches_the_json_report(capsys, argv):
    code, out, _ = run(argv, capsys)
    assert code == 0
    results = json.loads(out)["results"]
    code, out, _ = run([*argv, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = ["result", "key", "value"]
    assert rows[0] == header and rows.count(header) == len(results)
    seen = set()
    for idx, key, value in (row for row in rows if row != header):
        result = results[int(idx)]
        if key.startswith("check:"):
            assert value == str(result["checks"][key[len("check:"):]])
        else:
            assert json.loads(value) == result[key]
        seen.add((int(idx), key))
    assert seen == {(i, k) for i, r in enumerate(results)
                    for k in [*r.keys() - {"checks"}, *(f"check:{c}" for c in r["checks"])]}


def test_partial_name_flags_are_an_error(capsys):
    code, _, err = run(["prob", "--input", "pauli", "--operator", "z"], capsys)
    assert_bad_input(code, err, "prob: missing --borel, --state")
    # --function is roundtrip's optional name: alone, it still needs --operator
    code, _, err = run(["roundtrip", "--input", "pauli", "--function", "absolute"], capsys)
    assert_bad_input(code, err, "roundtrip: missing --operator")


def test_zero_samples_is_exit_2_not_the_default(tmp_path, capsys):
    argv = ["verify", "--input", "pauli", "--operator", "z", "--state", "plus", "--samples", "0"]
    code, _, err = run(argv, capsys)
    assert_bad_input(code, err, "need at least one sample")
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc["experiments"] = [
        {"kind": "verify", "operator": "z", "state": "plus", "samples": 0, "seed": 42}
    ]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--input", str(path)], capsys)
    assert_bad_input(code, err, "need at least one sample")
    doc["experiments"][0]["samples"] = [1000]
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--input", str(path)], capsys)
    assert_bad_input(code, err, "verify samples must be an integer, got [1000]")


@pytest.mark.parametrize("key, value", [("samples", 2000.7), ("seed", True)])
def test_non_integer_verify_setting_is_exit_2(tmp_path, capsys, key, value):
    # a fraction is not truncated, and true is not seed 1
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc["experiments"] = [{"kind": "verify", "operator": "z", "state": "plus", key: value}]
    path = tmp_path / "setting.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--input", str(path)], capsys)
    assert_bad_input(code, err, f"verify {key} must be an integer, got {value!r}")


def test_samples_flag_only_on_commands_that_read_it(capsys):
    # --samples is a verify setting; elsewhere it would be ignored without a word
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--input", "pauli", "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err
    for command, spec in COMMANDS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        assert ("--samples" in help_text) == ("samples" in spec.settings)
        assert "--seed" in help_text


def _full_parser_output(argv) -> tuple:
    """Exit code, stdout and stderr of parsing argv with every subparser built."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus", "--input", "pauli"], ["--input", "pauli", "spectra"],
    ["spectra"], ["spectra", "--input", "x", "--bogus"], ["spectra", "--format", "xml"],
    ["spectra", "--input", "pauli", "extra"], ["verify", "--input", "pauli", "--samples", "x"],
    ["chsh", "--input", "commuting_chsh", "--operator", "z"],
    *([command, "--help"] for command in COMMANDS),
])
def test_help_and_usage_errors_read_as_from_the_full_parser(capsys, argv):
    # main builds only the named command's subparser; the top-level usage line lists every
    # command, so help and errors must print what the full parser prints
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == _full_parser_output(argv)


@pytest.mark.parametrize("argv", [
    ["spectra", "--input", "pauli"], ["prob", "--input", "p.json", "--borel", "b", "--seed", "3"],
    ["verify", "--samples", "40", "--input", "pauli", "--format", "csv", "--out", "r.csv"],
    ["roundtrip", "--input", "pauli", "--operator", "x", "--function", "f"],
    ["chsh", "--in", "singlet_chsh", "--e1", "a", "--state", "s"],
])
def test_one_subparser_parses_as_the_full_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "patch, fragments",
    [
        ({"operators": [1]}, ["'operators' must be an object"]),
        ({"states": "up"}, ["'states' must be an object"]),
        ({"tolerances": []}, ["'tolerances' must be an object"]),
        ({"tolerances": {"snap_tol": "x"}}, ["tolerance 'snap_tol' is not a number: 'x'"]),
        ({"tolerances": {"snap_tol": None}}, ["tolerance 'snap_tol' is not a number: None"]),
        # float() would read these as 1.0 and 1e-6
        (
            {"tolerances": {"reconstruction_tol": True}},
            ["tolerance 'reconstruction_tol' is not a number: True"],
        ),
        ({"tolerances": {"snap_tol": "1e-6"}}, ["tolerance 'snap_tol' is not a number: '1e-6'"]),
        (
            {"tolerances": {"snap_tol": 10**400}},
            ["tolerance 'snap_tol' must be finite and non-negative"],
        ),
        *(
            ({"tolerances": {"hermitian_tol": bad}},
             ["tolerance 'hermitian_tol' must be finite and non-negative"])
            for bad in (math.nan, math.inf, -1.0)
        ),
        ({"tolerances": {"cluster_tol": 0}}, ["tolerance 'cluster_tol' must be positive: 0"]),
        ({"dimension": 2.9}, ["missing or bad 'dimension'"]),
        ({"dimension": True}, ["missing or bad 'dimension'"]),
        (
            {"borel_sets": {"nonpositive": [{"hi": 0, "hi_closed": "false"}]}},
            ["borel set 'nonpositive'", "'hi_closed' must be true or false, got 'false'"],
        ),
        *(
            ({"borel_sets": {"nonpositive": [{"hi": bad}]}},
             ["borel set 'nonpositive'",
              f"interval endpoints must be numbers or '-inf'/'inf', got {bad!r}"])
            for bad in (False, None, "0", "-Infinity")
        ),
        (
            {"experiments": [{"kind": "spectra", "operator": ["z"]}]},
            ["experiment 0 operator must be a name", "['z']"],
        ),
        (
            {"experiments": [{"kind": "chsh", "e1": {"z": 1}}]},
            ["experiment 0 e1 must be a name"],
        ),
        ({"dimension": 0}, ["dimension must be positive"]),
        ({"tolerances": {"snap": 1e-9}}, ["unknown tolerance keys ['snap']"]),
        (
            {"borel_sets": {"half": {"lo": 0}}},
            ["borel set 'half'", "a Borel set is a list of interval objects"],
        ),
        (
            {"borel_sets": {"half": [[0, "inf"]]}},
            ["borel set 'half'", "intervals are objects with lo/hi/flags"],
        ),
        (
            {"borel_sets": {"half": [{"lo": 1, "hi": 0}]}},
            ["borel set 'half'", "interval endpoints out of order: 1.0 > 0.0"],
        ),
        (
            {"functions": {"g": [[1, 0]]}},
            ["function 'g'", "functions are objects with breakpoints/pieces/breakpoint_values"],
        ),
        # every file block is checked, whatever its kind and whatever the command run
        ({"experiments": [{"operator": "z"}]}, ["experiment 0 needs a 'kind'"]),
        ({"experiments": ["spectra"]}, ["experiment 0 needs a 'kind'"]),
        (
            {"experiments": [{"kind": "spectrum", "operator": "z"}]},
            ["experiment 0 kind 'spectrum' is not one of spectra, prob, quantile, verify"],
        ),
        ({"experiments": [{"kind": ["spectra"]}]}, ["experiment 0 kind ['spectra'] is not one"]),
        (
            {"experiments": [{"kind": "prob", "operator": "z", "state": "plus", "borel": "b"}]},
            ["experiment 0 prob references unknown borel 'b'"],
        ),
        (
            {"experiments": [{"kind": "prob", "operator": "z"}]},
            ["experiment 0 prob: missing borel, state"],
        ),
        (
            {"experiments": [{"kind": "verify", "operator": "z", "state": "plus", "samples": "9"}]},
            ["experiment 0 verify samples must be an integer, got '9'"],
        ),
        (
            {"experiments": [{"kind": "spectra", "operator": "z", "seed": 1.5}]},
            ["experiment 0 spectra seed must be an integer, got 1.5"],
        ),
        # true is not a JSON number, though float() would read it as 1
        (
            {"operators": {"z": [[[True, 0], [0, 0]], [[0, 0], [-1, 0]]]}},
            ["operator 'z': entries must be JSON numbers, got True"],
        ),
    ],
    ids=["operators-list", "states-string", "tolerances-list", "tolerance-string",
         "tolerance-null", "tolerance-bool", "tolerance-numeric-string",
         "tolerance-int-past-float", "tolerance-nan", "tolerance-inf", "tolerance-negative",
         "cluster-tol-zero", "dimension-fraction", "dimension-bool", "flag-string",
         "endpoint-bool", "endpoint-null", "endpoint-numeric-string", "endpoint-inf-spelling",
         "operator-list", "e1-object", "dimension-zero", "tolerance-unknown-key",
         "borel-object", "interval-list", "interval-out-of-order", "function-list",
         "block-without-kind", "block-string", "kind-unknown", "kind-list",
         "block-unknown-name", "block-missing-names", "block-samples-string",
         "block-seed-fraction", "operator-entry-bool"],
)
def test_malformed_problem_file_is_exit_2(tmp_path, capsys, patch, fragments):
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc.update(patch)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["spectra", "--input", str(path), "--operator", "z"], capsys)
    assert_bad_input(code, err, str(path), *fragments)


@pytest.mark.parametrize(
    "text, command, fragment",
    [("{", "spectra", "not valid JSON"), ("[]", "spectra", "top level must be an object"),
     (None, "chsh", "no 'chsh' experiment")],
    ids=["invalid-json", "top-level-list", "no-block-of-the-kind"],
)
def test_unusable_file_is_exit_2(tmp_path, capsys, text, command, fragment):
    fixture = Path(hvsim.__file__).parent / "fixtures" / "pauli.json"
    path = tmp_path / "unusable.json"
    path.write_text(fixture.read_text() if text is None else text)
    code, _, err = run([command, "--input", str(path)], capsys)
    assert_bad_input(code, err, str(path), fragment)


def test_unreadable_input_and_unwritable_out_are_exit_2(tmp_path, capsys):
    code, _, err = run(["spectra", "--input", str(tmp_path)], capsys)
    assert_bad_input(code, err, str(tmp_path))
    out = tmp_path / "no" / "such" / "r.json"
    code, stdout, err = run(["spectra", "--input", "pauli", "--out", str(out)], capsys)
    assert_bad_input(code, err, str(out))
    assert stdout == ""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_negative_seed_is_exit_2_for_every_command(capsys, monkeypatch, command):
    fixture = "commuting_chsh" if command == "chsh" else "pauli"
    code, _, err = run([command, "--input", fixture, "--seed", "-1"], capsys)
    assert_bad_input(code, err, "--seed: seed must be a non-negative integer, got -1")
    monkeypatch.setenv("HV_SEED", "-3")
    code, _, err = run([command, "--input", fixture], capsys)
    assert_bad_input(code, err, "HV_SEED: seed must be a non-negative integer, got -3")


def test_post_map_not_finite_on_the_spectrum_is_exit_2(tmp_path, capsys):
    # every number in g is finite, but g(1) = 1e308 + 1e308 is not
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc["functions"]["big"] = {"breakpoints": [], "pieces": [[1e308, 1e308]],
                               "breakpoint_values": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    argv = ["roundtrip", "--input", str(path), "--operator", "z", "--function", "big"]
    code, out, err = run(argv, capsys)
    assert_bad_input(code, err, str(path), "function 'big'", "operator 'z'")
    assert out == ""


def test_quantile_of_a_spectrum_wider_than_the_float64_range(tmp_path, capsys):
    # the eigenvalues +-1.7e308 are finite, their difference is not
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc["operators"]["wide"] = _complex_rows(np.diag([1.7e308, -1.7e308]))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["quantile", "--input", str(path), "--operator", "wide",
                          "--state", "plus"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["values"] == [-1.7e308, 1.7e308]


def test_quantile_puts_each_eigenvalue_in_one_atom_when_atoms_lie_within_snap_tol(tmp_path,
                                                                                    capsys):
    # eigenvalues 0 and 5e-10, kept apart by a cluster_tol of 1e-12: asked alone, each atom
    # snaps the other's eigenvalue in too; classified in one table, each snaps onto itself
    doc = _z_doc(np.diag([0.0, 5e-10]), [0.6, 0.8], tolerances={"cluster_tol": 1e-12})
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["quantile", "--input", str(path), "--operator", "z", "--state", "s"],
                         capsys)
    assert (code, err) == (0, "")
    result = json.loads(out)["results"][0]
    assert result["values"] == [0.0, 5e-10]
    assert result["atom_probabilities"] == pytest.approx([0.36, 0.64], rel=0, abs=1e-15)
    assert result["pushforward_defect"] <= 1e-15 and result["checks"]["pushforward_ok"]


def test_an_int_past_float_range_reads_as_an_infinite_endpoint(tmp_path, capsys):
    # json reads the literal 1e400 as inf; an integer literal that large means the same
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc["borel_sets"]["nonpositive"] = [{"lo": -(10**400), "hi": 0, "hi_closed": True}]
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(doc))
    args = ["prob", "--operator", "z", "--state", "plus", "--borel", "nonpositive"]
    code, out, _ = run([*args, "--input", str(path)], capsys)
    assert code == 0
    fixture_code, fixture_out, _ = run([*args, "--input", "pauli"], capsys)
    assert fixture_code == 0
    assert json.loads(out)["results"] == json.loads(fixture_out)["results"]


def test_spectra_random_dim8_fixture_file(tmp_path, capsys):
    rng = np.random.default_rng(163)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    doc = {"dimension": 8, "operators": {"dense": _complex_rows((a + a.conj().T) / 2)}}
    path = tmp_path / "dense8.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["spectra", "--input", str(path), "--operator", "dense"], capsys)
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["reconstruction_residual"] < 1e-8


def _solver_edge_case(name: str) -> np.ndarray:
    """The operator of one of the solver's edge cases, unsymmetrized:
    - kept, restarted: a chained cluster of four eigenvalues 1e-9 apart, at dim 8 and at
      dim 5 (test_linalg's _chained(default_rng(42), 5)); the tight stage resolves it. The
      refinement of the dim-8 one is kept, and that of the dim-5 one misses the
      orthonormality bound and restarts from the loose stage's result;
    - idle: at odd n each round leaves one index idle, which a paired sweep must keep out
      of W's put;
    - subnormal: the coupling 1e-310 (1 + i) is subnormal, and stays so once scaled."""
    if name == "kept":
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        return (q * [-3.0, -2.0, -1.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9, 2.0]) @ q.conj().T
    if name == "restarted":
        rng = np.random.default_rng(42)
        u = rand_unitary(rng, 5)
        w = np.sort(rng.uniform(-3.0, 3.0, size=5))
        w[:4] = w[0] + 1e-9 * np.arange(4)
        return (u * w) @ u.conj().T
    if name == "idle":
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        return (q * [-2.0, -1.0, -1.0, 0.5, 3.0, 3.0, 3.0]) @ q.conj().T
    z = 1e-310 * (1 + 1j)
    return np.array([[1, 0.5, 0, 0], [0.5, 2, 0, 0], [0, 0, 3, z], [0, 0, np.conj(z), 4]])


@pytest.mark.parametrize("name, multiplicities, restarted", [
    ("kept", [1, 1, 1, 4, 1], False),
    ("restarted", [4, 1], True),
    ("idle", [1, 2, 1, 3], False),
    ("subnormal", [1, 1, 1, 1], False),
])
def test_spectra_and_roundtrip_on_the_solvers_edge_cases(tmp_path, capsys, name, multiplicities,
                                                         restarted):
    a = _solver_edge_case(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dimension": len(a),
                                "operators": {name: _complex_rows((a + a.conj().T) / 2)}}))
    code, out, _ = run(["spectra", "--input", str(path), "--operator", name], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["multiplicities"] == multiplicities
    assert run(["roundtrip", "--input", str(path), "--operator", name], capsys)[0] == 0
    # the solve eigh makes of the loaded operator
    work = _jacobi(ensure_hermitian(load_problem(str(path)).operators[name]))[2]
    assert work.restarted.tolist() == [restarted]


def test_dim48_spectra_report_is_identical_across_processes(tmp_path):
    # the solver's dense products run through BLAS at its default thread count
    rng = np.random.default_rng(48)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    path = tmp_path / "dense48.json"
    doc = {"dimension": 48, "operators": {"dense": _complex_rows(a + a.conj().T)}}
    path.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(hvsim.__file__).parents[1])
    payloads = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-m", "hvsim", "spectra", "--input", str(path), "--operator", "dense"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        report = json.loads(done.stdout)
        assert report.pop("duration_seconds") >= 0.0
        payloads.append(json.dumps(report))
    assert payloads[0] == payloads[1]


def test_roundtrip_affine_on_three_levels(tmp_path, capsys):
    doc = {
        "dimension": 3,
        "operators": {"ladder": _complex_rows(np.diag([1.0, 2.0, 3.0]))},
        "functions": {
            "shift_scale": {"breakpoints": [], "pieces": [[2, 1]], "breakpoint_values": []}
        },
    }
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        ["roundtrip", "--input", str(path), "--operator", "ladder", "--function", "shift_scale"],
        capsys,
    )
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["checks"]["post_roundtrip_ok"]


def _rank2_cluster_rows(rng) -> list:
    """A dim-16 operator with the planned spectrum -7, -7, -5..8 in a random basis, as rows."""
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    w = np.arange(-7.0, 9.0)
    w[1] = -7.0
    a = (q * w) @ q.conj().T
    return _complex_rows((a + a.conj().T) / 2)


def test_roundtrip_snaps_an_eigenvalue_onto_a_breakpoint_within_snap_tol(tmp_path, capsys):
    # the planned spectrum's eigenvalue 0 is computed off 0 (-3.2e-16 with OpenBLAS's SkylakeX
    # kernels, 1.2e-16 with Sandybridge's), and g has a jump at 0 valued 4: the target and the
    # reduction both give that eigenvalue g(0) = 4 (the target used to evaluate g at
    # -3.2e-16, giving 1, a residual of 0.62)
    doc = {
        "dimension": 16,
        "operators": {"a": _rank2_cluster_rows(np.random.default_rng(16))},
        "functions": {"g": {"breakpoints": [0], "pieces": [[-0.5, 1], [2, -3]],
                            "breakpoint_values": [4]}},
    }
    path = tmp_path / "dim16.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["roundtrip", "--input", str(path), "--operator", "a", "--function", "g"],
                       capsys)
    section = json.loads(out)["results"][0]
    assert 0.0 < abs(float(eigh(load_problem(str(path)).operators["a"]).eigenvalues[6])) < 1e-15
    assert code == 0 and section["checks"]["post_roundtrip_ok"]
    assert section["post_residual"] <= 1e-13


def test_quantile_and_roundtrip_on_a_dim16_operator_with_a_rank2_cluster(tmp_path, capsys):
    # the planned spectrum, a state, and a post map with a jump at 0.5 that sends 0 and 2 to 1
    # and -4 and 3 to 3: quantile takes its 15 atoms from one masked product, and roundtrip
    # its 15 threshold projectors and the 13 of their preimages
    rng = np.random.default_rng(16)
    doc = {
        "dimension": 16,
        "operators": {"a": _rank2_cluster_rows(rng)},
        "states": {"h": [[z.real, z.imag] for z in
                         rng.standard_normal(16) + 1j * rng.standard_normal(16)]},
        "functions": {"g": {"breakpoints": [0.5], "pieces": [[-0.5, 1], [2, -3]],
                            "breakpoint_values": [4]}},
    }
    path = tmp_path / "dim16.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["quantile", "--input", str(path), "--operator", "a", "--state", "h"],
                         capsys)
    assert code == 0, err
    section = json.loads(out)["results"][0]
    assert len(section["atom_probabilities"]) == 15
    assert section["checks"] == {"pushforward_ok": True}
    code, out, err = run(["roundtrip", "--input", str(path), "--operator", "a", "--function", "g"],
                         capsys)
    assert code == 0, err
    section = json.loads(out)["results"][0]
    assert section["checks"] == {"identity_roundtrip_ok": True, "post_roundtrip_ok": True}


def test_chsh_all_identity_projectors_scores_two(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "operators": {"full": _complex_rows(np.eye(2))},
        "states": {"up": [[1, 0], [0, 0]]},
        "experiments": [
            {"kind": "chsh", "e1": "full", "e2": "full", "f1": "full", "f2": "full",
             "state": "up"}
        ],
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["chsh", "--input", str(path)], capsys)
    assert code == 0
    section = json.loads(out)["results"][0]
    assert section["chsh_value"] == pytest.approx(2.0, abs=1e-9)
    assert section["checks"]["classical_bound_respected"]


@pytest.mark.parametrize("source", ["flag", "env", "block"])
def test_negative_seed_is_exit_2_naming_seed(tmp_path, capsys, monkeypatch, source):
    argv = ["verify", "--input", "pauli", "--operator", "z", "--state", "plus", "--samples", "10"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("HV_SEED", "-1")
    else:
        doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
        doc["experiments"] = [{"kind": "verify", "operator": "z", "state": "plus", "seed": -1}]
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--input", str(path)]
    code, _, err = run(argv, capsys)
    assert_bad_input(code, err, "seed must be a non-negative integer, got -1")


def _walked(pairs):
    """The entry-by-entry parse the array reader replaced, kept as its oracle."""
    return np.array([complex(float(re), float(im)) for re, im in pairs])


# JSON numbers as json.loads gives them: ints (some past 2**53, where float() rounds) and
# floats, with -0.0, subnormals and +-1e307 drawn often
_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(2**70), 2**70),
    st.floats(-1e307, 1e307),
    st.floats(5e-324, 2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e307, -1e307, 10**300]),
)


@st.composite
def _problem_docs(draw):
    """A well-formed problem file: a Hermitian operator 'm', a state 's' and a function 'g'."""
    dim = draw(st.integers(1, 5))
    pair = st.tuples(_NUMBERS, _NUMBERS).map(list)
    count = dim * (dim + 1) // 2
    upper = iter(draw(st.lists(pair, min_size=count, max_size=count)))
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            re, im = next(upper)
            rows[i][j] = [re, 0] if i == j else [re, im]
            rows[j][i] = [re, 0] if i == j else [re, -im]
    state = draw(st.lists(pair, min_size=dim, max_size=dim)
                 .filter(lambda v: any(x != 0 for p in v for x in p)))
    breakpoints = sorted(draw(st.lists(_NUMBERS, max_size=4, unique_by=float)), key=float)
    n = len(breakpoints)
    function = {"breakpoints": breakpoints,
                "pieces": draw(st.lists(pair, min_size=n + 1, max_size=n + 1)),
                "breakpoint_values": draw(st.lists(_NUMBERS, min_size=n, max_size=n))}
    return {"dimension": dim, "operators": {"m": rows}, "states": {"s": state},
            "functions": {"g": function}}


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(doc=_problem_docs())
def test_array_reader_equals_the_entry_by_entry_parse(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("reader") / "problem.json"
    path.write_text(json.dumps(doc))
    problem = load_problem(str(path))
    tol = problem.tolerances.hermitian_tol
    assert _bits(problem.operators["m"]) == _bits(
        ensure_hermitian([_walked(row) for row in doc["operators"]["m"]], tol))
    assert _bits(problem.states["s"].vector) == _bits(PureState(_walked(doc["states"]["s"])).vector)
    spec, g = doc["functions"]["g"], problem.functions["g"]
    assert _bits(g.breakpoints) == _bits([float(x) for x in spec["breakpoints"]])
    assert _bits(g.pieces) == _bits([(float(m), float(q)) for m, q in spec["pieces"]])
    assert _bits(g.breakpoint_values) == _bits([float(v) for v in spec["breakpoint_values"]])


def _leaves(value, path=()):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _at(value, path):
    for i in path:
        value = value[i]
    return value


_BAD_NUMBERS = {"true": True, "string": "1", "null": None, "int-past-float": 10**400}
_OBJECTS = {"operator": ("operators", "m"), "state": ("states", "s"), "function": ("functions", "g")}


def _set_leaf(lst, draw, change):
    path = draw(st.sampled_from(list(_leaves(lst))))
    _at(lst, path[:-1])[path[-1]] = change(_at(lst, path))


@pytest.mark.parametrize("target", list(_OBJECTS))
@pytest.mark.parametrize("mutation", [*_BAD_NUMBERS, "ragged-row", "one-level-deeper",
                                      "wrong-dimension"])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(doc=_problem_docs(), data=st.data())
def test_a_mutated_number_list_is_exit_2_naming_the_object(
    tmp_path_factory, target, mutation, doc, data
):
    table, name = _OBJECTS[target]
    lst = doc[table][name]
    if target == "function":
        lst = lst[data.draw(st.sampled_from([key for key in lst if lst[key]]))]
    if mutation in _BAD_NUMBERS:
        _set_leaf(lst, data.draw, lambda _: _BAD_NUMBERS[mutation])
    elif mutation == "one-level-deeper":
        _set_leaf(lst, data.draw, lambda x: [x])
    else:
        # the function's rows are its pieces, its one list of [slope, intercept] pairs
        rows = doc["functions"]["g"]["pieces"] if target == "function" else lst
        if mutation == "ragged-row":
            rows[data.draw(st.integers(0, len(rows) - 1))].pop()
        elif target == "function":
            for piece in rows:
                piece.append(0)
        else:
            rows.pop()  # one row, or one component, short of the dimension
    path = tmp_path_factory.mktemp("mutant") / "problem.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["spectra", "--input", str(path), "--operator", "m"])
    assert_bad_input(code, err.getvalue(), str(path), f"{target} {name!r}")
