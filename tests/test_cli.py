import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hvsim
from hvsim.cli import COMMANDS, load_problem, main, run_chsh, run_verify

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


def test_verify_tiny_sample_count_may_fail_statistically():
    # n = 10 is deliberately undersized: the run must complete and report
    # either way; the budget flag is allowed to fail here
    problem = load_problem("pauli")
    section = run_verify(problem, "z", "plus", samples=10, seed=3)
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
    return {"dimension": 2, "operators": {"z": _complex_rows(np.array(z_entries))},
            "states": {"s": [[c, 0] for c in state]}, **extra}


# each tolerance key, loosened in the file, with what the default gives (a str: the
# exit-2 message) and what the loosened value gives
LOOSENED_TOLERANCES = {
    "projector_tol": (
        1e-6, _scaled_first_half(), ["chsh"],
        lambda r: (r["checks"]["classical_bound_respected"],
                   r["proposition_intersections_admitted"]),
        "idempotence defect", (True, True),
    ),
    "hermitian_tol": (
        1e-8, _z_doc([[1.0, 1e-9], [0.0, -1.0]], [1, 0]), ["spectra", "--operator", "z"],
        lambda r: r["eigenvalues"], "self-adjointness defect", [-1.0, 1.0],
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
    ],
    ids=["nan-operator", "infinite-state"],
)
def test_non_finite_entries_are_exit_2(tmp_path, capsys, doc, argv, fragment):
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, _, err = run([argv[0], "--input", str(path), *argv[1:]], capsys)
    assert_bad_input(code, err, str(path), fragment, "finite")


@pytest.mark.parametrize("fixture", ["commuting_chsh", "singlet_chsh"])
def test_chsh_report_decides_each_pairs_commutation_once(capsys, monkeypatch, fixture):
    # the 6 pairs among e1, e2, f1, f2 once each, plus check_boolean_homomorphism's own
    # re-check in each of the 4 cross-pair refinements
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hvsim.linalg._commutes(*args, **kwargs)

    for module in (hvsim.bell, hvsim.cli):
        if hasattr(module, "_commutes"):
            monkeypatch.setattr(module, "_commutes", counted)
    code, _, _ = run(["chsh", "--input", fixture], capsys)
    assert code == (0 if fixture == "commuting_chsh" else 1)
    assert len(calls) == 10


def test_experiment_blocks_run_when_no_names_given(capsys):
    code, out, _ = run(["roundtrip", "--input", "pauli"], capsys)
    assert code == 0
    report = json.loads(out)
    kinds = [r["kind"] for r in report["results"]]
    assert kinds == ["roundtrip", "roundtrip"]  # both blocks from the file


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


@pytest.mark.parametrize(
    "patch, fragments",
    [
        ({"operators": [1]}, ["'operators' must be an object"]),
        ({"states": "up"}, ["'states' must be an object"]),
        ({"tolerances": []}, ["'tolerances' must be an object"]),
        ({"tolerances": {"snap_tol": "x"}}, ["tolerance 'snap_tol' is not a number: 'x'"]),
        ({"tolerances": {"snap_tol": None}}, ["tolerance 'snap_tol' is not a number: None"]),
        *(
            ({"tolerances": {"hermitian_tol": bad}},
             ["tolerance 'hermitian_tol' must be finite and non-negative"])
            for bad in (math.nan, math.inf, -1.0)
        ),
        ({"tolerances": {"cluster_tol": 0}}, ["tolerance 'cluster_tol' must be positive: 0"]),
        (
            {"experiments": [{"kind": "spectra", "operator": ["z"]}]},
            ["experiment 0 operator must be a name", "['z']"],
        ),
        (
            {"experiments": [{"kind": "chsh", "e1": {"z": 1}}]},
            ["experiment 0 e1 must be a name"],
        ),
    ],
    ids=["operators-list", "states-string", "tolerances-list", "tolerance-string",
         "tolerance-null", "tolerance-nan", "tolerance-inf", "tolerance-negative",
         "cluster-tol-zero", "operator-list", "e1-object"],
)
def test_malformed_problem_file_is_exit_2(tmp_path, capsys, patch, fragments):
    doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
    doc.update(patch)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["spectra", "--input", str(path), "--operator", "z"], capsys)
    assert_bad_input(code, err, str(path), *fragments)


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
