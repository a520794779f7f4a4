"""cli-reports: `hv` invocations through hvsim.cli.main, in-process.

A round writes five problem files with one planned operator each, at dims
48, 32, 32, 16 and 16, and three CHSH files at dim 8: a singlet with an
ancilla, a commuting quadruple, and a fixed singlet file that loosens
`projector_tol` to 1e-6 and carries a projector with a 1e-8 idempotence
defect. Every command (spectra, prob, quantile, verify, roundtrip on the
operator files, chsh on the CHSH files) runs once per file in JSON and once
in CSV, each with `--out` pointing at a file in the round's directory.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import hvsim
import hvsim.cli
import oracle
import speed
from common import NO_REPORT, Op, Verdict
from inputs import (FIXED_ENTROPY, commuting_quadruple, event_union, planned_operator,
                    problem_bytes, random_map, random_vector, singlet_quadruple, stream)

NAME = "cli-reports"
TAG = 3
KERNEL = speed.ROTATIONS  # time goes to hvsim's Jacobi solver
GENERIC_DIMS = (48, 32, 32, 16, 16)  # puts p50 low among the dim-32 ops, p90 among dim 48
COMMANDS = ("spectra", "prob", "quantile", "verify", "roundtrip")
FORMATS = ("json", "csv")
DRAWS = 100_000
CHSH_DIM = 8
TSIRELSON = 2.0 * math.sqrt(2.0)
VERIFY_HEADER = ["result", "outcome", "predicted", "empirical", "deviation", "budget"]


def _parse_csv(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] == VERIFY_HEADER:
        cols = list(zip(*rows[1:]))
        keys = ("outcomes", "predicted", "empirical", "deviations", "budgets")
        return {key: [float(x) for x in col] for key, col in zip(keys, cols[1:])}
    result: dict = {"checks": {}}
    for _, key, value in rows[1:]:
        if key.startswith("check:"):
            result["checks"][key[len("check:"):]] = value == "True"
        else:
            result[key] = json.loads(value)
    return result


def _op(kind: str, command: str, path: Path, out: Path, fmt: str, judge_result,
        fault_codes=frozenset()) -> Op:
    argv = [command, "--input", str(path), "--out", str(out), "--format", fmt]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = hvsim.cli.main(argv)
        return code, err.getvalue()

    def observe(raw) -> dict:
        code, stderr = raw
        f = {"code": code, "stderr": stderr.strip(), "report": None, "result": None,
             "report_bytes": 0}
        if out.exists():
            data = out.read_bytes()
            out.unlink()
            f["report_bytes"] = len(data)
            text = data.decode("utf-8")
            if fmt == "json":
                f["report"] = json.loads(text)
                f["result"] = f["report"]["results"][0]
            else:
                f["result"] = _parse_csv(text)
        return f

    def judge(f: dict) -> list:
        v = Verdict()
        if f["result"] is None:
            v.fail(NO_REPORT if f["code"] == 2 else "report",
                   f"hv {command} exited {f['code']} without a report: {f['stderr']}")
            return v.failures
        report = f["report"]
        if report is not None:
            v.require(report["command"] == command, "report", f"command {report['command']!r}")
            v.require(report["input_digest"] == digest, "digest",
                      "input_digest is not the sha256 of the file written")
            checks = f["result"]["checks"]
            v.require(report["passed"] == all(checks.values()), "report",
                      "passed flag disagrees with the checks")
        want_code = judge_result(f["result"], v)
        v.require(f["code"] == want_code, "exit-code", f"exit {f['code']}, expected {want_code}")
        return v.failures

    return Op(kind, run, observe, judge, fault_codes)


def _generic_file(rng: np.random.Generator, n: int, path: Path):
    """Write one operator problem file; return a judge per command."""
    planned = planned_operator(rng, n)
    psi = random_vector(rng, n)
    event = event_union(rng, planned.values)
    gmap = random_map(rng, planned.values)
    seed = int(rng.integers(0, 2**31))
    path.write_bytes(problem_bytes(
        n, {"A": planned.matrix}, {"psi": psi},
        [{"kind": "spectra", "operator": "A"},
         {"kind": "prob", "operator": "A", "state": "psi", "borel": "B"},
         {"kind": "quantile", "operator": "A", "state": "psi"},
         {"kind": "verify", "operator": "A", "state": "psi", "samples": DRAWS, "seed": seed},
         {"kind": "roundtrip", "operator": "A", "function": "g"}],
        borel_sets={"B": event}, functions={"g": gmap}))

    spec = oracle.spectrum(planned.matrix)
    weights = spec.weights(psi)
    want_prob = sum(w for x, w in zip(spec.values, weights) if oracle.event_contains(event, float(x)))
    tol = 1e-9 * max(1.0, planned.scale)

    def spectra(r: dict, v: Verdict) -> int:
        v.require(tuple(r["multiplicities"]) == planned.ranks, "spectra",
                  f"multiplicities {r['multiplicities']} != planned {list(planned.ranks)}")
        if len(r["eigenvalues"]) == len(planned.values):
            v.close(r["eigenvalues"], planned.values, tol, "spectra", "eigenvalues")
            v.close(r["projector_traces"], planned.ranks, 1e-9, "spectra", "projector traces")
        else:
            v.fail("spectra", f"{len(r['eigenvalues'])} eigenvalues, planned {len(planned.values)}")
        v.require(r["reconstruction_residual"] <= 1e-8, "spectra", "reconstruction residual")
        v.require(r["checks"]["reconstruction_ok"], "spectra", "reconstruction check false")
        return 0

    def prob(r: dict, v: Verdict) -> int:
        v.close(r["probability"], want_prob, 1e-9, "prob", "probability")
        v.require(r["checks"]["in_unit_interval"], "prob", "probability outside [0, 1]")
        return 0

    def quantile(r: dict, v: Verdict) -> int:
        v.close(r["values"], planned.values, tol, "quantile", "quantile values")
        want_cuts = np.concatenate(([0.0], np.cumsum(weights)))
        want_cuts[-1] = 1.0
        v.close(r["cuts"], want_cuts, 1e-9, "quantile", "quantile cuts")
        v.close(r["atom_probabilities"], weights, 1e-9, "quantile", "atom probabilities")
        v.require(r["checks"]["pushforward_ok"], "quantile", "pushforward check false")
        return 0

    def verify(r: dict, v: Verdict) -> int:
        v.close(r["outcomes"], planned.values, tol, "verify", "outcomes")
        v.close(r["predicted"], weights, 1e-9, "verify", "predicted frequencies")
        emp = np.array(r["empirical"])
        v.require(abs(float(emp.sum()) - 1.0) <= 1e-12, "verify", "frequencies do not sum to 1")
        if emp.shape == weights.shape:
            over = np.abs(emp - weights) - oracle.sample_budget(weights, DRAWS)
            v.require(np.all(over <= 0), "verify", f"frequency over budget by {over.max():.3e}")
        v.close(r["budgets"], 4.0 * np.sqrt(weights * (1.0 - weights) / DRAWS), 1e-9, "verify",
                "4-sigma budgets")
        # hv's own 4-sigma check decides the exit code; a correct sampler
        # misses it now and then, so the code must agree with the report.
        within = all(d <= b for d, b in zip(r["deviations"], r["budgets"]))
        if "within_budget" in r.get("checks", {}):
            v.require(r["checks"]["within_budget"] == within, "verify", "within_budget flag")
        return 0 if within else 1

    def roundtrip(r: dict, v: Verdict) -> int:
        v.require(r["identity_residual"] <= 1e-8, "roundtrip",
                  f"identity round trip off by {r['identity_residual']:.3e}")
        v.require(r["post_residual"] <= 1e-8, "roundtrip",
                  f"post-map round trip off by {r['post_residual']:.3e}")
        v.require(all(r["checks"].values()), "roundtrip", "round-trip check false")
        return 0

    return {"spectra": spectra, "prob": prob, "quantile": quantile, "verify": verify,
            "roundtrip": roundtrip}


def _chsh_file(kind: str, projectors, psi: np.ndarray, path: Path, tolerances=None):
    """Write one CHSH problem file; return the judge of its chsh report."""
    names = ("e1", "e2", "f1", "f2")
    path.write_bytes(problem_bytes(
        CHSH_DIM, dict(zip(names, projectors)), {"psi": psi},
        [{"kind": "chsh", **{k: k for k in names}, "state": "psi"}], tolerances=tolerances))
    want_terms = oracle.chsh_terms(projectors, psi)
    singlet = kind != "commuting"
    slack = 1e-6 if tolerances else 1e-8

    def judge(r: dict, v: Verdict) -> int:
        v.close(r["expectations"], want_terms, slack, "chsh", "correlation expectations")
        value = r["chsh_value"]
        v.close(value, oracle.chsh(np.array(r["expectations"])), 1e-12, "chsh", "value vs terms")
        v.require(all(r["cross_pairs_commute"].values()), "chsh", "cross pairs reported non-commuting")
        v.require(r["checks"]["joint_propositions_consistent"], "chsh", "joint propositions inconsistent")
        if singlet:
            v.close(value, TSIRELSON, 1e-6, "tsirelson", "singlet CHSH value")
            v.require(r["proposition_intersections_admitted"] is False, "chsh",
                      "non-commuting couples admitted a common refinement")
            v.require(r["checks"]["classical_bound_respected"] is False, "chsh",
                      "bound flag true at 2 sqrt 2")
            return 1
        v.require(value <= 2.0 + 1e-9, "classical-bound", f"CHSH {value!r} above 2")
        v.require(r["proposition_intersections_admitted"] is True, "chsh", "refinement refused")
        v.close(r["fiber_chsh_value"], value, 1e-9, "fiber", "fiber CHSH vs operator CHSH")
        v.require(all(r["checks"].values()), "chsh", "a check is false")
        return 0

    return judge


def _loose_tolerance_file(path: Path):
    """Fixed singlet file with projector_tol 1e-6 and e1 scaled by 1 + 1e-8/max|e1|,
    an idempotence defect of 1e-8. hv should accept it."""
    projectors, psi = singlet_quadruple(stream(FIXED_ENTROPY, TAG), CHSH_DIM // 4)
    e1 = projectors[0]
    projectors[0] = e1 * (1.0 + 1e-8 / float(np.max(np.abs(e1))))
    return _chsh_file("singlet", projectors, psi, path, tolerances={"projector_tol": 1e-6})


def build_round(seed: int, index: int, workdir: Path) -> list:
    rng = stream(seed, TAG, index)
    ops = []

    def add(kind, command, path, judge_result, fault_codes=frozenset()):
        for fmt in FORMATS:
            out = workdir / f"out{len(ops)}.{fmt}"
            ops.append(_op(kind, command, path, out, fmt, judge_result, fault_codes))

    for i, n in enumerate(GENERIC_DIMS):
        path = workdir / f"operator{i}-dim{n}.json"
        judges = _generic_file(rng, n, path)
        for command in COMMANDS:
            add(command, command, path, judges[command])
    projectors, psi = singlet_quadruple(rng, CHSH_DIM // 4)
    add("chsh-singlet", "chsh", workdir / "singlet.json",
        _chsh_file("singlet", projectors, psi, workdir / "singlet.json"))
    projectors, psi, _, _ = commuting_quadruple(rng, CHSH_DIM)
    add("chsh-commuting", "chsh", workdir / "commuting.json",
        _chsh_file("commuting", projectors, psi, workdir / "commuting.json"))
    path = workdir / "loose_tolerance.json"
    add("chsh-loose-tolerance", "chsh", path, _loose_tolerance_file(path), frozenset({NO_REPORT}))
    return ops


def prepare_first(seed: int, workdir: Path) -> None:
    """Write the first operation's problem file for the set-up probe."""
    _generic_file(stream(seed, TAG, 0), GENERIC_DIMS[0], workdir / "problem.json")


def _shift_eigenvalue(f: dict) -> dict:
    result = {**f["result"], "eigenvalues": [f["result"]["eigenvalues"][0] + 1e-6]
              + f["result"]["eigenvalues"][1:]}
    return {**f, "result": result}


def _swap_atoms(f: dict) -> dict:
    probs = list(f["result"]["atom_probabilities"])
    i, j = int(np.argmin(probs)), int(np.argmax(probs))
    probs[i], probs[j] = probs[j], probs[i]
    return {**f, "result": {**f["result"], "atom_probabilities": probs}}


def _flip_chsh_term(f: dict) -> dict:
    terms = [list(row) for row in f["result"]["expectations"]]
    terms[0][1] = -terms[0][1]
    return {**f, "result": {**f["result"], "expectations": terms}}


def _wrong_digest(f: dict) -> dict:
    if f["report"] is None:  # CSV reports carry no digest; corrupt the exit code
        return {**f, "code": 3}
    return {**f, "report": {**f["report"], "input_digest": "0" * 64}}


def _edit(key, fn):
    return lambda f: {**f, "result": {**f["result"], key: fn(f["result"][key])}}


MUTATIONS = {
    "spectra": [("shifted eigenvalue", _shift_eigenvalue),
                ("wrong multiplicity", _edit("multiplicities", lambda m: [m[0] + 1] + m[1:])),
                ("wrong input digest", _wrong_digest)],
    "prob": [("wrong probability", _edit("probability", lambda p: 1.0 - p + 1e-3))],
    "quantile": [("swapped probabilities", _swap_atoms)],
    "verify": [("biased sampler", _edit("empirical", lambda e: e[::-1] if e[0] != e[-1] else [x + 0.01 for x in e]))],
    "roundtrip": [("round trip off", _edit("identity_residual", lambda x: 1e-6))],
    "chsh-singlet": [("wrong CHSH sign", _flip_chsh_term)],
    "chsh-commuting": [("wrong CHSH sign", _flip_chsh_term),
                       ("wrong exit code", lambda f: {**f, "code": 1})],
}
