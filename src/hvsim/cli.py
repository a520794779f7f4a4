"""Command-line harness: load a problem file, run experiments, emit reports.

Problem files are JSON with complex numbers as [re, im] pairs and matrices
row-major. Reports are JSON (or CSV tables) whose numeric payload is a pure
function of the input bytes and the seed, so identical runs are
byte-identical. Exit codes: 0 all checks passed, 1 a check failed, 2 bad
input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .bell import (
    HOMOMORPHISM_TOL,
    SECTOR_SNAP_TOL,
    PropositionQuadruple,
    _chsh_combination,
    _chsh_terms,
    _commutation,
    _joint_sectors,
    check_boolean_homomorphism,
    fiber_chsh_functions,
)
from .borel import BorelSet, Interval, PiecewiseAffineFunction
from .errors import HvError, LoadError, NotCommuting, NotHermitian
from .hidden import (
    WEIGHT_FLOOR,
    ClassicalObservable,
    compose,
    quantile_function,
    reduced_operator,
    sample,
)
from .linalg import (
    CLUSTER_TOL,
    COMMUTE_TOL,
    HERMITIAN_TOL,
    MEET_TOL,
    PROJECTOR_TOL,
    eigh,
    ensure_hermitian,
    ensure_projector,
    max_abs,
)
from .quantum import SNAP_TOL, PureState, functional_calculus, prob

# the ProblemFile table a name key refers to; the other keys (operator, e1..f2) name operators
_TABLES = {"state": "states", "borel": "borel_sets", "function": "functions"}
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0
CHSH_SLACK = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Overridable numeric tolerances; defaults are the library constants, except
    for the three checks only the harness makes (reconstruction, roundtrip, pushforward)."""

    hermitian_tol: float = HERMITIAN_TOL
    projector_tol: float = PROJECTOR_TOL
    cluster_tol: float = CLUSTER_TOL
    meet_tol: float = MEET_TOL
    commute_tol: float = COMMUTE_TOL
    snap_tol: float = SNAP_TOL
    weight_floor: float = WEIGHT_FLOOR
    reconstruction_tol: float = 1e-8
    roundtrip_tol: float = 1e-8
    pushforward_tol: float = 1e-10
    homomorphism_tol: float = HOMOMORPHISM_TOL
    sector_snap_tol: float = SECTOR_SNAP_TOL


@dataclass(frozen=True)
class ProblemFile:
    dimension: int
    tolerances: Tolerances
    operators: dict
    states: dict
    borel_sets: dict
    functions: dict
    experiments: list
    source: str
    digest: str


def _parse_complex_entry(entry, where: str) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise LoadError(f"{where}: complex entries must be [re, im] pairs")
    re, im = entry
    try:
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{where}: non-numeric complex entry {entry!r}") from exc


def _parse_operator(rows, dim: int, hermitian_tol: float, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise LoadError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise LoadError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex_entry(entry, where)
    try:
        return ensure_hermitian(out, hermitian_tol)
    except (NotHermitian, ValueError) as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _parse_state(components, dim: int, where: str) -> PureState:
    if not isinstance(components, list) or len(components) != dim:
        raise LoadError(f"{where}: expected {dim} components")
    vec = np.array([_parse_complex_entry(c, where) for c in components])
    try:
        return PureState(vec)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _parse_endpoint(value, where: str) -> float:
    if value is None:
        raise LoadError(f"{where}: interval endpoints must be numbers or '-inf'/'inf'")
    if isinstance(value, str):
        if value in ("-inf", "inf"):
            return float(value)
        raise LoadError(f"{where}: bad endpoint {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{where}: bad endpoint {value!r}") from exc


def _parse_borel(pieces, where: str) -> BorelSet:
    if not isinstance(pieces, list):
        raise LoadError(f"{where}: a Borel set is a list of interval objects")
    intervals = []
    for spec in pieces:
        if not isinstance(spec, dict):
            raise LoadError(f"{where}: intervals are objects with lo/hi/flags")
        try:
            intervals.append(
                Interval(
                    _parse_endpoint(spec.get("lo", "-inf"), where),
                    _parse_endpoint(spec.get("hi", "inf"), where),
                    bool(spec.get("lo_closed", False)),
                    bool(spec.get("hi_closed", False)),
                )
            )
        except ValueError as exc:
            raise LoadError(f"{where}: {exc}") from exc
    return BorelSet(tuple(intervals))


def _parse_function(spec, where: str) -> PiecewiseAffineFunction:
    if not isinstance(spec, dict):
        raise LoadError(f"{where}: functions are objects with breakpoints/pieces/breakpoint_values")
    try:
        return PiecewiseAffineFunction(
            tuple(float(x) for x in spec.get("breakpoints", [])),
            tuple((float(m), float(q)) for m, q in spec.get("pieces", [])),
            tuple(float(v) for v in spec.get("breakpoint_values", [])),
        )
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _read_source(source: str) -> tuple[bytes, str]:
    path = Path(source)
    if path.exists():
        return path.read_bytes(), str(path)
    from importlib import resources

    name = source if source.endswith(".json") else source + ".json"
    ref = resources.files("hvsim") / "fixtures" / name
    if ref.is_file():
        return ref.read_bytes(), f"hvsim:fixtures/{name}"
    raise LoadError(f"no such file or bundled fixture: {source}")


def _section(doc: dict, key: str, display: str, kind: type = dict):
    section = doc.get(key, kind())
    if not isinstance(section, kind):
        raise LoadError(f"{display}: {key!r} must be {'a list' if kind is list else 'an object'}")
    return section


def load_problem(source: str) -> ProblemFile:
    """Read and validate a problem file (path or bundled fixture name)."""
    raw, display = _read_source(source)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LoadError(f"{display}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise LoadError(f"{display}: top level must be an object")
    try:
        dim = int(doc["dimension"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"{display}: missing or bad 'dimension'") from exc
    if dim < 1:
        raise LoadError(f"{display}: dimension must be positive")

    tol_doc = _section(doc, "tolerances", display)
    known = {f.name for f in fields(Tolerances)}
    unknown = set(tol_doc) - known
    if unknown:
        raise LoadError(f"{display}: unknown tolerance keys {sorted(unknown)}")
    overrides = {}
    for key, value in tol_doc.items():
        try:
            overrides[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise LoadError(f"{display}: tolerance {key!r} is not a number: {value!r}") from exc
        # a NaN tolerance would pass every `defect > tol` check
        if not 0.0 <= overrides[key] < math.inf:
            raise LoadError(
                f"{display}: tolerance {key!r} must be finite and non-negative: {value!r}"
            )
        # eigh refuses a cluster_tol of 0; say so here, naming the file and the key
        if key == "cluster_tol" and overrides[key] == 0.0:
            raise LoadError(f"{display}: tolerance {key!r} must be positive: {value!r}")
    tolerances = replace(Tolerances(), **overrides)

    operators = {
        name: _parse_operator(rows, dim, tolerances.hermitian_tol, f"{display}: operator {name!r}")
        for name, rows in _section(doc, "operators", display).items()
    }
    states = {
        name: _parse_state(vec, dim, f"{display}: state {name!r}")
        for name, vec in _section(doc, "states", display).items()
    }
    borel_sets = {
        name: _parse_borel(spec, f"{display}: borel set {name!r}")
        for name, spec in _section(doc, "borel_sets", display).items()
    }
    functions = {
        name: _parse_function(spec, f"{display}: function {name!r}")
        for name, spec in _section(doc, "functions", display).items()
    }
    experiments = _section(doc, "experiments", display, list)
    problem = ProblemFile(
        dimension=dim,
        tolerances=tolerances,
        operators=operators,
        states=states,
        borel_sets=borel_sets,
        functions=functions,
        experiments=experiments,
        source=display,
        digest=hashlib.sha256(raw).hexdigest(),
    )
    for i, block in enumerate(experiments):
        if not isinstance(block, dict) or "kind" not in block:
            raise LoadError(f"{display}: experiment {i} needs a 'kind'")
        for key in (k for k in _NAME_KEYS if k in block):
            name = block[key]
            if not isinstance(name, str):
                raise LoadError(f"{display}: experiment {i} {key} must be a name, got {name!r}")
            if name not in getattr(problem, _TABLES.get(key, "operators")):
                raise LoadError(f"{display}: experiment {i} references unknown {key} {name!r}")
    return problem


def _named(problem: ProblemFile, key: str, name: str):
    table = _TABLES.get(key, "operators")
    store = getattr(problem, table)
    if name not in store:
        raise LoadError(f"unknown {table[:-1]} {name!r}")
    return store[name]


def _decompose(problem: ProblemFile, operator: str):
    tol = problem.tolerances
    matrix = _named(problem, "operator", operator)
    return eigh(matrix, cluster_tol=tol.cluster_tol, hermitian_tol=tol.hermitian_tol)


def _floats(a) -> list[float]:
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _borel_json(b: BorelSet) -> list:
    out = []
    for iv in b.intervals:
        lo = "-inf" if math.isinf(iv.lo) else iv.lo
        hi = "inf" if math.isinf(iv.hi) else iv.hi
        out.append({"lo": lo, "hi": hi, "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed})
    return out


# ---------------------------------------------------------------------------
# experiment runners


def run_spectra(problem: ProblemFile, operator: str) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    residual = max_abs(dec.operator() - problem.operators[operator])
    return {
        "kind": "spectra",
        "operator": operator,
        "eigenvalues": _floats(dec.eigenvalues),
        "multiplicities": list(dec.ranks),
        "projector_traces": [float(np.trace(p).real) for p in dec.projectors],
        "reconstruction_residual": residual,
        "checks": {"reconstruction_ok": residual <= tol.reconstruction_tol},
    }


def run_prob(problem: ProblemFile, operator: str, state: str, borel: str) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    h = _named(problem, "state", state)
    events = _named(problem, "borel", borel)
    value = prob(dec, h, events, snap_tol=tol.snap_tol)
    return {
        "kind": "prob",
        "operator": operator,
        "state": state,
        "borel": borel,
        "events": _borel_json(events),
        "probability": value,
        "checks": {"in_unit_interval": 0.0 <= value <= 1.0},
    }


def run_quantile(problem: ProblemFile, operator: str, state: str) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    h = _named(problem, "state", state)
    q = quantile_function(dec, h, weight_floor=tol.weight_floor)
    atom_probs = [
        prob(dec, h, BorelSet.point(float(v)), snap_tol=tol.snap_tol) for v in q.values
    ]
    defect = max(
        abs(float(l) - p) for l, p in zip(q.lengths(), atom_probs)
    )
    return {
        "kind": "quantile",
        "operator": operator,
        "state": state,
        "cuts": _floats(q.cuts),
        "values": _floats(q.values),
        "atom_probabilities": atom_probs,
        "pushforward_defect": defect,
        "checks": {"pushforward_ok": defect <= tol.pushforward_tol},
    }


def run_verify(problem: ProblemFile, operator: str, state: str, samples: int, seed: int) -> dict:
    dec = _decompose(problem, operator)
    h = _named(problem, "state", state)
    report = sample(ClassicalObservable(dec), h, samples, seed, observable_id=operator,
                    weight_floor=problem.tolerances.weight_floor)
    budgets = 4.0 * np.sqrt(report.predicted * (1.0 - report.predicted) / float(samples))
    deviations = np.abs(report.empirical - report.predicted)
    within = bool(np.all(deviations <= budgets))
    return {
        "kind": "verify",
        "operator": operator,
        "state": state,
        "samples": int(samples),
        "seed": int(seed),
        "outcomes": _floats(report.outcomes),
        "predicted": _floats(report.predicted),
        "empirical": _floats(report.empirical),
        "deviations": _floats(deviations),
        "budgets": _floats(budgets),
        "max_abs_deviation": report.max_abs_deviation,
        "chi_square": report.chi_square,
        "checks": {"within_budget": within},
    }


def run_roundtrip(problem: ProblemFile, operator: str, function: str | None) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    obs = ClassicalObservable(dec)
    identity_residual = max_abs(
        reduced_operator(obs, snap_tol=tol.snap_tol) - problem.operators[operator]
    )
    result = {
        "kind": "roundtrip",
        "operator": operator,
        "function": function,
        "identity_residual": identity_residual,
        "checks": {"identity_roundtrip_ok": identity_residual <= tol.roundtrip_tol},
    }
    if function is not None:
        g = _named(problem, "function", function)
        target = functional_calculus(dec, g)
        post_residual = max_abs(
            reduced_operator(compose(g, obs), snap_tol=tol.snap_tol) - target
        )
        result["post_residual"] = post_residual
        result["checks"]["post_roundtrip_ok"] = post_residual <= tol.roundtrip_tol
    return result


def run_chsh(problem: ProblemFile, e1: str, e2: str, f1: str, f2: str, state: str) -> dict:
    """CHSH report; the four projectors are validated here, once, at the file's projector_tol."""
    tol = problem.tolerances
    names = {"e1": e1, "e2": e2, "f1": f1, "f2": f2}
    projectors = {}
    for key, name in names.items():
        matrix = _named(problem, "operator", name)
        try:
            projectors[key] = ensure_projector(matrix, tol.projector_tol)
        except (NotHermitian, ValueError) as exc:
            raise LoadError(
                f"{problem.source}: operator {name!r} as {key} is not a projector: {exc} "
                f"(tolerance 'projector_tol')"
            ) from exc
    h = _named(problem, "state", state)
    ps = tuple(projectors.values())
    terms = _chsh_terms(ps[:2], ps[2:], h.vector, tol.meet_tol)
    value = _chsh_combination(terms)

    pair_names = [("e1", "f1"), ("e1", "f2"), ("e2", "f1"), ("e2", "f2")]
    commuting = _commutation(projectors, tol.commute_tol)
    cross_commuting = {f"{a}{b}": commuting[a, b] for a, b in pair_names}
    result = {
        "kind": "chsh",
        "projectors": names,
        "state": state,
        "expectations": [[terms[i, j] for j in range(2)] for i in range(2)],
        "chsh_value": value,
        "cross_pairs_commute": cross_commuting,
        "checks": {"classical_bound_respected": value <= 2.0 + CHSH_SLACK},
    }

    if all(cross_commuting.values()):
        consistent = True
        for a, b in pair_names:
            pair = {a: projectors[a], b: projectors[b]}
            prop_a, prop_b = _joint_sectors(pair, {(a, b): commuting[a, b]}, tol.sector_snap_tol)
            consistent &= check_boolean_homomorphism(
                prop_a, prop_b, tol=tol.homomorphism_tol, snap_tol=tol.snap_tol
            )
        result["checks"]["joint_propositions_consistent"] = bool(consistent)

    try:
        props = _joint_sectors(projectors, commuting, tol.sector_snap_tol)
    except NotCommuting as exc:
        result["proposition_intersections_admitted"] = False
        result["admission_failure"] = str(exc)
    else:
        result["proposition_intersections_admitted"] = True
        functions = fiber_chsh_functions(PropositionQuadruple(*props), h, snap_tol=tol.snap_tol)
        integral_value = functions.chsh_value()
        result["fiber_chsh_value"] = integral_value
        result["checks"]["pointwise_identity_ok"] = functions.pointwise_identity_holds()
        result["checks"]["fiber_integrals_match"] = (
            abs(integral_value - value) <= 1e-9
        )
    return result


# ---------------------------------------------------------------------------
# dispatch and output

@dataclass(frozen=True)
class Command:
    """One `hv` command: its runner, its help line and the block keys it reads. Each
    name key is also its `--<key>` flag; `names` are required, `optional` are not.
    Each of `settings` is an integer from its flag, else the block, else its default."""

    run: Callable[..., dict]
    help: str
    names: tuple[str, ...]
    optional: tuple[str, ...] = ()
    settings: tuple[str, ...] = ()


COMMANDS = {
    "spectra": Command(run_spectra, "eigenvalues, multiplicities, reconstruction residual",
                       ("operator",)),
    "prob": Command(run_prob, "probability of a Borel event at a state",
                    ("operator", "state", "borel")),
    "quantile": Command(run_quantile, "fiber quantile step of an observable at a state",
                        ("operator", "state")),
    "verify": Command(run_verify, "Monte Carlo check that sampling matches the quantum law",
                      ("operator", "state"), settings=("samples", "seed")),
    "roundtrip": Command(run_roundtrip, "reduce the fiber observable back to its operator",
                         ("operator",), optional=("function",)),
    "chsh": Command(run_chsh, "meet-based CHSH value and boolean-algebra diagnostics",
                    ("e1", "e2", "f1", "f2", "state")),
}
_NAME_KEYS = tuple(dict.fromkeys(k for c in COMMANDS.values() for k in c.names + c.optional))


def _experiment_blocks(problem: ProblemFile, command: str, args: argparse.Namespace) -> list[dict]:
    """Experiments to run: the flag-specified one, else the file's matching blocks."""
    spec = COMMANDS[command]
    given = {key: getattr(args, key) for key in spec.names + spec.optional}
    if any(v is not None for v in given.values()):
        missing = sorted(k for k in spec.names if given[k] is None)
        if missing:
            raise LoadError(f"{command}: missing {', '.join('--' + m for m in missing)}")
        return [{"kind": command, **given}]
    blocks = [b for b in problem.experiments if b.get("kind") == command]
    if not blocks:
        raise LoadError(f"no {command!r} experiment in {problem.source} and no names given")
    for block in blocks:
        absent = sorted(k for k in spec.names if k not in block)
        if absent:
            raise LoadError(f"{command} experiment block lacks {', '.join(absent)}")
    return blocks


def _run_block(problem: ProblemFile, block: dict, args: argparse.Namespace, seed: int) -> dict:
    spec = COMMANDS[block["kind"]]
    kwargs = {key: block.get(key) for key in spec.names + spec.optional}
    defaults = {"samples": DEFAULT_SAMPLES, "seed": seed}
    for key in spec.settings:
        candidates = (getattr(args, key), block.get(key), defaults[key])
        value = next(v for v in candidates if v is not None)
        try:
            kwargs[key] = int(value)
        except (TypeError, ValueError) as exc:
            raise LoadError(f"{block['kind']} {key} must be an integer, got {value!r}") from exc
    return spec.run(problem, **kwargs)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("HV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise LoadError(f"HV_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _csv_rows(results: list[dict]) -> list[list]:
    rows: list[list] = []
    for idx, result in enumerate(results):
        if result["kind"] == "verify":
            rows.append(["result", "outcome", "predicted", "empirical", "deviation", "budget"])
            for k, outcome in enumerate(result["outcomes"]):
                rows.append(
                    [
                        idx,
                        repr(outcome),
                        repr(result["predicted"][k]),
                        repr(result["empirical"][k]),
                        repr(result["deviations"][k]),
                        repr(result["budgets"][k]),
                    ]
                )
        else:
            rows.append(["result", "key", "value"])
            for key, value in result.items():
                if key == "checks":
                    for name, flag in value.items():
                        rows.append([idx, f"check:{name}", flag])
                else:
                    rows.append([idx, key, json.dumps(value)])
    return rows


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(_csv_rows(report["results"]))
        text = buffer.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hv",
        description="Run hidden-variable model experiments from a problem file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--input", required=True, help="problem file path or bundled fixture name")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: HV_SEED, then 0)")
        if "samples" in spec.settings:
            p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for key in spec.names + spec.optional:
            p.add_argument("--" + key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        problem = load_problem(args.input)
        seed = _resolve_seed(args)
        blocks = _experiment_blocks(problem, args.command, args)
        results = [_run_block(problem, block, args, seed) for block in blocks]
    except (HvError, ValueError) as exc:
        print(f"hv: error: {exc}", file=sys.stderr)
        return 2

    passed = all(all(r["checks"].values()) for r in results)
    report = {
        "tool": "hv",
        "version": __version__,
        "command": args.command,
        "input": problem.source,
        "input_digest": problem.digest,
        "seed": seed,
        "results": results,
        "passed": passed,
        "duration_seconds": time.perf_counter() - started,
    }
    _emit(report, args)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
