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
    MEET_TOL_MAX,
    PROJECTOR_TOL,
    eigh,
    ensure_hermitian,
    ensure_projector,
    max_abs,
)
from .quantum import SNAP_TOL, PureState, functional_calculus, prob

# the ProblemFile table a name key refers to; the other keys (operator, e1..f2) name operators
_TABLES = {"state": "states", "borel": "borel_sets", "function": "functions"}
_NUMBER_TYPES = frozenset((int, float))  # the Python types json gives a number; bool is neither
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


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool (float() and int() would take 2.9 or true)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool (float() would take true or "1e-6")."""
    return type(value) in _NUMBER_TYPES


def _to_float(value) -> float:
    """A JSON number as a float; an int too large for one becomes inf with its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _numbers(value, shape: tuple, where: str) -> np.ndarray:
    """A rectangular nested list of JSON numbers as a float64 array of the given shape,
    where a None length is free; numbers read as `_is_number` and `_to_float` say."""
    a = np.array(value, dtype=object)
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        dims = " x ".join("n" if n is None else str(n) for n in shape)
        raise LoadError(f"{where}: expected a nested list of numbers of shape {dims}")
    if not _NUMBER_TYPES.issuperset(map(type, a.flat)):
        bad = next(v for v in a.flat if not _is_number(v))
        raise LoadError(f"{where}: entries must be JSON numbers, got {bad!r}")
    try:
        return a.astype(np.float64)
    except OverflowError:  # an int past float range, which _to_float reads as inf
        return np.fromiter(map(_to_float, a.flat), np.float64, a.size).reshape(a.shape)


def _parse_operator(rows, dim: int, hermitian_tol: float, where: str) -> np.ndarray:
    pairs = _numbers(rows, (dim, dim, 2), where)
    try:
        return ensure_hermitian(pairs.view(np.complex128)[..., 0], hermitian_tol)
    except (NotHermitian, ValueError) as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _parse_state(components, dim: int, where: str) -> PureState:
    pairs = _numbers(components, (dim, 2), where)
    try:
        return PureState(pairs.view(np.complex128)[:, 0])
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _parse_endpoint(value, where: str) -> float:
    if value in ("-inf", "inf"):
        return float(value)
    if not _is_number(value):
        raise LoadError(
            f"{where}: interval endpoints must be numbers or '-inf'/'inf', got {value!r}"
        )
    return _to_float(value)


def _parse_flag(spec: dict, key: str, where: str) -> bool:
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise LoadError(f"{where}: {key!r} must be true or false, got {value!r}")
    return value


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
                    _parse_flag(spec, "lo_closed", where),
                    _parse_flag(spec, "hi_closed", where),
                )
            )
        except ValueError as exc:
            raise LoadError(f"{where}: {exc}") from exc
    return BorelSet(tuple(intervals))


def _parse_function(spec, where: str) -> PiecewiseAffineFunction:
    if not isinstance(spec, dict):
        raise LoadError(f"{where}: functions are objects with breakpoints/pieces/breakpoint_values")
    shapes = {"breakpoints": (None,), "pieces": (None, 2), "breakpoint_values": (None,)}
    lists = [_numbers(spec.get(key, []), shape, f"{where} {key}") for key, shape in shapes.items()]
    try:
        return PiecewiseAffineFunction(*lists)
    except ValueError as exc:
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
    dim = doc.get("dimension")
    if not _is_int(dim):
        raise LoadError(f"{display}: missing or bad 'dimension'")
    if dim < 1:
        raise LoadError(f"{display}: dimension must be positive")

    tol_doc = _section(doc, "tolerances", display)
    known = {f.name for f in fields(Tolerances)}
    unknown = set(tol_doc) - known
    if unknown:
        raise LoadError(f"{display}: unknown tolerance keys {sorted(unknown)}")
    overrides = {}
    for key, value in tol_doc.items():
        if not _is_number(value):
            raise LoadError(f"{display}: tolerance {key!r} is not a number: {value!r}")
        overrides[key] = _to_float(value)
        # a NaN tolerance would pass every `defect > tol` check
        if not 0.0 <= overrides[key] < math.inf:
            raise LoadError(
                f"{display}: tolerance {key!r} must be finite and non-negative: {value!r}"
            )
        # eigh refuses a cluster_tol of 0, and the meets a meet_tol outside
        # (0, MEET_TOL_MAX]; say so here, naming the file and the key
        if key == "cluster_tol" and overrides[key] == 0.0:
            raise LoadError(f"{display}: tolerance {key!r} must be positive: {value!r}")
        if key == "meet_tol" and not 0.0 < overrides[key] <= MEET_TOL_MAX:
            raise LoadError(f"{display}: tolerance {key!r} must be in "
                            f"(0, 1 - 1/sqrt 2 = {MEET_TOL_MAX:.4g}]: {value!r}")
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
        _check_block(problem, block, f"{display}: experiment {i}")
    return problem


def _decompose(problem: ProblemFile, operator: str):
    return eigh(problem.operators[operator], cluster_tol=problem.tolerances.cluster_tol)


def _floats(a) -> list[float]:
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _borel_json(b: BorelSet) -> list:
    out = []
    for iv in b.intervals:
        lo = "-inf" if math.isinf(iv.lo) else iv.lo
        hi = "inf" if math.isinf(iv.hi) else iv.hi
        out.append({"lo": lo, "hi": hi, "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed})
    return out


def _residual_ok(residual: float, tol: float, target: np.ndarray) -> bool:
    """A residual against `target` within `tol` times max(1, max|target|), as `_jacobi` scales."""
    return residual <= tol * max(1.0, max_abs(target))


# ---------------------------------------------------------------------------
# experiment runners


def run_spectra(problem: ProblemFile, operator: str) -> dict:
    tol = problem.tolerances
    a = problem.operators[operator]
    dec = _decompose(problem, operator)
    residual = max_abs(dec.operator() - a)
    return {
        "eigenvalues": _floats(dec.eigenvalues),
        "multiplicities": list(dec.ranks),
        "projector_traces": [float(np.trace(p).real) for p in dec.projectors],
        "reconstruction_residual": residual,
        "checks": {"reconstruction_ok": _residual_ok(residual, tol.reconstruction_tol, a)},
    }


def run_prob(problem: ProblemFile, operator: str, state: str, borel: str) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    h = problem.states[state]
    events = problem.borel_sets[borel]
    value = prob(dec, h, events, snap_tol=tol.snap_tol)
    return {
        "events": _borel_json(events),
        "probability": value,
        "checks": {"in_unit_interval": 0.0 <= value <= 1.0},
    }


def run_quantile(problem: ProblemFile, operator: str, state: str) -> dict:
    tol = problem.tolerances
    dec = _decompose(problem, operator)
    h = problem.states[state]
    q = quantile_function(dec, h, weight_floor=tol.weight_floor)
    atom_probs = [prob(dec, h, BorelSet.point(float(v)), snap_tol=tol.snap_tol) for v in q.values]
    defect = max(abs(float(l) - p) for l, p in zip(q.lengths(), atom_probs))
    return {
        "cuts": _floats(q.cuts),
        "values": _floats(q.values),
        "atom_probabilities": atom_probs,
        "pushforward_defect": defect,
        "checks": {"pushforward_ok": defect <= tol.pushforward_tol},
    }


def run_verify(problem: ProblemFile, operator: str, state: str, samples: int, seed: int) -> dict:
    dec = _decompose(problem, operator)
    h = problem.states[state]
    report = sample(ClassicalObservable(dec), h, samples, seed, observable_id=operator,
                    weight_floor=problem.tolerances.weight_floor)
    budgets = 4.0 * np.sqrt(report.predicted * (1.0 - report.predicted) / float(samples))
    deviations = np.abs(report.empirical - report.predicted)
    within = bool(np.all(deviations <= budgets))
    return {
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
    a = problem.operators[operator]
    dec = _decompose(problem, operator)
    obs = ClassicalObservable(dec)
    identity_residual = max_abs(reduced_operator(obs, snap_tol=tol.snap_tol) - a)
    result = {
        "identity_residual": identity_residual,
        "checks": {"identity_roundtrip_ok": _residual_ok(identity_residual, tol.roundtrip_tol, a)},
    }
    if function is not None:
        g = problem.functions[function]
        if not all(math.isfinite(g(lam)) for lam in dec.eigenvalues):
            raise LoadError(f"{problem.source}: function {function!r} is not finite on the "
                            f"spectrum of operator {operator!r}")
        target = functional_calculus(dec, g)
        residual = max_abs(reduced_operator(compose(g, obs), snap_tol=tol.snap_tol) - target)
        result["post_residual"] = residual
        result["checks"]["post_roundtrip_ok"] = _residual_ok(residual, tol.roundtrip_tol, target)
    return result


def run_chsh(problem: ProblemFile, e1: str, e2: str, f1: str, f2: str, state: str) -> dict:
    """CHSH report; the four projectors are validated here, once, at the file's projector_tol."""
    tol = problem.tolerances
    projectors = {}
    for key, name in {"e1": e1, "e2": e2, "f1": f1, "f2": f2}.items():
        try:
            projectors[key] = ensure_projector(problem.operators[name], tol.projector_tol)
        except (NotHermitian, ValueError) as exc:
            raise LoadError(
                f"{problem.source}: operator {name!r} as {key} is not a projector: {exc} "
                f"(tolerance 'projector_tol')"
            ) from exc
    h = problem.states[state]
    ps = tuple(projectors.values())
    terms = _chsh_terms(ps[:2], ps[2:], h.vector, tol.meet_tol)
    value = _chsh_combination(terms)

    pair_names = [("e1", "f1"), ("e1", "f2"), ("e2", "f1"), ("e2", "f2")]
    commuting = _commutation(projectors, tol.commute_tol)
    cross_commuting = {f"{a}{b}": commuting[a, b] for a, b in pair_names}
    result = {
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
        result["checks"]["fiber_integrals_match"] = abs(integral_value - value) <= CHSH_SLACK
    return result


# ---------------------------------------------------------------------------
# dispatch and output

@dataclass(frozen=True)
class Command:
    """One `hv` command: its runner, its help line and the block keys it reads. Each
    name key is also its `--<key>` flag and a key of every result; `names` are required,
    `optional` are not. Each of `settings` is an integer from its flag, else the block,
    else its default, and is a key of every result too. A runner returns only what it
    computes; `_run_block` puts the `kind`, the names and the settings in front."""

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
_SETTINGS = tuple(dict.fromkeys(k for c in COMMANDS.values() for k in c.settings))


def _check_block(problem: ProblemFile, block, where: str, dash: str = "") -> None:
    """Check an experiment block, from the file or the name flags, where it enters.
    `where` starts each message; `dash` precedes the missing names ("--" for flags)."""
    if not isinstance(block, dict) or "kind" not in block:
        raise LoadError(f"{where} needs a 'kind'")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in COMMANDS:
        raise LoadError(f"{where} kind {kind!r} is not one of {', '.join(COMMANDS)}")
    for key in (k for k in _NAME_KEYS if k in block):
        name = block[key]
        if not isinstance(name, str):
            raise LoadError(f"{where} {key} must be a name, got {name!r}")
        if name not in getattr(problem, _TABLES.get(key, "operators")):
            raise LoadError(f"{where} {kind} references unknown {key} {name!r}")
    missing = sorted(k for k in COMMANDS[kind].names if k not in block)
    if missing:
        raise LoadError(f"{where} {kind}: missing {', '.join(dash + k for k in missing)}")
    for key in (k for k in _SETTINGS if k in block):
        if not _is_int(block[key]):
            raise LoadError(f"{where} {kind} {key} must be an integer, got {block[key]!r}")


def _experiment_blocks(problem: ProblemFile, command: str, args: argparse.Namespace) -> list[dict]:
    """Experiments to run: the one the name flags give, else the file's blocks of that kind."""
    spec = COMMANDS[command]
    keys = spec.names + spec.optional
    given = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if given:
        block = {"kind": command, **given}
        _check_block(problem, block, f"{problem.source}:", "--")
        return [block]
    blocks = [b for b in problem.experiments if b["kind"] == command]
    if not blocks:
        raise LoadError(f"no {command!r} experiment in {problem.source} and no names given")
    return blocks


def _run_block(problem: ProblemFile, block: dict, args: argparse.Namespace, seed: int) -> dict:
    spec = COMMANDS[block["kind"]]
    kwargs = {key: block.get(key) for key in spec.names + spec.optional}
    defaults = {"samples": DEFAULT_SAMPLES, "seed": seed}
    for key in spec.settings:
        candidates = (getattr(args, key), block.get(key), defaults[key])
        kwargs[key] = next(v for v in candidates if v is not None)
    return {"kind": block["kind"], **kwargs, **spec.run(problem, **kwargs)}


def _resolve_seed(args: argparse.Namespace) -> int:
    """--seed, else HV_SEED, else 0; a negative one is refused whatever the command."""
    source, seed = "--seed", args.seed
    if seed is None:
        source, env = "HV_SEED", os.environ.get("HV_SEED", str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError as exc:
            raise LoadError(f"HV_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise LoadError(f"{source}: seed must be a non-negative integer, got {seed}")
    return seed


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
        passed = all(all(r["checks"].values()) for r in results)
        _emit({
            "tool": "hv",
            "version": __version__,
            "command": args.command,
            "input": problem.source,
            "input_digest": problem.digest,
            "seed": seed,
            "results": results,
            "passed": passed,
            "duration_seconds": time.perf_counter() - started,
        }, args)
    except (HvError, ValueError, OSError) as exc:  # OSError: unreadable input, unwritable --out
        print(f"hv: error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
