"""chsh-lattice: meet-based CHSH values and the boolean checks behind them.

A round holds three kinds of configuration at dims 4 and 8 (see MIX):
Tsirelson-optimal singlet settings tensored with an ancilla, random
non-commuting quadruples, and commuting quadruples drawn from one unitary.
Every operation evaluates the CHSH terms and value; a commuting quadruple
also builds joint propositions for each cross pair, checks the boolean
homomorphism on them, and restricts the common refinement to the fiber; a
non-commuting one must be refused a common refinement. Each round also
repeats six fixed commuting quadruples at near-eigenstates (leakage 1e-17
to 1e-5), on which the fiber functions can get negative-length cells.
"""

from __future__ import annotations

import math

import numpy as np

import hvsim
import oracle
import speed
from common import CELLS_OUTSIDE_UNIT, Op, Verdict
from inputs import (FIXED_ENTROPY, commuting_quadruple, noncommuting_quadruple,
                    singlet_quadruple, stream)

NAME = "chsh-lattice"
TAG = 2
KERNEL = speed.ROTATIONS  # time goes to hvsim's Jacobi solver
# (kind, dim, count) per round; the mix puts op_ms_p50 and op_ms_p90 in the
# lower part of a group of similar operations rather than at a group's edge
MIX = (("singlet", 4, 3), ("noncommuting", 4, 3), ("commuting", 4, 2),
       ("singlet", 8, 1), ("noncommuting", 8, 1), ("commuting", 8, 3))
NEAR_CASES = ((4, 1e-17), (4, 1e-14), (4, 1e-11), (4, 2e-8), (8, 2e-8), (4, 1e-5))  # (dim, leakage)
TSIRELSON = 2.0 * math.sqrt(2.0)


def _quadruple(rng: np.random.Generator, kind: str, n: int):
    if kind == "singlet":
        return singlet_quadruple(rng, n // 4)
    if kind == "noncommuting":
        return noncommuting_quadruple(rng, n)
    projectors, psi, _, _ = commuting_quadruple(rng, n)
    return projectors, psi


def _near_commuting(rng: np.random.Generator, n: int, leak: float):
    """Commuting quadruple at a joint eigenvector of its lowest sector, leaking
    into the next sector up."""
    projectors, _, u, bits = commuting_quadruple(rng, n)
    labels = (bits * (2 ** np.arange(4))[:, None]).sum(axis=0)
    order = np.argsort(labels, kind="stable")
    above = [c for c in order if labels[c] > labels[order[0]]]
    return projectors, u[:, order[0]] + leak * u[:, above[0]]


def _op(kind: str, projectors, psi: np.ndarray, fault_codes=frozenset()) -> Op:
    e1, e2, f1, f2 = projectors
    state = hvsim.PureState(psi)

    def run():
        cfg = hvsim.ChshConfig(e1, e2, f1, f2, state)
        out = {"terms": hvsim.chsh_terms(cfg), "value": hvsim.chsh_value(cfg)}
        if kind == "commuting":
            pairs = []
            for a in (e1, e2):
                for b in (f1, f2):
                    pa, pb = hvsim.joint_propositions(a, b)
                    pairs.append((pa, pb, hvsim.check_boolean_homomorphism(pa, pb)))
            quad = hvsim.common_refinement_quadruple(e1, e2, f1, f2)
            out["pairs"] = pairs
            out["fiber"] = hvsim.fiber_chsh_functions(quad, state)
        elif kind == "noncommuting":
            try:
                hvsim.common_refinement_quadruple(e1, e2, f1, f2)
                out["refused"] = False
            except hvsim.NotCommuting:
                out["refused"] = True
        return out

    def observe(raw) -> dict:
        f = {"terms": np.array(raw["terms"]), "value": raw["value"]}
        if "pairs" in raw:
            f["pair_ok"] = [ok for _, _, ok in raw["pairs"]]
            f["pair_projectors"] = [
                (hvsim.proposition_projector(pa), hvsim.proposition_projector(pb))
                for pa, pb, _ in raw["pairs"]
            ]
            fib = raw["fiber"]
            f["fiber_cuts"] = np.array(fib.cuts)
            f["fiber_signs"] = np.array(fib.signs, dtype=np.int64)
            f["fiber_value"] = fib.chsh_value()
            f["fiber_identity"] = fib.pointwise_identity_holds()
        if "refused" in raw:
            f["refused"] = raw["refused"]
        return f

    want_terms = oracle.chsh_terms(projectors, psi)
    want_value = oracle.chsh(want_terms)
    cross = [(a, b) for a in (e1, e2) for b in (f1, f2)]

    def judge(f: dict) -> list:
        v = Verdict()
        v.close(f["terms"], want_terms, 1e-8, "chsh-terms", "correlation expectations")
        v.close(f["value"], oracle.chsh(f["terms"]), 1e-12, "chsh-value", "chsh_value vs its terms")
        v.close(f["value"], want_value, 1e-8, "chsh-value", "chsh_value")
        if kind == "singlet":
            v.close(f["value"], TSIRELSON, 1e-6, "tsirelson", "singlet CHSH value")
        elif kind == "noncommuting":
            v.require(f.get("refused") is True, "refinement", "non-commuting quadruple was not refused")
        else:
            v.require(f["value"] <= 2.0 + 1e-9, "classical-bound", f"CHSH {f['value']!r} above 2")
            v.require(all(f["pair_ok"]), "homomorphism", "boolean homomorphism failed on a cross pair")
            for (a, b), (pa, pb) in zip(cross, f["pair_projectors"]):
                v.close(pa, a, 1e-8, "joint-propositions", "joint proposition projector")
                v.close(pb, b, 1e-8, "joint-propositions", "joint proposition projector")
            cuts, signs = f["fiber_cuts"], f["fiber_signs"]
            v.require(cuts[0] == 0.0 and cuts[-1] == 1.0, "fiber", "fiber cuts do not span (0, 1)")
            v.cells_in_unit_interval(list(zip(cuts[:-1], cuts[1:])), "fiber functions")
            combo = np.abs(signs[0, 0] - signs[0, 1]) + np.abs(signs[1, 0] + signs[1, 1])
            v.require(bool(np.all(combo == 2)) and f["fiber_identity"], "pointwise-identity",
                      "pointwise CHSH identity fails on a cell")
            integrals = (signs * np.diff(cuts)).sum(axis=2)
            v.close(integrals, want_terms, 1e-9, "fiber", "fiber integrals vs correlation terms")
            v.close(f["fiber_value"], f["value"], 1e-9, "fiber", "fiber CHSH vs operator CHSH")
        return v.failures

    return Op(kind, run, observe, judge, fault_codes)


def build_round(seed: int, index: int, workdir=None) -> list:
    rng = stream(seed, TAG, index)
    ops = []
    for kind, n, count in MIX:
        for _ in range(count):
            projectors, psi = _quadruple(rng, kind, n)
            ops.append(_op(kind, projectors, psi))
    fixed = stream(FIXED_ENTROPY, TAG)
    for n, leak in NEAR_CASES:
        projectors, psi = _near_commuting(fixed, n, leak)
        ops.append(_op("commuting", projectors, psi, frozenset({CELLS_OUTSIDE_UNIT})))
    return ops


def prepare_first(seed: int, workdir) -> None:
    """Write the first operation's projectors and state for the set-up probe."""
    kind, n, _ = MIX[0]
    projectors, psi = _quadruple(stream(seed, TAG, 0), kind, n)
    np.save(workdir / "projectors.npy", np.stack(projectors))
    np.save(workdir / "psi.npy", psi)


def _flip_term(f: dict) -> dict:
    terms = f["terms"].copy()
    terms[0, 1] = -terms[0, 1]
    return {**f, "terms": terms}


def _negative_cell(f: dict) -> dict:
    cuts = f["fiber_cuts"].copy()
    cuts[-2] = 1.0 + 2.2e-16
    return {**f, "fiber_cuts": cuts}


def _break_identity(f: dict) -> dict:
    signs = f["fiber_signs"].copy()
    signs[0, 1] = signs[0, 0]
    signs[1, 1] = -signs[1, 0]
    return {**f, "fiber_signs": signs}


MUTATIONS = {
    "singlet": [
        ("wrong CHSH sign", _flip_term),
        ("value below Tsirelson", lambda f: {**f, "value": f["value"] - 1e-3}),
    ],
    "noncommuting": [
        ("wrong CHSH sign", _flip_term),
        ("refinement admitted", lambda f: {**f, "refused": False}),
    ],
    "commuting": [
        ("wrong CHSH sign", _flip_term),
        ("homomorphism reported false", lambda f: {**f, "pair_ok": [False] + f["pair_ok"][1:]}),
        ("negative fiber cell", _negative_cell),
        ("broken pointwise identity", _break_identity),
        ("fiber value off", lambda f: {**f, "fiber_value": f["fiber_value"] + 1e-6}),
    ],
}
