"""fiber-sampling: quantile observables, events, fiber integrals and sampling.

A round draws one planned observable at each dimension 2..8 and four generic
states for it; each (observable, state) pair is one operation. The
observable is decomposed once, while the round is prepared, so the timed
operations run through `hidden`, `quantum` and `borel` and barely touch
`linalg`. Each round also repeats seven fixed near-eigenstates (leakage
1e-17 to 1e-5), on which `fiber_subset` can return cells past 1.
"""

from __future__ import annotations

import numpy as np

import hvsim
import oracle
import speed
from common import CELLS_OUTSIDE_UNIT, Op, Verdict
from inputs import (FIXED_ENTROPY, event_at_most, event_points, event_union,
                    near_eigenstate, planned_operator, random_map, random_vector, stream)

NAME = "fiber-sampling"
TAG = 1
KERNEL = speed.INTERPRETER  # time goes to vectorised sampling and Python-level code
DIMS = tuple(range(2, 9))
STATES_PER_OBSERVABLE = 4
DRAWS = 100_000
NEAR_CASES = ((2, 1e-17), (3, 1e-15), (4, 1e-13), (5, 1e-11), (6, 1e-9), (7, 1e-7), (8, 1e-5))
WEIGHT_FLOOR = 1e-12  # hvsim's default quantile_function floor


def _borel(spec) -> "hvsim.BorelSet":
    return hvsim.BorelSet(tuple(hvsim.Interval(*iv) for iv in spec))


def _function(spec) -> "hvsim.PiecewiseAffineFunction":
    return hvsim.PiecewiseAffineFunction(*spec)


class Observable:
    """A planned operator, its hvsim decomposition and its numpy spectrum."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.planned = planned_operator(rng, n)
        self.dec = hvsim.eigh(self.planned.matrix)
        self.obs = hvsim.ClassicalObservable(self.dec)
        self.spectrum = oracle.spectrum(self.planned.matrix)
        v = Verdict()
        tol = 1e-9 * max(1.0, self.planned.scale)
        v.require(self.dec.ranks == self.planned.ranks, "decomposition",
                  f"multiplicities {self.dec.ranks} != planned {self.planned.ranks}")
        if self.dec.ranks == self.planned.ranks:
            v.close(self.dec.eigenvalues, self.planned.values, tol, "decomposition", "eigenvalues")
        self.failures = v.failures


def _op(rng: np.random.Generator, ob: Observable, psi: np.ndarray, fault_codes=frozenset()) -> Op:
    values = ob.planned.values
    event_specs = (event_union(rng, values), event_at_most(rng, values), event_points(rng, values))
    map_spec = random_map(rng, values)
    seed = int(rng.integers(0, 2**31))
    state = hvsim.PureState(psi)
    events = [_borel(s) for s in event_specs]
    g = _function(map_spec)
    identity = hvsim.PiecewiseAffineFunction.identity()
    dec, obs = ob.dec, ob.obs

    def run():
        q = hvsim.quantile_function(dec, state)
        probs = [hvsim.prob(dec, state, ev) for ev in events]
        mean = hvsim.expectation(dec, state)
        ints = (hvsim.fiber_integral(identity, obs, state), hvsim.fiber_integral(g, obs, state))
        subsets = [hvsim.fiber_subset(hvsim.proposition_from(dec, ev), state) for ev in events]
        report = hvsim.sample(obs, state, DRAWS, seed)
        reduced = hvsim.reduced_operator(hvsim.compose(g, obs))
        return q, probs, mean, ints, subsets, report, reduced

    def observe(raw) -> dict:
        q, probs, mean, ints, subsets, report, reduced = raw
        return {
            "quantile_values": np.array(q.values), "quantile_cuts": np.array(q.cuts),
            "probs": np.array(probs), "mean": mean,
            "int_identity": ints[0], "int_map": ints[1],
            "subset_cells": [[(iv.lo, iv.hi) for iv in s.intervals] for s in subsets],
            "sample_outcomes": np.array(report.outcomes),
            "sample_predicted": np.array(report.predicted),
            "sample_empirical": np.array(report.empirical),
            "reduced": np.array(reduced),
        }

    # expected values, from numpy and the specs only
    weights = ob.spectrum.weights(psi)
    kept = weights > WEIGHT_FLOOR
    want_values = values[kept]
    want_cuts = np.concatenate(([0.0], np.cumsum(weights[kept])))
    want_cuts[-1] = 1.0
    want_probs = np.array([
        sum(w for v, w in zip(ob.spectrum.values, weights) if oracle.event_contains(s, float(v)))
        for s in event_specs
    ])
    g_of_a = ob.spectrum.apply(map_spec)
    want_mean = oracle.expect(ob.planned.matrix, psi)
    want_map = oracle.expect(g_of_a, psi)
    scale = max(1.0, ob.planned.scale)

    def judge(f: dict) -> list:
        v = Verdict()
        v.failures.extend(ob.failures)
        v.close(f["quantile_values"], want_values, 1e-9 * scale, "quantile", "quantile values")
        v.close(f["quantile_cuts"], want_cuts, 1e-9, "quantile", "quantile cuts")
        v.require(np.all(np.diff(f["quantile_cuts"]) > 0), "quantile", "quantile cuts not increasing")
        v.close(f["probs"], want_probs, 1e-9, "prob", "event probabilities")
        v.close(f["mean"], want_mean, 1e-9 * scale, "expectation", "expectation")
        v.close(f["int_identity"], want_mean, 1e-9 * scale, "fiber-integral", "identity integral")
        v.close(f["int_map"], want_map, 1e-9 * scale, "fiber-integral", "map integral")
        for k, cells in enumerate(f["subset_cells"]):
            v.close(sum(hi - lo for lo, hi in cells), want_probs[k], 1e-9, "fiber-subset",
                    f"fiber subset {k} measure")
            v.cells_in_unit_interval(cells, f"fiber subset {k}")
        v.close(f["sample_outcomes"], want_values, 1e-9 * scale, "sample", "sample outcomes")
        v.close(f["sample_predicted"], np.diff(want_cuts), 1e-9, "sample", "sample predictions")
        emp = f["sample_empirical"]
        v.require(abs(float(np.sum(emp)) - 1.0) <= 1e-12, "sample", "frequencies do not sum to 1")
        if emp.shape == want_values.shape:
            over = np.abs(emp - np.diff(want_cuts)) - oracle.sample_budget(np.diff(want_cuts), DRAWS)
            v.require(np.all(over <= 0), "sample", f"frequency over budget by {over.max():.3e}")
        v.close(f["reduced"], g_of_a, 1e-8 * scale, "reduced-operator", "reduced operator vs g(A)")
        return v.failures

    return Op("fiber", run, observe, judge, fault_codes)


def build_round(seed: int, index: int, workdir=None) -> list:
    rng = stream(seed, TAG, index)
    ops = []
    for n in DIMS:
        ob = Observable(rng, n)
        for _ in range(STATES_PER_OBSERVABLE):
            ops.append(_op(rng, ob, random_vector(rng, n)))
    fixed = stream(FIXED_ENTROPY, TAG)
    for n, leak in NEAR_CASES:
        ob = Observable(fixed, n)
        k = int(fixed.integers(0, len(ob.planned.values) - 1))
        psi = near_eigenstate(fixed, ob.planned, k, leak)
        ops.append(_op(fixed, ob, psi, frozenset({CELLS_OUTSIDE_UNIT})))
    return ops


def prepare_first(seed: int, workdir) -> None:
    """Write the first operation's operator and state for the set-up probe."""
    rng = stream(seed, TAG, 0)
    np.save(workdir / "matrix.npy", planned_operator(rng, DIMS[0]).matrix)
    np.save(workdir / "psi.npy", random_vector(rng, DIMS[0]))


def _swap_extremes(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    i, j = int(np.argmin(a)), int(np.argmax(a))
    a[i], a[j] = a[j], a[i]
    return a


def _shift_first(a: np.ndarray, by: float) -> np.ndarray:
    a = a.astype(float).copy()
    a.flat[0] += by
    return a


MUTATIONS = {
    "fiber": [
        ("shifted eigenvalue", lambda f: {**f, "quantile_values": _shift_first(f["quantile_values"], 1e-6)}),
        ("swapped probabilities", lambda f: {**f, "sample_predicted": _swap_extremes(f["sample_predicted"])}),
        ("wrong event probability", lambda f: {**f, "probs": 1.0 - f["probs"] + 1e-3}),
        ("biased sampler", lambda f: {**f, "sample_empirical": _swap_extremes(f["sample_empirical"])}),
        ("wrong expectation", lambda f: {**f, "mean": f["mean"] + 1e-6}),
        ("wrong map integral", lambda f: {**f, "int_map": -f["int_map"] - 1e-3}),
        ("cell past 1", lambda f: {**f, "subset_cells": [[(0.5, 1.0 + 2.2e-16)]] + f["subset_cells"][1:]}),
        ("wrong reduced operator", lambda f: {**f, "reduced": f["reduced"] + 1e-6 * np.eye(len(f["reduced"]))}),
    ],
}
