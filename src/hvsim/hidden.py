"""The deterministic model underneath the quantum statistics.

Every state carries one fiber, the open interval (0, 1) with Lebesgue
measure. An observable restricted to a fiber is the quantile (generalized
inverse) of the outcome distribution at that state, so pushing the uniform
measure through it reproduces the quantum probabilities exactly. The
quotient maps go both ways: propositions map to projectors, and classical
observables reduce back to the self-adjoint operator they came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .borel import BorelSet, Interval, PiecewiseAffineFunction, compose_functions, preimage
from .errors import DimensionMismatch, OutOfDomain
from .linalg import SpectralDecomposition, _readonly, max_abs
from .quantum import (RAY_TOL, SNAP_TOL, PureState, _event_projectors, _event_table,
                      spectral_projector)

WEIGHT_FLOOR = 1e-12
# how far a sample report's empirical frequencies may sum from 1
FREQUENCY_SUM_TOL = 1e-12
# observables_confusion_equivalent's default: the max-norm distance of the reduced operators
CONFUSION_TOL = 1e-8


def _check_cuts(cuts: np.ndarray) -> None:
    """Raise ValueError unless cuts run from exactly 0 to exactly 1, strictly increasing."""
    if cuts[0] != 0.0 or cuts[-1] != 1.0:
        raise ValueError("cuts must start at 0 and end at 1")
    if not np.all(np.diff(cuts) > 0):
        raise ValueError("cuts must be strictly increasing")


def _fiber_partition(weights, weight_floor: float = WEIGHT_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the weights above weight_floor and the cuts of their cells on (0, 1).

    The kept weights are renormalized, so the cuts start at exactly 0, end at
    exactly 1 and strictly increase; a cell rounding leaves empty is dropped.
    """
    kept = np.flatnonzero(weights > weight_floor)
    if not kept.size:
        raise ValueError(f"no weight exceeds weight_floor {weight_floor:.1e}")
    running = np.cumsum(weights[kept])
    # dividing by the last running sum keeps every cut in [0, 1] and ends at 1
    cuts = np.concatenate(([0.0], running / running[-1]))
    cell = np.diff(cuts) > 0
    return kept[cell], np.concatenate(([0.0], cuts[1:][cell]))


@dataclass(frozen=True)
class QuantileStep:
    """Left-continuous step function on (0, 1): value values[k] on (cuts[k], cuts[k+1]].

    cuts run from exactly 0 to exactly 1 and strictly increase; values
    strictly increase. The length cuts[k+1] - cuts[k] is the Lebesgue
    measure of the level set of values[k], which is what makes the
    pushforward of the uniform measure equal the target distribution.
    """

    cuts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cuts = np.array(self.cuts, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if len(cuts) != len(values) + 1 or len(values) == 0:
            raise ValueError("need one more cut than values, at least one value")
        _check_cuts(cuts)
        if not np.all(values[1:] > values[:-1]):  # np.diff would overflow past the float64 range
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "cuts", _readonly(cuts))
        object.__setattr__(self, "values", _readonly(values))

    def lengths(self) -> np.ndarray:
        return np.diff(self.cuts)

    def evaluate(self, t: float) -> float:
        """Left-continuous generalized inverse: the least value whose cut reaches t."""
        t = float(t)
        if not 0.0 < t < 1.0:
            raise OutOfDomain(f"fiber coordinate {t!r} outside (0, 1)")
        k = int(np.searchsorted(self.cuts, t, side="left"))
        return float(self.values[k - 1])


def quantile_function(
    dec: SpectralDecomposition, state: PureState, weight_floor: float = WEIGHT_FLOOR
) -> QuantileStep:
    """Quantile of the outcome distribution of an observable at a state.

    Cut positions are running sums of the eigenvalue probabilities;
    eigenvalues weighing at most weight_floor (default 1e-12) are dropped
    so every step has positive length.
    """
    return _fiber(dec, state, weight_floor)[1]


def _fiber(
    dec: SpectralDecomposition, state: PureState, weight_floor: float
) -> tuple[np.ndarray, QuantileStep]:
    """The kept indices of _fiber_partition(dec.weights(state.vector), weight_floor), and the
    quantile step on their cuts, which holds those cuts.

    Every fiber quantity of one decomposition and state reads these cells, so the
    decomposition keeps the last partition in its _fiber slot, keyed by the state vector's
    bytes and weight_floor: a hit returns the read-only arrays of that one build, and any
    other key builds again and takes the slot. A failed partition raises and is not kept."""
    key = (state.vector.tobytes(), weight_floor)
    slot = dec._fiber
    if slot is not None and slot[0] == key:
        return slot[1], slot[2]
    kept, cuts = _fiber_partition(dec.weights(state.vector), weight_floor)
    step = QuantileStep(cuts, dec.eigenvalues[kept])
    object.__setattr__(dec, "_fiber", (key, _readonly(kept), step))
    return kept, step


@dataclass(frozen=True)
class ClassicalObservable:
    """Operator-backed observable on the fibered state space.

    The fiber restriction at a state is the backing quantile, optionally
    post-composed with a piecewise-affine map. This subclass is closed under
    post-composition and already reaches every quantum observable.
    """

    backing: SpectralDecomposition
    post: PiecewiseAffineFunction | None = None

    @property
    def dim(self) -> int:
        return self.backing.dim

    def outcome_values(self, snap_tol: float = SNAP_TOL) -> np.ndarray:
        """Distinct possible outcomes over all states, sorted increasing. An eigenvalue
        within snap_tol (default 1e-9) of a breakpoint of the post map takes the breakpoint's
        value, as its preimages snap it onto the breakpoint."""
        if self.post is None:
            return self.backing.eigenvalues
        lams = self.backing.eigenvalues.tolist()
        return np.array(sorted({self.post.snapped(v, snap_tol) for v in lams}))

    def outcome_quantile(
        self, state: PureState, weight_floor: float = WEIGHT_FLOOR, snap_tol: float = SNAP_TOL
    ) -> QuantileStep:
        """Quantile of the outcome distribution at a state, equal post-images merged;
        eigenvalues weighing at most weight_floor (default 1e-12) are dropped first. The
        post map snaps as in outcome_values, within snap_tol (default 1e-9) of a breakpoint."""
        base = quantile_function(self.backing, state, weight_floor)
        if self.post is None:
            return base
        totals: dict[float, float] = {}
        for v, length in zip(base.values, base.lengths()):
            img = self.post.snapped(float(v), snap_tol)
            totals[img] = totals.get(img, 0.0) + float(length)
        values = np.array(sorted(totals))
        kept, cuts = _fiber_partition(np.array([totals[v] for v in values]), 0.0)
        return QuantileStep(cuts, values[kept])

    def evaluate(self, state: PureState, t: float, snap_tol: float = SNAP_TOL) -> float:
        """Pointwise value on the fiber of the state: post applied after the quantile,
        snapping as in outcome_values within snap_tol (default 1e-9) of a breakpoint."""
        v = quantile_function(self.backing, state).evaluate(t)
        return self.post.snapped(v, snap_tol) if self.post is not None else v


def compose(g: PiecewiseAffineFunction, obs: ClassicalObservable) -> ClassicalObservable:
    """Post-compose an observable with g; an existing post map is folded into one."""
    if obs.post is None:
        return ClassicalObservable(obs.backing, g)
    return ClassicalObservable(obs.backing, compose_functions(g, obs.post))


@dataclass(frozen=True)
class Proposition:
    """Subset of the state space cut out, fiber by fiber, by a Borel event of one operator."""

    backing: SpectralDecomposition
    borel: BorelSet


def proposition_from(dec: SpectralDecomposition, events: BorelSet) -> Proposition:
    return Proposition(dec, events)


def proposition_projector(
    prop: Proposition, snap_tol: float = SNAP_TOL
) -> np.ndarray:
    """The projector whose state probabilities equal the fiber measures of the proposition."""
    return spectral_projector(prop.backing, prop.borel, snap_tol)


def fiber_subset(
    prop: Proposition, state: PureState, snap_tol: float = SNAP_TOL
) -> BorelSet:
    """The proposition's trace on one fiber, a finite union of subintervals of (0, 1).

    Each eigenvalue in the event set contributes its quantile cell (cells of
    weight at most 1e-12 are dropped); the total length is the event probability.
    """
    kept, step = _fiber(prop.backing, state, WEIGHT_FLOOR)
    cuts = step.cuts
    inside = _event_table((prop.borel,), prop.backing.eigenvalues, snap_tol)[0].tolist()
    parts = []
    for k, m in enumerate(kept.tolist()):
        if inside[m]:
            top = float(cuts[k + 1])
            parts.append(Interval(float(cuts[k]), top, False, top != 1.0))
    return BorelSet(tuple(parts))


def reduced_operator(obs: ClassicalObservable, snap_tol: float = SNAP_TOL) -> np.ndarray:
    """The self-adjoint operator an observable reduces to.

    Rebuilt from threshold propositions: one masked product gives the projectors of
    "outcome <= u" (of its preimage under a post map) for every outcome u, and the
    operator is the sum of outcomes times the projector jumps, in outcome order. Round
    trip: no post map reduces to the backing operator, a post map to its functional calculus
    at the same snap_tol.
    """
    outcomes = obs.outcome_values(snap_tol)
    below = [BorelSet.at_most(float(u)) for u in outcomes]
    events = below if obs.post is None else [preimage(obs.post, b) for b in below]
    total = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
    prev = 0
    for u, e_u in zip(outcomes, _event_projectors(obs.backing, events, snap_tol)):
        total += float(u) * (e_u - prev)
        prev = e_u
    return _readonly(total)


def fiber_integral(
    g: PiecewiseAffineFunction,
    obs: ClassicalObservable,
    state: PureState,
    snap_tol: float = SNAP_TOL,
) -> float:
    """Exact Lebesgue integral of g composed with the observable over one fiber. An outcome
    within snap_tol (default 1e-9) of a breakpoint of g or of the post map takes the
    breakpoint's value, as in functional_calculus and reduced_operator."""
    q = obs.outcome_quantile(state, snap_tol=snap_tol)
    return float(sum(g.snapped(float(v), snap_tol) * float(l)
                     for v, l in zip(q.values, q.lengths())))


@dataclass(frozen=True)
class HiddenSampleReport:
    """Tabulated Monte Carlo draw of an observable at a state, against predictions."""

    state: PureState
    observable_id: str
    sample_count: int
    seed: int
    outcomes: np.ndarray
    predicted: np.ndarray
    empirical: np.ndarray
    max_abs_deviation: float
    chi_square: float

    def __post_init__(self):
        object.__setattr__(self, "outcomes", _readonly(np.array(self.outcomes, dtype=np.float64)))
        object.__setattr__(self, "predicted", _readonly(np.array(self.predicted, dtype=np.float64)))
        object.__setattr__(self, "empirical", _readonly(np.array(self.empirical, dtype=np.float64)))
        if abs(float(self.empirical.sum()) - 1.0) > FREQUENCY_SUM_TOL:
            raise ValueError("empirical frequencies must sum to 1")


def _cell_counts(cuts: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Number of draws in each cell (cuts[k], cuts[k+1]], counted per cut.

    Every draw lies in (0, 1), so none is at most cuts[0] = 0 and all are at
    most cuts[-1] = 1; cell k holds the draws at most cuts[k+1] less those at
    most cuts[k]. One pass over the draws per interior cut, not a search per draw.
    """
    at_most = [np.count_nonzero(ts <= c) for c in cuts[1:-1]]
    return np.diff(np.array([0, *at_most, ts.size], dtype=np.int64))


def sample(
    obs: ClassicalObservable,
    state: PureState,
    n: int,
    seed: int,
    observable_id: str = "",
    weight_floor: float = WEIGHT_FLOOR,
) -> HiddenSampleReport:
    """Draw n fiber points uniformly with a seeded generator and tabulate outcomes.

    The outcomes are those of obs.outcome_quantile at weight_floor (default 1e-12).
    Each outcome's count is taken per cut of that quantile (how many draws
    are at most the cut), so the draws are read through the quantile step
    function without a search per draw.
    Deterministic: the same (seed, n) always yields the identical report.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    q = obs.outcome_quantile(state, weight_floor)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    ts = rng.random(n)
    while True:
        zero = ts == 0.0
        if not zero.any():
            break
        ts[zero] = rng.random(int(zero.sum()))
    counts = _cell_counts(q.cuts, ts).astype(np.float64)
    predicted = q.lengths()
    empirical = counts / float(n)
    deviation = float(np.max(np.abs(empirical - predicted)))
    expected_counts = predicted * float(n)
    chi_square = float(((counts - expected_counts) ** 2 / expected_counts).sum())
    return HiddenSampleReport(
        state=state,
        observable_id=observable_id,
        sample_count=int(n),
        seed=int(seed),
        outcomes=q.values,
        predicted=predicted,
        empirical=empirical,
        max_abs_deviation=deviation,
        chi_square=chi_square,
    )


def states_confusion_equivalent(h: PureState, k: PureState, tol: float = RAY_TOL) -> bool:
    """True iff every proposition has the same fiber measure at both states,
    which happens exactly when the states are the same ray."""
    return h.same_ray(k, tol)


def observables_confusion_equivalent(
    a: ClassicalObservable, b: ClassicalObservable, tol: float = CONFUSION_TOL
) -> bool:
    """True iff both observables reduce to the same self-adjoint operator."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"observable dims differ: {a.dim} vs {b.dim}")
    return max_abs(reduced_operator(a) - reduced_operator(b)) <= tol
