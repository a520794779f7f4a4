"""Pure states, Borel events and the spectral calculus of observables.

A pure state is a ray in C^n; all statistics of an observable at a state
flow through the spectral projectors of its decomposition: event
probabilities, expectations, distribution functions, and operators built
by applying a piecewise-affine function to the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .borel import BorelSet, PiecewiseAffineFunction, _nearest
from .errors import DimensionMismatch
from .linalg import SpectralDecomposition, _readonly

RAY_TOL = 1e-9
SNAP_TOL = 1e-9
# prob returns a value at most this far outside [0, 1] as the nearer end, as rounding
PROB_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Unit vector representative of a ray; equality of states is ray equality."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=np.complex128).reshape(-1)
        peak = float(np.max(np.abs(v), initial=0.0))
        if peak == 0.0 or not np.all(np.isfinite(v)):
            raise ValueError("state vector must be nonzero, with finite entries")
        # scale by a power of two near the largest entry, so <v, v> neither overflows nor
        # underflows; a power of two scales exactly, so a well-scaled v keeps every bit.
        # ldexp scales the parts; a complex division by 2**e forms 1 / 2**e, which overflows
        # for e <= -1024, that is for a subnormal peak
        v = np.ldexp(v.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
        object.__setattr__(self, "vector", _readonly(v / math.sqrt(float(np.vdot(v, v).real))))

    @property
    def dim(self) -> int:
        return len(self.vector)

    def overlap(self, other: "PureState") -> float:
        """|<h, k>| for unit vectors, the ray-invariant overlap."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"state dimensions differ: {self.dim} vs {other.dim}")
        return float(abs(np.vdot(self.vector, other.vector)))

    def same_ray(self, other: "PureState", tol: float = RAY_TOL) -> bool:
        return abs(self.overlap(other) - 1.0) <= tol


def spectral_projector(
    dec: SpectralDecomposition, events: BorelSet, snap_tol: float = SNAP_TOL
) -> np.ndarray:
    """Sum of the spectral projectors whose eigenvalues lie in the event set: an eigenvalue
    within snap_tol (default 1e-9) of its finite endpoints lies on the nearest, the lower on a
    tie, whose flag decides (in a table of several events, _event_table, any event's nearest)."""
    return _readonly(_event_projectors(dec, (events,), snap_tol)[0])


def _event_projectors(dec, events, snap_tol: float = SNAP_TOL) -> np.ndarray:
    """(k, n, n) stack of the spectral projectors of the k events, from one _event_table."""
    return _projector_sums(dec, _event_table(events, dec.eigenvalues, snap_tol))


def _projector_sums(dec: SpectralDecomposition, table: np.ndarray) -> np.ndarray:
    """(k, n, n) sums of the projectors the rows of a (k, m) 0/1 table select: one matrix
    product of at least two rows (never numpy's matrix-vector one), exact in its products by 0
    and 1; a row's bits hang on the row count with OpenBLAS 0.3.31's Sandybridge kernel."""
    (k, m), n = table.shape, dec.dim
    mask = np.zeros((max(k, 2), m), dtype=np.complex128)
    mask[:k] = table
    return (mask @ dec.projectors.reshape(m, n * n))[:k].reshape(k, n, n)


def _event_table(events, eigenvalues: np.ndarray, snap_tol: float) -> np.ndarray:
    """Read-only (k, m) bool table: whether each of the m eigenvalues lies in each of the k
    events. The one place events classify eigenvalues, once each: an eigenvalue lies on the
    nearest finite endpoint of any event within snap_tol, the lower on a tie, and an event
    holds it iff it holds that point. ~S, S & T and S | T have no endpoints but those of S and
    T, so sets and their boolean combinations classify by set algebra. A lone event's row is
    BorelSet.contains at snap_tol, and others move it only where one of their endpoints lies
    nearer the eigenvalue, within snap_tol.

    Kept by content (_classified, the last 64), as analyses repeat events and spectra (sector
    events, a backing shared by many states); the key holds the eigenvalues as floats, so
    equal floats, 0.0 and -0.0 among them, lie in the same events."""
    return _classified(tuple(events), tuple(eigenvalues.tolist()), snap_tol)


@lru_cache(maxsize=64)
def _classified(events: tuple, lams: tuple, snap_tol: float) -> np.ndarray:
    grid = sorted({p for e in events for p in e._ends[0]})  # _nearest skips the infinite ones
    near = [_nearest(grid, lam, snap_tol)[1] for lam in lams]
    points = [lam if i is None else grid[i] for lam, i in zip(lams, near)]
    table = np.array([[e.contains(x) for x in points] for e in events], dtype=bool)
    return _readonly(table.reshape(len(events), len(lams)))


def prob(
    dec: SpectralDecomposition,
    state: PureState,
    events: BorelSet,
    snap_tol: float = SNAP_TOL,
) -> float:
    """Probability that a measurement outcome lands in the event set."""
    if dec.dim != state.dim:
        raise DimensionMismatch(f"operator dim {dec.dim} vs state dim {state.dim}")
    return _quadratic_prob(spectral_projector(dec, events, snap_tol), state.vector)


def _quadratic_prob(e: np.ndarray, h: np.ndarray) -> float:
    """<h, E h> / <h, h> for an event's spectral projector E, clamped within PROB_CLAMP_TOL."""
    value = float(np.vdot(h, e @ h).real / np.vdot(h, h).real)
    if -PROB_CLAMP_TOL <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + PROB_CLAMP_TOL:
        return 1.0
    return value


def expectation(dec: SpectralDecomposition, state: PureState) -> float:
    """Mean outcome, the eigenvalue-weighted sum of projector probabilities."""
    return float(np.dot(dec.eigenvalues, dec.weights(state.vector)))


def cdf(
    dec: SpectralDecomposition, state: PureState, u: float, snap_tol: float = SNAP_TOL
) -> float:
    """Right-continuous distribution function: probability of (-inf, u]."""
    return prob(dec, state, BorelSet.at_most(float(u)), snap_tol)


def functional_calculus(
    dec: SpectralDecomposition, g: PiecewiseAffineFunction, snap_tol: float = SNAP_TOL
) -> np.ndarray:
    """The operator with g applied to the spectrum, eigenspaces unchanged. An eigenvalue
    within snap_tol (default 1e-9) of a breakpoint takes the breakpoint's value, as event
    membership snaps it onto the breakpoint."""
    values = np.array([g.snapped(lam, snap_tol) for lam in dec.eigenvalues.tolist()])
    return _readonly(np.einsum("k,kij->ij", values, dec.projectors))
