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

from .borel import BorelSet, PiecewiseAffineFunction
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
    """Sum of the spectral projectors whose eigenvalues lie in the event set.

    An eigenvalue within snap_tol (default 1e-9) of finite endpoints of the event lies on the
    nearest, the lower on a tie, whose flag decides, so an event and its complement split it.
    """
    return _readonly(_event_projectors(dec, (events,), snap_tol)[0])


def _event_projectors(
    dec: SpectralDecomposition, events, snap_tol: float = SNAP_TOL
) -> np.ndarray:
    """(k, n, n) stack of the sums of the spectral projectors whose eigenvalues lie in each
    of the k events.

    Each eigenvalue is classified against each event (_event_table), and the (k, m) 0/1 mask
    times the m flattened projectors gives every sum in one matrix product, whose products
    by 0 and 1 are exact. The mask has at least two rows, so one event takes a matrix
    product, not the matrix-vector product numpy takes for one row; a row's bits may still
    depend on the row count (OpenBLAS 0.3.31: not on SkylakeX, Haswell, Katmai; they do on
    Sandybridge)."""
    table = _event_table(events, dec.eigenvalues, snap_tol)
    (k, m), n = table.shape, dec.dim
    mask = np.zeros((max(k, 2), m), dtype=np.complex128)
    mask[:k] = table
    return (mask @ dec.projectors.reshape(m, n * n))[:k].reshape(k, n, n)


def _event_table(events, eigenvalues: np.ndarray, snap_tol: float) -> np.ndarray:
    """Read-only (k, m) bool table: whether each of the m eigenvalues lies in each of the k
    events, by BorelSet.contains at snap_tol: the nearest endpoint within it decides. The one
    place events classify eigenvalues.

    An analysis asks again about the same events and spectrum (a quadruple's sector events,
    a backing shared by many states), so each table is kept by content (_classified, the
    last 64). The key holds the eigenvalues as floats: equal floats, 0.0 and -0.0 among
    them, lie in the same events."""
    return _classified(tuple(events), tuple(eigenvalues.tolist()), snap_tol)


@lru_cache(maxsize=64)
def _classified(events: tuple, lams: tuple, snap_tol: float) -> np.ndarray:
    table = np.array([[e.contains(lam, snap_tol) for lam in lams] for e in events], dtype=bool)
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
