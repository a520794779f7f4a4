"""Pure states, Borel events and the spectral calculus of observables.

A pure state is a ray in C^n; all statistics of an observable at a state
flow through the spectral projectors of its decomposition: event
probabilities, expectations, distribution functions, and operators built
by applying a piecewise-affine function to the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .borel import BorelSet, PiecewiseAffineFunction
from .errors import DimensionMismatch
from .linalg import SpectralDecomposition, _readonly

RAY_TOL = 1e-9
SNAP_TOL = 1e-9


@dataclass(frozen=True)
class PureState:
    """Unit vector representative of a ray; equality of states is ray equality."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=np.complex128).reshape(-1)
        norm = math.sqrt(float(np.vdot(v, v).real))
        if norm == 0.0 or not np.all(np.isfinite(v)):
            raise ValueError("state vector must be nonzero, with finite entries")
        object.__setattr__(self, "vector", _readonly(v / norm))

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

    Eigenvalues within snap_tol (default 1e-9) of a finite interval endpoint
    are treated as lying exactly on it, so the endpoint flag decides.
    """
    out = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        if events.contains(float(lam), snap_tol):
            out += proj
    return _readonly(out)


def prob(
    dec: SpectralDecomposition,
    state: PureState,
    events: BorelSet,
    snap_tol: float = SNAP_TOL,
) -> float:
    """Probability that a measurement outcome lands in the event set:
    <h, E h> / <h, h> for the event's spectral projector E."""
    if dec.dim != state.dim:
        raise DimensionMismatch(f"operator dim {dec.dim} vs state dim {state.dim}")
    e = spectral_projector(dec, events, snap_tol)
    h = state.vector
    value = float(np.vdot(h, e @ h).real / np.vdot(h, h).real)
    if -1e-12 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-12:
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
    dec: SpectralDecomposition, g: PiecewiseAffineFunction
) -> np.ndarray:
    """The operator with g applied to the spectrum, eigenspaces unchanged."""
    values = np.array([g(float(lam)) for lam in dec.eigenvalues])
    return _readonly(np.einsum("k,kij->ij", values, dec.projectors))
