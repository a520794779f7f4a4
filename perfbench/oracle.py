"""Expected values computed apart from hvsim, with numpy.linalg.

Nothing here imports hvsim. Spectra come from numpy.linalg.eigh, events and
maps are evaluated from their specs, and correlation operators use the
two-projection form P0 - P(+1) - P(-1) built from the spectral projectors of
e - f, not the four projector meets hvsim computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import map_value

POINT_TOL = 1e-6  # eigenvalue-to-endpoint distance treated as "on the endpoint"


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues (clustered within 1e-6) with orthonormal eigenvector blocks."""

    values: np.ndarray
    blocks: tuple[np.ndarray, ...]

    def weights(self, psi: np.ndarray) -> np.ndarray:
        norm = float(np.vdot(psi, psi).real)
        return np.array([float(np.sum(np.abs(b.conj().T @ psi) ** 2)) / norm for b in self.blocks])

    def apply(self, spec: tuple) -> np.ndarray:
        """g(A) for a piecewise-affine map spec g."""
        n = self.blocks[0].shape[0]
        out = np.zeros((n, n), dtype=np.complex128)
        for v, b in zip(self.values, self.blocks):
            out += map_value(spec, float(v)) * (b @ b.conj().T)
        return out


def spectrum(matrix: np.ndarray) -> Spectrum:
    w, v = np.linalg.eigh(matrix)
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= 1e-6:
            groups[-1].append(i)
        else:
            groups.append([i])
    return Spectrum(np.array([w[g].mean() for g in groups]), tuple(v[:, g] for g in groups))


def event_contains(spec: tuple, x: float) -> bool:
    """Membership in a union of (lo, hi, lo_closed, hi_closed) intervals."""
    for lo, hi, lc, hc in spec:
        if abs(x - lo) <= POINT_TOL:
            if lc:
                return True
            continue
        if abs(x - hi) <= POINT_TOL:
            if hc:
                return True
            continue
        if lo < x < hi:
            return True
    return False


def expect(matrix: np.ndarray, psi: np.ndarray) -> float:
    return float(np.vdot(psi, matrix @ psi).real / np.vdot(psi, psi).real)


def correlation(e: np.ndarray, f: np.ndarray, meet_tol: float = 1e-8) -> np.ndarray:
    """P0 - P(+1) - P(-1) from the spectrum of e - f (Halmos two-projection form).

    A principal angle t between the ranges puts +-sin t in the spectrum of
    e - f and 1 - cos t in that of (I - e) + (I - f), which is what hvsim
    compares against meet_tol; the thresholds below are that comparison
    rewritten for the eigenvalues of e - f.
    """
    w, v = np.linalg.eigh(e - f)
    zero = math.sqrt(2.0 * meet_tol - meet_tol * meet_tol)
    signs = np.where(np.abs(w) < zero, 1.0, np.where(1.0 - np.abs(w) < meet_tol, -1.0, 0.0))
    return (v * signs) @ v.conj().T


def chsh(terms: np.ndarray) -> float:
    return float(abs(terms[0, 0] - terms[0, 1]) + abs(terms[1, 0] + terms[1, 1]))


def chsh_terms(projectors, psi: np.ndarray) -> np.ndarray:
    e1, e2, f1, f2 = projectors
    return np.array([[expect(correlation(e, f), psi) for f in (f1, f2)] for e in (e1, e2)])


def sample_budget(predicted: np.ndarray, n: int) -> np.ndarray:
    """Per-atom deviation budget: 7 sigma plus 10 counts.

    A correct sampler exceeds 7 sigma on about 3e-12 of atoms (normal tail);
    the 10-count floor covers atoms with tiny weight, where the binomial tail
    is heavier than the normal one.
    """
    p = np.clip(predicted, 0.0, 1.0)
    return 7.0 * np.sqrt(p * (1.0 - p) / n) + 10.0 / n
