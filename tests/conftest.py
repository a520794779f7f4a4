"""Shared random-instance builders for the test suite.

numpy.linalg is used here as the independent oracle (and to fabricate
inputs); the package under test never calls it.
"""

from __future__ import annotations

import numpy as np

import hvsim
from hvsim import (
    BorelSet,
    Interval,
    PiecewiseAffineFunction,
    PureState,
    eigh,
)


def rand_hermitian(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def rand_state(rng: np.random.Generator, n: int) -> PureState:
    return PureState(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def rand_projector(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, n))
    u = rand_unitary(rng, n)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def rand_commuting_projectors(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    u = rand_unitary(rng, n)
    while True:
        d1 = rng.integers(0, 2, size=n)
        d2 = rng.integers(0, 2, size=n)
        if 0 < d1.sum() < n and 0 < d2.sum() < n:
            break
    e = (u * d1) @ u.conj().T
    f = (u * d2) @ u.conj().T
    return (e + e.conj().T) / 2.0, (f + f.conj().T) / 2.0


def rand_commuting_family(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Four projectors diagonal in one random basis, of random ranks 0..n, symmetrized."""
    u = rand_unitary(rng, n)
    family = ((u * bits) @ u.conj().T for bits in rng.integers(0, 2, size=(4, n)))
    return [(p + p.conj().T) / 2.0 for p in family]


def rand_noncommuting_projectors(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        e = rand_projector(rng, n)
        f = rand_projector(rng, n)
        if np.max(np.abs(e @ f - f @ e)) > 1e-3:
            return e, f


def rand_pair_sharing(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Projector pair whose ranges share a random subspace of dimension 1..n-1;
    random ranks inside its complement may force further shared subspaces."""
    u = rand_unitary(rng, n)
    k = int(rng.integers(1, n))
    shared, rest = u[:, :k], u[:, k:]

    def widen(rank: int) -> np.ndarray:
        cols = rest @ rand_unitary(rng, n - k)[:, :rank]
        p = shared @ shared.conj().T + cols @ cols.conj().T
        return (p + p.conj().T) / 2.0

    return widen(int(rng.integers(0, n - k + 1))), widen(int(rng.integers(0, n - k + 1)))


def oracle_meet(e: np.ndarray, f: np.ndarray, meet_tol: float = 1e-8) -> np.ndarray:
    """Projector onto range(e) intersected with range(f): the eigenvectors of the
    positive semidefinite (I-e) + (I-f) with eigenvalue below meet_tol."""
    eye = np.eye(len(e))
    w, v = np.linalg.eigh((eye - e) + (eye - f))
    null = v[:, w < meet_tol]
    return null @ null.conj().T


def oracle_correlation(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(e meet f) + (e' meet f') - (e' meet f) - (e meet f'), from four oracle meets."""
    eye = np.eye(len(e))
    return (oracle_meet(e, f) + oracle_meet(eye - e, eye - f)
            - oracle_meet(eye - e, f) - oracle_meet(e, eye - f))


def rand_degenerate_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian with at least one repeated eigenvalue."""
    u = rand_unitary(rng, n)
    distinct = np.sort(rng.uniform(-5.0, 5.0, size=max(1, n - 1)))
    values = np.concatenate([distinct, [distinct[int(rng.integers(0, len(distinct)))]]])
    rng.shuffle(values)
    return (u * values) @ u.conj().T


def _away_from(rng: np.random.Generator, lo: float, hi: float, avoid, gap: float) -> float:
    for _ in range(200):
        x = float(rng.uniform(lo, hi))
        if all(abs(x - a) > gap for a in avoid):
            return x
    raise RuntimeError("could not place a point away from the avoid list")


def rand_borel(
    rng: np.random.Generator,
    avoid=(),
    lo: float = -8.0,
    hi: float = 8.0,
    gap: float = 1e-3,
) -> BorelSet:
    """Random finite interval union with endpoints kept away from `avoid`."""
    k = int(rng.integers(1, 4))
    points = sorted(_away_from(rng, lo, hi, avoid, gap) for _ in range(2 * k))
    intervals = []
    for i in range(k):
        a, b = points[2 * i], points[2 * i + 1]
        intervals.append((a, b, bool(rng.integers(0, 2)), bool(rng.integers(0, 2))))
    if rng.random() < 0.2:
        a, b, _, flag = intervals[0]
        intervals[0] = (float("-inf"), b, False, flag)
    if rng.random() < 0.2:
        a, b, flag, _ = intervals[-1]
        intervals[-1] = (a, float("inf"), flag, False)
    return BorelSet(tuple(Interval(a, b, lc, hc) for a, b, lc, hc in intervals))


def rand_piecewise_affine(
    rng: np.random.Generator,
    eigenvalues=(),
    max_breaks: int = 3,
    allow_flat: bool = True,
) -> PiecewiseAffineFunction:
    """Random piecewise-affine map whose breakpoints avoid the given eigenvalues
    and whose images of distinct eigenvalues are either equal or > 1e-6 apart."""
    eigenvalues = [float(v) for v in eigenvalues]
    for _ in range(200):
        r = int(rng.integers(0, max_breaks + 1))
        breaks = []
        while len(breaks) < r:
            x = _away_from(rng, -7.0, 7.0, eigenvalues + breaks, 0.3)
            breaks.append(x)
        breaks.sort()
        pieces = []
        for _ in range(r + 1):
            if allow_flat and rng.random() < 0.3:
                pieces.append((0.0, float(rng.uniform(-3.0, 3.0))))
            else:
                slope = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0))
                pieces.append((slope, float(rng.uniform(-3.0, 3.0))))
        values = tuple(float(rng.uniform(-8.0, 8.0)) for _ in range(r))
        g = PiecewiseAffineFunction(tuple(breaks), tuple(pieces), values)
        images = sorted(g(v) for v in eigenvalues)
        if all(b - a == 0.0 or b - a > 1e-6 for a, b in zip(images, images[1:])):
            return g
    raise RuntimeError("could not build a well-separated piecewise-affine map")


def rand_decomposition(rng: np.random.Generator, n: int):
    return eigh(rand_hermitian(rng, n))


def counted_spans(monkeypatch) -> list:
    """Patch linalg._class_projectors, which only linalg calls, to record the arguments of
    every call."""
    calls, span = [], hvsim.linalg._class_projectors
    monkeypatch.setattr(hvsim.linalg, "_class_projectors", lambda *a: calls.append(a) or span(*a))
    return calls
