"""Seeded inputs for the hvsim benchmark.

Every generator draws from a numpy Generator. The caller derives it from the
run's --seed and the round number, or, for the fixed known-fault inputs, from
a constant, so the same seed always yields the same inputs. Operators are
built as U diag(lambda) U* with planned degeneracies: their distinct
eigenvalues and multiplicities are known by construction.

Borel events and piecewise-affine maps are plain specs here (tuples), so the
oracle can evaluate them without going through hvsim.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

INF = float("inf")
FIXED_ENTROPY = 20011107  # seeds the known-fault inputs; never the run's --seed


def stream(*entropy: int) -> np.random.Generator:
    """Generator for one (seed, workload, round, ...) tuple of non-negative ints."""
    return np.random.default_rng([int(e) for e in entropy])


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@dataclass(frozen=True)
class PlannedOperator:
    """U diag(values repeated by ranks) U*; basis columns are grouped by value."""

    matrix: np.ndarray
    values: np.ndarray
    ranks: tuple[int, ...]
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.values)))

    def eigenvector(self, k: int) -> np.ndarray:
        """First basis column of the k-th distinct eigenvalue."""
        return self.basis[:, int(sum(self.ranks[:k]))]


def planned_operator(rng: np.random.Generator, n: int) -> PlannedOperator:
    """n - n//4 distinct eigenvalues, 0.2 to 0.6 apart, with random multiplicities.

    The count is fixed per dimension so that the cost of decomposing and
    validating an operator of a given size does not vary with the seed.
    """
    m = n - n // 4
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)) if m > 1 else []
    ranks = tuple(int(r) for r in np.diff(np.concatenate(([0], cuts, [n]))))
    gaps = rng.uniform(0.2, 0.6, size=m - 1)
    values = float(rng.uniform(-3.0, -1.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    u = unitary(rng, n)
    matrix = hermitian_part((u * np.repeat(values, ranks)) @ u.conj().T)
    return PlannedOperator(matrix, values, ranks, u)


def near_eigenstate(rng: np.random.Generator, op: PlannedOperator, k: int, leak: float) -> np.ndarray:
    """Eigenvector of the k-th eigenvalue plus a random vector of norm `leak`."""
    r = random_vector(rng, op.dim)
    return op.eigenvector(k) + leak * r / np.linalg.norm(r)


# ---------------------------------------------------------------------------
# Borel events and piecewise-affine maps as specs


def _away(rng: np.random.Generator, lo: float, hi: float, avoid, gap: float) -> float:
    while True:
        x = float(rng.uniform(lo, hi))
        if all(abs(x - a) > gap for a in avoid):
            return x


def event_union(rng: np.random.Generator, values: np.ndarray, gap: float = 0.05) -> tuple:
    """One to three intervals whose endpoints stay `gap` away from every eigenvalue."""
    k = int(rng.integers(1, 4))
    lo, hi = float(values[0]) - 1.0, float(values[-1]) + 1.0
    pts = sorted(_away(rng, lo, hi, values, gap) for _ in range(2 * k))
    flags = rng.integers(0, 2, size=(k, 2))
    return tuple(
        (pts[2 * i], pts[2 * i + 1], bool(flags[i, 0]), bool(flags[i, 1])) for i in range(k)
    )


def event_at_most(rng: np.random.Generator, values: np.ndarray) -> tuple:
    """(-inf, u] with u strictly between two eigenvalues."""
    k = int(rng.integers(0, len(values)))
    top = float(values[k + 1]) if k + 1 < len(values) else float(values[k]) + 1.0
    u = float(values[k]) + float(rng.uniform(0.25, 0.75)) * (top - float(values[k]))
    return ((-INF, u, False, True),)


def event_points(rng: np.random.Generator, values: np.ndarray) -> tuple:
    """Closed points placed exactly on a random nonempty subset of the eigenvalues."""
    chosen = [float(v) for v in values if rng.random() < 0.5] or [float(values[0])]
    return tuple((v, v, True, True) for v in chosen)


def random_map(rng: np.random.Generator, values: np.ndarray) -> tuple:
    """Piecewise-affine map spec (breakpoints, pieces, breakpoint_values).

    Breakpoints stay 0.1 away from the eigenvalues, and the images of distinct
    eigenvalues are either equal or more than 1e-6 apart.
    """
    lo, hi = float(values[0]) - 1.0, float(values[-1]) + 1.0
    while True:
        r = int(rng.integers(0, 4))
        bps: list[float] = []
        while len(bps) < r:
            bps.append(_away(rng, lo, hi, list(values) + bps, 0.1))
        bps.sort()
        pieces = []
        for _ in range(r + 1):
            if rng.random() < 0.3:
                pieces.append((0.0, float(rng.uniform(-3.0, 3.0))))
            else:
                slope = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0))
                pieces.append((slope, float(rng.uniform(-3.0, 3.0))))
        spec = (tuple(bps), tuple(pieces), tuple(float(rng.uniform(-5, 5)) for _ in bps))
        images = sorted(map_value(spec, float(v)) for v in values)
        if all(b == a or b - a > 1e-6 for a, b in zip(images, images[1:])):
            return spec


def map_value(spec: tuple, x: float) -> float:
    bps, pieces, bvals = spec
    i = bisect_left(bps, x)
    if i < len(bps) and bps[i] == x:
        return bvals[i]
    slope, intercept = pieces[i]
    return slope * x + intercept


# ---------------------------------------------------------------------------
# projector quadruples (e1, e2, f1, f2) and the state to evaluate at


def _qubit_projector(theta: float) -> np.ndarray:
    """Projector onto the qubit state at Bloch angle theta in the x-z plane."""
    v = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=np.complex128)
    return np.outer(v, v.conj())


SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)


def singlet_quadruple(rng: np.random.Generator, ancilla_dim: int):
    """Tsirelson-optimal singlet settings, tensored with the identity on an ancilla.

    A common random qubit rotation leaves the singlet invariant, and a random
    global unitary makes every matrix dense; neither moves the CHSH value off
    2 sqrt 2.
    """
    rot = unitary(rng, 2)
    eye2 = np.eye(2)
    eye_anc = np.eye(ancilla_dim)

    def local(theta: float, alice: bool) -> np.ndarray:
        p = rot @ _qubit_projector(theta) @ rot.conj().T
        pair = np.kron(p, eye2) if alice else np.kron(eye2, p)
        return np.kron(pair, eye_anc)

    projectors = [local(0.0, True), local(math.pi / 2, True),
                  local(math.pi / 4, False), local(3 * math.pi / 4, False)]
    state = np.kron(SINGLET, random_vector(rng, ancilla_dim))
    w = unitary(rng, 4 * ancilla_dim)
    return [hermitian_part(w @ p @ w.conj().T) for p in projectors], w @ state


def noncommuting_quadruple(rng: np.random.Generator, n: int):
    """Four projectors of random rank in random position, not all commuting."""
    while True:
        projectors = []
        for _ in range(4):
            cols = unitary(rng, n)[:, : int(rng.integers(1, n))]
            projectors.append(hermitian_part(cols @ cols.conj().T))
        e1, e2, f1, f2 = projectors
        if max(np.max(np.abs(a @ b - b @ a)) for a, b in ((e1, e2), (e1, f1), (e2, f2))) > 1e-3:
            return projectors, random_vector(rng, n)


def commuting_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Four 0/1 diagonals, each with at least one 0 and one 1."""
    while True:
        bits = rng.integers(0, 2, size=(4, n))
        if np.all((bits.sum(axis=1) > 0) & (bits.sum(axis=1) < n)):
            return bits


def commuting_quadruple(rng: np.random.Generator, n: int):
    """Four projectors diagonal in one random unitary, so they commute pairwise."""
    u = unitary(rng, n)
    bits = commuting_bits(rng, n)
    projectors = [hermitian_part((u * b) @ u.conj().T) for b in bits]
    return projectors, random_vector(rng, n), u, bits


# ---------------------------------------------------------------------------
# problem files for the hv command line


def _complex_json(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_json(m: np.ndarray) -> list:
    return [[_complex_json(z) for z in row] for row in m]


def event_json(spec: tuple) -> list:
    out = []
    for lo, hi, lc, hc in spec:
        out.append({"lo": "-inf" if lo == -INF else lo, "hi": "inf" if hi == INF else hi,
                    "lo_closed": lc, "hi_closed": hc})
    return out


def map_json(spec: tuple) -> dict:
    bps, pieces, bvals = spec
    return {"breakpoints": list(bps), "pieces": [list(p) for p in pieces],
            "breakpoint_values": list(bvals)}


def problem_bytes(dim: int, operators: dict, states: dict, experiments: list,
                  borel_sets: dict | None = None, functions: dict | None = None,
                  tolerances: dict | None = None) -> bytes:
    doc = {"dimension": dim}
    if tolerances:
        doc["tolerances"] = tolerances
    doc["operators"] = {k: matrix_json(v) for k, v in operators.items()}
    doc["states"] = {k: [_complex_json(z) for z in v] for k, v in states.items()}
    doc["borel_sets"] = {k: event_json(v) for k, v in (borel_sets or {}).items()}
    doc["functions"] = {k: map_json(v) for k, v in (functions or {}).items()}
    doc["experiments"] = experiments
    return json.dumps(doc).encode("utf-8")
