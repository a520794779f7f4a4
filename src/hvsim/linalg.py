"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigenpairs via cyclic complex Jacobi rotations. Only the public eigh
clusters them into a SpectralDecomposition; the projector lattice operations
(meet, join, commutation test) and bell's joint sectors classify raw eigenpairs.
All values are immutable after construction; every public operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITIAN_TOL = 1e-10
PROJECTOR_TOL = 1e-9
CLUSTER_TOL = 1e-8
MEET_TOL = 1e-8
COMMUTE_TOL = 1e-9
RESOLUTION_TOL = 1e-8
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def max_abs(a: np.ndarray) -> float:
    """Entrywise max norm."""
    return float(np.max(np.abs(a)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array of finite entries."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def ensure_hermitian(matrix, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check M = M* within tol (max norm, default 1e-10); return (M + M*)/2."""
    m = as_complex_matrix(matrix)
    defect = max_abs(m - m.conj().T)
    if defect > tol:
        raise NotHermitian(f"self-adjointness defect {defect:.3e} exceeds tol {tol:.1e}")
    return _readonly((m + m.conj().T) / 2.0)


def ensure_projector(matrix, tol: float = PROJECTOR_TOL) -> np.ndarray:
    """Check Hermitian, idempotent within tol (default 1e-9), near-integer trace."""
    p = ensure_hermitian(matrix, tol)
    defect = max_abs(p @ p - p)
    if defect > tol:
        raise ValueError(f"idempotence defect {defect:.3e} exceeds tol {tol:.1e}")
    trace = float(np.trace(p).real)
    if abs(trace - round(trace)) > 1e-6:
        raise ValueError(f"projector trace {trace!r} is not near an integer")
    return p


def _ensure_projectors(*matrices, tol: float = PROJECTOR_TOL) -> tuple[np.ndarray, ...]:
    ps = tuple(ensure_projector(m, tol) for m in matrices)
    dims = {p.shape[0] for p in ps}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands have mixed dimensions {sorted(dims)}")
    return ps


def projector_rank(p: np.ndarray) -> int:
    return int(round(float(np.trace(p).real)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Strictly increasing distinct eigenvalues with orthogonal spectral projectors.

    The projectors resolve the identity and are mutually orthogonal within
    1e-8; degenerate eigenspaces appear as single projectors of rank > 1.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    def __post_init__(self):
        evs = np.array(self.eigenvalues, dtype=np.float64)
        prs = np.array(self.projectors, dtype=np.complex128)
        if evs.ndim != 1 or prs.ndim != 3 or prs.shape[1] != prs.shape[2]:
            raise DimensionMismatch("eigenvalues must be (m,), projectors (m, n, n)")
        if len(evs) != len(prs) or len(evs) == 0:
            raise DimensionMismatch("need one projector per eigenvalue, at least one")
        if not np.all(np.diff(evs) > 0):
            raise ValueError("eigenvalues must be strictly increasing")
        n = prs.shape[1]
        resolution = max_abs(prs.sum(axis=0) - np.eye(n))
        if resolution > RESOLUTION_TOL:
            raise ValueError(f"projectors do not resolve the identity ({resolution:.3e})")
        for k in range(len(prs)):
            ensure_projector(prs[k])
            for l in range(k + 1, len(prs)):
                if max_abs(prs[k] @ prs[l]) > RESOLUTION_TOL:
                    raise ValueError(f"projectors {k} and {l} are not orthogonal")
        object.__setattr__(self, "eigenvalues", _readonly(evs))
        object.__setattr__(self, "projectors", _readonly(prs))

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(projector_rank(p) for p in self.projectors)

    def operator(self) -> np.ndarray:
        """Reconstruct the source operator as the eigenvalue-weighted projector sum."""
        return _readonly(np.einsum("k,kij->ij", self.eigenvalues, self.projectors))

    def weights(self, vector: np.ndarray) -> np.ndarray:
        """Per-eigenvalue probabilities <v, P_k v> / <v, v>, clipped at 0."""
        if len(vector) != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim} vs state dim {len(vector)}")
        w = np.einsum("i,kij,j->k", vector.conj(), self.projectors, vector).real
        return np.clip(w / float(np.vdot(vector, vector).real), 0.0, None)


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((np.abs(off) ** 2).sum()))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One two-sided Jacobi rotation annihilating a[p, q] (and a[q, p])."""
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = (t * c) * phase
    sc = s.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - sc * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = sc * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - sc * vq
    v[:, q] = s * vp + c * vq


def _jacobi(a: np.ndarray, off_tol=JACOBI_OFF_TOL, max_sweeps=JACOBI_MAX_SWEEPS) -> tuple:
    """Ascending eigenvalues and eigenvector columns of a, trusted Hermitian, swept in place."""
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    threshold = off_tol * max(1.0, max_abs(a))

    sweeps = 0
    while _off_norm(a) > threshold:
        if sweeps >= max_sweeps:
            raise ConvergenceFailure(
                f"off-diagonal norm {_off_norm(a):.3e} above {threshold:.3e} "
                f"after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _rotate(a, v, p, q)
        sweeps += 1

    raw = np.diag(a).real
    order = np.argsort(raw, kind="stable")
    return raw[order], v[:, order]


def _span_projector(v: np.ndarray) -> np.ndarray:
    """Symmetrized projector V V* onto the span of the orthonormal columns of v."""
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def eigh(
    matrix,
    cluster_tol: float = CLUSTER_TOL,
    hermitian_tol: float = HERMITIAN_TOL,
    off_tol: float = JACOBI_OFF_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> SpectralDecomposition:
    """Spectral decomposition of a self-adjoint matrix.

    Cyclic complex Jacobi iteration, converging when the off-diagonal
    Frobenius norm falls below off_tol (default 1e-12) relative to the
    largest input entry; raises ConvergenceFailure after max_sweeps
    (default 100) sweeps. Sorted eigenvalues at most cluster_tol (default 1e-8)
    apart chain into one cluster (single linkage), eigenvalue set to their mean,
    so degenerate eigenspaces come out as single basis-independent projectors.
    """
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    raw, vecs = _jacobi(ensure_hermitian(matrix, hermitian_tol).copy(), off_tol, max_sweeps)
    cuts = np.flatnonzero(np.diff(raw) > cluster_tol) + 1
    values = [c.mean() for c in np.split(raw, cuts)]
    return SpectralDecomposition(values, [_span_projector(v) for v in np.split(vecs, cuts, axis=1)])


# Private forms trust projectors checked where they entered; public names validate once.


def _pair_meets(e: np.ndarray, f: np.ndarray, meet_tol: float = MEET_TOL) -> tuple[np.ndarray, ...]:
    """(e meet f, e' meet f', (e meet f') + (e' meet f)), e' = I - e, from one solve of e + f - I.

    Halmos: e + f - I is +1 on e meet f, -1 on e' meet f', 0 on the two cross meets, and
    +-cos t on a pair at principal angle t; 1 - cos t < meet_tol shares the line at +-1, and
    1 - sin t < meet_tol reads mu**2 < meet_tol * (2 - meet_tol) at 0. Each eigenvalue is
    classified on its own; nothing is clustered."""
    mu, vecs = _jacobi(e + f - np.eye(len(e)))
    masks = (1.0 - mu < meet_tol, 1.0 + mu < meet_tol, mu * mu < meet_tol * (2.0 - meet_tol))
    return tuple(_readonly(_span_projector(vecs[:, m])) for m in masks)


def _commutes(e: np.ndarray, f: np.ndarray, tol: float = COMMUTE_TOL) -> bool:
    return max_abs(e @ f - f @ e) <= tol


def projector_meet(e, f, meet_tol: float = MEET_TOL) -> np.ndarray:
    """Orthogonal projector onto range(e) intersected with range(f).

    The +1 eigenspace of e + f - I, where a principal angle t counts as shared when
    1 - cos t < meet_tol (default 1e-8); symmetric in e and f. Validates e and f."""
    return _pair_meets(*_ensure_projectors(e, f), meet_tol)[0]


def projector_join(e, f, meet_tol: float = MEET_TOL) -> np.ndarray:
    """Projector onto span(range(e) union range(f)), as I - meet(I-e, I-f). Validates e and f."""
    e, f = _ensure_projectors(e, f)
    return _readonly(np.eye(len(e)) - _pair_meets(e, f, meet_tol)[1])


def commutes(e, f, tol: float = COMMUTE_TOL) -> bool:
    """True iff ef - fe vanishes within tol (max norm, default 1e-9). Validates e and f."""
    return _commutes(*_ensure_projectors(e, f), tol)
