"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigenpairs via complex Jacobi rotations in Brent-Luk round-robin order:
a sweep is n - 1 rounds (n for odd n), each rotating n/2 disjoint index pairs at once
by one dense unitary product, so every pair is rotated once per sweep. Only the public eigh
clusters them into a SpectralDecomposition; the projector lattice operations
(meet, join, commutation test) and bell's joint sectors classify raw eigenpairs.
All values are immutable after construction; every public operation is pure.
"""

from __future__ import annotations

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
    return _readonly(m / 2.0 + m.conj().T / 2.0)  # halved first: m + M* can overflow


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


def _ensure_projectors(*matrices) -> tuple[np.ndarray, ...]:
    ps = tuple(ensure_projector(m) for m in matrices)
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

    The public constructor checks all of this, each projector through
    ensure_projector. eigh and bell's joint sectors build through _trusted
    instead, which checks nothing: their projectors come from eigenvectors
    _jacobi has checked once, which is enough for all of the above (see _jacobi).
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
        if not np.all(evs[1:] > evs[:-1]):  # np.diff would overflow past the float64 range
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

    @classmethod
    def _trusted(cls, eigenvalues, projectors) -> SpectralDecomposition:
        """The same read-only arrays as the public constructor, with no checks: for
        projectors built from the columns of eigenvectors _jacobi has checked."""
        dec = object.__new__(cls)
        object.__setattr__(dec, "eigenvalues", _readonly(np.array(eigenvalues, dtype=np.float64)))
        object.__setattr__(dec, "projectors", _readonly(np.array(projectors, dtype=np.complex128)))
        return dec

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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brent-Luk schedule: rounds of disjoint (p, q) index arrays, p < q, that together hold
    each pair once. Odd n is padded by a dummy index n, which drops out of every pair it joins.

    With m = n + n % 2, round r pairs the hub m - 1 with r, and r + k with r - k (mod m - 1)
    for 0 < k < m/2. For odd n the hub is the dummy, so the hub's pair is left out."""
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(n % 2, m // 2)
    p = np.where(k == 0, m - 1, (r + k) % (m - 1))
    q = (r - k) % (m - 1)
    return list(zip(np.minimum(p, q), np.maximum(p, q)))


def _jacobi(a: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvector columns of a, trusted Hermitian.

    A sweep is one pass of the round-robin schedule; each round annihilates its disjoint
    pairs at once as a <- J* a J, v <- v J, with J the identity carrying one complex
    rotation block per pair (the identity block where a[p, q] is already 0). It converges
    when the off-diagonal Frobenius norm falls below JACOBI_OFF_TOL relative to the largest
    entry, and raises ConvergenceFailure after JACOBI_MAX_SWEEPS sweeps; both are read at
    call time.

    The columns of v are checked once, here, so that projectors built from them need no
    check of their own. Raises ConvergenceFailure if anything is not finite (a NaN
    off-diagonal norm, an eigenvalue beyond the float64 range, a NaN defect) and, with
    E = V*V - I and d = max|E|, unless n d <= PROJECTOR_TOL / 2. For disjoint column sets
    S, T and P_S = V_S V_S*:
    - P_S P_S - P_S = V_S E_SS V_S* and P_S P_T = V_S E_ST V_T*. Each entry is at most
      |V|^2 |E| <= (1 + n d) n d < PROJECTOR_TOL (spectral norms; |E| <= n d bounds it by
      the Frobenius norm, and |V|^2 = |V*V| <= 1 + |E|). So P_S is idempotent within
      PROJECTOR_TOL and P_S, P_T are orthogonal within RESOLUTION_TOL.
    - The P_S of a partition of the columns sum to V V*, which is square and so shares the
      spectrum of V*V: each entry of V V* - I is within n d of 0, inside RESOLUTION_TOL.
    - trace P_S = |S| + trace E_SS is within n d of an integer, inside 1e-6.
    - Symmetrizing P_S makes it exactly Hermitian.
    Forming and checking the products rounds each entry by about n * 1e-16, far inside
    the factor-two margin. Observed defects are about 1e-14 at n = 48."""
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    threshold = JACOBI_OFF_TOL * max(1.0, max_abs(a))
    # rotate a copy scaled exactly by 2**-e into max|a| < 1: near the float64 limit a
    # rotation's hypot overflows, and the pair would be zeroed without being rotated
    e = max(0, int(np.frexp(max_abs(a))[1]))
    a, scaled = a * np.ldexp(1.0, -e), np.ldexp(threshold, -e)
    rounds = [(p, q, np.concatenate((p, q, p, q)), np.concatenate((p, q, q, p)))
              for p, q in _round_robin(n)]  # J's block entries (p, p), (q, q), (p, q), (q, p)

    sweeps = 0
    while not (off := _off_norm(a)) <= scaled:
        if sweeps >= JACOBI_MAX_SWEEPS or np.isnan(off):
            raise ConvergenceFailure(
                f"off-diagonal norm {np.ldexp(off, e):.3e} above {threshold:.3e} "
                f"after {sweeps} sweeps"
            )
        for p, q, rows, cols in rounds:
            apq = a[p, q]
            mag = np.abs(apq)
            live = mag != 0.0
            if not live.any():
                continue
            # t = sign(tau) / (|tau| + hypot(1, tau)) for tau = d / 2|a_pq|, multiplied
            # through by 2|a_pq| so that a tiny |a_pq| cannot overflow tau
            diag = a.diagonal().real
            d = diag[q] - diag[p]
            t = np.divide(np.copysign(2.0 * mag, d), np.abs(d) + np.hypot(d, 2.0 * mag),
                          out=np.zeros(len(p)), where=live)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * np.divide(apq, mag, out=np.zeros(len(p), dtype=np.complex128), where=live)
            j = np.eye(n, dtype=np.complex128)
            j[rows, cols] = np.concatenate((c, c, s, -s.conj()))
            a = j.conj().T @ a @ j
            a[p, q] = a[q, p] = 0.0
            v = v @ j
        a = (a + a.conj().T) / 2.0
        sweeps += 1

    with np.errstate(over="ignore"):
        raw = np.ldexp(np.diag(a).real, e)
    if not np.all(np.isfinite(raw)):
        raise ConvergenceFailure(f"non-finite eigenvalue {raw[~np.isfinite(raw)][0]}")
    defect = max_abs(v.conj().T @ v - np.eye(n))
    if not n * defect <= PROJECTOR_TOL / 2:  # a NaN defect fails too
        raise ConvergenceFailure(
            f"eigenvector orthonormality defect {defect:.3e} above {PROJECTOR_TOL / 2 / n:.3e}"
        )
    order = np.argsort(raw, kind="stable")
    return raw[order], v[:, order]


def _span_projector(v: np.ndarray) -> np.ndarray:
    """Symmetrized projector V V* onto the span of the orthonormal columns of v."""
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def eigh(matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a self-adjoint matrix.

    Complex Jacobi iteration in round-robin order (see _jacobi). Sorted eigenvalues at
    most cluster_tol (default 1e-8) apart chain into one cluster (single linkage, so a
    cluster can span more than cluster_tol), eigenvalue set to their mean, so degenerate
    eigenspaces come out as single basis-independent projectors.

    The input is checked here, at HERMITIAN_TOL (a caller needing another tolerance passes
    ensure_hermitian(matrix, tol)), and the eigenvectors in _jacobi; the decomposition is
    built unchecked, since its projectors then pass every check of the public
    SpectralDecomposition constructor, and a mean kept inside its cluster keeps the
    eigenvalues strictly increasing.
    """
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    raw, vecs = _jacobi(ensure_hermitian(matrix))
    with np.errstate(over="ignore"):  # gaps and sums near the float64 limit may be inf
        cuts = np.flatnonzero(np.diff(raw) > cluster_tol) + 1
        values = [min(max(c.mean(), c[0]), c[-1]) for c in np.split(raw, cuts)]
    projectors = [_span_projector(v) for v in np.split(vecs, cuts, axis=1)]
    return SpectralDecomposition._trusted(values, projectors)


# Private forms trust projectors checked where they entered; public names validate once.


def _pair_meets(e: np.ndarray, f: np.ndarray, meet_tol: float) -> tuple[np.ndarray, ...]:
    """(e meet f, e' meet f', (e meet f') + (e' meet f)), e' = I - e, from one solve of e + f - I.

    Halmos: e + f - I is +1 on e meet f, -1 on e' meet f', 0 on the two cross meets, and
    +-cos t on a pair at principal angle t; 1 - cos t < meet_tol shares the line at +-1, and
    1 - sin t < meet_tol reads mu**2 < meet_tol * (2 - meet_tol) at 0. Each eigenvalue is
    classified on its own; nothing is clustered."""
    mu, vecs = _jacobi(e + f - np.eye(len(e)))
    masks = (1.0 - mu < meet_tol, 1.0 + mu < meet_tol, mu * mu < meet_tol * (2.0 - meet_tol))
    return tuple(_readonly(_span_projector(vecs[:, m])) for m in masks)


def _commutes(e: np.ndarray, f: np.ndarray, tol: float) -> bool:
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
