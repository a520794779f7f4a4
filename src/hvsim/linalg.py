"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigenpairs via complex Jacobi rotations in Brent-Luk round-robin order:
a sweep is n - 1 rounds (n for odd n), each rotating n/2 disjoint index pairs at once
by one dense unitary product, so every pair is rotated once per sweep. Only the public eigh
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
# the widest meet_tol at which the classes +1, -1 and 0 of _pair_meets stay disjoint: 1 - mu
# and mu**2 fall under it together iff (1 - meet_tol)**2 < meet_tol * (2 - meet_tol)
MEET_TOL_MAX = 1.0 - math.sqrt(0.5)
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


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norms of the members of a (k, n, n) stack, or the one norm of
    an (n, n) matrix, as a (k,) or (1,) array."""
    n = a.shape[-1]
    sq = (np.abs(a) ** 2).reshape(-1, n * n)
    sq[:, :: n + 1] = 0.0  # the diagonal
    return np.sqrt(sq.sum(axis=-1))


def _round_robin(n: int) -> np.ndarray:
    """Brent-Luk schedule: rounds of disjoint (p, q) index arrays, p < q, that together hold
    each pair once, as a (rounds, 2, n // 2) array. Odd n is padded by a dummy index n,
    which drops out of every pair it joins.

    With m = n + n % 2, round r pairs the hub m - 1 with r, and r + k with r - k (mod m - 1)
    for 0 < k < m/2. For odd n the hub is the dummy, so the hub's pair is left out."""
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(n % 2, m // 2)
    p = np.where(k == 0, m - 1, (r + k) % (m - 1))
    q = (r - k) % (m - 1)
    return np.sort(np.array((p, q)), axis=0).transpose(1, 0, 2)


def _refuse(a: np.ndarray, ids: np.ndarray, flags, message) -> ConvergenceFailure:
    """The error for the first member that flags marks: message(i) for position i of a
    stack whose members are ids, or message(0) for a single matrix."""
    i = int(np.argmax(flags))
    return ConvergenceFailure(("" if a.ndim == 2 else f"stack member {ids[i]}: ") + message(i))


def _jacobi(a: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvector columns of a, trusted Hermitian (n, n), or of
    each member of a (k, n, n) stack of them: (k, n) eigenvalues and (k, n, n) vectors.

    A sweep is one pass of the round-robin schedule; each round annihilates its disjoint
    pairs at once as a <- J* a J, v <- v J, with J the identity carrying one complex
    rotation block per pair (the identity block where a[p, q] is already 0). A stack
    rotates together, one batched product per round. A member converges when its
    off-diagonal Frobenius norm falls below JACOBI_OFF_TOL relative to its largest entry;
    it is then set aside untouched, so that every member's eigenpairs are bit for bit those
    of its own 2-D call. ConvergenceFailure, naming the member, follows JACOBI_MAX_SWEEPS
    sweeps; both are read at call time.

    The columns of v are checked once, here, so that projectors built from them need no
    check of their own. Raises ConvergenceFailure if anything is not finite (a NaN
    off-diagonal norm, an eigenvalue beyond the float64 range, a NaN defect) and, with
    E = V*V - I and d = max|E|, unless n d <= PROJECTOR_TOL / 2, for any member. For
    disjoint column sets S, T and P_S = V_S V_S*:
    - P_S P_S - P_S = V_S E_SS V_S* and P_S P_T = V_S E_ST V_T*. Each entry is at most
      |V|^2 |E| <= (1 + n d) n d < PROJECTOR_TOL (spectral norms; |E| <= n d bounds it by
      the Frobenius norm, and |V|^2 = |V*V| <= 1 + |E|). So P_S is idempotent within
      PROJECTOR_TOL and P_S, P_T are orthogonal within RESOLUTION_TOL.
    - The P_S of a partition of the columns sum to V V*, which is square and so shares the
      spectrum of V*V: each entry of V V* - I is within n d of 0, inside RESOLUTION_TOL.
    - trace P_S = |S| + trace E_SS is within n d of an integer, inside 1e-6.
    - Symmetrizing P_S makes it exactly Hermitian.
    Forming and checking the products rounds each entry by about n * 1e-16, far inside
    the factor-two margin. Observed defects are about 1e-14 at n = 48.

    Per-pair values are indexed through the reversed view a.T, whose leading axes are the
    matrix indices, so that a single matrix and a stack take the same numpy calls."""
    n = a.shape[-1]
    eye = np.eye(n, dtype=np.complex128) + np.zeros(a.shape, dtype=np.complex128)
    v = eye.copy()
    # one entry per member, (1,) for a single matrix, so that Python's all and any test them
    largest = np.abs(a).reshape(-1, n * n).max(axis=-1)
    threshold = JACOBI_OFF_TOL * np.maximum(1.0, largest)
    # rotate a copy of each member scaled exactly by 2**-e into max|a| < 1: near the float64
    # limit a rotation's hypot overflows, and the pair would be zeroed without being rotated
    e = np.maximum(0, np.frexp(largest)[1])
    a = a * np.ldexp(1.0, -e).reshape(a.shape[:-2] + (1, 1))
    scaled = np.ldexp(threshold, -e)
    schedule = _round_robin(n)
    p, q = schedule[:, 0], schedule[:, 1]
    # the (column, row) indices into J.T of J's block entries (p, p), (q, q), (p, q), (q, p),
    # and of the last two alone, which are zeroed in a after each product
    cols, rows = np.concatenate((p, q, q, p), axis=1), np.concatenate((p, q, p, q), axis=1)
    h = 2 * p.shape[1]
    rounds = list(zip(p, q, zip(cols, rows), zip(cols[:, h:], rows[:, h:])))
    ids, parked = np.arange(len(e)), []  # the members rotating, and those set aside

    sweeps = 0
    while not all(done := (off := _off_norm(a)) <= scaled):
        stuck = ~done if sweeps >= JACOBI_MAX_SWEEPS else np.isnan(off)
        if any(stuck):
            raise _refuse(a, ids, stuck, lambda i: (
                f"off-diagonal norm {np.ldexp(off[i], e[i]):.3e} above {threshold[i]:.3e} "
                f"(JACOBI_OFF_TOL {JACOBI_OFF_TOL:.0e} times the largest entry) after "
                f"{sweeps} sweeps (JACOBI_MAX_SWEEPS {JACOBI_MAX_SWEEPS})"))
        if any(done):  # a stack's converged members; a single matrix has left the loop
            parked.append((ids[done], a[done], v[done], e[done]))
            ids, a, v, e, threshold, scaled, eye = (
                x[~done] for x in (ids, a, v, e, threshold, scaled, eye))
        for p, q, blocks, pairs in rounds:
            apq = a.T[q, p]
            mag = np.abs(apq)
            live = mag != 0.0
            if not live.any():
                continue
            # t = sign(tau) / (|tau| + hypot(1, tau)) for tau = d / 2|a_pq|, multiplied
            # through by 2|a_pq| so that a tiny |a_pq| cannot overflow tau
            diag = a.diagonal(0, -2, -1).real.T
            d = diag[q] - diag[p]
            t = np.divide(np.copysign(2.0 * mag, d), np.abs(d) + np.hypot(d, 2.0 * mag),
                          out=np.zeros(mag.shape), where=live)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * np.divide(apq, mag, out=np.zeros(mag.shape, dtype=np.complex128),
                                  where=live)
            j = eye.copy()
            j.T[blocks] = np.concatenate((c, c, s, -s.conj()))
            a = j.conj().swapaxes(-1, -2) @ a @ j
            a.T[pairs] = 0.0
            v = v @ j
        a = (a + a.conj().swapaxes(-1, -2)) / 2.0
        sweeps += 1

    if parked:  # put the stack back in member order
        ids, a, v, e = (np.concatenate(x) for x in zip((ids, a, v, e), *parked))
        back = np.argsort(ids)
        ids, a, v, e = ids[back], a[back], v[back], e[back]
    with np.errstate(over="ignore"):
        raw = np.ldexp(a.diagonal(0, -2, -1).real, e.reshape(a.shape[:-2] + (1,)))
    infinite = ~np.isfinite(raw).reshape(-1, n)
    if infinite.any():
        raise _refuse(a, ids, infinite.any(axis=-1), lambda i: (
            f"non-finite eigenvalue {raw.reshape(-1, n)[i][infinite[i]][0]}"))
    defect = np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(n)).reshape(-1, n * n).max(axis=-1)
    orthonormal = n * defect <= PROJECTOR_TOL / 2  # a NaN defect fails
    if not all(orthonormal):
        raise _refuse(a, ids, ~orthonormal, lambda i: (
            f"eigenvector orthonormality defect {defect[i]:.3e} above "
            f"{PROJECTOR_TOL / 2 / n:.3e} (PROJECTOR_TOL / 2n)"))
    # sort each member's columns: raw[order] and v[:, order] for a single matrix, in the
    # same memory order; a stack indexes its members by ids as well
    order = np.argsort(raw, axis=-1, kind="stable")
    pick = (ids[:, None], order)[3 - a.ndim:]
    return raw[pick], v.swapaxes(-1, -2)[pick].swapaxes(-1, -2)


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
    For (k, n, n) stacks e and f, the k solves are one stacked _jacobi call, and each of the
    three is a (k, n, n) stack.

    Halmos: e + f - I is +1 on e meet f, -1 on e' meet f', 0 on the two cross meets, and
    +-cos t on a pair at principal angle t; 1 - cos t < meet_tol shares the line at +-1, and
    1 - sin t < meet_tol reads mu**2 < meet_tol * (2 - meet_tol) at 0. Each eigenvalue is
    classified on its own; nothing is clustered. Every meet path comes here, so meet_tol is
    checked here: the three classes are disjoint only for 0 < meet_tol <= MEET_TOL_MAX."""
    if not 0.0 < meet_tol <= MEET_TOL_MAX:  # NaN fails too
        raise ValueError(f"meet_tol must be in (0, 1 - 1/sqrt 2 = {MEET_TOL_MAX:.4g}], "
                         f"got {meet_tol!r}")
    n = e.shape[-1]
    mu, vecs = _jacobi(e + f - np.eye(n))
    masks = (1.0 - mu < meet_tol, 1.0 + mu < meet_tol, mu * mu < meet_tol * (2.0 - meet_tol))
    vecs = vecs.reshape(-1, n, n)
    return tuple(_readonly(np.reshape([_span_projector(v[:, m]) for v, m in
                                       zip(vecs, mask.reshape(-1, n))], e.shape))
                 for mask in masks)


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
