"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigenpairs (_jacobi) in two stages of complex Jacobi sweeps with Ogita-Aishima
refinement between them. A sweep is one pass of the Brent-Luk round-robin schedule: n - 1
rounds (n for odd n), each rotating n/2 disjoint index pairs at once by a sparse unitary J,
so every pair is rotated once per sweep. Two consecutive rounds apply together, by one
dense product with W = J1 J2, which has at most four nonzeros per column; the second
round's rotations come from entries of J1* a J1 formed as four-term sums. A sweep thus
makes about n/2 dense unitary products instead of n - 1 (R. P. Brent and F. T. Luk, SIAM
J. Sci. Stat. Comput. 6 (1985) 69-84; F. G. Van Zee, R. A. van de Geijn and G.
Quintana-Orti, ACM Trans. Math. Softw. 40 (2014) 18, for accumulating rotations first).
- The loose stage sweeps until the off-diagonal norm is about 2e-2 of the largest entry,
  before the last, quadratically convergent sweeps, which refinement replaces. From
  n = 32 (_SINGLE_MIN_N) it sweeps a complex64 copy, whose products cost about two thirds
  of complex128's there; its eigenvectors are checked at a bound scaled to complex64's
  roundoff, and every such member refines, from S = V*AV and R = I - V*V formed in double.
- Refinement then corrects the eigenvectors with matrix products only: each step forms
  R = I - X*X and S = X*AX and updates X <- X + X E, dividing by eigenvalue gaps outside an
  adaptive cluster radius delta = 2 (|offdiag S|_F + |A|_F |R|_F) and only making the
  vectors orthonormal within it (T. Ogita and K. Aishima, Japan J. Indust. Appl. Math. 35
  (2018) 1007-1035, and 36 (2019) 435-459 for clusters).
- The tight stage sweeps again, from (X*AX, X), to JACOBI_OFF_TOL; it resolves the
  rotations within clusters. Eigenvectors the refinement leaves off the orthonormality
  bound, in the Frobenius norm that the tight stage's rotations keep, are dropped, and
  that solve restarts the tight stage from the loose stage's result, or, from n = 32, from
  the unswept matrix, sweeping in double.
The sweep budget JACOBI_MAX_SWEEPS covers both stages; the non-finite refusals apply to
the final result, and the orthonormality bound to the loose stage's eigenvectors and the
final ones, of every solve and every stack member. Refinement and the tight stage run in
double at every n, so these final guarantees do not depend on the loose stage's precision.

Every projector made from a solve is spanned by one helper, _class_projectors, from a
class per ascending eigenpair: eigh's clusters and the meet classes of e + f - I
(_meet_classes). bell's CHSH terms span none: they read the meet classes' eigenvector
weights. bell's joint sectors come from no solve: it builds them from matrix products, a
pair's as purified polynomials in e + 2f and a quadruple's from its couples' pair sectors.
All values are immutable after construction; every public operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITIAN_TOL = 1e-10
PROJECTOR_TOL = 1e-9
# how far a projector's trace may lie from an integer
PROJECTOR_TRACE_TOL = 1e-6
CLUSTER_TOL = 1e-8
MEET_TOL = 1e-8
# the widest meet_tol at which the classes +1, -1 and 0 of _pair_meets stay disjoint: 1 - mu
# and mu**2 fall under it together iff (1 - meet_tol)**2 < meet_tol * (2 - meet_tol)
MEET_TOL_MAX = 1.0 - math.sqrt(0.5)
COMMUTE_TOL = 1e-9
RESOLUTION_TOL = 1e-8
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
# _jacobi's loose stage stops at this off-diagonal norm, relative like JACOBI_OFF_TOL; at
# most _REFINE_STEPS Ogita-Aishima steps follow, and a member stops refining after a
# correction of at most _STEP_TOL, whose square is below the unit roundoff. A step squares
# the error, so three or four take 2e-2 to rounding level; the rest of the budget is for
# pairs closer than the loose off-norm, which refinement only resolves once its cluster
# radius has shrunk below their gap.
_LOOSE_OFF_TOL = 2e-2
_REFINE_STEPS = 12
_STEP_TOL = math.sqrt(np.finfo(np.float64).eps)
# from this dimension on, _jacobi's loose stage sweeps a complex64 copy: a block's three
# products take 39 against 65 us at n = 48 and 20 against 29 us at n = 32, but 6.2 against
# 5.2 us at n = 4 (timeit, one BLAS thread), and whole n = 16 solves gain nothing
_SINGLE_MIN_N = 32


def max_abs(a: np.ndarray) -> float:
    """Entrywise max norm."""
    return float(np.max(np.abs(a)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array of finite entries, at least 1 x 1."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise DimensionMismatch(f"expected a matrix of dimension at least 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def ensure_hermitian(matrix, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check M = M* within tol (max norm, default 1e-10); return (M + M*)/2."""
    m = as_complex_matrix(matrix)
    defect = max_abs(m - m.conj().T)
    if not defect <= tol:  # NaN fails too
        raise NotHermitian(f"self-adjointness defect {defect:.3e} exceeds tol {tol:.1e}")
    return _readonly(m / 2.0 + m.conj().T / 2.0)  # halved first: m + M* can overflow


def ensure_projector(matrix, tol: float = PROJECTOR_TOL) -> np.ndarray:
    """Check Hermitian, idempotent within tol (default 1e-9), and a trace within
    PROJECTOR_TRACE_TOL of an integer."""
    p = ensure_hermitian(matrix, tol)
    defect = max_abs(p @ p - p)
    if not defect <= tol:  # NaN fails too
        raise ValueError(f"idempotence defect {defect:.3e} exceeds tol {tol:.1e}")
    trace = float(np.trace(p).real)
    if abs(trace - round(trace)) > PROJECTOR_TRACE_TOL:
        raise ValueError(f"projector trace {trace!r} is not near an integer")
    return p


@functools.lru_cache(maxsize=32)
def _checked_projector(shape: tuple, raw: bytes) -> np.ndarray:
    """ensure_projector of the complex128 matrix with this shape and these bytes, kept per
    content: a failed check raises and is not kept, and a kept result is read-only."""
    return ensure_projector(np.frombuffer(raw, dtype=np.complex128).reshape(shape))


def _ensure_projectors(*matrices) -> tuple[np.ndarray, ...]:
    """ensure_projector of each operand at PROJECTOR_TOL, in order, then one dimension.

    The bell layer hands the same four projectors to several calls of one analysis, so each
    check is kept by content (_checked_projector, the last 32): a matrix changed in place
    is a new key and is checked again."""
    ps = []
    for m in matrices:
        a = np.asarray(m, dtype=np.complex128)
        ps.append(_checked_projector(a.shape, a.tobytes()))
    dims = {p.shape[0] for p in ps}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands have mixed dimensions {sorted(dims)}")
    return tuple(ps)


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
    _jacobi has checked once, which is enough for all of the above (see _jacobi),
    or, for bell's joint sectors, from purified matrix products whose traces and
    label drift bell checks, and which resolve I by construction (see bell._joint_sectors).

    _fiber is hidden._fiber's slot: the fiber partition of the last state and weight_floor
    asked about, which equality and repr ignore.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    _fiber: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        projectors built from the columns of eigenvectors _jacobi has checked, and for
        bell's checked joint sectors (see the class docstring)."""
        dec = object.__new__(cls)
        object.__setattr__(dec, "eigenvalues", _readonly(np.array(eigenvalues, dtype=np.float64)))
        object.__setattr__(dec, "projectors", _readonly(np.array(projectors, dtype=np.complex128)))
        object.__setattr__(dec, "_fiber", None)
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
        """Per-eigenvalue probabilities <v, P_k v> / <v, v>, clipped to [0, 1]: at an
        eigenvector the quotient can round to 1 + 2**-52, which a weight_floor of 1 keeps."""
        if len(vector) != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim} vs state dim {len(vector)}")
        w = np.einsum("i,kij,j->k", vector.conj(), self.projectors, vector).real
        return np.clip(w / float(np.vdot(vector, vector).real), 0.0, 1.0)


def _squares(m: np.ndarray) -> np.ndarray:
    """|m|**2 entrywise, one row of n * n per member of a stack, or one for a matrix."""
    n = m.shape[-1]
    return (np.abs(m) ** 2).reshape(-1, n * n)


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norms of the members of a (k, n, n) stack, or the one norm of
    an (n, n) matrix, as a (k,) or (1,) array."""
    n = a.shape[-1]
    sq = _squares(a)
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


def _slots(p: np.ndarray, q: np.ndarray, n: int) -> tuple:
    """For a round of pairs (p, q): each index's partner, itself where idle, and the slots in
    _rotation's coefficient vector of its column's diagonal coefficient, off-diagonal
    coefficient and that one's conjugate, which are those of 1, 0 and 0 where idle."""
    h = len(p)
    k = 2 + np.arange(h)
    partner, diagonal = np.arange(n), np.zeros(n, dtype=int)
    off, off_conj = np.ones(n, dtype=int), np.ones(n, dtype=int)
    partner[p], partner[q] = q, p
    diagonal[p] = diagonal[q] = k
    off[p], off[q] = k + h, k + 2 * h
    off_conj[p], off_conj[q] = k + 3 * h, k + 4 * h
    return partner, diagonal, off, off_conj


@functools.lru_cache(maxsize=64)
def _rounds(n: int) -> tuple:
    """The plan of a sweep, built once per n: the rounds of _round_robin(n) in blocks of two
    consecutive rounds, a sweep's odd last round with an empty second, as flat indices into
    a row-major n * n matrix and slots of _rotation's coefficient vectors. Per block:
    - gather: the first round's (p, q), (p, p) and (q, q) entries of a;
    - terms, left, right: the second round's (p, q), (p, p) and (q, q) entries of J1* a J1
      are sums of four terms, since each column of J1 has two nonzeros; each term is an
      entry of a times a conjugated coefficient of J1 for its row and one for its column;
    - put, w_left, w_right: W = J1 J2, whose column j is J2[j, j] J1[:, j] + J2[m, j]
      J1[:, m] for j's partner m in the second round, has at most four nonzeros in it;
      each is a coefficient of the second round times one of the first;
    - zero: the (p, q) and (q, p) entries of the last round applied, which the block zeroes.
    An odd n's idle index has structural zeros in W (its partner is itself): the put leaves
    them out, so that no position of W repeats, and the sums give them a zero coefficient."""
    schedule = list(_round_robin(n))
    schedule += [(np.zeros(0, dtype=int),) * 2] * (len(schedule) % 2)
    col = np.arange(n)
    blocks = []
    for (p, q), (p2, q2) in zip(schedule[::2], schedule[1::2]):
        m, c, o, oc = _slots(p, q, n)
        m2, c2, o2, _ = _slots(p2, q2, n)
        i, j = np.concatenate((p2, p2, q2)), np.concatenate((q2, p2, q2))
        paired = m2 != col  # the indices the second round pairs
        kept = np.concatenate((np.ones(n, dtype=bool), m != col, paired, paired & (m[m2] != m2)))
        last = (p2, q2) if len(p2) else (p, q)
        blocks.append(tuple(_readonly(x) for x in (
            np.concatenate((p * n + q, p * (n + 1), q * (n + 1))),
            np.concatenate((i * n + j, i * n + m[j], m[i] * n + j, m[i] * n + m[j])),
            np.concatenate((c[i], c[i], oc[i], oc[i])),
            np.concatenate((c[j], o[j], c[j], o[j])),
            (np.concatenate((col, m, m2, m[m2])) * n + np.tile(col, 4))[kept],
            np.concatenate((c2, c2, o2, o2))[kept],
            np.concatenate((c, o, c[m2], o[m2]))[kept],
            np.concatenate((last[0] * n + last[1], last[1] * n + last[0])))))
    return tuple(blocks)


def _rotation(g: np.ndarray, unit: np.ndarray) -> tuple:
    """The rotations of a round's pairs from their gathered (a_pq, a_pp, a_qq), one row of
    3h per member, each the block [[c, s], [-conj(s), c]] of J at rows and columns (p, q)
    that annihilates a_pq (the identity block where a_pq is already 0). Returns the
    coefficient vector [1, 0, c, -conj(s), s, -s, conj(s)] that _slots indexes, the first
    two from unit, and whether each pair is live (a_pq != 0)."""
    h = g.shape[-1] // 3
    apq = g[..., :h]
    mag = np.abs(apq)
    live = mag != 0.0
    # t = sign(tau) / (|tau| + hypot(1, tau)) for tau = d / 2|a_pq|, multiplied through by
    # 2|a_pq| so that a tiny |a_pq| cannot overflow tau
    d = g[..., 2 * h:].real - g[..., h:2 * h].real
    twice = 2.0 * mag
    t = np.divide(np.copysign(twice, d), np.abs(d) + np.hypot(d, twice), out=np.zeros(mag.shape),
                  where=live)
    c = 1.0 / np.sqrt(1.0 + t * t)
    # the phase a_pq / |a_pq| part by part: a complex division would form 1 / |a_pq|, which
    # overflows for a subnormal |a_pq|
    phase = np.zeros(mag.shape, dtype=np.complex128)
    np.divide(apq.real, mag, out=phase.real, where=live)
    np.divide(apq.imag, mag, out=phase.imag, where=live)
    s = t * c * phase
    conj = s.conj()
    return np.concatenate((unit, c, -conj, s, -s, conj), axis=-1), live


def _sweep(a: np.ndarray, v: np.ndarray, rounds) -> tuple:
    """One pass of the round-robin schedule over a and its eigenvector estimate v. Each
    round annihilates its disjoint pairs at once by J, the identity carrying one rotation
    block per pair; rounds apply two at a time, as a <- W* a W, v <- v W with W = J1 J2:
    J1's rotations come from a, and J2's from the entries of J1* a J1 they need, formed
    from a as four-term sums. W is sparse, so a block costs the three dense products of
    one round, and a sweep of n - 1 rounds (n for odd n) about n/2 blocks. The last round
    applied has its pairs zeroed. Returns a symmetrized, and v. W takes a's dtype, so a
    complex64 a and v sweep in complex64, with rotations computed from its complex64
    entries.

    rounds is _rounds(n). Per-pair values are gathered from, and put into, the flat last
    axis of a and W, so that a single matrix and a stack take the same numpy calls."""
    flat = a.shape[:-2] + (-1,)
    unit = np.zeros(a.shape[:-2] + (2,))
    unit[..., 0] = 1.0
    for gather, terms, left, right, put, w_left, w_right, zero in rounds:
        first, live = _rotation(a.reshape(flat)[..., gather], unit)
        # a sweep's odd last round is alone: J2 = I, whose diagonal slots all read unit's 1
        second, live2 = unit, live[..., :0]
        if len(terms):
            parts = first[..., left] * first[..., right] * a.reshape(flat)[..., terms]
            second, live2 = _rotation(parts.reshape(flat[:-1] + (4, -1)).sum(axis=-2), unit)
        if not (live.any() or live2.any()):
            continue
        w = np.zeros(a.shape, dtype=a.dtype)
        w.reshape(flat)[..., put] = second[..., w_left] * first[..., w_right]
        a = w.conj().swapaxes(-1, -2) @ a @ w
        a.reshape(flat)[..., zero] = 0.0
        v = v @ w
    return (a + a.conj().swapaxes(-1, -2)) / 2.0, v


def _member_order(ids: np.ndarray, parked: list, *arrays) -> tuple:
    """The rows of arrays, for the members ids of a stack still in a loop, joined with those
    of the (ids, *arrays) tuples parked, set aside from it, and put back in member order."""
    if not parked:
        return arrays
    ids, *arrays = (np.concatenate(x) for x in zip((ids, *arrays), *parked))
    back = np.argsort(ids)
    return tuple(x[back] for x in arrays)


def _sweep_until(a, v, limit, sweeps, rounds, e, threshold) -> tuple:
    """Sweep a and v, one matrix or a stack, until each member's off-diagonal norm is at
    most its entry of limit; sweeps holds the sweeps each member has had so far. A member
    that meets its limit is set aside untouched.
    Returns a, v, sweeps and the off-diagonal norms, in member order.

    Raises ConvergenceFailure, naming the member, at a NaN off-diagonal norm, or when a
    member that has had JACOBI_MAX_SWEEPS sweeps is still above its limit; the message
    gives the norm unscaled by 2**e and the member's threshold."""
    ids, parked = np.arange(len(limit)), []
    while not all(done := (off := _off_norm(a)) <= limit):
        stuck = np.isnan(off) | ~done & (sweeps >= JACOBI_MAX_SWEEPS)
        if any(stuck):
            raise _refuse(a, ids, stuck, lambda i: (
                f"off-diagonal norm {np.ldexp(off[i], e[ids[i]]):.3e} above "
                f"{threshold[ids[i]]:.3e} (JACOBI_OFF_TOL {JACOBI_OFF_TOL:.0e} times the "
                f"largest entry) after {sweeps[i]} sweeps (JACOBI_MAX_SWEEPS "
                f"{JACOBI_MAX_SWEEPS})"))
        if any(done):  # a stack's converged members; a single matrix has left the loop
            parked.append((ids[done], a[done], v[done], sweeps[done], off[done]))
            ids, a, v, sweeps, limit = (x[~done] for x in (ids, a, v, sweeps, limit))
        a, v = _sweep(a, v, rounds)
        sweeps = sweeps + 1
    return _member_order(ids, parked, a, v, sweeps, off)


def _orthonormality(a: np.ndarray, v: np.ndarray, precision=np.complex128) -> np.ndarray:
    """I - V*V for v, one matrix or a stack, after refusing every member with
    n max|V*V - I| above PROJECTOR_TOL / 2 (a NaN defect fails), naming the first.

    For eigenvectors rotated in complex64 (precision) and lifted to complex128, the bound
    is as many of complex64's unit roundoffs: PROJECTOR_TOL / 2 times 2**29, the ratio of
    the two roundoffs, about 0.27. That passes any product of rotations made in complex64,
    and refuses a NaN or a broken rotation."""
    n = v.shape[-1]
    ratio = np.finfo(precision).eps / np.finfo(np.complex128).eps
    r = np.eye(n) - v.conj().swapaxes(-1, -2) @ v
    defect = np.abs(r).reshape(-1, n * n).max(axis=-1)
    orthonormal = n * defect <= PROJECTOR_TOL / 2 * ratio
    if not all(orthonormal):
        raise _refuse(a, np.arange(len(defect)), ~orthonormal, lambda i: (
            f"eigenvector orthonormality defect {defect[i]:.3e} above "
            f"{PROJECTOR_TOL / 2 * ratio / n:.3e} (PROJECTOR_TOL / 2n"
            + ("" if ratio == 1 else f" times {ratio:.0f}, for complex64 rotations") + ")"))
    return r


def _refine(a: np.ndarray, x: np.ndarray, s: np.ndarray, r: np.ndarray, done: np.ndarray
            ) -> tuple:
    """Ogita-Aishima refinement of the eigenvector estimates x of a, trusted Hermitian, one
    matrix or a stack. s and r are the first step's S and R: the loose stage's rotated
    matrix, which is x* a x up to the rounding of its rotations (after a complex64 loose
    stage, x* a x itself, formed in double), and I - x* x. done, (1,)
    for a single matrix, marks the members the loose stage left at the tight threshold,
    which are not refined. Returns (x* a x symmetrized, the refined x, |I - x* x|_F, the
    steps taken) for the refined x, one per member; a member marked done returns its own s,
    x and defect, and 0 steps.

    A step sets x <- x + x F from R = I - x* x and S = x* a x, with the eigenvalue
    estimates l_i = s_ii / (1 - r_ii) and the cluster radius
    delta = 2 (|offdiag S|_F + |a|_F |R|_F):
    F_ij = (s_ij + l_j r_ij) / (l_j - l_i) where |l_j - l_i| > delta, and r_ij / 2 for the
    pairs within delta, the diagonal among them. Outside the clusters the error is squared
    at each step; within a cluster a step only makes x orthonormal, and leaves the
    cluster's rotation to the tight stage. A member stops once a step has applied an F of
    at most _STEP_TOL, whose square is below the unit roundoff, or after _REFINE_STEPS
    steps. A stack's member is parked, set aside untouched, before the first step that it
    does not take, as in _sweep_until, so that each member's result and work are those of
    its own refinement."""
    n = a.shape[-1]
    eye = np.eye(n)
    size = np.sqrt(_squares(a).sum(axis=-1))
    ids, parked, steps = np.arange(len(done)), [], np.zeros(len(done), dtype=int)
    for _ in range(_REFINE_STEPS):
        if all(done):
            break
        if any(done):  # a stack's stopped members; a single matrix has left the loop
            parked.append((ids[done], s[done], x[done], r[done], steps[done]))
            ids, a, x, s, r, size, steps = (y[~done] for y in (ids, a, x, s, r, size, steps))
        lam = s.diagonal(0, -2, -1).real / (1.0 - r.diagonal(0, -2, -1).real)
        radius = 2.0 * (_off_norm(s) + size * np.sqrt(_squares(r).sum(axis=-1)))
        right = lam[..., None, :]
        gap = right - lam[..., :, None]  # l_j - l_i at [i, j]
        f = np.divide(s + right * r, gap, out=r / 2.0,
                      where=np.abs(gap) > radius.reshape(s.shape[:-2] + (1, 1)))
        x = x + x @ f
        done = np.abs(f).reshape(-1, n * n).max(axis=-1) <= _STEP_TOL
        xh = x.conj().swapaxes(-1, -2)
        r = eye - xh @ x
        s = xh @ (a @ x)
        steps = steps + 1
    s, x, r, steps = _member_order(ids, parked, s, x, r, steps)
    return (s + s.conj().swapaxes(-1, -2)) / 2.0, x, np.sqrt(_squares(r).sum(axis=-1)), steps


class _Work(NamedTuple):
    """What a _jacobi call did, one entry per stack member, or one for a single matrix: the
    loose stage's sweeps, the refinement steps, the tight stage's sweeps, and whether the
    tight stage restarted from the loose result because the refined eigenvectors missed the
    orthonormality bound. A member that restarts after a complex64 loose stage sweeps from
    the unswept matrix in double, and those sweeps count as tight ones."""

    loose_sweeps: np.ndarray
    steps: np.ndarray
    tight_sweeps: np.ndarray
    restarted: np.ndarray


def _jacobi(a: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvector columns of a, trusted Hermitian (n, n), or of
    each member of a (k, n, n) stack of them: (k, n) eigenvalues and (k, n, n) vectors; and
    the _Work record of the solve, counted where the work is done, in member order.

    Each member is solved in three stages, all on a copy scaled exactly by 2**-e into
    max|a| < 1 (near the float64 limit a rotation's hypot overflows, and the pair would be
    zeroed without being rotated):
    - Loose stage: round-robin sweeps (_sweep) until the member's off-diagonal Frobenius
      norm is at most _LOOSE_OFF_TOL times max(1, its largest entry). A member already at
      the tight threshold below, such as any n = 2 or diagonal input, is done here, with
      the bits of a plain Jacobi solve. From n = _SINGLE_MIN_N = 32 the stage sweeps a
      complex64 copy of the scaled matrix, and V is lifted to complex128 after it; its
      eigenvectors are checked at PROJECTOR_TOL / 2 times 2**29, as many of complex64's
      roundoffs (_orthonormality), which refuses a NaN or a broken rotation before
      refinement. A complex64 off-norm cannot certify the tight threshold, so each such
      member refines, from S = V* A V and R = I - V* V formed in double; only one the
      stage left unswept, whose V = I and S = A are exact, can be done here.
    - Refinement: Ogita-Aishima steps on the loose eigenvectors, with the adaptive cluster
      radius (_refine), made of matrix products only. Pairs closer than the radius, such
      as the members of a cluster, are only made orthonormal.
    - Tight stage: sweeps again, from (X* A X, X) for the refined X, until the off-diagonal
      norm is at most JACOBI_OFF_TOL times max(1, the largest entry); this resolves the
      rotations within clusters. X is kept only when n |I - X* X|_F <= PROJECTOR_TOL / 2:
      the tight stage's rotations W map E = X* X - I to W* E W, which keeps |E|_F but can
      raise max|E| up to n-fold. Otherwise the member restarts here from the loose stage's
      own (a, v): one select per member picks the refined pair or the loose one. After a
      complex64 loose stage the loose pair is (A, I), never the complex64 result, so a
      member restarting from it sweeps in double all the way to the tight threshold.
    A stack sweeps and refines with batched products. A member that meets a stage's
    threshold, or stops refining, is set aside untouched in that step, and the stack is
    put back in member order after each loop (_member_order), so that every member's
    eigenpairs, and its sweeps and refinement steps, are those of its own 2-D call.
    ConvergenceFailure, naming the member, follows JACOBI_MAX_SWEEPS sweeps of both
    stages together; both are read at call time.
    See T. Ogita and K. Aishima, "Iterative refinement for symmetric eigenvalue
    decomposition", Japan J. Indust. Appl. Math. 35 (2018) 1007-1035, and "... II:
    clustered eigenvalues", Japan J. Indust. Appl. Math. 36 (2019) 435-459.

    The columns of v are checked here (_orthonormality), so that projectors built from
    them need no check of their own: the loose stage's, before refinement could repair a
    defect of the rotations, and the final ones wherever the tight stage rotated them (a
    refined X is kept only within the Frobenius form of the same bound, which those
    rotations keep). Raises ConvergenceFailure if anything is not finite (a NaN
    off-diagonal norm, an eigenvalue beyond the float64 range, a NaN defect) and, with
    E = V*V - I and d = max|E|, unless n d <= PROJECTOR_TOL / 2, for any member. For
    disjoint column sets S, T and P_S = V_S V_S*:
    - P_S P_S - P_S = V_S E_SS V_S* and P_S P_T = V_S E_ST V_T*. Each entry is at most
      |V|^2 |E| <= (1 + n d) n d < PROJECTOR_TOL (spectral norms; |E| <= n d bounds it by
      the Frobenius norm, and |V|^2 = |V*V| <= 1 + |E|). So P_S is idempotent within
      PROJECTOR_TOL and P_S, P_T are orthogonal within RESOLUTION_TOL.
    - The P_S of a partition of the columns sum to V V*, which is square and so shares the
      spectrum of V*V: each entry of V V* - I is within n d of 0, inside RESOLUTION_TOL.
    - trace P_S = |S| + trace E_SS is within n d of an integer, inside PROJECTOR_TRACE_TOL.
    - Symmetrizing P_S makes it exactly Hermitian.
    Forming and checking the products rounds each entry by about n * 1e-16, far inside
    the factor-two margin. Observed defects are about 1e-14 at n = 48. None of this rests
    on the loose stage's precision: every V returned is a refined X within the Frobenius
    bound, or the result of double-precision sweeps checked above; the complex64 loose
    eigenvectors (n max|I - V* V| up to about 8e-5 at n = 64) are never returned."""
    n = a.shape[-1]
    # one entry per member, (1,) for a single matrix, so that Python's all and any test them
    largest = np.abs(a).reshape(-1, n * n).max(axis=-1)
    threshold = JACOBI_OFF_TOL * np.maximum(1.0, largest)
    e = np.maximum(0, np.frexp(largest)[1])
    a = a * np.ldexp(1.0, -e).reshape(a.shape[:-2] + (1, 1))
    tight = np.ldexp(threshold, -e)
    rounds = _rounds(n)
    eye = np.eye(n, dtype=np.complex128) + np.zeros(a.shape, dtype=np.complex128)
    loose = np.ldexp(_LOOSE_OFF_TOL * np.maximum(1.0, largest), -e)
    precision = np.complex64 if n >= _SINGLE_MIN_N else np.complex128
    rotated, v, loose_sweeps, off = _sweep_until(
        a.astype(precision, copy=False), eye.astype(precision, copy=False), loose,
        np.zeros(len(e), dtype=int), rounds, e, threshold)
    v = v.astype(np.complex128, copy=False)
    r = _orthonormality(a, v, precision)
    s, x = rotated, v
    if precision is np.complex64:
        # S = V* A V in double. A complex64 off-norm cannot certify the tight threshold, so
        # every member refines, but one the loose stage left unswept: its V = I and S = A
        # are exact, and so is its off-norm. The fallback is never the complex64 result but
        # (A, I): a member restarting from it sweeps in double to the tight threshold
        s = v.conj().swapaxes(-1, -2) @ (a @ v)
        off = np.where(loose_sweeps == 0, _off_norm(s), np.inf)
        rotated, v = a, eye
    met = off <= tight  # such as any n = 2 or diagonal member
    sweeps, steps, restarted = loose_sweeps, np.zeros(len(e), dtype=int), np.zeros(len(e), bool)
    if not all(met):
        s, x, defect, steps = _refine(a, x, s, r, met)
        # a refined member within the orthonormality bound goes on from its refined pair;
        # one that misses it (a NaN defect fails too), and one already met, from the loose
        # stage's pair, or from (A, I) after a complex64 loose stage
        kept = ~met & (n * defect <= PROJECTOR_TOL / 2)
        restarted = ~(met | kept)
        kept = kept.reshape(a.shape[:-2] + (1, 1))
        rotated, v = np.where(kept, s, rotated), np.where(kept, x, v)
        rotated, v, sweeps, _ = _sweep_until(rotated, v, tight, sweeps, rounds, e, threshold)
        if any(sweeps > loose_sweeps):  # the rest are as refined, within the bound above
            _orthonormality(a, v)
    work = _Work(loose_sweeps, steps, sweeps - loose_sweeps, restarted)
    ids = np.arange(len(e))
    with np.errstate(over="ignore"):
        raw = np.ldexp(rotated.diagonal(0, -2, -1).real, e.reshape(a.shape[:-2] + (1,)))
    infinite = ~np.isfinite(raw).reshape(-1, n)
    if infinite.any():
        raise _refuse(a, ids, infinite.any(axis=-1), lambda i: (
            f"non-finite eigenvalue {raw.reshape(-1, n)[i][infinite[i]][0]}"))
    # sort each member's columns: raw[order] and v[:, order] for a single matrix, in the
    # same memory order; a stack indexes its members by ids as well
    order = np.argsort(raw, axis=-1, kind="stable")
    pick = (ids[:, None], order)[3 - a.ndim:]
    return raw[pick], v.swapaxes(-1, -2)[pick].swapaxes(-1, -2), work


def _class_projectors(vecs: np.ndarray, classes: np.ndarray, keys) -> list[np.ndarray]:
    """Symmetrized V_c V_c* for each class c in keys, V_c the columns of vecs that classes
    labels c (0 for none). The labels must be non-decreasing, as each caller's labels of
    _jacobi's ascending eigenvalues are, so that V_c is a view of adjacent columns."""
    projectors = []
    for lo, hi in zip(*(np.searchsorted(classes, keys, side) for side in ("left", "right"))):
        p = vecs[:, lo:hi] @ vecs[:, lo:hi].conj().T
        projectors.append((p + p.conj().T) / 2.0)
    return projectors


def _check_range(ranges: dict, name: str, value: float) -> None:
    """Refuse tolerance `name` outside its range in `ranges`, a map of (test, wording), with
    a ValueError in that wording; every test fails on NaN. Each module states the ranges its
    calls read, and hv refuses a problem file's tolerance from the same statement."""
    admits, wording = ranges[name]
    if not admits(value):
        raise ValueError(f"{name} {wording}, got {value!r}")


# the tolerance ranges eigh and _pair_meets read: single linkage cuts only at a positive gap,
# and _pair_meets' three classes are disjoint only up to MEET_TOL_MAX
_TOL_RANGES = {
    "cluster_tol": (lambda tol: tol > 0, "must be positive"),
    "meet_tol": (lambda tol: 0.0 < tol <= MEET_TOL_MAX,
                 f"must be in (0, 1 - 1/sqrt 2 = {MEET_TOL_MAX:.4g}]"),
}


def eigh(matrix, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a self-adjoint matrix.

    Complex Jacobi iteration in round-robin order (see _jacobi). Sorted eigenvalues at
    most cluster_tol (default 1e-8) apart chain into one cluster (single linkage, so a
    cluster can span more than cluster_tol), eigenvalue set to their mean and projector
    spanned by _class_projectors, so degenerate eigenspaces come out as single
    basis-independent projectors.

    The input is checked here, at HERMITIAN_TOL (a caller needing another tolerance passes
    ensure_hermitian(matrix, tol)), and the eigenvectors in _jacobi; the decomposition is
    built unchecked, since its projectors then pass every check of the public
    SpectralDecomposition constructor, and a mean kept inside its cluster keeps the
    eigenvalues strictly increasing.
    """
    _check_range(_TOL_RANGES, "cluster_tol", cluster_tol)
    raw, vecs, _ = _jacobi(ensure_hermitian(matrix))
    with np.errstate(over="ignore"):  # gaps and sums near the float64 limit may be inf
        cuts = np.flatnonzero(np.diff(raw) > cluster_tol) + 1
        values = [min(max(c.mean(), c[0]), c[-1]) for c in np.split(raw, cuts)]
    clusters = np.searchsorted(cuts, np.arange(len(raw)), "right")  # each column's cluster
    projectors = _class_projectors(vecs, clusters, range(len(values)))
    return SpectralDecomposition._trusted(values, projectors)


# Private forms trust projectors checked where they entered; public names validate once.


def _meet_classes(e: np.ndarray, f: np.ndarray, meet_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The meet class of each ascending eigenpair of e + f - I, and its eigenvectors, from one
    solve: (n,) classes and (n, n) columns, or (k, n) and (k, n, n) for (k, n, n) stacks e and
    f, whose k solves are one stacked _jacobi call.

    Halmos: e + f - I is +1 on e meet f, -1 on e' meet f', 0 on the two cross meets, and
    +-cos t on a pair at principal angle t; 1 - cos t < meet_tol shares the line at +-1, and
    1 - sin t < meet_tol reads mu**2 < meet_tol * (2 - meet_tol) at 0. So the classes are 2
    on e meet f, -2 on e' meet f', 0 on the cross meets and +-1 between, non-decreasing along
    ascending mu. Each eigenvalue is classified on its own; nothing is clustered. Every meet
    path comes here, so meet_tol is checked here: the three classes are disjoint only for
    0 < meet_tol <= MEET_TOL_MAX."""
    _check_range(_TOL_RANGES, "meet_tol", meet_tol)
    mu, vecs, _ = _jacobi(e + f - np.eye(e.shape[-1]))
    classes = (np.where(mu * mu < meet_tol * (2.0 - meet_tol), 0.0, np.sign(mu))
               + (1.0 - mu < meet_tol) - (1.0 + mu < meet_tol))
    return classes, vecs


def _pair_meets(e: np.ndarray, f: np.ndarray, meet_tol: float) -> tuple[np.ndarray, ...]:
    """(e meet f, e' meet f', (e meet f') + (e' meet f)), e' = I - e, spanned by
    _class_projectors from the classes 2, -2 and 0 of _meet_classes, for one pair. The public
    meets and correlation_operator span their projectors here; bell's CHSH terms read the
    same solve's eigenvector weights instead (see bell._chsh_terms)."""
    classes, vecs = _meet_classes(e, f, meet_tol)
    return tuple(map(_readonly, _class_projectors(vecs, classes, (2, -2, 0))))


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
