"""Meet-based correlation operators, the CHSH functional, and the boolean side.

Two couples of projectors define four correlation operators, each from the meets of
a cross pair, which one eigensolve of e + f - I gives; the CHSH terms, their
expectations, are read off that solve's eigenvector weights without spanning the meets.
The CHSH combination of the terms is bounded by 2 whenever the couples come from
propositions over one shared backing, because the corresponding fiber functions satisfy a
pointwise identity. Commuting projectors admit such propositions constructively via a joint
relabeling: the spectral projectors of sum(2^k P_k) at its integer labels. These come from
matrix products alone, with no eigensolve: a pair's four as Lagrange cubics in e + 2f
purified by McWeeny steps, and a quadruple's sixteen as products of two commuting couples'
pair sectors, rebuilt after one first-order perturbation step toward the spectral projectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .borel import BorelSet
from .errors import BackingMismatch, DegenerateLabeling, DimensionMismatch, NotCommuting, OutOfDomain
from .linalg import (
    COMMUTE_TOL,
    MEET_TOL,
    PROJECTOR_TRACE_TOL,
    SpectralDecomposition,
    _check_range,
    _commutes,
    _ensure_projectors,
    _meet_classes,
    _pair_meets,
    _readonly,
    _squares,
    max_abs,
)
from .quantum import SNAP_TOL, PureState, _event_projectors, _event_table, _projector_sums
from .hidden import WEIGHT_FLOOR, Proposition, _check_cuts, _fiber

SECTOR_SNAP_TOL = 1e-6
# the widest sector_snap_tol at which the purified joint sectors keep the projector checks:
# a pair's, at a label drift d, are idempotent within 2187 d^4 (see _pair_sectors), 1.4e-10
# here, and a quadruple's are products of two commuting couples' pair sectors
SECTOR_SNAP_TOL_MAX = 5e-4
# the range _joint_sectors reads sector_snap_tol in, as linalg._check_range takes it
_TOL_RANGES = {"sector_snap_tol": (lambda tol: 0.0 <= tol <= SECTOR_SNAP_TOL_MAX,
                                   f"must be in [0, {SECTOR_SNAP_TOL_MAX:.0e}]")}
HOMOMORPHISM_TOL = 1e-8


def _correlation(e: np.ndarray, f: np.ndarray, meet_tol: float) -> np.ndarray:
    both, neither, cross = _pair_meets(e, f, meet_tol)
    return _readonly(both + neither - cross)


def correlation_operator(e, f, meet_tol: float = MEET_TOL) -> np.ndarray:
    """Sector-signed sum of the four meets of a projector pair and its complements,
    (e and f) + (not-e and not-f) - (not-e and f) - (e and not-f): P(+1) + P(-1) - P0
    in the spectrum of e + f - I. Validates e and f."""
    return _correlation(*_ensure_projectors(e, f), meet_tol)


def _chsh_terms(es, fs, vector: np.ndarray, meet_tol: float) -> np.ndarray:
    """2x2 expectations of the correlation operators of (e, f) for e in es, f in fs, whose
    four e + f - I are solved as one stack.

    Each term is read off that solve's eigenvectors v_j rather than off the operator: with
    sign s_j = +1 on the meet classes +-2, -1 on class 0 and 0 between (_meet_classes),
    <psi, T psi> = sum_j s_j |<v_j, psi>|**2, since <psi, V_c V_c* psi> = |V_c* psi|**2 for
    the columns V_c of each class. The identity holds for any V, so this and the expectation
    of correlation_operator's spanned projectors differ only by rounding; the orthonormality
    defect that _jacobi bounds (n d <= PROJECTOR_TOL / 2) sets how far both lie from the
    exact meets' expectation, alike."""
    e, f = np.array([(a, b) for a in es for b in fs]).swapaxes(0, 1)
    classes, vecs = _meet_classes(e, f, meet_tol)
    signs = np.where(classes == 0, -1.0, np.abs(classes) == 2)
    weights = np.abs(vector.conj() @ vecs) ** 2
    return (signs * weights).sum(axis=-1).reshape(2, 2)


def _chsh_combination(t: np.ndarray) -> float:
    """|t00 - t01| + |t10 + t11|, the CHSH combination of a 2x2 array of terms."""
    return float(abs(t[0, 0] - t[0, 1]) + abs(t[1, 0] + t[1, 1]))


@dataclass(frozen=True)
class ChshConfig:
    """Two couples of projectors, validated on construction, plus the state to evaluate at.
    chsh_terms keeps the terms it solves in _terms, keyed by meet_tol."""

    e1: np.ndarray
    e2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    state: PureState
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("e1", "e2", "f1", "f2")
        ps = _ensure_projectors(*(getattr(self, name) for name in names))
        for name, p in zip(names, ps):
            object.__setattr__(self, name, p)
        n = ps[0].shape[0]
        if n != self.state.dim:
            raise DimensionMismatch(f"projector dim {n} vs state dim {self.state.dim}")

    def couples(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        return (self.e1, self.e2), (self.f1, self.f2)


def chsh_terms(cfg: ChshConfig, meet_tol: float = MEET_TOL) -> np.ndarray:
    """2x2 array of correlation expectations, indexed by (couple one, couple two).

    Solved once per config and meet_tol: the config keeps the terms, and each call returns
    a copy of them."""
    terms = cfg._terms.get(meet_tol)
    if terms is None:
        terms = _chsh_terms(*cfg.couples(), cfg.state.vector, meet_tol)
        cfg._terms[meet_tol] = _readonly(terms)
    return terms.copy()


def chsh_value(cfg: ChshConfig, meet_tol: float = MEET_TOL) -> float:
    """|<T11> - <T12>| + |<T21> + <T22>| at the configured state."""
    return _chsh_combination(chsh_terms(cfg, meet_tol))


def _same_backing(a: SpectralDecomposition, b: SpectralDecomposition) -> bool:
    """One decomposition, or two bit-equal ones (eigh is deterministic, so two solves of
    one operator agree); a decomposition of any other operator is another backing."""
    return a is b or (np.array_equal(a.eigenvalues, b.eigenvalues)
                      and np.array_equal(a.projectors, b.projectors))


@dataclass(frozen=True)
class PropositionQuadruple:
    """Two couples of propositions over one shared backing, so every boolean
    combination of them is again a proposition."""

    a1: Proposition
    a2: Proposition
    b1: Proposition
    b2: Proposition

    def __post_init__(self):
        ref = self.a1.backing
        for name in ("a2", "b1", "b2"):
            if not _same_backing(ref, getattr(self, name).backing):
                raise BackingMismatch(f"proposition {name} has a different backing")

    @property
    def backing(self) -> SpectralDecomposition:
        return self.a1.backing

    def projectors(self, snap_tol: float = SNAP_TOL) -> tuple[np.ndarray, ...]:
        """The four from one table (_event_table): one differs from its spectral_projector only
        where another's endpoint lies nearer an eigenvalue, within snap_tol."""
        events = [p.borel for p in (self.a1, self.a2, self.b1, self.b2)]
        return tuple(_readonly(_event_projectors(self.backing, events, snap_tol)))

    def config(self, state: PureState, snap_tol: float = SNAP_TOL) -> ChshConfig:
        e1, e2, f1, f2 = self.projectors(snap_tol)
        return ChshConfig(e1, e2, f1, f2, state)


@dataclass(frozen=True)
class FiberChshFunctions:
    """The four +-1 step functions of a quadruple on one fiber, on a shared partition.

    signs[i, j, k] is the value of function (i, j) on the cell
    (cuts[k], cuts[k+1]]; lengths are the cell measures.
    """

    cuts: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        cuts = np.array(self.cuts, dtype=np.float64)
        signs = np.array(self.signs, dtype=np.int8)
        if signs.shape != (2, 2, len(cuts) - 1):
            raise ValueError("signs must be (2, 2, cells)")
        _check_cuts(cuts)
        object.__setattr__(self, "cuts", _readonly(cuts))
        object.__setattr__(self, "signs", _readonly(signs))

    def lengths(self) -> np.ndarray:
        return np.diff(self.cuts)

    def evaluate(self, i: int, j: int, t: float) -> int:
        if not 0.0 < t < 1.0:
            raise OutOfDomain(f"fiber coordinate {t!r} outside (0, 1)")
        cell = int(np.searchsorted(self.cuts, t, side="left")) - 1
        return int(self.signs[i, j, cell])

    def pointwise_identity_holds(self) -> bool:
        """|f11 - f12| + |f21 + f22| equals 2 on every cell, in exact integer arithmetic."""
        s = self.signs.astype(np.int64)
        combo = np.abs(s[0, 0] - s[0, 1]) + np.abs(s[1, 0] + s[1, 1])
        return bool(np.all(combo == 2))

    def integrals(self) -> np.ndarray:
        """2x2 array of fiber integrals of the four step functions."""
        return (self.signs.astype(np.float64) * self.lengths()).sum(axis=2)

    def chsh_value(self) -> float:
        return _chsh_combination(self.integrals())


def fiber_chsh_functions(
    quad: PropositionQuadruple,
    state: PureState,
    snap_tol: float = SNAP_TOL,
    weight_floor: float = WEIGHT_FLOOR,
) -> FiberChshFunctions:
    """Restrict the quadruple's four correlation functions to the fiber of a state, on the
    cells of the eigenvalues weighing more than weight_floor (default 1e-12)."""
    dec = quad.backing
    kept, step = _fiber(dec, state, weight_floor)
    events = [p.borel for p in (quad.a1, quad.a2, quad.b1, quad.b2)]
    sides = np.where(_event_table(events, dec.eigenvalues, snap_tol)[:, kept], 1, -1)
    return FiberChshFunctions(step.cuts, sides[:2, None] * sides[None, 2:])


def _commutation(projectors: dict[str, np.ndarray], tol: float) -> dict[tuple[str, str], bool]:
    """Whether each pair of named projectors commutes, keyed by name pair in input order."""
    return {(a, b): _commutes(p, q, tol) for (a, p), (b, q) in combinations(projectors.items(), 2)}


@lru_cache(maxsize=8)
def _sector_events(count: int) -> tuple[BorelSet, ...]:
    """For k < count, the labels 0..2^count - 1 with bit k set, as a set of points. Kept per
    count, so the propositions of every joint sector build of one size share these sets."""
    return tuple(BorelSet.points([float(m) for m in range(2**count) if m & (1 << k)])
                 for k in range(count))


# six times the Lagrange cubics on the nodes 0..3, one row per label, as coefficients of
# 1, x, x^2 and x^3: integers, so the contraction rounds only its sums and the division by 6
_LAGRANGE = np.array([[6.0, -11.0, 6.0, -1.0],
                      [0.0, 18.0, -15.0, 3.0],
                      [0.0, -9.0, 12.0, -3.0],
                      [0.0, 2.0, -3.0, 1.0]])
_MCWEENY_STEPS = 2
# 1 / (l - m) off the diagonal and 0 on it, for the labels 0..15: row l holds the
# coefficients of R_l (see _quadruple_sectors)
_REDUCED = 1.0 / (np.subtract.outer(np.arange(16.0), np.arange(16.0)) + np.eye(16)) - np.eye(16)
# the couples' labels a and b of each label l = a + 4b, one row each
_COUPLE_LABELS = np.array([np.arange(16.0) % 4, np.arange(16.0) // 4])


def _contract(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_m c[l, m] p_m for a real (L, M) matrix c and a stack p of (m, M, n, n), by one
    contraction on the float view, since real coefficients act on each part alike."""
    n = p.shape[-1]
    flat = p.reshape(len(p), -1, n * n).view(np.float64)
    return (c @ flat).view(np.complex128).reshape(len(p), len(c), n, n)


def _pair_sectors(a: np.ndarray) -> np.ndarray:
    """The four sectors of each member of an (m, n, n) stack of e + 2f, (m, 4, n, n), from
    matrix products only: P_l = L_l(a) for the Lagrange cubic L_l on the nodes 0..3, whose
    coefficients are exact rationals (_LAGRANGE), from [I, a, a^2, a^3] by one contraction;
    then _MCWEENY_STEPS steps P <- 3P^2 - 2P^3, each two stacked products, and
    symmetrization. Each P_l is a function of a, so the four commute and resolve I. On an
    eigenvalue within d of a label, L_l is within 3d of 0 or 1 (the largest |L_l'| on the
    nodes is 3), and each step squares such an error e into 3e^2, so two steps leave the
    sectors idempotent within 2187 d^4 of rounding: inside PROJECTOR_TOL for d up to 8e-4,
    and the drift rule keeps d below SECTOR_SNAP_TOL_MAX. An eigenvalue far from every label
    gives traces that miss the integers or n, such as the traces of order 1e6 of an
    eigenvalue at -1.
    (R. McWeeny, Rev. Mod. Phys. 32 (1960) 335; N. J. Higham, Functions of Matrices, SIAM 2008.)"""
    n = a.shape[-1]
    powers = np.empty((len(a), 4, n, n), dtype=np.complex128)
    powers[:, 0], powers[:, 1] = np.eye(n), a
    powers[:, 2] = a @ a
    powers[:, 3] = powers[:, 2] @ a
    p = _contract(_LAGRANGE, powers) / 6.0
    for _ in range(_MCWEENY_STEPS):
        p2 = p @ p
        p = 3.0 * p2 - 2.0 * (p2 @ p)
    return (p + p.conj().swapaxes(-1, -2)) / 2.0


def _quadruple_sectors(a: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The sixteen sectors of each member of an (m, n, n) stack of A = e + 4f, for the
    stacks e = e1 + 2 e2 and f = f1 + 2 f2, (m, 16, n, n), from matrix products only.

    The couples' sectors S_a of e and T_b of f come from one _pair_sectors call. The
    products P_{a+4b} = S_a T_b S_a sum to I but lie off A's spectral projectors by first
    order in the commutator, so one first-order step follows: with R_l = sum_{m != l}
    P_m / (l - m) (_REDUCED) and X_l = R_l A P_l, Q_l = P_l + X_l + X_l*. The X terms cancel
    in pairs, so the Q_l still sum to I, but they are idempotent only to second order, and
    purifying each alone would break their sum and orthogonality by as much. So two
    commuting couples are rebuilt from them: S'_a, the pair sectors of E = sum_l a_l Q_l,
    and T'_b, those of sum_a S'_a F S'_a for F = sum_l b_l Q_l (_COUPLE_LABELS), which
    commutes with every S'_a. The sectors P_{a+4b} = S'_a T'_b are then orthogonal
    projectors that resolve I as pair sectors do, with a drift second order in the
    commutator.
    (T. Kato, Perturbation Theory for Linear Operators, Springer 1966, ch. II sec. 2.)"""
    m, n = a.shape[:2]
    s, t = _pair_sectors(np.concatenate([e, f])).reshape(2, m, 4, n, n)
    p = (s[:, None] @ t[:, :, None] @ s[:, None]).reshape(m, 16, n, n)
    x = _contract(_REDUCED, p) @ a[:, None] @ p
    e, f = _contract(_COUPLE_LABELS, p + x + x.conj().swapaxes(-1, -2)).swapaxes(0, 1)
    s = _pair_sectors(e)
    t = _pair_sectors((s @ f[:, None] @ s).sum(axis=1))
    return (s[:, None] @ t[:, :, None]).reshape(m, 16, n, n)


def _checked(a: np.ndarray, p: np.ndarray) -> list:
    """(labels, sectors, drift, in range) per member of an (m, n, n) stack a and its
    (m, L, n, n) sectors p at the labels 0..L - 1: the labels whose sector has a trace of at
    least 1/2, their sectors, the largest drift |(a - l I) P_l|_F among them and whether
    their traces lie within PROJECTOR_TRACE_TOL of integers and sum to n within it."""
    n = a.shape[-1]
    labels = np.arange(float(p.shape[1]))
    residual = a[:, None] @ p - labels[:, None, None] * p  # (a - l I) P_l
    traces = np.trace(p, axis1=-2, axis2=-1).real
    kept = traces >= 0.5  # a NaN trace is not kept, so the kept ones fall short of n
    t = np.where(kept, traces, 0.0)
    defect = np.maximum(np.abs(t - np.rint(t)).max(axis=-1), np.abs(t.sum(axis=-1) - n))
    drift = np.where(kept, np.sqrt(_squares(residual).sum(axis=-1)).reshape(kept.shape), 0.0)
    return [(labels[k], sectors[k], w, d <= PROJECTOR_TRACE_TOL)
            for sectors, k, w, d in zip(p, kept, drift.max(axis=-1), defect)]


def _joint_sectors(
    projectors: dict[str, np.ndarray], commuting: dict, sector_snap_tol: float
) -> list:
    """Propositions over the joint sectors of named projectors P_k, a pair or two couples:
    the spectral projectors P_l of A = sum(2^k P_k) at the integer labels l, proposition k
    selecting the labels 0..2^K - 1 with bit k set; the first name pair commuting marks False
    raises NotCommuting. For (m, n, n) stacks of projectors the m sums are built together,
    each member is checked in turn, and the result holds one list of propositions per member.

    The sectors come from matrix products only, with no solve: a pair's are purified
    Lagrange cubics in e + 2f (_pair_sectors), and two couples' are products of the
    couples' pair sectors, moved by one first-order step toward A's spectral projectors
    (_quadruple_sectors). Either way they resolve I and are mutually orthogonal by
    construction: each family is a function of one Hermitian matrix. The labels kept are
    those whose sector has a trace of at least 1/2, and the label range is a trace check:
    the kept traces must lie within PROJECTOR_TRACE_TOL of integers and sum to n within it.
    One drift rule then refuses a member with DegenerateLabeling: |(A - l I) P_l|_F above
    sector_snap_tol for a kept label l. For an exact spectral projector this bounds the
    largest distance of the sector's eigenvalues from l, and overstates it by at most the
    square root of the sector's rank. A member's label range is checked before its drift,
    and both refusals fail on NaN. Every joint sector path comes here, so sector_snap_tol is
    checked here: the sectors keep their promises only for 0 <= it <= SECTOR_SNAP_TOL_MAX."""
    _check_range(_TOL_RANGES, "sector_snap_tol", sector_snap_tol)
    for (a, b), ok in commuting.items():
        if not ok:
            raise NotCommuting(f"{a} and {b} do not commute")
    ps = list(projectors.values())
    n_labels = 2 ** len(ps)
    events = _sector_events(len(ps))
    joint = sum((2.0**k) * p for k, p in enumerate(ps))
    a = joint.reshape(-1, *joint.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        if n_labels == 4:
            sectors = _pair_sectors(a)
        else:
            e, f = (ps[k] + 2.0 * ps[k + 1] for k in (0, 2))
            sectors = _quadruple_sectors(a, e.reshape(a.shape), f.reshape(a.shape))
        built = _checked(a, sectors)
    members = []
    for keys, sectors, drift, in_range in built:
        if not in_range:
            raise DegenerateLabeling(f"sector labels outside 0..{n_labels - 1}")
        if not drift <= sector_snap_tol:
            raise DegenerateLabeling(f"joint eigenvalue drift {drift:.3e} from integer sector "
                                     f"label exceeds sector_snap_tol {sector_snap_tol:.1e}")
        dec = SpectralDecomposition._trusted(keys, sectors)
        members.append([Proposition(dec, borel) for borel in events])
    return members if joint.ndim == 3 else members[0]


def joint_propositions(
    e,
    f,
    commute_tol: float = COMMUTE_TOL,
    sector_snap_tol: float = SECTOR_SNAP_TOL,
) -> tuple[Proposition, Proposition]:
    """Build propositions over one backing whose projectors are a commuting pair.

    The operator e + 2f labels the four joint sectors with integers 0..3
    (binary encoding); the propositions select the sectors where each
    projector acts as the identity, so every boolean combination maps to the
    corresponding meet. Validates e and f.
    """
    pair = dict(zip("ef", _ensure_projectors(e, f)))
    return tuple(_joint_sectors(pair, _commutation(pair, commute_tol), sector_snap_tol))


def common_refinement_quadruple(
    e1,
    e2,
    f1,
    f2,
    commute_tol: float = COMMUTE_TOL,
    sector_snap_tol: float = SECTOR_SNAP_TOL,
) -> PropositionQuadruple:
    """Host two couples of projectors as propositions over one shared backing.

    Requires the whole family to commute pairwise; the backing is the joint
    sector operator sum(2^k P_k) with integer labels 0..15, and each
    proposition selects the labels where its bit is set. Validates all four.
    """
    named = dict(zip(("e1", "e2", "f1", "f2"), _ensure_projectors(e1, e2, f1, f2)))
    commuting = _commutation(named, commute_tol)
    return PropositionQuadruple(*_joint_sectors(named, commuting, sector_snap_tol))


# rows A, B, A', B', then S & T and then S | T for (S, T) in (A, A') x (B, B'); columns a + 2b
_BOOLEAN_ROWS = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0],
                          [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0],
                          [0, 1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 0]], dtype=bool)


def check_boolean_homomorphism(
    a: Proposition,
    b: Proposition,
    tol: float = HOMOMORPHISM_TOL,
    snap_tol: float = SNAP_TOL,
) -> bool:
    """Verify the projector map respects the boolean algebra generated by two propositions.

    Checks, within tol: every atom intersection maps to the meet of the
    mapped projectors, every pairwise union to the join, and complements to
    orthocomplements. The projectors come from one validated backing, so they
    commute and their meets are products, and the joins I minus products of
    complements. The twelve rows are read off one table of A and B (_event_table), so they
    obey set algebra; A's row moves off its spectral_projector only where an endpoint of B
    lies nearer an eigenvalue, within snap_tol, and B's likewise.
    """
    if not _same_backing(a.backing, b.backing):
        raise BackingMismatch("propositions do not share a backing")
    n = a.backing.dim
    eye = np.eye(n)
    inside = _event_table((a.borel, b.borel), a.backing.eigenvalues, snap_tol)
    p = _projector_sums(a.backing, _BOOLEAN_ROWS[:, inside[0] + 2 * inside[1]])
    complements = eye - p[:2]
    es, fs = np.stack([p[:2], complements], axis=1)
    meets = (es[:, None] @ fs[None, :]).reshape(4, n, n)
    # the join of S and T is I minus the meet of their complements, the reversed meet
    want = np.concatenate([complements, meets, eye - meets[::-1]])
    return max_abs(p[2:] - want) <= tol
