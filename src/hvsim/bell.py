"""Meet-based correlation operators, the CHSH functional, and the boolean side.

Two couples of projectors define four correlation operators, each from the meets of
a cross pair, which one eigensolve of e + f - I gives; the CHSH combination of their
expectations is bounded by 2 whenever the couples come from propositions over one
shared backing, because the corresponding fiber functions satisfy a pointwise
identity. Commuting projectors admit such propositions constructively via a joint relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .borel import BorelSet
from .errors import BackingMismatch, DegenerateLabeling, DimensionMismatch, NotCommuting, OutOfDomain
from .linalg import (
    COMMUTE_TOL,
    MEET_TOL,
    SpectralDecomposition,
    _commutes,
    _ensure_projectors,
    _jacobi,
    _pair_meets,
    _readonly,
    _span_projector,
    max_abs,
)
from .quantum import SNAP_TOL, PureState, spectral_projector
from .hidden import Proposition, _check_cuts, _fiber_partition

SECTOR_SNAP_TOL = 1e-6
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
    four e + f - I are solved as one stack."""
    pairs = [(e, f) for e in es for f in fs]
    operators = _correlation(np.array([e for e, _ in pairs]), np.array([f for _, f in pairs]),
                             meet_tol)
    return np.array([float(np.vdot(vector, c @ vector).real) for c in operators]).reshape(2, 2)


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
        return tuple(
            spectral_projector(p.backing, p.borel, snap_tol)
            for p in (self.a1, self.a2, self.b1, self.b2)
        )

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
    quad: PropositionQuadruple, state: PureState, snap_tol: float = SNAP_TOL
) -> FiberChshFunctions:
    """Restrict the quadruple's four correlation functions to the fiber of a state."""
    dec = quad.backing
    kept, cuts = _fiber_partition(dec.weights(state.vector))
    lambdas = dec.eigenvalues[kept]

    def side(p: Proposition) -> np.ndarray:
        return np.array([1 if p.borel.contains(float(lam), snap_tol) else -1 for lam in lambdas])

    sa = (side(quad.a1), side(quad.a2))
    sb = (side(quad.b1), side(quad.b2))
    return FiberChshFunctions(cuts, [[s * t for t in sb] for s in sa])


def _commutation(projectors: dict[str, np.ndarray], tol: float) -> dict[tuple[str, str], bool]:
    """Whether each pair of named projectors commutes, keyed by name pair in input order."""
    return {(a, b): _commutes(p, q, tol) for (a, p), (b, q) in combinations(projectors.items(), 2)}


def _joint_sectors(
    projectors: dict[str, np.ndarray], commuting: dict, sector_snap_tol: float
) -> list[Proposition]:
    """Propositions over the joint sectors sum(2^k P_k) of named projectors, proposition k
    selecting the labels 0..2^K - 1 with bit k set; the first name pair commuting marks False
    raises NotCommuting. The raw eigenvalues of the sum round to integer sector labels."""
    for (a, b), ok in commuting.items():
        if not ok:
            raise NotCommuting(f"{a} and {b} do not commute")
    n_labels = 2 ** len(projectors)
    raw, vecs = _jacobi(sum((2.0**k) * p for k, p in enumerate(projectors.values())))
    labels = np.rint(raw)
    drift = float(np.max(np.abs(raw - labels)))
    if drift > sector_snap_tol:
        raise DegenerateLabeling(f"joint eigenvalue drift {drift:.3e} from integer sector label"
                                 f" exceeds sector_snap_tol {sector_snap_tol:.1e}")
    if labels.min() < 0 or labels.max() > n_labels - 1:
        raise DegenerateLabeling(f"sector labels outside 0..{n_labels - 1}")
    keys = np.unique(labels)
    sectors = SpectralDecomposition._trusted(keys, [_span_projector(vecs[:, labels == k])
                                                    for k in keys])
    return [
        Proposition(sectors, BorelSet.points([float(m) for m in range(n_labels) if m & (1 << k)]))
        for k in range(len(projectors))
    ]


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
    complements.
    """
    if not _same_backing(a.backing, b.backing):
        raise BackingMismatch("propositions do not share a backing")
    dec = a.backing
    eye = np.eye(dec.dim)

    def eps(events: BorelSet) -> np.ndarray:
        return spectral_projector(dec, events, snap_tol)

    ea = eps(a.borel)
    eb = eps(b.borel)
    es = (ea, eye - ea)
    fs = (eb, eye - eb)
    sets_a = (a.borel, a.borel.complement())
    sets_b = (b.borel, b.borel.complement())

    residuals = []
    for i, set_a in enumerate(sets_a):
        for j, set_b in enumerate(sets_b):
            residuals.append(max_abs(eps(set_a & set_b) - es[i] @ fs[j]))
            residuals.append(max_abs(eps(set_a | set_b) - (eye - es[1 - i] @ fs[1 - j])))
    residuals.append(max_abs(eps(sets_a[1]) - es[1]))
    residuals.append(max_abs(eps(sets_b[1]) - fs[1]))
    return max(residuals) <= tol
