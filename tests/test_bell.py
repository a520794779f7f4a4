import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    counted_spans,
    rand_borel,
    rand_commuting_family,
    rand_commuting_projectors,
    rand_hermitian,
    rand_noncommuting_projectors,
    rand_projector,
    rand_state,
    rand_unitary,
)
import hvsim
from hvsim import (
    BackingMismatch,
    BorelSet,
    ChshConfig,
    DegenerateLabeling,
    NotCommuting,
    Proposition,
    PropositionQuadruple,
    PureState,
    SpectralDecomposition,
    check_boolean_homomorphism,
    chsh_terms,
    chsh_value,
    commutes,
    common_refinement_quadruple,
    correlation_operator,
    eigh,
    fiber_chsh_functions,
    joint_propositions,
    max_abs,
    proposition_from,
    proposition_projector,
)
from hvsim.bell import (SECTOR_SNAP_TOL, SECTOR_SNAP_TOL_MAX, _boolean_events,
                        _chsh_combination, _joint_sectors, _sector_events)
from hvsim.linalg import MEET_TOL, MEET_TOL_MAX
from hvsim.quantum import SNAP_TOL, spectral_projector

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def spin_projector(theta: float) -> np.ndarray:
    return (I2 + math.sin(theta) * PAULI_X + math.cos(theta) * PAULI_Z) / 2


def singlet_config() -> ChshConfig:
    e1 = np.kron(spin_projector(0.0), I2)
    e2 = np.kron(spin_projector(math.pi / 2), I2)
    f1 = np.kron(I2, spin_projector(math.pi / 4))
    f2 = np.kron(I2, spin_projector(3 * math.pi / 4))
    state = PureState([0.0, 1.0, -1.0, 0.0])
    return ChshConfig(e1, e2, f1, f2, state)


def test_correlation_operator_identity_pair():
    t = correlation_operator(np.eye(3), np.eye(3))
    assert max_abs(t - np.eye(3)) < 1e-9


def test_correlation_operator_commuting_product_form():
    rng = np.random.default_rng(109)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        e, f = rand_commuting_projectors(rng, n)
        target = (2.0 * e - np.eye(n)) @ (2.0 * f - np.eye(n))
        assert max_abs(correlation_operator(e, f) - target) < 1e-8


def test_correlation_operator_skew_lines_vanish():
    e = np.diag([1.0, 0.0]).astype(complex)
    f = np.full((2, 2), 0.5, dtype=complex)
    assert max_abs(correlation_operator(e, f)) < 1e-9


def test_chsh_all_identity_projectors():
    eye = np.eye(2)
    cfg = ChshConfig(eye, eye, eye, eye, PureState([1.0, 0.0]))
    assert chsh_value(cfg) == pytest.approx(2.0, abs=1e-9)


def test_chsh_singlet_reaches_tsirelson():
    cfg = singlet_config()
    # oracle: tensor correlation operators, expectations computed directly
    angles_a = (0.0, math.pi / 2)
    angles_b = (math.pi / 4, 3 * math.pi / 4)
    h = cfg.state.vector
    direct = np.empty((2, 2))
    for i, ta in enumerate(angles_a):
        for j, tb in enumerate(angles_b):
            t = np.kron(2 * spin_projector(ta) - I2, 2 * spin_projector(tb) - I2)
            direct[i, j] = float(np.vdot(h, t @ h).real)
    direct_value = abs(direct[0, 0] - direct[0, 1]) + abs(direct[1, 0] + direct[1, 1])
    assert direct_value == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    terms = chsh_terms(cfg)
    assert max_abs(terms - direct) < 1e-8  # meets reduce to tensor correlations here
    assert chsh_value(cfg) == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def _agreement_quadruple(rng, kind: str, n: int) -> tuple[list, PureState]:
    """Four projectors and a state of dimension n:
    - singlet: the couples measure spin at random angles, or Tsirelson's, on two qubits of a
      singlet, beside an ancilla of dimension n / 4 in a random state;
    - noncommuting: four independent random projectors;
    - commuting: four projectors diagonal in one random basis;
    - near: those, with f1 and f2 turned by exp(i c H) for a random Hermitian H."""
    if kind == "singlet":
        angles = rng.uniform(0.0, 2 * math.pi, 4) if rng.random() < 0.5 else (
            0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        ancilla = np.eye(n // 4)
        sides = [np.kron(spin_projector(t), I2) for t in angles[:2]]
        sides += [np.kron(I2, spin_projector(t)) for t in angles[2:]]
        vector = np.kron([0.0, 1.0, -1.0, 0.0], rand_state(rng, n // 4).vector)
        return [np.kron(p, ancilla) for p in sides], PureState(vector)
    if kind == "noncommuting":
        return [rand_projector(rng, n) for _ in range(4)], rand_state(rng, n)
    u = rand_unitary(rng, n)
    ps = [(u * d) @ u.conj().T for d in rng.integers(0, 2, size=(4, n))]
    if kind == "near":
        w, v = np.linalg.eigh(rand_hermitian(rng, n))
        turn = (v * np.exp(1j * rng.choice([1e-11, 1e-9, 1e-7, 1e-5]) * w)) @ v.conj().T
        ps[2:] = [turn @ p @ turn.conj().T for p in ps[2:]]
    return [(p + p.conj().T) / 2.0 for p in ps], rand_state(rng, n)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(shape=st.one_of(
    st.tuples(st.just("singlet"), st.sampled_from([4, 8])),
    st.tuples(st.sampled_from(["noncommuting", "commuting", "near"]), st.integers(2, 8))),
    seed=st.integers(0, 2**32 - 1))
def test_chsh_terms_agree_with_correlation_operator_expectations(shape, seed):
    # each term is <h, T h> of its pair's public correlation operator within 4 n eps, and
    # chsh_value is that combination within four such terms
    kind, n = shape
    projectors, h = _agreement_quadruple(np.random.default_rng(seed), kind, n)
    cfg = ChshConfig(*projectors, h)
    bound = 4 * n * np.finfo(np.float64).eps
    for meet_tol in (MEET_TOL, 1e-6, MEET_TOL_MAX):
        direct = np.array([[float(np.vdot(h.vector, correlation_operator(e, f, meet_tol)
                                          @ h.vector).real) for f in projectors[2:]]
                           for e in projectors[:2]])
        assert max_abs(chsh_terms(cfg, meet_tol) - direct) <= bound
        assert abs(chsh_value(cfg, meet_tol) - _chsh_combination(direct)) <= 4 * bound


def _count_solves(monkeypatch) -> list:
    """Record the shape of every _jacobi call."""
    calls, jacobi = [], hvsim.linalg._jacobi
    monkeypatch.setattr(hvsim.linalg, "_jacobi", lambda a: calls.append(a.shape) or jacobi(a))
    return calls


def test_chsh_terms_solve_four_pairs_once_per_config_and_meet_tol(monkeypatch):
    cfg = singlet_config()
    calls = _count_solves(monkeypatch)
    terms = chsh_terms(cfg)
    assert calls == [(4, 4, 4)]  # the four e + f - I, as one stack
    assert chsh_value(cfg) == _chsh_combination(terms)
    assert np.array_equal(chsh_terms(cfg), terms)
    assert len(calls) == 1  # chsh_value and a second chsh_terms read the kept terms
    loose = chsh_terms(cfg, 1e-6)  # another meet_tol solves again, once
    assert np.array_equal(chsh_terms(cfg, 1e-6), loose)
    assert len(calls) == 2


def test_chsh_terms_span_no_projector(monkeypatch):
    # the terms are read off the stacked solve's eigenvector weights; the public
    # correlation operator still spans its meets
    calls = counted_spans(monkeypatch)
    rng = np.random.default_rng(7)
    for cfg in (singlet_config(), ChshConfig(*(rand_projector(rng, 5) for _ in range(4)),
                                             rand_state(rng, 5))):
        chsh_terms(cfg)
        chsh_value(cfg, 1e-6)
    assert calls == []
    correlation_operator(cfg.e1, cfg.f1)
    assert len(calls) == 1


def test_joint_sectors_make_no_solve_and_span_no_projector(monkeypatch):
    # a pair's sectors and a quadruple's come from matrix products only; bell holds neither
    # name, so the counters patched into linalg see every call
    assert not {"_jacobi", "_class_projectors"} & set(vars(hvsim.bell))
    calls, spans = _count_solves(monkeypatch), counted_spans(monkeypatch)
    rng = np.random.default_rng(167)
    for n in (4, 8):
        e1, e2, f1, f2 = rand_commuting_family(rng, n)
        common_refinement_quadruple(e1, e2, f1, f2)
        joint_propositions(e1, f2)
    assert calls == []
    assert spans == []


def test_chsh_terms_returns_a_copy_of_the_kept_terms():
    cfg = singlet_config()
    terms = chsh_terms(cfg)
    kept = terms.copy()
    terms[0, 0] = 7.0
    assert np.array_equal(chsh_terms(cfg), kept)
    assert chsh_value(cfg) == _chsh_combination(kept)


def test_replacing_a_configs_state_gives_that_states_terms():
    cfg = singlet_config()
    chsh_terms(cfg)
    other = PureState(np.array([1.0, 0.0, 0.0, 0.0]))
    moved = dataclasses.replace(cfg, state=other)
    fresh = ChshConfig(cfg.e1, cfg.e2, cfg.f1, cfg.f2, other)
    assert np.array_equal(chsh_terms(moved), chsh_terms(fresh))
    assert not np.array_equal(chsh_terms(moved), chsh_terms(cfg))


def test_singlet_admits_no_shared_backing():
    cfg = singlet_config()
    for e in (cfg.e1, cfg.e2):
        for f in (cfg.f1, cfg.f2):
            assert commutes(e, f)  # cross pairs are compatible
    assert not commutes(cfg.e1, cfg.e2)
    with pytest.raises(NotCommuting):
        common_refinement_quadruple(cfg.e1, cfg.e2, cfg.f1, cfg.f2)


def rand_quadruple(rng, n):
    dec = eigh(rand_hermitian(rng, n))
    props = [
        proposition_from(dec, rand_borel(rng, avoid=dec.eigenvalues)) for _ in range(4)
    ]
    return PropositionQuadruple(*props)


def test_fiber_functions_full_fiber_trivial_identity():
    dec = eigh(PAULI_Z)
    full = proposition_from(dec, BorelSet.reals())
    quad = PropositionQuadruple(full, full, full, full)
    functions = fiber_chsh_functions(quad, PureState([1.0, 1.0]))
    assert np.all(functions.signs == 1)
    assert functions.pointwise_identity_holds()
    assert functions.chsh_value() == pytest.approx(2.0, abs=1e-12)


def test_fiber_functions_pointwise_identity_random():
    rng = np.random.default_rng(113)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        quad = rand_quadruple(rng, n)
        h = rand_state(rng, n)
        functions = fiber_chsh_functions(quad, h)
        assert functions.pointwise_identity_holds()
        ts = rng.uniform(1e-6, 1.0 - 1e-6, size=50)
        for t in ts:
            combo = abs(
                functions.evaluate(0, 0, t) - functions.evaluate(0, 1, t)
            ) + abs(functions.evaluate(1, 0, t) + functions.evaluate(1, 1, t))
            assert combo == 2


def test_fiber_integrals_match_meet_expectations():
    rng = np.random.default_rng(127)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        quad = rand_quadruple(rng, n)
        h = rand_state(rng, n)
        functions = fiber_chsh_functions(quad, h)
        terms = chsh_terms(quad.config(h))
        assert max_abs(functions.integrals() - terms) < 1e-9
        assert functions.chsh_value() <= 2.0 + 1e-9


def test_joint_propositions_equal_pair():
    rng = np.random.default_rng(131)
    e = rand_projector(rng, 4)
    a, b = joint_propositions(e, e)
    # equal inputs give the same proposition: same projector, same fibers
    assert max_abs(proposition_projector(a) - proposition_projector(b)) < 1e-10
    assert max_abs(proposition_projector(a) - e) < 1e-8
    h = rand_state(rng, 4)
    from hvsim import fiber_subset

    assert fiber_subset(a, h) == fiber_subset(b, h)
    inter = proposition_projector(Proposition(a.backing, a.borel & b.borel))
    assert max_abs(inter - e) < 1e-8


def test_joint_propositions_diagonal_example():
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    f = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    a, b = joint_propositions(e, f)
    # sector operator is diag(3, 1, 2, 0)
    np.testing.assert_allclose(a.backing.eigenvalues, [0.0, 1.0, 2.0, 3.0])
    inter = proposition_projector(Proposition(a.backing, a.borel & b.borel))
    np.testing.assert_allclose(inter, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)
    assert max_abs(proposition_projector(a) - e) < 1e-10
    assert max_abs(proposition_projector(b) - f) < 1e-10


def test_joint_propositions_tensor_pair():
    rng = np.random.default_rng(137)
    p = rand_projector(rng, 2, rank=1)
    q = rand_projector(rng, 2, rank=1)
    a, b = joint_propositions(np.kron(p, np.eye(2)), np.kron(np.eye(2), q))
    inter = proposition_projector(Proposition(a.backing, a.borel & b.borel))
    assert max_abs(inter - np.kron(p, q)) < 1e-8


def test_joint_propositions_rejects_noncommuting():
    rng = np.random.default_rng(139)
    e, f = rand_noncommuting_projectors(rng, 4)
    with pytest.raises(NotCommuting, match="^e and f do not commute$"):
        joint_propositions(e, f)
    # the family names its first non-commuting pair, in e1, e2, f1, f2 order
    with pytest.raises(NotCommuting, match="^e1 and f1 do not commute$"):
        common_refinement_quadruple(e, e, f, e)
    with pytest.raises(NotCommuting, match="^e1 and f2 do not commute$"):
        common_refinement_quadruple(e, e, e, f)


def _sectors(*projectors):
    """The joint sectors of a pair or a quadruple, 2-D or stacked, with no commuting check."""
    names = ("e", "f") if len(projectors) == 2 else ("e1", "e2", "f1", "f2")
    return _joint_sectors(dict(zip(names, projectors)), {}, SECTOR_SNAP_TOL)


def _sector_error(*projectors) -> str:
    """The DegenerateLabeling message of the joint sectors of a pair or a quadruple."""
    with pytest.raises(DegenerateLabeling) as info:
        _sectors(*projectors)
    return str(info.value)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stacked_joint_sectors_equal_single_calls_bit_for_bit(n):
    # pairs and quadruples with zero and identity members, at n = 1 only those
    rng = np.random.default_rng(151 + n)
    zero, eye = np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    pairs = [(zero, zero), (eye, eye), (zero, eye)]
    quads = [(zero,) * 4, (eye,) * 4, (eye, zero, zero, eye)]
    if n > 1:
        e, f = rand_commuting_projectors(rng, n)
        pairs = [rand_commuting_projectors(rng, n), *pairs, (e, eye - f)]
        quads = [rand_commuting_family(rng, n), *quads, (e, eye - e, f, eye - f)]
    for members in (pairs, quads):
        stacked = _sectors(*np.array(members).swapaxes(0, 1))
        assert len(stacked) == len(members)
        for projectors, props in zip(members, stacked):
            single = _sectors(*projectors)
            assert len(props) == len(single) == len(projectors)
            for p, q in zip(props, single):
                assert p.borel == q.borel
                for x, y in ((p.backing.eigenvalues, q.backing.eigenvalues),
                             (p.backing.projectors, q.backing.projectors)):
                    assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
    if n == 1:
        return
    # each member is checked in turn, drift and label range both, and a refusal is the one
    # its own 2-D call raises
    for members, (drift, far, bad) in (
            (pairs, ((e, 0.999 * f), (e, 0.99 * f), (-eye, f))),
            (quads, ((e, e, f, 0.999 * f), (e, e, f, 0.99 * f), (e, -eye, f, f)))):
        for first, *rest in ([drift, far], [bad, drift]):
            stack = np.array([members[0], first, *rest]).swapaxes(0, 1)
            assert _sector_error(*stack) == _sector_error(*first) != _sector_error(*rest[0])
    assert "outside 0..3" in _sector_error(-eye, f)
    assert "outside 0..15" in _sector_error(e, -eye, f, f)


def _conjugated(rng, es, fs, commutator: float) -> list:
    """Each f in fs conjugated by one exp(i eps H) for a random Hermitian H, eps scaled so
    that the largest ef - fe over e in es reaches about `commutator` (to first order in eps),
    symmetrized."""
    n = len(es[0])
    w, v = np.linalg.eigh(rand_hermitian(rng, n))

    def turned(eps):
        u = (v * np.exp(1j * eps * w)) @ v.conj().T
        return [(g + g.conj().T) / 2.0 for g in (u @ f @ u.conj().T for f in fs)]

    slope = max(max_abs(e @ g - g @ e) for e in es for g in turned(1e-3)) / 1e-3
    return turned(commutator / slope if slope > 0.0 else commutator)


def _drift(a: np.ndarray, dec: SpectralDecomposition) -> float:
    """The largest |(A - l I) P_l|_F over a decomposition's sectors."""
    return max(np.linalg.norm(a @ p - lab * p) for lab, p in zip(dec.eigenvalues, dec.projectors))


# commutators of the near-commuting pairs, all admitted at a commute_tol of 1e-6; 1.9e-7 and
# 2.9e-7 are those of the generic families on which products of the projectors missed the
# 1e-8 resolution check
NEAR_COMMUTATORS = (0.0, 1e-11, 1e-9, 1e-8, 1e-7, 1.9e-7, 2.9e-7, 9e-7)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       commutator=st.sampled_from(NEAR_COMMUTATORS))
def test_pair_sectors_of_near_commuting_pairs(n, seed, commutator):
    rng = np.random.default_rng(seed)
    e, f = rand_commuting_projectors(rng, n)
    f, = _conjugated(rng, [e], [f], commutator)
    assert max_abs(e @ f - f @ e) <= 1e-6
    a = e + 2.0 * f
    props = joint_propositions(e, f, commute_tol=1e-6)
    dec = props[0].backing
    # the public constructor checks every promise _trusted takes on trust: resolution of I,
    # idempotence, traces near integers and orthogonality
    SpectralDecomposition(dec.eigenvalues, dec.projectors)
    # Davis-Kahan: each sector and numpy's eigenprojector of the eigenvalues rounding to its
    # label are within their commutator residuals with A over the gap to the other labels
    w, v = np.linalg.eigh(a)
    labels = np.rint(w)
    assert list(dec.eigenvalues) == sorted(set(labels))
    for lab, p in zip(dec.eigenvalues, dec.projectors):
        inside = labels == lab
        q = v[:, inside] @ v[:, inside].conj().T
        gap = np.min(np.abs(w[~inside][:, None] - w[inside]), initial=np.inf)
        residual = sum(np.linalg.norm(a @ x - x @ a, 2) for x in (p, q))
        assert max_abs(p - q) <= residual / gap + 10.0 * n * np.finfo(float).eps
    # the drift rule at the default sector_snap_tol: f scaled by 1 + s moves labels 2 and 3
    # by 2s, a drift of 2s sqrt(rank) in the Frobenius norm, on top of the pair's own, which
    # is second order in the commutator; below 5e-4 sector_snap_tol it cannot cross the
    # 0.1% either side tried here
    top = max(p.trace().real for lab, p in zip(dec.eigenvalues, dec.projectors) if lab >= 2)
    own = _drift(a, dec)
    assert own <= 1e-4 * SECTOR_SNAP_TOL
    for side in (0.999, 1.001):
        s = side * (SECTOR_SNAP_TOL - own) / (2.0 * math.sqrt(round(top)))
        if side < 1.0:
            scaled = _sectors(e, (1.0 + s) * f)[0].backing
            assert np.array_equal(scaled.eigenvalues, dec.eigenvalues)
            assert _drift(e + 2.0 * (1.0 + s) * f, scaled) <= SECTOR_SNAP_TOL
        else:
            assert "exceeds sector_snap_tol" in _sector_error(e, (1.0 + s) * f)


# commutators at which a quadruple's drift nears the default sector_snap_tol, so that some
# families are refused; individually purified sectors missed the 1e-8 resolution and
# orthogonality checks from about 6e-5 on
WIDE_COMMUTATORS = (1e-5, 3e-5, 6e-5, 9e-5, 1.2e-4)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       commutator=st.sampled_from(NEAR_COMMUTATORS + WIDE_COMMUTATORS))
def test_quadruple_sectors_of_near_commuting_families(n, seed, commutator):
    # each couple commutes exactly; f1 and f2 are turned by one unitary, so the cross pairs
    # near-commute
    rng = np.random.default_rng(seed)
    e1, e2, f1, f2 = rand_commuting_family(rng, n)
    f1, f2 = _conjugated(rng, [e1, e2], [f1, f2], commutator)
    assert max(max_abs(e @ f - f @ e) for e in (e1, e2) for f in (f1, f2)) <= 1e-3
    a = e1 + 2.0 * e2 + 4.0 * f1 + 8.0 * f2
    w, v = np.linalg.eigh(a)
    labels = np.rint(w)
    # the largest drift of numpy's eigenprojectors, in exact arithmetic
    spread = max(math.sqrt(np.sum((w[labels == lab] - lab) ** 2)) for lab in set(labels))
    try:
        dec = common_refinement_quadruple(e1, e2, f1, f2, commute_tol=1e-3).backing
    except DegenerateLabeling as info:
        # refused only by the drift rule, and only near sector_snap_tol: every family up to
        # a commutator of 9e-7 is admitted
        assert "exceeds sector_snap_tol" in str(info)
        assert 16.0 * spread > SECTOR_SNAP_TOL
        return
    # the public constructor checks every promise _trusted takes on trust: idempotence,
    # and the resolution of I and orthogonality within RESOLUTION_TOL
    SpectralDecomposition(dec.eigenvalues, dec.projectors)
    assert list(dec.eigenvalues) == sorted(set(labels))
    # Davis-Kahan, as for a pair
    for lab, p in zip(dec.eigenvalues, dec.projectors):
        inside = labels == lab
        q = v[:, inside] @ v[:, inside].conj().T
        gap = np.min(np.abs(w[~inside][:, None] - w[inside]), initial=np.inf)
        residual = sum(np.linalg.norm(a @ x - x @ a, 2) for x in (p, q))
        assert max_abs(p - q) <= residual / gap + 10.0 * n * np.finfo(float).eps
    # the first-order step leaves a drift of second order in the commutator, within a small
    # factor of the exact projectors'; without the step the products' drift is first order,
    # 1e4 times that spread already at a commutator of 1e-11
    assert _drift(a, dec) <= 16.0 * spread + 64.0 * n * np.finfo(float).eps


def test_pair_sectors_keep_the_projector_checks_up_to_the_widest_sector_snap_tol():
    # at a label drift just under SECTOR_SNAP_TOL_MAX the purified sectors of a pair and of
    # a quadruple still pass every check of the public constructor; a wider or NaN
    # sector_snap_tol is refused up front
    rng, family_rng = np.random.default_rng(163), np.random.default_rng(173)
    for n in (2, 4, 8, 16):
        e, f = rand_commuting_projectors(rng, n)
        s = 0.999 * SECTOR_SNAP_TOL_MAX / (2.0 * math.sqrt(n))
        dec = _joint_sectors({"e": e, "f": (1.0 + s) * f}, {}, SECTOR_SNAP_TOL_MAX)[0].backing
        SpectralDecomposition(dec.eigenvalues, dec.projectors)
        named = dict(zip(("e1", "e2", "f1", "f2"), rand_commuting_family(family_rng, n)))
        # either couple's top member scaled: the drift reaches the rebuilt couples' sectors
        # through E and through the pinched F
        for name, weight in (("e2", 2.0), ("f2", 8.0)):
            s = 0.999 * SECTOR_SNAP_TOL_MAX / (weight * math.sqrt(n))
            scaled = {**named, name: (1.0 + s) * named[name]}
            dec = _joint_sectors(scaled, {}, SECTOR_SNAP_TOL_MAX)[0].backing
            SpectralDecomposition(dec.eigenvalues, dec.projectors)
    for tol in (-1e-9, 2 * SECTOR_SNAP_TOL_MAX, math.nan):
        for call in (lambda: joint_propositions(e, f, sector_snap_tol=tol),
                     lambda: common_refinement_quadruple(e, f, e, f, sector_snap_tol=tol)):
            with pytest.raises(ValueError, match=r"^sector_snap_tol must be in \[0, 5e-04\]"):
                call()


def test_quadruple_drift_rule_is_the_frobenius_norm_of_each_sector():
    # f2 scaled by 1 + s moves each label with bit 3 set by 8s; each such sector of rank r
    # drifts 8s sqrt(r), so the largest rank decides, just as for a pair
    u = rand_unitary(np.random.default_rng(157), 6)
    family = [(u * bits) @ u.conj().T for bits in ((1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 1),
                                                     (0, 0, 1, 0, 0, 1), (1, 1, 1, 1, 0, 0))]
    e1, e2, f1, f2 = ((p + p.conj().T) / 2.0 for p in family)
    named = {"e1": e1, "e2": e2, "f1": f1, "f2": f2}
    # column labels 11, 11, 12, 8, 0 and 6: the sectors with bit 3 set have ranks 2, 1 and 1
    for side, admitted in ((0.999, True), (1.001, False)):
        s = side * SECTOR_SNAP_TOL / (8.0 * math.sqrt(2.0))
        call = lambda: _joint_sectors({**named, "f2": (1.0 + s) * f2}, {}, SECTOR_SNAP_TOL)
        if admitted:
            assert list(call()[0].backing.eigenvalues) == [0.0, 6.0, 8.0, 11.0, 12.0]
        else:
            with pytest.raises(DegenerateLabeling, match="exceeds sector_snap_tol"):
                call()


def test_boolean_homomorphism_trivial_and_constructed():
    dec = eigh(PAULI_Z)
    a = proposition_from(dec, BorelSet.at_most(0.0))
    assert check_boolean_homomorphism(a, a)

    rng = np.random.default_rng(149)
    e, f = rand_commuting_projectors(rng, 4)
    pa, pb = joint_propositions(e, f)
    assert check_boolean_homomorphism(pa, pb)
    assert commutes(proposition_projector(pa), proposition_projector(pb))


def test_boolean_homomorphism_disjoint_events():
    dec = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))
    a = proposition_from(dec, BorelSet.point(1.0))
    b = proposition_from(dec, BorelSet.point(3.0))
    assert check_boolean_homomorphism(a, b)
    assert max_abs(proposition_projector(Proposition(dec, a.borel & b.borel))) == 0.0


def _snapped_pair() -> tuple[Proposition, Proposition]:
    # 1 + 7e-10 snaps into [0, 1] and into [1 + 1.5e-9, 2], whose intersection is empty,
    # so the product of the two projectors is not the projector of the intersection
    dec = eigh(np.diag([1.0 + 7e-10, 5.0]).astype(complex))
    a = proposition_from(dec, BorelSet.interval(0.0, 1.0, True, True))
    b = proposition_from(dec, BorelSet.interval(1.0 + 1.5e-9, 2.0, True, True))
    return a, b


def _tilted_points() -> tuple[Proposition, Proposition]:
    # the public constructor accepts e0 e0*, v v*, e2 e2* with v 5e-9 off e1: the projectors
    # of points 0 and 1 then commute only to about 5e-9, above the default commute_tol 1e-9,
    # yet every meet and join residual is within the default tol 1e-8
    v = np.array([5e-9, 1.0, 0.0]) / math.hypot(5e-9, 1.0)
    e = np.eye(3)
    prs = np.array([np.outer(e[0], e[0]), np.outer(v, v), np.outer(e[2], e[2])])
    dec = SpectralDecomposition(np.array([0.0, 1.0, 2.0]), prs)
    return Proposition(dec, BorelSet.point(0.0)), Proposition(dec, BorelSet.point(1.0))


def test_boolean_homomorphism_fails_when_snapping_puts_an_eigenvalue_in_both_sets():
    a, b = _snapped_pair()
    assert (a.borel & b.borel).is_empty
    assert not check_boolean_homomorphism(a, b)


def test_boolean_homomorphism_that_holds_returns_true_whatever_the_commutator():
    a, b = _tilted_points()
    assert not commutes(proposition_projector(a), proposition_projector(b))
    assert check_boolean_homomorphism(a, b)


def _loop_residual(a: Proposition, b: Proposition) -> float:
    """The largest meet, join and complement residual of two propositions, from one
    spectral_projector call and one 2-D product per event set: the reference for the
    check's stacked form, which must give the same float.

    Both forms take their projectors from the same masked matrix product and their meets
    from the same gemm, one call per pair of matrices. So they agree to the bit wherever a
    gemm's entries do not depend on how many rows it is given, as with OpenBLAS 0.3.31's
    SkylakeX, Haswell and Katmai kernels; with its Sandybridge kernel they do depend on it."""
    dec = a.backing
    eye = np.eye(dec.dim)

    def eps(events: BorelSet) -> np.ndarray:
        return spectral_projector(dec, events, SNAP_TOL)

    ea, eb = eps(a.borel), eps(b.borel)
    es, fs = (ea, eye - ea), (eb, eye - eb)
    sets_a, sets_b = (a.borel, a.borel.complement()), (b.borel, b.borel.complement())
    residuals = []
    for i, set_a in enumerate(sets_a):
        for j, set_b in enumerate(sets_b):
            residuals.append(max_abs(eps(set_a & set_b) - es[i] @ fs[j]))
            residuals.append(max_abs(eps(set_a | set_b) - (eye - es[1 - i] @ fs[1 - j])))
    residuals.append(max_abs(eps(sets_a[1]) - es[1]))
    residuals.append(max_abs(eps(sets_b[1]) - fs[1]))
    return max(residuals)


def _pinned_cases():
    rng = np.random.default_rng(163)
    for n in range(2, 17):
        yield joint_propositions(*rand_commuting_projectors(rng, n))
        # a pair 1e-11 off commuting, which commute_tol 1e-8 admits
        e, f = rand_commuting_projectors(rng, n)
        d = 1e-11 * rand_hermitian(rng, n)
        yield joint_propositions(e + (d + d.conj().T) / 2, f, commute_tol=1e-8)
    yield _snapped_pair()
    yield _tilted_points()


def test_boolean_homomorphism_decides_at_the_loop_residual_exactly():
    # the check holds at tol = r and fails one float below, so its residual is r to the bit
    positive = 0
    for a, b in _pinned_cases():
        r = _loop_residual(a, b)
        assert check_boolean_homomorphism(a, b, tol=r)
        if r > 0:
            positive += 1
            assert not check_boolean_homomorphism(a, b, tol=np.nextafter(r, 0))
    assert positive > 30


def test_boolean_event_sets_equal_a_fresh_construction_and_are_kept():
    rng = np.random.default_rng(167)
    for a, b in [(rand_borel(rng), rand_borel(rng)) for _ in range(5)] + [
            (BorelSet.empty(), BorelSet.reals()), (BorelSet.point(1.0), BorelSet.point(1.0))]:
        sets_a, sets_b = (a, ~a), (b, ~b)
        pairs = [(s, t) for s in sets_a for t in sets_b]
        fresh = (a, b, ~a, ~b, *(s & t for s, t in pairs), *(s | t for s, t in pairs))
        got = _boolean_events(a, b)
        assert got == fresh
        # an equal key built anew finds the same sets
        assert _boolean_events(BorelSet(a.intervals), BorelSet(b.intervals)) is got
    for count in (1, 2, 4):
        fresh = tuple(BorelSet.points([float(m) for m in range(2**count) if m & (1 << k)])
                      for k in range(count))
        assert _sector_events(count) == fresh
        assert _sector_events(count) is _sector_events(count)
    # so every pair of joint propositions carries the same two event sets
    e, f = rand_commuting_projectors(rng, 4)
    g, h = rand_commuting_projectors(rng, 8)
    for p, q in zip(joint_propositions(e, f), joint_propositions(g, h)):
        assert p.borel is q.borel


def test_boolean_homomorphism_requires_shared_backing():
    a = proposition_from(eigh(PAULI_Z), BorelSet.at_most(0.0))
    b = proposition_from(eigh(PAULI_X), BorelSet.at_most(0.0))
    with pytest.raises(BackingMismatch):
        check_boolean_homomorphism(a, b)
    with pytest.raises(BackingMismatch):
        PropositionQuadruple(a, a, a, b)


def test_shared_backing_is_one_decomposition_or_a_bit_equal_one():
    # eigh is deterministic, so two solves of one operator are one backing; a decomposition
    # with the same projectors and every eigenvalue moved by 1e-12 is another, however close
    rng = np.random.default_rng(157)
    op = rand_hermitian(rng, 4)
    first, second = eigh(op), eigh(op)
    assert first is not second
    a = proposition_from(first, rand_borel(rng, avoid=first.eigenvalues))
    b = proposition_from(second, rand_borel(rng, avoid=first.eigenvalues))
    assert PropositionQuadruple(a, b, b, a).backing is first
    assert check_boolean_homomorphism(a, b)

    moved = SpectralDecomposition(first.eigenvalues + 1e-12, first.projectors)
    c = Proposition(moved, b.borel)
    with pytest.raises(BackingMismatch):
        check_boolean_homomorphism(a, c)
    with pytest.raises(BackingMismatch):
        PropositionQuadruple(a, b, b, c)


def test_common_refinement_reproduces_family():
    from conftest import rand_unitary

    rng = np.random.default_rng(151)
    for _ in range(10):
        n = 4
        # all four projectors over one shared eigenbasis
        w = rand_unitary(rng, n)
        diags = [rng.integers(0, 2, size=n) for _ in range(4)]
        ps = [(w * d) @ w.conj().T for d in diags]
        ps = [(p + p.conj().T) / 2 for p in ps]
        quad = common_refinement_quadruple(*ps)
        for got, want in zip(quad.projectors(), ps):
            assert max_abs(got - want) < 1e-8


@pytest.mark.parametrize("seed", [2, 4, 5])
def test_fiber_functions_cells_at_near_eigenstates(seed):
    # a joint eigenvector of the lowest sector leaking 1e-8..4e-8 into another
    # sector: that sector weighs a few ulp, where cells of negative length arose
    rng = np.random.default_rng(seed)
    for n in (4, 8):
        u = rand_unitary(rng, n)
        bits = rng.integers(0, 2, size=(4, n))
        projectors = [(u * b) @ u.conj().T for b in bits]
        quad = common_refinement_quadruple(*projectors)
        labels = (bits * (2 ** np.arange(4))[:, None]).sum(axis=0)
        low = int(np.argmin(labels))
        others = np.flatnonzero(labels != labels[low])
        if not others.size:
            continue
        for leak in (1e-8, 2e-8, 4e-8):
            h = PureState(u[:, low] + leak * u[:, int(rng.choice(others))])
            functions = fiber_chsh_functions(quad, h)
            assert functions.cuts[0] == 0.0 and functions.cuts[-1] == 1.0
            assert np.all(functions.lengths() > 0)
            assert functions.pointwise_identity_holds()
            terms = chsh_terms(ChshConfig(*projectors, h))
            assert max_abs(functions.integrals() - terms) < 1e-9


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(n=st.sampled_from([4, 8]), seed=st.integers(0, 2**32 - 1))
def test_fiber_integrals_equal_chsh_terms_on_shared_backing_quadruples(n, seed):
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, n)
    projectors = [(u * b) @ u.conj().T for b in rng.integers(0, 2, size=(4, n))]
    quad = common_refinement_quadruple(*projectors)
    h = rand_state(rng, n)
    functions = fiber_chsh_functions(quad, h)
    assert functions.pointwise_identity_holds()
    assert max_abs(functions.integrals() - chsh_terms(ChshConfig(*projectors, h))) < 1e-9
    for a in (quad.a1, quad.a2):
        for b in (quad.b1, quad.b2):
            assert check_boolean_homomorphism(a, b)
