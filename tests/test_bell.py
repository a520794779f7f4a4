import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    rand_borel,
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
from hvsim.bell import _chsh_combination

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


def _count_solves(monkeypatch) -> list:
    """Record the shape of every _jacobi call the meets make."""
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


def test_boolean_homomorphism_fails_when_snapping_puts_an_eigenvalue_in_both_sets():
    # 1 + 7e-10 snaps into [0, 1] and into [1 + 1.5e-9, 2], whose intersection is empty,
    # so the product of the two projectors is not the projector of the intersection
    dec = eigh(np.diag([1.0 + 7e-10, 5.0]).astype(complex))
    a = proposition_from(dec, BorelSet.interval(0.0, 1.0, True, True))
    b = proposition_from(dec, BorelSet.interval(1.0 + 1.5e-9, 2.0, True, True))
    assert (a.borel & b.borel).is_empty
    assert not check_boolean_homomorphism(a, b)


def test_boolean_homomorphism_that_holds_returns_true_whatever_the_commutator():
    # the public constructor accepts e0 e0*, v v*, e2 e2* with v 5e-9 off e1: the projectors
    # of points 0 and 1 then commute only to about 5e-9, above the default commute_tol 1e-9,
    # yet every meet and join residual is within the default tol 1e-8
    v = np.array([5e-9, 1.0, 0.0]) / math.hypot(5e-9, 1.0)
    e = np.eye(3)
    prs = np.array([np.outer(e[0], e[0]), np.outer(v, v), np.outer(e[2], e[2])])
    dec = SpectralDecomposition(np.array([0.0, 1.0, 2.0]), prs)
    a, b = Proposition(dec, BorelSet.point(0.0)), Proposition(dec, BorelSet.point(1.0))
    assert not commutes(proposition_projector(a), proposition_projector(b))
    assert check_boolean_homomorphism(a, b)


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
