import numpy as np
import pytest

from conftest import rand_borel, rand_hermitian, rand_piecewise_affine, rand_state, rand_unitary
from hvsim import (
    BorelSet,
    ClassicalObservable,
    DimensionMismatch,
    OutOfDomain,
    PiecewiseAffineFunction,
    Proposition,
    PureState,
    compose,
    eigh,
    expectation,
    fiber_integral,
    fiber_subset,
    functional_calculus,
    max_abs,
    observables_confusion_equivalent,
    preimage,
    prob,
    proposition_from,
    proposition_projector,
    quantile_function,
    reduced_operator,
    sample,
    states_confusion_equivalent,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PLUS = PureState([1.0, 1.0])
ABSOLUTE = PiecewiseAffineFunction((0.0,), ((-1.0, 0.0), (1.0, 0.0)), (0.0,))

# chi-square 99.9% quantiles by degrees of freedom (standard table values)
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322}


def test_quantile_of_z_at_plus():
    q = quantile_function(eigh(PAULI_Z), PLUS)
    np.testing.assert_allclose(q.cuts, [0.0, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(q.values, [-1.0, 1.0])


def test_quantile_of_eigenstate_is_single_step():
    q = quantile_function(eigh(PAULI_Z), PureState([0.0, 1.0]))
    np.testing.assert_allclose(q.cuts, [0.0, 1.0])
    np.testing.assert_allclose(q.values, [-1.0])
    assert q.evaluate(0.37) == -1.0


def test_quantile_equal_weights_three_outcomes():
    # oracle: component weights |h_i|^2 are each 1/3
    h = PureState([1.0, 1.0, 1.0])
    assert np.allclose(np.abs(h.vector) ** 2, 1 / 3)
    q = quantile_function(eigh(np.diag([1.0, 2.0, 3.0]).astype(complex)), h)
    np.testing.assert_allclose(q.cuts, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-12)
    np.testing.assert_allclose(q.values, [1.0, 2.0, 3.0])


def test_evaluate_quantile_sides_and_domain():
    obs = ClassicalObservable(eigh(PAULI_Z))
    assert obs.evaluate(PLUS, 0.25) == -1.0
    assert obs.evaluate(PLUS, 0.5) == -1.0  # left-continuous: cut belongs below
    assert obs.evaluate(PLUS, 0.75) == 1.0
    with pytest.raises(OutOfDomain):
        obs.evaluate(PLUS, 0.0)
    with pytest.raises(OutOfDomain):
        obs.evaluate(PLUS, 1.0)
    # a post map is applied pointwise after the quantile
    folded = compose(ABSOLUTE, obs)
    assert folded.evaluate(PLUS, 0.25) == 1.0
    assert folded.evaluate(PLUS, 0.75) == 1.0


def test_sample_is_deterministic_and_exact_on_eigenstates():
    obs = ClassicalObservable(eigh(PAULI_Z))
    up = PureState([1.0, 0.0])
    report = sample(obs, up, 500, seed=9)
    np.testing.assert_allclose(report.empirical, [1.0])
    assert report.max_abs_deviation == 0.0
    again = sample(obs, up, 500, seed=9)
    np.testing.assert_array_equal(report.empirical, again.empirical)
    assert report.chi_square == again.chi_square


def test_sample_drops_outcomes_at_or_below_its_weight_floor():
    # at (1, 0.1) the outcome -1 weighs 0.0099: kept at the default floor, dropped at 0.05
    obs = ClassicalObservable(eigh(PAULI_Z))
    h = PureState([1.0, 0.1])
    assert sample(obs, h, 1000, seed=5).outcomes.tolist() == [-1.0, 1.0]
    report = sample(obs, h, 1000, seed=5, weight_floor=0.05)
    assert report.outcomes.tolist() == [1.0]
    assert report.empirical.tolist() == [1.0]
    assert obs.outcome_quantile(h, weight_floor=0.05).values.tolist() == [1.0]


def test_sample_binomial_budget_on_plus():
    report = sample(ClassicalObservable(eigh(PAULI_Z)), PLUS, 100_000, seed=42)
    assert abs(report.empirical[1] - 0.5) <= 0.01
    assert report.empirical.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_three_outcomes_equal_weights():
    dec = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))
    h = PureState([1.0, 1.0, 1.0])
    report = sample(ClassicalObservable(dec), h, 100_000, seed=7)
    assert np.all(np.abs(report.empirical - 1 / 3) <= 0.01)


def test_sampling_chi_square_soundness():
    # 1000 seeded runs; the 99.9% quantile may be exceeded in at most 1% of
    # them (documented flake budget, deterministic for these seeds)
    rng = np.random.default_rng(83)
    n_runs = 1000
    bad = 0
    for k in range(n_runs):
        n = int(rng.integers(2, 8))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        obs = ClassicalObservable(dec)
        report = sample(obs, h, 2000, seed=10_000 + k)
        dof = len(report.outcomes) - 1
        if dof >= 1 and report.chi_square > CHI2_999[dof]:
            bad += 1
    assert bad <= n_runs // 100


def test_proposition_projector_examples():
    dec = eigh(PAULI_Z)
    full = proposition_from(dec, BorelSet.reals())
    assert max_abs(proposition_projector(full) - np.eye(2)) == 0.0
    below = proposition_from(dec, BorelSet.at_most(0.0))
    assert max_abs(proposition_projector(below) - np.diag([0, 1])) < 1e-12


def test_projector_complement_law_random():
    rng = np.random.default_rng(89)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        dec = eigh(rand_hermitian(rng, n))
        b = rand_borel(rng, avoid=dec.eigenvalues)
        direct = proposition_projector(proposition_from(dec, b.complement()))
        flipped = np.eye(n) - proposition_projector(proposition_from(dec, b))
        assert max_abs(direct - flipped) < 1e-10


def test_fiber_subset_examples():
    dec = eigh(PAULI_Z)
    everything = fiber_subset(proposition_from(dec, BorelSet.reals()), PLUS)
    assert everything == BorelSet.interval(0.0, 1.0)
    minus_atom = fiber_subset(proposition_from(dec, BorelSet.point(-1.0)), PLUS)
    assert minus_atom == BorelSet.interval(0.0, 0.5, False, True)
    missing = fiber_subset(proposition_from(dec, BorelSet.interval(5.0, 6.0)), PLUS)
    assert missing == BorelSet.empty()


def test_fiber_measure_equals_probability_random():
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        b = rand_borel(rng, avoid=dec.eigenvalues)
        prop = proposition_from(dec, b)
        assert fiber_subset(prop, h).measure() == pytest.approx(
            prob(dec, h, b), abs=1e-10
        )


def test_reduced_operator_round_trip_z():
    obs = ClassicalObservable(eigh(PAULI_Z))
    assert max_abs(reduced_operator(obs) - PAULI_Z) < 1e-10


def test_reduced_operator_absolute_post_map_reaches_identity():
    obs = compose(ABSOLUTE, ClassicalObservable(eigh(PAULI_Z)))
    assert max_abs(reduced_operator(obs) - np.eye(2)) < 1e-10


def test_reduced_operator_affine_on_ladder():
    dec = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))
    obs = compose(PiecewiseAffineFunction.affine(2.0, 1.0), ClassicalObservable(dec))
    assert max_abs(reduced_operator(obs) - np.diag([3.0, 5.0, 7.0])) < 1e-10


def test_reduction_matches_functional_calculus_random():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        dec = eigh(rand_hermitian(rng, n))
        g = rand_piecewise_affine(rng, eigenvalues=dec.eigenvalues)
        obs = compose(g, ClassicalObservable(dec))
        assert max_abs(reduced_operator(obs) - functional_calculus(dec, g)) < 1e-8


def test_fiber_integral_examples():
    ident = PiecewiseAffineFunction.identity()
    z_obs = ClassicalObservable(eigh(PAULI_Z))
    assert fiber_integral(ident, z_obs, PLUS) == pytest.approx(0.0, abs=1e-12)
    assert fiber_integral(ABSOLUTE, z_obs, PureState([0.3, 0.7])) == pytest.approx(1.0)
    ladder = ClassicalObservable(eigh(np.diag([1.0, 2.0, 3.0]).astype(complex)))
    assert fiber_integral(ident, ladder, PureState([1, 1, 1])) == pytest.approx(2.0)


def test_fiber_integral_matches_expectations_random():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        obs = ClassicalObservable(dec)
        ident = PiecewiseAffineFunction.identity()
        assert fiber_integral(ident, obs, h) == pytest.approx(
            expectation(dec, h), abs=1e-9
        )
        g = rand_piecewise_affine(rng, eigenvalues=dec.eigenvalues)
        assert fiber_integral(g, obs, h) == pytest.approx(
            expectation(eigh(functional_calculus(dec, g)), h), abs=1e-9
        )


def test_compose_identity_and_collapse():
    z_obs = ClassicalObservable(eigh(PAULI_Z))
    same = compose(PiecewiseAffineFunction.identity(), z_obs)
    q = same.outcome_quantile(PLUS)
    np.testing.assert_allclose(q.values, [-1.0, 1.0])
    collapsed = compose(ABSOLUTE, z_obs).outcome_quantile(PLUS)
    np.testing.assert_allclose(collapsed.values, [1.0])
    np.testing.assert_allclose(collapsed.cuts, [0.0, 1.0])


def test_compose_negation_swaps_weights():
    dec = eigh(np.diag([1.0, 2.0]).astype(complex))
    h = PureState([0.8, 0.6])
    base = quantile_function(dec, h)
    flipped = compose(PiecewiseAffineFunction.affine(-1.0, 0.0), ClassicalObservable(dec))
    q = flipped.outcome_quantile(h)
    np.testing.assert_allclose(q.values, [-2.0, -1.0])
    np.testing.assert_allclose(q.lengths(), base.lengths()[::-1], atol=1e-12)


def test_pushforward_atom_lengths_random():
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        for lam in dec.eigenvalues:
            atom = BorelSet.point(float(lam))
            length = fiber_subset(proposition_from(dec, atom), h).measure()
            assert length == pytest.approx(prob(dec, h, atom), abs=1e-10)


def test_pushforward_through_post_map():
    dec = eigh(PAULI_Z)
    obs = compose(ABSOLUTE, ClassicalObservable(dec))
    # preimage of the outcome atom {1} covers both eigenvalues
    pre = preimage(ABSOLUTE, BorelSet.point(1.0))
    length = fiber_subset(proposition_from(dec, pre), PLUS).measure()
    assert length == pytest.approx(1.0, abs=1e-12)
    assert obs.outcome_quantile(PLUS).lengths()[0] == pytest.approx(1.0)


def test_states_confusion_equivalence():
    h = PureState([1.0, 0.0])
    assert states_confusion_equivalent(h, PureState(np.exp(1j * 2.1) * h.vector))
    assert not states_confusion_equivalent(h, PureState([0.0, 1.0]))
    nearby = PureState([1.0, 1e-3])
    assert not states_confusion_equivalent(h, nearby)
    # the distinguishing projector: probabilities differ at order 1e-6
    dec = eigh(PAULI_Z)
    gap = abs(prob(dec, h, BorelSet.point(-1.0)) - prob(dec, nearby, BorelSet.point(-1.0)))
    assert gap > 1e-7


def test_observables_confusion_equivalence():
    z_obs = ClassicalObservable(eigh(PAULI_Z))
    x_obs = ClassicalObservable(eigh(PAULI_X))
    assert observables_confusion_equivalent(z_obs, z_obs)
    assert not observables_confusion_equivalent(z_obs, x_obs)
    squared = compose(ABSOLUTE, z_obs)
    identity_backed = ClassicalObservable(eigh(np.eye(2, dtype=complex)))
    assert observables_confusion_equivalent(squared, identity_backed)


def test_dimension_mismatch_paths():
    dec = eigh(PAULI_Z)
    tall = PureState([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        quantile_function(dec, tall)
    with pytest.raises(DimensionMismatch):
        fiber_subset(proposition_from(dec, BorelSet.reals()), tall)
    with pytest.raises(DimensionMismatch):
        observables_confusion_equivalent(
            ClassicalObservable(dec), ClassicalObservable(eigh(np.eye(3, dtype=complex)))
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_cells_stay_in_unit_interval_at_near_eigenstates(seed):
    # an eigenvector plus leakage 1e-11..1e-7: one weight rounds to within a
    # few ulp of 1, where running sums of the weights can overshoot 1
    rng = np.random.default_rng(seed)
    for n in range(2, 7):
        u = rand_unitary(rng, n)
        dec = eigh((u * np.sort(rng.uniform(-3.0, 3.0, n))) @ u.conj().T)
        for leak in (1e-11, 1e-9, 1e-7):
            k = int(rng.integers(0, n))
            h = PureState(u[:, k] + leak * rand_state(rng, n).vector)
            q = quantile_function(dec, h)
            assert q.cuts[0] == 0.0 and q.cuts[-1] == 1.0
            for events in (BorelSet.reals(), BorelSet.at_most(float(dec.eigenvalues[k]))):
                cells = fiber_subset(proposition_from(dec, events), h).intervals
                assert all(0.0 <= iv.lo < iv.hi <= 1.0 for iv in cells)
                assert sum(iv.measure() for iv in cells) == pytest.approx(
                    prob(dec, h, events), abs=1e-11
                )
