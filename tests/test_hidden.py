import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_borel, rand_hermitian, rand_piecewise_affine, rand_state, rand_unitary
from hvsim import (
    BorelSet,
    ClassicalObservable,
    DimensionMismatch,
    OutOfDomain,
    PiecewiseAffineFunction,
    Proposition,
    PropositionQuadruple,
    PureState,
    SpectralDecomposition,
    compose,
    eigh,
    expectation,
    fiber_chsh_functions,
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
from hvsim.cli import Tolerances
import hvsim.hidden
from hvsim.hidden import WEIGHT_FLOOR, QuantileStep, _cell_counts, _fiber, _fiber_partition
from hvsim.quantum import SNAP_TOL

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


def test_sample_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        sample(ClassicalObservable(eigh(PAULI_Z)), PLUS, 10, seed=-1)


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


def _binned_counts(cuts, ts):
    """Oracle: the tabulation sample made before it counted per cut, one binary search per draw."""
    cells = np.searchsorted(cuts, ts, side="left") - 1
    return np.bincount(cells, minlength=len(cuts) - 1)


def _draws_with_cut_edges(rng, cuts, n):
    """n uniform draws on (0, 1) plus every interior cut and its two neighbouring floats."""
    inner = cuts[1:-1]
    edges = np.concatenate((inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)))
    ts = np.concatenate((rng.random(n), edges))
    return ts[ts > 0.0]


@pytest.mark.parametrize("cells", [1, 2, 8, 48])
def test_cell_counts_equal_binned_counts(cells):
    rng = np.random.default_rng(cells)
    for _ in range(20):
        _, cuts = _fiber_partition(rng.dirichlet(np.ones(cells)))
        assert len(cuts) == cells + 1
        ts = _draws_with_cut_edges(rng, cuts, 5000)
        counts = _cell_counts(cuts, ts)
        np.testing.assert_array_equal(counts, _binned_counts(cuts, ts))
        assert counts.dtype == np.int64 and counts.sum() == ts.size


def test_cell_counts_with_a_cell_dropped_by_weight_floor():
    # the middle outcome weighs 1e-13, at most weight_floor: two cells remain
    h = PureState(np.sqrt([0.4, 1e-13, 0.6]))
    q = quantile_function(eigh(np.diag([1.0, 2.0, 3.0]).astype(complex)), h)
    assert q.values.tolist() == [1.0, 3.0]
    ts = _draws_with_cut_edges(np.random.default_rng(3), q.cuts, 20_000)
    np.testing.assert_array_equal(_cell_counts(q.cuts, ts), _binned_counts(q.cuts, ts))


def test_cell_counts_at_a_near_eigenstate():
    # leakage 1e-13 kept at weight_floor 0: a cell of length about 1e-13 next to 1
    h = PureState([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
    q = quantile_function(eigh(PAULI_Z), h, weight_floor=0.0)
    assert q.lengths()[0] == pytest.approx(1e-13, rel=1e-3)
    ts = _draws_with_cut_edges(np.random.default_rng(4), q.cuts, 20_000)
    counts = _cell_counts(q.cuts, ts)
    np.testing.assert_array_equal(counts, _binned_counts(q.cuts, ts))
    assert counts[0] == 2  # the draws at and just below the cut


def test_sample_counts_pinned():
    # exact counts recorded while sample still searched per draw; any change
    # to the tabulation must leave them, not just stay inside the budgets
    report = sample(ClassicalObservable(eigh(PAULI_Z)), PLUS, 100_000, seed=42)
    assert report.empirical.tolist() == [0.49743, 0.50257]
    h = rand_state(np.random.default_rng(8), 8)
    report = sample(ClassicalObservable(eigh(np.diag(np.arange(8.0)).astype(complex))), h,
                    100_000, seed=8)
    assert report.empirical.tolist() == [
        0.18487, 0.17617, 0.11642, 0.00607, 0.28892, 0.10872, 0.06392, 0.05491
    ]


_WEIGHTS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(WEIGHT_FLOOR / 2, WEIGHT_FLOOR * 2),
    st.sampled_from([0.0, WEIGHT_FLOOR]),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    minor=st.lists(_WEIGHTS, max_size=11),
    major=st.floats(0.5, 1.0),
    where=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_fiber_partition_properties(minor, major, where, seed):
    weights = list(minor)
    weights.insert(min(where, len(weights)), major)
    dec = eigh(np.diag(np.arange(len(weights), dtype=float)).astype(complex))
    h = PureState(np.sqrt(weights))
    kept, cuts = _fiber_partition(dec.weights(h.vector))
    assert cuts[0] == 0.0 and cuts[-1] == 1.0
    assert np.all(np.diff(cuts) > 0)
    tol = Tolerances().pushforward_tol
    for k, length in zip(kept, np.diff(cuts)):
        assert abs(length - prob(dec, h, BorelSet.point(float(dec.eigenvalues[k])))) <= tol
    ts = _draws_with_cut_edges(np.random.default_rng(seed), cuts, 1000)
    np.testing.assert_array_equal(_cell_counts(cuts, ts), _binned_counts(cuts, ts))


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


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), breaks=st.integers(0, 3),
       spread=st.sampled_from([0.0, 3e-9]),
       offset=st.sampled_from([0.0, 0.5 * SNAP_TOL, -0.5 * SNAP_TOL, 0.99 * SNAP_TOL, -SNAP_TOL]))
def test_reduced_operator_round_trips_on_clustered_spectra(n, seed, breaks, spread, offset):
    # a planned spectrum of a few distinct values, so clusters of rank above 1, one of them
    # spread over `spread` (below cluster_tol), and a post map breaking on eigenvalues, or
    # within snap_tol of them, with jumps, flat pieces and reassigned breakpoint values. Both
    # the preimages and functional_calculus snap an eigenvalue within snap_tol onto the
    # breakpoint
    rng = np.random.default_rng(seed)
    distinct = np.sort(rng.choice(np.arange(-6.0, 7.0), size=int(rng.integers(1, min(n, 6) + 1)),
                                  replace=False))
    values = np.sort(np.concatenate([distinct, rng.choice(distinct, size=n - len(distinct))]))
    lowest = values == values[0]
    values[lowest] += spread * rng.random(int(lowest.sum()))
    u = rand_unitary(rng, n)
    dec = eigh((u * values) @ u.conj().T)
    lams = [float(x) for x in dec.eigenvalues]
    bps = sorted(rng.choice(lams, size=min(breaks, len(lams)), replace=False) + offset)
    pieces = [(float(rng.choice([0.0, -1.5, -0.5, 0.5, 2.0])), float(rng.uniform(-3, 3)))
              for _ in range(len(bps) + 1)]
    # at each breakpoint: its left limit, its right limit or a value of its own
    at = [float(rng.choice([m * b + c for m, c in pieces[i:i + 2]] + [rng.uniform(-3, 3)]))
          for i, b in enumerate(bps)]
    g = PiecewiseAffineFunction(tuple(float(b) for b in bps), tuple(pieces), tuple(at))
    tol = Tolerances().roundtrip_tol
    obs = ClassicalObservable(dec)
    for got, target in ((reduced_operator(obs), dec.operator()),
                        (reduced_operator(compose(g, obs)), functional_calculus(dec, g))):
        assert max_abs(got - target) <= tol * max(1.0, max_abs(target))


def test_fiber_integral_examples():
    ident = PiecewiseAffineFunction.identity()
    z_obs = ClassicalObservable(eigh(PAULI_Z))
    assert fiber_integral(ident, z_obs, PLUS) == pytest.approx(0.0, abs=1e-12)
    assert fiber_integral(ABSOLUTE, z_obs, PureState([0.3, 0.7])) == pytest.approx(1.0)
    ladder = ClassicalObservable(eigh(np.diag([1.0, 2.0, 3.0]).astype(complex)))
    assert fiber_integral(ident, ladder, PureState([1, 1, 1])) == pytest.approx(2.0)


def test_spectrum_wider_than_the_float64_range_builds_and_samples():
    # the eigenvalues +-1.7e308 are finite, their difference is not; no ordering check
    # may subtract them (pytest turns the overflow warning into an error)
    wide = eigh(np.diag([1.7e308, -1.7e308]).astype(complex))
    obs = ClassicalObservable(wide)
    assert list(quantile_function(wide, PLUS).values) == [-1.7e308, 1.7e308]
    assert list(sample(obs, PLUS, 1000, 0).outcomes) == [-1.7e308, 1.7e308]
    assert fiber_integral(PiecewiseAffineFunction.identity(), obs, PLUS) == pytest.approx(0.0)
    rebuilt = SpectralDecomposition(wide.eigenvalues, wide.projectors)
    assert list(rebuilt.eigenvalues) == [-1.7e308, 1.7e308]


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


def _dim16_with_a_zero_computed_below_it():
    """hv's dim-16 CI operator (planned spectrum -7, -7, -5..8, default_rng(16)), whose
    eigenvalue 0 is computed as -3.2e-16, the state on its eigenvector, and g with a
    breakpoint at 0 valued 4 between the pieces (-0.5, 1) and (2, -3)."""
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    w = np.arange(-7.0, 9.0)
    w[1] = -7.0
    a = (q * w) @ q.conj().T
    dec = eigh((a + a.conj().T) / 2)
    k = int(np.argmin(np.abs(dec.eigenvalues)))
    assert -SNAP_TOL < dec.eigenvalues[k] < 0.0
    h = PureState(dec.projectors[k] @ rng.standard_normal(16))
    g = PiecewiseAffineFunction((0.0,), ((-0.5, 1.0), (2.0, -3.0)), (4.0,))
    return dec, h, g


def test_fiber_side_snaps_the_post_map_onto_a_breakpoint_as_the_operators_do():
    # the eigenvalue lies within snap_tol of g's breakpoint, so <h, g(A) h> and the reduced
    # operator give it g(0) = 4, and so must the fiber: not g(-3.2e-16) = 1
    dec, h, g = _dim16_with_a_zero_computed_below_it()
    obs = ClassicalObservable(dec)
    post = compose(g, obs)
    for operator in (functional_calculus(dec, g), reduced_operator(post)):
        assert float(np.vdot(h.vector, operator @ h.vector).real) == pytest.approx(4.0)
    assert fiber_integral(g, obs, h) == pytest.approx(4.0)
    assert fiber_integral(PiecewiseAffineFunction.identity(), post, h) == pytest.approx(4.0)
    assert post.outcome_quantile(h).values.tolist() == [4.0]
    assert post.evaluate(h, 0.5) == 4.0
    # at snap_tol 0 nothing snaps, and g is taken at the computed eigenvalue
    assert fiber_integral(g, obs, h, snap_tol=0.0) == pytest.approx(1.0)
    assert post.outcome_quantile(h, snap_tol=0.0).values.tolist() == [pytest.approx(1.0)]
    assert post.evaluate(h, 0.5, snap_tol=0.0) == pytest.approx(1.0)


_LEAKAGE = st.floats(-17.0, -5.0).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), leak=_LEAKAGE)
def test_fiber_measures_equal_probabilities_at_near_eigenstates(n, seed, leak):
    # an eigenvector of a spectrum with clusters, leaking into the others; every event made
    # of eigenvalues (points, half lines, the spectrum less one) and two random ones
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, n)
    dec = eigh((u * rng.integers(-3, 4, size=n).astype(float)) @ u.conj().T)
    h = PureState(u[:, int(rng.integers(0, n))] + leak * rand_state(rng, n).vector)
    lams = [float(x) for x in dec.eigenvalues]
    events = [BorelSet.reals(), rand_borel(rng), rand_borel(rng, avoid=lams)]
    for lam in lams:
        events += [BorelSet.point(lam), BorelSet.at_most(lam), ~BorelSet.point(lam)]
    tol = Tolerances().pushforward_tol
    q = quantile_function(dec, h)
    for e in events:
        p = prob(dec, h, e)
        assert abs(fiber_subset(proposition_from(dec, e), h).measure() - p) <= tol
        cells = sum(float(c) for v, c in zip(q.values, q.lengths()) if e.contains(v, SNAP_TOL))
        assert abs(cells - p) <= tol


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


def test_compose_folds_an_existing_post_map():
    # compose(g, compose(h, obs)) folds g after h into one post map
    rng = np.random.default_rng(113)
    u = rand_unitary(rng, 4)
    dec = eigh((u * np.array([-2.0, -1.0, 1.0, 3.0])) @ u.conj().T)
    h = ABSOLUTE
    g = PiecewiseAffineFunction((1.5,), ((3.0, -1.0), (-1.0, 6.0)), (2.0,))
    obs = ClassicalObservable(dec)
    folded = compose(g, compose(h, obs))
    state = rand_state(rng, 4)
    for t in (0.01, 0.2, 0.37, 0.5, 0.63, 0.8, 0.99):
        assert folded.evaluate(state, t) == pytest.approx(g(h(obs.evaluate(state, t))), abs=1e-12)
    target = sum(g(h(float(lam))) * p for lam, p in zip(dec.eigenvalues, dec.projectors))
    assert max_abs(reduced_operator(folded) - target) <= 1e-8


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


def _counted_builds(monkeypatch) -> list:
    """The weights each fiber partition is built from, one entry per build."""
    builds = []

    def counted(weights, weight_floor=WEIGHT_FLOOR):
        builds.append(weights)
        return _fiber_partition(weights, weight_floor)

    monkeypatch.setattr(hvsim.hidden, "_fiber_partition", counted)
    return builds


def _fiber_sampling_calls(dec, h, seed=0):
    """The fiber calls of one fiber-sampling operation, then the other fiber readers."""
    obs = ClassicalObservable(dec)
    lams = [float(x) for x in dec.eigenvalues]
    events = [BorelSet.point(lams[0]), BorelSet.at_most(lams[1]), BorelSet.reals()]
    quantile_function(dec, h)
    for e in events:
        prob(dec, h, e)
    expectation(dec, h)
    fiber_integral(PiecewiseAffineFunction.identity(), obs, h)
    fiber_integral(ABSOLUTE, obs, h)
    for e in events:
        fiber_subset(proposition_from(dec, e), h)
    sample(obs, h, 1000, seed)
    obs.outcome_quantile(h)
    for t in (0.1, 0.5, 0.9):
        obs.evaluate(h, t)
    quad = PropositionQuadruple(*(proposition_from(dec, e) for e in (*events, ~events[0])))
    fiber_chsh_functions(quad, h)


@pytest.mark.parametrize("public", [False, True])
def test_one_fiber_build_per_decomposition_and_state(monkeypatch, public):
    rng = np.random.default_rng(26)
    dec = eigh(rand_hermitian(rng, 4))
    if public:  # the public constructor gives the same empty slot as eigh's _trusted
        dec = SpectralDecomposition(dec.eigenvalues, dec.projectors)
    h, k = rand_state(rng, 4), rand_state(rng, 4)
    builds = _counted_builds(monkeypatch)
    _fiber_sampling_calls(dec, h)
    assert len(builds) == 1
    _fiber_sampling_calls(dec, PureState(h.vector.copy()))  # equal content is the same key
    assert len(builds) == 1
    _fiber_sampling_calls(dec, k)
    assert len(builds) == 2
    _fiber_sampling_calls(dec, h)  # the slot holds one entry, so the first state builds again
    assert len(builds) == 3
    quantile_function(dec, h, weight_floor=0.05)  # as does another floor
    assert len(builds) == 4
    other = eigh(dec.operator())  # another decomposition keeps its own slot
    _fiber_sampling_calls(other, PureState(h.vector))
    assert len(builds) == 5


def test_the_fiber_slot_is_private_and_bounded():
    dec = eigh(PAULI_Z)
    before = repr(dec)
    for h in (PLUS, PureState([1.0, 0.0]), PureState([0.6, 0.8])):
        quantile_function(dec, h)
        assert dec._fiber[0] == (h.vector.tobytes(), WEIGHT_FLOOR)  # the last state only
    assert repr(dec) == before
    private = [f.name for f in dataclasses.fields(SpectralDecomposition)
               if not (f.init or f.repr or f.compare)]
    assert private == ["_fiber"]


def _assert_fresh_bits(dec, h, weight_floor) -> bool:
    """_fiber, through quantile_function and (at the default floor) fiber_subset, has the bits
    of a fresh build, read-only; or, where a fresh build refuses, raises the same error and
    keeps the slot as it was. Returns whether the build kept a partition."""
    try:
        kept, cuts = _fiber_partition(dec.weights(h.vector), weight_floor)
    except ValueError as exc:
        slot = dec._fiber
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            quantile_function(dec, h, weight_floor)
        assert dec._fiber is slot
        return False
    fresh = QuantileStep(cuts, dec.eigenvalues[kept])
    got_kept, step = _fiber(dec, h, weight_floor)
    for got, want in ((got_kept, kept), (step.cuts, cuts), (step.values, fresh.values),
                      (quantile_function(dec, h, weight_floor).cuts, cuts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    if weight_floor == WEIGHT_FLOOR:  # fiber_subset drops cells at the default floor
        for k, m in enumerate(kept.tolist()):
            atom = proposition_from(dec, BorelSet.point(float(dec.eigenvalues[m])))
            (cell,) = fiber_subset(atom, h).intervals
            assert (cell.lo, cell.hi) == (cuts[k], cuts[k + 1])
    return True


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), leak=_LEAKAGE,
       order=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, WEIGHT_FLOOR, 0.05, 0.3])),
                      min_size=1, max_size=8))
def test_a_kept_fiber_has_the_bits_of_a_fresh_build(n, seed, leak, order):
    # near-eigenstates, their eigenvector and a random state, at every floor, asked about
    # repeatedly and alternately; a floor no weight exceeds (0.3 on some states, and 1 on
    # all) raises every time and is never kept
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, n)
    dec = eigh((u * rng.integers(-3, 4, size=n).astype(float)) @ u.conj().T)
    k = int(rng.integers(0, n))
    states = [PureState(u[:, k] + leak * rand_state(rng, n).vector), PureState(u[:, k]),
              rand_state(rng, n)]
    for which, weight_floor in order:
        _assert_fresh_bits(dec, states[which], weight_floor)
        assert not _assert_fresh_bits(dec, states[which], 1.0)
