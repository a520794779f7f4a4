import numpy as np
import pytest

from conftest import rand_borel, rand_hermitian, rand_piecewise_affine, rand_state
from hvsim import (
    BorelSet,
    DimensionMismatch,
    PiecewiseAffineFunction,
    PureState,
    cdf,
    eigh,
    expectation,
    functional_calculus,
    max_abs,
    preimage,
    prob,
    spectral_projector,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = PureState([1.0, 1.0])


def test_pure_state_normalizes_and_compares_rays():
    h = PureState([3.0, 4.0j])
    assert np.linalg.norm(h.vector) == pytest.approx(1.0)
    phase = PureState(np.exp(1j * 0.7) * h.vector)
    assert h.same_ray(phase)
    assert not h.same_ray(PureState([4.0, -3.0j]))
    with pytest.raises(ValueError):
        PureState([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_pure_state_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        PureState([bad, 1.0])


def test_spectral_projector_extremes():
    dec = eigh(PAULI_Z)
    assert max_abs(spectral_projector(dec, BorelSet.reals()) - np.eye(2)) == 0.0
    assert max_abs(spectral_projector(dec, BorelSet.empty())) == 0.0


def test_spectral_projector_halfline_on_z():
    dec = eigh(PAULI_Z)
    assert max_abs(spectral_projector(dec, BorelSet.at_most(0.0)) - np.diag([0, 1])) < 1e-12


def test_prob_full_line_and_atom():
    dec = eigh(PAULI_Z)
    assert prob(dec, PLUS, BorelSet.reals()) == pytest.approx(1.0, abs=1e-12)
    # oracle: |<plus, e_up>|^2 computed directly
    direct = abs(np.vdot(PLUS.vector, np.array([1.0, 0.0]))) ** 2
    assert direct == pytest.approx(0.5)
    assert prob(dec, PLUS, BorelSet.point(1.0)) == pytest.approx(direct, abs=1e-12)


def test_prob_eigenstate_certainty():
    rng = np.random.default_rng(61)
    t = rand_hermitian(rng, 5)
    dec = eigh(t)
    k = 2
    column = np.linalg.eigh(t)[1][:, k]  # oracle eigenvector
    lam = np.linalg.eigvalsh(t)[k]
    h = PureState(column)
    window = BorelSet.interval(lam - 1e-3, lam + 1e-3)
    assert prob(dec, h, window) == pytest.approx(1.0, abs=1e-10)


def test_prob_additivity_on_disjoint_events():
    rng = np.random.default_rng(67)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        b1 = rand_borel(rng, avoid=dec.eigenvalues)
        b2 = rand_borel(rng, avoid=dec.eigenvalues) & b1.complement()
        total = prob(dec, h, b1 | b2)
        assert total == pytest.approx(prob(dec, h, b1) + prob(dec, h, b2), abs=1e-10)


def test_expectation_examples_and_quadratic_form_oracle():
    dec = eigh(PAULI_Z)
    assert expectation(dec, PLUS) == pytest.approx(0.0, abs=1e-12)
    assert expectation(dec, PureState([1.0, 0.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        t = rand_hermitian(rng, n)
        h = rand_state(rng, n)
        direct = float(np.vdot(h.vector, t @ h.vector).real)
        assert expectation(eigh(t), h) == pytest.approx(direct, abs=1e-10)


def test_cdf_limits_and_half_point():
    dec = eigh(PAULI_Z)
    assert cdf(dec, PLUS, -2.0) == 0.0
    assert cdf(dec, PLUS, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert cdf(dec, PLUS, 5.0) == pytest.approx(1.0, abs=1e-12)
    assert cdf(dec, PLUS, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_cdf_monotone_random():
    rng = np.random.default_rng(73)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        dec = eigh(rand_hermitian(rng, n))
        h = rand_state(rng, n)
        us = np.sort(rng.uniform(-8, 8, size=12))
        values = [cdf(dec, h, u) for u in us]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert cdf(dec, h, float(dec.eigenvalues[-1])) == pytest.approx(1.0, abs=1e-10)


def test_functional_calculus_identity_and_absolute():
    dec = eigh(PAULI_Z)
    ident = PiecewiseAffineFunction.identity()
    assert max_abs(functional_calculus(dec, ident) - PAULI_Z) < 1e-10
    absolute = PiecewiseAffineFunction((0.0,), ((-1.0, 0.0), (1.0, 0.0)), (0.0,))
    assert max_abs(functional_calculus(dec, absolute) - np.eye(2)) < 1e-12


def test_functional_calculus_clamp_on_z():
    dec = eigh(PAULI_Z)
    clamp = PiecewiseAffineFunction.step(0.0, 0.0, 1.0)
    # oracle: apply the map to each eigenvalue and recombine the projectors
    target = clamp(-1.0) * dec.projectors[0] + clamp(1.0) * dec.projectors[1]
    np.testing.assert_allclose(target, np.diag([1.0, 0.0]), atol=1e-12)
    assert max_abs(functional_calculus(dec, clamp) - target) == 0.0


def test_functional_calculus_spectral_measure_composition():
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 7))
        t = rand_hermitian(rng, n)
        dec = eigh(t)
        g = rand_piecewise_affine(rng, eigenvalues=dec.eigenvalues)
        images = [g(float(v)) for v in dec.eigenvalues]
        b = rand_borel(rng, avoid=list(dec.eigenvalues) + images)
        dec_g = eigh(functional_calculus(dec, g))
        lhs = spectral_projector(dec_g, b)
        rhs = spectral_projector(dec, preimage(g, b))
        assert max_abs(lhs - rhs) < 1e-8
        checked += 1


def test_dimension_mismatch():
    dec = eigh(PAULI_Z)
    with pytest.raises(DimensionMismatch):
        prob(dec, PureState([1.0, 0.0, 0.0]), BorelSet.reals())
    with pytest.raises(DimensionMismatch):
        expectation(dec, PureState([1.0, 0.0, 0.0]))
