import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (grid_table, projector_rows, rand_borel, rand_hermitian,
                      rand_piecewise_affine, rand_state, rand_unitary)
from hvsim import (
    BorelSet,
    ClassicalObservable,
    DimensionMismatch,
    Interval,
    PiecewiseAffineFunction,
    Proposition,
    PropositionQuadruple,
    PureState,
    cdf,
    compose,
    eigh,
    expectation,
    fiber_chsh_functions,
    fiber_subset,
    functional_calculus,
    max_abs,
    preimage,
    prob,
    quantile_function,
    reduced_operator,
    spectral_projector,
)
from hvsim.cli import ProblemFile, Tolerances, run_quantile
from hvsim.hidden import _fiber_partition
from hvsim.quantum import SNAP_TOL, _classified, _event_projectors, _event_table, _quadratic_prob

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


def test_pure_state_normalizes_huge_and_tiny_vectors():
    # <v, v> overflows to inf for (1e200, 0) and underflows to 0 for (1e-200, 0)
    for scale in (1e200, 1e-200):
        assert PureState([scale, 0.0]).vector.tolist() == [1.0, 0.0]


def test_pure_state_normalizes_a_subnormal_vector():
    # 1 / 2**-1032, the reciprocal of the scale for this peak, is past float range
    assert PureState([0.0, 2.2250738585072014e-311j]).vector.tolist() == [0.0, 1j]
    assert PureState([5e-324, 0.0]).vector.tolist() == [1.0, 0.0]


def test_spectral_projector_extremes():
    dec = eigh(PAULI_Z)
    assert max_abs(spectral_projector(dec, BorelSet.reals()) - np.eye(2)) == 0.0
    assert max_abs(spectral_projector(dec, BorelSet.empty())) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 48])
def test_event_projectors_equal_spectral_projector_bit_for_bit(n):
    rng = np.random.default_rng(211 + n)
    # one simple spectrum and one with repeated eigenvalues, so projectors of rank above 1
    u = rand_unitary(rng, n)
    planned = (u * rng.integers(-2, 3, size=n).astype(float)) @ u.conj().T
    for op in (rand_hermitian(rng, n), (planned + planned.conj().T) / 2):
        dec = eigh(op)
        lams = [float(x) for x in dec.eigenvalues]
        events = [BorelSet.empty(), BorelSet.reals(), BorelSet.points(lams[::2]),
                  rand_borel(rng), rand_borel(rng, avoid=lams)]
        for lam in lams[:6]:
            # an endpoint within snap_tol of an eigenvalue, on either side, open or closed
            near = lam + float(rng.uniform(-0.9, 0.9)) * SNAP_TOL
            closed = bool(rng.integers(0, 2))
            events += [BorelSet.interval(near, near + 1.0, closed, True),
                       BorelSet.interval(near - 1.0, near, True, closed),
                       BorelSet.point(near)]
        got = _event_projectors(dec, events)
        assert got.shape == (len(events), n, n) and got.dtype == np.complex128
        for g, e, row in zip(got, events, grid_table(events, lams)):
            # one row takes the same matrix product as many, so the bits agree wherever
            # a gemm adds each entry's terms in an order that does not depend on the row count:
            # OpenBLAS 0.3.31's SkylakeX, Haswell and Katmai kernels do, its Sandybridge kernel
            # does not, and there n = 48 fails
            want = projector_rows(dec, [row])[0]
            np.testing.assert_array_equal(g.view(np.int64), want.view(np.int64))
            # the event alone is that row wherever no other event's endpoint lies nearer
            if row == [e.contains(lam, SNAP_TOL) for lam in lams]:
                _assert_same_bits(spectral_projector(dec, e), want)
            # the sum itself, in whatever order BLAS adds it
            chosen = [p for c, p in zip(row, dec.projectors) if c]
            np.testing.assert_allclose(want, sum(chosen, np.zeros((n, n))), rtol=0, atol=1e-13)


def _reduced_operator_loop(obs: ClassicalObservable) -> np.ndarray:
    """reduced_operator with one masked product per outcome, of its event's row of the grid
    oracle over all the outcomes' events: the oracle for the bits of its one
    _event_projectors call."""
    dim = obs.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    prev = np.zeros((dim, dim), dtype=np.complex128)
    outcomes = obs.outcome_values()
    below = [BorelSet.at_most(float(u)) for u in outcomes]
    events = below if obs.post is None else [preimage(obs.post, b) for b in below]
    for u, row in zip(outcomes, grid_table(events, obs.backing.eigenvalues, SNAP_TOL)):
        e_u = projector_rows(obs.backing, [row])[0]
        total += float(u) * (e_u - prev)
        prev = e_u
    return total


def _atom_probabilities_loop(dec, state: PureState) -> list[float]:
    """hv quantile's atom probabilities as one masked product and quadratic form per atom,
    of its row of the grid oracle over all the atoms: the oracle for their bits."""
    atoms = [BorelSet.point(float(v)) for v in quantile_function(dec, state).values]
    return [_quadratic_prob(projector_rows(dec, [row])[0], state.vector)
            for row in grid_table(atoms, dec.eigenvalues, SNAP_TOL)]


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 48])
def test_batched_event_callers_equal_their_per_event_loops_bit_for_bit(n):
    # each caller's rows come from one product of many rows and the oracles' from products
    # of two, so, as in the test above, the bits agree only on a kernel whose rows do not
    # depend on the row count: OpenBLAS's Sandybridge kernel fails n = 5 to 48
    rng = np.random.default_rng(401 + n)
    u = rand_unitary(rng, n)
    planned = (u * rng.integers(-3, 4, size=n).astype(float)) @ u.conj().T
    for op in (rand_hermitian(rng, n), (planned + planned.conj().T) / 2):
        dec = eigh(op)
        lams = [float(x) for x in dec.eigenvalues]
        # a jump and a flat piece, with the breakpoint on an eigenvalue
        g = PiecewiseAffineFunction((lams[len(lams) // 2],), ((-0.5, 1.0), (0.0, 4.0)), (2.5,))
        obs = ClassicalObservable(dec)
        for o in (obs, compose(g, obs)):
            _assert_same_bits(reduced_operator(o), _reduced_operator_loop(o))

        h = rand_state(rng, n)
        problem = ProblemFile(n, Tolerances(), {"a": op}, {"h": h}, {}, {}, [], "<test>", "")
        got = run_quantile(problem, "a", "h")["atom_probabilities"]
        _assert_same_bits(got, _atom_probabilities_loop(dec, h))

        # the second proposition carries a bit-equal decomposition of its own
        props = (Proposition(dec, BorelSet.points(lams[::2])),
                 Proposition(eigh(op), rand_borel(rng)),
                 Proposition(dec, BorelSet.at_most(lams[-1] - 0.5)),
                 Proposition(dec, rand_borel(rng, avoid=lams)))
        got = PropositionQuadruple(*props).projectors()
        assert len(got) == 4 and not any(p.flags.writeable for p in got)
        for p, row in zip(got, grid_table([prop.borel for prop in props], lams)):
            _assert_same_bits(p, projector_rows(dec, [row])[0])


def _fiber_subset_loop(prop: Proposition, state: PureState) -> BorelSet:
    kept, cuts = _fiber_partition(prop.backing.weights(state.vector))
    parts = []
    for k, lam in enumerate(prop.backing.eigenvalues[kept]):
        if prop.borel.contains(float(lam), SNAP_TOL):
            top = float(cuts[k + 1])
            parts.append(Interval(float(cuts[k]), top, False, top != 1.0))
    return BorelSet(tuple(parts))


def _fiber_signs_loop(quad: PropositionQuadruple, state: PureState) -> list:
    lambdas = quad.backing.eigenvalues[_fiber_partition(quad.backing.weights(state.vector))[0]]
    # the four sets are classified together, on the grid of all their endpoints
    rows = grid_table([p.borel for p in (quad.a1, quad.a2, quad.b1, quad.b2)], lambdas)
    a1, a2, b1, b2 = (np.where(row, 1, -1) for row in rows)
    return [[a * b for b in (b1, b2)] for a in (a1, a2)]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_kept_classification_equals_the_contains_loops_bit_for_bit(n):
    # each caller of the kept table, twice (a fresh table, then the kept one), against its
    # loop; events near the eigenvalues and a spectrum with clusters included
    rng = np.random.default_rng(601 + n)
    u = rand_unitary(rng, n)
    planned = (u * rng.integers(-2, 3, size=n).astype(float)) @ u.conj().T
    for op in (rand_hermitian(rng, n), (planned + planned.conj().T) / 2):
        dec = eigh(op)
        lams = [float(x) for x in dec.eigenvalues]
        near = lams[0] + float(rng.uniform(-0.9, 0.9)) * SNAP_TOL
        events = [BorelSet.points(lams[::2]), BorelSet.at_most(near), rand_borel(rng),
                  rand_borel(rng, avoid=lams), BorelSet.interval(near, lams[-1], True, False)]
        quad = PropositionQuadruple(*(Proposition(dec, e) for e in events[1:]))
        h = rand_state(rng, n)
        for _ in range(2):
            _assert_same_bits(_event_projectors(dec, events),
                              projector_rows(dec, grid_table(events, lams)))
            for e in events:
                assert fiber_subset(Proposition(dec, e), h) == _fiber_subset_loop(
                    Proposition(dec, e), h)
            got = fiber_chsh_functions(quad, h).signs
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, _fiber_signs_loop(quad, h))


def test_kept_classification_stays_within_its_bound():
    bound = _classified.cache_info().maxsize
    assert bound == 64
    events = (BorelSet.at_most(0.0), BorelSet.point(1.0))
    for k in range(300):
        table = _event_table(events, np.array([-1.0, 0.5 * k, 1.0]), SNAP_TOL)
        assert table.tolist() == [[True, k == 0, False], [False, k == 2, True]]
        assert _classified.cache_info().currsize <= bound


_NEAR = (0.0, SNAP_TOL / 2, SNAP_TOL, math.nextafter(SNAP_TOL, math.inf))


def _piece(kind: str, at: float, other: float, closed: bool) -> Interval:
    """An open, closed, point or unbounded piece with one endpoint at `at`."""
    lo, hi = sorted((at, other))
    return {"open": Interval(lo, hi), "closed": Interval(lo, hi, True, True),
            "point": Interval(at, at, True, True), "below": Interval(-math.inf, at, False, closed),
            "above": Interval(at, math.inf, closed, False)}[kind]


_PIECE = st.tuples(st.integers(0, 7), st.sampled_from(_NEAR), st.sampled_from((-1.0, 1.0)),
                   st.sampled_from(("open", "closed", "point", "below", "above")),
                   st.sampled_from(_NEAR + (0.5,)), st.sampled_from((-1.0, 1.0)), st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       events=st.lists(st.lists(_PIECE, min_size=1, max_size=3), min_size=1, max_size=4))
def test_events_with_endpoints_within_snap_tol_of_eigenvalues(n, seed, events):
    # each endpoint is an eigenvalue offset by 0, snap_tol / 2, snap_tol or just past it; an
    # open or closed piece's other end is offset from the same eigenvalue, or 0.5 away
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, n)
    dec = eigh((u * rng.integers(-4, 5, size=n).astype(float)) @ u.conj().T)
    lams = [float(x) for x in dec.eigenvalues]
    sets = [BorelSet(tuple(
        _piece(kind, lams[i % len(lams)] + sign * off, lams[i % len(lams)] + other_sign * other,
               closed)
        for i, off, sign, kind, other, other_sign, closed in pieces)) for pieces in events]
    h = rand_state(rng, n)
    kept, cuts = _fiber_partition(dec.weights(h.vector))
    table = _event_table(sets, dec.eigenvalues, SNAP_TOL)
    assert table.dtype == bool and not table.flags.writeable
    assert table.tolist() == grid_table(sets, lams)
    for e, got, row in zip(sets, _event_projectors(dec, sets), table.tolist()):
        want = sum((p for p, c in zip(dec.projectors, row) if c), np.zeros((n, n)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        # alone, the event classifies by its own endpoints
        chosen = [e.contains(lam, SNAP_TOL) for lam in lams]
        assert _event_table([e], dec.eigenvalues, SNAP_TOL).tolist() == [chosen]
        # the fiber cells are those of the eigenvalues the event selects, no more and no fewer
        subset = fiber_subset(Proposition(dec, e), h)
        cells = [Interval(cuts[k], cuts[k + 1], False, cuts[k + 1] != 1.0)
                 for k, m in enumerate(kept) if chosen[m]]
        assert subset == BorelSet(tuple(cells))
        assert abs(subset.measure() - prob(dec, h, e)) <= 1e-10


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
