import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_correlation,
    oracle_meet,
    rand_commuting_projectors,
    rand_degenerate_hermitian,
    rand_hermitian,
    rand_pair_sharing,
    rand_projector,
    rand_unitary,
)
import hvsim
from hvsim import (
    ChshConfig,
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    PureState,
    SpectralDecomposition,
    common_refinement_quadruple,
    commutes,
    correlation_operator,
    eigh,
    ensure_projector,
    joint_propositions,
    max_abs,
    projector_join,
    projector_meet,
    projector_rank,
)
from hvsim.linalg import (
    CLUSTER_TOL,
    JACOBI_OFF_TOL,
    MEET_TOL,
    MEET_TOL_MAX,
    PROJECTOR_TOL,
    _SINGLE_MIN_N,
    _checked_projector,
    _ensure_projectors,
    _jacobi,
    _meet_classes,
    _off_norm,
    _pair_meets,
    _round_robin,
    _rounds,
    _sweep,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eigh_diagonal_merges_degenerate_eigenvalues():
    dec = eigh(np.diag([3.0, 1.0, 1.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])
    assert dec.ranks == (2, 1)
    np.testing.assert_allclose(dec.projectors[0], np.diag([0, 1, 1]), atol=1e-12)
    np.testing.assert_allclose(dec.projectors[1], np.diag([1, 0, 0]), atol=1e-12)


def test_eigh_pauli_x_matches_halved_projectors():
    # oracle: (I -+ X)/2 are idempotent and recombine to X, by direct multiplication
    p_minus = (np.eye(2) - PAULI_X) / 2
    p_plus = (np.eye(2) + PAULI_X) / 2
    assert max_abs(p_minus @ p_minus - p_minus) == 0.0
    assert max_abs(p_plus @ p_plus - p_plus) == 0.0
    assert max_abs(-p_minus + p_plus - PAULI_X) == 0.0

    dec = eigh(PAULI_X)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert max_abs(dec.projectors[0] - p_minus) < 1e-12
    assert max_abs(dec.projectors[1] - p_plus) < 1e-12


def test_eigh_reconstructs_random_hermitian_n6():
    rng = np.random.default_rng(7)
    t = rand_hermitian(rng, 6)
    dec = eigh(t)
    assert max_abs(dec.operator() - t) < 1e-8


@pytest.mark.parametrize("n", range(2, 9))
def test_eigh_invariants_random(n):
    # decomposition invariants are enforced at construction; here we add the
    # reconstruction check and compare eigenvalues with the numpy oracle
    rng = np.random.default_rng(100 + n)
    for trial in range(15):  # 7 dims x 15 = 105 instances
        t = rand_degenerate_hermitian(rng, n) if trial % 3 == 0 else rand_hermitian(rng, n)
        dec = eigh(t)
        assert max_abs(dec.operator() - t) < 1e-8
        expanded = np.repeat(dec.eigenvalues, dec.ranks)
        np.testing.assert_allclose(expanded, np.linalg.eigvalsh(t), atol=1e-8)
        assert max_abs(dec.projectors.sum(axis=0) - np.eye(n)) < 1e-8


def test_eigh_keeps_each_cluster_mean_inside_its_cluster():
    # the mean of three copies of x rounds one ulp below x, onto the cluster below it
    x = -3.796901432982346
    below = np.nextafter(x, -np.inf)
    assert np.mean([x, x, x]) == below
    dec = eigh(np.diag([below, x, x, x]).astype(complex), cluster_tol=1e-300)
    assert dec.eigenvalues.tolist() == [below, x]
    assert dec.ranks == (1, 3)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_sweep_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(hvsim.linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceFailure):
        eigh(PAULI_X)


def test_eigh_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            eigh([[bad]])
        with pytest.raises(ValueError, match="finite"):
            eigh(np.diag([1.0, bad]))


@pytest.mark.parametrize("n", [*range(1, 10), 48])
def test_round_robin_rounds_are_disjoint_and_a_sweep_holds_each_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    swept = []
    for p, q in rounds:
        members = np.concatenate((p, q)).tolist()
        assert len(p) == n // 2 and len(set(members)) == len(members)
        assert np.all(p < q) and np.all(q < n)  # the dummy index n of odd n never appears
        swept += zip(p.tolist(), q.tolist())
    assert sorted(swept) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [*range(2, 10), 48])
def test_a_sweep_applies_its_rounds_in_pairs_with_no_repeated_position(n):
    # one block per two rounds and one for an odd last round; the put of W = J1 J2 names
    # each position once, also around an odd n's idle index
    blocks = _rounds(n)
    assert len(blocks) == (len(_round_robin(n)) + 1) // 2
    for block in blocks:
        put = block[4]  # the positions of W
        assert len(np.unique(put)) == len(put) <= 4 * n


def _one_round_per_product_sweep(a: np.ndarray, v: np.ndarray) -> tuple:
    """A sweep that applies each round by its own three dense products, J* a J and v J, its
    rotations gathered from the matrix the previous round left: the paired sweep's oracle.
    The phase a_pq / |a_pq| is divided part by part, as _rotation divides it, since the
    members that converge first reach subnormal couplings while the others sweep on."""
    n = a.shape[-1]
    flat = a.shape[:-2] + (-1,)
    eye = np.eye(n, dtype=np.complex128) + np.zeros(a.shape, dtype=np.complex128)
    for p, q in _round_robin(n):
        h = len(p)
        pq, qp, pp, qq = p * n + q, q * n + p, p * (n + 1), q * (n + 1)
        g = a.reshape(flat)[..., np.concatenate((pq, pp, qq))]
        apq = g[..., :h]
        mag = np.abs(apq)
        live = mag != 0.0
        if not live.any():
            continue
        d = g[..., 2 * h:].real - g[..., h:2 * h].real
        t = np.divide(np.copysign(2.0 * mag, d), np.abs(d) + np.hypot(d, 2.0 * mag),
                      out=np.zeros(mag.shape), where=live)
        c = 1.0 / np.sqrt(1.0 + t * t)
        phase = np.zeros(mag.shape, dtype=np.complex128)
        np.divide(apq.real, mag, out=phase.real, where=live)
        np.divide(apq.imag, mag, out=phase.imag, where=live)
        s = t * c * phase
        j = eye.copy()
        j.reshape(flat)[..., np.concatenate((pq, qp, pp, qq))] = np.concatenate(
            (s, -s.conj(), c, c), axis=-1)
        a = j.conj().swapaxes(-1, -2) @ a @ j
        a.reshape(flat)[..., np.concatenate((pq, qp))] = 0.0
        v = v @ j
    return (a + a.conj().swapaxes(-1, -2)) / 2.0, v


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    stacked=st.booleans(),
    blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_paired_sweep_agrees_with_one_round_per_product(n, stacked, blocks, seed):
    # each member is block diagonal over a random partition of the indices into up to three
    # classes, so that rounds hold pairs that are exactly 0, and scaled to max|a| = 1 as
    # _jacobi scales; every sweep starts both from the paired sweep's last result
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(3 if stacked else 1):
        a = rand_hermitian(rng, n)
        label = rng.integers(blocks, size=n)
        a[label[:, None] != label] = 0.0
        members.append(a / max_abs(a))
    a = np.stack(members) if stacked else members[0]
    v = np.eye(n, dtype=np.complex128) + np.zeros(a.shape, dtype=np.complex128)
    tol = 4.0 * n * np.finfo(float).eps  # times max|a| = 1
    for _ in range(20):
        want_a, want_v = _one_round_per_product_sweep(a, v)
        a, v = _sweep(a, v, _rounds(n))
        assert max_abs(a - want_a) <= tol
        assert max_abs(v - want_v) <= tol
        assert np.max(np.abs(_off_norm(a) - _off_norm(want_a))) <= tol
        if np.all(_off_norm(a) <= JACOBI_OFF_TOL):
            break


def test_jacobi_on_diagonal_input_only_sorts():
    raw, v, _ = _jacobi(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert raw.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(v, np.eye(3)[:, [1, 2, 0]])
    # and from _SINGLE_MIN_N on, where the loose stage is complex64: a member it leaves
    # unswept is certified by its exact double off-norm, and is not refined
    d = np.random.default_rng(5).permutation(_SINGLE_MIN_N) - 16.0
    raw, v, work = _jacobi(np.diag(d).astype(complex))
    assert raw.tolist() == sorted(d) and work.steps.tolist() == [0]
    assert np.array_equal(v, np.eye(_SINGLE_MIN_N)[:, np.argsort(d)])


@pytest.mark.parametrize("n, single", [(_SINGLE_MIN_N - 1, False), (_SINGLE_MIN_N, True)])
def test_the_loose_stage_runs_in_complex64_from_single_min_n(monkeypatch, n, single):
    # below the gate a solve keeps the double-precision path, bit for bit: its bits are
    # those of a solve with the gate raised out of reach; from the gate on, the complex64
    # loose stage moves the bits, and the result still meets the oracle and the bound
    a = rand_hermitian(np.random.default_rng(101), n)
    raw, v, _ = _jacobi(a)
    monkeypatch.setattr(hvsim.linalg, "_SINGLE_MIN_N", n + 1)
    double_raw, double_v, _ = _jacobi(a)
    assert (_bits(raw) == _bits(double_raw) and _bits(v) == _bits(double_v)) is not single
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-11)
    assert n * max_abs(v.conj().T @ v - np.eye(n)) <= PROJECTOR_TOL / 2


def test_jacobi_leaves_zero_pairs_of_a_live_round_unrotated():
    # even and odd indices span invariant subspaces, so rounds mix live pairs with
    # pairs whose a[p, q] is exactly 0; an identity block keeps those exactly 0
    rng = np.random.default_rng(11)
    n = 9
    even, odd = np.arange(0, n, 2), np.arange(1, n, 2)
    a = rand_hermitian(rng, n)
    a[np.ix_(even, odd)] = 0.0
    a[np.ix_(odd, even)] = 0.0
    assert any(len(set((p - q) % 2)) == 2 for p, q in _round_robin(n))
    raw, v, _ = _jacobi(a)
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-12)
    support = v != 0.0
    assert np.all(support[even].any(axis=0) != support[odd].any(axis=0))


@pytest.mark.parametrize("n", [16, 33, 48])
def test_jacobi_matches_numpy_oracle(n):
    rng = np.random.default_rng(200 + n)
    a = rand_hermitian(rng, n)
    raw, v, _ = _jacobi(a)
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-11)
    assert max_abs(v @ np.diag(raw) @ v.conj().T - a) <= 1e-12
    assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-12


# gaps between neighbouring eigenvalues of the property test's spectra: exact degeneracy,
# a chain link far inside cluster_tol, gaps on either side of cluster_tol, and a wide gap
SPECTRUM_GAPS = (0.0, 1e-9, 0.5 * CLUSTER_TOL, 0.9 * CLUSTER_TOL, 1.1 * CLUSTER_TOL,
                 2.0 * CLUSTER_TOL, None)


def _planned_spectrum(rng, gaps) -> np.ndarray:
    wide = rng.uniform(0.2, 1.0, size=len(gaps))
    steps = [w if g is None else g for g, w in zip(gaps, wide)]
    return rng.uniform(-3.0, -1.0) + np.concatenate(([0.0], np.cumsum(steps)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["spectrum", "correlation"]),
    n=st.integers(2, 16),
    gaps=st.lists(st.sampled_from(SPECTRUM_GAPS), min_size=15, max_size=15),
    exponent=st.one_of(st.just(0), st.integers(-1000, 1000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_agrees_with_numpy_on_eigenvalues_and_cluster_projectors(kind, n, gaps, exponent,
                                                                        seed):
    # planned spectra with degenerate, chained and near-cluster_tol gaps, or e + f - I at
    # n = 2, 4 and 8, all scaled by 2**exponent
    rng = np.random.default_rng(seed)
    if kind == "spectrum":
        u = rand_unitary(rng, n)
        a = (u * _planned_spectrum(rng, gaps[:n - 1])) @ u.conj().T
    else:
        n = 2 ** (1 + n % 3)
        a = rand_projector(rng, n) + rand_projector(rng, n) - np.eye(n)
    a = (a + a.conj().T) / 2.0 * np.ldexp(1.0, exponent)
    largest = max_abs(a)
    # Weyl: each solver's eigenvalues lie within its backward error of A's. _jacobi stops
    # at an off-diagonal norm of JACOBI_OFF_TOL max(1, max|A|); the rounding of either
    # solver's products is a few ulps of n |A|_2 <= n**2 max|A| per step
    tol = JACOBI_OFF_TOL * max(1.0, largest) + 100.0 * n * n * np.finfo(float).eps * largest
    w, u = np.linalg.eigh(a)
    raw = _jacobi(a)[0]
    assert np.max(np.abs(raw - w)) <= tol

    dec = eigh(a)
    ends = np.cumsum(dec.ranks)
    # eigh cuts where numpy's gap is surely above cluster_tol, and joins where it is surely
    # at most cluster_tol; a gap within 2 tol of cluster_tol may go either way
    cut = np.isin(np.arange(1, n), ends[:-1])
    assert not np.any(~cut & (np.diff(w) > CLUSTER_TOL + 2 * tol))
    assert not np.any(cut & (np.diff(w) <= CLUSTER_TOL - 2 * tol))
    for value, p, lo, hi in zip(dec.eigenvalues, dec.projectors, ends - dec.ranks, ends):
        # each cluster's value lies within its members' span
        assert w[lo] - tol <= value <= w[hi - 1] + tol
        # Davis-Kahan: each solver's cluster subspace is within its residual over the gap
        # to the rest of the spectrum of the true one, so the projectors differ by at most
        # twice that, plus the rounding of forming them. At a gap of 0 the bound is vacuous:
        # where cluster_tol is below the eigenvalues' resolution (large scales), eigh may cut
        # a cluster between two eigenvalues the oracle computes equal
        gap = min(w[lo] - w[lo - 1] if lo > 0 else np.inf, w[hi] - w[hi - 1] if hi < n else np.inf)
        bound = 2.0 * tol / gap if gap > 0.0 else np.inf
        oracle = u[:, lo:hi] @ u[:, lo:hi].conj().T
        assert max_abs(p - oracle) <= bound + 10.0 * n * np.finfo(float).eps


# the links within a planned cluster, at most cluster_tol, and the cuts between clusters,
# above it; None is a wide cut
CLUSTER_LINKS = (0.5 * CLUSTER_TOL, 0.9 * CLUSTER_TOL)
CLUSTER_CUTS = (1.1 * CLUSTER_TOL, 2.0 * CLUSTER_TOL, None)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
# the largest n, in chains of four and of three, with every link and cut at its narrowest
@example(n=16, chains=[4] * 16, links=[0.9 * CLUSTER_TOL] * 15, cuts=[1.1 * CLUSTER_TOL] * 15,
         seed=16)
@example(n=15, chains=[3] * 16, links=[0.9 * CLUSTER_TOL] * 15, cuts=[1.1 * CLUSTER_TOL] * 15,
         seed=15)
@given(
    n=st.integers(2, 16),
    chains=st.lists(st.integers(1, 4), min_size=16, max_size=16),
    links=st.lists(st.sampled_from(CLUSTER_LINKS), min_size=15, max_size=15),
    cuts=st.lists(st.sampled_from(CLUSTER_CUTS), min_size=15, max_size=15),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigh_clusters_near_degenerate_spectra_as_planned(n, chains, links, cuts, seed):
    # chains of up to four eigenvalues whose links sit just inside cluster_tol, so a chain
    # of three or four spans more than cluster_tol, between cuts just outside it; the
    # chains' sizes are drawn in order until they hold n eigenvalues
    rng = np.random.default_rng(seed)
    sizes = []
    for size in chains:
        sizes.append(min(size, n - sum(sizes)))
        if sum(sizes) == n:
            break
    gaps, link = [], iter(links)
    for k, size in enumerate(sizes):
        gaps += [cuts[k]] * (k > 0) + [next(link) for _ in range(size - 1)]
    u = rand_unitary(rng, n)
    a = (u * _planned_spectrum(rng, gaps)) @ u.conj().T
    a = (a + a.conj().T) / 2.0
    # Weyl and the rounding of both solvers, as in the property above
    tol = JACOBI_OFF_TOL * max(1.0, max_abs(a)) + 100.0 * n * n * np.finfo(float).eps * max_abs(a)
    w, v = np.linalg.eigh(a)
    dec = eigh(a)
    # the gaps clear cluster_tol by 1e-9, far beyond tol: eigh's single-linkage clusters
    # are the planned ones
    assert dec.ranks == tuple(sizes)
    ends = np.cumsum(sizes)
    for value, p, lo, hi in zip(dec.eigenvalues, dec.projectors, ends - sizes, ends):
        assert w[lo] - tol <= value <= w[hi - 1] + tol
        gap = min(w[lo] - w[lo - 1] if lo > 0 else np.inf, w[hi] - w[hi - 1] if hi < n else np.inf)
        oracle = v[:, lo:hi] @ v[:, lo:hi].conj().T
        assert max_abs(p - oracle) <= 2.0 * tol / gap + 10.0 * n * np.finfo(float).eps


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.strides, a.tobytes()


def _sweeps(a: np.ndarray) -> int:
    """Sweeps a 2-D _jacobi call takes on a, in its loose and tight stages together."""
    work = _jacobi(a)[2]
    return int(work.loose_sweeps[0] + work.tight_sweeps[0])


def assert_stack_solves_like_singles(members):
    """Each member of the stacked solve has the eigenvalues and eigenvectors, bytes and
    memory layout, and the work record, of its own 2-D solve. Returns the stack's record."""
    raw, vecs, work = _jacobi(np.stack(members))
    assert raw.shape == (len(members), members[0].shape[0]) and vecs.shape == (len(members),
                                                                                *members[0].shape)
    for i, member in enumerate(members):
        single_raw, single_v, single_work = _jacobi(member)
        assert _bits(raw[i]) == _bits(single_raw)
        assert _bits(vecs[i]) == _bits(single_v)
        assert [x[i] for x in work] == [x[0] for x in single_work]
    return work


def _slowest(rng, n: int, tries: int = 12) -> np.ndarray:
    return max((rand_hermitian(rng, n) for _ in range(tries)), key=_sweeps)


@pytest.mark.parametrize("case", ["zero-sweep", "most-sweeps", "scaled", "odd-3", "odd-5", "k=1",
                                  "complex64-32", "complex64-33"])
def test_stacked_jacobi_equals_single_solves_bit_for_bit(case):
    rng = np.random.default_rng(71)
    n = 4
    members = {
        # a diagonal member converges before the first sweep, beside ones that rotate
        "zero-sweep": lambda: [np.diag([3.0, -1.0, 0.0, 2.0]).astype(complex),
                               rand_hermitian(rng, n), rand_hermitian(rng, n)],
        # the slowest of a dozen is solved between nearly diagonal ones, and finishes last
        "most-sweeps": lambda: [np.diag([1.0, 2.0, 3.0, 4.0]) + 1e-6 * rand_hermitian(rng, n),
                                _slowest(rng, n),
                                np.diag([4.0, 3.0, 2.0, 1.0]) + 1e-6 * rand_hermitian(rng, n)],
        # each member scales by its own power of two
        "scaled": lambda: [rand_hermitian(rng, n, 1e300), rand_hermitian(rng, n),
                           rand_hermitian(rng, n, 1e-300)],
        "odd-3": lambda: [rand_hermitian(rng, 3) for _ in range(4)],
        "odd-5": lambda: [rand_hermitian(rng, 5) for _ in range(4)],
        "k=1": lambda: [rand_hermitian(rng, n)],
        # the complex64 loose stage, even and odd; the diagonal member and the one whose
        # entries underflow complex64 are left unswept, and their exact double off-norm
        # meets the tight threshold, beside one that sweeps and refines
        "complex64-32": lambda: [rand_hermitian(rng, 32), np.diag(rng.standard_normal(32)) + 0j,
                                 rand_hermitian(rng, 32, 1e-300)],
        "complex64-33": lambda: [rand_hermitian(rng, 33) for _ in range(3)],
    }[case]()
    if case == "zero-sweep":
        assert _sweeps(members[0]) == 0 < min(map(_sweeps, members[1:]))
    if case == "most-sweeps":
        assert _sweeps(members[1]) > max(_sweeps(members[0]), _sweeps(members[2]))
    assert_stack_solves_like_singles(members)


def test_stacked_jacobi_equals_single_solves_of_correlation_operators():
    # the four e + f - I of a CHSH report, at the sizes the meets solve
    rng = np.random.default_rng(73)
    for n in (2, 4, 8):
        ps = [rand_projector(rng, n) for _ in range(4)]
        assert_stack_solves_like_singles([e + f - np.eye(n) for e in ps[:2] for f in ps[2:]])
    # the meet classes and eigenvectors of a stack of pairs are those of each pair's own
    # solve, and meet and join read one solve of e + f - I = f + e - I, so they are
    # bit-symmetric
    rng = np.random.default_rng(79)
    for n in (2, 4, 8):
        e, f = rand_commuting_projectors(rng, n)
        pairs = [(rand_projector(rng, n), rand_projector(rng, n)), (e, f), (e, e),
                 _sharing_a_line(rng, n)]
        stacked = _meet_classes(np.array([e for e, _ in pairs]), np.array([f for _, f in pairs]),
                                MEET_TOL)
        # the shared line
        assert projector_rank(_pair_meets(*pairs[3], MEET_TOL)[0]) == (2 if n == 2 else 1)
        for i, (e, f) in enumerate(pairs):
            for member, single in zip(stacked, _meet_classes(e, f, MEET_TOL), strict=True):
                assert _bits(member[i]) == _bits(single)
            for op in (projector_meet, projector_join):
                assert _bits(op(e, f)) == _bits(op(f, e))


def _sharing_a_line(rng, n: int) -> tuple:
    """Two rank-2 projectors whose ranges share the line of one unit vector, each spanned
    by it and a random unit vector orthogonal to it (both the identity at n = 2)."""
    q = rand_unitary(rng, n)
    pair = []
    for _ in range(2):
        v = np.concatenate([q[:, :1], q[:, 1:] @ rand_unitary(rng, n - 1)[:, :1]], axis=1)
        p = v @ v.conj().T
        pair.append((p + p.conj().T) / 2.0)
    return tuple(pair)


def test_stacked_refinement_takes_its_members_own_steps_bit_for_bit():
    # members that stop refining after 8, 3 and 4 steps, and a diagonal one the loose stage
    # leaves at the tight threshold: each is set aside in the step where it stops, so each
    # member of the stack takes the steps of its own solve, and its bits
    members = [_chained(np.random.default_rng(2), 5), rand_hermitian(np.random.default_rng(0), 5),
               _chained(np.random.default_rng(4), 5), np.diag([2.0, -1.0, 0.5, 3.0, 1.0]) + 0j]
    assert assert_stack_solves_like_singles(members).steps.tolist() == [8, 3, 4, 0]


def test_diagonal_and_two_by_two_inputs_are_not_refined():
    # the loose stage leaves them at the tight threshold: a diagonal matrix makes no
    # sweep, and one sweep zeroes the only pair of a 2 x 2 matrix
    rng = np.random.default_rng(89)
    works = [_jacobi(a)[2] for a in (np.diag([3.0, 1.0, 2.0]).astype(complex),
                                     rand_hermitian(rng, 2), PAULI_X,
                                     np.stack([rand_hermitian(rng, 2) for _ in range(3)]))]
    for work in works:
        assert not any(work.steps) and not any(work.restarted) and not any(work.tight_sweeps)
    assert works[0].loose_sweeps.tolist() == [0]


def _chained(rng, n: int) -> np.ndarray:
    """U diag(w) U* with w spread over (-3, 3) and its four lowest 1e-9 apart."""
    u = rand_unitary(rng, n)
    w = np.sort(rng.uniform(-3.0, 3.0, size=n))
    w[:4] = w[0] + 1e-9 * np.arange(4)
    a = (u * w) @ u.conj().T
    return (a + a.conj().T) / 2.0


def test_a_refinement_that_misses_the_orthonormality_bound_restarts():
    # as the refinement converges, its cluster radius shrinks below the chain's 1e-9 gaps,
    # and dividing by them leaves X off the bound; the solve restarts the tight stage
    # from the loose stage's result, and meets every gate
    a = _chained(np.random.default_rng(42), 5)
    raw, v, work = _jacobi(a)
    assert work.restarted.tolist() == [True]
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-14)
    assert 5 * max_abs(v.conj().T @ v - np.eye(5)) <= PROJECTOR_TOL / 2
    # in a stack, the restarted member is still its own 2-D solve
    work = assert_stack_solves_like_singles([rand_hermitian(np.random.default_rng(97), 5), a])
    assert work.restarted.tolist() == [False, True]


def _near_commuting_pair(seed: int) -> tuple:
    """A commuting pair e = U diag(1, 1, 0, 0, b) U*, f = U diag(0, 0, 1, 1, b) U* at n = 5,
    with f turned by exp(i t H) for t in (1e-8, 1e-6); both symmetrized."""
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, 5)
    b = rng.integers(0, 2)
    e = (u * [1, 1, 0, 0, b]) @ u.conj().T
    f = (u * [0, 0, 1, 1, b]) @ u.conj().T
    t = 10 ** rng.uniform(-8, -6)
    w, q = np.linalg.eigh(rand_hermitian(rng, 5, 1.0))
    turn = (q * np.exp(1j * t * w)) @ q.conj().T
    f = turn @ f @ turn.conj().T
    return (e + e.conj().T) / 2.0, (f + f.conj().T) / 2.0


@pytest.mark.parametrize("seed", [7852, 8222, 13394, 13808])
def test_a_refinement_the_tight_sweeps_would_push_off_the_bound_restarts(seed):
    # on these near-commuting pairs the refined X meets n max|I - X*X| <= PROJECTOR_TOL / 2
    # but not the same bound on |I - X*X|_F, which is all the tight stage's rotations keep:
    # they would raise the max norm past the bound, so X is dropped and the solve restarts
    e, f = _near_commuting_pair(seed)
    a = e + f - np.eye(5)
    raw, v, work = _jacobi(a)
    assert work.restarted.tolist() == [True]
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-14)
    assert 5 * max_abs(v.conj().T @ v - np.eye(5)) <= PROJECTOR_TOL / 2
    assert max_abs(projector_meet(e, f) - oracle_meet(e, f)) <= 1e-8
    assert max_abs(correlation_operator(e, f) - oracle_correlation(e, f)) <= 1e-8


@pytest.mark.parametrize("make, seed", [(rand_degenerate_hermitian, 33), (_chained, 48)])
def test_a_complex64_member_that_misses_the_bound_restarts_in_double(monkeypatch, make, seed):
    # a degenerate input and a chain at n = 32 whose refinement from the complex64 loose
    # eigenvectors leaves X off the bound: the member sweeps in double from the unswept
    # matrix to the tight threshold, never from the complex64 result, and those sweeps
    # count as tight ones. So its eigenpairs are those of a plain double Jacobi solve: a
    # double loose stage run all the way to the tight threshold, bit for bit
    a = make(np.random.default_rng(seed), 32)
    raw, v, work = _jacobi(a)
    assert work.restarted.tolist() == [True]
    with monkeypatch.context() as m:
        m.setattr(hvsim.linalg, "_SINGLE_MIN_N", 33)
        m.setattr(hvsim.linalg, "_LOOSE_OFF_TOL", JACOBI_OFF_TOL)
        plain_raw, plain_v, plain = _jacobi(a)
    assert plain.steps.tolist() == [0] and plain.loose_sweeps.tolist() == work.tight_sweeps.tolist()
    assert _bits(raw) == _bits(plain_raw) and _bits(v) == _bits(plain_v)
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-13)
    assert 32 * max_abs(v.conj().T @ v - np.eye(32)) <= PROJECTOR_TOL / 2
    # eigh sets the chain's cluster to its mean, within its 3e-9 span of each eigenvalue
    assert max_abs(eigh(a).operator() - a) <= CLUSTER_TOL
    # in a stack, the member that does not restart is set aside untouched meanwhile
    work = assert_stack_solves_like_singles([rand_hermitian(np.random.default_rng(97), 32), a])
    assert work.restarted.tolist() == [False, True]


def test_refinement_keeps_chained_dim8_spectra_on_the_refined_path():
    # no seed's refinement misses the orthonormality bound; with a hand-off at 1e-3 and
    # three steps, 11 of these 20 did and restarted the tight stage from the loose result
    for seed in range(20):
        work = _jacobi(_chained(np.random.default_rng(seed), 8))[2]
        assert work.steps[0] > 0 and not work.restarted[0]


def test_the_sweep_budget_covers_both_stages(monkeypatch):
    # the chained input sweeps in the tight stage too; a budget one short of its total
    # stops it there, after the loose stage's sweeps and the tight stage's together
    a = _chained(np.random.default_rng(2), 5)
    work = _jacobi(a)[2]
    total = int(work.loose_sweeps[0] + work.tight_sweeps[0])
    assert work.loose_sweeps[0] < total - 1
    monkeypatch.setattr(hvsim.linalg, "JACOBI_MAX_SWEEPS", total - 1)
    with pytest.raises(ConvergenceFailure, match=f"after {total - 1} sweeps"):
        _jacobi(a)
    monkeypatch.setattr(hvsim.linalg, "JACOBI_MAX_SWEEPS", total)
    _jacobi(a)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    exponents=st.lists(st.integers(-1000, 1000), min_size=1, max_size=5),
    diagonal=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solves_equal_single_ones(n, exponents, diagonal, seed):
    # members from 2**-1000 to 2**1000 in scale, some already diagonal
    rng = np.random.default_rng(seed)
    members = []
    for exponent, flat in zip(exponents, diagonal):
        m = rand_hermitian(rng, n, np.ldexp(1.0, exponent))
        members.append(np.diag(np.diag(m)) if flat else m)
    assert_stack_solves_like_singles(members)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad, message", [
    (np.full((3, 3), 8e307, dtype=complex), "stack member 1: non-finite eigenvalue inf"),
    (np.full((3, 3), np.nan, dtype=complex), "stack member 1: off-diagonal norm nan"),
])
def test_stacked_jacobi_refuses_a_non_finite_member(bad, message):
    rng = np.random.default_rng(79)
    with pytest.raises(ConvergenceFailure, match=f"^{message}"):
        _jacobi(np.stack([rand_hermitian(rng, 3), bad, rand_hermitian(rng, 3)]))


def test_convergence_failure_names_the_member_and_the_knobs(monkeypatch):
    rng = np.random.default_rng(83)
    a = rand_hermitian(rng, 6)
    monkeypatch.setattr(hvsim.linalg, "JACOBI_MAX_SWEEPS", 1)
    # the diagonal member converges, so the first that does not is member 1
    with pytest.raises(ConvergenceFailure, match=r"^stack member 1: off-diagonal norm .* "
                       r"\(JACOBI_OFF_TOL 1e-12 .*\) after 1 sweeps \(JACOBI_MAX_SWEEPS 1\)$"):
        _jacobi(np.stack([np.diag(np.diag(a)), a, a]))
    with pytest.raises(ConvergenceFailure, match=r"^off-diagonal norm .*JACOBI_OFF_TOL.*"
                       r"JACOBI_MAX_SWEEPS"):
        _jacobi(a)


def test_decomposition_rejects_broken_resolution():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match=r"do not resolve the identity \(1.000e\+00\)"):
        SpectralDecomposition(np.array([0.5]), np.array([p]))


def test_decomposition_rejects_eigenvalues_that_do_not_increase():
    # the projectors resolve the identity and are orthogonal; only the order is wrong
    prs = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    for evs in ([1.0, 1.0], [2.0, 1.0], [1.7e308, -1.7e308]):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectralDecomposition(np.array(evs), prs)


def test_decomposition_rejects_non_idempotent_projectors():
    # two copies of I/2 resolve the identity, but neither is a projector
    half = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="idempotence defect"):
        SpectralDecomposition(np.array([0.0, 1.0]), np.array([half, half]))


def test_decomposition_rejects_non_hermitian_projectors():
    # the pair resolves the identity and multiplies to 0, but neither is self-adjoint
    skew = np.array([[0.0, 1e-6], [0.0, 0.0]], dtype=complex)
    prs = np.array([np.diag([1.0, 0.0]) + skew, np.diag([0.0, 1.0]) - skew])
    with pytest.raises(NotHermitian, match="self-adjointness defect 1.000e-06"):
        SpectralDecomposition(np.array([0.0, 1.0]), prs)


def test_decomposition_rejects_non_finite_projectors():
    # a NaN entry makes the resolution and the pair products NaN, which pass their
    # comparisons; the projector's own check refuses it
    prs = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    prs[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        SpectralDecomposition(np.array([0.0, 1.0]), prs)


def test_decomposition_rejects_non_orthogonal_projectors():
    # e1 + eps h and e2 - eps h move a Hermitian h = e0 e1* + e1 e0* between projectors, so
    # they still resolve the identity; e1 + eps h is idempotent to eps^2, and e0 overlaps it
    eps = 1e-6
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    e = np.eye(3, dtype=complex)
    prs = np.array([np.outer(e[0], e[0]), np.outer(e[1], e[1]) + eps * h,
                    np.outer(e[2], e[2]) - eps * h])
    ensure_projector(prs[1])
    with pytest.raises(ValueError, match="projectors 0 and 1 are not orthogonal"):
        SpectralDecomposition(np.array([0.0, 1.0, 2.0]), prs)


def _solver_instances():
    """eigh's test inputs: the random and degenerate instances of
    test_eigh_invariants_random, the oracle matrices of test_jacobi_matches_numpy_oracle,
    and degenerate ones at n = 16, 33 and 48."""
    for n in range(2, 9):
        rng = np.random.default_rng(100 + n)
        for trial in range(15):
            yield rand_degenerate_hermitian(rng, n) if trial % 3 == 0 else rand_hermitian(rng, n)
    for n in (16, 33, 48):
        yield rand_hermitian(np.random.default_rng(200 + n), n)
        yield rand_degenerate_hermitian(np.random.default_rng(300 + n), n)


def _sector_backings():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        yield joint_propositions(*rand_commuting_projectors(rng, n))[0].backing
        u = rand_unitary(rng, n)
        family = [(u * rng.integers(0, 2, size=n)) @ u.conj().T for _ in range(4)]
        yield common_refinement_quadruple(*((p + p.conj().T) / 2 for p in family)).backing


def test_weights_at_eigenvectors_reach_one_and_never_pass_it():
    # <v, P v> / <v, v> rounds to 1 + 2**-52 at about a third of these eigenvectors; the
    # weights are clipped to [0, 1], so a weight_floor of 1 refuses every state
    rng = np.random.default_rng(0)
    tops = []
    for t, phase in rng.uniform(0.0, 2 * math.pi, size=(200, 2)):
        u = np.array([[math.cos(t), -math.sin(t) * np.exp(-1j * phase)],
                      [math.sin(t) * np.exp(1j * phase), math.cos(t)]])
        tops.append(eigh((u * [-1.0, 1.0]) @ u.conj().T).weights(u[:, 1]).max())
    assert max(tops) == 1.0


def test_trusted_decompositions_pass_the_public_checks():
    # eigh and the joint sectors build without checks; the public constructor accepts
    # each of their decompositions as it is, so trusting the solver is checked here
    for dec in [*map(eigh, _solver_instances()), *_sector_backings()]:
        again = SpectralDecomposition(dec.eigenvalues, dec.projectors)
        assert np.array_equal(again.eigenvalues, dec.eigenvalues)
        assert np.array_equal(again.projectors, dec.projectors)
        for a in (dec.eigenvalues, dec.projectors):
            assert a.dtype in (np.float64, np.complex128) and not a.flags.writeable


def test_eigh_and_joint_sectors_do_not_revalidate(monkeypatch):
    def refuse(dec):
        raise AssertionError("a decomposition was re-validated")

    monkeypatch.setattr(SpectralDecomposition, "__post_init__", refuse)
    rng = np.random.default_rng(43)
    t = rand_degenerate_hermitian(rng, 6)
    assert max_abs(eigh(t).operator() - t) < 1e-8
    prop, _ = joint_propositions(*rand_commuting_projectors(rng, 4))
    assert prop.backing.dim == 4
    with pytest.raises(AssertionError, match="re-validated"):
        SpectralDecomposition(np.array([0.0]), np.array([np.eye(2)]))


def test_orthonormality_bound_gives_projectors_that_pass_the_public_checks():
    # eigenvectors at the edge of _jacobi's bound, n max|V*V - I| just under
    # PROJECTOR_TOL / 2, still give decompositions the public constructor accepts
    rng = np.random.default_rng(47)
    for n in (2, 5, 8, 16):
        for _ in range(10):
            # V*V - I = 2 s h + s^2 h^2 for V = U (I + s h), h Hermitian
            h = rand_hermitian(rng, n)
            s = 0.99 * PROJECTOR_TOL / 2 / n / max_abs(2 * h)
            v = rand_unitary(rng, n) @ (np.eye(n) + s * h)
            assert 0.98 <= n * max_abs(v.conj().T @ v - np.eye(n)) / (PROJECTOR_TOL / 2) <= 1.0
            size = int(rng.integers(0, n))
            cuts = np.sort(rng.choice(np.arange(1, n), size=size, replace=False))
            blocks = np.split(v, cuts, axis=1)
            prs = [(b @ b.conj().T + (b @ b.conj().T).conj().T) / 2 for b in blocks]
            SpectralDecomposition(np.arange(len(prs), dtype=float), np.array(prs))


class _DriftingSqrt:
    """numpy with every sqrt 1e-9 too large, so each rotation's cosine drifts off unitary."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sqrt(x):
        return np.sqrt(x) * (1.0 + 1e-9)


def test_jacobi_refuses_eigenvectors_that_are_not_orthonormal(monkeypatch):
    rng = np.random.default_rng(53)
    a = rand_hermitian(rng, 8)
    monkeypatch.setattr(hvsim.linalg, "np", _DriftingSqrt())
    with pytest.raises(ConvergenceFailure, match="orthonormality defect"):
        _jacobi(a)
    with pytest.raises(ConvergenceFailure, match="orthonormality defect"):
        eigh(a)


class _NaNHypot(_DriftingSqrt):
    """numpy whose hypot returns NaN, so the first rotation fills a and v with NaN."""

    @staticmethod
    def hypot(x, y):
        return np.full_like(np.hypot(x, y), np.nan)


class _BrokenSqrt(_DriftingSqrt):
    """numpy with every sqrt 1e-4 too large, far past what complex64 rotations drift."""

    @staticmethod
    def sqrt(x):
        return np.sqrt(x) * (1.0 + 1e-4)


def test_complex64_loose_eigenvectors_are_checked_at_complex64_roundoff(monkeypatch):
    # the complex64 loose stage's eigenvectors are checked before refinement at
    # PROJECTOR_TOL / 2 in units of complex64's roundoff: a rotation drifting by 1e-9 is
    # inside it, and refinement repairs it; one drifting by 1e-4 is refused
    a = rand_hermitian(np.random.default_rng(53), _SINGLE_MIN_N)
    monkeypatch.setattr(hvsim.linalg, "np", _DriftingSqrt())
    _, v, _ = _jacobi(a)
    assert _SINGLE_MIN_N * max_abs(v.conj().T @ v - np.eye(_SINGLE_MIN_N)) <= PROJECTOR_TOL / 2
    monkeypatch.setattr(hvsim.linalg, "np", _BrokenSqrt())
    with pytest.raises(ConvergenceFailure, match=r"orthonormality defect .* \(PROJECTOR_TOL / 2n "
                       r"times 536870912, for complex64 rotations\)$"):
        _jacobi(a)


def test_jacobi_rotates_entries_near_the_float64_limit():
    # unscaled, hypot(16e307, 14e307) overflows and the pair is zeroed unrotated, at +-8e307
    dec = eigh(np.array([[8e307, 7e307], [7e307, -8e307]]))
    assert dec.eigenvalues == pytest.approx([-np.sqrt(113) * 1e307, np.sqrt(113) * 1e307])
    # and symmetrizing a diagonal of 1.7e308 overflows unless each half is taken first
    assert eigh(np.diag([1.7e308, -1.7e308])).eigenvalues.tolist() == [-1.7e308, 1.7e308]


def _weyl_tol(a: np.ndarray) -> float:
    """How far the solver's eigenvalues may lie from numpy's: its stopping off-norm plus a
    few ulps of n |A|_2 <= n**2 max|A| per product, as in the property test above."""
    n, largest = len(a), max_abs(a)
    return JACOBI_OFF_TOL * max(1.0, largest) + 100.0 * n * n * np.finfo(float).eps * largest


@pytest.mark.parametrize("z", [1e-310 * (1 + 1j), 1e-310, 1e-310j, 2e-308 * (1 + 1j)])
def test_eigh_rotates_a_subnormal_coupling(z):
    # each coupling is subnormal once scaled by 2**-3 into max|a| < 1; dividing a_pq by
    # |a_pq| as complex numbers forms 1 / |a_pq|, which overflows, and the solve failed
    # with an off-diagonal norm of nan
    a = np.array([[1, 0.5, 0, 0], [0.5, 2, 0, 0], [0, 0, 3, z], [0, 0, np.conj(z), 4]],
                 dtype=complex)
    dec = eigh(a)
    assert dec.ranks == (1, 1, 1, 1)
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(a))) <= _weyl_tol(a)


# binary exponents of matrix entries: the subnormal range, just above it, mid-range, near 1,
# and the largest the test draws; beside an entry of exponent 0, one of exponent -1050 is a
# subnormal coupling
ENTRY_EXPONENTS = (-1074, -1060, -1050, -1030, -1022, -1000, -500, -1, 0, 1, 500, 1018)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    exponents=st.lists(st.one_of(st.sampled_from(ENTRY_EXPONENTS), st.integers(-1074, 1018)),
                       min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigh_agrees_with_numpy_on_entries_from_subnormal_to_1e307(n, exponents, seed):
    # each entry pair a complex normal times 2**e, e drawn per entry from the example's
    # exponents: subnormal (2**-1074 is the least) up to about 1e307 (2**1018 times a
    # normal draw), mixed within one matrix; no RuntimeWarning may be raised
    rng = np.random.default_rng(seed)
    e = rng.choice(exponents, size=(n, n))
    a = rand_hermitian(rng, n, 1.0) * np.ldexp(1.0, np.triu(e) + np.triu(e, 1).T)
    dec = eigh(a)
    # each cluster's mean lies within its span, at most n cluster_tol, of each member
    expanded = np.repeat(dec.eigenvalues, dec.ranks)
    assert np.max(np.abs(expanded - np.linalg.eigvalsh(a))) <= _weyl_tol(a) + CLUSTER_TOL * n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_jacobi_refuses_non_finite_eigenpairs(monkeypatch):
    # finite entries whose largest eigenvalue, 2.4e308 at n = 3, is beyond the float64
    # range; the same messages below and from _SINGLE_MIN_N, whose loose stage is complex64
    for n in (3, _SINGLE_MIN_N):
        for fn in (_jacobi, eigh):
            with pytest.raises(ConvergenceFailure, match="non-finite eigenvalue inf"):
                fn(np.full((n, n), 8e307, dtype=complex))
    matrices = [rand_hermitian(np.random.default_rng(61), n) for n in (6, _SINGLE_MIN_N)]
    monkeypatch.setattr(hvsim.linalg, "np", _NaNHypot())
    for a in matrices:
        for fn in (_jacobi, eigh):
            with pytest.raises(ConvergenceFailure, match="off-diagonal norm nan"):
                fn(a)


def test_meet_with_identity_absorbs():
    rng = np.random.default_rng(3)
    f = rand_projector(rng, 4)
    assert max_abs(projector_meet(np.eye(4), f) - f) < 1e-9


def test_meet_of_distinct_lines_is_zero():
    e = np.diag([1.0, 0.0]).astype(complex)
    f = np.full((2, 2), 0.5, dtype=complex)
    assert max_abs(projector_meet(e, f)) < 1e-9


def test_meet_of_tensor_factors():
    rng = np.random.default_rng(5)
    p = rand_projector(rng, 2, rank=1)
    q = rand_projector(rng, 3, rank=2)
    e = np.kron(p, np.eye(3))
    f = np.kron(np.eye(2), q)
    meet = projector_meet(e, f)
    target = np.kron(p, q)
    # oracle: range inclusion both ways by direct multiplication
    assert max_abs(target @ meet - meet) < 1e-9
    assert max_abs(meet @ target - meet) < 1e-9
    assert max_abs(meet - target) < 1e-8


def test_join_with_zero_and_spanning_lines():
    rng = np.random.default_rng(11)
    f = rand_projector(rng, 3)
    assert max_abs(projector_join(np.zeros((3, 3)), f) - f) < 1e-9
    e = np.diag([1.0, 0.0]).astype(complex)
    g = np.full((2, 2), 0.5, dtype=complex)
    assert max_abs(projector_join(e, g) - np.eye(2)) < 1e-8


def test_de_morgan_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        e = rand_projector(rng, n)
        f = rand_projector(rng, n)
        eye = np.eye(n)
        lhs = projector_meet(eye - e, eye - f)
        rhs = eye - projector_join(e, f)
        assert max_abs(lhs - rhs) < 1e-8


def test_lattice_laws_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        e = rand_projector(rng, n)
        f = rand_projector(rng, n)
        meet = projector_meet(e, f)
        assert max_abs(projector_meet(e, e) - e) < 1e-8  # idempotence
        assert max_abs(meet - projector_meet(f, e)) < 1e-8  # commutativity
        assert max_abs(e @ meet - meet) < 1e-8  # meet below e
        assert max_abs(projector_meet(e, projector_join(e, f)) - e) < 1e-8  # absorption


def test_meet_equals_product_for_commuting_pairs():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        e, f = rand_commuting_projectors(rng, n)
        assert max_abs(projector_meet(e, f) - e @ f) < 1e-8


def test_pair_meets_match_four_meet_oracle():
    # oracle: each meet from the null space of (I-e) + (I-f), by numpy.linalg.eigh
    rng = np.random.default_rng(37)
    for k in range(200):
        n = int(rng.integers(2, 7))
        if k % 2:
            e, f = rand_pair_sharing(rng, n)
        else:
            e, f = rand_projector(rng, n), rand_projector(rng, n)
        eye = np.eye(n)
        assert max_abs(projector_meet(e, f) - oracle_meet(e, f)) < 1e-10
        assert max_abs(projector_join(e, f) - (eye - oracle_meet(eye - e, eye - f))) < 1e-10
        assert max_abs(correlation_operator(e, f) - oracle_correlation(e, f)) < 1e-10


def _line(t: float) -> np.ndarray:
    v = np.array([np.cos(t), np.sin(t)])
    return np.outer(v, v).astype(complex)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_meet_tol_boundary_near_equal_lines(scale):
    # lines at principal angle t share a meet iff 1 - cos t < meet_tol
    e, f = _line(0.0), _line(np.arccos(1.0 - scale * MEET_TOL))
    inside = scale < 1.0
    assert projector_rank(projector_meet(e, f)) == (1 if inside else 0)
    assert projector_rank(projector_join(e, f)) == (1 if inside else 2)
    assert max_abs(correlation_operator(e, f) - (np.eye(2) if inside else 0.0)) < 1e-9
    # inside, both orders give the oracle's bisector
    assert np.array_equal(projector_meet(e, f), projector_meet(f, e))
    assert np.array_equal(projector_join(e, f), projector_join(f, e))
    eye = np.eye(2)
    for x, y in ((e, f), (f, e)):
        assert max_abs(projector_meet(x, y) - oracle_meet(x, y)) < 1e-10
        assert max_abs(projector_join(x, y) - (eye - oracle_meet(eye - x, eye - y))) < 1e-10


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_meet_tol_boundary_near_orthogonal_lines(scale):
    # e meets f' iff 1 - sin t < meet_tol, and then e' meets f too
    e, f = _line(0.0), _line(np.arcsin(1.0 - scale * MEET_TOL))
    inside = scale < 1.0
    assert projector_rank(projector_meet(e, f)) == 0
    assert projector_rank(projector_join(e, f)) == 2
    assert projector_rank(projector_meet(e, np.eye(2) - f)) == (1 if inside else 0)
    assert max_abs(correlation_operator(e, f) + (np.eye(2) if inside else 0.0)) < 1e-9
    g = np.eye(2) - f
    for x, y in ((e, g), (g, e)):
        assert max_abs(projector_meet(x, y) - oracle_meet(x, y)) < 1e-10


@pytest.mark.parametrize("angle", [np.arccos, np.arcsin])
def test_meet_tol_is_not_bridged_by_eigenvalue_clusters(angle):
    # three line pairs at 1 - cos t (or 1 - sin t) = 0, 0.9 and 1.8 x meet_tol: the third
    # lies outside meet_tol, though its eigenvalue at +-1 is within cluster_tol of the next
    e = np.kron(np.eye(3), _line(0.0))
    f = np.zeros((6, 6), dtype=complex)
    for k, scale in enumerate((0.0, 0.9, 1.8)):
        f[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _line(angle(1.0 - scale * MEET_TOL))
    assert max_abs(projector_meet(e, f) - oracle_meet(e, f)) < 1e-10
    assert max_abs(correlation_operator(e, f) - oracle_correlation(e, f)) < 1e-10


@pytest.mark.parametrize("meet_tol", [0.0, -1.0, math.nan, 0.3, 2.5])
@pytest.mark.parametrize("call", ["projector_meet", "projector_join", "correlation_operator",
                                  "chsh_terms"])
def test_meet_tol_outside_its_range_is_refused(call, meet_tol):
    # +1, -1 and 0 are disjoint classes only for 0 < meet_tol <= 1 - 1/sqrt 2: at 0.3 an
    # eigenvalue of 0.7 would count as both shared and cross
    e, f = _line(0.0), _line(0.4)
    fn = {
        "projector_meet": lambda: projector_meet(e, f, meet_tol),
        "projector_join": lambda: projector_join(e, f, meet_tol),
        "correlation_operator": lambda: correlation_operator(e, f, meet_tol),
        "chsh_terms": lambda: hvsim.chsh_terms(ChshConfig(e, e, f, f, PureState([1.0, 0.0])),
                                               meet_tol),
    }[call]
    with pytest.raises(ValueError, match="^meet_tol must be in"):
        fn()


def test_meet_tol_at_the_top_of_its_range_puts_each_eigenvalue_in_one_class():
    # e + f - I has eigenvalues +-0.7: each is 0.3 > MEET_TOL_MAX from +-1, and mu**2 = 0.49
    # is below MEET_TOL_MAX * (2 - MEET_TOL_MAX) = 0.5, so both count as crossing (1 - sin t
    # = 0.286), and the pair's correlation is -I; at 0.3 they would be shared as well
    e, f = _line(0.0), _line(math.acos(0.7))
    assert max_abs(correlation_operator(e, f, MEET_TOL_MAX) + np.eye(2)) < 1e-12
    assert max_abs(projector_meet(e, f, MEET_TOL_MAX)) < 1e-12


# the meet property's inputs: each planned 2-D block is a pair of lines at an angle t whose
# 1 - cos t ("cos") or 1 - sin t ("sin") is a multiple of meet_tol, on either side of it, and
# each 1-D piece lies in both e and f, in one of them or in neither
MEET_TOLS = (MEET_TOL, 1e-4, 0.1, MEET_TOL_MAX)
ANGLE_SCALES = (0.5, 0.9, 1.1, 2.0)
LINE_KINDS = ("ef", "e", "f", "")
# the largest n with every block beside the threshold, at each end of meet_tol's range
BESIDE_THE_THRESHOLD = [("cos", 0.9), ("cos", 1.1), ("sin", 0.9), ("sin", 1.1)] * 2


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@example(n=16, meet_tol=MEET_TOL, blocks=BESIDE_THE_THRESHOLD, lines=[], seed=16)
@example(n=16, meet_tol=MEET_TOL_MAX, blocks=BESIDE_THE_THRESHOLD, lines=[], seed=17)
@given(
    n=st.integers(2, 16),
    meet_tol=st.sampled_from(MEET_TOLS),
    blocks=st.lists(st.tuples(st.sampled_from(("cos", "sin")), st.sampled_from(ANGLE_SCALES)),
                    max_size=8),
    lines=st.lists(st.sampled_from(LINE_KINDS), min_size=16, max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_meets_near_meet_tol_have_planned_ranks_and_match_the_oracle(n, meet_tol, blocks, lines,
                                                                    seed):
    # e and f are conjugated by one random unitary from planned blocks and pieces; the
    # documented rule classifies each planned eigenvalue mu of e + f - I: shared at +-1 when
    # 1 - |mu| < meet_tol, crossing when mu**2 < meet_tol * (2 - meet_tol)
    blocks = blocks[:n // 2]
    lines = lines[:n - 2 * len(blocks)]
    de, df = np.zeros((n, n)), np.zeros((n, n))
    mu = []
    for k, (side, scale) in enumerate(blocks):
        q = scale * meet_tol
        near, far = 1.0 - q, math.sqrt(q * (2.0 - q))
        c, s = (near, far) if side == "cos" else (far, near)
        de[2 * k, 2 * k] = 1.0
        df[2 * k:2 * k + 2, 2 * k:2 * k + 2] = np.outer([c, s], [c, s])
        mu += [c, -c]
    for k, kind in enumerate(lines, 2 * len(blocks)):
        de[k, k], df[k, k] = "e" in kind, "f" in kind
        mu.append(de[k, k] + df[k, k] - 1.0)
    mu = np.array(mu)
    shared = 1.0 - np.abs(mu) < meet_tol
    crossing = mu * mu < meet_tol * (2.0 - meet_tol)
    # no planned eigenvalue falls in two classes: that is what MEET_TOL_MAX bounds
    assert not np.any(shared & crossing)
    classes = np.where(shared, 2.0, np.where(crossing, 0.0, 1.0)) * np.sign(mu)

    u = rand_unitary(np.random.default_rng(seed), n)
    e, f = ((x + x.conj().T) / 2.0 for x in (u @ de @ u.conj().T, u @ df @ u.conj().T))
    eye = np.eye(n)
    meet, join = projector_meet(e, f, meet_tol), projector_join(e, f, meet_tol)
    assert _bits(meet) == _bits(projector_meet(f, e, meet_tol))
    assert _bits(join) == _bits(projector_join(f, e, meet_tol))
    assert projector_rank(meet) == np.count_nonzero(classes == 2)
    assert projector_rank(join) == n - np.count_nonzero(classes == -2)
    # the crossing rule shows in neither, only in the cross meets
    assert projector_rank(_pair_meets(e, f, meet_tol)[2]) == np.count_nonzero(classes == 0)
    # within 1e-10 of the oracle, or of Davis-Kahan where the planned gap from the meet's
    # class to the other classes allows no better: with two classes 2e-9 apart at meet_tol =
    # 1e-8 the two solvers' meets differ by up to about 1e-5. The backward error is as in the
    # eigensolver property above, with max|e + f - I| <= 1
    tol = JACOBI_OFF_TOL + 100.0 * n * n * np.finfo(float).eps
    for got, oracle, label in ((meet, oracle_meet(e, f, meet_tol), 2),
                               (join, eye - oracle_meet(eye - e, eye - f, meet_tol), -2)):
        inside, outside = mu[classes == label], mu[classes != label]
        gap = np.min(np.abs(inside[:, None] - outside), initial=np.inf)
        bound = 2.0 * tol / gap + 10.0 * n * np.finfo(float).eps
        assert max_abs(got - oracle) <= max(1e-10, bound)


def test_commutes_examples():
    e = np.diag([1.0, 0.0]).astype(complex)
    f = np.full((2, 2), 0.5, dtype=complex)
    assert commutes(e, e)
    # hand check: the commutator of these two is [[0, 1/2], [-1/2, 0]]
    assert max_abs(e @ f - f @ e) == pytest.approx(0.5)
    assert not commutes(e, f)
    rng = np.random.default_rng(31)
    p = rand_projector(rng, 2)
    q = rand_projector(rng, 3)
    assert commutes(np.kron(p, np.eye(3)), np.kron(np.eye(2), q))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        projector_meet(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        commutes(np.eye(2), np.eye(3))


def _chsh_config(e1, e2, f1, f2):
    return ChshConfig(e1, e2, f1, f2, PureState([1.0, 0.0]))


# every public function that takes raw projectors, with how many it takes
PROJECTOR_ENTRY_POINTS = {
    "ensure_projector": (ensure_projector, 1),
    "projector_meet": (projector_meet, 2),
    "projector_join": (projector_join, 2),
    "commutes": (commutes, 2),
    "correlation_operator": (correlation_operator, 2),
    "joint_propositions": (joint_propositions, 2),
    "common_refinement_quadruple": (common_refinement_quadruple, 4),
    "ChshConfig": (_chsh_config, 4),
}


@pytest.mark.parametrize("entry", sorted(PROJECTOR_ENTRY_POINTS))
def test_ensure_projector_rejects_non_idempotent(entry):
    # each raw argument is checked where it enters, at the default 1e-9:
    # a mixed state and a projector scaled by 1 + 1e-8 are both refused
    fn, arity = PROJECTOR_ENTRY_POINTS[entry]
    ok = np.diag([1.0, 0.0]).astype(complex)
    for bad in (np.diag([0.5, 0.5]), np.diag([1.0 + 1e-8, 0.0])):
        for position in range(arity):
            args = [ok] * arity
            args[position] = bad.astype(complex)
            with pytest.raises(ValueError):
                fn(*args)


def test_ensure_projector_trace_check_fires_at_a_loosened_tol():
    # at the default tol 1e-9 idempotence keeps the trace near an integer; at tol 1e-6,
    # which hv chsh reaches through projector_tol, (1 + 0.9e-6) I passes idempotence
    # and its trace 8.0000072 is not near an integer
    with pytest.raises(ValueError, match=r"projector trace 8\.0000072\d* is not near an integer"):
        ensure_projector((1 + 0.9e-6) * np.eye(8), tol=1e-6)


def test_kept_projector_checks_follow_the_content():
    # a projector changed in place after a call is a new key, so it is checked again
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = rand_projector(np.random.default_rng(77), 3)
    assert commutes(p, p)
    checked = _ensure_projectors(p, q)
    assert _ensure_projectors(p, q)[0] is checked[0]
    assert not any(a.flags.writeable for a in checked)
    p[1, 1] = 0.5
    with pytest.raises(ValueError, match="idempotence defect"):
        commutes(p, p)
    # the kept array is the one a fresh check returns, and no view of the input
    np.testing.assert_array_equal(checked[0], np.diag([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(checked[1], ensure_projector(q))


def test_failed_projector_checks_are_not_kept():
    # the same message on every call, each from a check of its own
    bad = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError) as fresh:
        ensure_projector(bad)
    _ensure_projectors(np.eye(2))
    kept = _checked_projector.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError) as again:
            projector_meet(np.eye(2), bad)
        assert str(again.value) == str(fresh.value)
    assert _checked_projector.cache_info().currsize == kept


def test_kept_projector_checks_report_the_first_failing_operand_then_the_dimensions():
    ok2, ok3 = np.eye(2, dtype=complex), np.diag([1.0, 0.0, 1.0]).astype(complex)
    not_hermitian = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    not_idempotent = np.diag([0.5, 0.5, 0.0]).astype(complex)
    for _ in range(2):  # the second round finds ok2 and ok3 kept
        with pytest.raises(NotHermitian):
            _ensure_projectors(ok2, not_hermitian, not_idempotent)
        with pytest.raises(ValueError, match="idempotence"):
            _ensure_projectors(ok2, not_idempotent, not_hermitian)
        # per-operand checks come before the mixed-dimension refusal
        with pytest.raises(ValueError, match="idempotence"):
            _ensure_projectors(ok2, ok3, not_idempotent)
        with pytest.raises(DimensionMismatch, match="mixed dimensions"):
            _ensure_projectors(ok2, ok3)


def test_kept_projector_checks_stay_within_their_bound():
    rng = np.random.default_rng(78)
    bound = _checked_projector.cache_info().maxsize
    assert bound == 32
    for _ in range(300):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _ensure_projectors(np.outer(v, v.conj()) / np.vdot(v, v).real)
        assert _checked_projector.cache_info().currsize <= bound


@pytest.mark.parametrize(
    "entry, built",
    [("correlation_operator", 0), ("projector_meet", 0),
     ("joint_propositions", 1), ("common_refinement_quadruple", 1)],
)
def test_internal_solves_build_no_decomposition_but_the_sectors(monkeypatch, entry, built):
    # meets classify raw eigenpairs of e + f - I; joint sectors build only their own backing,
    # counted whether it goes through the public constructor or the trusted one
    made = []
    check = SpectralDecomposition.__post_init__
    trusted = SpectralDecomposition._trusted

    def counted(dec):
        made.append(dec)
        check(dec)

    def counted_trusted(cls, *args):
        made.append(args)
        return trusted(*args)

    monkeypatch.setattr(SpectralDecomposition, "__post_init__", counted)
    monkeypatch.setattr(SpectralDecomposition, "_trusted", classmethod(counted_trusted))
    fn, arity = PROJECTOR_ENTRY_POINTS[entry]
    family = [np.diag(bits).astype(complex) for bits in ((1, 1, 0, 0), (1, 0, 1, 0),
                                                        (1, 0, 0, 0), (0, 1, 1, 0))]
    fn(*family[:arity])
    assert len(made) == built


def test_package_never_uses_numpy_linalg():
    # numpy.linalg is the suite's independent oracle; the package must not lean on it
    uses = []
    for path in sorted(Path(hvsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [f"{node.value.id}.{node.attr}"] if isinstance(node.value, ast.Name) else []
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith(("np.linalg", "numpy.linalg")) for name in names):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []
