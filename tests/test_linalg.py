import ast
from pathlib import Path

import numpy as np
import pytest

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
from hvsim.linalg import MEET_TOL, PROJECTOR_TOL, _jacobi, _round_robin

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


def test_jacobi_on_diagonal_input_only_sorts():
    raw, v = _jacobi(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert raw.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(v, np.eye(3)[:, [1, 2, 0]])


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
    raw, v = _jacobi(a)
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-12)
    support = v != 0.0
    assert np.all(support[even].any(axis=0) != support[odd].any(axis=0))


@pytest.mark.parametrize("n", [16, 33, 48])
def test_jacobi_matches_numpy_oracle(n):
    rng = np.random.default_rng(200 + n)
    a = rand_hermitian(rng, n)
    raw, v = _jacobi(a)
    np.testing.assert_allclose(raw, np.linalg.eigvalsh(a), atol=1e-11)
    assert max_abs(v @ np.diag(raw) @ v.conj().T - a) <= 1e-12
    assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-12


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


def test_jacobi_rotates_entries_near_the_float64_limit():
    # unscaled, hypot(16e307, 14e307) overflows and the pair is zeroed unrotated, at +-8e307
    dec = eigh(np.array([[8e307, 7e307], [7e307, -8e307]]))
    assert dec.eigenvalues == pytest.approx([-np.sqrt(113) * 1e307, np.sqrt(113) * 1e307])
    # and symmetrizing a diagonal of 1.7e308 overflows unless each half is taken first
    assert eigh(np.diag([1.7e308, -1.7e308])).eigenvalues.tolist() == [-1.7e308, 1.7e308]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_jacobi_refuses_non_finite_eigenpairs(monkeypatch):
    # finite entries whose largest eigenvalue, 2.4e308, is beyond the float64 range
    for fn in (_jacobi, eigh):
        with pytest.raises(ConvergenceFailure, match="non-finite eigenvalue inf"):
            fn(np.full((3, 3), 8e307, dtype=complex))
    a = rand_hermitian(np.random.default_rng(61), 6)
    monkeypatch.setattr(hvsim.linalg, "np", _NaNHypot())
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
