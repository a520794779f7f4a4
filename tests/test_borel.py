import math
import struct
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_borel, rand_piecewise_affine
from hvsim import (
    BorelSet,
    Interval,
    PiecewiseAffineFunction,
    Proposition,
    PureState,
    SpectralDecomposition,
    check_boolean_homomorphism,
    compose_functions,
    preimage,
    prob,
)

INF = float("inf")


def test_canonicalization_merges_touching_intervals():
    b = BorelSet((Interval(0, 1, False, True), Interval(1, 2, False, False)))
    assert b == BorelSet.interval(0, 2)
    # both-open adjacency must not merge: the point 1 is missing
    c = BorelSet((Interval(0, 1), Interval(1, 2)))
    assert len(c.intervals) == 2
    assert not c.contains(1.0)
    assert str(c) == "(0.0, 1.0) u (1.0, 2.0)"
    assert str(~c) == "(-inf, 0.0] u [1.0, 1.0] u [2.0, inf)"
    assert str(BorelSet.empty()) == "{}"


def test_singleton_intervals_and_atoms():
    atom = BorelSet.point(1.0)
    assert atom.contains(1.0)
    assert not atom.contains(1.0 + 1e-6)
    assert atom.measure() == 0.0
    merged = BorelSet((Interval(1, 1, True, True), Interval(1, 2, False, False)))
    assert merged == BorelSet.interval(1, 2, lo_closed=True)


def test_complement_examples():
    assert BorelSet.reals().complement() == BorelSet.empty()
    assert BorelSet.empty().complement() == BorelSet.reals()
    assert BorelSet.at_most(0.0).complement() == BorelSet.interval(0.0, INF)


def test_intersect_example():
    a = BorelSet.interval(0, 2, False, True)
    b = BorelSet.interval(1, 3, True, False)
    assert a & b == BorelSet.interval(1, 2, True, True)


def test_union_and_measure():
    a = BorelSet.interval(0, 1) | BorelSet.interval(2, 3, True, True)
    assert a.measure() == pytest.approx(2.0)
    assert BorelSet.reals().measure() == INF
    assert (a | a.complement()) == BorelSet.reals()


def test_membership_flags_and_snapping():
    b = BorelSet.interval(0, 1, lo_closed=True, hi_closed=False)
    assert b.contains(0.0) and not b.contains(1.0)
    # within snap_tol of an endpoint, the flag decides
    assert b.contains(1e-12, snap_tol=1e-9)
    assert not b.contains(1.0 - 1e-12, snap_tol=1e-9)
    assert b.contains(1.0 - 1e-12)  # exact membership without snapping
    # within snap_tol of both ends of a short piece, the nearer end's flag decides, the lower
    # end's on a tie: a preimage piece [-3.6e-15, 0) beside a breakpoint at 0
    short = Interval(-3.6e-15, 0.0, True, False)
    assert not short.contains(-3.2e-16, snap_tol=1e-9)
    assert short.contains(-3.4e-15, snap_tol=1e-9)
    assert short.contains(-1.8e-15, snap_tol=1e-9)
    assert not Interval(-INF, 0.0, False, False).contains(-1e-10, snap_tol=1e-9)


def test_a_point_near_endpoints_of_two_intervals_lies_in_a_set_or_its_complement():
    # 1.5e-10 lies within snap_tol of 0, the point {0}, and nearer 2e-10, the open end of
    # (2e-10, 5]; the nearer endpoint puts it outside A, and so inside ~A
    a = BorelSet((Interval(0.0, 0.0, True, True), Interval(2e-10, 5.0, False, True)))
    assert not a.contains(1.5e-10, snap_tol=1e-9)
    assert (~a).contains(1.5e-10, snap_tol=1e-9)
    dec = SpectralDecomposition(np.array([1.5e-10, 3.0]),
                                np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    state = PureState(np.array([1.0, 0.0]))
    assert prob(dec, state, a) + prob(dec, state, ~a) == 1.0
    assert check_boolean_homomorphism(Proposition(dec, a), Proposition(dec, BorelSet.at_most(1.0)))


# endpoints spaced below snap_tol (1e-9), near it and above it, and far apart
_GAPS = (0.0, 1e-13, 3e-10, 5e-10, 1e-9, 2e-9, 1.0)
_OFFSETS = (0.0, 1e-13, 1.5e-10, 4e-10, 5e-10, 9e-10, 1e-9, 1.1e-9, 2e-9, 0.5)


def _exactly_in(intervals, x: float) -> bool:
    return any(iv.lo < x < iv.hi or (x == iv.lo and iv.lo_closed) or (x == iv.hi and iv.hi_closed)
               for iv in intervals)


def _nearest_endpoint_decides(b: BorelSet, x: float, tol: float) -> bool:
    """Membership by definition: the finite endpoint nearest x within tol, the lower on a tie,
    decides by its flag; with none in range, exact membership."""
    ends = [(p, closed) for iv in b.intervals
            for p, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)) if math.isfinite(p)]
    near = [(abs(x - p), p, closed) for p, closed in ends if abs(x - p) <= max(tol, 0.0)]
    return min(near)[2] if near else _exactly_in(b.intervals, x)


@st.composite
def _clustered_sets(draw):
    start = draw(st.sampled_from((-1.0, 0.0, 1.5)))
    points = [start]
    for gap in draw(st.lists(st.sampled_from(_GAPS), min_size=1, max_size=7)):
        points.append(points[-1] + gap)
    if len(points) % 2:
        points.pop()
    if draw(st.booleans()):
        points[0] = -INF
    if draw(st.booleans()):
        points[-1] = INF
    intervals = [Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
                 for lo, hi in zip(points[0::2], points[1::2])]
    return intervals, BorelSet(tuple(intervals))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_clustered_sets(), st.data(), st.sampled_from((0.0, 1e-12, 1e-9, math.nan, -1.0)))
def test_the_nearest_endpoint_within_snap_tol_decides_membership(drawn, data, tol):
    intervals, b = drawn
    finite = [p for iv in intervals for p in (iv.lo, iv.hi) if math.isfinite(p)]
    xs = [math.nan, INF, -INF]
    for _ in range(8):
        p = data.draw(st.sampled_from(finite)) if finite else 0.0
        x = p + data.draw(st.sampled_from(_OFFSETS)) * data.draw(st.sampled_from((1.0, -1.0)))
        xs += [x, math.nextafter(x, INF), math.nextafter(x, -INF)]
    for x in xs:
        inside = b.contains(x, tol)
        if not math.isfinite(x):
            assert not inside and not (~b).contains(x, tol)
            continue
        assert inside != (~b).contains(x, tol), (str(b), x, tol)
        assert inside == _nearest_endpoint_decides(b, x, tol), (str(b), x, tol)
        if not tol > 0.0:
            assert inside == _exactly_in(b.intervals, x)
        for iv in intervals:
            assert iv.contains(x, tol) == BorelSet((iv,)).contains(x, tol), (str(iv), x, tol)
        for p in finite:
            for flags in ((True, False), (False, True), (False, False)):
                assert not Interval(p, p, *flags).contains(x, tol), (p, flags, x, tol)


def test_snapped_takes_the_nearest_breakpoint_within_snap_tol():
    g = PiecewiseAffineFunction((0.0, 1.0), ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (5.0, 6.0))
    assert [g.snapped(x, 1e-9) for x in (-1e-9, 1e-9, 1.0 - 1e-9, 0.5, 3.0)] == [
        5.0, 5.0, 6.0, 1.0, 9.0]
    assert g.snapped(-2e-9, 1e-9) == g(-2e-9)
    assert g.snapped(1e-12, 0.0) == g(1e-12) == 2e-12


def _two_routine_call(g, x):
    """The earlier __call__: g at x, taking the breakpoint value only at a breakpoint."""
    x = float(x)
    i = bisect_left(g.breakpoints, x)
    if i < len(g.breakpoints) and g.breakpoints[i] == x:
        return g.breakpoint_values[i]
    slope, intercept = g.pieces[i]
    return slope * x + intercept


def _two_routine_snapped(g, x, snap_tol):
    """The earlier snapped: the nearest neighbouring breakpoint within snap_tol, the first
    on a tie, evaluated by the earlier __call__, which bisects again."""
    x = float(x)
    i = bisect_left(g.breakpoints, x)
    near = [b for b in g.breakpoints[max(i - 1, 0):i + 1] if abs(x - b) <= snap_tol]
    return _two_routine_call(g, min(near, key=lambda b: abs(x - b)) if near else x)


def test_one_evaluation_routine_equals_the_two_it_replaced():
    # breakpoints 2e-9 apart put their midpoint at a tie for a snap_tol of 1e-9; the others
    # sit alone, at the float64 limit, at 0 and beside subnormals
    functions = [
        PiecewiseAffineFunction.identity(),
        PiecewiseAffineFunction.step(0.0, -1.0, 2.0),
        PiecewiseAffineFunction((0.0, 2e-9, 1.0), ((1.0, 0.5), (-3.0, 0.0), (2.0, 1.0), (0.0, 7.0)),
                                (5.0, 6.0, -4.0)),
        PiecewiseAffineFunction((-1e308, -5e-324, 5e-324, 1e308),
                                ((1.0, 0.0), (0.0, 3.0), (2.0, 0.0), (-1.0, 1.0), (0.0, -2.0)),
                                (9.0, 8.0, 7.0, 6.0)),
    ]
    tols = (0.0, 5e-10, 1e-9, 2e-9, 1e-6, 0.5, 2.0, -1.0, math.nan, INF)
    cases = 0
    for g in functions:
        xs = [0.0, -0.0, math.nan, INF, -INF, 0.5, -3.0, 1e-9, 1e300]
        for b, c in zip(g.breakpoints, g.breakpoints[1:]):
            xs.append(b + (c - b) / 2.0)
        for b in g.breakpoints:
            for offset in (0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-6, 0.25, 0.5, 2.0):
                for x in (b + offset, b - offset):
                    xs += [x, math.nextafter(x, INF), math.nextafter(x, -INF)]
        for x in xs:
            assert _bits(g(x)) == _bits(_two_routine_call(g, x))
            for tol in tols:
                assert _bits(g.snapped(x, tol)) == _bits(_two_routine_snapped(g, x, tol))
                cases += 1
    assert cases > 4000


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def test_set_operations_pointwise_random():
    rng = np.random.default_rng(41)
    for _ in range(40):
        a = rand_borel(rng)
        b = rand_borel(rng)
        union = a | b
        inter = a & b
        comp = ~a
        for _ in range(25):
            x = float(rng.uniform(-10, 10))
            assert union.contains(x) == (a.contains(x) or b.contains(x))
            assert inter.contains(x) == (a.contains(x) and b.contains(x))
            assert comp.contains(x) == (not a.contains(x))


def test_complement_is_involution_random():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a = rand_borel(rng)
        assert a.complement().complement() == a


def test_piecewise_call_semantics():
    g = PiecewiseAffineFunction((0.0,), ((0.0, 0.0), (0.0, 1.0)), (1.0,))
    assert g(-5.0) == 0.0
    assert g(0.0) == 1.0  # breakpoint value wins
    assert g(3.0) == 1.0
    ident = PiecewiseAffineFunction.identity()
    assert ident(2.5) == 2.5
    step = PiecewiseAffineFunction.step(0.0, 0.0, 1.0)
    assert (step(-1.0), step(0.0), step(1.0)) == (0.0, 1.0, 1.0)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseAffineFunction((1.0, 1.0), ((1, 0), (1, 0), (1, 0)), (0.0, 0.0))
    with pytest.raises(ValueError):
        PiecewiseAffineFunction((0.0,), ((1, 0),), (0.0,))


@pytest.mark.parametrize(
    "breakpoints, pieces, values",
    [
        ((math.nan,), ((1.0, 0.0), (1.0, 0.0)), (0.0,)),
        ((0.0,), ((math.nan, 0.0), (1.0, 0.0)), (0.0,)),
        ((0.0,), ((1.0, 0.0), (1.0, -INF)), (0.0,)),
        ((0.0,), ((1.0, 0.0), (1.0, 0.0)), (INF,)),
    ],
    ids=["nan-breakpoint", "nan-slope", "infinite-intercept", "infinite-value"],
)
def test_piecewise_refuses_non_finite_numbers(breakpoints, pieces, values):
    # a NaN breakpoint would pass the strictly-increasing check, and preimage would fail late
    with pytest.raises(ValueError, match="must be finite"):
        PiecewiseAffineFunction(breakpoints, pieces, values)


def test_preimage_identity_is_identity():
    rng = np.random.default_rng(47)
    for _ in range(10):
        b = rand_borel(rng)
        assert preimage(PiecewiseAffineFunction.identity(), b) == b


def test_preimage_of_absolute_value():
    absolute = PiecewiseAffineFunction((0.0,), ((-1.0, 0.0), (1.0, 0.0)), (0.0,))
    assert preimage(absolute, BorelSet.interval(0, 1, True, True)) == BorelSet.interval(
        -1, 1, True, True
    )


def test_preimage_of_affine_halfline():
    g = PiecewiseAffineFunction.affine(2.0, 1.0)
    assert preimage(g, BorelSet.at_most(3.0)) == BorelSet.at_most(1.0)


def test_preimage_constant_piece_all_or_nothing():
    g = PiecewiseAffineFunction.constant(5.0)
    assert preimage(g, BorelSet.interval(4, 6)) == BorelSet.reals()
    assert preimage(g, BorelSet.interval(6, 7)) == BorelSet.empty()


def test_preimage_breakpoint_singleton():
    # function is 1 everywhere except value 7 exactly at x = 2
    g = PiecewiseAffineFunction((2.0,), ((0.0, 1.0), (0.0, 1.0)), (7.0,))
    assert preimage(g, BorelSet.point(7.0)) == BorelSet.point(2.0)
    assert preimage(g, BorelSet.point(1.0)) == BorelSet.point(2.0).complement()


def test_preimage_matches_membership_random():
    rng = np.random.default_rng(53)
    for _ in range(30):
        g = rand_piecewise_affine(rng)
        b = rand_borel(rng)
        pre = preimage(g, b)
        for _ in range(40):
            x = float(rng.uniform(-9, 9))
            assert pre.contains(x) == b.contains(g(x)), (str(pre), x, g(x))


def test_compose_affine_pair_is_exact():
    outer = PiecewiseAffineFunction.affine(2.0, 1.0)
    inner = PiecewiseAffineFunction.affine(-3.0, 0.5)
    comp = compose_functions(outer, inner)
    assert comp.breakpoints == ()
    assert comp.pieces == ((-6.0, 2.0),)


def test_compose_matches_pointwise_random():
    rng = np.random.default_rng(59)
    for _ in range(30):
        inner = rand_piecewise_affine(rng)
        outer = rand_piecewise_affine(rng)
        comp = compose_functions(outer, inner)
        for _ in range(40):
            x = float(rng.uniform(-9, 9))
            # stay away from breakpoints, where float equality is what matters
            if any(abs(x - b) < 1e-6 for b in comp.breakpoints + inner.breakpoints):
                continue
            assert comp(x) == pytest.approx(outer(inner(x)), abs=1e-9)
        for x in inner.breakpoints:
            assert comp(x) == outer(inner(x))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    iv = Interval(-INF, 0.0, lo_closed=True)
    assert not iv.lo_closed  # infinities are forced open
