"""Finite unions of real intervals and piecewise-affine real functions.

Interval endpoints carry open/closed flags so membership, complement,
intersection and preimages are exact; infinite endpoints are always open.
Sets are canonicalized on construction (empty intervals dropped, touching
intervals merged), so structural equality is set equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

INF = float("inf")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # infinities never belong to a set of reals
        object.__setattr__(self, "lo_closed", bool(self.lo_closed) and not math.isinf(lo))
        object.__setattr__(self, "hi_closed", bool(self.hi_closed) and not math.isinf(hi))

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def measure(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, snap_tol: float = 0.0) -> bool:
        """Point membership, snapping as BorelSet.contains does: the endpoint nearest x within
        snap_tol, the lower on a tie, decides by its flag. An empty interval holds nothing."""
        if self.is_empty:
            return False
        i, near = _nearest((self.lo, self.hi), x, snap_tol)
        return i == 1 if near is None else (self.lo_closed, self.hi_closed)[near]

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _nearest(points, x: float, tol: float) -> tuple[int, int | None]:
    """bisect_left(points, x), and the index of the point of the non-decreasing points nearest
    x within tol, the lower on a tie, or None. A point equal to x is always taken, even at a tol
    of 0, below 0 or NaN; an infinite point only then. The one place x snaps onto a point."""
    i, tol = bisect_left(points, x), (tol if tol > 0.0 else 0.0)
    if i < len(points) and (points[i] == x or points[i] - x <= tol and points[i] < INF
                            and (i == 0 or points[i] - x < x - points[i - 1])):
        return i, i
    if i and x - points[i - 1] <= tol and points[i - 1] > -INF:
        return i, i - 1
    return i, None


def _intersect_pair(a: Interval, b: Interval) -> Interval | None:
    # larger lower endpoint wins, ties require both closed; dually for the upper
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def _canonical(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    kept = sorted(
        (iv for iv in intervals if not iv.is_empty),
        key=lambda iv: (iv.lo, not iv.lo_closed),
    )
    merged: list[Interval] = []
    for iv in kept:
        if merged:
            cur = merged[-1]
            touching = iv.lo < cur.hi or (
                iv.lo == cur.hi and (cur.hi_closed or iv.lo_closed)
            )
            if touching:
                if iv.hi > cur.hi:
                    hi, hi_closed = iv.hi, iv.hi_closed
                elif iv.hi == cur.hi:
                    hi, hi_closed = cur.hi, cur.hi_closed or iv.hi_closed
                else:
                    hi, hi_closed = cur.hi, cur.hi_closed
                merged[-1] = Interval(cur.lo, hi, cur.lo_closed, hi_closed)
                continue
        merged.append(iv)
    return tuple(merged)


@dataclass(frozen=True)
class BorelSet:
    """Canonical finite disjoint union of intervals of the real line."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canonical(self.intervals))

    @classmethod
    def empty(cls) -> "BorelSet":
        return cls(())

    @classmethod
    def reals(cls) -> "BorelSet":
        return cls((Interval(-INF, INF),))

    @classmethod
    def interval(cls, lo: float, hi: float, lo_closed: bool = False, hi_closed: bool = False) -> "BorelSet":
        return cls((Interval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def at_most(cls, u: float) -> "BorelSet":
        """The closed-right half line up to u."""
        return cls((Interval(-INF, u, hi_closed=True),))

    @classmethod
    def point(cls, v: float) -> "BorelSet":
        return cls((Interval(v, v, True, True),))

    @classmethod
    def points(cls, vs: Iterable[float]) -> "BorelSet":
        return cls(tuple(Interval(v, v, True, True) for v in vs))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> float:
        return sum(iv.measure() for iv in self.intervals) if self.intervals else 0.0

    @cached_property
    def _ends(self) -> tuple[tuple[float, ...], tuple[bool, ...]]:
        """Every interval's lo and hi in ascending order, and their closed flags."""
        return (tuple(p for iv in self.intervals for p in (iv.lo, iv.hi)),
                tuple(f for iv in self.intervals for f in (iv.lo_closed, iv.hi_closed)))

    def contains(self, x: float, snap_tol: float = 0.0) -> bool:
        """Point membership. x lies on the endpoint nearest it within snap_tol, the lower on a
        tie, and that endpoint's flag decides; with none in range, x is inside iff an interval
        holds it. A complement has the same endpoints with the other flags, so a set and its
        complement disagree on every point. NaN lies in no set, nor, at a finite snap_tol, ±inf."""
        points, flags = self._ends
        i, near = _nearest(points, x, snap_tol)
        return i % 2 == 1 if near is None else flags[near]

    def complement(self) -> "BorelSet":
        if not self.intervals:
            return BorelSet.reals()
        gaps: list[Interval] = []
        first = self.intervals[0]
        if first.lo != -INF:
            gaps.append(Interval(-INF, first.lo, hi_closed=not first.lo_closed))
        for cur, nxt in zip(self.intervals, self.intervals[1:]):
            gaps.append(Interval(cur.hi, nxt.lo, not cur.hi_closed, not nxt.lo_closed))
        last = self.intervals[-1]
        if last.hi != INF:
            gaps.append(Interval(last.hi, INF, lo_closed=not last.hi_closed))
        return BorelSet(tuple(gaps))

    def intersect(self, other: "BorelSet") -> "BorelSet":
        parts = []
        for a in self.intervals:
            for b in other.intervals:
                piece = _intersect_pair(a, b)
                if piece is not None:
                    parts.append(piece)
        return BorelSet(tuple(parts))

    def union(self, other: "BorelSet") -> "BorelSet":
        return BorelSet(self.intervals + other.intervals)

    __invert__ = complement
    __and__ = intersect
    __or__ = union

    def __str__(self) -> str:
        return " u ".join(str(iv) for iv in self.intervals) if self.intervals else "{}"


@dataclass(frozen=True)
class PiecewiseAffineFunction:
    """Real function affine between consecutive breakpoints.

    pieces[i] = (slope, intercept) holds on the open cell between
    breakpoints i-1 and i; breakpoint_values[i] is the value exactly at
    breakpoints[i], so jumps and reassigned point values are representable.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]
    breakpoint_values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(x) for x in self.breakpoints)
        pieces = tuple((float(m), float(q)) for m, q in self.pieces)
        values = tuple(float(v) for v in self.breakpoint_values)
        if len(pieces) != len(bps) + 1:
            raise ValueError("need exactly one piece per cell (breakpoints + 1)")
        if len(values) != len(bps):
            raise ValueError("need exactly one value per breakpoint")
        if not all(map(math.isfinite, bps + values + sum(pieces, ()))):
            raise ValueError("breakpoints, slopes, intercepts and breakpoint values must be finite")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "breakpoint_values", values)

    @classmethod
    def identity(cls) -> "PiecewiseAffineFunction":
        return cls((), ((1.0, 0.0),), ())

    @classmethod
    def constant(cls, c: float) -> "PiecewiseAffineFunction":
        return cls((), ((0.0, c),), ())

    @classmethod
    def affine(cls, slope: float, intercept: float) -> "PiecewiseAffineFunction":
        return cls((), ((slope, intercept),), ())

    @classmethod
    def step(cls, threshold: float, below: float, at_and_above: float) -> "PiecewiseAffineFunction":
        """Indicator-style jump: `below` left of threshold, `at_and_above` from it on."""
        return cls((threshold,), ((0.0, below), (0.0, at_and_above)), (at_and_above,))

    def __call__(self, x: float) -> float:
        return self.snapped(x, 0.0)

    def snapped(self, x: float, snap_tol: float) -> float:
        """g at x, or at the breakpoint nearest x where that lies within snap_tol, the lower
        one on a tie: the value preimages give x, since membership snaps x onto an endpoint
        within snap_tol. A breakpoint equal to x is always taken, even at a snap_tol of 0,
        below 0 or NaN."""
        x = float(x)
        i, near = _nearest(self.breakpoints, x, snap_tol)
        if near is not None:
            return self.breakpoint_values[near]
        slope, intercept = self.pieces[i]
        return slope * x + intercept

    def piece_at(self, x: float) -> tuple[float, float]:
        """(slope, intercept) of the cell containing x; at a breakpoint, the left cell."""
        return self.pieces[bisect_left(self.breakpoints, x)]

    def cells(self):
        """Yield (lo, hi, slope, intercept) over the open cells, infinite ends included."""
        bounds = (-INF,) + self.breakpoints + (INF,)
        for i, (slope, intercept) in enumerate(self.pieces):
            yield bounds[i], bounds[i + 1], slope, intercept


def preimage(g: PiecewiseAffineFunction, b: BorelSet) -> BorelSet:
    """Exact inverse image of b under g, as a finite union of intervals.

    Affine cells invert interval by interval (flags follow the slope sign),
    constant cells contribute all or nothing, and each breakpoint contributes
    its singleton when its assigned value lands in b.
    """
    parts: list[Interval] = []
    for lo, hi, slope, intercept in g.cells():
        cell = Interval(lo, hi)
        if slope == 0.0:
            if b.contains(intercept):
                parts.append(cell)
            continue
        for iv in b.intervals:
            a = (iv.lo - intercept) / slope
            c = (iv.hi - intercept) / slope
            if slope > 0.0:
                mapped = Interval(a, c, iv.lo_closed, iv.hi_closed)
            else:
                mapped = Interval(c, a, iv.hi_closed, iv.lo_closed)
            piece = _intersect_pair(mapped, cell)
            if piece is not None:
                parts.append(piece)
    for x, value in zip(g.breakpoints, g.breakpoint_values):
        if b.contains(value):
            parts.append(Interval(x, x, True, True))
    return BorelSet(tuple(parts))


def _interior_point(lo: float, hi: float) -> float:
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def compose_functions(
    outer: PiecewiseAffineFunction, inner: PiecewiseAffineFunction
) -> PiecewiseAffineFunction:
    """Piecewise-affine composition outer(inner(x)).

    Breakpoints are inner's own plus the points where an affine inner cell
    crosses an outer breakpoint; breakpoint values are carried symbolically
    so jump values survive the composition exactly.
    """
    marks: dict[float, float] = {}
    for x, v in zip(inner.breakpoints, inner.breakpoint_values):
        marks[x] = outer(v)
    for lo, hi, slope, intercept in inner.cells():
        if slope == 0.0:
            continue
        for y, val in zip(outer.breakpoints, outer.breakpoint_values):
            x = (y - intercept) / slope
            if lo < x < hi and x not in marks:
                marks[x] = val
    bps = tuple(sorted(marks))
    values = tuple(marks[x] for x in bps)

    bounds = (-INF,) + bps + (INF,)
    pieces = []
    for i in range(len(bps) + 1):
        x0 = _interior_point(bounds[i], bounds[i + 1])
        mi, qi = inner.piece_at(x0)
        if mi == 0.0:
            pieces.append((0.0, outer(qi)))
        else:
            mo, qo = outer.piece_at(mi * x0 + qi)
            pieces.append((mo * mi, mo * qi + qo))
    return PiecewiseAffineFunction(bps, tuple(pieces), values)
