"""Operations, checks and the known-fault codes shared by the three workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Failure codes a known-fault input is allowed to produce. Any other code, or
# one of these on an input not marked with it, makes the run incorrect.
CELLS_OUTSIDE_UNIT = "cells-outside-unit-interval"  # fiber cell past [0, 1] or of negative length
NO_REPORT = "no-report"  # hv exited 2 on a file it should accept


@dataclass
class Op:
    """One operation: `run` calls hvsim and is timed; the untimed check turns its
    raw result into plain facts with `observe` and judges them with `judge`, so
    the self-check can feed `judge` altered facts.
    """

    kind: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    judge: Callable[[dict], list]
    fault_codes: frozenset = field(default_factory=frozenset)


class Verdict:
    """Collects (code, message) failures for one operation."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def fail(self, code: str, message: str) -> None:
        self.failures.append((code, message))

    def require(self, ok, code: str, message: str) -> None:
        if not ok:
            self.fail(code, message)

    def close(self, got, want, tol: float, code: str, what: str) -> None:
        got = np.asarray(got, dtype=np.complex128)
        want = np.asarray(want, dtype=np.complex128)
        if got.shape != want.shape:
            self.fail(code, f"{what}: shape {got.shape} != expected {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not err <= tol:
            self.fail(code, f"{what}: off by {err:.3e} (tol {tol:.0e})")

    def cells_in_unit_interval(self, cells, what: str) -> None:
        """Fiber cells (lo, hi) must lie inside [0, 1] with non-negative length."""
        for lo, hi in cells:
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0 and hi >= lo):
                self.fail(CELLS_OUTSIDE_UNIT, f"{what}: cell ({float(lo)!r}, {float(hi)!r})")
                return
