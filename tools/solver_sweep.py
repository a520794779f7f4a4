#!/usr/bin/env python3
"""Per-call side table of the spectral layer: _jacobi, eigh, SpectralDecomposition
validation, correlation_operator and a stacked _jacobi call at n = 2..64.

    python3 tools/solver_sweep.py                        # n = 2, 4, 8, 16, 32, 48, 64
    python3 tools/solver_sweep.py --max-n 8              # the small end only
    python3 tools/solver_sweep.py --src ../other/src     # another checkout's hvsim

Prints one JSON object: the method below and one row per n.

Inputs are the Hermitian part of a standard complex normal matrix and pairs of
random rank-n/2 projectors, both from numpy.random.default_rng(1000 + n). A
stacked4 input is the four e + f - I of four such pairs, solved as one
(4, n, n) _jacobi call, as a CHSH report solves its correlation operators. Each
time is the median over 15 inputs at n <= 16, 5 at n = 32 and 48 and 3 at
n = 64 of the best of three calls on each input. With n = 48 in range, a last row times the dim-48 operator with
36 distinct eigenvalues that the cli-reports benchmark workload decomposes.
The process keeps to one CPU and one BLAS thread, as the benchmark does.
"""

from __future__ import annotations

import os

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DIMS = (2, 4, 8, 16, 32, 48, 64)


def reps(n: int) -> int:
    return 15 if n <= 16 else 5 if n <= 48 else 3


def ms(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def median_ms(fn, inputs) -> float:
    """Median over the inputs of the best of three calls on each, which drops most of a
    shared host's interference."""
    return round(statistics.median(min(ms(fn, *args) for _ in range(3)) for args in inputs), 3)


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def projector(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    cols = q[:, : max(1, n // 2)]
    p = cols @ cols.conj().T
    return (p + p.conj().T) / 2.0


def sweeps(linalg, a: np.ndarray) -> int:
    """Sweeps _jacobi takes on a: its loop tests the off-norm once per sweep, plus once."""
    off_norm, calls = linalg._off_norm, []
    linalg._off_norm = lambda m: calls.append(None) or off_norm(m)
    try:
        linalg._jacobi(a)
    finally:
        linalg._off_norm = off_norm
    return len(calls) - 1


def solver_row(hvsim, matrices) -> dict:
    linalg = hvsim.linalg
    decs = [hvsim.eigh(a) for a in matrices]
    return {
        "reps": len(matrices),
        "jacobi_ms": median_ms(linalg._jacobi, [(a,) for a in matrices]),
        "eigh_ms": median_ms(hvsim.eigh, [(a,) for a in matrices]),
        "validate_ms": median_ms(hvsim.SpectralDecomposition,
                                 [(d.eigenvalues, d.projectors) for d in decs]),
    }


def dimension_row(hvsim, n: int) -> dict:
    rng = np.random.default_rng(1000 + n)
    matrices = [hermitian(rng, n) for _ in range(reps(n))]
    pairs = [(projector(rng, n), projector(rng, n)) for _ in range(reps(n))]
    stacks = [np.stack([e + f - np.eye(n) for e, f in
                        ((projector(rng, n), projector(rng, n)) for _ in range(4))])
              for _ in range(reps(n))]
    counts = [sweeps(hvsim.linalg, a) for a in matrices]
    solved = [(a, *hvsim.linalg._jacobi(a)) for a in matrices]
    return {
        "n": n,
        **solver_row(hvsim, matrices),
        "stacked4_ms": median_ms(hvsim.linalg._jacobi, [(s,) for s in stacks]),
        "correlation_ms": median_ms(hvsim.correlation_operator, pairs),
        "sweeps_min": min(counts),
        "sweeps_max": max(counts),
        "max_eigenvalue_error": max(
            float(np.max(np.abs(raw - np.linalg.eigvalsh(a)))) for a, raw, _ in solved),
        "max_orthonormality_defect": max(
            float(np.max(np.abs(v.conj().T @ v - np.eye(n)))) for _, _, v in solved),
    }


def planned_row(hvsim) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import planned_operator

    op = planned_operator(np.random.default_rng(48), 48)
    return {"n": 48, "input": "perfbench planned_operator(default_rng(48), 48)",
            "distinct_eigenvalues": len(op.values), **solver_row(hvsim, [op.matrix] * 5)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=max(DIMS), help="largest dimension")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding hvsim")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import hvsim

    rows = [dimension_row(hvsim, n) for n in DIMS if n <= args.max_n]
    if 48 <= args.max_n:
        rows.append(planned_row(hvsim))
    method = __doc__.split("\n\n")[3].strip().replace("\n", " ")
    json.dump({"method": method, "rows": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
