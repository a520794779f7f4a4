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
n = 64 of the best of three calls on each input. At each n >= 16 two more rows
time one operator five times: a planned one, perfbench's
planned_operator(default_rng(n), n) with n - n // 4 distinct eigenvalues, as
the cli-reports benchmark workload decomposes; and a chained one, U diag(w) U*
with U from default_rng(2000 + n), w spread over (-3, 3) and its four lowest
1e-9 apart. A solver row's sweeps column holds the sweeps _jacobi used on each
input, in both stages, and its products_per_sweep column the dense n x n
products one sweep makes, three per entry of linalg._rounds(n); a planned or
chained row's restarts column is 1 where the refinement of its operator's solve
missed the orthonormality bound, so that the tight stage restarted from the
loose stage's result (from n = 32, where the loose stage is complex64, from the
unswept matrix, sweeping in double), and 0 otherwise. Sweeps and restarts
are read from the work record _jacobi returns.
The process keeps to one CPU and one BLAS thread, as the benchmark does.

The *_ms columns compare only within one run: on a shared host two runs of the
same checkout, minutes apart, can differ by more than a change does. Only the
sweeps, products_per_sweep and restarts columns are counts, which compare
across runs, and so across checkouts.
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


def sweeps(linalg, matrices) -> list[int]:
    """Sweeps _jacobi takes on each matrix, in both its stages."""
    works = [linalg._jacobi(a)[2] for a in matrices]
    return [int(w.loose_sweeps[0] + w.tight_sweeps[0]) for w in works]


def restarts(linalg, a: np.ndarray) -> int:
    """1 if the refinement in _jacobi's solve of a missed the orthonormality bound, so that
    the tight stage restarted from the loose stage's result, else 0."""
    return int(linalg._jacobi(a)[2].restarted[0])


def products_per_sweep(linalg, n: int) -> int:
    """Dense n x n products in one sweep: a <- J* a J and v <- v J, three per entry of
    _rounds(n), which holds one per round or one per pair of rounds."""
    return 3 * len(linalg._rounds(n))


def solver_row(hvsim, matrices) -> dict:
    linalg = hvsim.linalg
    decs = [hvsim.eigh(a) for a in matrices]
    return {
        "reps": len(matrices),
        "products_per_sweep": products_per_sweep(linalg, len(matrices[0])),
        "jacobi_ms": median_ms(linalg._jacobi, [(a,) for a in matrices]),
        "eigh_ms": median_ms(hvsim.eigh, [(a,) for a in matrices]),
        "validate_ms": median_ms(hvsim.SpectralDecomposition,
                                 [(d.eigenvalues, d.projectors) for d in decs]),
        "sweeps": sweeps(linalg, matrices),
    }


def dimension_row(hvsim, n: int) -> dict:
    rng = np.random.default_rng(1000 + n)
    matrices = [hermitian(rng, n) for _ in range(reps(n))]
    pairs = [(projector(rng, n), projector(rng, n)) for _ in range(reps(n))]
    stacks = [np.stack([e + f - np.eye(n) for e, f in
                        ((projector(rng, n), projector(rng, n)) for _ in range(4))])
              for _ in range(reps(n))]
    solved = [(a, *hvsim.linalg._jacobi(a)[:2]) for a in matrices]
    return {
        "n": n,
        **solver_row(hvsim, matrices),
        "stacked4_ms": median_ms(hvsim.linalg._jacobi, [(s,) for s in stacks]),
        "correlation_ms": median_ms(hvsim.correlation_operator, pairs),
        "max_eigenvalue_error": max(
            float(np.max(np.abs(raw - np.linalg.eigvalsh(a)))) for a, raw, _ in solved),
        "max_orthonormality_defect": max(
            float(np.max(np.abs(v.conj().T @ v - np.eye(n)))) for _, _, v in solved),
    }


def planned_row(hvsim, n: int) -> dict:
    from inputs import planned_operator

    op = planned_operator(np.random.default_rng(n), n)
    return {"n": n, "input": f"perfbench planned_operator(default_rng({n}), {n})",
            "distinct_eigenvalues": len(op.values), **solver_row(hvsim, [op.matrix] * 5),
            "restarts": restarts(hvsim.linalg, op.matrix)}


def chained_row(hvsim, n: int) -> dict:
    from inputs import unitary

    rng = np.random.default_rng(2000 + n)
    u = unitary(rng, n)
    w = np.sort(rng.uniform(-3.0, 3.0, size=n))
    w[:4] = w[0] + 1e-9 * np.arange(4)
    a = (u * w) @ u.conj().T
    a = (a + a.conj().T) / 2.0
    return {"n": n, "input": f"chained: four eigenvalues 1e-9 apart, default_rng({2000 + n})",
            **solver_row(hvsim, [a] * 5), "restarts": restarts(hvsim.linalg, a)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=max(DIMS), help="largest dimension")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding hvsim")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import hvsim

    sys.path.insert(0, str(ROOT / "perfbench"))
    rows = [dimension_row(hvsim, n) for n in DIMS if n <= args.max_n]
    rows += [row(hvsim, n) for n in DIMS if 16 <= n <= args.max_n
             for row in (planned_row, chained_row)]
    method = __doc__.split("\n\n")[3].strip().replace("\n", " ")
    json.dump({"method": method, "rows": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
