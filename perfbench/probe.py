"""Set-up probe: import hvsim and turn one prepared input into hvsim objects.

    python3 perfbench/probe.py <fiber|lattice|reports> <input directory>

run.py starts this in a fresh interpreter and times it until it prints
"ready". It imports nothing of the benchmark, so the time is the
interpreter's start, hvsim's import and hvsim's handling of the input that
the workload's `prepare_first` wrote into the directory beforehand.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import hvsim  # noqa: E402


def main(kind: str, directory: str) -> int:
    def load(name):
        return np.load(os.path.join(directory, name))

    if kind == "fiber":
        hvsim.ClassicalObservable(hvsim.eigh(load("matrix.npy")))
        hvsim.PureState(load("psi.npy"))
    elif kind == "lattice":
        hvsim.ChshConfig(*load("projectors.npy"), hvsim.PureState(load("psi.npy")))
    elif kind == "reports":
        from hvsim import cli
        cli.load_problem(os.path.join(directory, "problem.json"))
    else:
        sys.exit(f"probe: unknown input kind {kind!r}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
