"""Public refusals: each bad input a constructor, a function or an `hv` command turns away,
with the error type and the words of its message."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import hvsim
from hvsim import (
    ChshConfig,
    DimensionMismatch,
    FiberChshFunctions,
    HiddenSampleReport,
    Interval,
    NotHermitian,
    OutOfDomain,
    PiecewiseAffineFunction,
    PureState,
    QuantileStep,
    SpectralDecomposition,
    as_complex_matrix,
    eigh,
    ensure_hermitian,
    ensure_projector,
)
from hvsim.cli import main

UP = PureState([1.0, 0.0])
HALF = np.diag([1.0, 0.0])


def _report(empirical):
    return HiddenSampleReport(UP, "z", 10, 0, [-1.0, 1.0], [0.0, 1.0], empirical, 0.0, 0.0)


# (call, error, fragment); a list is the argv of an `hv` command on the pauli fixture with
# "weight_floor": 1, which must exit 2 with one line naming the fragment
REFUSALS = [
    pytest.param(lambda: QuantileStep([0.1, 1.0], [1.0]), ValueError,
                 "cuts must start at 0 and end at 1", id="quantile-cuts-not-0-to-1"),
    pytest.param(lambda: QuantileStep([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0]), ValueError,
                 "cuts must be strictly increasing", id="quantile-cuts-not-increasing"),
    pytest.param(lambda: QuantileStep([0.0, 1.0], [1.0, 2.0]), ValueError,
                 "need one more cut than values", id="quantile-count-mismatch"),
    pytest.param(lambda: QuantileStep([0.0, 0.5, 1.0], [2.0, 1.0]), ValueError,
                 "values must be strictly increasing", id="quantile-values-not-increasing"),
    pytest.param(lambda: FiberChshFunctions([0.0, 1.0], np.ones((2, 2, 2))), ValueError,
                 "signs must be (2, 2, cells)", id="fiber-chsh-signs-shape"),
    pytest.param(lambda: FiberChshFunctions([0.0, 1.0], np.ones((2, 2, 1))).evaluate(0, 0, 1.0),
                 OutOfDomain, "fiber coordinate 1.0 outside (0, 1)", id="fiber-chsh-at-1"),
    pytest.param(lambda: ChshConfig(HALF, HALF, HALF, HALF, PureState([1.0, 0.0, 0.0])),
                 DimensionMismatch, "projector dim 2 vs state dim 3", id="chsh-config-state-dim"),
    pytest.param(lambda: Interval(math.nan, 1.0), ValueError,
                 "interval endpoints must not be NaN", id="interval-nan"),
    pytest.param(lambda: PiecewiseAffineFunction((0.0,), ((1.0, 0.0), (2.0, 0.0)), ()),
                 ValueError, "need exactly one value per breakpoint",
                 id="function-missing-breakpoint-value"),
    pytest.param(lambda: as_complex_matrix([[1, 2, 3], [4, 5, 6]]), DimensionMismatch,
                 "expected a square matrix, got shape (2, 3)", id="matrix-not-square"),
    # a 0 x 0 matrix is square, but no Hilbert space has dimension 0
    *(pytest.param(lambda f=f: f(np.zeros((0, 0))), DimensionMismatch,
                   "expected a matrix of dimension at least 1, got shape (0, 0)",
                   id=f"{f.__name__}-0x0")
      for f in (as_complex_matrix, ensure_hermitian, ensure_projector, eigh)),
    pytest.param(lambda: SpectralDecomposition([[1.0]], np.eye(2)[None]), DimensionMismatch,
                 "eigenvalues must be (m,), projectors (m, n, n)", id="decomposition-shapes"),
    pytest.param(lambda: SpectralDecomposition([1.0, 2.0], np.eye(2)[None]), DimensionMismatch,
                 "need one projector per eigenvalue", id="decomposition-count"),
    pytest.param(lambda: eigh(HALF, cluster_tol=0), ValueError,
                 "cluster_tol must be positive", id="eigh-cluster-tol-0"),
    # a NaN tolerance fails every comparison it takes part in, so each check refuses
    pytest.param(lambda: eigh(np.diag([1.0, 2.0]), cluster_tol=math.nan), ValueError,
                 "cluster_tol must be positive", id="eigh-cluster-tol-nan"),
    pytest.param(lambda: ensure_hermitian([[0, 1], [0, 0]], tol=math.nan), NotHermitian,
                 "self-adjointness defect 1.000e+00 exceeds tol nan", id="hermitian-tol-nan"),
    pytest.param(lambda: ensure_projector(0.5 * np.eye(2), tol=math.nan), NotHermitian,
                 "self-adjointness defect 0.000e+00 exceeds tol nan", id="projector-tol-nan"),
    pytest.param(lambda: UP.overlap(PureState([1.0, 0.0, 0.0])), DimensionMismatch,
                 "state dimensions differ: 2 vs 3", id="overlap-across-dimensions"),
    pytest.param(lambda: _report([0.5, 0.4]), ValueError,
                 "empirical frequencies must sum to 1", id="sample-report-frequencies"),
    pytest.param(["quantile", "--operator", "z", "--state", "plus"], 2, "weight_floor",
                 id="hv-quantile-weight-floor-1"),
    pytest.param(["verify", "--operator", "z", "--state", "plus", "--samples", "10"], 2,
                 "weight_floor", id="hv-verify-weight-floor-1"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_public_refusal(tmp_path, capsys, call, error, fragment):
    if isinstance(call, list):
        doc = json.loads((Path(hvsim.__file__).parent / "fixtures" / "pauli.json").read_text())
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**doc, "tolerances": {"weight_floor": 1}}))
        assert main([call[0], "--input", str(path), *call[1:]]) == error
        err = capsys.readouterr().err
        assert err.startswith("hv: error: ") and err.count("\n") == 1 and fragment in err
    else:
        with pytest.raises(error, match=re.escape(fragment)):
            call()
