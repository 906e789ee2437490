"""Boundary checks: each public entry point rejects the input it names."""

import numpy as np
import pytest

from framekit import (
    Frame,
    FusionFrame,
    SuiteConfig,
    full_space,
    linalg,
    optimal_frame_bounds,
    redundancy_at,
    redundancy_oracle,
    verify_angle_sums,
    vector_span,
)
from framekit.errors import (
    DimensionError,
    GenerationError,
    NumericError,
    PreconditionError,
)
from framekit.theorems import random_frame, random_fusion_frame

PLANE = Frame(np.eye(2))


def rng():
    return np.random.default_rng(59)


CASES = {
    "as_matrix-not-2d": (lambda: Frame(np.zeros((2, 2, 2))), DimensionError, "expected a matrix"),
    "as_vector-ndim": (lambda: redundancy_at(PLANE, [[1.0, 0.0]]), DimensionError, "expected a vector"),
    "as_vector-length": (lambda: redundancy_at(PLANE, [1.0, 0.0, 0.0]), DimensionError, "of length 2"),
    "as_vector-non-finite": (lambda: vector_span([np.nan, 1.0]), NumericError, "non-finite"),
    "vector_span-ndim": (lambda: vector_span([[1.0, 0.0]]), DimensionError, "expected a vector"),
    "orthonormalize-ragged": (lambda: linalg.orthonormalize([[1.0, 0.0], [1.0]]), DimensionError,
                              "equal lengths"),
    "frame-no-columns": (lambda: Frame(np.zeros((2, 0))), DimensionError, "ambient dimension"),
    "oracle-no-samples": (lambda: redundancy_oracle(PLANE, 0, seed=1), PreconditionError, "samples"),
    "fusion-no-members": (lambda: FusionFrame(()), DimensionError, "at least one subspace"),
    "fusion-mixed-dims": (lambda: FusionFrame(((full_space(2), 1.0), (full_space(3), 1.0))),
                          DimensionError, r"member 1 lives in R\^3"),
    "suite-count-below-1": (lambda: SuiteConfig(count_range=(0, 5)), PreconditionError, "count_range"),
    "suite-negative-seed": (lambda: SuiteConfig(seed=-1), PreconditionError, "seed"),
    "angle-sums-other-dim": (lambda: verify_angle_sums(PLANE, full_space(3)), DimensionError,
                             r"reference subspace lives in R\^3"),
    "random-frame-2-in-r3": (lambda: random_frame(rng(), 3, 2), GenerationError, "no frame"),
    "random-fusion-dim-1": (lambda: random_fusion_frame(rng(), 1, 3), GenerationError, "dimension >= 2"),
    "random-fusion-one-in-r5": (lambda: random_fusion_frame(rng(), 5, 1), GenerationError,
                                "no fusion frame"),
}


@pytest.mark.parametrize("case", CASES)
def test_boundary_rejects(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error, match=fragment):
        call()


def test_eigensolver_failure_on_an_overflowed_operator():
    # The frame operator of these vectors overflows to a mix of inf and
    # -inf, on which LAPACK's eigensolver fails to converge instead of
    # returning NaN.
    vecs = np.array([[1e200, 1e200, 1.0], [1e200, -1e200, 2.0], [1.0, 1e200, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(vecs.T @ vecs)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericError, match="non-finite"):
            optimal_frame_bounds(Frame(vecs))
