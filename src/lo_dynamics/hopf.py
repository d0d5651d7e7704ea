"""Concrete witness map: the complex Hopf fibration S^3 -> S^2, the
singular values of its differential, and the minimality angle condition.

Writing x in S^3 as a complex pair (z1, z2) = (x1 + i x2, x3 + i x4),
H(x) = (2 z1 conj(z2), |z1|^2 - |z2|^2) in C x R = R^3, and |H(x)| = |x|^2.
Its differential has singular values (2, 2, 0) everywhere: the fibration
submerges onto the 1/2-radius sphere, and rescaling to the unit sphere
doubles horizontal lengths.  All checks here are invariant under
isometric conjugation (norms, singular values, angle sums), so any
conjugate of this formula is an equally valid witness.

H is quadratic, H_a(x) = x^T A_a x / 2, so its Jacobian A x is exact and
(A x) x = 2 H(x).  On T_x S^3 the differential is A x (I - x x^T) =
A x - 2 H(x) x^T, whose columns are tangent to S^2 at H(x); its direct
SVD is (2, 2, 0) to rounding.  Every function acts on the last axis.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .params import LomseParams

DEFAULT_SAMPLE_COUNT = 100
MAX_SAMPLE_COUNT = 10 ** 7  # about 27 s on a 2-CPU VM, 2.7 us a point

_SPHERE_TOL = 1e-9
_POINT_BLOCK = 4096

# A: the constant Hessians of H's three components
_HESSIAN = 2.0 * np.array([[[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
                           [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                           [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]])


def _check_unit(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"expected points of S^3 in R^4, got shape {x.shape}")
    norm = np.linalg.norm(x, axis=-1)
    if (bad := norm[~(np.abs(norm - 1.0) <= _SPHERE_TOL)]).size:  # nan too
        raise ValueError(f"|x| = {bad[0]} is not 1")
    return x


def hopf_map(x) -> np.ndarray:
    """The Hopf fibration S^3 -> S^2."""
    x = _check_unit(x)
    return 0.5 * np.einsum("aij,...i,...j->...a", _HESSIAN, x, x)


def numeric_singular_values(x) -> np.ndarray:
    """Singular values of H's differential on T_x S^3, sorted descending."""
    x = _check_unit(x)
    jac = np.einsum("aij,...j->...ai", _HESSIAN, x)
    return np.linalg.svd(jac - 2.0 * hopf_map(x)[..., None] * x[..., None, :], compute_uv=False)


def angle_sum(sv: np.ndarray, theta: float) -> np.ndarray:
    """sum_j 1/(cos^2 theta + sin^2 theta lambda_j^2) over the singular
    values sv of a differential; n exactly at the minimality angle."""
    return np.sum(1.0 / (math.cos(theta) ** 2 + math.sin(theta) ** 2 * sv * sv), axis=-1)


def random_sphere_points(dim: int, count: int, seed: int = 0) -> Iterator[np.ndarray]:
    """count uniformly distributed unit vectors in R^dim: the rows of one
    count x dim draw, drawn, normalized and yielded _POINT_BLOCK rows at a
    time so that memory does not grow with count."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, _POINT_BLOCK):
        pts = rng.normal(size=(min(_POINT_BLOCK, count - start), dim))
        yield pts / np.linalg.norm(pts, axis=1, keepdims=True)


def condition_b_check(params: LomseParams, sample_count: int = DEFAULT_SAMPLE_COUNT,
                      seed: int = 0) -> tuple[float, float]:
    """Largest deviations of the Hopf map's singular values from (2, 2, 0) and
    of their angle sum from params.n, over sample_count random points of S^3.
    sample_count must lie in [1, MAX_SAMPLE_COUNT]: no point would report a
    perfect deviation of 0.  seed must be at least 0."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if sample_count > MAX_SAMPLE_COUNT:
        raise ValueError(f"sample_count must be at most {MAX_SAMPLE_COUNT}")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    sv_dev = sum_dev = 0.0
    for block in random_sphere_points(params.n + 1, sample_count, seed):
        sv = numeric_singular_values(block)
        sv_dev = max(sv_dev, float(np.max(np.abs(sv - [2.0, 2.0, 0.0]))))
        sum_dev = max(sum_dev, float(np.max(np.abs(angle_sum(sv, params.theta) - params.n))))
    return sv_dev, sum_dev
