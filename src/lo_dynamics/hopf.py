"""Concrete witness map: the complex Hopf fibration S^3 -> S^2, numeric
singular values of sphere maps, and the minimality angle condition.

Writing x in S^3 as a complex pair (z1, z2) = (x1 + i x2, x3 + i x4),

    H(x) = (2 Re(z1 conj(z2)), 2 Im(z1 conj(z2)), |z1|^2 - |z2|^2),

which lands on the unit 2-sphere because 4|z1 z2|^2 + (|z1|^2-|z2|^2)^2
= (|z1|^2 + |z2|^2)^2.  Its differential has singular values (2, 2, 0)
everywhere: the fibration submerges onto the 1/2-radius sphere, and
rescaling to the unit sphere doubles horizontal lengths.  Any isometric
conjugate of this formula is an equally valid witness, so all checks
here are conjugation invariant (norms, singular values, angle sums).

Jacobians are finite-difference: central differences of the fixed step
DEFAULT_FD_STEP along unit tangent directions, renormalized to stay on
the sphere, with the image increment projected onto the tangent space at
the image point.  Their singular
values are a direct SVD; through J^T J the zero one would sit at sqrt(eps).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .params import LomseParams

DEFAULT_SAMPLE_COUNT = 100
MAX_SAMPLE_COUNT = 10 ** 7  # about 35 minutes at 0.2 ms a point
DEFAULT_FD_STEP = 1e-5

_SPHERE_TOL = 1e-9
_POINT_BLOCK = 4096


def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > _SPHERE_TOL:
        raise ValueError(f"|x| = {np.linalg.norm(x)} is not 1")
    return x


def hopf_map(x) -> np.ndarray:
    """The Hopf fibration S^3 -> S^2."""
    x = _check_unit(x)
    if x.shape != (4,):
        raise ValueError(f"expected a point of S^3 in R^4, got shape {x.shape}")
    z1 = complex(x[0], x[1])
    z2 = complex(x[2], x[3])
    w = z1 * z2.conjugate()
    return np.array([2.0 * w.real, 2.0 * w.imag, abs(z1) ** 2 - abs(z2) ** 2])


def sphere_tangent_basis(x: np.ndarray) -> np.ndarray:
    """Columns: a deterministic orthonormal basis of the tangent space at x."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    # complete x with standard basis vectors, dropping the most parallel one
    drop = int(np.argmax(np.abs(x)))
    cols = [x] + [np.eye(d)[j] for j in range(d) if j != drop]
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q[:, 1:]


def map_differential(map_fn, x) -> np.ndarray:
    """Finite-difference pushforward matrix between tangent spaces.

    Column j is the image of the j-th tangent basis vector: central
    difference of map_fn, with step DEFAULT_FD_STEP, along the renormalized
    great-circle chord, projected onto the tangent space of the image sphere.
    """
    h = DEFAULT_FD_STEP
    x = _check_unit(x)
    fx = np.asarray(map_fn(x), dtype=float)
    basis = sphere_tangent_basis(x)
    cols = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        xp = x + h * v
        xm = x - h * v
        fp = np.asarray(map_fn(xp / np.linalg.norm(xp)), dtype=float)
        fm = np.asarray(map_fn(xm / np.linalg.norm(xm)), dtype=float)
        dv = (fp - fm) / (2.0 * h)
        dv = dv - fx * np.dot(fx, dv)
        cols.append(dv)
    return np.column_stack(cols)


def numeric_singular_values(map_fn, x) -> np.ndarray:
    """Singular values of the tangent-space differential, sorted descending."""
    return np.linalg.svd(map_differential(map_fn, x), compute_uv=False)


def angle_sum(sv: np.ndarray, theta: float) -> float:
    """sum_j 1/(cos^2 theta + sin^2 theta lambda_j^2) over the singular
    values sv of a differential; n exactly at the minimality angle."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return float(np.sum(1.0 / (c2 + s2 * sv * sv)))


def random_sphere_points(dim: int, count: int, seed: int = 0) -> Iterator[np.ndarray]:
    """count uniformly distributed unit vectors in R^dim, one at a time: the
    rows of one count x dim draw, drawn and normalized _POINT_BLOCK rows at
    a time so that memory does not grow with count."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, _POINT_BLOCK):
        pts = rng.normal(size=(min(_POINT_BLOCK, count - start), dim))
        yield from pts / np.linalg.norm(pts, axis=1, keepdims=True)


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
    for x in random_sphere_points(params.n + 1, sample_count, seed):
        sv = numeric_singular_values(hopf_map, x)
        sv_dev = max(sv_dev, float(np.max(np.abs(sv - np.array([2.0, 2.0, 0.0])))))
        sum_dev = max(sum_dev, abs(angle_sum(sv, params.theta) - params.n))
    return sv_dev, sum_dev
