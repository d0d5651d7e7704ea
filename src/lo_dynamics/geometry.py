"""Closed-form geometric invariants of the twisted graph sphere and its cone.

Everything here is a function of (n, p, K) with K = k(k+n-1):

    cos(alpha)  = sqrt((1-p/n)/(1-p/K)) * ((n-p)/(K-p))^(p/2)
    V / |S^n|   = (K/n)^(p/2) * ((1-p/n)/(1-p/K))^((n-p)/2)
    Jordan angles: arccos sqrt((n-p)/(K-p)) with multiplicity p,
                   theta itself with multiplicity 1, and 0 with
                   multiplicity n-p
    slope W     = sec(alpha)

with V the volume of the graph sphere.  As |S^n| = (n+1) omega_{n+1},
omega_{n+1} the volume of the unit ball in R^{n+1}, volume_ratio is the
cone density Theta_inf = V / ((n+1) omega_{n+1}).  Powers are evaluated
in log space so large k cannot overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .params import LomseParams


@dataclass(frozen=True)
class GeometryReport:
    params: LomseParams
    cos_alpha: float
    volume_ratio: float  # V / |S^n|, the cone density Theta_inf
    jordan_angles: list[tuple[float, int]]  # (angle, multiplicity)
    slope_w: float


def _log_ratio_terms(params: LomseParams) -> tuple[float, float, float]:
    """(log of (1-p/n)/(1-p/K), log of (n-p)/(K-p), log of K/n)."""
    n, p = params.n, params.p
    K = params.big_k
    log_c2 = math.log(K * (n - p)) - math.log(n * (K - p))  # cos^2 theta
    log_j = math.log(n - p) - math.log(K - p)
    log_kn = math.log(K) - math.log(n)
    return log_c2, log_j, log_kn


def _exp(log_x: float, name: str, params: LomseParams) -> float:
    """e^log_x, refused unless it is a normal float (then so is its inverse)."""
    if not math.log(sys.float_info.min) < log_x < math.log(sys.float_info.max):
        raise ValueError(f"{name} of ({params.n},{params.p},{params.k}) leaves the float range")
    return math.exp(log_x)


def cos_alpha(params: LomseParams) -> float:
    log_c2, log_j, _ = _log_ratio_terms(params)
    return _exp(0.5 * log_c2 + 0.5 * params.p * log_j, "cos_alpha", params)


def volume_ratio(params: LomseParams) -> float:
    n, p = params.n, params.p
    log_c2, _, log_kn = _log_ratio_terms(params)
    return _exp(0.5 * p * log_kn + 0.5 * (n - p) * log_c2, "volume_ratio", params)


def geometry_report(params: LomseParams) -> GeometryReport:
    n, p = params.n, params.p
    K = params.big_k
    ca = cos_alpha(params)
    jordan = [
        (math.acos(math.sqrt((n - p) / (K - p))), p),
        (params.theta, 1),
        (0.0, n - p),
    ]
    return GeometryReport(
        params=params,
        cos_alpha=ca,
        volume_ratio=volume_ratio(params),
        jordan_angles=jordan,
        slope_w=1.0 / ca,
    )

