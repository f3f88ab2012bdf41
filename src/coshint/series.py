"""Infinite-series representations of the integral values.

The base expansion 1/(1 - 2*x*cos(theta) + x**2) = sum x**k sin((k+1)*
theta)/sin(theta) turns the x-domain integrals into sine series such as

    sum_k sin(k*theta)/(k*n + p)          (one power in the numerator)
    sum_k 2*n*k*sin(k*theta)/(k**2*n**2 - p**2)   (both powers, paired).

These converge only conditionally, so each sum is accelerated by
subtracting the exactly summable comparison series

    sum_k sin(k*theta)/k = (pi - theta)/2,      0 < theta < 2*pi,

whose difference has monotonically decreasing coefficients c_k; the
remainder is summed directly and its truncation error after K - 1 terms
is bounded with the Dirichlet bound c_K/|sin(theta/2)|.  K is read off
that bound before any term is summed, and the terms are summed in
chunks of at most 8192 so memory stays flat however large K is.
Tolerances below 1e-10 are refused: the conditional part of the sum
cannot honestly beat that, and a tolerance the bound cannot meet within
MAX_TERMS terms is refused without summing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SlowConvergenceError, ToleranceUnreachableError

MAX_TERMS = 100_000
TOL_FLOOR = 1e-10
THETA_EDGE = 1e-3
_BLOCK = 8192


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    tail_estimate: float
    accelerated: bool


def sine_series_partial(theta: float, x: float, terms: int) -> float:
    """Partial sum of sum_{k>=0} x**k * sin((k+1)*theta).

    Converges geometrically to sin(theta)/(1 - 2*x*cos(theta) + x**2)
    for |x| < 1.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if not abs(x) < 1.0:
        raise ValueError(f"|x| must be < 1, got {x}")
    k = np.arange(terms, dtype=float)
    return float(np.sum(x ** k * np.sin((k + 1.0) * theta)))


def _check_series_args(n: float, theta: float, tol: float) -> None:
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if tol < TOL_FLOOR:
        raise ValueError(f"tol = {tol} is below the supported floor {TOL_FLOOR}")
    if not THETA_EDGE < theta < 2.0 * math.pi - THETA_EDGE:
        raise SlowConvergenceError(
            f"theta = {theta} within {THETA_EDGE} of 0 or 2*pi: sum too slow"
        )


def _accelerated_sum(theta: float, prefactor: float, coef: float,
                     c_of_k, tol: float) -> SeriesResult:
    """value = prefactor * ((pi - theta)/2 + coef * sum_k sin(k*theta)*c_k).

    c_of_k must be positive and monotonically decreasing in k; the
    Dirichlet tail bound then applies.  The target is a factor 10 below
    tol so the returned value is comfortably inside it.  K, the first
    term left out, is the smallest k <= MAX_TERMS + 1 whose bound meets
    the target, found by bisection on the bound alone; terms 1..K-1 are
    then summed in chunks of at most _BLOCK.
    """
    sin_half = abs(math.sin(0.5 * theta))
    target = 0.1 * tol
    bound_scale = abs(prefactor * coef) / sin_half

    def tail(k: int) -> float:
        return bound_scale * c_of_k(float(k))

    last = tail(MAX_TERMS + 1)
    if not last <= target:
        raise ToleranceUnreachableError(
            f"tail bound {last} still above {target} after {MAX_TERMS} terms"
        )
    lo, hi = 1, MAX_TERMS + 1  # the bound meets the target at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    residual = 0.0
    for start in range(1, hi, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, hi), dtype=float)
        residual += float(np.sum(np.sin(k * theta) * c_of_k(k)))
    value = prefactor * (0.5 * (math.pi - theta) + coef * residual)
    return SeriesResult(value=value, terms_used=hi - 1,
                        tail_estimate=tail(hi), accelerated=True)


def series_one_sided(n: float, p: float, theta: float, tol: float) -> SeriesResult:
    """Sum (1/sin(theta)) * sum_k sin(k*theta)/(k*n + p).

    Converges to the integral of x**p/(x**n + x**-n - 2*cos(theta))/x
    over (0, 1] for |p| < n.
    """
    _check_series_args(n, theta, tol)
    if not abs(p) < n:
        raise ValueError(f"need |p| < n, got p={p}, n={n}")
    b = p / n

    def c_of_k(k):
        return 1.0 / (k * (k + b))

    return _accelerated_sum(theta, 1.0 / (n * math.sin(theta)), -b, c_of_k, tol)


def series_contracted(n: float, p: float, theta: float, tol: float) -> SeriesResult:
    """Sum (2*n/sin(theta)) * sum_k k*sin(k*theta)/(k**2*n**2 - p**2).

    Converges to the integral of (x**p + x**-p)/(x**n + x**-n -
    2*cos(theta))/x over (0, 1] for |p| < n.
    """
    _check_series_args(n, theta, tol)
    if not abs(p) < n:
        raise ValueError(f"need |p| < n, got p={p}, n={n}")
    b = p / n

    def c_of_k(k):
        return 1.0 / (k * (k * k - b * b))

    return _accelerated_sum(theta, 2.0 / (n * math.sin(theta)), b * b, c_of_k, tol)


def series_imaginary(n: float, q: float, theta: float, tol: float) -> SeriesResult:
    """Sum (2*n/sin(theta)) * sum_k k*sin(k*theta)/(k**2*n**2 + q**2).

    The imaginary-exponent companion of series_contracted (p = i*q); its
    closed sum is pi*sinh(q*(pi-theta)/n)/(n*sin(theta)*sinh(q*pi/n)).
    """
    _check_series_args(n, theta, tol)
    r = q / n

    def c_of_k(k):
        return 1.0 / (k * (k * k + r * r))

    return _accelerated_sum(theta, 2.0 / (n * math.sin(theta)), -r * r, c_of_k, tol)
