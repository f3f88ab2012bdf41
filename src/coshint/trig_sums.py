"""Finite trigonometric progression sums in closed form.

Multiplying a cosine progression by 2*sin(beta) telescopes it, which
gives closed forms for the four progression sums below and, through
them, for the two root-angle sums that assemble the closed integral
value:  with omega_j = (theta + 2*pi*j)/n, j = 0..n-1,

    arc_cosine_sum = sum_j (pi - omega_j) * cos(p * omega_j)
                   = pi * sin(b*(pi - theta)) / sin(pi*b),   b = p/n,
    arc_sum        = sum_j (pi - omega_j) = pi - theta.

Every closed form divides by sin(beta) (or its square), so
|sin(beta)| <= 1e-12 is refused rather than silently falling back to
term-by-term summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .closed_form import _sinc
from .errors import DegenerateBetaError

EPS_DENOM = 1e-12


@dataclass(frozen=True)
class TrigSumSpec:
    """Angles and length of a progression sum; coeff_a/coeff_b weight terms."""

    alpha: float
    beta: float
    count: int
    coeff_a: float = 0.0
    coeff_b: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class AssemblyParts:
    """The two root-angle sums feeding the closed integral value.

    q is the cosine-weighted arc sum, r the plain arc sum (pi - theta).
    """

    q: float
    r: float


def _checked_sin_beta(beta: float) -> float:
    s = math.sin(beta)
    if abs(s) <= EPS_DENOM:
        raise DegenerateBetaError(f"|sin(beta)| = {abs(s)} <= {EPS_DENOM}")
    return s


def cosine_sum(spec: TrigSumSpec) -> float:
    """Sum of cos(alpha + 2*j*beta) for j = 1..count."""
    return arithmetic_cosine_sum(replace(spec, coeff_a=1.0, coeff_b=0.0))


def weighted_cosine_sum(spec: TrigSumSpec) -> float:
    """Sum of j*cos(alpha + 2*j*beta) for j = 1..count."""
    return arithmetic_cosine_sum(replace(spec, coeff_a=0.0, coeff_b=1.0))


def sine_sum(spec: TrigSumSpec) -> float:
    """Sum of sin(alpha + (2*j - 1)*beta) for j = 1..count."""
    s = _checked_sin_beta(spec.beta)
    a, b, n = spec.alpha, spec.beta, spec.count
    return (math.cos(a) - math.cos(a + 2 * n * b)) / (2.0 * s)


def arithmetic_cosine_sum(spec: TrigSumSpec) -> float:
    """Sum of (coeff_a + j*coeff_b)*cos(alpha + 2*j*beta) for j = 1..count."""
    s = _checked_sin_beta(spec.beta)
    a, b, n = spec.alpha, spec.beta, spec.count
    ca, cb = spec.coeff_a, spec.coeff_b
    top = math.sin(a + (2 * n + 1) * b)
    return ((ca * top - ca * math.sin(a + b)) / (2.0 * s)
            + cb * n * top / (2.0 * s)
            - cb * (math.cos(a) - math.cos(a + 2 * n * b)) / (4.0 * s * s))


def arc_cosine_sum(n: int, p: float, theta: float) -> float:
    """Closed form of sum_j (pi - omega_j)*cos(p*omega_j), omega_j = (theta+2*pi*j)/n.

    Accepts real p; the term-by-term identity holds for integer p only.
    p = 0 is served by the removable limit (value pi - theta).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    b = p / n
    if abs(math.sin(math.pi * b)) <= EPS_DENOM and abs(b) > 1e-6:
        raise DegenerateBetaError(
            f"sin(pi*p/n) vanishes at p/n = {b}: closed form undefined"
        )
    return (math.pi - theta) * _sinc(b * (math.pi - theta)) / _sinc(math.pi * b)


def arc_sum(n: int, theta: float) -> float:
    """Sum of the n arcs (pi - omega_j): an arithmetic progression summing to pi - theta."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi - theta


def assemble(n: int, p: float, theta: float) -> AssemblyParts:
    """Both root-angle sums for the closed-value assembly."""
    return AssemblyParts(q=arc_cosine_sum(n, p, theta), r=arc_sum(n, theta))
