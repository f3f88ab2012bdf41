"""Partial-fraction route to the integral value, fully constructive.

For integer exponents n and p (0 <= p < n) the denominator
x**(2n) - 2*x**n*cos(theta) + 1 factors into the n quadratics
x**2 - 2*x*cos(omega_k) + 1 with root angles omega_k = (theta + 2*pi*k)/n.
The integrand then splits into simple fractions whose antiderivatives
are arctangents, and collecting the arctangent values at x = 1 gives the
same closed value as the master formula.  This module implements every
stage of that construction so each can be checked independently.

_pf_columns runs the route (verify.pf_value) for a block of rows as
numpy columns, bit for bit: integral_at's arctangent sums at a finite X,
integral_closed's assembly at X = 1 and inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import _sinc, _sinc_many, eval_theta_pi_limit
from .errors import (
    BranchError,
    DomainError,
    ExcludedError,
    NotIntegerExponentsError,
    SingularThetaError,
)
from .params import (TWO_PI, IntegrandSpec, _inside_turn, _integer_n, _real_or_complex, _real_p,
                     _summed_upper, _theta_at_pi, _upper_factor, canonicalize_theta)
from .quadrature import integrate_half_line
from .trig_sums import assemble


def _as_int(x, name: str) -> int:
    """x, real or complex, as an int, if it is an integer."""
    xc = _real_or_complex(x)
    if xc.imag == 0.0 and xc.real == (r := round(xc.real)):
        return r
    raise NotIntegerExponentsError(f"{name} = {x!r} is not an integer")


def root_angles(n: int, theta: float) -> list[float]:
    """The n root angles omega_k = (theta + 2*pi*k)/n, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not _inside_turn(theta):
        raise ValueError(f"theta must lie in (0, 2*pi), got {theta}")
    return [(theta + TWO_PI * k) / n for k in range(n)]


def fraction_coefficient(omega: float, spec: IntegrandSpec) -> float:
    """Numerator of the simple fraction attached to the root angle omega.

    The 0/0 ratio at the root is resolved by differentiating numerator
    and denominator, which yields 2*sin(omega)*(cos(p*omega) -
    cos(zeta))/(n*sin(theta)).
    """
    sin_theta = math.sin(spec.theta)
    if sin_theta == 0.0:
        raise SingularThetaError("sin(theta) = 0: coefficients undefined")
    p = _as_int(spec.p, "p")
    return (2.0 * math.sin(omega) * (math.cos(p * omega) - math.cos(spec.zeta))
            / (spec.n * sin_theta))


@dataclass(frozen=True)
class PartialTerm:
    omega: float
    coeff: float


@dataclass(frozen=True)
class Decomposition:
    spec: IntegrandSpec
    terms: tuple[PartialTerm, ...]


def _integer_parts(spec: IntegrandSpec) -> tuple[int, int, float]:
    """Integer n and p with 0 <= p < n, and the canonical theta."""
    n = _as_int(spec.n, "n")
    p = _as_int(spec.p, "p")
    if not 0 <= p < n:
        raise ExcludedError(f"need 0 <= p < n, got p={p}, n={n}")
    theta_c, _ = canonicalize_theta(spec.theta)
    return n, p, theta_c


def _check_decompose_spec(spec: IntegrandSpec) -> tuple[int, int, float]:
    n, p, theta_c = _integer_parts(spec)
    if _theta_at_pi(theta_c):
        raise DomainError(
            "theta = pi gives repeated roots; use the repeated-root limit instead"
        )
    return n, p, theta_c


def decompose(spec: IntegrandSpec) -> Decomposition:
    """Split the integrand into its n simple fractions."""
    n, _, theta_c = _check_decompose_spec(spec)
    spec_c = spec if spec.theta == theta_c else replace(spec, theta=theta_c)
    terms = tuple(
        PartialTerm(omega=w, coeff=fraction_coefficient(w, spec_c))
        for w in root_angles(n, theta_c)
    )
    return Decomposition(spec=spec_c, terms=terms)


def reconstruct(d: Decomposition, x: float) -> float:
    """Evaluate the sum of simple fractions at x in (0, 1).

    Equals the original integrand (x**p + x**(-p) - 2*cos(zeta)) /
    ((x**n + x**(-n) - 2*cos(theta)) * x) wherever x avoids the poles;
    for theta in (0, 2*pi) there are no real poles.
    """
    total = 0.0
    for term in d.terms:
        total += term.coeff / (x * x - 2.0 * x * math.cos(term.omega) + 1.0)
    return total


def integrand_value(spec: IntegrandSpec, x: float) -> float:
    """The x-domain integrand itself (for reconstruction checks)."""
    p = complex(spec.p).real
    num = x ** p + x ** (-p) - 2.0 * math.cos(spec.zeta)
    den = x ** spec.n + x ** (-spec.n) - 2.0 * math.cos(spec.theta)
    return num / (den * x)


def antiderivative_term(omega: float, x: float) -> float:
    """Integral of sin(omega)/(y**2 - 2*y*cos(omega) + 1) from 0 to x.

    Uses the two-argument arctangent of (1 - x*cos(omega), x*sin(omega)),
    which is the branch continuous in x on [0, 1] that vanishes at x = 0;
    at x = 1 it equals (pi - omega)/2 for omega in (0, 2*pi).
    """
    if not 0.0 < omega < 2.0 * math.pi:
        raise BranchError(
            f"omega = {omega} outside (0, 2*pi): no continuous branch assigned"
        )
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return math.atan2(x * math.sin(omega), 1.0 - x * math.cos(omega))


def integral_at(spec: IntegrandSpec, X: float) -> float:
    """Partial-fraction value of the integral from 0 to X, X in (0, 1].

    The sum over the root angles of the fraction weight times
    antiderivative_term(omega, X), added left to right.  The angles
    ascend, so the first and the last decide whether every one has the
    branch that antiderivative_term assigns; the arctangent is then
    taken inline.
    """
    if not 0.0 < X <= 1.0:
        raise ValueError(f"X must lie in (0, 1], got {X}")
    n, p, theta_c = _check_decompose_spec(spec)
    omegas = root_angles(n, theta_c)
    if not (0.0 < omegas[0] and omegas[-1] < TWO_PI):
        for omega in omegas:
            antiderivative_term(omega, X)  # raises at the first angle outside
    cos_zeta = math.cos(spec.zeta)
    n_sin_theta = n * math.sin(theta_c)
    total = 0.0
    for omega in omegas:
        weight = 2.0 * (math.cos(p * omega) - cos_zeta) / n_sin_theta
        total += weight * math.atan2(X * math.sin(omega), 1.0 - X * math.cos(omega))
    return total


def integral_closed(spec: IntegrandSpec) -> float:
    """Closed value assembled from the two root-angle sums.

    Returns (arc_cosine_sum - arc_sum*cos(zeta)) / (n*sin(theta)) for
    upper limit 1 and twice that for an infinite upper limit.  theta =
    pi is served by the repeated-root limit value.
    """
    n, p, theta_c = _integer_parts(spec)
    if not _summed_upper(spec.upper):
        raise ValueError("closed assembly covers upper limits 1 and infinity only")
    factor = _upper_factor(spec.upper)
    if _theta_at_pi(theta_c):
        limit = eval_theta_pi_limit(p / n).value.real
        return factor * (limit - math.cos(spec.zeta)) / n
    parts = assemble(n, p, theta_c)
    value = (parts.q - parts.r * math.cos(spec.zeta)) / (n * math.sin(theta_c))
    return factor * value


# the most root angles a _pf_columns row may have; rows with more go to
# pf_value, so a block's (roots x rows) table stays small
_BLOCK_ROOTS = 64


# silent, as the scalar's float arithmetic is, where a value overflows
# (theta = 5e-324), at sinc's 0/0 on the side that np.where drops, and
# where _integer_n takes the remainder of an infinite n or p
@np.errstate(all="ignore")
def _pf_columns(n, p, theta, zeta, upper, q) -> tuple[np.ndarray, np.ndarray]:
    """verify.pf_value for rows of floats given as columns, p and q the
    real and imaginary parts of each spec's p: the indices of the rows it
    serves and their values, pf_value's bits (the sign of zero included).
    It serves the rows that need no special case (``ok``) at X = 1 or inf,
    and at 0 < X < 1 if every root angle lies in (0, 2*pi); b = |p|/n is
    then 0 or in [1/n, 1 - 1/n], which arc_cosine_sum's pole test passes.

    Each step is pf_value's IEEE operation in its order, on (roots x rows)
    tables: numpy's sin and cos are libm's on these arguments
    (tests/test_series.py pins that), the arctangents are math.atan2, as
    numpy's arctan2 is a SIMD routine that is not libm's atan2, and each
    row adds its terms from 0.0 root by root, as integral_at's loop does.
    """
    p_abs = np.abs(p)
    ok = (_real_p(q) & _integer_n(n) & (n <= _BLOCK_ROOTS) & _integer_n(p_abs) & (p_abs < n)
          & _inside_turn(theta) & ~_theta_at_pi(theta))
    closed = np.flatnonzero(ok & _summed_upper(upper))
    finite = np.flatnonzero(ok & (0.0 < upper) & (upper < 1.0))
    # the root angles ascend: the first and the last decide the branch
    th, nf = theta[finite], n[finite]
    finite = finite[(0.0 < _root_angle(th, 0.0, nf)) & (_root_angle(th, nf - 1.0, nf) < TWO_PI)]
    values = [route(n[rows], p_abs[rows], theta[rows], zeta[rows], upper[rows])
              for rows, route in ((closed, _closed_many), (finite, _integral_at_many))
              if len(rows)]
    return np.concatenate((closed, finite)), np.concatenate([np.zeros(0), *values])


def _root_angle(theta, k, n):
    """root_angles' omega_k = (theta + 2*pi*k)/n, elementwise."""
    return (theta + TWO_PI * k) / n


def _integral_at_many(n, p, theta, zeta, X) -> np.ndarray:
    """integral_at for rows that it serves: one value per row."""
    live = np.arange(int(n.max()))[:, None] < n  # (roots x rows)
    k, row = np.nonzero(live)
    omega = _root_angle(theta[row], k, n[row])
    cos_zeta = np.cos(zeta)
    n_sin_theta = n * np.sin(theta)
    weight = 2.0 * (np.cos(p[row] * omega) - cos_zeta[row]) / n_sin_theta[row]
    x = X[row]
    arcs = map(math.atan2, (x * np.sin(omega)).tolist(), (1.0 - x * np.cos(omega)).tolist())
    terms = np.zeros(live.shape)
    terms[live] = weight * np.fromiter(arcs, float, len(omega))
    total = np.zeros(len(n))
    for root_terms in terms:
        total += root_terms
    return total


def _closed_many(n, p, theta, zeta, upper) -> np.ndarray:
    """integral_closed for rows off theta = pi: one value per row."""
    r = math.pi - theta  # arc_sum
    b = p / n
    q = r * _sinc_many(b * r) / _sinc_many(math.pi * b)  # arc_cosine_sum
    value = (q - r * np.cos(zeta)) / (n * np.sin(theta))
    return _upper_factor(upper) * value


def middle_term_integral(n: float, theta: float) -> float:
    """Integral of x**(n-1)/(x**(2n) - 2*x**n*cos(theta) + 1) from 0 to 1.

    Equals (pi - theta)/(2*n*sin(theta)); the theta -> pi limit 1/(2n)
    is built in.
    """
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not _inside_turn(theta):
        raise SingularThetaError(f"theta must lie in (0, 2*pi), got {theta}")
    a = math.pi - theta
    if abs(a) < 1.0:
        # pi - theta is exact here, and 1/sinc(a) keeps the theta = pi limit
        return 1.0 / (2.0 * n * _sinc(a))
    # sin(a) would lose the digits that rounding pi - theta drops as theta
    # nears 0 or 2*pi (a relative error of about 3e-16/theta)
    return a / (2.0 * n * math.sin(theta))


def _middle_term_many(n: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """middle_term_integral, elementwise, for rows that it does not refuse:
    its two branches by np.where, each with the scalar's operations in
    their order."""
    a = math.pi - theta
    with np.errstate(all="ignore"):  # sinc's 0/0 on the branch np.where drops
        return np.where(np.abs(a) < 1.0, 1.0 / (2.0 * n * _sinc_many(a)),
                        a / (2.0 * n * np.sin(theta)))


def squared_denominator_identity(n: float, p: float, X: float) -> tuple[float, float]:
    """Integration-by-parts identity for the squared denominator (1 + x**n)**2.

    Returns (lhs, rhs) where

        lhs = integral from 0 to X of (x**(n+p) + x**(n-p))/(1 + x**n)**2 dx/x
        rhs = (X**(n-p) - X**p)/(n*(1 + X**n))
              + (p/n) * integral from 0 to X of (x**(n-p) + x**p)/(1 + x**n) dx/x,

    each side computed by its own quadrature.  Both integrands are
    mapped off the x -> 0 endpoint with x**n = exp(-s).
    """
    if not (n > 0 and 0.0 < p < n):
        raise ValueError("need n > 0 and 0 < p < n")
    if not 0.0 < X <= 1.0:
        raise ValueError(f"X must lie in (0, 1], got {X}")
    b = p / n
    s_x = -n * math.log(X)

    def lhs_kernel(s: np.ndarray) -> np.ndarray:
        e = np.exp(-s)
        return (np.exp(-(1.0 + b) * s) + np.exp(-(1.0 - b) * s)) / (1.0 + e) ** 2 / n

    def rhs_kernel(s: np.ndarray) -> np.ndarray:
        e = np.exp(-s)
        return (np.exp(-(1.0 - b) * s) + np.exp(-b * s)) / (1.0 + e) / n

    lhs = integrate_half_line(lhs_kernel, s_x, 1.0 - b).value
    boundary = (X ** (n - p) - X ** p) / (n * (1.0 + X ** n))
    rhs_int = integrate_half_line(rhs_kernel, s_x, min(b, 1.0 - b)).value
    return lhs, boundary + b * rhs_int
