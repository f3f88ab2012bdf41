"""Closed-form values of the kernel integrals.

Everything reduces to the master value

    master(a, b, c) = integral over [0, inf) of
                      (cosh(b*t) + cos(c)) / (cosh(t) + cos(a)) dt
                    = pi*sin(a*b) / (sin(a)*sin(pi*b)) + a*cos(c)/sin(a),

valid for |Re a| < pi and |Re b| < 1, by continuity at a = 0 and b = 0.
The implementation factors the formula through sin(z)/z ratios,

    master(a, b, c) = (sinc(a*b)/sinc(pi*b) + cos c) / sinc(a),

so both removable singularities evaluate smoothly (the sine ratios
switch to short Taylor polynomials near zero); the returned flag
records, at the 1e-8 threshold, which limit branch applied.  The named
special cases are thin wrappers over the master value wherever that is
exact.

eval_master and master_value evaluate real arguments (a and b both
exact floats, as verify's closed route passes them) with math, and
complex ones with cmath.  The two give the same bits: with zero
imaginary parts, CPython's complex products, quotients and cmath.sin
round their real parts as the float operations do.  master_value_many
is master_value's real path for a block of rows, as numpy columns,
bit for bit: verify's closed route runs a grid through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NearPoleError

EPS_LIMIT = 1e-8   # |a| or |b| below this: report value as the analytic limit
EPS_POLE = 1e-10   # |sin(pi*b)| below this away from b=0: refuse (b near +-1)

_TAYLOR_RADIUS = 1e-4


class LimitApplied(Enum):
    NONE = "none"
    A_ZERO = "a-zero"
    B_ZERO = "b-zero"
    BOTH = "both"


@dataclass(frozen=True)
class ClosedValue:
    value: complex
    limit_applied: LimitApplied


def _sinc(z: complex | float) -> complex | float:
    """sin(z)/z, equal to 1 at z = 0; accepts real or complex z."""
    if abs(z) < _TAYLOR_RADIUS:
        z2 = z * z
        return 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0)
    if isinstance(z, complex):
        return cmath.sin(z) / z
    return math.sin(z) / z


def _sinc_many(z: np.ndarray) -> np.ndarray:
    """_sinc, elementwise on real z."""
    z2 = z * z
    return np.where(np.abs(z) < _TAYLOR_RADIUS, 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0),
                    np.sin(z) / z)


def _sinhc(z: complex | float) -> complex | float:
    """sinh(z)/z, equal to 1 at z = 0."""
    if abs(z) < _TAYLOR_RADIUS:
        z2 = z * z
        return 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0)
    if isinstance(z, complex):
        return cmath.sinh(z) / z
    return math.sinh(z) / z


def _limit_flag(a: complex | float, b: complex | float) -> LimitApplied:
    small_a = abs(a) < EPS_LIMIT
    small_b = abs(b) < EPS_LIMIT
    if small_a and small_b:
        return LimitApplied.BOTH
    if small_a:
        return LimitApplied.A_ZERO
    if small_b:
        return LimitApplied.B_ZERO
    return LimitApplied.NONE


def _check_strip(a: complex | float, b: complex | float) -> None:
    """Refuse a and b outside the strip; both complex, or both floats."""
    isfinite, sin = (math.isfinite, math.sin) if type(a) is float else (cmath.isfinite, cmath.sin)
    if not (isfinite(a) and isfinite(b)):
        raise DomainError(f"a and b must be finite, got a = {complex(a)}, b = {complex(b)}")
    if not abs(a.real) < math.pi:
        raise DomainError(f"|Re a| = {abs(a.real)} outside the strip |Re a| < pi")
    if not abs(b.real) < 1.0:
        raise DomainError(f"|Re b| = {abs(b.real)} outside the strip |Re b| < 1")
    if abs(sin(math.pi * b)) < EPS_POLE and abs(b) >= EPS_LIMIT:
        raise NearPoleError(f"b = {complex(b)} is too close to the poles at b = +-1")


def _master_raw(a: complex | float, b: complex | float, c: float,
                theta: float | None = None) -> complex | float:
    """The master formula with no domain checks (paradox demonstrations).

    ``theta``, when given, is the angle with a = pi - theta.  Away from
    theta = pi the formula then divides by sin(theta) instead of sin(a):
    sin(a) would lose the digits that rounding pi - theta drops as theta
    nears 0 or 2*pi (a relative error of about 3e-16/theta).
    """
    top = _sinc(a * b) / _sinc(math.pi * b) + math.cos(c)
    if theta is not None and abs(a) >= 1.0:
        return top * a / math.sin(theta)
    # |a| < 1: a is exact, and 1/sinc(a) keeps the a = 0 limit
    return top / _sinc(a)


def master_value(a: complex | float, b: complex | float, c: float, *,
                 theta: float | None = None) -> complex | float:
    """eval_master's value, without its ClosedValue and limit flag: a
    float when a and b are exact floats, else a complex."""
    if not (type(a) is float and type(b) is float):
        a = complex(a)
        b = complex(b)
    _check_strip(a, b)
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    return _master_raw(a, b, c, theta)


def master_value_many(a, b, c, theta) -> tuple[np.ndarray, np.ndarray]:
    """master_value(a[i], b[i], c[i], theta=theta[i]) for rows of real
    floats, and whether _check_strip admits each row.

    The values of refused rows are meaningless; the caller passes those
    rows to master_value, which raises for them.  An admitted row's value
    equals master_value's bit for bit: each step is _master_raw's IEEE
    operation in its order on the float path, both of its branches taken
    by np.where, and np.sin and np.cos are libm's on these arguments
    (tests/test_series.py pins that).
    """
    with np.errstate(all="ignore"):  # refused rows and the branch np.where drops
        pi_b = math.pi * b
        ok = (np.isfinite(a) & np.isfinite(b) & (np.abs(a) < math.pi) & (np.abs(b) < 1.0)
              & ~((np.abs(np.sin(pi_b)) < EPS_POLE) & (np.abs(b) >= EPS_LIMIT))
              & np.isfinite(c))
        top = _sinc_many(a * b) / _sinc_many(pi_b) + np.cos(c)
        value = np.where(np.abs(a) >= 1.0, top * a / np.sin(theta), top / _sinc_many(a))
    return value, ok


def eval_master(a: complex | float, b: complex | float, c: float, *,
                theta: float | None = None) -> ClosedValue:
    """Master closed form for (cosh(b*t) + cos c)/(cosh t + cos a) on [0, inf).

    Pass ``theta`` (real, a = pi - theta) where the caller still has it,
    to keep full precision as theta nears 0 or 2*pi.  Exact float a and b
    stay floats (see the module docstring); other inputs become complex.
    """
    return ClosedValue(value=complex(master_value(a, b, c, theta=theta)),
                       limit_applied=_limit_flag(a, b))


def eval_cosh_ratio(a: complex | float, b: complex | float) -> ClosedValue:
    """Closed form for cosh(b*t)/(cosh t + cos a) on [0, inf): the c = pi/2 case."""
    return eval_master(a, b, 0.5 * math.pi)


def eval_sec_case(b: float) -> float:
    """(pi/2)*sec(pi*b/2): the theta = zeta = pi/2 case, per unit n."""
    if abs(b) >= 1.0:
        raise DomainError(f"|b| = {abs(b)} must be < 1")
    return 0.5 * math.pi / math.cos(0.5 * math.pi * b)


def eval_tan_case(b: float) -> float:
    """(pi/2)*tan(pi*b/2): the odd-numerator companion of eval_sec_case."""
    if abs(b) >= 1.0:
        raise DomainError(f"|b| = {abs(b)} must be < 1")
    return 0.5 * math.pi * math.tan(0.5 * math.pi * b)


def eval_sech_transform(a: float, q: float) -> float:
    """Cosine transform: integral of cos(q*t)/(cosh t + cos a) over [0, inf).

    Equals pi*sinh(a*q)/(sin(a)*sinh(pi*q)); the q -> 0 limit a/sin(a) is
    built in.  a = 0 is rejected: that case is eval_sech2_transform's.
    """
    if abs(a) >= math.pi or a == 0.0:
        raise DomainError(f"a must satisfy 0 < |a| < pi, got {a}")
    return _sinhc(a * q) / (_sinc(a) * _sinhc(math.pi * q))


def eval_sech2_transform(q: float) -> float:
    """Cosine transform of sech^2: integral of cos(2*q*t)/cosh(t)**2 = pi*q/sinh(pi*q)."""
    return 1.0 / _sinhc(math.pi * q)


def eval_theta_pi_limit(b: complex | float) -> ClosedValue:
    """Repeated-root limit a -> 0 of the cosh ratio: pi*b/sin(pi*b)."""
    b = complex(b)
    _check_strip(0j, b)
    flag = LimitApplied.B_ZERO if abs(b) < EPS_LIMIT else LimitApplied.NONE
    return ClosedValue(value=1.0 / _sinc(math.pi * b), limit_applied=flag)


def eval_split_form(f: complex | float, b: complex | float) -> ClosedValue:
    """Closed form for cosh(b*t)/(cosh t + (f + 1/f)/2) on [0, inf).

    The denominator splits into real factors when f > 0; the value is
    pi*(f**b - f**-b)/((f - 1/f)*sin(pi*b)) with the principal branch of
    f**b, realized as the cosh ratio at a = i*log(f).  f = 1 reduces by
    continuity to the repeated-root limit.
    """
    if f == 0:
        raise DomainError("f must be nonzero")
    phi = cmath.log(complex(f))
    if abs(phi.imag) >= math.pi:
        raise DomainError(f"|arg f| = {abs(phi.imag)} must be < pi")
    return eval_cosh_ratio(1j * phi, b)


def eval_split_cos_form(f: float, q: float) -> float:
    """Integral of cos(q*log x)/(x + f + 1/f + 1/x)/x over (0, 1] for f > 0.

    Equals 2*pi*sin(q*log f)/((f - 1/f)*(e**(pi*q) - e**(-pi*q))); both
    the f -> 1 and q -> 0 limits are removable and built in (q -> 0
    gives log(f)/(f - 1/f)).
    """
    if not f > 0:
        raise DomainError(f"f must be positive, got {f}")
    phi = math.log(f)
    return _sinc(q * phi) / (2.0 * _sinhc(phi) * _sinhc(math.pi * q))
