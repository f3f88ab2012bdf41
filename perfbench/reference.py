"""30-digit mpmath references, computed outside every timed region.

X = 1 and X = inf use the master formula in mpmath.  Finite X (integer
n and p) integrates the x-domain integrand, a rational function smooth on
[0, X], with ``mp.quad``: the same integral as the s-domain kernel from
s_X = -n*log(X), at about a third of the cost.  Every run checks its first
specs' references against ``mp.quad`` of the s-domain kernel, so the
reference is not just the closed route evaluated with more digits.
"""

from __future__ import annotations

import math

import mpmath

from coshint import IntegrandSpec

DPS = 30


def _kernel(spec: IntegrandSpec):
    """s-domain integrand (cosh(b*s) - cos(zeta)) / (cosh(s) - cos(theta)) / n."""
    n = mpmath.mpf(spec.n)
    b = mpmath.mpf(spec.p) / n
    cos_theta = mpmath.cos(mpmath.mpf(spec.theta))
    cos_zeta = mpmath.cos(mpmath.mpf(spec.zeta))
    return lambda s: (mpmath.cosh(b * s) - cos_zeta) / (mpmath.cosh(s) - cos_theta) / n


def master_reference(spec: IntegrandSpec) -> mpmath.mpf:
    """(1/n) * (pi*sin(a*b)/(sin(a)*sin(pi*b)) + a*cos(c)/sin(a)), doubled for X = inf."""
    with mpmath.workdps(DPS):
        n = mpmath.mpf(spec.n)
        b = mpmath.mpf(spec.p) / n
        a = mpmath.pi - mpmath.mpf(spec.theta)
        c = mpmath.pi - mpmath.mpf(spec.zeta)
        ratio = a / mpmath.pi if b == 0 else mpmath.sin(a * b) / mpmath.sin(mpmath.pi * b)
        value = (mpmath.pi * ratio + a * mpmath.cos(c)) / (mpmath.sin(a) * n)
        return 2 * value if spec.upper == math.inf else +value


def quad_reference(spec: IntegrandSpec) -> mpmath.mpf:
    """mp.quad of the s-domain kernel from s_X (the whole line for X = inf)."""
    with mpmath.workdps(DPS):
        f = _kernel(spec)
        if spec.upper == math.inf:
            start = mpmath.mpf(0)
        else:
            start = -mpmath.mpf(spec.n) * mpmath.log(mpmath.mpf(spec.upper))
        # theta near 0 or 2*pi puts a Lorentzian of width ~theta at s = 0
        edge = min(spec.theta, 2.0 * math.pi - spec.theta)
        points = [start, mpmath.inf]
        if start == 0 and edge < 0.1:
            points = [start, edge, 10 * edge, 1, mpmath.inf]
        value = mpmath.quad(f, points)
        return 2 * value if spec.upper == math.inf else value


def x_quad_reference(spec: IntegrandSpec) -> mpmath.mpf:
    """mp.quad over [0, X] of the x-domain integrand, for integer n and p.

    x**(n-p-1) * (x**(2p) - 2*cos(zeta)*x**p + 1) / (x**(2n) - 2*x**n*cos(theta) + 1)
    """
    n, p = int(spec.n), int(spec.p)
    with mpmath.workdps(DPS):
        cos_theta = mpmath.cos(mpmath.mpf(spec.theta))
        cos_zeta = mpmath.cos(mpmath.mpf(spec.zeta))

        def f(x):
            xn = x ** n
            return (x ** (n - p - 1) * (x ** (2 * p) - 2 * cos_zeta * x ** p + 1)
                    / (xn * xn - 2 * xn * cos_theta + 1))

        return mpmath.quad(f, [0, mpmath.mpf(spec.upper)])


def exact_reference(spec: IntegrandSpec) -> mpmath.mpf:
    if spec.upper in (1.0, math.inf):
        return master_reference(spec)
    return x_quad_reference(spec)


def reference(spec: IntegrandSpec) -> float:
    """The benchmark's reference value, rounded to the nearest double."""
    return float(exact_reference(spec))


def agrees_with_s_quad(spec: IntegrandSpec, rel: float = 1e-18) -> bool:
    """The reference vs mp.quad of the s-domain kernel, at 30 digits."""
    ref = exact_reference(spec)
    return abs(ref - quad_reference(spec)) <= rel * (1 + abs(ref))
