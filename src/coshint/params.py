"""Problem parameters, normalization and domain classification.

The x-domain problem is the integral of

    (x**(n+p) - 2*x**n*cos(zeta) + x**(n-p)) / (x**(2n) - 2*x**n*cos(theta) + 1) / x

from 0 up to ``upper`` (1, a finite X in (0, 1], or infinity).  The
substitution x**n = exp(-t) maps (0, 1] onto [0, inf) and turns the
integrand into (cosh(b*t) + cos(c)) / (cosh(t) + cos(a)) with

    a = pi - theta,   b = p / n,   c = pi - zeta,

picking up an overall factor 1/n.  This module holds both parameter sets
and decides, for a given spec, which evaluation routes are admissible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SingularThetaError

TWO_PI = 2.0 * math.pi


def _real_or_complex(x) -> float | complex:
    """A spec's p as IntegrandSpec stores it: a real number (numpy's too)
    as a float, else complex(x); a str, which complex() parses, is refused."""
    if type(x) is float:
        return x
    if isinstance(x, str):
        raise ValueError(f"p must be a number, got {x!r}")
    return float(x) if isinstance(x, numbers.Real) else complex(x)


@dataclass(frozen=True)
class IntegrandSpec:
    """Raw x-domain parameters.

    ``p`` may be complex; a purely imaginary p = i*q encodes the
    cos(q*log x) numerator.  ``upper`` is the integration limit: 1.0,
    a finite positive X, or math.inf.  The fields are stored as floats, p
    as a float or complex (_real_or_complex), so every spec is float64.
    """

    n: float
    p: complex
    theta: float
    zeta: float
    upper: float = 1.0

    def __post_init__(self) -> None:
        if not (self.n > 0 and math.isfinite(self.n)):
            raise ValueError(f"n must be a positive finite real, got {self.n}")
        p = _real_or_complex(self.p)
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise ValueError(f"p must be finite, got {self.p}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not math.isfinite(self.zeta):
            raise ValueError("zeta must be finite")
        if not self.upper > 0:
            raise ValueError(f"upper limit must be positive, got {self.upper}")
        object.__setattr__(self, "p", p)
        for name in ("n", "theta", "zeta", "upper"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _frozen(cls, **fields):
    """The frozen dataclass ``cls`` of ``fields``, all of them in order:
    its instance dict set at once, where the generated __init__ makes one
    object.__setattr__ per field.  For classes without a __post_init__."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def valid_fields(n, p, theta, zeta, upper) -> bool:
    """Whether IntegrandSpec takes every row of the lists of a grid's
    fields (p a float or complex, the others floats): __post_init__'s
    checks run on numpy columns at once."""
    n, theta, zeta, upper = (np.array(x, dtype=float) for x in (n, theta, zeta, upper))
    return bool(((n > 0) & np.isfinite(n) & np.isfinite(np.array(p, dtype=complex))
                 & np.isfinite(theta) & np.isfinite(zeta) & (upper > 0)).all())


@dataclass(frozen=True)
class NormalizedForm:
    """t-domain parameters (a, b, c) plus the 1/n scale factor.

    ``a`` is real for every spec built by :func:`normalize`; the complex
    values a = i*log(f) are reachable only through the dedicated
    split-denominator evaluators in :mod:`coshint.closed_form`.
    """

    a: complex
    b: complex
    c: float
    scale: float


class DomainKind(Enum):
    VALID = "valid"
    BOUNDARY_A = "boundary-a"
    SINGULAR_THETA = "singular-theta"
    EXCLUDED = "excluded"
    PARADOX_ONLY = "paradox-only"


@dataclass(frozen=True)
class DomainStatus:
    kind: DomainKind
    detail: str


@dataclass(frozen=True)
class ScaleCheck:
    """A spec together with its exponent-rescaled companion.

    ``scaled`` has exponents (lam*n, lam*p) and the same angles; the two
    integrals are related by value(lam*n, lam*p) = value(n, p) / lam.
    """

    lam: float
    original: IntegrandSpec
    scaled: IntegrandSpec


_THETA_PI_TOL = 1e-12


# The routes' decisions on a spec's fields, each in one place: one
# expression that runs alike on floats (the one-row path) and on a grid's
# numpy columns.


def _summed_upper(upper):
    """Upper limit 1 or inf: the closed, series and pf-assembly limits."""
    return (upper == 1.0) | (upper == math.inf)


def _valid_upper(upper):
    """Upper limit in (0, 1] or inf: the limits a spec's integral takes."""
    return ((0.0 < upper) & (upper <= 1.0)) | (upper == math.inf)


def _inside_turn(theta):
    """theta in (0, 2*pi): its own reduced angle, off the singular 0."""
    return (0.0 < theta) & (theta < TWO_PI)


def _upper_factor(upper):
    """1.0 at upper limit 1 and 2.0 at inf, which doubles the X = 1 value."""
    return 1.0 + (upper == math.inf)


def _real_p(q):
    """A real p, given its imaginary part q."""
    return q == 0.0


def _integer_n(x):
    """An integer exponent (n, or |p|), given as a finite float."""
    return x % 1.0 == 0.0


def _theta_at_pi(theta):
    """A reduced theta that counts as pi: repeated roots (Boundary-a)."""
    return abs(theta - math.pi) <= _THETA_PI_TOL


def _theta_mod(theta: float) -> tuple[float, bool]:
    """Reduce theta into [0, 2*pi) without rejecting the singular value."""
    if 0.0 <= theta < TWO_PI:
        return theta, False
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod landed a rounding step below 0
        t -= TWO_PI
    return t, True


def canonicalize_theta(theta: float) -> tuple[float, bool]:
    """Return (theta mod 2*pi, shifted flag) with the result in (0, 2*pi).

    Raises SingularThetaError when theta is congruent to 0 mod 2*pi,
    where the integral is infinite.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    t, shifted = _theta_mod(theta)
    if t == 0.0:
        raise SingularThetaError(
            f"theta={theta!r} is congruent to 0 mod 2*pi; the integral diverges"
        )
    return t, shifted


def normalize(spec: IntegrandSpec) -> NormalizedForm:
    """Map a spec to its t-domain form (a, b, c, scale).

    Purely arithmetic: theta is reduced mod 2*pi and no spec is refused
    (a spec with theta = 0 normalizes to the boundary a = pi).
    """
    a, b, c, scale, _, _ = form_and_kind(spec.n, spec.p, spec.theta, spec.zeta)
    return NormalizedForm(a=a, b=b, c=c, scale=scale)


def denormalize(form: NormalizedForm, upper: float = 1.0) -> IntegrandSpec:
    """Invert :func:`normalize` (round-trip exact to ulp scale)."""
    n = 1.0 / form.scale
    a = complex(form.a)
    if a.imag != 0.0:
        raise ValueError("cannot denormalize a complex angle a")
    p = form.b * n
    if isinstance(p, complex) and p.imag == 0.0:
        p = p.real
    return IntegrandSpec(
        n=n, p=p, theta=math.pi - a.real, zeta=math.pi - form.c, upper=upper
    )


def classify_domain(spec: IntegrandSpec) -> DomainStatus:
    """Classify a spec against the validity conditions of the closed forms.

    Precedence: SINGULAR_THETA, then EXCLUDED, then PARADOX_ONLY (raw
    theta outside (0, 2*pi), evaluable only after deliberate
    canonicalization), then BOUNDARY_A (theta = pi, served by the
    repeated-root limit), else VALID.
    """
    *_, kind, detail = form_and_kind(spec.n, spec.p, spec.theta, spec.zeta)
    return DomainStatus(DomainKind(kind), detail)


_SINGULAR_THETA, _EXCLUDED, _PARADOX_ONLY, _BOUNDARY_A, _VALID = (
    kind.value for kind in (DomainKind.SINGULAR_THETA, DomainKind.EXCLUDED,
                            DomainKind.PARADOX_ONLY, DomainKind.BOUNDARY_A, DomainKind.VALID))
# the kind and detail of a Valid and of a Boundary-a spec, which hold no value
_VALID_KIND = (_VALID, "inside the validity region")
_BOUNDARY_KIND = (_BOUNDARY_A, "theta = pi: repeated denominator roots, use the limit formula")


def form_and_kind(n, p, theta, zeta) -> tuple:
    """normalize's and classify_domain's values for a spec's fields as
    one plain tuple (a, b, c, scale, kind, detail), kind being the
    DomainKind's value: the one copy of both, which the verify rows use
    without building the NormalizedForm or the DomainStatus.
    """
    theta_c, shifted = _theta_mod(theta)
    b = p / n
    if isinstance(b, complex) and b.imag == 0.0:
        b = b.real
    form = (math.pi - theta_c, b, math.pi - zeta, 1.0 / n)
    if theta_c == 0.0:
        return (*form, _SINGULAR_THETA,
                f"theta={theta!r} is congruent to 0 mod 2*pi; value is infinite")
    if abs(p.real) >= n:
        return (*form, _EXCLUDED,
                f"Re(p)-n = {abs(p.real) - n!r} >= 0: improper fraction, divergent at x=0")
    if shifted:
        return (*form, _PARADOX_ONLY,
                f"theta={theta!r} lies outside (0, 2*pi); canonicalize before evaluating")
    if _theta_at_pi(theta_c):
        return (*form, *_BOUNDARY_KIND)
    return (*form, *_VALID_KIND)


def form_and_kind_many(n, p, theta, zeta) -> tuple:
    """form_and_kind for rows of floats given as columns, p real (the
    real part of a complex one): the columns a, b, c and scale, the mask
    of the rows that are Valid or Boundary-a, and per row the kind and
    detail of such a row, or None.

    Each column is form_and_kind's IEEE operation on the rows of those
    two kinds, b only where p is a float, since a complex p divides as
    a complex.  A row whose theta lies in (0, 2*pi) is its own reduced
    angle, so it is Valid or Boundary-a unless |p| >= n; the others
    (singular, excluded and paradox-only) are None, for form_and_kind,
    whose details hold reprs.
    """
    inside = _inside_turn(theta) & (np.abs(p) < n)
    at_pi = _theta_at_pi(theta).tolist()
    kinds = [(_BOUNDARY_KIND if edge else _VALID_KIND) if ok else None
             for ok, edge in zip(inside.tolist(), at_pi)]
    return math.pi - theta, p / n, math.pi - zeta, 1.0 / n, inside, kinds


def rescale(spec: IntegrandSpec, lam: float) -> ScaleCheck:
    """Build the exponent-rescaled companion spec (lam*n, lam*p)."""
    if not lam > 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    scaled = IntegrandSpec(
        n=lam * spec.n,
        p=lam * spec.p,
        theta=spec.theta,
        zeta=spec.zeta,
        upper=spec.upper,
    )
    return ScaleCheck(lam=lam, original=spec, scaled=scaled)
