"""Infinite-series representations of the integral values.

The base expansion 1/(1 - 2*x*cos(theta) + x**2) = sum x**k sin((k+1)*
theta)/sin(theta) turns the x-domain integrals into sine series such as

    sum_k sin(k*theta)/(k*n + p)          (one power in the numerator)
    sum_k 2*n*k*sin(k*theta)/(k**2*n**2 - p**2)   (both powers, paired).

These converge only conditionally, so each sum is accelerated by
subtracting exactly summable anchors

    S_{2j+1}(theta) = sum_k sin(k*theta)/k**(2j+1),      0 < theta < 2*pi,

which are Bernoulli polynomials in theta (DLMF 24.8.2); S_1 is
(pi - theta)/2.  What is left has positive, decreasing coefficients c_k;
it is summed directly, and its truncation error after K - 1 terms is
bounded with the Dirichlet bound c_K/|sin(theta/2)|.  series_contracted,
the variant verify runs, subtracts S_1 to S_{2J+1} (J = EXTRA_ANCHORS),
so its c_k fall like k**-(2J+3) and some 2 to 20 terms suffice (J = 5);
its error estimate adds a bound on the rounding of the anchors and the
prefactor.  Each anchor's coefficients are its exact rationals times
powers of pi, correctly rounded (_times_pi).
series_one_sided and series_imaginary keep the single anchor S_1: the
one-sided sum's next anchors are Clausen functions, which have no
polynomial form, and the imaginary variant's r = q/n is unbounded, so
anchors in powers of r**2 would lose digits.  One driver serves all
three: it reads K off the bound before any term is summed, and sums the
terms in chunks of at most 8192 so memory stays flat however large K is.
Tolerances below 1e-10 are refused: the conditional part of the sum
cannot honestly beat that, and a tolerance the bound cannot meet within
MAX_TERMS terms is refused without summing.

_contracted_rows, series_contracted for a block of rows as numpy
columns, bit for bit, runs a grid's series route in verify.verify_points;
inside_theta_edges is the one test of the series' theta window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SlowConvergenceError, ToleranceUnreachableError

MAX_TERMS = 100_000
_LAST_K = float(MAX_TERMS + 1)  # the k of the last tail bound a sum may need
TOL_FLOOR = 1e-10
THETA_EDGE = 1e-3
_BLOCK = 8192
# _sine_sum sums stop - 1 terms in a plain loop when stop <= _LOOP_TERMS,
# with numpy above
_LOOP_TERMS = 24

# J: the Bernoulli-polynomial anchors series_contracted subtracts beyond
# S_1; its remainder then decays like k**-(2J + 3).
EXTRA_ANCHORS = 5
_DECAY = 2 * EXTRA_ANCHORS + 3
# Bernoulli numbers B_0, B_2, ..., B_2J as exact (numerator, denominator).
_BERNOULLI = ((1, 1), (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66))
# pi to 60 decimals, as _PI_DIGITS / 10**60
_PI_DIGITS = 3_141592653589793238462643383279502884197169399375105820974944
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_UNIT_ROUNDOFF = 2.0 ** -53
# Rounding allowance of series_contracted, in unit roundoffs per unit of
# term magnitude.  A first-order count of the roundings that act on the
# dominant terms (coefficient, Horner step, power of b**2, sine, the
# prefactor 2/(n*sin(theta)) and the final sums) gives about 5, and more
# where |b| near 1 lets the remainder's c_1 term dominate: its weight
# b**(2J+2) carries the rounding of b = p/n 2J+2 times.  Errors against
# 30-digit sums of the same terms reached 10.1 on 12 000 random calls and
# 13.9 on 72 000 with 0.99 < |b| < 0.9999.  The rest is margin, also for
# the middle term that verify.series_value subtracts.
_ROUNDING_ULPS = 16.0


def _zeta_even(j: int) -> tuple[int, int]:
    """zeta(2j)/pi**(2j) as exact (numerator, denominator); zeta(0) = -1/2."""
    num, den = _BERNOULLI[j]
    return (-1) ** (j + 1) * num * 4 ** j, 2 * den * math.factorial(2 * j)


def _times_pi(num: int, den: int, power: int) -> float:
    """num/den * pi**power, correctly rounded: Python rounds an int / int
    quotient correctly, and pi's 60 decimals leave it exact to about 1e-58."""
    return num * _PI_DIGITS ** power / (den * 10 ** (60 * power))


def _horner_table(odd: list[float], even: float):
    """(c, |c|) pairs from the highest power down, then e and |e|."""
    return tuple((c, abs(c)) for c in reversed(odd)), even, abs(even)


def _theta_form(m: int):
    """S_{2m+1}(theta) = theta*sum_i c_i*theta**(2i) + e*theta**(2m) on [0, 2*pi].

    The Bernoulli polynomial of DLMF 24.8.2 written in theta: its terms
    shrink with theta, as S_{2m+1} does (m >= 1) near theta = 0.
    """
    odd = []
    for i in range(m + 1):
        num, den = _zeta_even(m - i)
        odd.append(_times_pi((-1) ** i * num, den * math.factorial(2 * i + 1), 2 * (m - i)))
    return _horner_table(odd, _times_pi((-1) ** m, 2 * math.factorial(2 * m), 1))


def _pi_form(m: int):
    """S_{2m+1}(pi - y) = y*sum_i c_i*y**(2i), an odd polynomial in y.

    c_i = (-1)**i * eta(2m - 2i)/(2i + 1)!, with the alternating zeta
    eta(2j) = (1 - 2**(1 - 2j))*zeta(2j); its terms shrink with y = pi - theta.
    """
    odd = []
    for i in range(m + 1):
        j = m - i
        num, den = _zeta_even(j)
        odd.append(_times_pi((-1) ** i * num * (4 ** j - 2),
                             den * 4 ** j * math.factorial(2 * i + 1), 2 * j))
    return _horner_table(odd, 0.0)


_THETA_FORMS = tuple(_theta_form(m) for m in range(EXTRA_ANCHORS + 1))
_PI_FORMS = tuple(_pi_form(m) for m in range(EXTRA_ANCHORS + 1))
# Bounds, for |b| < 1, on the remainder coefficients 1/(k**(2J+1)*(k**2 - b**2))
# summed over k >= 2, and k times them summed over k >= 3 (k*theta is exact
# for k = 1, 2); the terms beyond k = 200 add less than 1e-16 to either.
_COEF_SUM = sum(1.0 / (k ** (_DECAY - 2) * (k * k - 1.0))
                for k in map(float, range(2, 200)))
_ARG_SUM = sum(k / (k ** (_DECAY - 2) * (k * k - 1.0))
               for k in map(float, range(3, 200)))

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


def inside_theta_edges(theta):
    """THETA_EDGE < theta < 2*pi - THETA_EDGE, the thetas the series serve,
    on a float or a numpy column alike (False at NaN)."""
    return (THETA_EDGE < theta) & (theta < 2.0 * math.pi - THETA_EDGE)


def _check_series_args(n: float, theta: float, tol: float) -> None:
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tol = {tol} is not >= the supported floor {TOL_FLOOR}")
    if not inside_theta_edges(theta):
        raise SlowConvergenceError(
            f"theta = {theta} within {THETA_EDGE} of 0 or 2*pi: sum too slow"
        )


def anchor_sums(theta: float) -> tuple[list[float], list[float]]:
    """S_{2j+1}(theta) = sum_k sin(k*theta)/k**(2j+1) for j = 0..EXTRA_ANCHORS.

    Returns the sums and, for each, the sum of the magnitudes of its
    polynomial's terms, which is what its rounding error scales with.
    Each polynomial is written in the variable whose terms shrink where
    the sum does: theta near 0, y = pi - theta near pi, and 2*pi - theta
    near 2*pi (by S(theta) = -S(2*pi - theta)).  pi - theta and
    2*pi - theta carry the low part of pi, so each is exact to one rounding.
    The even term's w**m, w = z**2, is a running product, which numpy
    repeats bit for bit.
    """
    if theta < 0.5 * math.pi:
        z, sign, forms = theta, 1.0, _THETA_FORMS
    elif theta <= 1.5 * math.pi:
        z, sign, forms = (math.pi - theta) + _PI_LO, 1.0, _PI_FORMS
    else:
        z, sign, forms = (2.0 * math.pi - theta) + 2.0 * _PI_LO, -1.0, _THETA_FORMS
    w, az = z * z, abs(z)
    sums, sizes = [], []
    z_even = 1.0  # w**m
    for odd, even, even_abs in forms:
        poly = size = 0.0
        for c, c_abs in odd:
            poly = poly * w + c
            size = size * w + c_abs
        sums.append(sign * (z * poly + even * z_even))
        sizes.append(az * size + even_abs * z_even)
        z_even *= w
    return sums, sizes


def _sine_sum(theta: float, c_of_k, stop: int) -> float:
    """sum_{k=1}^{stop-1} sin(k*theta)*c_k.

    A plain loop below _LOOP_TERMS terms, where numpy's fixed cost per
    call (about 10 us, the cost of some 24 loop terms) dominates; numpy
    chunks of at most _BLOCK terms above, added left to right as the loop
    adds them: each chunk's running sums, seeded with the total so far.
    """
    total = 0.0
    if stop <= _LOOP_TERMS:
        sin = math.sin
        for k in map(float, range(1, stop)):
            total += sin(k * theta) * c_of_k(k)
        return total
    for start in range(1, stop, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, stop), dtype=float)
        terms = np.sin(k * theta) * c_of_k(k)
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    return total


def _accelerated_sum(theta: float, prefactor: float, anchored: float,
                     weight: float, c_of_k, tol: float, rounding: float = 0.0,
                     decay: int | None = None) -> SeriesResult:
    """value = prefactor * (anchored + weight * sum_{k<K} sin(k*theta)*c_k).

    The driver of all three variants.  c_of_k must be positive and
    decreasing, so the Dirichlet bound applies; that bound plus rounding
    must meet a target tol/10, and a target no K <= MAX_TERMS + 1 meets is
    refused before any term is summed.  K is the smallest k that meets it:
    the search gallops up in doubling steps from a lower bound on K (1, or
    where k**-decay meets the target, less one, if every c_k >= k**-decay)
    and bisects the last step.
    """
    target = 0.1 * tol
    budget = target - rounding
    scale = abs(prefactor * weight) / abs(math.sin(0.5 * theta))
    # tail(k), the bound after k - 1 terms, is scale * c_of_k(float(k)),
    # written out at each probe; ``tail`` ends as tail(hi)
    last = scale * c_of_k(_LAST_K)
    if not last <= budget:
        raise ToleranceUnreachableError(
            f"tail bound {last + rounding} still above {target} after {MAX_TERMS} terms"
        )
    lo = 1  # every k < lo has tail(k) > budget
    if decay is not None and scale:
        lo = max(1, math.ceil((scale / budget) ** (1.0 / decay)) - 1)
    hi, step = lo, 1
    while (tail := scale * c_of_k(float(hi))) > budget:
        lo, hi, step = hi + 1, min(hi + step, MAX_TERMS + 1), 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if (probe := scale * c_of_k(float(mid))) <= budget:
            hi, tail = mid, probe
        else:
            lo = mid + 1
    value = prefactor * (anchored + weight * _sine_sum(theta, c_of_k, hi))
    return SeriesResult(value=value, terms_used=hi - 1,
                        tail_estimate=tail + rounding, accelerated=True)


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

    return _accelerated_sum(theta, 1.0 / (n * math.sin(theta)),
                            0.5 * (math.pi - theta), -b, c_of_k, tol)


def series_contracted(n: float, p: float, theta: float, tol: float) -> SeriesResult:
    """Sum (2*n/sin(theta)) * sum_k k*sin(k*theta)/(k**2*n**2 - p**2).

    Converges to the integral of (x**p + x**-p)/(x**n + x**-n -
    2*cos(theta))/x over (0, 1] for |p| < n.  With b = p/n and J =
    EXTRA_ANCHORS, the exact split

        k/(k**2 - b**2) = sum_{j<=J} b**(2j)/k**(2j+1)
                          + b**(2J+2)/(k**(2J+1)*(k**2 - b**2))

    turns the sum into the anchors S_{2j+1}(theta) (anchor_sums) plus a
    remainder with positive coefficients falling like k**-(2J+3), so the
    Dirichlet bound after K - 1 terms needs only some 2 to 20 terms.  The
    reported tail_estimate is that bound plus a bound on the rounding of
    the anchors, the remainder and the prefactor.  The search for K starts
    where k**-(2J+3), a lower bound on every c_k, meets the target.
    """
    _check_series_args(n, theta, tol)
    if not abs(p) < n:
        raise ValueError(f"need |p| < n, got p={p}, n={n}")
    p_abs = abs(p)
    b_abs = p_abs / n
    prefactor, anchors, weight, rounding = _contracted_setup(
        math.sin, n, p_abs, b_abs, theta, *anchor_sums(theta))
    c_of_k = functools.partial(_coefficients, n, p_abs, b_abs)
    return _accelerated_sum(theta, prefactor, anchors, weight, c_of_k, tol,
                            rounding, _DECAY)


def _contracted_setup(sin, n, p_abs, b_abs, theta, sums, sizes):
    """series_contracted's prefactor, anchors, weight b**(2J+2) and
    rounding allowance, on Python floats (sin = math.sin, the lists of
    anchor_sums) or numpy columns (np.sin, _anchor_columns' columns
    transposed) alike: the same IEEE operations in the same order.
    """
    b2 = b_abs * b_abs
    sin_theta = sin(theta)
    prefactor = 2.0 / (n * sin_theta)
    anchors = size = 0.0
    weight = 1.0  # b**(2j), and b**(2J+2) after the loop
    for s_j, size_j in zip(sums, sizes):
        anchors += weight * s_j
        size += weight * size_j
        weight *= b2
    # the remainder's terms: |sin(k*theta)*c_k| summed is at most
    # c_1*|sin(theta)| + _COEF_SUM, and rounding k*theta moves them by at
    # most theta*_ARG_SUM in all
    remainder_size = _coefficients(n, p_abs, b_abs, 1.0) * abs(sin_theta) + _COEF_SUM
    rounding = abs(prefactor) * _UNIT_ROUNDOFF * (
        _ROUNDING_ULPS * (size + weight * remainder_size)
        + weight * theta * _ARG_SUM)
    return prefactor, anchors, weight, rounding


# _contracted_rows serves rows of at most _WIDTH terms (K <= _WIDTH + 1).
# Natural rows need at most about 40; more arise only where the rounding
# allowance leaves almost none of the target, and those take the scalar call.
# Such a row needs at most some 450 terms, where the budget is one ulp of
# the rounding.
_WIDTH = 256
_K = np.arange(1.0, _WIDTH + 2.0)
# columns of the window in which _stops looks for K
_WINDOW = 5


def _coefficients(n, p_abs, b_abs, k):
    """series_contracted's c_k = n/(k**(2J+1)*(k*n - |p|)*(k + |b|)) at k,
    on Python floats or broadcast numpy arrays alike.

    k**11 (J = 5) is a product, which numpy repeats bit for bit; it is
    exact, and so equals libm's pow, for k <= 28 (k**11 < 2**53), and
    within a few roundings of it beyond.  k - b is (k*n - p)/n: near
    |b| = 1 the c_1 term carries the value's 1/(1 - b**2), and 1 - b
    would lose the digits of p/n.
    """
    k2 = k * k
    k4 = k2 * k2
    return n / (k * k2 * k4 * k4 * (k * n - p_abs) * (k + b_abs))


def _padded(odd, i: int) -> list[float]:
    """Entry i (0: c, 1: |c|) of each (c, |c|) pair, after zeros up to
    EXTRA_ANCHORS + 1 entries: a Horner step from 0 with a 0 coefficient
    stays 0, so every anchor's polynomial runs the same steps."""
    return [0.0] * (EXTRA_ANCHORS + 1 - len(odd)) + [pair[i] for pair in odd]


# indexed [region (0: theta form, 1: pi form), c or |c|, anchor, coefficient]
# and [region, e or |e|, anchor]
_ANCHOR_ODD = np.array([[[_padded(f[0], i) for f in forms] for i in (0, 1)]
                        for forms in (_THETA_FORMS, _PI_FORMS)])
_ANCHOR_EVEN = np.array([[[f[1 + i] for f in forms] for i in (0, 1)]
                         for forms in (_THETA_FORMS, _PI_FORMS)])


def _anchor_columns(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """anchor_sums for a column of theta: (rows x anchors) sums and sizes.

    Each row takes the region, z and polynomial that anchor_sums picks for
    its theta, and the same operations in the same order, w**m included.
    """
    mid = (theta >= 0.5 * math.pi) & (theta <= 1.5 * math.pi)
    high = theta > 1.5 * math.pi
    z = np.where(mid, (math.pi - theta) + _PI_LO,
                 np.where(high, (2.0 * math.pi - theta) + 2.0 * _PI_LO, theta))
    w = z * z
    z_even = np.empty((len(w), EXTRA_ANCHORS + 1))
    z_even[:, 0] = 1.0
    for m in range(1, EXTRA_ANCHORS + 1):
        z_even[:, m] = z_even[:, m - 1] * w
    region = mid.astype(np.intp)
    odd, even = _ANCHOR_ODD[region], _ANCHOR_EVEN[region]
    poly = 0.0  # value and magnitude polynomials side by side
    for i in range(EXTRA_ANCHORS + 1):
        poly = poly * w[:, None, None] + odd[..., i]
    sign = np.where(high, -1.0, 1.0)[:, None]
    sums = sign * (z[:, None] * poly[:, 0] + even[:, 0] * z_even)
    sizes = np.abs(z)[:, None] * poly[:, 1] + even[:, 1] * z_even
    return sums, sizes


def _stops(scale, budget, n, p_abs, b_abs):
    """K and tail(K) per row: the first k whose tail scale*c_k meets the
    budget, which is where the scalar's gallop and bisection land, since
    the tail falls with k.

    Every c_k = 1/(k**(2J+1)*(k**2 - b**2)) >= k**-(2J+3) puts K at or
    above y = (scale/budget)**(1/(2J+3)), and c_k <= (4/3)*k**-(2J+3) for
    k >= 2 (1.002*k**-(2J+3) for k >= 24) puts it at or below the first k
    past 1.0224*y (1.0002*y), so at most ceil(y) + 1 for y <= _WIDTH
    (J = 5).  So K lies in the _WINDOW columns from ceil(y) - 2, clipped at
    k = 1, with a column to spare on either side however numpy's ** rounds
    y.  A row's K is the first column there whose tail meets the budget,
    when the first column's does not or the first column is k = 1; for any
    other row (y past _WIDTH, or no budget) K is 0.
    """
    y = (scale / budget) ** (1.0 / _DECAY)
    first = np.clip(np.ceil(y) - 2.0, 1.0, _WIDTH + 2 - _WINDOW)
    k = first[:, None] + np.arange(_WINDOW)
    tails = scale[:, None] * _coefficients(n[:, None], p_abs[:, None], b_abs[:, None], k)
    fits = tails <= budget[:, None]
    col = fits.argmax(axis=1)
    rows = np.arange(len(col))
    found = fits[rows, col] & ((first == 1.0) | ~fits[:, 0])
    return np.where(found, k[rows, col], 0.0).astype(np.intp), tails[rows, col]


def _sums(stop, theta, n, p_abs, b_abs):
    """0.0 + sum_{k<stop} sin(k*theta)*c_k per row: the terms added left to
    right, as _sine_sum adds them, by one cumsum along the row from a zero
    column.  The rows run widest first, in chunks whose tables stay within
    _BLOCK elements (_WIDTH < _BLOCK), as _sine_sum's do."""
    total = np.empty(len(stop))
    order = np.argsort(-stop, kind="stable")
    start = 0
    while start < len(order):
        rows = order[start:start + _BLOCK // int(stop[order[start]])]
        k = _K[:stop[rows[0]] - 1]
        terms = np.zeros((len(rows), len(k) + 1))
        terms[:, 1:] = np.sin(k * theta[rows, None]) * _coefficients(
            n[rows, None], p_abs[rows, None], b_abs[rows, None], k)
        total[rows] = np.cumsum(terms, axis=1)[np.arange(len(rows)), stop[rows] - 1]
        start += len(rows)
    return total


def _contracted_rows(n, p, theta, tol: float) -> tuple:
    """series_contracted(n[i], p[i], theta[i], tol) for a block of rows,
    as columns: the index of each row it serves and their values,
    terms_used and tail_estimates, the scalar call's bits.  It serves the
    rows whose K - 1 terms the scalar sums in one _sine_sum pass of at
    most _WIDTH terms, and no row at a tol below TOL_FLOOR.

    Each step is the scalar's IEEE operation in its order: both take their
    setup from _contracted_setup, and the scalar writes its powers as
    products (anchor_sums, _coefficients) and adds its terms left to right
    (_sine_sum), which one window search (_stops) and one cumsum from a
    zero column (_sums) repeat; np.sin is libm's sin on the loop's
    arguments (tests/test_series.py checks that and the sums).
    """
    n, p, theta = (np.asarray(x, dtype=float) for x in (n, p, theta))
    p_abs = np.abs(p)
    rows = np.flatnonzero((n > 0) & inside_theta_edges(theta) & (p_abs < n) & (tol >= TOL_FLOOR))
    n, p_abs, theta = n[rows], p_abs[rows], theta[rows]
    with np.errstate(all="ignore"):
        b_abs = p_abs / n
        prefactor, anchors, weight, rounding = _contracted_setup(
            np.sin, n, p_abs, b_abs, theta, *(x.T for x in _anchor_columns(theta)))
        budget = 0.1 * tol - rounding
        scale = np.abs(prefactor * weight) / np.abs(np.sin(0.5 * theta))
        stop, tail = _stops(scale, budget, n, p_abs, b_abs)
        keep = np.flatnonzero((budget > 0.0) & (stop > 0)
                              & (scale * _coefficients(n, p_abs, b_abs, _LAST_K) <= budget))
        total = _sums(stop[keep], theta[keep], n[keep], p_abs[keep], b_abs[keep])
        value = prefactor[keep] * (anchors[keep] + weight[keep] * total)
        tail = tail[keep] + rounding[keep]
    return rows[keep], value, stop[keep] - 1, tail


def series_imaginary(n: float, q: float, theta: float, tol: float) -> SeriesResult:
    """Sum (2*n/sin(theta)) * sum_k k*sin(k*theta)/(k**2*n**2 + q**2).

    The imaginary-exponent companion of series_contracted (p = i*q); its
    closed sum is pi*sinh(q*(pi-theta)/n)/(n*sin(theta)*sinh(q*pi/n)).
    """
    _check_series_args(n, theta, tol)
    r = q / n

    def c_of_k(k):
        return 1.0 / (k * (k * k + r * r))

    return _accelerated_sum(theta, 2.0 / (n * math.sin(theta)),
                            0.5 * (math.pi - theta), -r * r, c_of_k, tol)
