"""Independent numerical oracle for every integral evaluated in closed form.

Two unrelated rule families are provided so the oracle can be checked
against itself:

* the trapezoid rule on nested halvings of h for the family's own
  kernels, on maps that make them decay double exponentially: the sinh
  map s = eps*sinh(U*tau), with eps the width of the kernel's peak at
  s = 0 (capped at 1), for every integral over the whole real line
  (quad_two_sided) and, folded at s = 0, for every integral of the even
  kernel over [0, inf) (quad_x_domain at X = 1, quad_t_domain) or over
  the whole line (quad_x_domain at X = inf); and the DE half-line map
  s = s_X + exp(t - e^(-t))/lam, with lam the kernel's tail decay rate,
  for every integral over [s_X, inf) with s_X > 0 (quad_x_domain at
  X < 1).  Each map is one _Map: _LINE, _FOLDED and _DE for the even
  kernel, _TWO_SIDED for quad_two_sided.  _x_rule picks the map of an
  x-domain range by s_X (-inf, 0 or > 0) for quad_x_domain and
  quad_cos_log, and _x_domain_columns by the same tests for the blocks,
  on _x_columns' columns.  The sinh map clusters its nodes where a
  near-edge kernel peaks, so X = 1 and X = inf are served near the edges;
* a doubling-panel Gauss-Legendre rule on geometrically growing panels
  for every other integrand (integrate_finite, integrate_half_line) and
  as the independent check of the trapezoid maps (quad_x_domain's
  rule="gauss").  Its nodes never touch a panel end, so a kernel that
  is 0/0 at the start of its range is safe.

All x-domain integrals are transformed with x**n = exp(-s) before any
rule sees them, so the x -> 0 endpoint behaviour x**(n-|p|-1) never
reaches a node, and the kernels are written so that they do not cancel
near zeta = 0 or theta = 0 or 2*pi (a = pi for quad_two_sided).  A
purely imaginary p = i*q is the same kernel at b = i*q/n, so the
x-domain oracles take it as a real p, at every upper limit.
Refinement stops at 1e-13 relative accuracy; running out of trapezoid
levels, of panel doublings or of the panel budget (2e6 evaluations per
call) raises instead of returning a degraded value, and so does a
trapezoid sum that is inf or NaN.

Sums run in a fixed order, so results are bit-identical across runs.
The trapezoid rule runs on every map in kernel rounds that each
evaluate the nodes of one or more levels of h: the first round
evaluates the level-3 grid, where most rows, near-edge ones at X = 1
among them, stop.  Two drivers take the map, each round's plan from
one cached lookup (_round_plan) and stop a row by one expression
(_passes): _trapezoid_rows takes a lone row (the one-row oracles),
builds its kernel once, pays only its own numpy calls on 1-D arrays,
runs its stopping test on Python floats and raises when it runs out of
levels; _trapezoid_columns takes a (rows x nodes) block in chunks of
rows, whose rows stop on columns, bit for bit as each lone row.
_x_domain_columns, quad_x_domain's block form, which verify's grid path
reads, runs one block per map and kind of p on float columns and
returns columns.  Each map hands the even kernel -|s| directly, exactly,
so the kernel takes no absolute value, and the even kernel's sum over
the whole line is the folded map's at the whole line's steps, which
runs the kernel once per |s|.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    NonIntegrableError,
    PoleTooCloseError,
)
from .params import (DomainKind, IntegrandSpec, _frozen, _inside_turn, _summed_upper, _valid_upper,
                     classify_domain)

REL_TOL = 1e-13
EVAL_BUDGET = 2_000_000

# Refinement thresholds.  Summation roundoff of a peaked or oscillatory
# integrand plateaus near _ROUNDOFF_FLOOR times its absolute mass, so every
# rule also stops once its level difference is that small; a panel
# half-line stops once a panel adds less than _TAIL_BREAK of its tolerance
# (the envelope shrinks the rest).
_ROUNDOFF_FLOOR = 1e-13
_TAIL_BREAK = 1e-3

_GL_ORDER = 32
_GL_MAX_DOUBLINGS = 14


@dataclass(frozen=True)
class QuadResult:
    """A rule's value, its error estimate and ``evaluations``, the number
    of integrand samples it took, on every map and rule."""

    value: complex | float
    abs_err_estimate: float
    evaluations: int


class _Budget:
    """Evaluation counter shared by the Gauss-Legendre panels of one call."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int = EVAL_BUDGET) -> None:
        self.used = 0
        self.limit = limit

    def spend(self, count: int) -> None:
        self.used += count
        if self.used > self.limit:
            raise BudgetExceededError(
                f"quadrature exceeded its budget of {self.limit} evaluations"
            )


# ---------------------------------------------------------------------------
# Gauss-Legendre doubling-panel rule

@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _gauss_fixed(f, a: float, b: float, panels: int, budget: _Budget):
    x0, w0 = _gl_rule()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    budget.spend(x.size)
    vals = f(x).reshape(panels, -1) * w0[None, :]
    value = (vals.sum(axis=1) * half).sum()
    mass = float((np.abs(vals).sum(axis=1) * half).sum())
    return value, mass


def _gauss_panel(f, a: float, b: float, abs_tol: float, budget: _Budget):
    """Integrate f over [a, b] on 1, 2, 4, ... equal Gauss-Legendre panels.

    Returns (value, err) at the first doubling where the change err is
    within abs_tol or _ROUNDOFF_FLOOR times the absolute mass; raises
    BudgetExceededError when the doublings or the budget run out.
    """
    prev = None
    panels = 1
    for _ in range(_GL_MAX_DOUBLINGS + 1):
        value, mass = _gauss_fixed(f, a, b, panels, budget)
        if prev is not None:
            err = abs(value - prev)
            if err <= max(abs_tol, _ROUNDOFF_FLOOR * mass):
                return value, err
        prev = value
        panels *= 2
    raise BudgetExceededError("panel refinement exhausted without reaching tolerance")


# ---------------------------------------------------------------------------
# composite drivers


def _tail_cutoff(decay: float, start: float = 0.0) -> float:
    """Point beyond which the e^(-decay*s) envelope integrates below 1e-17."""
    if decay <= 0:
        raise NonIntegrableError("integrand does not decay on the half-line")
    return max(start + 8.0, math.log(1e17 / decay) / decay)


def _panel_edges(start: float, cutoff: float) -> list[float]:
    edges = [start]
    length = 4.0
    while edges[-1] < cutoff:
        edges.append(min(edges[-1] + length, cutoff))
        length *= 2.0
    return edges


def _integrate_panels(f, edges, budget):
    total = 0.0
    err_sum = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        scale = 1.0 + abs(total)
        value, err = _gauss_panel(f, left, right, 0.25 * REL_TOL * scale, budget)
        total = total + value
        err_sum += err
        small = _TAIL_BREAK * REL_TOL * scale
        if abs(value) < small and err < small:
            break  # geometric envelope: the remaining panels are smaller still
    return total, err_sum


def integrate_finite(f, a: float, b: float) -> QuadResult:
    """Integrate a smooth integrand over the finite interval [a, b]."""
    budget = _Budget()
    value, err = _gauss_panel(f, a, b, REL_TOL, budget)
    return QuadResult(value=float(value), abs_err_estimate=float(err),
                      evaluations=budget.used)


def _half_line(f, start: float, decay: float) -> tuple:
    """Gauss-Legendre panels for f over [start, inf) given an e^(-decay*s)
    tail envelope: the value (complex for a complex-valued f), the
    summed panel differences and the evaluations."""
    budget = _Budget()
    cutoff = _tail_cutoff(decay, start)
    edges = _panel_edges(start, cutoff)
    value, err = _integrate_panels(f, edges, budget)
    return value.item(), err, budget.used


def integrate_half_line(f, start: float, decay: float) -> QuadResult:
    """Integrate f over [start, inf) given an e^(-decay*s) tail envelope;
    a complex-valued f gets a complex value."""
    return _result(*_half_line(f, start, decay))


def _result(value, err, evaluations: int, n: float | None = None) -> QuadResult:
    """The QuadResult of a rule's value and level difference ``err``;
    given n, of the x-domain integral (_x_value), its error scaled alike."""
    err = float(err + 1e-16 * abs(value))
    if n is not None:
        value, err = _x_value(value, n), err / n
    return _frozen(QuadResult, value=value, abs_err_estimate=err, evaluations=evaluations)


def _x_value(value, n):
    """The x-domain integral of an s-domain rule's value or column: scaled
    by the substitution's factor 1/n, and real (the kernel is real for an
    imaginary b, up to the rounding of its complex arithmetic)."""
    return value.real / n


# ---------------------------------------------------------------------------
# nested trapezoid rule over a (rows x nodes) block
#
# Both maps below make an integrand with exponential tails decay double
# exponentially in the node variable t, so the trapezoid rule over a fixed
# t window converges geometrically as h halves (Takahasi & Mori 1974;
# Mori & Sugihara 2001); the integrand is negligible at the window's ends,
# so every node weighs h (the folded sinh map's table carries its own
# weights).
# Every row of a block shares one cached table of t nodes per kernel round
# and only its map's parameters differ, so one kernel call per round
# serves a chunk of rows, and no row's arithmetic depends on the other
# rows.

_MIN_LEVEL = 2  # the first level tested
# The last level of the first kernel round: the round evaluates the whole
# grid of that level at once and tests each level from _MIN_LEVEL on its
# segment sums; every later round adds one level.  Most rows stop by level
# 3 (all 1000 of random_specs(1000, 1) at X = 1), and at these sizes a
# kernel call costs its dispatch more than its nodes (_t_kernel took
# 13.7 us at 85 nodes, 16.7 at 169; one core, numpy 2.4).
_FIRST_ROUND_LEVEL = 3
# Elements per kernel call.  Rows split into chunks of this size, and a
# round of more nodes into slices of it, keep every temporary at 64 KiB:
# at 16 384 elements the kernel took 14 ns per node instead of 5.4, and
# 23.9 at the DE map's 10 752-node last round against 13.3 at 8192 (one
# core, numpy 2.4).
_CHUNK = 8192


class _Map(NamedTuple):
    """A trapezoid map's driver arguments.  ``place(*geometry, *table)``
    gives the kernel's argument at a round's nodes (-|s| for the even
    _t_kernel, s for quad_two_sided's kernel), the weights ds/dt there
    (times a trapezoid weight the table may carry) divided by the row's
    factor, and that factor; ``stage(h0, level)`` the table of the nodes
    of the round ending at ``level``, and its segment starts; h0 the t
    step of level 0; a row open after ``last_level`` has run out."""

    place: Callable
    stage: Callable
    h0: float
    last_level: int


def _grid_stage(lo: float, hi: float, h0: float, level: int) -> tuple[np.ndarray, tuple]:
    """The nodes of the kernel round that ends at ``level`` on the grids
    of step h0/2**level on [lo, hi], and the index where each segment of
    them starts.

    A later round adds the nodes of that grid not on the grid of twice
    the step, as one segment.  The first round, which ends at
    _FIRST_ROUND_LEVEL, holds the whole grid: the grids of the levels
    before _MIN_LEVEL as one segment, then the nodes each tested level
    adds, one segment per level.
    """
    first = level == _FIRST_ROUND_LEVEL
    parts = []
    for lev in range(level + 1) if first else [level]:
        h = h0 / (1 << lev)
        k = np.arange(round((hi - lo) / h) + 1)
        parts.append(lo + h * (k if lev == 0 else k[1::2]))
    nodes = np.concatenate(parts)
    ends = np.cumsum([p.size for p in parts]).tolist()
    return nodes, (0, *ends[_MIN_LEVEL - 1:-1]) if first else (0,)


@functools.cache
def _round_plan(m: _Map, last: int) -> tuple:
    """For the kernel round that ends at level ``last`` of the map m: the
    table of its nodes, the reduceat indices of its segment sums and of
    its magnitude sums (one per tested level, the first level's with the
    coarse grids'), the t steps m.h0/2**L of its tested levels, and 1
    where the coarse grids lead, else 0."""
    *table, starts = m.stage(m.h0, last)
    levels = range(_MIN_LEVEL if last == _FIRST_ROUND_LEVEL else last, last + 1)
    coarse = len(starts) - len(levels)
    bounds = (0, *starts[coarse + 1:])
    return (tuple(table), np.array(starts, dtype=np.intp), np.array(bounds, dtype=np.intp),
            tuple(m.h0 / (1 << lev) for lev in levels), coarse)


def _samples(f, place, geometry, table) -> tuple:
    """The samples w*f at a round's nodes, by slices of at most _CHUNK
    nodes, and the rows' factor; place and kernel work element by
    element, so the slices give the bits of one call."""
    size = table[0].size
    if size <= _CHUNK:
        ns, w, factor = place(*geometry, *table)
        return w * f(ns), factor
    parts = []
    for at in range(0, size, _CHUNK):
        ns, w, factor = place(*geometry, *(t[at:at + _CHUNK] for t in table))
        parts.append(w * f(ns))
    return np.concatenate(parts, axis=-1), factor


def _round_columns(kernel, params, place, geometry, table, starts, bounds) -> tuple:
    """A block's round, by chunks of rows that keep each table of the
    round's samples within _CHUNK elements: per row, the sums of its
    samples over each segment and of their magnitudes over each tested
    level, as (rows x segments) and (rows x levels) tables, and its factor."""
    step = max(1, _CHUNK // table[0].size)
    parts, absums, factors = [], [], []
    for lo in range(0, len(geometry[0]), step):
        g, factor = _samples(kernel(*[c[lo:lo + step] for c in params]), place,
                             [c[lo:lo + step] for c in geometry], table)
        parts.append(np.add.reduceat(g, starts, axis=1))
        absums.append(np.add.reduceat(np.abs(g), bounds, axis=1))
        factors.append(np.ravel(factor))
    return np.concatenate(parts), np.concatenate(absums), np.concatenate(factors)


def _round_sums(f, place, geometry, table, starts, bounds) -> tuple:
    """A lone row's round of the kernel f, sampled in one piece: its sums
    (see _round_columns) as lists, and its factor."""
    g, factor = _samples(f, place, geometry, table)
    return np.add.reduceat(g, starts).tolist(), np.add.reduceat(np.abs(g), bounds).tolist(), factor


def _passes(h, err, value, mass, absolute, finite):
    """A level's stopping test, h its step times the row's factor: err =
    |S_h - S_2h| <= max(REL_TOL/4*(1 + |S_h|), _ROUNDOFF_FLOOR*h*mass), h*mass
    the rule's sum for the integrand's magnitude, err and S_h = value finite.
    One expression on a lone row's Python floats (abs, cmath.isfinite) and
    on a block's columns (_modulus, np.isfinite)."""
    return (((err <= 0.25 * REL_TOL * (1.0 + absolute(value)))
             | (err <= _ROUNDOFF_FLOOR * h * mass)) & finite(err) & finite(value))


def _modulus(z: np.ndarray) -> np.ndarray:
    """Python's abs of each entry of a float or complex column: libm's
    hypot, which np.abs on complex128 is not in the last bit."""
    return np.hypot(z.real, z.imag) if z.dtype.kind == "c" else np.abs(z)


def _exhausted(used: int) -> BudgetExceededError:
    """The error of a row still open after the last level."""
    return BudgetExceededError(f"trapezoid levels exhausted after {used} "
                               f"evaluations without reaching tolerance")


@np.errstate(all="ignore")  # inf or NaN sums stay quiet: the stopping test refuses them
def _trapezoid_rows(m: _Map, kernel, params, geometry) -> tuple:
    """The trapezoid rule on nested halvings of h for a lone row.

    The row integrates kernel(*params) over its map's s-range, in kernel
    rounds of the map ``m``: the first ends at level _FIRST_ROUND_LEVEL and
    each later one a level further; the t step of level L is m.h0/2**L,
    and _round_plan holds each round's table of nodes from m.stage.
    ``params`` and ``geometry``, the row's arguments of m.place, are the
    row's values: its kernel, built once, gets 1-D arrays, and its
    stopping test runs on Python floats.  A block of rows runs
    _trapezoid_columns, bit for bit as each row alone.

    The row stops at the first level from _MIN_LEVEL on that _passes, and
    returns (S_h, |S_h - S_2h|, evaluations), counting the kernel's
    samples up to its last round; a row still open after m.last_level
    raises _exhausted's BudgetExceededError.
    """
    f = kernel(*params)
    total, mass, used = 0.0, 0.0, 0
    for last in range(_FIRST_ROUND_LEVEL, m.last_level + 1):
        table, starts, bounds, steps, coarse = _round_plan(m, last)
        used += table[0].size
        parts, absums, factor = _round_sums(f, m.place, geometry, table, starts, bounds)
        if coarse:
            total = parts[0]
        for h, new, absum in zip(steps, parts[coarse:], absums):
            h *= factor  # each sample weighs h*factor*w
            err = abs(new - total) * h  # S_h - S_2h: the new nodes against the old
            total += new
            mass += absum
            value = total * h
            if _passes(h, err, value, mass, abs, cmath.isfinite):
                return value, err, used
    raise _exhausted(used)


@np.errstate(all="ignore")
def _trapezoid_columns(m: _Map, kernel, params, geometry) -> tuple:
    """_trapezoid_rows for a block, whose params and geometry are per-row
    columns of shape (rows, 1), as columns: per row S_h, |S_h - S_2h|,
    the evaluations and whether it stopped (if not, the evaluations that
    _exhausted reports).  Each round runs _passes once per tested level on
    the columns of the rows still open, with the lone row's operations."""
    rows = len(geometry[0])
    err, used, done = np.zeros(rows), np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=bool)
    left, spent = np.arange(rows), 0
    for last in range(_FIRST_ROUND_LEVEL, m.last_level + 1):
        table, starts, bounds, steps, coarse = _round_plan(m, last)
        spent += table[0].size
        parts, absums, factor = _round_columns(kernel, params, m.place, geometry, table, starts,
                                               bounds)
        if coarse:
            total, mass, value = parts[:, 0], 0.0, np.zeros(rows, dtype=parts.dtype)
        stop = np.zeros(len(left), dtype=bool)
        for h, new, absum in zip(steps, parts.T[coarse:], absums.T):
            h = h * factor
            e = _modulus(new - total) * h
            total, mass = total + new, mass + absum
            v = total * h
            now = _passes(h, e, v, mass, _modulus, np.isfinite) & ~stop
            at = left[now]
            value[at], err[at], used[at] = v[now], e[now], spent
            stop |= now
        done[left[stop]] = True
        if stop.all():
            break
        if stop.any():
            keep = ~stop
            left, total, mass = left[keep], total[keep], mass[keep]
            params, geometry = [c[keep] for c in params], [c[keep] for c in geometry]
    used[~done] = spent
    return value, err, used, done


# ---------------------------------------------------------------------------
# double-exponential half-line map for _t_kernel integrands
#
# s = s_X + exp(t - e^(-t))/lam maps the t-line onto (s_X, inf) and
# clusters the nodes double exponentially at s_X.  It serves the ranges
# with s_X > 0, which leave the kernel's peak at s = 0 outside; a range
# from s = 0 goes to the folded sinh map below.

_DE_TMIN = -6.0  # s - s_X is about 1e-178/lam here
_DE_TMAX = 4.5  # the e^(-lam*(s - s_X)) envelope is below 1e-38 here


def _de_stage(h0: float, level: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Offsets lam*(s - s_X) and weights lam*ds/dt of the nodes of the
    kernel round ending at ``level`` on t in [_DE_TMIN, _DE_TMAX], and
    their segment starts."""
    t, starts = _grid_stage(_DE_TMIN, _DE_TMAX, h0, level)
    em = np.exp(-t)
    u = np.exp(t - em)
    return u, (1.0 + em) * u, starts


def _de_place(ns_x, lam, u, w):
    # -s = -s_X - u/lam exactly: IEEE negation commutes with rounding
    return ns_x - u / lam, w, 1.0 / lam


# the even kernel over [s_X, inf), of geometry (-s_X, lam)
_DE = _Map(_de_place, _de_stage, 0.5, 10)


# ---------------------------------------------------------------------------
# sinh map over the real line, and folded at s = 0
#
# s = eps*sinh(U*tau) for tau in [-1, 1], with U putting the window's ends
# where the tails are below 1e-17 (_sinh_span); level 0 has 16 intervals.
# A kernel that peaks at s = 0 with width eps < 1 (theta near 0 or 2*pi)
# gets nodes about eps*U*h apart there: the nearly-singular sinh
# transformation of Johnston & Elliott (Int. J. Numer. Meth. Engng 62,
# 2005).  At eps = 1 every product with eps is exact, so such a row is
# the unscaled map's bit for bit.
#
# An even kernel's integral over [0, inf) is the same trapezoid sum over
# tau in [0, 1] with the node at tau = 0 weighted 1/2: the folded map,
# whose stage table carries that weight as a column.  Its steps are half
# the full line's, so a level has as many nodes on [0, 1] as the full
# line's on [-1, 1].  Over the whole line the map is odd in tau and the
# kernel even in s, so the even kernel's sum is the folded one at the
# full line's steps, with the node at tau = 0 weighted 1 and every other
# node 2: the kernel runs once per |s|.


def _folded_stage(h0: float, level: int, line: bool = False) -> tuple:
    """Unit offsets tau in [0, 1] of the nodes of the folded map's kernel
    round ending at ``level``, their trapezoid weights and their segment
    starts: weights 1/2 at tau = 0 and 1 elsewhere, or, for the whole
    ``line``, 1 and 2."""
    edge = 1.0 if line else 0.5
    tau, starts = _grid_stage(0.0, 1.0, h0, level)
    return tau, np.where(tau == 0.0, edge, 2.0 * edge), starts


def _sinh_place(scale, span, tau):
    """s itself, for quad_two_sided's kernel, which is not even."""
    u = span * tau
    return scale * np.sinh(u), np.cosh(u), scale * span


def _folded_place(scale, span, tau, weight):
    # tau >= 0, so -s = (-scale)*sinh(u) exactly
    u = span * tau
    return (-scale) * np.sinh(u), weight * np.cosh(u), scale * span


# The sinh maps, of geometry (scale, span).  10 levels make 16 385
# evaluations at most (8193 on the whole line): the deepest round's 8192
# new nodes fit one _CHUNK.  Served rows need at most 2049 (theta down to
# 1e-16 from either edge, |b| up to 0.999).
# quad_two_sided's kernel, which is not even, at every node tau in [-1, 1]:
_TWO_SIDED = _Map(_sinh_place, functools.partial(_grid_stage, -1.0, 1.0), 0.125, 10)
# the even kernel over the real line: the folded rule at the whole line's
# steps and weights, 65 kernel samples in the first round
_LINE = _Map(_folded_place, functools.partial(_folded_stage, line=True), 0.125, 10)
# the even kernel over [0, inf), at half the whole line's steps
_FOLDED = _Map(_folded_place, _folded_stage, 0.0625, 10)


def _sinh_span(cutoff: float, scale: float) -> float:
    """Half-width U of the u-range of the map s = scale*sinh(u) for tails
    that _tail_cutoff puts below 1e-17 past |s| = cutoff."""
    return math.asinh(cutoff / scale) + 0.5


def _t_sinh_geometry(theta: float, decay: float) -> tuple[float, float]:
    """The sinh map's (scale, span) for _t_kernel at this theta and tail
    decay rate: the scale is the width min(theta, 2*pi - theta) of the
    kernel's peak at s = 0, capped at 1.

    It is taken from theta itself: sin(theta/2)**2 underflows to 0 below
    theta = 1e-162.
    """
    scale = min(1.0, theta, 2.0 * math.pi - theta)
    return scale, _sinh_span(_tail_cutoff(decay), scale)


# ---------------------------------------------------------------------------
# kernels


def _t_kernel(beta, sin2_zeta: float, sin2_half):
    """(cosh(beta*s) - cos(zeta)) / (cosh(s) - cos(theta)) as a
    vectorized callable of ns = -|s|, which the maps' places give.

    ``beta`` is |b| for a real b (the kernel is even in b; Re beta >= 0
    keeps expm1(-beta*|s|) finite far out) or the complex b = i*q/n.
    Both sides are divided by e^|s|/2 so the hyperbolic cosines never
    overflow, and neither cancels: the numerator is written exactly as
    (e^(-(1-beta)|s|/2)*expm1(-beta|s|))**2 + 4*sin2_zeta*e^(-|s|), not
    as e^(-(1-b)|s|) + e^(-(1+b)|s|) - 2*cos(zeta)*e^(-|s|), which
    cancels to zeta**2 near s = 0, and the denominator as
    expm1(-|s|)**2 + 4*sin2_half*e^(-|s|), not 1 + e^(-2s) -
    2*cos(theta)*e^(-s), which cancels when s and theta (or 2*pi - theta)
    are both small; sin2_zeta and sin2_half are sin(zeta/2)**2 and
    sin(theta/2)**2.  e^(-|s|) keeps its own exp: as 1 + expm1(-|s|) it
    would be exact only to an ulp of 1, which swamps a kernel of size
    e^(-s_X) when the range starts far out (X**n tiny).  The kernel is
    even in s, so -|s| may replace -s throughout.  Its factors of ns and
    em are taken once, and its products and sums in place: the same bits.
    """

    half_decay, zeta_4, half_4 = 0.5 * (1.0 - beta), 4.0 * sin2_zeta, 4.0 * sin2_half

    def f(ns: np.ndarray):
        x = np.expm1(ns)
        em = np.exp(ns)
        y = np.exp(half_decay * ns)
        y *= np.expm1(beta * ns)
        y *= y
        y += zeta_4 * em  # y*y + zeta_4*em
        x *= x
        den = half_4 * em
        den += x  # x*x + half_4*em: IEEE addition commutes
        return y / den

    return f


def _two_sided_kernel(b: float, cos2_half_4: float):
    """e^(b*t) / (cosh(t) + cos(a)) as a vectorized callable of t, given
    cos2_half_4 = 4*cos(a/2)**2, its denominator written as _t_kernel's,
    which does not cancel when |t| and pi - |a| are both small."""

    def f(t: np.ndarray):
        ns = -np.abs(t)
        x = np.expm1(ns)
        return 2.0 * np.exp(b * t + ns) / (x * x + cos2_half_4 * np.exp(ns))

    return f


def _require_integrable(spec: IntegrandSpec) -> None:
    """Refuse a spec whose domain class is not Valid or Boundary-a."""
    status = classify_domain(spec)
    if status.kind not in (DomainKind.VALID, DomainKind.BOUNDARY_A):
        raise DomainError(f"spec not integrable as given: {status.detail}")


# the upper limits X that each rule of quad_x_domain takes
_X_RANGE = {"tanh-sinh": "(0, 1] or be inf", "gauss": "(0, 1]"}


def _x_kernel_args(spec: IntegrandSpec, X: float):
    """Check a spec for the x-domain oracles and return its kernel arguments.

    ``X`` is the upper limit, in (0, 1] or inf for the range (0, inf).
    Returns (beta, sin2_zeta, sin2_half, s_X, decay): the _t_kernel
    arguments, the lower end s_X = -n*log(X) of the s-range (-inf on the
    whole line) and the kernel's tail decay rate.  beta is |p|/n for a
    real p and the complex b = i*q/n for p = i*q, whose tails decay as
    e^(-s); a p with both parts nonzero raises DomainError.
    """
    if not _valid_upper(X):
        raise ValueError(f"X must lie in {_X_RANGE['tanh-sinh']}, got {X}")
    p = spec.p
    if p.real != 0.0 and p.imag != 0.0:
        raise DomainError("p must be real or purely imaginary here")
    if abs(p.real) >= spec.n:
        where = "an endpoint" if X == math.inf else "the lower endpoint"
        raise NonIntegrableError(
            f"|p| = {abs(p.real)} >= n = {spec.n}: divergent at {where}"
        )
    # with |Re p| < n, classify_domain refuses exactly a theta outside (0, 2*pi)
    if not _inside_turn(spec.theta):
        _require_integrable(spec)
    beta = abs(p.real) / spec.n
    decay = 1.0 - beta
    if p.imag != 0.0:
        beta = _imaginary_b(p.imag, spec.n)  # the tails decay as e^(-s)
    s_x = -spec.n * math.log(X)
    return beta, math.sin(0.5 * spec.zeta) ** 2, math.sin(0.5 * spec.theta) ** 2, s_x, decay


def _x_rule(spec: IntegrandSpec, X: float) -> tuple:
    """(map, _t_kernel arguments, geometry) of the x-domain integral from
    0 to X, X in (0, 1] or inf: the one-row place that picks a range's
    map, by the tests on s_X that _x_domain_columns makes on columns.
    Raises what _x_kernel_args raises."""
    *params, s_x, decay = _x_kernel_args(spec, X)
    if s_x > 0.0:  # s_X > 0 leaves the kernel's peak at s = 0 outside
        return _DE, params, (-s_x, decay)
    # the whole line (s_X = -inf), or [0, inf) folded at the kernel's peak
    return _LINE if s_x == -math.inf else _FOLDED, params, _t_sinh_geometry(spec.theta, decay)


# ---------------------------------------------------------------------------
# public oracle operations


def quad_x_domain(spec: IntegrandSpec, X: float = 1.0, *,
                  rule: str = "tanh-sinh") -> QuadResult:
    """Oracle for the x-domain integral from 0 to X (0 < X <= 1, or inf).

    Substituting x**n = exp(-s) maps the range to [s_X, inf) with
    s_X = -n*log(X), or to the whole line for X = inf, and integrand
    (cosh(b*s) - cos(zeta)) / (cosh(s) - cos(theta)) / n, which has no
    endpoint singularity; b = p/n is real, or i*q/n for p = i*q
    (cosh(b*s) = cos(q*s/n)), and the value is real either way.
    ``rule="tanh-sinh"`` integrates it on _x_rule's map: _LINE for X = inf,
    _FOLDED for X = 1, whose nodes resolve the kernel's peak at s = 0, _DE
    for s_X > 0.  _LINE is the folded rule at twice the X = 1 steps and
    weights, so the X = inf value is no check independent of X = 1's;
    ``rule="gauss"`` integrates it with Gauss-Legendre panels, for X in
    (0, 1].  _x_domain_columns is its block form.
    """
    if rule not in _X_RANGE:
        raise ValueError(f"unknown rule {rule!r}: expected 'tanh-sinh' or 'gauss'")
    if X is None or rule == "gauss" and not 0.0 < X <= 1.0:  # the panels take (0, 1] only
        raise ValueError(f"X must lie in {_X_RANGE[rule]}, got {X}")
    if rule == "tanh-sinh":
        m, params, geometry = _x_rule(spec, X)
        return _result(*_trapezoid_rows(m, _t_kernel, params, geometry), spec.n)
    beta, sin2_zeta, sin2_half, s_x, decay = _x_kernel_args(spec, X)
    f = _t_kernel(beta, sin2_zeta, sin2_half)
    return _result(*_half_line(lambda s: f(-s), s_x, decay), spec.n)  # nodes s > 0


@np.errstate(all="ignore")  # a row that did not stop
def _x_domain_columns(n, p, q, theta, zeta, upper) -> tuple:
    """quad_x_domain(spec, X) for rows of floats given as columns, p and q
    the real and imaginary parts of the spec's p and upper its X: the rows
    that _x_rule serves (_x_served; quad_x_domain raises for the others),
    and the columns of their QuadResult fields (value, abs_err_estimate,
    evaluations), as _result scales them, and of whether each stopped
    (if not, quad_x_domain raises _exhausted at those evaluations).  A
    row's fields are quad_x_domain's bits, whatever the other rows.  The
    rows run as one block per map, picked by _x_rule's tests, and kind of
    p: a complex beta column would round the real rows differently."""
    served = np.flatnonzero(_x_served(n, p, q, theta, upper))
    n, q = n[served], q[served]
    beta, sin2_zeta, sin2_half, s_x, decay, scale, span = _x_columns(
        n, p[served], theta[served], zeta[served], upper[served])
    value, err = np.zeros((2, len(served)))
    evaluations, done = np.zeros(len(served), dtype=np.intp), np.zeros(len(served), dtype=bool)
    imaginary = q != 0.0
    for kind in (False, True) if imaginary.any() else (False,):
        if kind:
            beta = np.array(list(map(_imaginary_b, q.tolist(), n.tolist())))
        for m, on_map, geometry in ((_LINE, s_x == -math.inf, (scale, span)),
                                    (_FOLDED, s_x == 0.0, (scale, span)),
                                    (_DE, s_x > 0.0, (-s_x, decay))):
            rows = np.flatnonzero(on_map & (imaginary == kind))
            if len(rows):
                v, e, evaluations[rows], done[rows] = _trapezoid_columns(
                    m, _t_kernel, [c[rows, None] for c in (beta, sin2_zeta, sin2_half)],
                    [c[rows, None] for c in geometry])
                value[rows], err[rows] = _x_value(v, n[rows]), (e + 1e-16 * _modulus(v)) / n[rows]
    return served, value, err, evaluations, done


def _x_served(n, p, q, theta, upper):
    """The rows of columns that _x_rule serves, as a mask; q is Im p."""
    return ((p == 0.0) | (q == 0.0)) & (np.abs(p) < n) & _inside_turn(theta) & _valid_upper(upper)


def _imaginary_b(q: float, n: float) -> complex:
    """The kernel's b = i*q/n for p = i*q: cos(q*s/n) = cosh(b*s)."""
    return 1j * q / n


def _x_columns(n, p, theta, zeta, upper) -> tuple:
    """_x_rule's values for rows of floats given as columns that _x_served
    admits, p real (the real part 0 of an imaginary one): the columns
    beta = |p|/n, sin2_zeta and sin2_half of the _t_kernel arguments,
    s_X = -n*log(X), -inf on the whole line, the tail decay rate, and the
    sinh map's scale and span (NaN on the DE map's rows, s_X > 0, whose
    geometry is (-s_X, decay)).

    Each is the scalar's IEEE operation in its order.  numpy's sin and
    cos are libm's on these arguments, but its arcsinh and its square are
    not always, so the squares, logs and arcsinh are taken per row on
    Python floats, as _x_rule takes them.
    """
    beta = np.abs(p) / n
    decay = 1.0 - beta
    sin2_zeta, sin2_half = (_per_row(pow, np.sin(0.5 * angle), itertools.repeat(2))  # s ** 2
                            for angle in (zeta, theta))
    s_x = -n * _per_row(math.log, upper)
    scale = np.minimum(np.minimum(1.0, theta), 2.0 * math.pi - theta)
    span = np.full(len(n), math.nan)
    line = np.flatnonzero(s_x <= 0.0)  # the whole line (-inf) or [0, inf) (-0.0)
    if len(line):
        d = decay[line]
        cutoff = np.maximum(8.0, _per_row(math.log, 1e17 / d) / d)
        with np.errstate(over="ignore"):  # inf at theta = 5e-324, as the scalar's is
            ratio = cutoff / scale[line]
        span[line] = _per_row(math.asinh, ratio) + 0.5
    return beta, sin2_zeta, sin2_half, s_x, decay, scale, span


def _per_row(f, column, *args):
    """f(x, *args) for each x of a float column, on Python floats."""
    return np.fromiter(map(f, column.tolist(), *args), float, len(column))


def quad_x_domain_infinite(spec: IntegrandSpec) -> QuadResult:
    """The integral over (0, inf), whatever spec.upper is: quad_x_domain at inf."""
    return quad_x_domain(spec, math.inf)


def quad_t_domain(a, b, c: float) -> QuadResult:
    """Oracle for integral of (cosh(b*t) + cos(c)) / (cosh(t) + cos(a)) on [0, inf).

    ``a`` and ``b`` may be complex (|Re a| < pi, |Re b| < 1); the kernel
    is then complex-valued and so is the returned value.  The kernel is
    even in t and peaks at t = 0 with width pi - |Re a|, which sets the
    scale of its folded sinh map.
    """
    a = complex(a)
    b = complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise DomainError(f"a and b must be finite, got a = {a}, b = {b}")
    if not abs(a.real) < math.pi:
        raise DomainError(f"|Re a| = {abs(a.real)} must be < pi")
    if not abs(b.real) < 1.0:
        raise DomainError(f"|Re b| = {abs(b.real)} must be < 1")
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    if a.imag == 0.0:
        a = a.real
    if b.imag == 0.0:
        b = b.real
    if b.real < 0.0:  # the kernel is even in b; _t_kernel takes Re b >= 0
        b = -b
    # theta = pi - a and zeta = pi - c: sin(theta/2) = cos(a/2), sin(zeta/2) =
    # cos(c/2), and the scale min(1, theta, 2*pi - theta) is min(1, pi - |Re a|)
    return _result(*_trapezoid_rows(
        _FOLDED, _t_kernel, [b, math.cos(0.5 * c) ** 2, np.cos(0.5 * a) ** 2],
        _t_sinh_geometry(math.pi - abs(a.real), 1.0 - abs(b.real))))


def quad_two_sided(a: float, b: float) -> QuadResult:
    """Oracle for integral of e^(b*t) / (cosh(t) + cos(a)) over the real line.

    The sinh map samples the kernel, which is not even, at every node of
    the whole line: a construction independent of the folded rules.
    """
    if not 0.0 < abs(a) < math.pi:
        raise DomainError(f"a must satisfy 0 < |a| < pi, got {a}")
    if not abs(b) < 1.0:
        raise DomainError(f"|b| = {abs(b)} must be < 1")
    scale = min(1.0, math.pi - abs(a))  # the kernel peaks at t = 0 with width pi - |a|
    span = _sinh_span(max(_tail_cutoff(1.0 - b), _tail_cutoff(1.0 + b)), scale)
    return _result(*_trapezoid_rows(_TWO_SIDED, _two_sided_kernel,
                                    [b, 4.0 * math.cos(0.5 * a) ** 2], (scale, span)))


def quad_cos_log(spec: IntegrandSpec) -> QuadResult:
    """Oracle for the cos(q*log x) numerator (p = i*q), honoring spec.upper.

    In the s-domain the integrand becomes cos(q*s/n) / (2*(cosh s -
    cos theta)) / n, and cos(q*s/n) = cosh(b*s) for b = i*q/n: it is
    _t_kernel(b, 1/2, sin(theta/2)**2) / (2*n) (zeta = pi/2), on quad_x_domain's map: the
    sinh map folded at s = 0 for upper 1, and the sinh map over the whole
    line for upper infinity, which is the folded rule at twice the steps
    (so not independent of upper 1).
    """
    p = complex(spec.p)
    if p.real != 0.0:
        raise DomainError("quad_cos_log needs a purely imaginary p = i*q")
    _require_integrable(spec)
    if not _summed_upper(spec.upper):
        raise ValueError("upper must be 1 or infinity for this oracle")
    m, (_, _, sin2_half), geometry = _x_rule(spec, spec.upper)  # decay 1
    b = _imaginary_b(p.imag, spec.n)  # complex at q = 0 too, as _x_kernel_args' b is not
    # the kernel is real for an imaginary b: _x_value keeps its real part
    return _result(*_trapezoid_rows(m, _t_kernel, [b, 0.5, sin2_half], geometry), 2.0 * spec.n)


def quad_sec_antiderivative_check(m: float, Z: float) -> tuple[float, float]:
    """Quadrature of m/cos(m*z) on [0, Z] vs its log-tangent antiderivative.

    Returns (quadrature value, -log(tan(pi/4 - m*Z/2))).  Both sides are
    finite only left of the first secant pole, so m*Z must stay below
    pi/2 by at least 1e-3.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if not m * Z < 0.5 * math.pi - 1e-3:
        raise PoleTooCloseError(
            f"m*Z = {m * Z} is within 1e-3 of the secant pole at pi/2"
        )
    if Z < 0:
        raise ValueError("Z must be nonnegative")

    def kernel(z: np.ndarray) -> np.ndarray:
        return m / np.cos(m * z)

    if Z == 0.0:
        return 0.0, 0.0
    res = integrate_finite(kernel, 0.0, Z)
    closed = -math.log(math.tan(0.25 * math.pi - 0.5 * m * Z))
    return float(res.value), closed
