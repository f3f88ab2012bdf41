"""Independent numerical oracle for every integral evaluated in closed form.

Two unrelated rule families are provided so the oracle can be checked
against itself:

* double-exponential rules for the family's own kernel (_t_kernel): one
  DE map per half-line, s = s_X + exp(t - e^(-t))/lam with lam the
  kernel's tail decay rate, summed by the trapezoid rule on nested
  halvings of h; a sinh-map trapezoid rule for every integral over the
  whole real line (quad_x_domain_infinite, quad_two_sided, and
  quad_cos_log at an infinite upper limit);
* a doubling-panel Gauss-Legendre rule on geometrically growing panels
  for every other integrand (integrate_finite, integrate_half_line) and
  as the independent check of the DE map (quad_x_domain's rule="gauss").
  Its nodes never touch a panel end, so a kernel that is 0/0 at the
  start of its range is safe.

All x-domain integrals are transformed with x**n = exp(-s) before any
rule sees them, so the x -> 0 endpoint behaviour x**(n-|p|-1) never
reaches a node, and the kernels' denominators are written so that they
do not cancel near theta = 0 or 2*pi (a = pi for quad_two_sided).
Refinement stops at 1e-13 relative accuracy; running out of DE levels,
of sinh-map refinements, of panel doublings or of the panel budget (2e6
evaluations per call) raises instead of returning a degraded value.

Sums run in a fixed order, so results are bit-identical across runs.
The DE map and the sinh map each have one driver over a (rows x nodes)
block: quad_x_domain_many and quad_x_domain_infinite_many run many specs
as one block and return, bit for bit, what quad_x_domain and
quad_x_domain_infinite, their one-row calls, return for each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetExceededError,
    CoshintError,
    DomainError,
    NonIntegrableError,
    PoleTooCloseError,
)
from .params import DomainKind, IntegrandSpec, classify_domain

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

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(order: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    cached = _gl_cache.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _gl_cache[order] = cached
    return cached


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


def _panel_edges(start: float, cutoff: float, first: float = 4.0) -> list[float]:
    edges = [start]
    length = first
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


def integrate_half_line(f, start: float, decay: float) -> QuadResult:
    """Integrate f over [start, inf) given an e^(-decay*s) tail envelope."""
    budget = _Budget()
    cutoff = _tail_cutoff(decay, start)
    edges = _panel_edges(start, cutoff)
    value, err = _integrate_panels(f, edges, budget)
    return _half_line_result(float(value), err, budget.used)


def _half_line_result(value, err, evaluations: int) -> QuadResult:
    return QuadResult(value=value, abs_err_estimate=float(err + 1e-16 * abs(value)),
                      evaluations=evaluations)


def _one_row(results: list[QuadResult | BudgetExceededError]) -> QuadResult:
    """The result of a block driver's one row, or its error raised."""
    (res,) = results
    if isinstance(res, BudgetExceededError):
        raise res
    return res


# ---------------------------------------------------------------------------
# double-exponential half-line rule for _t_kernel integrands
#
# s = s_X + exp(t - e^(-t))/lam maps the t-line onto (s_X, inf): an
# integrand decaying like e^(-lam*s) then decays double exponentially in t
# at both ends, and the nodes cluster double exponentially at s_X, where
# a near-edge kernel peaks (Takahasi & Mori 1974; Mori & Sugihara 2001).
# The trapezoid rule runs over a fixed t window on nested halvings of h.
# Every row of a block shares the t nodes, so one kernel call per level
# serves all rows, and no row's arithmetic depends on the other rows.

_DE_TMIN = -6.0  # s - s_X is about 1e-178/lam here
_DE_TMAX = 4.5  # the e^(-lam*(s - s_X)) envelope is below 1e-38 here
_DE_H0 = 0.5
_DE_MIN_LEVEL = 2
_DE_MAX_LEVEL = 10

_de_cache: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}


def _de_stage(level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Offsets lam*(s - s_X), weights lam*ds/dt and split of the nodes `level` adds.

    The levels before _DE_MIN_LEVEL, which every row runs, come with it:
    they are its first ``split`` nodes.
    """
    cached = _de_cache.get(level)
    if cached is None:
        parts = []
        for lev in range(level + 1) if level == _DE_MIN_LEVEL else [level]:
            h = _DE_H0 / (1 << lev)
            k = np.arange(round((_DE_TMAX - _DE_TMIN) / h) + 1)
            parts.append(_DE_TMIN + h * (k if lev == 0 else k[1::2]))
        t = np.concatenate(parts)
        em = np.exp(-t)
        u = np.exp(t - em)
        cached = _de_cache[level] = (u, (1.0 + em) * u, t.size - parts[-1].size)
    return cached


def _de_sums(cols, u, w, split: int):
    """Per-row sums of w*f over the nodes before and after split, and of |w*f|.

    The kernel sees the rows in chunks: no call holds more elements than
    one row's deepest level.
    """
    b, cos_c, sin2_half, s_x, lam = cols
    step = max(1, _de_stage(_DE_MAX_LEVEL)[0].size // u.size)
    parts = []
    for lo in range(0, len(b), step):
        rows = slice(lo, lo + step)
        f = _t_kernel(b[rows], cos_c[rows], sin2_half[rows])
        samples = w * f(s_x[rows] + u / lam[rows])
        parts.append((samples[:, :split].sum(axis=1), samples[:, split:].sum(axis=1),
                      np.abs(samples).sum(axis=1)))
    return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]


def _de_half_lines(b, cos_c, sin2_half, s_x, lam) -> list[QuadResult | BudgetExceededError]:
    """The DE rule for _t_kernel(b[r], cos_c[r], sin2_half[r]) on [s_x[r], inf).

    Row r stops at the first level from _DE_MIN_LEVEL on where |S_h - S_2h|
    <= max(REL_TOL/4*(1 + |S_h|), _ROUNDOFF_FLOOR*mass), and gets its
    s-domain QuadResult; a row whose levels run out gets a
    BudgetExceededError.  A block returns bit for bit what each row does alone.
    """
    out: list[QuadResult | BudgetExceededError | None] = [None] * len(b)
    left = np.arange(len(b))
    cols = [np.asarray(v)[:, None] for v in (b, cos_c, sin2_half, s_x, lam)]
    used = 0
    # a kernel too large or too peaked to sample gives inf or NaN sums,
    # which never pass the stopping test
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level in range(_DE_MIN_LEVEL, _DE_MAX_LEVEL + 1):
            u, w, split = _de_stage(level)
            used += u.size
            head, body, absum = _de_sums(cols, u, w, split)
            inv_lam = 1.0 / cols[4][:, 0]
            if level == _DE_MIN_LEVEL:
                total, mass = head, 0.0
            # S_h - S_2h = h*(body - total)/lam: the new nodes against the old
            scale = (_DE_H0 / (1 << level)) * inv_lam
            err = np.abs(body - total) * scale
            total = total + body
            mass = mass + absum
            value = total * scale
            keep = ~(err <= np.maximum(0.25 * REL_TOL * (1.0 + np.abs(value)),
                                       _ROUNDOFF_FLOOR * mass * scale))
            for i in np.flatnonzero(~keep):
                out[left[i]] = _half_line_result(value[i].item(), err[i], used)
            if not keep.all():
                left, total, mass = left[keep], total[keep], mass[keep]
                cols = [c[keep] for c in cols]
            if not left.size:
                return out
    for r in left:
        out[r] = BudgetExceededError(f"double-exponential levels exhausted after "
                                     f"{used} evaluations without reaching tolerance")
    return out


def _de_half_line(b, cos_c, sin2_half, s_x: float, lam: float) -> QuadResult:
    """_de_half_lines for one row: its result, or its error raised."""
    cols = (np.array([v]) for v in (b, cos_c, sin2_half, s_x, lam))
    return _one_row(_de_half_lines(*cols))


# ---------------------------------------------------------------------------
# sinh-map trapezoid rule over the real line
#
# s = sinh(u) makes an integrand with exponential tails decay double
# exponentially in u, so the plain trapezoid rule on u in [-U, U]
# converges geometrically.  Level 0 is 17 equally spaced nodes, and each
# refinement adds the midpoints.  Row r's nodes are U_r times one cached
# table of unit offsets, so one kernel call per level serves a chunk of
# rows, and no row's arithmetic depends on the other rows.

_SINH_N0 = 16  # intervals of level 0
_SINH_LEVELS = 12  # refinements: 65 537 evaluations at most
_SINH_FIRST = 2  # refinements sampled together with level 0
# Elements per kernel call of a block.  Rows split into chunks of this
# size keep every temporary at 64 KiB: at 16 384 elements the kernel took
# 14 ns per node instead of 5.4 (one core, numpy 2.4).  A row's level is
# never split, so one call holds at most a row's deepest level.
_SINH_CHUNK = 8192

_sinh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _sinh_stage(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit offsets tau in [-1, 1] of the nodes refinement `level` adds,
    and the index where each of its segments starts.

    The levels before _SINH_FIRST, which every row runs, come with it as
    its leading segments, level 0 as two: its end nodes -1 and 1, then
    its 15 inner nodes.
    """
    cached = _sinh_cache.get(level)
    if cached is None:
        parts = []
        for lev in range(level + 1) if level == _SINH_FIRST else [level]:
            if lev == 0:
                grid = np.linspace(-1.0, 1.0, _SINH_N0 + 1)
                parts += [grid[[0, -1]], grid[1:-1]]
            else:
                m = _SINH_N0 << (lev - 1)
                parts.append((2.0 * np.arange(m) + 1.0) / m - 1.0)
        starts = np.cumsum([0] + [p.size for p in parts[:-1]])
        cached = _sinh_cache[level] = (np.concatenate(parts), starts)
    return cached


def _sinh_sums(kernel, cols, span, tau, starts) -> list[tuple[list[float], list[float]]]:
    """Per row, the sums of g = f(sinh(u))*cosh(u) at u = span*tau over
    each segment, and the same sums of |g|.

    ``f = kernel(*cols)`` for the rows' parameter columns, called on the
    rows in chunks of _SINH_CHUNK elements, or on one row at a time where
    a level holds more nodes.
    """
    step = max(1, _SINH_CHUNK // tau.size)
    if len(span) <= step:
        chunks = [(span, cols)]
    else:
        chunks = [(span[lo:lo + step], [c[lo:lo + step] for c in cols])
                  for lo in range(0, len(span), step)]
    out = []
    for part, params in chunks:
        u = part * tau
        g = kernel(*params)(np.sinh(u)) * np.cosh(u)
        out += zip(np.add.reduceat(g, starts, axis=1).tolist(),
                   np.add.reduceat(np.abs(g), starts, axis=1).tolist())
    return out


def _sinh_lines(kernel, cols, big_u) -> list[QuadResult | BudgetExceededError]:
    """The sinh-map rule for each row of kernel(*cols) over the real line.

    ``cols`` are per-row parameter columns of shape (rows, 1), or for a
    single row the parameters themselves, and row r samples u in
    [-big_u[r], big_u[r]].  Row r stops at the first refinement where
    |S_h - S_2h| <= max(REL_TOL*(1 + |S_h|), _ROUNDOFF_FLOOR*mass*h) and
    gets a QuadResult whose evaluations count the nodes of the levels the
    rule needed (the first kernel call samples levels 0.._SINH_FIRST for
    every row); a row whose refinements run out gets a
    BudgetExceededError.  The test runs on Python floats, which round as
    float64 does, and a block returns bit for bit what each row does alone.
    """
    out: list[QuadResult | BudgetExceededError | None] = [None] * len(big_u)
    left = list(range(len(big_u)))
    span = np.asarray(big_u, dtype=float)[:, None]
    widths = span[:, 0].tolist()
    state = []  # per row left: trapezoid sum, absolute mass, step h, last value
    for level in range(_SINH_FIRST, _SINH_LEVELS + 1):
        tau, starts = _sinh_stage(level)
        keep, kept = [], []
        for i, (sums, abs_sums) in enumerate(_sinh_sums(kernel, cols, span, tau, starts)):
            if level == _SINH_FIRST:  # level 0 weighs its two end nodes by 1/2
                ends, inner, *sums = sums
                abs_ends, abs_inner, *abs_sums = abs_sums
                total, mass = inner + 0.5 * ends, abs_ends + abs_inner
                h = 2.0 * widths[i] / _SINH_N0
                prev = total * h
            else:
                total, mass, h, prev = state[i]
            lev = level - len(sums)
            for s, a in zip(sums, abs_sums):
                lev += 1
                total = total + s
                mass = mass + a
                h *= 0.5
                value = total * h
                err = abs(value - prev)
                if err <= max(REL_TOL * (1.0 + abs(value)), _ROUNDOFF_FLOOR * mass * h):
                    out[left[i]] = QuadResult(value=value, abs_err_estimate=err,
                                              evaluations=1 + (_SINH_N0 << lev))
                    break
                prev = value
            else:
                keep.append(i)
                kept.append((total, mass, h, prev))
        if not keep:
            return out
        if len(keep) < len(left):
            left = [left[i] for i in keep]
            span = span[keep]
            cols = [c[keep] for c in cols]
        state = kept
    for r in left:
        out[r] = BudgetExceededError("real-line refinement exhausted without converging")
    return out


def _sinh_span(decay_pos: float, decay_neg: float) -> float:
    """Half-width U of the u-range for tails decaying like e^(-decay*|s|)."""
    return math.asinh(max(_tail_cutoff(decay_pos), _tail_cutoff(decay_neg))) + 0.5


def integrate_real_line(f, decay_pos: float, decay_neg: float) -> QuadResult:
    """Integrate f over (-inf, inf) with the sinh-map trapezoid rule.

    f is elementwise: it gets the nodes as a (1, nodes) array.  This is a
    deliberately different construction from the half-line rules, used
    where an independently computed two-sided value is wanted.
    """
    return _one_row(_sinh_lines(lambda: f, [], [_sinh_span(decay_pos, decay_neg)]))


# ---------------------------------------------------------------------------
# kernels


def _t_kernel(b, cos_c: float, sin2_half):
    """(cosh(b*s) + cos_c) / (cosh(s) - cos(theta)) as a vectorized callable.

    ``sin2_half`` is sin(theta/2)**2.  Both sides are divided by e^|s| so
    the hyperbolic cosines never overflow, and the denominator is written
    exactly as expm1(-|s|)**2 + 4*sin(theta/2)**2*e^(-|s|): the form
    1 + e^(-2s) - 2*cos(theta)*e^(-s) cancels when s and theta (or
    2*pi - theta) are both small.  e^(-|s|) keeps its own exp: as
    1 + expm1(-|s|) it would be exact only to an ulp of 1, which swamps
    a kernel of size e^(-s_X) when the range starts far out (X**n tiny).
    The kernel is even in s, so -|s| may replace -s throughout.
    """

    def f(s: np.ndarray):
        ns = -np.abs(s)
        x = np.expm1(ns)
        em = np.exp(ns)
        num = np.exp((1.0 - b) * ns) + np.exp((b + 1.0) * ns) + 2.0 * cos_c * em
        den = x * x + 4.0 * sin2_half * em
        return num / den

    return f


def _decay_rate(b) -> float:
    return 1.0 - abs(complex(b).real)


def _require_integrable(spec: IntegrandSpec) -> None:
    """Refuse a spec whose domain class is not Valid or Boundary-a."""
    status = classify_domain(spec)
    if status.kind not in (DomainKind.VALID, DomainKind.BOUNDARY_A):
        raise DomainError(f"spec not integrable as given: {status.detail}")


def _x_kernel_args(spec: IntegrandSpec, X: float | None):
    """Check a spec for the x-domain oracles and return its kernel arguments.

    ``X`` is the finite upper limit, or None for the range (0, inf).
    Returns (b, cos_c, sin2_half, s_X, decay): the _t_kernel arguments, the
    lower end s_X = -n*log(X) of the s-range (None when X is None) and
    the kernel's tail decay rate.
    """
    if X is not None and not 0.0 < X <= 1.0:
        raise ValueError(f"X must lie in (0, 1], got {X}")
    p = complex(spec.p)
    if p.imag != 0.0:
        raise DomainError("p must be real here; imaginary p goes through quad_cos_log")
    p = p.real
    if abs(p) >= spec.n:
        where = "an endpoint" if X is None else "the lower endpoint"
        raise NonIntegrableError(
            f"|p| = {abs(p)} >= n = {spec.n}: divergent at {where}"
        )
    _require_integrable(spec)
    b = p / spec.n
    s_x = None if X is None else -spec.n * math.log(X)
    return b, -math.cos(spec.zeta), math.sin(0.5 * spec.theta) ** 2, s_x, _decay_rate(b)


def _per_n(res: QuadResult, n: float) -> QuadResult:
    """The s-domain result scaled by the substitution's factor 1/n."""
    return QuadResult(value=res.value / n, abs_err_estimate=res.abs_err_estimate / n,
                      evaluations=res.evaluations)


# ---------------------------------------------------------------------------
# public oracle operations


def quad_x_domain(spec: IntegrandSpec, X: float = 1.0, *,
                  rule: str = "tanh-sinh") -> QuadResult:
    """Oracle for the x-domain integral from 0 to X (0 < X <= 1).

    Substituting x**n = exp(-s) maps the range to [s_X, inf) with
    s_X = -n*log(X) and integrand (cosh(b*s) - cos(zeta)) /
    (cosh(s) - cos(theta)) / n, which has no endpoint singularity.
    ``rule="tanh-sinh"`` integrates it with the double-exponential
    half-line map, ``rule="gauss"`` with Gauss-Legendre panels.
    """
    b, cos_c, sin2_half, s_x, decay = _x_kernel_args(spec, X)
    if rule == "tanh-sinh":
        res = _de_half_line(b, cos_c, sin2_half, s_x, decay)
    elif rule == "gauss":
        res = integrate_half_line(_t_kernel(b, cos_c, sin2_half), s_x, decay)
    else:
        raise ValueError(f"unknown rule {rule!r}: expected 'tanh-sinh' or 'gauss'")
    return _per_n(res, spec.n)


def _x_domain_block(specs: list[IntegrandSpec], infinite: bool,
                    run) -> list[QuadResult | Exception]:
    """Run the block driver ``run`` on the kernel arguments of every spec
    that _x_kernel_args accepts, with X = spec.upper or, if ``infinite``,
    the range (0, inf).

    Returns, in input order, each spec's result scaled by 1/n, or the
    error that _x_kernel_args or the driver gave for it.
    """
    out: list[QuadResult | Exception | None] = [None] * len(specs)
    rows, args = [], []
    for i, spec in enumerate(specs):
        try:
            args.append(_x_kernel_args(spec, None if infinite else spec.upper))
            rows.append(i)
        except (CoshintError, ValueError) as exc:
            out[i] = exc
    if rows:
        for i, res in zip(rows, run(args)):
            out[i] = res if isinstance(res, Exception) else _per_n(res, specs[i].n)
    return out


def quad_x_domain_many(specs: list[IntegrandSpec]) -> list[QuadResult | Exception]:
    """quad_x_domain(spec, spec.upper) for every spec, as one DE block.

    Returns, in input order, each spec's QuadResult or the error that
    quad_x_domain would raise for it (CoshintError or ValueError).
    Values, error estimates and evaluation counts are bit-identical to
    the per-spec calls, whatever the other specs in the block.
    """
    return _x_domain_block(specs, False,
                           lambda args: _de_half_lines(*np.array(args, dtype=float).T))


def quad_x_domain_infinite(spec: IntegrandSpec) -> QuadResult:
    """Oracle for the x-domain integral over (0, inf).

    Computed as a genuine two-sided s-integral with the sinh-map rule,
    not by doubling the (0, 1] value.  This is the one-row call of
    quad_x_domain_infinite_many's block.
    """
    b, cos_c, sin2_half, _, rate = _x_kernel_args(spec, None)
    # a lone row's parameters go in as Python floats, which round as its
    # columns would and spare the kernel the broadcasting
    res = _one_row(_sinh_lines(_t_kernel, [b, cos_c, sin2_half], [_sinh_span(rate, rate)]))
    return _per_n(res, spec.n)


def quad_x_domain_infinite_many(specs: list[IntegrandSpec]) -> list[QuadResult | Exception]:
    """quad_x_domain_infinite(spec) for every spec, as one sinh-map block.

    Returns, in input order, each spec's QuadResult or the error that
    quad_x_domain_infinite would raise for it (CoshintError or
    ValueError).  Values, error estimates and evaluation counts are
    bit-identical to the per-spec calls, whatever the other specs in the
    block.
    """

    def run(args):
        table = np.array([a[:3] for a in args])
        return _sinh_lines(_t_kernel, [table[:, k:k + 1] for k in range(3)],
                           [_sinh_span(a[4], a[4]) for a in args])

    return _x_domain_block(specs, True, run)


def quad_t_domain(a, b, c: float) -> QuadResult:
    """Oracle for integral of (cosh(b*t) + cos(c)) / (cosh(t) + cos(a)) on [0, inf).

    ``a`` and ``b`` may be complex (|Re a| < pi, |Re b| < 1); the kernel
    is then complex-valued and so is the returned value.
    """
    a = complex(a)
    b = complex(b)
    if abs(a.real) >= math.pi:
        raise DomainError(f"|Re a| = {abs(a.real)} must be < pi")
    if abs(b.real) >= 1.0:
        raise DomainError(f"|Re b| = {abs(b.real)} must be < 1")
    if a.imag == 0.0:
        a = a.real
    if b.imag == 0.0:
        b = b.real
    # theta = pi - a, so sin(theta/2)**2 = cos(a/2)**2
    return _de_half_line(b, math.cos(c), np.cos(0.5 * a) ** 2, 0.0, _decay_rate(b))


def quad_two_sided(a: float, b: float) -> QuadResult:
    """Oracle for integral of e^(b*t) / (cosh(t) + cos(a)) over the real line."""
    if abs(a) >= math.pi or a == 0.0:
        raise DomainError(f"a must satisfy 0 < |a| < pi, got {a}")
    if abs(b) >= 1.0:
        raise DomainError(f"|b| = {abs(b)} must be < 1")
    cos2_half_4 = 4.0 * math.cos(0.5 * a) ** 2

    def kernel(t: np.ndarray) -> np.ndarray:
        # 1 + e^(-2|t|) + 2*cos(a)*e^(-|t|) as _t_kernel writes it, which
        # does not cancel when |t| and pi - |a| are both small
        ns = -np.abs(t)
        x = np.expm1(ns)
        return 2.0 * np.exp(b * t + ns) / (x * x + cos2_half_4 * np.exp(ns))

    return integrate_real_line(kernel, 1.0 - b, 1.0 + b)


def quad_cos_log(spec: IntegrandSpec) -> QuadResult:
    """Oracle for the cos(q*log x) numerator (p = i*q), honoring spec.upper.

    In the s-domain the integrand becomes cos(q*s/n) / (2*(cosh s -
    cos theta)) / n, and cos(q*s/n) = cosh(b*s) for b = i*q/n: it is
    _t_kernel(b, 0, sin(theta/2)**2) / (2*n), on the DE map over [0, inf)
    for upper 1, and on the sinh map over the whole line for upper
    infinity (computed two-sided, not by doubling).
    """
    p = complex(spec.p)
    if p.real != 0.0:
        raise DomainError("quad_cos_log needs a purely imaginary p = i*q")
    _require_integrable(spec)
    b = 1j * p.imag / spec.n
    sin2_half = math.sin(0.5 * spec.theta) ** 2
    if spec.upper == math.inf:
        res = _one_row(_sinh_lines(_t_kernel, [b, 0.0, sin2_half], [_sinh_span(1.0, 1.0)]))
    elif spec.upper == 1.0:
        res = _de_half_line(b, 0.0, sin2_half, 0.0, 1.0)
    else:
        raise ValueError("upper must be 1 or infinity for this oracle")
    # the kernel's imaginary parts cancel exactly: e^((1 -+ b)*s) are conjugates
    return _per_n(replace(res, value=res.value.real), 2.0 * spec.n)


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
