"""Independent numerical oracle for every integral evaluated in closed form.

Two unrelated rule families are provided so the oracle can be checked
against itself:

* a double-exponential (tanh-sinh) rule applied to finite panels, with
  half-infinite ranges covered by geometrically growing panels and an
  explicit exponential tail cutoff, plus a sinh-map trapezoid rule for
  integrals over the whole real line;
* a doubling-panel Gauss-Legendre rule over the same panel layout.

All x-domain integrals are transformed with x**n = exp(-s) before any
rule sees them, so the x -> 0 endpoint behaviour x**(n-|p|-1) never
reaches a quadrature node; every transformed integrand is analytic on
the integration path.  Refinement stops at 1e-13 relative accuracy or at
the evaluation budget (2e6 integrand evaluations per call), and running
out of budget raises instead of returning a degraded value.

Panel contributions are accumulated left to right in a fixed order, so
results are bit-identical across runs.  quad_x_domain_many runs the
tanh-sinh half-line rule for many specs as one row block and returns,
bit for bit, what quad_x_domain returns for each spec alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Refinement thresholds shared by the scalar and the row-block drivers.
# Summation roundoff of a peaked or oscillatory panel plateaus near
# _ROUNDOFF_FLOOR times the integrand's absolute mass; a panel whose
# levels run out is still accepted within _PLATEAU_ACCEPT of that mass;
# a half-line stops once a panel adds less than _TAIL_BREAK of its
# tolerance, because the geometric envelope makes the rest smaller still.
_ROUNDOFF_FLOOR = 1e-13
_PLATEAU_ACCEPT = 1e-12
_TAIL_BREAK = 1e-3

_TS_TMAX = 6.11  # |t| beyond this the tanh-sinh weight underflows
_TS_MAX_LEVEL = 12
_GL_ORDER = 32
_GL_MAX_DOUBLINGS = 14


@dataclass(frozen=True)
class QuadResult:
    value: complex | float
    abs_err_estimate: float
    evaluations: int


def _pyify(value):
    """Convert numpy scalars to builtin float/complex for clean reporting."""
    if isinstance(value, complex) and value.imag != 0.0:
        return complex(value)
    return float(np.real(value))


class _Budget:
    """Mutable evaluation counter shared across the panels of one call."""

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
# tanh-sinh rule on [-1, 1], nodes cached per refinement level


_ts_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas/weights introduced at `level` (level 0 = full coarse grid)."""
    cached = _ts_cache.get(level)
    if cached is not None:
        return cached
    h = 1.0 / (1 << level)
    if level == 0:
        t = np.arange(-int(_TS_TMAX), int(_TS_TMAX) + 1, dtype=float)
    else:
        m = np.arange(1, int(_TS_TMAX / h) + 1, 2, dtype=float)
        t = np.concatenate([-m[::-1], m]) * h
    with np.errstate(over="ignore"):
        g = 0.5 * math.pi * np.sinh(t)
        u = np.tanh(g)
        w = 0.5 * math.pi * np.cosh(t) / np.cosh(g) ** 2
    keep = np.isfinite(w) & (w > 1e-300) & (np.abs(u) < 1.0)
    u, w = u[keep], w[keep]
    _ts_cache[level] = (u, w)
    return u, w


def _tanh_sinh_panel(f, a: float, b: float, abs_tol: float, budget: _Budget):
    """Integrate f over [a, b]; returns (value, err, converged_flag).

    Convergence is judged against abs_tol with a floor of _ROUNDOFF_FLOOR
    times the integrand's absolute mass: summation roundoff for a peaked
    or oscillatory panel plateaus at that scale, so demanding more would
    spin through every level and fail on inputs that are in fact done.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = None
    mass = 0.0
    prev = None
    err = math.inf
    for level in range(_TS_MAX_LEVEL + 1):
        u, w = _ts_nodes(level)
        budget.spend(u.size)
        samples = w * f(mid + half * u)
        contrib = samples.sum()
        mass += float(np.abs(samples).sum())
        if total is None:
            total = contrib
        else:
            total = total + contrib
        h = 1.0 / (1 << level)
        value = total * h * half
        if prev is not None:
            err = abs(value - prev)
            if level >= 2 and err <= max(abs_tol, _ROUNDOFF_FLOOR * mass * h * half):
                return value, err, True
        prev = value
    # refinement exhausted: a severely peaked panel may sit on its roundoff
    # plateau; accept it only while the error stays that close to the mass
    ok = err <= _PLATEAU_ACCEPT * mass * h * half
    return prev, err, ok


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
    prev = None
    err = math.inf
    panels = 1
    for _ in range(_GL_MAX_DOUBLINGS + 1):
        value, mass = _gauss_fixed(f, a, b, panels, budget)
        if prev is not None:
            err = abs(value - prev)
            if err <= max(abs_tol, _ROUNDOFF_FLOOR * mass):
                return value, err, True
        prev = value
        panels *= 2
    return prev, err, False


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


def _integrate_panels(f, edges, budget, panel_rule):
    total = 0.0
    err_sum = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        scale = 1.0 + abs(total)
        value, err, ok = panel_rule(f, left, right, 0.25 * REL_TOL * scale, budget)
        if not ok:
            raise BudgetExceededError(
                "panel refinement exhausted without reaching tolerance"
            )
        total = total + value
        err_sum += err
        small = _TAIL_BREAK * REL_TOL * scale
        if abs(value) < small and err < small:
            break  # geometric envelope: the remaining panels are smaller still
    return total, err_sum


_PANEL_RULES = {"tanh-sinh": _tanh_sinh_panel, "gauss": _gauss_panel}


def _panel_rule(rule: str):
    try:
        return _PANEL_RULES[rule]
    except KeyError:
        raise ValueError(
            f"unknown rule {rule!r}: expected 'tanh-sinh' or 'gauss'"
        ) from None


def integrate_finite(f, a: float, b: float, *, rule: str = "tanh-sinh") -> QuadResult:
    """Integrate a smooth integrand over the finite interval [a, b]."""
    panel_rule = _panel_rule(rule)
    budget = _Budget()
    value, err, ok = panel_rule(f, a, b, REL_TOL, budget)
    if not ok:
        raise BudgetExceededError("refinement exhausted without convergence")
    return QuadResult(value=_pyify(value), abs_err_estimate=float(err),
                      evaluations=budget.used)


def integrate_half_line(f, start: float, decay: float, *,
                        rule: str = "tanh-sinh") -> QuadResult:
    """Integrate f over [start, inf) given an e^(-decay*s) tail envelope."""
    panel_rule = _panel_rule(rule)
    budget = _Budget()
    cutoff = _tail_cutoff(decay, start)
    edges = _panel_edges(start, cutoff)
    value, err = _integrate_panels(f, edges, budget, panel_rule)
    return _half_line_result(value, err, budget.used)


def _half_line_result(value, err, evaluations: int) -> QuadResult:
    return QuadResult(value=_pyify(value),
                      abs_err_estimate=float(err + 1e-16 * abs(value)),
                      evaluations=evaluations)


# ---------------------------------------------------------------------------
# row block: the tanh-sinh half-line driver for many _t_kernel integrands
#
# Row r integrates _t_kernel(b[r], cos_c[r], cos_a[r]) over its own panel
# layout.  Every row of a block shares the nodes of each level (the node
# sets are nested), so one kernel call per level serves all rows.  A row
# leaves the block at the level where its panel converges and after its
# last panel, so each row goes through exactly the arithmetic of
# _tanh_sinh_panel and _integrate_panels: its value, error estimate,
# evaluation count and failure are bit-identical to a per-spec call.


def _block_level(args, rows, mid, half, level: int):
    """Per-row sums of w*f and |w*f| over the nodes that `level` adds.

    The kernel sees the rows in chunks of at most as many elements as
    the deepest level has nodes, so no call holds more than a single
    spec's deepest level does.
    """
    u, w = _ts_nodes(level)
    step = max(1, _ts_nodes(_TS_MAX_LEVEL)[0].size // u.size)
    contrib = np.empty(rows.size)
    mass = np.empty(rows.size)
    for lo in range(0, rows.size, step):
        part = slice(lo, lo + step)
        col = rows[part, None]
        f = _t_kernel(args[0][col], args[1][col], args[2][col])
        samples = w * f(mid[part, None] + half[part, None] * u)
        contrib[part] = samples.sum(axis=1)
        mass[part] = np.abs(samples).sum(axis=1)
    return contrib, mass


def _tanh_sinh_rows(args, rows, left, right, abs_tol, used, errors):
    """_tanh_sinh_panel on [left[i], right[i]] for each row rows[i].

    Returns (value, err, ok) per row.  ``used`` holds each row's
    evaluation count; a row that overruns the budget is recorded in
    ``errors`` and returned not ok.
    """
    half = 0.5 * (right - left)
    mid = 0.5 * (left + right)
    value = np.zeros(rows.size)
    err = np.full(rows.size, math.inf)
    ok = np.zeros(rows.size, dtype=bool)
    total = np.empty(rows.size)
    mass = np.empty(rows.size)
    live = np.arange(rows.size)
    for level in range(_TS_MAX_LEVEL + 1):
        used[rows[live]] += _ts_nodes(level)[0].size
        over = used[rows[live]] > EVAL_BUDGET
        for r in rows[live[over]]:
            errors[int(r)] = BudgetExceededError(
                f"quadrature exceeded its budget of {EVAL_BUDGET} evaluations")
        live = live[~over]
        contrib, absum = _block_level(args, rows[live], mid[live], half[live], level)
        total[live] = contrib if level == 0 else total[live] + contrib
        mass[live] = absum if level == 0 else mass[live] + absum
        h = 1.0 / (1 << level)
        latest = total[live] * h * half[live]
        if level > 0:
            err[live] = np.abs(latest - value[live])
        value[live] = latest
        if level >= 2:
            tol = abs_tol[live]
            floor = _ROUNDOFF_FLOOR * mass[live] * h * half[live]
            done = err[live] <= np.where(floor > tol, floor, tol)
            ok[live[done]] = True
            live = live[~done]
        if live.size == 0:
            return value, err, ok
    ok[live] = err[live] <= _PLATEAU_ACCEPT * mass[live] * h * half[live]
    return value, err, ok


def _half_line_rows(args, edges):
    """_integrate_panels with _tanh_sinh_panel for every row, panel by panel.

    ``args`` holds the kernel's (b, cos_c, cos_a) as three arrays and
    ``edges[r]`` is row r's _panel_edges layout.  Returns the arrays
    (total, err_sum, used) and a dict row -> error for the rows that
    failed.
    """
    count = len(edges)
    panels = np.array([len(e) - 1 for e in edges])
    total = np.zeros(count)
    err_sum = np.zeros(count)
    used = np.zeros(count, dtype=np.int64)
    errors: dict[int, CoshintError] = {}
    live = np.arange(count)
    k = 0
    while live.size:
        left = np.array([edges[r][k] for r in live])
        right = np.array([edges[r][k + 1] for r in live])
        scale = 1.0 + np.abs(total[live])
        value, err, ok = _tanh_sinh_rows(args, live, left, right,
                                         0.25 * REL_TOL * scale, used, errors)
        for r in live[~ok]:
            errors.setdefault(int(r), BudgetExceededError(
                "panel refinement exhausted without reaching tolerance"))
        total[live] = total[live] + value
        err_sum[live] = err_sum[live] + err
        small = _TAIL_BREAK * REL_TOL * scale
        k += 1
        live = live[ok & (k < panels[live]) & ~((np.abs(value) < small) & (err < small))]
    return total, err_sum, used, errors


def integrate_real_line(f, decay_pos: float, decay_neg: float) -> QuadResult:
    """Integrate f over (-inf, inf) with a sinh-map trapezoid rule.

    The map s = sinh(u) makes the transformed integrand decay doubly
    exponentially, so the plain trapezoid rule converges geometrically.
    This is a deliberately different construction from the panel rules,
    used where an independently computed two-sided value is wanted.
    """
    budget = _Budget()
    cut = max(_tail_cutoff(decay_pos), _tail_cutoff(decay_neg))
    big_u = math.asinh(cut) + 0.5

    def g(u: np.ndarray) -> np.ndarray:
        s = np.sinh(u)
        return f(s) * np.cosh(u)

    n0 = 16
    h = 2.0 * big_u / n0
    grid = np.linspace(-big_u, big_u, n0 + 1)
    budget.spend(grid.size)
    vals = g(grid)
    total = vals.sum() - 0.5 * (vals[0] + vals[-1])
    mass = float(np.abs(vals).sum())
    prev = total * h
    err = math.inf
    for _ in range(_TS_MAX_LEVEL):
        mids = np.arange(-big_u + 0.5 * h, big_u, h)
        budget.spend(mids.size)
        new = g(mids)
        total = total + new.sum()
        mass += float(np.abs(new).sum())
        h *= 0.5
        value = total * h
        err = abs(value - prev)
        if err <= max(REL_TOL * (1.0 + abs(value)), _ROUNDOFF_FLOOR * mass * h):
            return QuadResult(value=_pyify(value), abs_err_estimate=float(err),
                              evaluations=budget.used)
        prev = value
    raise BudgetExceededError("real-line refinement exhausted without converging")


# ---------------------------------------------------------------------------
# kernels


def _t_kernel(b, cos_c: float, cos_a):
    """(cosh(b*s) + cos_c) / (cosh(s) + cos_a) as a vectorized callable.

    Both sides are divided by e^|s| so the hyperbolic cosines never
    overflow; the kernel is even in s, so |s| may replace s throughout.
    """

    def f(s: np.ndarray):
        sa = np.abs(s)
        em = np.exp(-sa)
        num = np.exp((b - 1.0) * sa) + np.exp(-(b + 1.0) * sa) + 2.0 * cos_c * em
        den = 1.0 + em * em + 2.0 * cos_a * em
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
    Returns (b, cos_c, cos_a, s_X, decay): the _t_kernel arguments, the
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
    return b, -math.cos(spec.zeta), -math.cos(spec.theta), s_x, _decay_rate(b)


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
    """
    b, cos_c, cos_a, s_x, decay = _x_kernel_args(spec, X)
    res = integrate_half_line(_t_kernel(b, cos_c, cos_a), s_x, decay, rule=rule)
    return _per_n(res, spec.n)


def quad_x_domain_many(specs: list[IntegrandSpec]) -> list[QuadResult | Exception]:
    """quad_x_domain(spec, spec.upper) for every spec, as one row block.

    Returns, in input order, each spec's QuadResult or the error that
    quad_x_domain would raise for it (CoshintError or ValueError).
    Values, error estimates and evaluation counts are bit-identical to
    the per-spec calls, whatever the other specs in the block.
    """
    out: list[QuadResult | Exception | None] = [None] * len(specs)
    rows, args, edges = [], [], []
    for i, spec in enumerate(specs):
        try:
            b, cos_c, cos_a, s_x, decay = _x_kernel_args(spec, spec.upper)
            edges.append(_panel_edges(s_x, _tail_cutoff(decay, s_x)))
        except (CoshintError, ValueError) as exc:
            out[i] = exc
            continue
        rows.append(i)
        args.append((b, cos_c, cos_a))
    if rows:
        kernel_args = tuple(np.array(args, dtype=float).T)
        total, err_sum, used, errors = _half_line_rows(kernel_args, edges)
        for r, i in enumerate(rows):
            if r in errors:
                out[i] = errors[r]
            else:
                res = _half_line_result(total[r], err_sum[r], int(used[r]))
                out[i] = _per_n(res, specs[i].n)
    return out


def quad_x_domain_infinite(spec: IntegrandSpec) -> QuadResult:
    """Oracle for the x-domain integral over (0, inf).

    Computed as a genuine two-sided s-integral with the sinh-map rule,
    not by doubling the (0, 1] value.
    """
    b, cos_c, cos_a, _, rate = _x_kernel_args(spec, None)
    res = integrate_real_line(_t_kernel(b, cos_c, cos_a), rate, rate)
    return _per_n(res, spec.n)


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
    kernel = _t_kernel(b, math.cos(c), np.cos(a))
    return integrate_half_line(kernel, 0.0, _decay_rate(b))


def quad_two_sided(a: float, b: float) -> QuadResult:
    """Oracle for integral of e^(b*t) / (cosh(t) + cos(a)) over the real line."""
    if abs(a) >= math.pi or a == 0.0:
        raise DomainError(f"a must satisfy 0 < |a| < pi, got {a}")
    if abs(b) >= 1.0:
        raise DomainError(f"|b| = {abs(b)} must be < 1")
    cos_a = math.cos(a)

    def kernel(t: np.ndarray) -> np.ndarray:
        ta = np.abs(t)
        em = np.exp(-ta)
        return 2.0 * np.exp(b * t - ta) / (1.0 + em * em + 2.0 * cos_a * em)

    return integrate_real_line(kernel, 1.0 - b, 1.0 + b)


def quad_cos_log(spec: IntegrandSpec) -> QuadResult:
    """Oracle for the cos(q*log x) numerator (p = i*q), honoring spec.upper.

    In the s-domain the integrand becomes cos(q*s/n) / (2*(cosh s -
    cos theta)) / n over [0, inf) for upper 1, and over the whole line
    for upper infinity (computed two-sided, not by doubling).
    """
    p = complex(spec.p)
    if p.real != 0.0:
        raise DomainError("quad_cos_log needs a purely imaginary p = i*q")
    _require_integrable(spec)
    q_over_n = p.imag / spec.n
    cos_t = math.cos(spec.theta)

    def kernel(s: np.ndarray) -> np.ndarray:
        sa = np.abs(s)
        em = np.exp(-sa)
        return np.cos(q_over_n * s) * em / (1.0 + em * em - 2.0 * cos_t * em)

    if spec.upper == math.inf:
        res = integrate_real_line(kernel, 1.0, 1.0)
    elif spec.upper == 1.0:
        res = integrate_half_line(kernel, 0.0, 1.0)
    else:
        raise ValueError("upper must be 1 or infinity for this oracle")
    return _per_n(res, spec.n)


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
