"""Cross-path verification and the two documented formula failures.

verify_point evaluates one spec by every admissible route of ROUTES
(closed form, partial fractions, quadrature, accelerated series) and
reports the worst pairwise disagreement (the one-row core, _row);
verify_points does the same for a grid, and verify_rows gives its
reports' values as plain rows, which the CLI writes.  Both wrap the grid
core, verify_columns, which takes the lists of a grid's fields and
builds no spec for a row that the blocks serve: each route's admission
is one mask, and its block takes float columns and returns the rows it
serves, their values (from the modules' column cores) and the rows it
leaves to the one-row call, all as columns; max_abs_err, the verdict
and the reason are taken at once on the (rows x routes) value array.  A
route whose precondition (ROUTES) fails is not called: the route raises
from the same predicate, one expression on floats and columns alike.
_report builds a row's report: the EvalReport and its NormalizedForm
are filled at once (params._frozen), not by the generated __init__'s
object.__setattr__ per field, and a Valid or Boundary-a report shares
its DomainStatus.  Disagreements never raise: callers and the test
suite decide what counts as failure.

The paradox demonstrators are assertable artifacts of where the closed
forms stop being valid: shifting theta by a full turn changes the
formula value while leaving the integrand untouched, and an imaginary
base exponent produces a purely imaginary formula value for a real,
divergent integral (the kernel has a pole on the integration path).
The demonstrators bypass angle canonicalization deliberately; a change
that silently repaired the periodicity mismatch inside the closed form
is supposed to break the paradox tests.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .closed_form import _master_raw, eval_master, master_value, master_value_many
from .errors import CoshintError
from .params import (
    _BOUNDARY_KIND,
    _VALID_KIND,
    TWO_PI,
    DomainKind,
    DomainStatus,
    IntegrandSpec,
    NormalizedForm,
    _frozen,
    _integer_n,
    _real_p,
    _summed_upper,
    _theta_mod,
    _upper_factor,
    classify_domain,
    form_and_kind,
    form_and_kind_many,
    normalize,
)
from .partial_fractions import (
    _as_int,
    _middle_term_many,
    _pf_columns,
    integral_at,
    integral_closed,
    middle_term_integral,
)
from .quadrature import _x_domain_columns, quad_x_domain
from .series import TOL_FLOOR, SeriesResult, _contracted_rows, series_contracted


# default largest route difference that counts as agreement (CLI --tol too)
AGREE_TOL = 1e-9


class Verdict(Enum):
    AGREE = "Agree"
    DISAGREE = "Disagree"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class EvalReport:
    spec: IntegrandSpec
    normalized: NormalizedForm
    domain: DomainStatus
    closed: float | None
    pf: float | None
    quad: float | None
    series: float | None
    max_abs_err: float
    verdict: Verdict
    reason: str | None


@dataclass(frozen=True)
class ParadoxReport:
    kind: str  # "periodicity" | "imaginary-n"
    formula_value: complex
    oracle_value: float | None
    mismatch: float | None
    restored_mismatch: float | None
    pole_location: float | None
    shift_k: int | None
    explanation: str


def _route_factor(spec: IntegrandSpec) -> float:
    """The closed and series routes' _upper_factor, refusing other limits."""
    if not _summed_upper(spec.upper):
        raise CoshintError("closed and series routes cover upper limits 1 and inf only")
    return _upper_factor(spec.upper)


def closed_value(spec: IntegrandSpec) -> float:
    """Closed-form route: master value scaled back to the x-domain."""
    nf = normalize(spec)
    return _closed_value(spec, (nf.a, nf.b, nf.c, nf.scale))


def _closed_value(spec: IntegrandSpec, form: tuple) -> float:
    """closed_value, given the spec's normalized values form = (a, b, c, scale)."""
    a, b, c, scale = form
    theta_c, _ = _theta_mod(spec.theta)  # a = pi - theta_c, rounded
    return _route_factor(spec) * scale * master_value(a, b, c, theta=theta_c).real


def pf_value(spec: IntegrandSpec) -> float:
    """Partial-fraction route (integer exponents; finite X via arctangents)."""
    p = spec.p
    if not _real_p(p.imag):
        raise CoshintError("partial fractions need a real integer p")
    p = p.real
    if p < 0.0:
        # refuse a non-integer n as both routes below do (integral_at
        # refuses an X above 1 first) without rebuilding the spec
        if not 1.0 < spec.upper < math.inf:
            _as_int(spec.n, "n")
        spec = replace(spec, p=-p)  # the integrand is even in p
    if not _summed_upper(spec.upper):
        return integral_at(spec, spec.upper)
    return integral_closed(spec)


def quad_value(spec: IntegrandSpec) -> float:
    """Quadrature route: quad_x_domain up to the spec's upper limit,
    infinite or not, for a real or purely imaginary p (one kernel call at
    b = p/n either way)."""
    return quad_x_domain(spec, spec.upper).value


def series_value(spec: IntegrandSpec, tol: float = AGREE_TOL) -> float:
    """Series route: accelerated contracted sum plus the middle-term value."""
    factor = _route_factor(spec)
    p = spec.p
    if not _real_p(p.imag):
        raise CoshintError("series path needs a real p")
    contracted = series_contracted(spec.n, abs(p.real), spec.theta, _series_tol(tol))
    return _series_total(spec, factor, contracted)


def _checked_tol(tol: float) -> float:
    """tol, refused with ValueError if NaN or negative, which would make
    every verdict Disagree (a NaN also the series route's tolerance)."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    return tol


def _series_tol(tol: float) -> float:
    """The contracted sum's tolerance for a route tolerance ``tol``."""
    return max(0.25 * tol, TOL_FLOOR)


def _series_total(spec: IntegrandSpec, factor: float, contracted: SeriesResult) -> float:
    """series_value from the spec's upper-limit factor and contracted sum."""
    zeta_part = 2.0 * math.cos(spec.zeta) * middle_term_integral(spec.n, spec.theta)
    return factor * (contracted.value - zeta_part)


def _paradox_only_paths(spec: IntegrandSpec, nf: NormalizedForm) -> dict[str, float]:
    """Raw-formula vs canonical-oracle values for an uncanonicalized theta,
    given the spec's normalized form ``nf``.

    The closed route deliberately evaluates the formula at the shifted
    angle, so such grid points surface as Disagree instead of being
    silently repaired or dropped.
    """
    values: dict[str, float] = {}
    raw_a = math.pi - spec.theta
    try:
        values["closed"] = _route_factor(spec) * nf.scale * complex(
            _master_raw(complex(raw_a), complex(nf.b), nf.c)).real
    except (CoshintError, ValueError, ArithmeticError):  # overflow at a huge theta too
        pass
    theta_c = math.pi - complex(nf.a).real  # nf.a already uses the reduced angle
    try:
        values["quad"] = quad_value(replace(spec, theta=theta_c))
    except (CoshintError, ValueError):
        pass
    return values


class _Columns(NamedTuple):
    """Rows of specs as the float columns that the route blocks take: n,
    the real and imaginary parts p and q of p, theta, zeta and upper, and
    whether b = p/n is a float (p real, not a complex)."""

    n: np.ndarray
    p: np.ndarray
    q: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    upper: np.ndarray
    real_b: np.ndarray

    def take(self, rows) -> _Columns:
        return _Columns(*(column[rows] for column in self))


def _columns(n, p, theta, zeta, upper) -> _Columns:
    """The _Columns of rows given as lists of their fields, n, theta,
    zeta and upper floats, p a float or complex."""
    try:
        p_re, q, real_b = np.array(p, dtype=float), np.zeros(len(p)), np.ones(len(p), dtype=bool)
    except TypeError:  # a complex p
        z = np.array(p, dtype=complex)
        p_re, q = z.real.copy(), z.imag.copy()
        real_b = np.array([type(x) is not complex for x in p])
    return _Columns(np.array(n, dtype=float), p_re, q, np.array(theta, dtype=float),
                    np.array(zeta, dtype=float), np.array(upper, dtype=float), real_b)


def _closed_block(g: _Columns, tol: float) -> tuple:
    """_closed_value of the rows with a float b = p/n and theta in
    (0, 2*pi) (its own reduced angle) that the strip admits, from one
    master_value_many call, with _closed_value's IEEE operations in its
    order; it leaves the others, for _closed_value, which raises for the
    refused ones."""
    n, theta = g.n, g.theta
    value, ok = master_value_many(math.pi - theta, g.p / n, math.pi - g.zeta, theta)
    served = np.flatnonzero(ok & g.real_b & (0.0 < theta) & (theta < TWO_PI))
    with np.errstate(all="ignore"):  # a served row's value may overflow
        value = (_upper_factor(g.upper[served]) * (1.0 / n[served])) * value[served]
    return served, value, _left(len(n), served)


def _pf_block(g: _Columns, tol: float) -> tuple:
    """pf_value_many's column core over the rows; see verify_points."""
    served, value = _pf_columns(g.n, g.p, g.theta, g.zeta, g.upper, g.q)
    return served, value, _left(len(g.n), served)


def _quad_block(g: _Columns, tol: float) -> tuple:
    """quad_value from quad_x_domain's column core: it serves the rows that
    stop, refuses those that run out of levels, and leaves the others."""
    rows, value, _, _, done = _x_domain_columns(g.n, g.p, g.q, g.theta, g.zeta, g.upper)
    return rows[done], value[done], _left(len(g.n), rows)


def _series_block(g: _Columns, tol: float) -> tuple:
    """series_value of series_contracted_many's rows, with _series_total's
    epilogue as columns; it leaves the other rows."""
    n, theta = g.n, g.theta
    served, contracted, _, _ = _contracted_rows(n, np.abs(g.p), theta, _series_tol(tol))
    middle = _middle_term_many(n[served], theta[served])
    value = (_upper_factor(g.upper[served])
             * (contracted - 2.0 * np.cos(g.zeta[served]) * middle))  # _series_total's operations
    return served, value, _left(len(n), served)


def _left(size: int, served: np.ndarray) -> np.ndarray:
    """The rows of a block of ``size`` rows that ``served`` does not hold."""
    return np.flatnonzero(np.bincount(served, minlength=size) == 0)


@dataclass(frozen=True)
class Route:
    """An evaluation route, reported in EvalReport's field ``name``.

    ``admits(n, q, upper)``, made of params' predicates, is the test that
    the route function raises from, on a spec's n, imaginary part q of p
    and upper limit, as floats on the one-row path (_row calls no route
    it refuses) or as columns (a mask); ``value(spec, form, tol)`` is
    its value, given normalize(spec)'s values form = (a, b, c, scale).
    ``block(columns, tol)``, on the rows of a _Columns that it admits,
    returns the indices of the rows it serves, their values, and those of
    the rows it leaves (call ``value``); ``value`` raises for any other.
    Each looks its functions up in this module at call time.
    """

    name: str
    admits: Callable
    value: Callable[[IntegrandSpec, tuple, float], float]
    block: Callable[[_Columns, float], tuple]


ROUTES = (
    Route("closed", lambda n, q, upper: _summed_upper(upper),
          lambda spec, form, tol: _closed_value(spec, form), _closed_block),
    Route("pf", lambda n, q, upper: _real_p(q) & _integer_n(n),
          lambda spec, form, tol: pf_value(spec), _pf_block),
    Route("quad", lambda n, q, upper: True, lambda spec, form, tol: quad_value(spec),
          _quad_block),
    Route("series", lambda n, q, upper: _summed_upper(upper) & _real_p(q),
          lambda spec, form, tol: series_value(spec, tol), _series_block),
)
_NO_RESULTS = (None,) * len(ROUTES)


def verify_point(spec: IntegrandSpec, tol: float = AGREE_TOL) -> EvalReport:
    """Evaluate one spec along every admissible route and compare.

    Routes whose preconditions fail are left unpopulated rather than
    raising; the verdict is Agree when at least two routes exist and
    their largest pairwise difference is within tol.  Specs whose theta
    lies outside (0, 2*pi) keep their raw angle in the closed route and
    therefore Disagree with the oracle (the periodicity failure).  A NaN
    or negative tol raises ValueError.
    """
    return _report(spec, _spec_row(spec, _checked_tol(tol)))


def verify_points(specs: list[IntegrandSpec], tol: float = AGREE_TOL) -> list[EvalReport]:
    """verify_point for every spec, in input order, with each route's
    block run once over the specs that the route admits.

    Each block (master_value_many, pf_value_many, quad_x_domain_many's
    rows, series_contracted_many's rows) is bit-identical to its one-row
    call on the rows it serves, and leaves the others to verify_point's
    own code, so each report equals verify_point(spec, tol).  The
    quadrature block serves every spec over its own upper limit,
    imaginary p included; the closed block leaves a complex p.
    """
    return [_report(s, row) for s, row in zip(specs, verify_rows(specs, tol))]


def verify_rows(specs: list[IntegrandSpec], tol: float = AGREE_TOL) -> list[tuple]:
    """verify_points' reports as plain rows, without building them:
    verify_columns on the specs' fields.

    A row holds, in EvalReport's field order with the spec, normalized
    form and domain status taken apart: n, p, theta, zeta, upper, a, b,
    c, scale, the domain kind's value and detail, the closed, pf, quad
    and series values (None where absent), max_abs_err, the verdict's
    value and the reason.
    """
    return verify_columns(*_fields(specs), tol)


def _fields(specs: list[IntegrandSpec]) -> list[list]:
    """The lists of the specs' n, p, theta, zeta and upper."""
    return [[getattr(s, name) for s in specs] for name in ("n", "p", "theta", "zeta", "upper")]


def verify_columns(n: list, p: list, theta: list, zeta: list, upper: list,
                   tol: float = AGREE_TOL) -> list[tuple]:
    """verify_rows for a grid given as the five lists of its specs'
    fields, each row a valid IntegrandSpec's, without building the specs.

    The normalized form and kind of a Valid or Boundary-a row with a
    real p come from form_and_kind_many's columns, the others' from
    form_and_kind.  Each route's block runs once over the rows of those
    two kinds that it admits (one mask); a row that it leaves builds its
    IntegrandSpec for that route's one-row call.  max_abs_err, the
    verdict and the reason are taken at once on the (rows x routes)
    value array, and one zip builds the rows; _row builds those of the
    other kinds and those with a route value that is not finite.  A NaN
    or negative tol raises ValueError.
    """
    _checked_tol(tol)
    if not n:
        return []
    g = _columns(n, p, theta, zeta, upper)
    a, b, c, scale, inside, kinds = form_and_kind_many(g.n, g.p, g.theta, g.zeta)
    a, b, c, scale = a.tolist(), b.tolist(), c.tolist(), scale.tolist()
    for i in np.flatnonzero(~(inside & g.real_b)).tolist():
        a[i], b[i], c[i], scale[i], *kinds[i] = form_and_kind(n[i], p[i], theta[i], zeta[i])
    values, has = np.zeros((len(n), len(ROUTES))), np.zeros((len(n), len(ROUTES)), dtype=bool)
    for j, route in enumerate(ROUTES):
        rows = np.flatnonzero(inside & route.admits(g.n, g.q, g.upper))
        if not len(rows):
            continue
        served, got, left = route.block(g if len(rows) == len(n) else g.take(rows), tol)
        values[rows[served], j], has[rows[served], j] = got, True
        for i in rows[left].tolist():
            spec = IntegrandSpec(n[i], p[i], theta[i], zeta[i], upper[i])
            try:
                values[i, j] = route.value(spec, (a[i], b[i], c[i], scale[i]), tol)
                has[i, j] = True
            except (CoshintError, ValueError):
                pass
    few = has.sum(axis=1) < 2
    # quiet where a spread overflows, as Python's floats are, and at inf - inf
    # on a row that _row redoes; + 0.0 makes a spread of zeros of either
    # sign 0.0, as _row's max - min is, never -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        spread = (np.where(has, values, -np.inf).max(axis=1)
                  - np.where(has, values, np.inf).min(axis=1)) + 0.0
    spread[few] = 0.0
    results = values.astype(object)
    results[~has] = None
    out = list(zip(n, p, theta, zeta, upper, a, b, c, scale, *zip(*kinds), *results.T.tolist(),
                   spread.tolist(), *_OUTCOMES[np.where(few, 2, spread <= tol)].T.tolist()))
    for i in np.flatnonzero(~inside | ~np.isfinite(values).all(axis=1)).tolist():
        out[i] = _row(*out[i][:11], tol, out[i][11:15] if inside[i] else None)
    return out


def rows_disagree(rows: list[tuple]) -> bool:
    """Whether some row of verify_rows has the verdict Disagree."""
    return any(row[-2] == _DISAGREE for row in rows)  # row[-2]: the verdict's value


_PARADOX_ONLY = DomainKind.PARADOX_ONLY.value
_UNEVALUATED = (DomainKind.SINGULAR_THETA.value, DomainKind.EXCLUDED.value)
_AGREE, _DISAGREE, _SKIPPED = Verdict.AGREE.value, Verdict.DISAGREE.value, Verdict.SKIPPED.value
_FEW_ROUTES = "fewer than two evaluation routes are admissible"
# the verdict and reason of a row by its outcome: 0 Disagree, 1 Agree, 2 Skipped
_OUTCOMES = np.array([(_DISAGREE, None), (_AGREE, None), (_SKIPPED, _FEW_ROUTES)], dtype=object)
_KINDS = {kind.value: kind for kind in DomainKind}
_VERDICTS = {verdict.value: verdict for verdict in Verdict}
# the DomainStatus of a Valid and of a Boundary-a row, which their reports share
_DOMAINS = {(kind, detail): DomainStatus(_KINDS[kind], detail)
            for kind, detail in (_VALID_KIND, _BOUNDARY_KIND)}


def _spec_row(spec: IntegrandSpec, tol: float) -> tuple:
    """verify_point's row: every route by its one-row call."""
    n, p, theta, zeta = spec.n, spec.p, spec.theta, spec.zeta
    return _row(n, p, theta, zeta, spec.upper, *form_and_kind(n, p, theta, zeta), tol,
                None, spec)


def _row(n, p, theta, zeta, upper, a, b, c, scale, kind, detail, tol: float,
         results: tuple | None = None, spec: IntegrandSpec | None = None) -> tuple:
    """One row of verify_rows from a spec's fields, its form_and_kind
    values and its route values ``results`` (None where absent), or, if
    those are None, every route's value by its one-row call.

    A route is called only when the spec meets its precondition, with
    ``spec``, or the IntegrandSpec of the fields, built then.  A route
    that is called may still raise (a near pole, an unreachable
    tolerance, ...), and is then left out.  max_abs_err is the largest
    pairwise difference; when the values and their sum are finite it is
    max - min, the same bits, since rounding is monotone.
    """
    form = (a, b, c, scale)
    if kind in _UNEVALUATED:
        return (n, p, theta, zeta, upper, *form, kind, detail,
                *_NO_RESULTS, 0.0, _SKIPPED, detail)
    if kind == _PARADOX_ONLY:
        spec = spec or IntegrandSpec(n, p, theta, zeta, upper)
        paths = _paradox_only_paths(spec, NormalizedForm(*form))
        results = [paths.get(route.name) for route in ROUTES]
    elif results is None:
        spec = spec or IntegrandSpec(n, p, theta, zeta, upper)
        results = []
        for route in ROUTES:
            value = None
            if route.admits(n, p.imag, upper):
                try:
                    value = route.value(spec, form, tol)
                except (CoshintError, ValueError):
                    pass
            results.append(value)
    vals = [x for x in results if x is not None]
    if len(vals) < 2:
        max_err, verdict, reason = 0.0, _SKIPPED, _FEW_ROUTES
    else:
        if math.isfinite(sum(vals)):
            max_err = max(vals) - min(vals)
        else:
            max_err = max(abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:])
        verdict = _AGREE if max_err <= tol else _DISAGREE
        reason = None
    return (n, p, theta, zeta, upper, *form, kind, detail, *results, max_err, verdict, reason)


def _report(spec: IntegrandSpec, row: tuple) -> EvalReport:
    """The EvalReport of a spec's row (see verify_rows), filled as the
    module docstring says."""
    *_, a, b, c, scale, kind, detail, closed, pf, quad, series, max_err, verdict, reason = row
    return _frozen(EvalReport, spec=spec,
                   normalized=_frozen(NormalizedForm, a=a, b=b, c=c, scale=scale),
                   domain=_DOMAINS.get((kind, detail)) or DomainStatus(_KINDS[kind], detail),
                   closed=closed, pf=pf, quad=quad, series=series, max_abs_err=max_err,
                   verdict=_VERDICTS[verdict], reason=reason)


def paradox_periodicity(spec: IntegrandSpec, k: int) -> ParadoxReport:
    """Evaluate the closed form with theta shifted by 2*pi*k, uncanonicalized.

    The integrand only sees cos(theta), so the quadrature value is
    unchanged, while the formula value moves; re-canonicalizing restores
    agreement.  The mismatch is reported, not raised on.  The oracle is
    the integral up to 1, so the spec's upper limit must be 1.
    """
    if spec.upper != 1.0:
        raise CoshintError(f"the periodicity paradox is shown at upper limit 1, "
                           f"got {spec.upper!r}")
    domain = classify_domain(spec)
    if domain.kind is not DomainKind.VALID:
        raise CoshintError(f"paradox needs a Valid spec, got {domain.detail}")
    nf = normalize(spec)
    shifted_a = nf.a - 2.0 * math.pi * k
    formula = nf.scale * _master_raw(complex(shifted_a), complex(nf.b), nf.c)
    oracle = quad_x_domain(spec, 1.0).value
    restored = nf.scale * eval_master(nf.a, nf.b, nf.c).value.real
    mismatch = abs(formula - oracle)
    restored_mismatch = abs(restored - oracle)
    explanation = (
        f"theta shifted by {2 * k}*pi leaves cos(theta) and hence the integral "
        f"unchanged, but moves the formula value by {mismatch:.6g}; the closed "
        f"form only holds for theta in (0, 2*pi), where all shifted angles "
        f"would otherwise be equally admissible. Canonicalizing first brings "
        f"the difference down to {restored_mismatch:.3g}."
    )
    return ParadoxReport(kind="periodicity", formula_value=formula,
                         oracle_value=oracle, mismatch=mismatch,
                         restored_mismatch=restored_mismatch,
                         pole_location=None, shift_k=k, explanation=explanation)


def paradox_imaginary_n(m: float, p: float, theta: float) -> ParadoxReport:
    """Formal closed value for an imaginary base exponent n = i*m.

    The formula value is purely imaginary although the integrand is
    real; the t-domain kernel denominator cos(t) + cos(pi - theta)
    vanishes on the integration path (first zero reported), so the
    integral itself diverges and no quadrature is attempted.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    sin_t = math.sin(theta)
    if sin_t == 0.0:
        raise ValueError("sin(theta) must be nonzero")
    u = p * (math.pi - theta) / m
    v = p * math.pi / m
    formula = (math.pi / (m * 1j)) * (math.exp(u) - math.exp(-u)) / (
        sin_t * (math.exp(v) - math.exp(-v)))
    a = math.pi - theta
    pole = math.pi - abs(a)
    explanation = (
        f"with an imaginary base exponent the formula value {formula:.6g} is "
        f"purely imaginary while the integrand is real; the oscillatory kernel "
        f"denominator vanishes on the path (first zero at t = {pole:.6g}), so "
        f"the real integral diverges and the formal value cannot be its value."
    )
    return ParadoxReport(kind="imaginary-n", formula_value=formula,
                         oracle_value=None, mismatch=None,
                         restored_mismatch=None, pole_location=pole,
                         shift_k=None, explanation=explanation)


# ---------------------------------------------------------------------------
# reproducible random spec grids


class Lcg64:
    """64-bit linear congruential generator, identical on every platform."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self._MASK
        return self.state

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def random_specs(count: int, seed: int) -> list[IntegrandSpec]:
    """Deterministic spec grid with upper limit 1; draws n, b, theta, zeta per spec."""
    rng = Lcg64(seed)
    specs = []
    for _ in range(count):
        n = rng.uniform(0.5, 4.0)
        b = rng.uniform(-0.95, 0.95)
        theta = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        zeta = rng.uniform(0.05, math.pi - 0.05)
        specs.append(IntegrandSpec(n=n, p=b * n, theta=theta, zeta=zeta))
    return specs
