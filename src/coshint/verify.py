"""Cross-path verification and the two documented formula failures.

verify_point evaluates one spec by every admissible route of ROUTES
(closed form, partial fractions, quadrature, accelerated series) and
reports the worst pairwise disagreement; verify_points does the same for
a grid, with every route's block form run once over the grid, and
verify_rows gives its reports' values as plain rows, which the CLI
writes without building the reports.  All three wrap one row core.
The blocks hand back plain values: the quadrature and series blocks
read their modules' row cores, not QuadResult or SeriesResult objects.  A
route whose precondition (ROUTES) fails is not called at all: the route
function raises from the same predicate, so the report is the one that
trying it would give.  Disagreements never raise: callers and the test
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

import numpy as np

from .closed_form import _master_raw, eval_master, master_value, master_value_many
from .errors import CoshintError
from .params import (
    TWO_PI,
    DomainKind,
    DomainStatus,
    IntegrandSpec,
    NormalizedForm,
    _real_or_complex,
    _theta_mod,
    classify_domain,
    form_and_kind,
    normalize,
)
from .partial_fractions import (
    _as_int,
    _middle_term_many,
    _is_int,
    integral_at,
    integral_closed,
    middle_term_integral,
    pf_value_many,
)
from .quadrature import _x_domain_rows, quad_x_domain
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


# Route preconditions.  Each route function raises when its own fails,
# and _row does not call a route whose precondition fails.


def _summed_upper(spec: IntegrandSpec) -> bool:
    """The closed and series routes' precondition: upper limit 1 or inf."""
    return spec.upper == 1.0 or spec.upper == math.inf


def _real_p(spec: IntegrandSpec) -> bool:
    """The partial-fraction and series routes' precondition: a real p."""
    return _real_or_complex(spec.p).imag == 0.0


def _upper_factor(spec: IntegrandSpec) -> float:
    if not _summed_upper(spec):
        raise CoshintError("closed and series routes cover upper limits 1 and inf only")
    return 1.0 if spec.upper == 1.0 else 2.0


def closed_value(spec: IntegrandSpec) -> float:
    """Closed-form route: master value scaled back to the x-domain."""
    nf = normalize(spec)
    return _closed_value(spec, (nf.a, nf.b, nf.c, nf.scale))


def _closed_value(spec: IntegrandSpec, form: tuple) -> float:
    """closed_value, given the spec's normalized values form = (a, b, c, scale)."""
    a, b, c, scale = form
    factor = _upper_factor(spec)
    theta_c, _ = _theta_mod(spec.theta)  # a = pi - theta_c, rounded
    return factor * scale * master_value(a, b, c, theta=theta_c).real


def pf_value(spec: IntegrandSpec) -> float:
    """Partial-fraction route (integer exponents; finite X via arctangents)."""
    if not _real_p(spec):
        raise CoshintError("partial fractions need a real integer p")
    p = _real_or_complex(spec.p).real
    if p < 0.0:
        # refuse a non-integer n as both routes below do (integral_at
        # refuses an X above 1 first) without rebuilding the spec
        if not 1.0 < spec.upper < math.inf:
            _as_int(spec.n, "n")
        spec = replace(spec, p=-p)  # the integrand is even in p
    if spec.upper not in (1.0, math.inf):
        return integral_at(spec, spec.upper)
    return integral_closed(spec)


def quad_value(spec: IntegrandSpec) -> float:
    """Quadrature route: quad_x_domain up to the spec's upper limit,
    infinite or not, for a real or purely imaginary p (one kernel call at
    b = p/n either way)."""
    return quad_x_domain(spec, spec.upper).value


def series_value(spec: IntegrandSpec, tol: float = AGREE_TOL) -> float:
    """Series route: accelerated contracted sum plus the middle-term value."""
    factor = _upper_factor(spec)
    if not _real_p(spec):
        raise CoshintError("series path needs a real p")
    contracted = series_contracted(spec.n, abs(_real_or_complex(spec.p).real), spec.theta,
                                   _series_tol(tol))
    return _series_total(spec, factor, contracted)


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
        factor = _upper_factor(spec)
        values["closed"] = factor * nf.scale * complex(
            _master_raw(complex(raw_a), complex(nf.b), nf.c)).real
    except (CoshintError, ValueError, ZeroDivisionError):
        pass
    theta_c = math.pi - complex(nf.a).real  # nf.a already uses the reduced angle
    try:
        values["quad"] = quad_value(replace(spec, theta=theta_c))
    except (CoshintError, ValueError):
        pass
    return values


def _closed_block(specs: list[IntegrandSpec], tol: float) -> list[float | None]:
    """_closed_value of the specs from one master_value_many call, for
    the specs whose b = p/n is a float and whose theta lies in (0, 2*pi)
    (so theta is its own reduced angle); None (call _closed_value) for the
    others and for the rows that the strip refuses, which it raises for.
    Each step is _closed_value's IEEE operation in its order."""
    out: list[float | None] = [None] * len(specs)
    served = [(i, s.n, b, s.theta, s.zeta, s.upper) for i, s in enumerate(specs)
              if type(b := s.p / s.n) is float and 0.0 < s.theta < TWO_PI]
    if not served:
        return out
    rows, n, b, theta, zeta, upper = (np.array(col) for col in zip(*served))
    value, ok = master_value_many(math.pi - theta, b, math.pi - zeta, theta)
    with np.errstate(all="ignore"):  # a refused row's value may be inf or NaN
        value = (np.where(upper == 1.0, 1.0, 2.0) * (1.0 / n)) * value
    for i, v in zip(rows[ok].tolist(), value[ok].tolist()):
        out[i] = v
    return out


def _pf_block(specs: list[IntegrandSpec], tol: float) -> list[float | None]:
    """pf_value_many over the specs; see verify_points."""
    return pf_value_many([s.n for s in specs], [s.p for s in specs],
                         [s.theta for s in specs], [s.zeta for s in specs],
                         [s.upper for s in specs])


def _quad_block(specs: list[IntegrandSpec], tol: float) -> list:
    """quad_value of every spec, as its value or error, from the rows of
    quad_x_domain_many, which picks each row's map."""
    return [row if isinstance(row, Exception) else row[0]
            for row in _x_domain_rows(specs, [s.upper for s in specs])]


def _series_block(specs: list[IntegrandSpec], tol: float) -> list[float | None]:
    """series_value from the sums of series_contracted_many's rows, with
    _series_total's epilogue as columns; None (call series_value) for a
    row that the block leaves."""
    n, theta, zeta, upper = (np.array([getattr(s, name) for s in specs], dtype=float)
                             for name in ("n", "theta", "zeta", "upper"))
    p = [abs(_real_or_complex(s.p).real) for s in specs]
    rows, contracted, _, _ = _contracted_rows(n, p, theta, _series_tol(tol))
    middle = _middle_term_many(n[rows], theta[rows])
    value = (np.where(upper[rows] == 1.0, 1.0, 2.0)
             * (contracted - 2.0 * np.cos(zeta[rows]) * middle))  # _series_total's operations
    out: list[float | None] = [None] * len(specs)
    for i, v in zip(rows.tolist(), value.tolist()):
        out[i] = v
    return out


@dataclass(frozen=True)
class Route:
    """An evaluation route, reported in EvalReport's field ``name``.

    ``admits(spec)`` is the predicate that the route function raises
    from; ``value(spec, form, tol)`` is its value, given normalize(spec)'s
    values form = (a, b, c, scale).
    ``block(specs, tol)``, for specs it admits, gives per spec the value,
    the error the route would raise, or None (call ``value``); every
    route of ROUTES has one.  Each looks its functions up in this module
    at call time.
    """

    name: str
    admits: Callable[[IntegrandSpec], bool]
    value: Callable[[IntegrandSpec, tuple, float], float]
    block: Callable[[list[IntegrandSpec], float], list]


ROUTES = (
    Route("closed", _summed_upper, lambda spec, form, tol: _closed_value(spec, form),
          _closed_block),
    Route("pf", lambda spec: _real_p(spec) and _is_int(spec.n),
          lambda spec, form, tol: pf_value(spec), _pf_block),
    Route("quad", lambda spec: True, lambda spec, form, tol: quad_value(spec), _quad_block),
    Route("series", lambda spec: _summed_upper(spec) and _real_p(spec),
          lambda spec, form, tol: series_value(spec, tol), _series_block),
)
_NO_RESULTS = (None,) * len(ROUTES)


def verify_point(spec: IntegrandSpec, tol: float = AGREE_TOL) -> EvalReport:
    """Evaluate one spec along every admissible route and compare.

    Routes whose preconditions fail are left unpopulated rather than
    raising; the verdict is Agree when at least two routes exist and
    their largest pairwise difference is within tol.  Specs whose theta
    lies outside (0, 2*pi) keep their raw angle in the closed route and
    therefore Disagree with the oracle (the periodicity failure).
    """
    return _report(spec, _row(spec, tol, _NO_RESULTS))


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
    """verify_points' reports as plain rows, without building them.

    A row holds, in EvalReport's field order with the spec, normalized
    form and domain status taken apart: n, p, theta, zeta, upper, a, b,
    c, scale, the domain kind's value and detail, the closed, pf, quad
    and series values (None where absent), max_abs_err, the verdict's
    value and the reason.
    """
    columns = [_block_column(route, specs, tol) for route in ROUTES]
    return [_row(s, tol, given) for s, given in zip(specs, zip(*columns))]


def rows_disagree(rows: list[tuple]) -> bool:
    """Whether some row of verify_rows has the verdict Disagree."""
    return any(row[-2] == _DISAGREE for row in rows)  # row[-2]: the verdict's value


# A block column's entry for a spec that the route does not admit, which
# _row leaves out as it does a route's error, without testing again.
_NOT_ADMITTED = CoshintError("the route's precondition fails")


def _block_column(route: Route, specs: list[IntegrandSpec], tol: float) -> list:
    """route.block's result for each spec that the route admits, else
    _NOT_ADMITTED."""
    column: list = [_NOT_ADMITTED] * len(specs)
    rows = [i for i, s in enumerate(specs) if route.admits(s)]
    if rows:
        for i, result in zip(rows, route.block([specs[i] for i in rows], tol)):
            column[i] = result
    return column


_PARADOX_ONLY = DomainKind.PARADOX_ONLY.value
_UNEVALUATED = (DomainKind.SINGULAR_THETA.value, DomainKind.EXCLUDED.value)
_AGREE, _DISAGREE, _SKIPPED = Verdict.AGREE.value, Verdict.DISAGREE.value, Verdict.SKIPPED.value
_KINDS = {kind.value: kind for kind in DomainKind}
_VERDICTS = {verdict.value: verdict for verdict in Verdict}


def _row(spec: IntegrandSpec, tol: float, given: tuple) -> tuple:
    """verify_point's values as one row of verify_rows; ``given`` holds,
    per route of ROUTES, a block's result for the spec (a value or the
    route's error), or None.

    The normalized form and the domain come from form_and_kind, as
    plain values.  One pass over ROUTES then collects each route's
    value, or None.  A route with no result yet is called only
    when the spec meets its precondition, checked once.  A route that is
    called may still raise (a near pole, an unreachable tolerance, ...),
    and is then left out.  max_abs_err is the largest pairwise
    difference; when the values and their sum are finite it is max -
    min, the same bits, since rounding is monotone.
    """
    n, p, theta, zeta, upper = spec.n, spec.p, spec.theta, spec.zeta, spec.upper
    a, b, c, scale, kind, detail = form_and_kind(spec)
    form = (a, b, c, scale)
    if kind in _UNEVALUATED:
        return (n, p, theta, zeta, upper, *form, kind, detail,
                *_NO_RESULTS, 0.0, _SKIPPED, detail)
    if kind == _PARADOX_ONLY:
        paths = _paradox_only_paths(spec, NormalizedForm(*form))
        results = [paths.get(route.name) for route in ROUTES]
    else:
        results = []
        for route, result in zip(ROUTES, given):
            if result is None and route.admits(spec):
                try:
                    result = route.value(spec, form, tol)
                except (CoshintError, ValueError):
                    pass
            results.append(None if isinstance(result, Exception) else result)
    vals = [x for x in results if x is not None]
    if len(vals) < 2:
        max_err, verdict = 0.0, _SKIPPED
        reason = "fewer than two evaluation routes are admissible"
    else:
        if math.isfinite(sum(vals)):
            max_err = max(vals) - min(vals)
        else:
            max_err = max(abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:])
        verdict = _AGREE if max_err <= tol else _DISAGREE
        reason = None
    return (n, p, theta, zeta, upper, *form, kind, detail, *results, max_err, verdict, reason)


def _report(spec: IntegrandSpec, row: tuple) -> EvalReport:
    """The EvalReport of a spec's row (see verify_rows)."""
    *_, a, b, c, scale, kind, detail, closed, pf, quad, series, max_err, verdict, reason = row
    return EvalReport(spec, NormalizedForm(a, b, c, scale), DomainStatus(_KINDS[kind], detail),
                      closed, pf, quad, series, max_err, _VERDICTS[verdict], reason)


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
