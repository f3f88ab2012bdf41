import dataclasses
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import coshint.verify as verify
from coshint import (
    CoshintError,
    DomainKind,
    DomainStatus,
    EvalReport,
    IntegrandSpec,
    Lcg64,
    NormalizedForm,
    QuadResult,
    Verdict,
    classify_domain,
    closed_value,
    eval_cosh_ratio,
    normalize,
    paradox_imaginary_n,
    paradox_periodicity,
    pf_value,
    quad_t_domain,
    quad_value,
    quad_x_domain,
    random_specs,
    series_contracted,
    series_value,
    verify_point,
    verify_points,
)
from coshint.cli import report_to_dict

PI = math.pi


def test_verify_integer_spec_all_routes():
    report = verify_point(IntegrandSpec(2, 1, PI / 2, PI / 2), tol=1e-9)
    assert report.verdict is Verdict.AGREE
    for name in ("closed", "pf", "quad", "series"):
        assert getattr(report, name) is not None
    assert report.max_abs_err <= 1e-9


def test_verify_integer_grid_always_agrees():
    for n in range(1, 7):
        for p in range(0, n):
            for theta in (0.3, PI / 2, 2.8):
                for zeta in (0.1, PI / 2, 3.0):
                    report = verify_point(IntegrandSpec(n, p, theta, zeta),
                                          tol=1e-9)
                    assert report.verdict is Verdict.AGREE
                    assert None not in (report.closed, report.pf,
                                        report.quad, report.series)


def _pf_outcome(spec):
    try:
        return pf_value(spec)
    except (CoshintError, ValueError) as exc:
        return type(exc), str(exc)


def test_pf_value_is_even_in_p_refusals_included():
    # a negative p is refused, or served, exactly as its positive twin:
    # X above 1 first, then a non-integer n, then p
    for upper in (1.0, math.inf, 0.5, 2.0):
        for n in (2.5, 3.0):
            for p in (1.0, 1.5, 3.0):
                plus = _pf_outcome(IntegrandSpec(n, p, 1.0, 2.0, upper=upper))
                minus = _pf_outcome(IntegrandSpec(n, -p, 1.0, 2.0, upper=upper))
                assert minus == plus, (upper, n, p)


def test_verify_excluded_spec_skipped():
    report = verify_point(IntegrandSpec(1, 1.5, PI / 2, PI / 2))
    assert report.verdict is Verdict.SKIPPED
    assert "improper" in report.reason


def test_verify_middle_term_only_case():
    report = verify_point(IntegrandSpec(1, 0, PI / 2, PI / 2), tol=1e-9)
    assert report.verdict is Verdict.AGREE
    assert abs(report.closed - PI / 2) < 1e-12
    assert abs(report.quad - PI / 2) < 1e-11


def test_verify_infinite_upper():
    one = verify_point(IntegrandSpec(2, 1, 1.0, 2.0), tol=1e-9)
    inf = verify_point(IntegrandSpec(2, 1, 1.0, 2.0, upper=math.inf), tol=1e-9)
    assert inf.verdict is Verdict.AGREE
    assert abs(inf.closed - 2.0 * one.closed) < 1e-13


def test_verify_imaginary_p():
    report = verify_point(IntegrandSpec(1, 1j, PI / 2, PI / 2), tol=1e-9)
    assert report.verdict is Verdict.AGREE
    assert report.pf is None and report.series is None
    assert report.closed is not None and report.quad is not None


@pytest.mark.parametrize("upper", [1.0, math.inf])
@pytest.mark.parametrize("theta", [1e-6, 0.3, 2.0, PI, 4.5, 2 * PI - 1e-6])
def test_quad_value_imaginary_p_against_mpmath(theta, upper):
    # the cosine part and the middle term of p = i*q together, against the
    # master formula at b = i*q/n
    mp = pytest.importorskip("mpmath")
    for n, q, zeta in ((0.7, 0.4, 0.3), (1.5, 3.0, 2.0), (3.2, 1.1, 1.4)):
        spec = IntegrandSpec(n, q * 1j, theta, zeta, upper=upper)
        got = quad_value(spec)
        with mp.workdps(30):
            a = mp.pi - mp.mpf(theta)
            b = 1j * mp.mpf(q) / mp.mpf(n)
            want = mp.re(mp.pi * mp.sin(a * b) / mp.sin(mp.pi * b)
                         - a * mp.cos(mp.mpf(zeta))) / (mp.sin(a) * n)
            want = float(2 * want if upper == math.inf else want)
        assert abs(got - want) <= 1e-12 * (1 + abs(want)), (n, q, zeta)


def test_verify_uncanonicalized_theta_disagrees():
    spec = IntegrandSpec(1, 0.5, PI / 2 + 2 * PI, PI / 2)
    report = verify_point(spec, tol=1e-9)
    assert report.verdict is Verdict.DISAGREE
    assert report.max_abs_err > 0.05


def test_verify_boundary_theta_pi():
    report = verify_point(IntegrandSpec(2, 1, PI, 1.0), tol=1e-9)
    assert report.verdict is Verdict.AGREE
    assert report.closed is not None and report.pf is not None
    assert report.series is None  # unusable that close to theta = pi


def test_paradox_periodicity_manifests():
    spec = IntegrandSpec(1, 0.5, PI / 2, PI / 2)
    report = paradox_periodicity(spec, k=1)
    assert report.mismatch > 0.05
    assert report.restored_mismatch < 1e-9
    assert report.shift_k == 1
    report = paradox_periodicity(IntegrandSpec(2, 1, 1.0, PI / 2), k=-1)
    assert report.mismatch > 0.05
    assert report.restored_mismatch < 1e-9


def test_paradox_periodicity_control_k_zero():
    report = paradox_periodicity(IntegrandSpec(1, 0.5, PI / 2, PI / 2), k=0)
    assert report.mismatch < 1e-9


@pytest.mark.parametrize("upper", [math.inf, 0.5])
def test_paradox_periodicity_needs_upper_limit_one(upper):
    # its oracle is the integral up to 1: another limit would be ignored
    with pytest.raises(CoshintError, match="upper limit 1"):
        paradox_periodicity(IntegrandSpec(1, 0.5, PI / 2, PI / 2, upper=upper), k=1)


def test_paradox_periodicity_needs_valid_spec():
    with pytest.raises(CoshintError):
        paradox_periodicity(IntegrandSpec(1, 0.5, PI / 2 + 2 * PI, PI / 2), k=1)


def test_paradox_imaginary_n_reports():
    report = paradox_imaginary_n(1.0, 0.5, PI / 2)
    assert abs(report.formula_value.imag) > 0.01
    assert abs(report.formula_value.real) < 1e-15
    assert math.isclose(report.pole_location, PI / 2, rel_tol=1e-12)
    report = paradox_imaginary_n(2.0, 1.0, 1.0)
    assert abs(report.formula_value.imag) > 0.01
    assert math.isclose(report.pole_location, 1.0, rel_tol=1e-12)


def test_paradox_imaginary_n_real_route_control():
    # identical numbers through the real-exponent route agree just fine
    report = verify_point(IntegrandSpec(1, 0.5, PI / 2, PI / 2), tol=1e-9)
    assert report.verdict is Verdict.AGREE


def test_analytic_continuation_grid():
    # complex angle a: formula matches the complex-kernel oracle on a 5x5 grid
    b = 0.37
    for re in np.linspace(-2.9, 2.9, 5):
        for im in np.linspace(-1.0, 1.0, 5):
            a = complex(re, im)
            want = eval_cosh_ratio(a, b).value
            got = quad_t_domain(a, b, PI / 2).value
            assert abs(got - want) < 1e-9


def test_lcg_sequence_frozen():
    g = Lcg64(42)
    assert [g.next_u64() for _ in range(3)] == [
        10481999410520546993,
        4159066171780167020,
        7615522811268512075,
    ]
    g = Lcg64(42)
    floats = [g.next_float() for _ in range(2)]
    assert floats == [0.5682303266439076, 0.2254634289477513]


def test_random_specs_reproducible():
    a = random_specs(10, 7)
    b = random_specs(10, 7)
    assert a == b
    for spec in a:
        assert 0.5 <= spec.n <= 4.0
        assert abs(complex(spec.p).real / spec.n) <= 0.95
        assert 0.05 <= spec.theta <= 2 * PI - 0.05
        assert 0.05 <= spec.zeta <= PI - 0.05


# ---------------------------------------------------------------------------
# route admission: _report calls no route that is certain to raise


def _try_every_route(spec: IntegrandSpec, tol: float) -> EvalReport:
    """verify_point as written before route admission: every route is
    tried under try/except, and one that raises is left out."""
    nf = normalize(spec)
    domain = classify_domain(spec)
    base = dict(spec=spec, normalized=nf, domain=domain, closed=None,
                pf=None, quad=None, series=None)
    if domain.kind in (DomainKind.SINGULAR_THETA, DomainKind.EXCLUDED):
        return EvalReport(**base, max_abs_err=0.0, verdict=Verdict.SKIPPED,
                          reason=domain.detail)
    values = {}
    if domain.kind is DomainKind.PARADOX_ONLY:
        values = verify._paradox_only_paths(spec, nf)
    else:
        paths = (("closed", lambda: closed_value(spec)),
                 ("pf", lambda: pf_value(spec)),
                 ("quad", lambda: quad_value(spec)),
                 ("series", lambda: series_value(spec, tol)))
        for name, path in paths:
            try:
                values[name] = path()
            except (CoshintError, ValueError):
                pass
    base.update(values)
    if len(values) < 2:
        return EvalReport(**base, max_abs_err=0.0, verdict=Verdict.SKIPPED,
                          reason="fewer than two evaluation routes are admissible")
    vals = list(values.values())
    max_err = max(abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:])
    verdict = Verdict.AGREE if max_err <= tol else Verdict.DISAGREE
    return EvalReport(**base, max_abs_err=max_err, verdict=verdict, reason=None)


def _admission_grid() -> list[IntegrandSpec]:
    specs = []
    for upper in (1.0, math.inf, 0.5):
        for n in (3.0, 2.5):
            for p in (1.0, -1.0, 0.7, 0.8j, 0.5 + 0.3j):
                for theta in (1.0, 5.0, 2 * PI + 1.0, -1.0, PI, 0.0, 2 * PI):
                    specs.append(IntegrandSpec(n=n, p=p, theta=theta, zeta=1.2,
                                               upper=upper))
    return specs


def _skipped_routes(spec: IntegrandSpec) -> set[str]:
    """The routes that admission leaves uncalled, by its three rules."""
    skipped = set()
    if spec.upper not in (1.0, math.inf):
        skipped |= {"closed", "series"}
    if complex(spec.p).imag != 0.0:
        skipped |= {"pf", "series"}
    if spec.n != round(spec.n):
        skipped.add("pf")
    return skipped


_ROUTES = {"closed": closed_value, "pf": pf_value, "series": series_value}


def test_admission_gives_the_reports_of_trying_every_route():
    specs = _admission_grid()
    expected = [repr(_try_every_route(s, 1e-9)) for s in specs]
    assert [repr(verify_point(s, 1e-9)) for s in specs] == expected
    assert [repr(r) for r in verify_points(specs, 1e-9)] == expected
    # the grid reaches every route pattern the rules can give
    assert {frozenset(_skipped_routes(s)) for s in specs} == {
        frozenset(), frozenset({"pf"}), frozenset({"closed", "series"}),
        frozenset({"pf", "series"}), frozenset({"closed", "pf", "series"})}


def test_routes_skipped_by_admission_raise_when_called_directly():
    for spec in _admission_grid():
        for name in _skipped_routes(spec):
            with pytest.raises((CoshintError, ValueError)):
                _ROUTES[name](spec)


def test_admission_leaves_skipped_routes_uncalled(monkeypatch):
    called = []

    def recorder(name, fn):
        def route(spec, *args):
            called.append((name, spec))
            return fn(spec, *args)
        return route

    monkeypatch.setattr(verify, "_closed_value", recorder("closed", verify._closed_value))
    monkeypatch.setattr(verify, "pf_value", recorder("pf", verify.pf_value))
    monkeypatch.setattr(verify, "series_value", recorder("series", verify.series_value))
    specs = [s for s in _admission_grid() if 0.0 < s.theta < 2 * PI]
    for s in specs:
        verify_point(s, 1e-9)
    verify_points(specs, 1e-9)
    assert called
    assert not [(name, s) for name, s in called if name in _skipped_routes(s)]


# ---------------------------------------------------------------------------
# the route table: one-row and block paths


def test_routes_follow_the_report_field_and_key_order():
    names = [route.name for route in verify.ROUTES]
    assert names == ["closed", "pf", "quad", "series"]
    fields = [f.name for f in dataclasses.fields(EvalReport)]
    assert fields[3:3 + len(names)] == names
    keys = list(report_to_dict(verify_point(IntegrandSpec(2, 1, 1.0, 2.0))))
    assert keys[3:3 + len(names)] == names


EXHAUSTING = IntegrandSpec(1.0, 0.5, 1e-170, 1.0)  # quadrature exhausts its budget


def _fallback_grid() -> list[IntegrandSpec]:
    """Specs that each route's block refuses or fails, among served ones."""
    specs = [EXHAUSTING, replace(EXHAUSTING, upper=math.inf)]
    for upper in (1.0, math.inf, 0.5):
        specs += [
            IntegrandSpec(65.0, 1.0, 1.0, 1.2, upper=upper),  # past _BLOCK_ROOTS
            IntegrandSpec(3.0, 1.0, PI + 1e-13, 1.2, upper=upper),
            IntegrandSpec(3.0, 1.0, PI - 1e-13, 1.2, upper=upper),
            IntegrandSpec(2.0, 1.0, PI - 1e-13, 1.2, upper=upper),  # no series budget
            IntegrandSpec(3.0, 1.0, 5e-4, 1.2, upper=upper),  # within THETA_EDGE
            IntegrandSpec(3.0, 1.0, 2 * PI - 5e-4, 1.2, upper=upper),
            IntegrandSpec(2.5, 0.7, 2 * PI - 5e-4, 1.2, upper=upper),
            IntegrandSpec(3.0, 0.5j, 1.0, 1.2, upper=upper),  # imaginary p
            IntegrandSpec(3.0, 1.0, 2.0, 1.2, upper=upper),  # served by every block
            IntegrandSpec(2.5, 0.7, 2.0, 1.2, upper=upper),
        ]
    return specs


def test_block_fallbacks_give_the_one_row_reports():
    specs = _fallback_grid()
    expected = [repr(verify_point(s, 1e-9)) for s in specs]
    assert [repr(r) for r in verify_points(specs, 1e-9)] == expected
    assert expected == [repr(_try_every_route(s, 1e-9)) for s in specs]


def _closed_corners() -> list[IntegrandSpec]:
    """Specs at the closed route's corners: b = 0 and near the poles at
    +-1, theta near 0, pi and 2*pi, both branches of |a| >= 1, upper 1
    and inf, and p that is imaginary or a complex with no imaginary part."""
    bs = [0.0, -0.0, 1e-9, 0.3, -0.7, 0.999999, 1.0 - 1e-11, -(1.0 - 1e-11)]
    thetas = [1e-17, 1e-13, 5e-13, 1e-12, 0.5, 2.0, PI - 1e-13, PI, PI + 1e-13, 4.5,
              2 * PI - 1e-12, 2 * PI - 1e-13, math.nextafter(2 * PI, 0.0)]
    specs = []
    for upper in (1.0, math.inf):
        for n in (1.0, 2.5):
            for p in [b * n for b in bs] + [0.5j, -2j, complex(0.5, 0.0)]:
                for theta in thetas:
                    specs.append(IntegrandSpec(n, p, theta, 2.9 if theta > 1 else 0.3, upper))
    return specs


def _columns(specs):
    """The route blocks' columns of the specs."""
    return verify._columns(*verify._fields(specs))


def _per_row(block, size: int) -> list:
    """A route block's columns per row: the value of a row it serves,
    None for a row it leaves to the one-row call, and an error for a row
    it refuses."""
    served, values, left = block
    rows: list = [CoshintError("refused by the block")] * size
    for i in left.tolist():
        rows[i] = None
    for i, value in zip(served.tolist(), values.tolist()):
        rows[i] = value
    return rows


def test_closed_block_equals_closed_value_bit_for_bit():
    specs = _closed_corners()
    block = _per_row(verify._closed_block(_columns(specs), 1e-9), len(specs))
    errors, branches = set(), set()
    for spec, got in zip(specs, block):
        try:
            want = closed_value(spec)
        except CoshintError as exc:
            errors.add(type(exc).__name__)
            assert got is None, spec  # a refused row is left to the scalar's error
            continue
        if isinstance(spec.p, complex):
            assert got is None, spec  # complex p: the one-row call
            continue
        assert type(got) is float and got.hex() == want.hex(), spec
        branches.add(abs(PI - spec.theta) >= 1.0)
    # near the poles, and at theta = 1e-17, where pi - theta rounds to pi;
    # theta within 1e-12 of 0 or 2*pi is served
    assert errors == {"NearPoleError", "DomainError"}
    assert branches == {False, True}
    reports = verify_points(specs, 1e-9)
    assert [repr(r) for r in reports] == [repr(verify_point(s, 1e-9)) for s in specs]


def test_series_block_equals_series_value_at_every_size(workload):
    # the series block runs on every grid, a one-spec grid included, and
    # serves its rows of 24 terms or more (past the series loop) as it does
    # the others: at every size from 1 to 20, with 0, 1 or 12 such rows,
    # each row must be series_value's bits
    def terms(spec):
        try:
            return series_contracted(spec.n, abs(spec.p), spec.theta, 0.25e-9).terms_used
        except CoshintError:
            return None

    short = [s for s in workload("random_unit", 1)[:60] if terms(s) is not None
             and terms(s) < 24][:20]
    # |b| near 1 with n small and theta near pi, or theta at the edges
    long = [IntegrandSpec(n, b * n, theta, 1.2, upper) for n, b, theta in [
        (0.01, 0.9, PI - 2e-6), (0.01, 0.99, PI - 1e-5), (0.05, 0.99, PI - 2e-6),
        (0.1, 0.999, PI - 2e-6), (1.0, 0.9999, 1.0001e-3), (1.0, 0.9999, 2 * PI - 1.0001e-3)]
        for upper in (1.0, math.inf)]
    assert len(short) == 20 and min(map(terms, long)) >= 24
    for size in range(1, 21):
        for count in sorted({min(count, size) for count in (0, 1, 12)}):
            specs = short[:size - count] + long[:count]
            block = _per_row(verify._series_block(_columns(specs), 1e-9), len(specs))
            assert [got.hex() for got in block] == \
                [series_value(spec, 1e-9).hex() for spec in specs], (size, count)
            reports = verify_points(specs, 1e-9)
            assert [repr(r) for r in reports] == [repr(verify_point(s, 1e-9)) for s in specs]


def test_series_block_refuses_the_theta_edges(workload, monkeypatch):
    # near_edge puts 288 of its 1000 thetas within THETA_EDGE of 0 or 2*pi,
    # from which series_value raises: the block refuses those rows itself,
    # so none of them builds a spec for the one-row call
    specs = workload("near_edge", 1)
    expected = [repr(verify_point(s, 1e-9)) for s in specs]
    reached = []

    def spy(spec, tol):
        reached.append(spec.theta)
        return series_value(spec, tol)

    monkeypatch.setattr(verify, "series_value", spy)
    reports = verify_points(specs, 1e-9)
    monkeypatch.undo()
    edge = [not verify.inside_theta_edges(s.theta) for s in specs]
    assert sum(edge) == 288
    assert all(r.series is None for r, at_edge in zip(reports, edge) if at_edge)
    assert all(verify.inside_theta_edges(theta) for theta in reached)
    assert [repr(r) for r in reports] == expected


def test_fallback_grid_reaches_every_block_outcome():
    specs = _fallback_grid()
    outcomes = {}
    g = _columns(specs)
    for route in verify.ROUTES:
        admitted = np.flatnonzero(np.broadcast_to(route.admits(g.n, g.q, g.upper), len(specs)))
        results = _per_row(route.block(g.take(admitted), 1e-9), len(admitted))
        outcomes[route.name] = {("error" if isinstance(r, Exception) else
                                 "none" if r is None else "value") for r in results}
    # the quadrature blocks serve imaginary p too, so they leave no row;
    # the closed block leaves imaginary p and the rows the strip refuses
    # (theta = 1e-170 rounds a = pi - theta to pi); the series block refuses
    # theta within THETA_EDGE of 0 or 2*pi and leaves a row without budget
    assert outcomes == {"closed": {"value", "none"}, "pf": {"value", "none"},
                        "quad": {"value", "error"}, "series": {"value", "none", "error"}}
    # the rows a block leaves are still served where the one-row call serves them
    reports = verify_points(specs, 1e-9)
    by_spec = dict(zip(specs, reports))
    assert by_spec[IntegrandSpec(65.0, 1.0, 1.0, 1.2, upper=0.5)].pf is not None
    assert by_spec[IntegrandSpec(3.0, 1.0, PI + 1e-13, 1.2)].pf is not None
    assert by_spec[IntegrandSpec(3.0, 0.5j, 1.0, 1.2, upper=math.inf)].quad is not None
    assert by_spec[EXHAUSTING].quad is None
    assert by_spec[IntegrandSpec(3.0, 1.0, 5e-4, 1.2)].series is None


def test_a_paradox_only_row_whose_formula_overflows_leaves_the_closed_route_out():
    # theta = 2**70 puts (pi - theta)*b beyond cmath.sin's range
    spec = IntegrandSpec(2.0, 0.5j, float(2 ** 70), 1.0)
    report = verify_point(spec, 1e-9)
    assert report.domain.kind is DomainKind.PARADOX_ONLY
    assert report.closed is None and report.quad is not None
    assert verify_points([spec], 1e-9) == [report]


def test_route_admission_is_one_expression_on_floats_and_columns():
    # the admission grid, and uppers and an n at the edges of params' predicates
    edges = [IntegrandSpec(3.0, 1.0, 1.0, 1.2, upper=u)
             for u in (0.25, 2.0, math.nextafter(1.0, 0.0), 5e-324)]
    edges += [IntegrandSpec(n, 1.0, 1.0, 1.2, upper=u) for u in (1.0, math.inf)
              for n in (math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0), 0.5)]
    specs = _admission_grid() + edges
    g = _columns(specs)
    for route in verify.ROUTES:
        mask = np.broadcast_to(route.admits(g.n, g.q, g.upper), len(specs))
        assert mask.tolist() == [bool(route.admits(s.n, complex(s.p).imag, s.upper))
                                 for s in specs], route.name


def test_verify_points_takes_specs_of_any_number_type_as_verify_point_does():
    # IntegrandSpec stores every field as a float (p a float or complex), so
    # numpy scalars, ints and bools all take the columns
    specs = [IntegrandSpec(np.float64(3.0), np.float64(1.0), np.float64(1.0), np.float64(1.2)),
             IntegrandSpec(3.0, np.float64(1.0), 1.0, 1.2, upper=math.inf),
             IntegrandSpec(3, 1, 1, 1, upper=math.inf), IntegrandSpec(3.0, True, 1.0, 1.2),
             IntegrandSpec(3.0, 1.0, 1.0, 1.2)]
    assert [repr(r) for r in verify_points(specs, 1e-9)] == \
        [repr(verify_point(s, 1e-9)) for s in specs]


# ---------------------------------------------------------------------------
# the grid core's column verdict against the one-row row


# route values per row (closed, pf, quad, series), None where absent: zeros
# of either sign, values whose sum overflows, values that are not finite,
# one route, no route, and spreads at and just past the tolerance
_TOL = 2.0 ** -30
_EDGE_VALUES = [
    (0.0, -0.0, None, None), (-0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, None, None),
    (-0.0, None, 0.0, 1e-300),
    (1e308, 1e308, -1e308, None), (1.7e308, 1.7e308, None, 1.7e308), (-1e308, 1e308, None, None),
    (math.inf, 1.0, None, None), (math.nan, 1.0, 2.0, None), (math.inf, math.inf, None, None),
    (-math.inf, None, None, math.nan),
    (1.0, None, None, None), (None, None, 2.5, None), (None, None, None, None),
    (1.0, 1.0 + _TOL, None, None), (1.0, None, 1.0 + 2 * _TOL, 1.0), (3.0, 3.0, 3.0, 3.0),
]


def _table_routes(table: dict) -> tuple:
    """Routes that give the values of ``table``, keyed by a spec's zeta:
    each block serves some rows, leaves some to the one-row call and
    refuses the others, and the one-row call raises where a value is None."""

    def value(j):
        def one_row(spec, form, tol):
            got = table[spec.zeta][j]
            if got is None:
                raise CoshintError("absent")
            return got
        return one_row

    def block(j):
        def rows(g, tol):
            keys = g.zeta.tolist()
            values = [table[key][j] for key in keys]
            left = [i for i, key in enumerate(keys) if (int(key) + j) % 3 == 0]
            served = [i for i, v in enumerate(values) if v is not None and i not in left]
            return (np.array(served, dtype=np.intp), np.array([values[i] for i in served]),
                    np.array(left, dtype=np.intp))
        return rows

    return tuple(verify.Route(route.name, route.admits, value(j), block(j))
                 for j, route in enumerate(verify.ROUTES))


def test_column_verdict_equals_the_one_row_verdict_on_edge_values(monkeypatch):
    # the column verdict takes max - min over the present values; Python's
    # max - min never yields -0.0, and a sum that overflows or a value that
    # is not finite must give what _row's pairwise maximum gives
    table = {float(k): values for k, values in enumerate(_EDGE_VALUES, 1)}
    specs = [IntegrandSpec(3.0, 1.0, 2.0, zeta) for zeta in table]
    monkeypatch.setattr(verify, "ROUTES", _table_routes(table))
    rows = verify.verify_rows(specs, _TOL)
    assert [repr(row) for row in rows] == [repr(verify._spec_row(s, _TOL)) for s in specs]
    spreads = {row[-3]: row[-2] for row in rows if row[-1] is None}  # max_abs_err: verdict
    assert spreads[_TOL] == "Agree" and spreads[2 * _TOL] == "Disagree"
    assert repr(rows[0][-3]) == "0.0" and rows[4][-3] == math.inf and rows[5][-3] == 0.0


def test_verify_rows_equals_the_one_row_rows_on_every_kind():
    # real routes: rows that each block leaves or refuses, a row with one
    # route (Skipped), unevaluated kinds (their detail is the reason) and a
    # paradox-only row, each row equal to verify_point's
    specs = _fallback_grid() + [
        IntegrandSpec(3.0, 1.0, 2.0, 1.2, upper=0.3),  # pf and quad at a finite X
        IntegrandSpec(2.5, 1.0, 2.0, 1.2, upper=0.3),  # quad alone: Skipped
        IntegrandSpec(3.0, 1.0, 0.0, 1.2), IntegrandSpec(3.0, 3.5, 2.0, 1.2),  # unevaluated
        IntegrandSpec(3.0, 1.0, 2.0 + 2 * PI, 1.2),  # paradox-only
    ]
    rows = verify.verify_rows(specs, 1e-9)
    assert [repr(row) for row in rows] == [repr(verify._spec_row(s, 1e-9)) for s in specs]
    kinds = {row[9]: row for row in rows}
    assert kinds["singular-theta"][-1] == kinds["singular-theta"][10]
    assert kinds["excluded"][-1] == kinds["excluded"][10]
    assert {row[-2] for row in rows} == {"Agree", "Skipped", "Disagree"}


def _constructed(report: EvalReport) -> EvalReport:
    """The report rebuilt by the dataclass constructors."""
    nf, domain = report.normalized, report.domain
    return EvalReport(report.spec, NormalizedForm(nf.a, nf.b, nf.c, nf.scale),
                      DomainStatus(domain.kind, domain.detail), report.closed, report.pf,
                      report.quad, report.series, report.max_abs_err, report.verdict,
                      report.reason)


def test_reports_filled_at_once_are_the_constructed_reports():
    # _report fills each frozen dataclass's dict at once; every class
    # behaviour must be the generated __init__'s: ==, hash, repr, fields,
    # replace and the refusal of assignment
    specs = _fallback_grid() + [
        IntegrandSpec(3.0, 1.0, 2.0, 1.2, upper=0.3),  # Skipped
        IntegrandSpec(3.0, 1.0, 0.0, 1.2),  # singular theta
        IntegrandSpec(3.0, 1.0, 2.0 + 2 * PI, 1.2),  # paradox-only
        IntegrandSpec(1, 1j, PI / 2, PI / 2),  # complex b
    ]
    for report in [verify_point(s) for s in specs] + verify_points(specs):
        built = _constructed(report)
        for got, want in ((report, built), (report.normalized, built.normalized),
                          (report.domain, built.domain)):
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert vars(got) == vars(want) and pickle.loads(pickle.dumps(got)) == want
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            name = dataclasses.fields(got)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, None)
        assert replace(report, quad=1.5) == replace(built, quad=1.5)
        assert replace(report, quad=1.5).quad == 1.5 and report.quad == built.quad
        assert replace(report.normalized, c=0.0) == replace(built.normalized, c=0.0)


def test_quad_results_filled_at_once_are_the_constructed_results():
    spec = IntegrandSpec(2.0, 0.5, 1.0, 1.0, upper=0.5)
    for result in (quad_x_domain(spec, 0.5), quad_x_domain(spec, 0.5, rule="gauss"),
                   quad_t_domain(0.5, 0.25, 1.0)):
        built = QuadResult(result.value, result.abs_err_estimate, result.evaluations)
        assert result == built and hash(result) == hash(built) and repr(result) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.value = 0.0


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
def test_a_nan_or_negative_tol_is_refused(tol):
    spec = IntegrandSpec(2.0, 0.5, 1.0, 1.0)
    for run in (lambda: verify_point(spec, tol), lambda: verify_points([spec], tol),
                lambda: verify.verify_rows([], tol)):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            run()


def test_tol_zero_and_inf_stay_valid():
    spec = IntegrandSpec(2.0, 1.0, 1.0, 1.0)
    assert verify_point(spec, math.inf).verdict is Verdict.AGREE
    assert verify_point(spec, math.inf).series is not None
    assert verify_point(spec, 0.0) == verify_points([spec], 0.0)[0]
