import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coshint import (
    BudgetExceededError,
    DomainError,
    DomainKind,
    IntegrandSpec,
    NonIntegrableError,
    PoleTooCloseError,
    eval_master,
    eval_sech_transform,
    normalize,
    quad_cos_log,
    quad_sec_antiderivative_check,
    quad_t_domain,
    quad_two_sided,
    quad_x_domain,
    quad_x_domain_infinite,
    quad_x_domain_infinite_many,
    quad_x_domain_many,
    random_specs,
    rescale,
)
import coshint.quadrature as quadrature
from coshint.quadrature import (
    _Budget,
    _gauss_panel,
    _t_kernel,
    _x_kernel_args,
    integrate_finite,
)

PI = math.pi


def test_sech_integral():
    r = quad_t_domain(PI / 2, 0.0, PI / 2)
    assert abs(r.value - PI / 2) < 1e-12
    assert r.abs_err_estimate < 1e-12 * (1.0 + abs(r.value))


def test_x_domain_known_values():
    r = quad_x_domain(IntegrandSpec(1, 0.0, PI / 2, PI / 2), 1.0)
    assert abs(r.value - PI / 2) < 1e-12
    r = quad_x_domain(IntegrandSpec(1, 0.5, PI / 2, PI / 2), 1.0)
    assert abs(r.value - PI / math.sqrt(2)) < 1e-12


def test_x_domain_partial_upper_consistency():
    # self-consistency across the two rule families at X = 0.5
    spec = IntegrandSpec(2, 0.7, 1.3, 2.1)
    ts = quad_x_domain(spec, 0.5)
    gl = quad_x_domain(spec, 0.5, rule="gauss")
    assert abs(ts.value - gl.value) <= 1e-12 * (1.0 + abs(ts.value))
    assert ts.abs_err_estimate < 1e-12 * (1.0 + abs(ts.value))


def test_x_domain_errors():
    with pytest.raises(NonIntegrableError):
        quad_x_domain(IntegrandSpec(1, 1.5, PI / 2, PI / 2), 1.0)
    with pytest.raises(ValueError):
        quad_x_domain(IntegrandSpec(1, 0.5, PI / 2, PI / 2), 1.5)
    with pytest.raises(DomainError):
        quad_x_domain(IntegrandSpec(1, 0.5, PI / 2 + 2 * PI, PI / 2), 1.0)
    with pytest.raises(DomainError):
        quad_x_domain(IntegrandSpec(1, 0.5 + 0.2j, PI / 2, PI / 2), 1.0)


def test_two_rules_agree_on_random_specs():
    rng = np.random.RandomState(61)
    specs = []
    for _ in range(40):
        n = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-0.9, 0.9))
        theta = float(rng.uniform(0.3, 2 * PI - 0.3))
        zeta = float(rng.uniform(0.05, PI - 0.05))
        specs.append(IntegrandSpec(n, b * n, theta, zeta))
    # criterion 4 checks X = 1 against X = inf, both on sinh maps: Gauss-
    # Legendre panels are the unrelated rule on criterion 1's grid
    for spec in specs + random_specs(500, seed=1):
        ts = quad_x_domain(spec, 1.0)
        gl = quad_x_domain(spec, 1.0, rule="gauss")
        assert abs(ts.value - gl.value) <= 1e-12 * (1.0 + abs(ts.value)), spec


def test_domain_equivalence_x_vs_t():
    rng = np.random.RandomState(67)
    for _ in range(100):
        n = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-0.95, 0.95))
        theta = float(rng.uniform(0.05, 2 * PI - 0.05))
        zeta = float(rng.uniform(0.05, PI - 0.05))
        spec = IntegrandSpec(n, b * n, theta, zeta)
        nf = normalize(spec)
        x_side = spec.n * quad_x_domain(spec, 1.0).value
        t_side = quad_t_domain(nf.a, nf.b, nf.c).value
        assert abs(x_side - t_side) <= 1e-11 * (1.0 + abs(t_side))


def test_scale_invariance():
    rng = np.random.RandomState(71)
    for _ in range(20):
        n = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-0.9, 0.9))
        theta = float(rng.uniform(0.1, 2 * PI - 0.1))
        zeta = float(rng.uniform(0.05, PI - 0.05))
        spec = IntegrandSpec(n, b * n, theta, zeta)
        base = quad_x_domain(spec, 1.0).value
        for lam in (2.0, 3.0, 0.5, 2.7):
            scaled = rescale(spec, lam).scaled
            got = quad_x_domain(scaled, 1.0).value
            assert abs(got - base / lam) <= 1e-11 * (1.0 + abs(base))


def test_two_sided_values():
    r = quad_two_sided(PI / 2, 0.0)
    assert abs(r.value - PI) < 1e-11
    r = quad_two_sided(PI / 2, 0.5)
    assert abs(r.value - 2 * PI / math.sqrt(2)) < 1e-10
    plus = quad_two_sided(1.0, 0.3).value
    minus = quad_two_sided(1.0, -0.3).value
    assert abs(plus - minus) < 1e-12
    with pytest.raises(DomainError):
        quad_two_sided(0.0, 0.3)
    with pytest.raises(DomainError):
        quad_two_sided(1.0, 1.0)


def test_two_sided_keeps_digits_near_a_equal_pi():
    # 1 + e^(-2|t|) + 2*cos(a)*e^(-|t|) cancels where |t| and pi - a are
    # both small; the exact value is 2*pi*sin(a*b) / (sin(a)*sin(pi*b))
    a = PI - 1e-2
    for b in (0.3, -0.7):
        want = 2.0 * PI * math.sin(a * b) / (math.sin(a) * math.sin(PI * b))
        got = quad_two_sided(a, b).value
        assert abs(got - want) <= 1e-13 * abs(want)


def test_cos_log_reduces_to_middle_term_at_q_zero():
    spec = IntegrandSpec(2, 0.0, 1.1, PI / 2)
    got = quad_cos_log(spec).value
    want = (PI - 1.1) / (2.0 * 2 * math.sin(1.1))
    assert abs(got - want) < 1e-11


def test_cos_log_matches_transform():
    spec = IntegrandSpec(1, 1j, PI / 2, PI / 2)
    got = quad_cos_log(spec).value
    want = 0.5 * eval_sech_transform(PI / 2, 1.0)
    assert abs(got - want) < 1e-11
    spec = IntegrandSpec(2, 1.5j, 1.0, PI / 2)
    got = quad_cos_log(spec).value
    want = eval_sech_transform(PI - 1.0, 1.5 / 2.0) / (2.0 * 2.0)
    assert abs(got - want) < 1e-10


def test_cos_log_infinite_doubles():
    one = quad_cos_log(IntegrandSpec(1, 1j, PI / 2, PI / 2)).value
    two = quad_cos_log(IntegrandSpec(1, 1j, PI / 2, PI / 2, upper=math.inf)).value
    assert abs(two - 2.0 * one) < 1e-10
    with pytest.raises(DomainError):
        quad_cos_log(IntegrandSpec(1, 0.5, PI / 2, PI / 2))


def test_infinite_upper_matches_doubling():
    spec = IntegrandSpec(1.5, 0.6, 2.0, 1.0)
    one = quad_x_domain(spec, 1.0).value
    inf = quad_x_domain_infinite(spec).value
    assert abs(inf - 2.0 * one) < 1e-10


def test_master_value_against_oracle_spot():
    r = quad_t_domain(1.0, 0.3, 2.0)
    assert abs(r.value - eval_master(1.0, 0.3, 2.0).value.real) < 1e-12


def test_frozen_oracle_values():
    # values recorded from an earlier two-rule-agreement run
    r = quad_t_domain(0.5, 0.9, PI / 2)  # slow-decay corner
    assert abs(r.value - 9.22361547722815) < 1e-11 * (1 + abs(r.value))
    r = quad_x_domain(IntegrandSpec(2, 0.7, 1.3, 2.1), 0.5)
    assert abs(r.value - 0.5172156162066599) < 1e-12


def test_sharply_peaked_theta_converges():
    # theta far below the acceptance envelope: the kernel peak reaches
    # ~2e5 while the value is ~7e2, probing the roundoff-plateau logic
    spec = IntegrandSpec(1.0, 0.5, 0.002, 1.0)
    q = quad_x_domain(spec, 1.0)
    closed = eval_master(math.pi - 0.002, 0.5, math.pi - 1.0).value.real
    assert abs(q.value - closed) <= 1e-10 * (1.0 + abs(closed))
    assert q.abs_err_estimate < 1e-12 * (1.0 + abs(closed)) * 10


def test_complex_kernel():
    a = 2.0 + 0.8j
    r = quad_t_domain(a, 0.37, PI / 2)
    want = eval_master(a, 0.37, PI / 2).value
    assert abs(r.value - want) < 1e-11


def test_sec_antiderivative_check():
    assert quad_sec_antiderivative_check(1.0, 0.0) == (0.0, 0.0)
    lhs, rhs = quad_sec_antiderivative_check(1.0, 1.0)
    assert abs(lhs - rhs) < 1e-11
    lhs, rhs = quad_sec_antiderivative_check(2.0, 0.7)
    assert abs(lhs - rhs) < 1e-11
    with pytest.raises(PoleTooCloseError):
        quad_sec_antiderivative_check(1.0, PI / 2)


def test_budget_is_enforced():
    budget = _Budget(limit=50)
    with pytest.raises(BudgetExceededError):
        _gauss_panel(np.exp, 0.0, 1.0, 1e-15, budget)


def test_finite_rule_smooth_integrand():
    r = integrate_finite(np.sin, 0.0, PI)
    assert abs(r.value - 2.0) < 1e-13


def test_unknown_rule_refused():
    spec = IntegrandSpec(1, 0.5, PI / 2, PI / 2)
    with pytest.raises(ValueError, match="'tanh-sinh' or 'gauss'"):
        quad_x_domain(spec, 1.0, rule="tanh_sinh")


@pytest.mark.parametrize("rule", ["tanh-sinh", "gauss"])
@pytest.mark.parametrize("X", [math.inf, 1.5, 0.0, -1.0, math.nan, None])
def test_x_outside_each_rules_range_refused(rule, X):
    # the trapezoid maps take X in (0, 1] and X = inf, the Gauss-Legendre
    # panels (0, 1] only; None is no upper limit
    spec = IntegrandSpec(1, 0.5, PI / 2, PI / 2)
    if X == math.inf and rule == "tanh-sinh":
        assert quad_x_domain(spec, X) == quad_x_domain_infinite(spec)
        return
    with pytest.raises(ValueError) as info:
        quad_x_domain(spec, X, rule=rule)
    assert str(info.value) == f"X must lie in (0, 1], got {X}"


def test_quad_cos_log_keeps_a_complex_b_at_q_zero(monkeypatch):
    # _x_kernel_args' b is the float 0.0 at q = 0; quad_cos_log passes the
    # kernel b = i*q/n, complex for every q, so its values keep their bits
    seen = []
    original = quadrature._t_kernel
    monkeypatch.setattr(quadrature, "_t_kernel",
                        lambda b, cos_c, sin2_half: seen.append(b) or original(b, cos_c, sin2_half))
    for upper in (1.0, math.inf):
        quad_cos_log(IntegrandSpec(2.0, 0j, 1.0, 1.0, upper=upper))
    assert [type(b) for b in seen] == [complex, complex] and seen == [0j, 0j]


def test_results_are_builtin_floats():
    spec = IntegrandSpec(1.5, 0.6, 2.0, 1.0)
    results = [quad_x_domain(spec, 1.0), quad_x_domain(spec, 0.5, rule="gauss"),
               quad_x_domain_infinite(spec), *quad_x_domain_many([spec, spec])]
    for r in results:
        assert type(r.value) is float
        assert type(r.abs_err_estimate) is float


def _master_mp(mp, spec):
    """30-digit value of the x-domain integral from 0 to 1 (b -> 0 limit built in)."""
    with mp.workdps(30):
        a = mp.pi - mp.mpf(spec.theta)
        b = mp.mpf(spec.p) / mp.mpf(spec.n)
        ratio = a / mp.pi if b == 0 else mp.sin(a * b) / mp.sin(mp.pi * b)
        return (mp.pi * ratio - a * mp.cos(mp.mpf(spec.zeta))) / (mp.sin(a) * spec.n)


def test_near_edge_oracle_against_mpmath():
    # theta within 1e-6 of 0 or 2*pi puts a Lorentzian of width theta at
    # s = 0; the double-exponential map clusters its nodes there
    mp = pytest.importorskip("mpmath")
    specs = [IntegrandSpec(n, b * n, theta, 1.0)
             for dist in (1e-3, 1e-4, 1e-5, 1e-6)
             for theta in (dist, 2 * PI - dist)
             for b in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99)
             for n in (0.5, 1.0, 3.7)]
    # seed 9001 of the near_edge benchmark workload: 1.0e-9 off on the
    # geometric tanh-sinh panels
    specs.append(IntegrandSpec(2.4613984747662725, 2.3050451637470295,
                               6.2812756701572905, 0.8740869025314117))
    block = quad_x_domain_many(specs)
    for spec, many in zip(specs, block):
        want = _master_mp(mp, spec)
        for got in (quad_x_domain(spec, 1.0).value, many.value):
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (spec, got)


def test_kernel_keeps_digits_where_s_and_theta_are_small():
    # 1 + e^(-2s) - 2*cos(theta)*e^(-s) is off by about 1e-6 relative here
    mp = pytest.importorskip("mpmath")
    s = np.array([0.5e-5, 1e-5, 2e-5])
    for theta in (1e-5, 2 * PI - 1e-5):
        for b in (0.0, 0.5, -0.9):
            spec = IntegrandSpec(1.0, b, theta, 1.0)
            kb, cos_c, sin2_half, _, _ = _x_kernel_args(spec, 1.0)
            got = _t_kernel(kb, cos_c, sin2_half)(s)
            with mp.workdps(30):
                for si, g in zip(s, got):
                    si = mp.mpf(si)
                    want = ((mp.cosh(b * si) - mp.cos(1.0))
                            / (mp.cosh(si) - mp.cos(mp.mpf(theta))))
                    assert abs(g - want) <= 1e-15 * abs(want), (spec, si)


def _master_30(spec: IntegrandSpec, mp) -> float:
    """The x-domain integral to 1 or inf by the master formula, 30 digits."""
    with mp.workdps(30):
        n = mp.mpf(spec.n)
        b = mp.mpf(spec.p) / n
        a, c = mp.pi - mp.mpf(spec.theta), mp.pi - mp.mpf(spec.zeta)
        ratio = a / mp.pi if b == 0 else mp.sin(a * b) / mp.sin(mp.pi * b)
        value = (mp.pi * ratio + a * mp.cos(c)) / (mp.sin(a) * n)
        return float(2 * value if spec.upper == math.inf else value)


def test_small_zeta_near_the_edges_is_served_to_full_accuracy():
    # cosh(b*s) - cos(zeta) is zeta**2 near s = 0: the kernel's numerator
    # must not cancel there, or theta near 0 or 2*pi (a kernel peaked at
    # s = 0) leaves levels that never agree
    mp = pytest.importorskip("mpmath")
    rng = random.Random(5)
    specs = []
    for _ in range(40):
        n, b = math.exp(rng.uniform(-2.0, 3.0)), rng.uniform(-0.99, 0.99)
        edge = 10.0 ** rng.uniform(-10.0, -4.0)
        theta = edge if rng.random() < 0.5 else 2 * PI - edge
        zeta = 10.0 ** rng.uniform(-4.0, -1.0)
        specs += [IntegrandSpec(n, b * n, theta, zeta, upper) for upper in (1.0, math.inf)]
    for spec, got in zip(specs, quad_x_domain_many(specs)):
        assert not isinstance(got, Exception), spec
        want = _master_30(spec, mp)
        assert abs(got.value - want) <= 1e-13 * (1.0 + abs(want)), spec


def test_range_far_out_keeps_relative_digits():
    # X**n near 1e-19 starts the s-range at s_X = 42, where the whole
    # kernel is of size e^(-s): e^(-s) must carry its own relative digits
    mp = pytest.importorskip("mpmath")
    for n, theta, zeta, X in ((19.0, 2.0950749287993684, 0.20897831022960084,
                               0.10798416775026774),
                              (8.0, 0.7, 1.3, 0.01)):
        got = quad_x_domain(IntegrandSpec(n, 0.0, theta, zeta), X).value
        with mp.workdps(30):
            cos_t, cos_z = mp.cos(mp.mpf(theta)), mp.cos(mp.mpf(zeta))
            want = mp.quad(lambda x: (2 - 2 * cos_z) * x ** (n - 1)
                           / (x ** (2 * n) - 2 * x ** n * cos_t + 1), [0, mp.mpf(X)])
        assert abs(got - want) <= 1e-12 * abs(want), (n, got, want)


def test_cos_log_near_edges_against_mpmath():
    # cos(q*s/n) = cosh(b*s) for b = i*q/n: the imaginary-p oracle runs on
    # the DE map, whose nodes cluster at the Lorentzian of width theta
    mp = pytest.importorskip("mpmath")
    for dist in (1e-3, 1e-4, 1e-5, 1e-6):
        for theta in (dist, 2 * PI - dist):
            for n in (0.5, 1.0, 3.7):
                for q in (0.0, 0.7, 3.0):
                    got = quad_cos_log(IntegrandSpec(n, q * 1j, theta, 1.0)).value
                    with mp.workdps(30):
                        a = mp.pi - mp.mpf(theta)
                        ratio = (a / mp.pi if q == 0.0 else
                                 mp.sinh(a * q / n) / mp.sinh(mp.pi * q / n))
                        want = mp.pi * ratio / (mp.sin(a) * 2 * n)
                    assert abs(got - want) <= 1e-12 * abs(want), (n, q, theta, got)
    spec = IntegrandSpec(1.0, 0.7j, 1.0, 1.0)
    one = quad_cos_log(spec).value
    two = quad_cos_log(replace(spec, upper=math.inf)).value
    assert abs(two - 2.0 * one) <= 1e-12 * abs(two)


def test_infinite_upper_near_edges_against_mpmath():
    # the kernel peaks at s = 0 with width eps = min(theta, 2*pi - theta)
    # (pi - |a| for quad_two_sided); the sinh map s = eps*sinh(U*tau)
    # spaces its nodes about eps*U*h apart there
    mp = pytest.importorskip("mpmath")
    dists = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    edge = [IntegrandSpec(n, b * n, theta, 1.0, upper=math.inf)
            for dist in dists
            for theta in (dist, 2 * PI - dist)
            for b in (0.0, 0.5, -0.5, 0.9, -0.95, 0.99)
            for n in (0.5, 3.7)]
    # rows of scale 1 in the same block
    middle = [IntegrandSpec(n, b * n, theta, 1.0, upper=math.inf)
              for theta in (1.0, 2.0, PI, 2 * PI - 1.0)
              for b in (0.0, 0.5, -0.95)
              for n in (0.5, 3.7)]
    specs = [s for pair in zip(edge, middle * 6) for s in pair]
    results = []
    for spec, many in zip(specs, quad_x_domain_infinite_many(specs)):
        one = quad_x_domain_infinite(spec)
        assert many == one, spec
        results.append((spec, one, 2 * _master_mp(mp, spec)))
    for dist in dists:
        for theta in (dist, 2 * PI - dist):
            for n in (0.5, 3.7):
                for q in (0.0, 0.7, 3.0):
                    spec = IntegrandSpec(n, q * 1j, theta, 1.0, upper=math.inf)
                    with mp.workdps(30):
                        a = mp.pi - mp.mpf(theta)
                        ratio = (a / mp.pi if q == 0.0 else
                                 mp.sinh(a * q / n) / mp.sinh(mp.pi * q / n))
                        want = mp.pi * ratio / (mp.sin(a) * n)
                    results.append((spec, quad_cos_log(spec), want))
    for dist in dists[:4]:
        for a in (PI - dist, dist - PI):
            for b in (0.0, 0.3, -0.7, 0.9):
                with mp.workdps(30):
                    am = mp.mpf(a)
                    want = (2 * am / mp.sin(am) if b == 0.0 else
                            2 * mp.pi * mp.sin(am * b) / (mp.sin(am) * mp.sin(mp.pi * b)))
                results.append(((a, b), quad_two_sided(a, b), want))
    for args, res, want in results:
        assert abs(res.value - want) <= 1e-12 * (1.0 + abs(want)), (args, res, want)
        assert res.evaluations <= 2049, (args, res)


def _imaginary_finite_x_specs() -> list[IntegrandSpec]:
    rng = np.random.RandomState(71)
    specs = []
    for _ in range(30):
        n = float(rng.uniform(0.5, 4.0))
        q = float(rng.uniform(-5.0, 5.0)) * n
        specs.append(IntegrandSpec(n, q * 1j, float(rng.uniform(0.05, 2 * PI - 0.05)),
                                   float(rng.uniform(0.05, PI - 0.05)),
                                   upper=float(rng.uniform(0.05, 0.95))))
    return specs


def test_imaginary_p_at_finite_x_against_mpmath():
    # p = i*q is the kernel at b = i*q/n: (cos(q*s/n) - cos(zeta)) /
    # (cosh(s) - cos(theta)) / n on [s_X, inf), on the DE map
    mp = pytest.importorskip("mpmath")
    for spec in _imaginary_finite_x_specs():
        got = quad_x_domain(spec, spec.upper).value
        assert type(got) is float
        with mp.workdps(30):
            n, q = mp.mpf(spec.n), mp.mpf(spec.p.imag)
            cos_t, cos_z = mp.cos(mp.mpf(spec.theta)), mp.cos(mp.mpf(spec.zeta))
            s_x = -n * mp.log(mp.mpf(spec.upper))
            want = mp.quad(lambda s: (mp.cos(q * s / n) - cos_z) / (mp.cosh(s) - cos_t) / n,
                           [s_x + k for k in range(0, 46, 5)])
        assert abs(got - want) <= 1e-12 * (1 + abs(want)), (spec, got, want)


def test_gauss_rule_agrees_for_imaginary_p():
    specs = _imaginary_finite_x_specs()[:10]
    specs += [replace(s, upper=1.0) for s in specs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex value cast to float warns
        for spec in specs:
            ts = quad_x_domain(spec, spec.upper)
            gl = quad_x_domain(spec, spec.upper, rule="gauss")
            assert type(gl.value) is float and type(gl.abs_err_estimate) is float
            assert abs(ts.value - gl.value) <= 1e-12 * (1.0 + abs(ts.value)), spec


def test_x_kernel_args_takes_a_purely_imaginary_p():
    # b = i*q/n, whose tails decay as e^(-s); theta must still lie inside the turn
    b, cos_c, sin2_half, s_x, decay = _x_kernel_args(IntegrandSpec(2, -3j, 1.0, 0.5), 0.5)
    assert b == -1.5j and decay == 1.0 and s_x == -2 * math.log(0.5)
    with pytest.raises(DomainError):
        quad_x_domain(IntegrandSpec(1, 0.2j, PI / 2 + 2 * PI, PI / 2), 1.0)


@pytest.mark.parametrize("theta", [1e-170, 1e-200, 5e-324])
def test_unresolvable_theta_raises_without_warnings(theta):
    # sin(theta/2)**2 underflows to 0, so the kernel is inf at s = 0 and
    # its sums are inf or NaN: no level may pass, and numpy may not warn
    real = IntegrandSpec(1.0, 0.5, theta, 1.0)
    imag = IntegrandSpec(1.0, 0.5j, theta, 1.0)
    real_inf, imag_inf = replace(real, upper=math.inf), replace(imag, upper=math.inf)
    calls = [lambda: quad_x_domain(real, 1.0), lambda: quad_cos_log(imag),
             lambda: quad_x_domain_infinite(real_inf), lambda: quad_cos_log(imag_inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(BudgetExceededError):
                call()
        for res in quad_x_domain_many([real]) + quad_x_domain_infinite_many([real_inf]):
            assert isinstance(res, BudgetExceededError)


@pytest.mark.parametrize("fn, args", [
    (quad_two_sided, (math.nan, 0.3)),
    (quad_two_sided, (1.0, math.nan)),
    (quad_t_domain, (math.nan, 0.3, 1.0)),
    (quad_t_domain, (1.0, math.nan, 1.0)),
    (quad_t_domain, (1.0, 0.3, math.nan)),
    (eval_master, (math.nan, 0.3, 1.0)),
    (eval_master, (1.0, math.nan, 1.0)),
    (eval_master, (1.0, 0.3, math.nan)),
    (quad_t_domain, (complex(1.0, math.nan), 0.3, 1.0)),
    (quad_t_domain, (1.0, complex(0.3, math.nan), 1.0)),
    (eval_master, (complex(1.0, math.nan), 0.3, 1.0)),
    (eval_master, (1.0, complex(0.3, math.nan), 1.0)),
    (quad_t_domain, (complex(1.0, math.inf), 0.3, 1.0)),
    (eval_master, (1.0, complex(0.3, -math.inf), 1.0)),
    (quad_t_domain, (1.0, 0.3, math.inf)),
    (quad_t_domain, (1.0, 0.3, -math.inf)),
    (eval_master, (1.0, 0.3, math.inf)),
    (eval_master, (1.0, 0.3, -math.inf)),
], ids=lambda v: v.__name__ if callable(v) else "-".join(map(str, v)))
def test_nan_parameters_refused(fn, args):
    # abs(nan) >= bound is False: each check must be written as not < bound;
    # a NaN or infinite imaginary part passes a test on the real part, and
    # cos(inf) is a math domain error, not a DomainError
    with pytest.raises(DomainError):
        fn(*args)


def _map(name):
    """Stage table, t window, first step, last level and node-table map t -> table."""
    q = quadrature
    m, lo, hi, to_table = {"de": (q._DE, q._DE_TMIN, q._DE_TMAX, lambda t: np.exp(t - np.exp(-t))),
                           "folded": (q._FOLDED, 0.0, 1.0, lambda t: t),
                           "sinh": (q._TWO_SIDED, -1.0, 1.0, lambda t: t)}[name]
    return lambda level: m.stage(m.h0, level), lo, hi, m.h0, m.last_level, to_table


def _grid(lo, hi, h):
    return lo + h * np.arange(round((hi - lo) / h) + 1)


@pytest.mark.parametrize("name", ["de", "sinh", "folded"])
def test_stage_tables_nest_into_uniform_grids(name):
    # the first kernel round's table is the grid of its last level, in
    # segments: the grids before _MIN_LEVEL, then the nodes each tested
    # level adds; each later round adds the nodes of one level, as one
    # segment; the segments up to level L are the grid of step h0/2**L,
    # each node once; the folded map weighs its node at tau = 0 by 1/2
    stage, lo, hi, h0, last, to_table = _map(name)
    if name == "folded":
        for level in range(quadrature._FIRST_ROUND_LEVEL, last + 1):
            tau, weight, _ = stage(level)
            assert weight.tolist() == np.where(tau == 0.0, 0.5, 1.0).tolist()
            assert (weight == 0.5).sum() == (level == quadrature._FIRST_ROUND_LEVEL)
    first_level, min_level = quadrature._FIRST_ROUND_LEVEL, quadrature._MIN_LEVEL
    first, starts = stage(first_level)[0], stage(first_level)[-1]
    assert len(starts) == first_level - min_level + 2
    segments = [first[a:b] for a, b in zip(starts, starts[1:] + (first.size,))]
    for level in range(first_level + 1, last + 1):
        assert stage(level)[-1] == (0,), level
        segments.append(stage(level)[0])
    for level, upto in zip(range(min_level - 1, last + 1), range(1, len(segments) + 1)):
        got = np.sort(np.concatenate(segments[:upto]))
        want = to_table(_grid(lo, hi, h0 / 2 ** level))
        assert got.size == want.size and np.all(np.diff(got) > 0), level
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)


def test_first_round_evaluates_the_level_3_grid_in_one_kernel_call(monkeypatch):
    # levels 2 and 3 are both tested from the sums of one kernel call, so a
    # row that stops at either level makes one call, and evaluations count
    # the kernel's samples: 169 on the DE map (X < 1), 129 on the folded
    # sinh map (X = 1) and 65 on the sinh map (X = inf), whose kernel runs
    # once per |tau| of its 129 nodes
    sizes = []
    original = quadrature._t_kernel

    def counting(b, cos_c, sin2_half):
        f = original(b, cos_c, sin2_half)

        def g(s):
            sizes.append(s.size)
            return f(s)

        return g

    monkeypatch.setattr(quadrature, "_t_kernel", counting)
    cases = [(lambda s: quad_x_domain(s, s.upper), 169, 169, [
                 IntegrandSpec(1.5, 0.6, 2.0, 1.0, upper=0.9),  # stops at level 3
                 IntegrandSpec(5.0, 2.0, 2.0, 1.0, upper=0.5)]),  # stops at level 2
             (lambda s: quad_x_domain(s, s.upper), 129, 129, [
                 IntegrandSpec(2.0, 1.9, 1e-3, 1.0),  # level 3
                 IntegrandSpec(1.5, 0.6, 2.0, 1.0)]),  # level 2
             (quad_x_domain_infinite, 65, 65, [
                 IntegrandSpec(5.0, 2.0, 2.0, 1.0, upper=math.inf),  # level 3
                 IntegrandSpec(1.0, 0.0, 2.0, 1.0, upper=math.inf)])]  # level 2
    for oracle, nodes, kernel_nodes, specs in cases:
        for spec in specs:
            sizes.clear()
            assert oracle(spec).evaluations == nodes, spec
            assert sizes == [kernel_nodes], spec


def test_near_edge_rows_make_one_kernel_call(monkeypatch):
    # the folded sinh map's scale is the width of the kernel's peak at
    # s = 0, so rows near the edges stop on its level-3 grid, as wide
    # peaks do
    sizes = []
    original = quadrature._t_kernel

    def counting(b, cos_c, sin2_half):
        f = original(b, cos_c, sin2_half)

        def g(s):
            sizes.append(s.size)
            return f(s)

        return g

    monkeypatch.setattr(quadrature, "_t_kernel", counting)
    for spec in (IntegrandSpec(2, 1.9, 1e-3, 1), IntegrandSpec(1, 0.5, 1e-6, 1),
                 IntegrandSpec(1, 0.5, 2 * PI - 1e-6, 1)):
        sizes.clear()
        assert quad_x_domain(spec).evaluations == 129, spec
        assert sizes == [129], spec


def test_evaluations_count_the_grid_of_the_last_level():
    counts = {}
    for name in ("de", "sinh", "folded"):
        _, lo, hi, h0, last, _ = _map(name)
        counts[name] = [_grid(lo, hi, h0 / 2 ** level).size for level in range(2, last + 1)]
    de = [quad_x_domain(IntegrandSpec(1.0, 0.5, theta, 1.0), X)
          for theta, X in ((2.0, 0.5), (1e-2, 0.99), (1e-4, 0.9999), (1e-6, 1.0 - 1e-9))]
    folded = [quad_x_domain(IntegrandSpec(1.0, 0.5, theta, 1.0), 1.0)
              for theta in (2.0, 1e-6, 1e-12, 1e-150)]
    sinh = [quad_x_domain_infinite(IntegrandSpec(1.0, b, theta, 1.0, upper=math.inf))
            for b, theta in ((0.5, 2.0), (0.5, 0.2), (0.5, 2e-2), (0.5, 1e-8), (-0.995, 2.0))
            ] + [quad_two_sided(1.0, 0.3)]
    for name, results in (("de", de), ("sinh", sinh), ("folded", folded)):
        levels = [counts[name].index(r.evaluations) for r in results]
        assert len(set(levels)) > 1, (name, levels)  # more than one level reached


def test_x_kernel_args_classifies_only_a_theta_outside_the_turn(monkeypatch):
    classify = quadrature.classify_domain
    calls = []

    def counted(spec):
        calls.append(spec)
        return classify(spec)

    monkeypatch.setattr(quadrature, "classify_domain", counted)
    for theta in (5e-324, 1e-300, 1.0, math.pi, math.nextafter(2 * math.pi, 0.0)):
        spec = IntegrandSpec(2.0, -0.5, theta, 1.0)
        assert classify(spec).kind in (DomainKind.VALID, DomainKind.BOUNDARY_A)
        for X in (1.0, 0.5, math.inf):
            quadrature._x_kernel_args(spec, X)
    assert calls == []
    outside = (0.0, -0.0, 2 * math.pi, -1.0, 2 * math.pi + 1.0, 6 * math.pi, -2 * math.pi)
    for theta in outside:
        spec = IntegrandSpec(2.0, 0.5, theta, 1.0)
        with pytest.raises(DomainError) as info:
            quadrature._x_kernel_args(spec, 1.0)
        assert str(info.value) == f"spec not integrable as given: {classify(spec).detail}"
    assert len(calls) == len(outside)


def _inline_t_kernel(beta, sin2_zeta, sin2_half):
    """_t_kernel as one inline expression: the reference for its steps in place."""

    def f(ns):
        x = np.expm1(ns)
        em = np.exp(ns)
        y = np.exp(0.5 * (1.0 - beta) * ns) * np.expm1(beta * ns)
        return (y * y + 4.0 * sin2_zeta * em) / (x * x + 4.0 * sin2_half * em)

    return f


@pytest.mark.parametrize("beta", [0.0, 0.37, 0.999, 0.5j, 3.0j])
@pytest.mark.parametrize("sin2_half", [0.25, 1e-30, 0.0, np.cos(0.5 * (1.0 + 0.5j)) ** 2])
def test_kernel_steps_in_place_give_the_inline_bits(beta, sin2_half):
    # the kernel takes its products and sums in place where the dtypes
    # allow (a complex sin2_half, from quad_t_domain's complex a, meets a
    # real beta): a lone row's 1-D nodes and a block's (rows x nodes)
    # table must give the inline expression's bits, inf and NaN included
    ns = -np.abs(np.concatenate([np.linspace(-40.0, 40.0, 1001), [0.0, -1e-300, -800.0]]))
    block = (np.array([[beta], [0.5 * beta]]), np.array([[0.3], [0.9]]),
             np.array([[sin2_half], [0.5]]), ns - np.array([[0.0], [1e-3]]))
    with np.errstate(all="ignore"):
        for args in ((beta, 0.3, sin2_half, ns), block):
            got = quadrature._t_kernel(*args[:3])(args[3])
            want = _inline_t_kernel(*args[:3])(args[3])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
