import math

import numpy as np
import pytest

from coshint import (
    BudgetExceededError,
    DomainError,
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
    quad_x_domain_many,
    rescale,
)
from coshint.quadrature import _Budget, _tanh_sinh_panel, integrate_finite

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
        quad_x_domain(IntegrandSpec(1, 0.2j, PI / 2, PI / 2), 1.0)


def test_two_rules_agree_on_random_specs():
    rng = np.random.RandomState(61)
    for _ in range(40):
        n = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-0.9, 0.9))
        theta = float(rng.uniform(0.3, 2 * PI - 0.3))
        zeta = float(rng.uniform(0.05, PI - 0.05))
        spec = IntegrandSpec(n, b * n, theta, zeta)
        ts = quad_x_domain(spec, 1.0)
        gl = quad_x_domain(spec, 1.0, rule="gauss")
        assert abs(ts.value - gl.value) <= 1e-12 * (1.0 + abs(ts.value))


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
        _tanh_sinh_panel(np.exp, 0.0, 1.0, 1e-15, budget)


def test_finite_rule_smooth_integrand():
    r = integrate_finite(np.sin, 0.0, PI)
    assert abs(r.value - 2.0) < 1e-13
    r = integrate_finite(np.sin, 0.0, PI, rule="gauss")
    assert abs(r.value - 2.0) < 1e-13


def test_unknown_rule_refused():
    spec = IntegrandSpec(1, 0.5, PI / 2, PI / 2)
    with pytest.raises(ValueError, match="'tanh-sinh' or 'gauss'"):
        quad_x_domain(spec, 1.0, rule="tanh_sinh")
    with pytest.raises(ValueError, match="'tanh-sinh' or 'gauss'"):
        integrate_finite(np.sin, 0.0, PI, rule="legendre")


def test_results_are_builtin_floats():
    spec = IntegrandSpec(1.5, 0.6, 2.0, 1.0)
    results = [quad_x_domain(spec, 1.0), quad_x_domain(spec, 0.5, rule="gauss"),
               quad_x_domain_infinite(spec), *quad_x_domain_many([spec, spec])]
    for r in results:
        assert type(r.value) is float
        assert type(r.abs_err_estimate) is float
