import cmath
import math

import numpy as np
import pytest

from coshint import (
    BranchError,
    DomainError,
    ExcludedError,
    IntegrandSpec,
    NotIntegerExponentsError,
    antiderivative_term,
    decompose,
    eval_master,
    eval_theta_pi_limit,
    fraction_coefficient,
    integral_at,
    integral_closed,
    integrand_value,
    middle_term_integral,
    normalize,
    quad_x_domain,
    reconstruct,
    root_angles,
    squared_denominator_identity,
)

PI = math.pi

# From the quadrature oracle, frozen before these tests were written.
ORACLE_ANTIDER_25_07 = 0.26222690515538594
ORACLE_INT_AT_3_1_1_2_06 = 0.3004165500214968


def test_root_angles_examples():
    assert root_angles(2, PI / 2) == [PI / 4, PI / 4 + PI]
    assert root_angles(1, 1.0) == [1.0]
    for w in root_angles(4, 2.0):
        assert abs(math.cos(4 * w) - math.cos(2.0)) < 1e-12


def test_root_angles_residual_property():
    rng = np.random.RandomState(2)
    for _ in range(100):
        n = int(rng.randint(1, 65))
        theta = float(rng.uniform(0.01, 2 * PI - 0.01))
        angles = root_angles(n, theta)
        assert len(angles) == n
        assert all(0.0 < w < 2 * PI for w in angles)
        for w in angles:
            assert abs(math.cos(n * w) - math.cos(theta)) < 1e-12
            assert abs(math.sin(n * w) - math.sin(theta)) < 1e-12


def test_fraction_coefficient_example():
    spec = IntegrandSpec(2, 1, PI / 2, PI / 2)
    assert math.isclose(fraction_coefficient(PI / 4, spec), 0.5, rel_tol=1e-14)


def test_fraction_coefficient_vanishes():
    spec = IntegrandSpec(3, 2, 1.0, 2.0)
    omega = 1.0  # cos(p*omega) == cos(zeta)
    assert abs(fraction_coefficient(omega, spec)) < 1e-15


def residue_quotient(spec, omega):
    """Ratio of differentiated numerator and denominator at x = e^(i*omega)."""
    x = cmath.exp(1j * omega)
    p = complex(spec.p).real
    num = (x ** p + x ** (-p) - 2 * math.cos(spec.zeta)) * (x - 1 / x)
    den = spec.n * (x ** spec.n - x ** (-spec.n))
    return num / den


def test_fraction_coefficient_matches_residue():
    rng = np.random.RandomState(19)
    for _ in range(60):
        n = int(rng.randint(1, 12))
        p = int(rng.randint(0, n))
        theta = float(rng.uniform(0.1, 2 * PI - 0.1))
        if abs(theta - PI) < 1e-3:
            continue
        zeta = float(rng.uniform(0.0, PI))
        spec = IntegrandSpec(n, p, theta, zeta)
        for omega in root_angles(n, theta):
            q = residue_quotient(spec, omega)
            assert abs(q.imag) < 1e-11
            assert abs(q.real - fraction_coefficient(omega, spec)) < 1e-11


def test_decompose_single_term():
    d = decompose(IntegrandSpec(1, 0, 1.3, 0.8))
    assert len(d.terms) == 1
    assert math.isclose(d.terms[0].coeff, 2.0 * (1.0 - math.cos(0.8)), rel_tol=1e-13)


def test_decompose_example():
    d = decompose(IntegrandSpec(2, 1, PI / 2, PI / 2))
    assert [round(t.omega, 7) for t in d.terms] == [0.7853982, 3.9269908]
    assert all(math.isclose(t.coeff, 0.5, rel_tol=1e-12) for t in d.terms)


def test_decompose_errors():
    with pytest.raises(NotIntegerExponentsError):
        decompose(IntegrandSpec(2, 0.5, 1.0, 1.0))
    with pytest.raises(NotIntegerExponentsError):
        decompose(IntegrandSpec(2.5, 1, 1.0, 1.0))
    with pytest.raises(ExcludedError):
        decompose(IntegrandSpec(2, 3, 1.0, 1.0))
    with pytest.raises(DomainError):
        decompose(IntegrandSpec(2, 1, PI, 1.0))


def test_reconstruct_matches_integrand():
    cases = [
        IntegrandSpec(1, 0, 1.0, 2.0),
        IntegrandSpec(2, 1, PI / 2, PI / 2),
        IntegrandSpec(5, 3, 2.2, 0.4),
    ]
    for spec in cases:
        d = decompose(spec)
        for x in (0.1, 0.5, 0.9):
            got = reconstruct(d, x)
            want = integrand_value(spec, x)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_reconstruct_random_specs():
    rng = np.random.RandomState(31)
    for _ in range(60):
        n = int(rng.randint(1, 33))
        p = int(rng.randint(0, n))
        theta = float(rng.uniform(0.05, 2 * PI - 0.05))
        if abs(theta - PI) < 1e-3:
            continue
        zeta = float(rng.uniform(0.0, PI))
        spec = IntegrandSpec(n, p, theta, zeta)
        d = decompose(spec)
        for x in rng.uniform(0.05, 0.95, size=20):
            want = integrand_value(spec, float(x))
            assert abs(reconstruct(d, float(x)) - want) <= 1e-12 * (1.0 + abs(want))


def test_antiderivative_endpoints():
    assert antiderivative_term(1.1, 0.0) == 0.0
    assert math.isclose(antiderivative_term(PI / 2, 1.0), PI / 4, rel_tol=1e-14)
    for omega in (0.3, 1.5, PI, 4.0, 6.0):
        assert math.isclose(antiderivative_term(omega, 1.0), (PI - omega) / 2,
                            rel_tol=0, abs_tol=1e-13)


def test_antiderivative_against_oracle():
    assert abs(antiderivative_term(2.5, 0.7) - ORACLE_ANTIDER_25_07) < 1e-13


def test_antiderivative_continuity_in_x():
    for omega in (0.2, 2.0, PI, 4.5, 6.1):
        xs = np.linspace(0.0, 1.0, 400)
        vals = [antiderivative_term(omega, float(x)) for x in xs]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.05  # no branch jumps of size ~pi


def test_antiderivative_branch_error():
    with pytest.raises(BranchError):
        antiderivative_term(-0.1, 0.5)
    with pytest.raises(BranchError):
        antiderivative_term(2 * PI, 0.5)
    with pytest.raises(ValueError):
        antiderivative_term(1.0, 1.5)


def test_integral_at_values():
    assert abs(integral_at(IntegrandSpec(2, 1, PI / 2, PI / 2), 1e-12)) < 1e-9
    got = integral_at(IntegrandSpec(2, 1, PI / 2, PI / 2), 1.0)
    assert math.isclose(got, PI / (2 * math.sqrt(2)), rel_tol=1e-13)
    got = integral_at(IntegrandSpec(3, 1, 1.0, 2.0), 0.6)
    assert abs(got - ORACLE_INT_AT_3_1_1_2_06) < 1e-12


def test_integral_closed_values():
    got = integral_closed(IntegrandSpec(1, 0, PI / 2, PI / 2))
    assert math.isclose(got, PI / 2, rel_tol=1e-14)
    got = integral_closed(IntegrandSpec(2, 1, PI / 2, PI / 2))
    assert math.isclose(got, PI / (2 * math.sqrt(2)), rel_tol=1e-13)
    one = integral_closed(IntegrandSpec(2, 1, 1.0, 2.0))
    inf = integral_closed(IntegrandSpec(2, 1, 1.0, 2.0, upper=math.inf))
    assert inf == 2.0 * one


def test_integral_closed_infinite_matches_oracle():
    from coshint import quad_x_domain_infinite
    for spec in (IntegrandSpec(2, 1, 1.0, 2.0, upper=math.inf),
                 IntegrandSpec(5, 3, 2.2, 0.4, upper=math.inf)):
        got = integral_closed(spec)
        oracle = quad_x_domain_infinite(spec).value
        assert abs(got - oracle) < 1e-10


def test_integral_closed_theta_pi_limit_path():
    got = integral_closed(IntegrandSpec(2, 1, PI, 0.7))
    want = (eval_theta_pi_limit(0.5).value.real - math.cos(0.7)) / 2.0
    assert math.isclose(got, want, rel_tol=1e-13)


def test_assembly_matches_master_formula():
    thetas = (0.3, PI / 2, PI, 2.8)
    zetas = (0.1, PI / 2, 3.0)
    for n in range(1, 21):
        for p in range(0, n):
            for theta in thetas:
                for zeta in zetas:
                    spec = IntegrandSpec(n, p, theta, zeta)
                    nf = normalize(spec)
                    want = nf.scale * eval_master(nf.a, nf.b, nf.c).value.real
                    got = integral_closed(spec)
                    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_path_independence():
    rng = np.random.RandomState(43)
    for _ in range(40):
        n = int(rng.randint(1, 21))
        p = int(rng.randint(0, n))
        theta = float(rng.uniform(0.1, 2 * PI - 0.1))
        if abs(theta - PI) < 1e-3:
            continue
        zeta = float(rng.uniform(0.0, PI))
        spec = IntegrandSpec(n, p, theta, zeta)
        assert abs(integral_at(spec, 1.0) - integral_closed(spec)) < 1e-11


def test_middle_term_integral_values():
    assert math.isclose(middle_term_integral(1, PI / 2), PI / 4, rel_tol=1e-14)
    assert math.isclose(middle_term_integral(2, PI / 2), PI / 8, rel_tol=1e-14)
    assert math.isclose(middle_term_integral(1, PI), 0.5, rel_tol=1e-12)
    # against quadrature of the matching two-term numerator spec
    for n, theta in ((1, 1.0), (2, 2.6), (3, 0.4)):
        spec = IntegrandSpec(n, 0.0, theta, PI / 2)
        quad = 0.5 * quad_x_domain(spec, 1.0).value
        assert abs(middle_term_integral(n, theta) - quad) < 1e-11


@pytest.mark.parametrize("theta", [1e-6, 1.001e-3, 0.05, 2.0, PI - 1e-7, PI + 1e-3,
                                   4.0, 2 * PI - 1.001e-3, 2 * PI - 1e-6])
def test_middle_term_integral_full_precision(theta):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        t = mp.mpf(theta)
        want = (mp.pi - t) / (2 * mp.mpf(1.5) * mp.sin(t))
        # the value grows like 1/theta near the edges; its digits must not drop
        assert abs(middle_term_integral(1.5, theta) - want) <= 4e-16 * abs(want)


def test_squared_denominator_identity():
    lhs, rhs = squared_denominator_identity(2, 1, 1e-8)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8
    lhs, rhs = squared_denominator_identity(2, 1, 1.0)
    assert abs(lhs - rhs) < 1e-10
    assert math.isclose(lhs, PI / 4, rel_tol=1e-11)  # value of both sides at X=1
    lhs, rhs = squared_denominator_identity(3, 1.4, 0.8)
    assert abs(lhs - rhs) < 1e-10
