import cmath
import math

import numpy as np
import pytest

from coshint import (
    DomainError,
    IntegrandSpec,
    LimitApplied,
    NearPoleError,
    closed_value,
    eval_cosh_ratio,
    eval_master,
    eval_sec_case,
    eval_sech2_transform,
    eval_sech_transform,
    eval_split_cos_form,
    eval_split_form,
    eval_tan_case,
    eval_theta_pi_limit,
)

PI = math.pi

# Expected values for the nontrivial points were computed beforehand with
# the quadrature oracle (its trapezoid maps and Gauss-Legendre panels in
# agreement).
ORACLE_S_1_03_2 = 0.8692204098517001
ORACLE_P_1_03 = 1.3637672736893718
ORACLE_SECH_HALF_PI_1 = 0.6260201656260737
ORACLE_SECH_1_2 = 0.05057319255208624
ORACLE_SPLIT_2_HALF = 1.4809609793861218
ORACLE_SPLIT_E_HALF = 1.3930118454725418
ORACLE_SPLIT_COS_2_1 = 0.11587735477718376
ORACLE_TAN_THIRD = 0.9068996821171084


def test_master_sech_value():
    cv = eval_master(PI / 2, 0.0, PI / 2)
    assert abs(cv.value - PI / 2) < 1e-14
    assert cv.limit_applied is LimitApplied.B_ZERO


def test_master_a_zero():
    cv = eval_master(0.0, 0.5, PI / 2)
    assert abs(cv.value - PI / 2) < 1e-14
    assert cv.limit_applied is LimitApplied.A_ZERO


def test_master_generic_point():
    cv = eval_master(1.0, 0.3, 2.0)
    assert abs(cv.value - ORACLE_S_1_03_2) < 1e-13
    assert cv.limit_applied is LimitApplied.NONE


def test_master_both_limits():
    cv = eval_master(0.0, 0.0, 1.0)
    assert abs(cv.value - (1.0 + math.cos(1.0))) < 1e-14
    assert cv.limit_applied is LimitApplied.BOTH


def test_master_strip_rejection():
    with pytest.raises(DomainError):
        eval_master(PI, 0.5, 1.0)
    with pytest.raises(DomainError):
        eval_master(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        eval_master(3.5 + 1j, 0.5, 1.0)


def test_master_near_pole():
    with pytest.raises(NearPoleError):
        eval_master(1.0, 1.0 - 1e-12, 1.0)
    eval_master(1.0, 0.999999, 1.0)  # still representable


def test_cosh_ratio_examples():
    assert abs(eval_cosh_ratio(PI / 2, 0.5).value - PI / math.sqrt(2)) < 1e-13
    assert abs(eval_cosh_ratio(2.0, 1e-12).value - 2.0 / math.sin(2.0)) < 1e-13
    assert abs(eval_cosh_ratio(1.0, 0.3).value - ORACLE_P_1_03) < 1e-13


def test_cosh_ratio_is_exact_specialization():
    rng = np.random.RandomState(11)
    for _ in range(10_000):
        a = rng.uniform(-PI + 1e-6, PI - 1e-6)
        b = rng.uniform(-0.999, 0.999)
        if abs(math.sin(PI * b)) < 1e-10 and abs(b) >= 1e-8:
            continue
        p = eval_cosh_ratio(a, b).value
        s = eval_master(a, b, PI / 2).value
        assert abs(p - s) < 1e-13 * (1.0 + abs(p))


def test_cosh_ratio_reflection_symmetries():
    rng = np.random.RandomState(5)
    for _ in range(300):
        a = rng.uniform(0.01, PI - 0.01)
        b = rng.uniform(-0.95, 0.95)
        base = eval_cosh_ratio(a, b).value
        assert abs(eval_cosh_ratio(a, -b).value - base) < 1e-13 * (1 + abs(base))
        assert abs(eval_cosh_ratio(-a, b).value - base) < 1e-13 * (1 + abs(base))


def test_cosh_ratio_imaginary_b_matches_sech_transform():
    for a in np.linspace(0.2, PI - 0.2, 7):
        for q in np.linspace(-3.0, 3.0, 7):
            via_p = eval_cosh_ratio(float(a), 1j * float(q)).value
            direct = eval_sech_transform(float(a), float(q))
            assert abs(via_p - direct) < 1e-12 * (1 + abs(direct))


def test_limit_continuity_toward_a_zero():
    b = 0.37
    target = eval_theta_pi_limit(b).value.real
    diffs = [abs(eval_cosh_ratio(10.0 ** -k, b).value.real - target)
             for k in range(3, 9)]
    for earlier, later in zip(diffs, diffs[1:]):
        assert later <= earlier + 1e-15
    assert diffs[-1] < 1e-14


def test_real_inputs_give_real_values():
    rng = np.random.RandomState(23)
    for _ in range(500):
        a = rng.uniform(-PI + 0.01, PI - 0.01)
        b = rng.uniform(-0.95, 0.95)
        c = rng.uniform(0.0, 2 * PI)
        v = eval_master(a, b, c).value
        assert abs(v.imag) < 1e-13 * (1.0 + abs(v.real))


def test_sec_case_values():
    assert eval_sec_case(0.0) == PI / 2
    assert abs(eval_sec_case(0.5) - PI / math.sqrt(2)) < 1e-14
    assert abs(eval_sec_case(2.0 / 3.0) - PI) < 1e-13
    with pytest.raises(DomainError):
        eval_sec_case(1.0)


def test_sec_case_matches_cosh_ratio():
    for b in np.linspace(-0.9, 0.9, 19):
        sec = eval_sec_case(float(b))
        via_master = eval_cosh_ratio(PI / 2, float(b)).value.real
        assert abs(sec - via_master) <= 1e-13 * (1 + abs(sec))


def test_tan_case_values():
    assert eval_tan_case(0.0) == 0.0
    assert abs(eval_tan_case(0.5) - PI / 2) < 1e-14
    assert abs(eval_tan_case(1.0 / 3.0) - ORACLE_TAN_THIRD) < 1e-13
    with pytest.raises(DomainError):
        eval_tan_case(-1.0)


def test_sech_transform_values():
    assert abs(eval_sech_transform(PI / 2, 1e-13) - PI / 2) < 1e-13
    assert abs(eval_sech_transform(PI / 2, 1.0) - ORACLE_SECH_HALF_PI_1) < 1e-13
    assert abs(eval_sech_transform(1.0, 2.0) - ORACLE_SECH_1_2) < 1e-13
    # classical identity at a = pi/2: (pi/2)*sech(pi*q/2)
    for q in (0.5, 1.0, 2.0):
        assert math.isclose(eval_sech_transform(PI / 2, q),
                            PI / (2.0 * math.cosh(PI * q / 2.0)), rel_tol=1e-13)
    with pytest.raises(DomainError):
        eval_sech_transform(0.0, 1.0)
    with pytest.raises(DomainError):
        eval_sech_transform(PI, 1.0)


def test_sech2_transform_values():
    assert eval_sech2_transform(0.0) == 1.0
    assert math.isclose(eval_sech2_transform(1.0), PI / math.sinh(PI), rel_tol=1e-14)
    assert eval_sech2_transform(-1.0) == eval_sech2_transform(1.0)


def test_theta_pi_limit_values():
    assert eval_theta_pi_limit(0.0).value == 1.0
    assert abs(eval_theta_pi_limit(0.5).value - PI / 2) < 1e-14
    expected = PI * 0.9 / math.sin(PI * 0.9)
    assert abs(eval_theta_pi_limit(0.9).value - expected) < 1e-13
    with pytest.raises(NearPoleError):
        eval_theta_pi_limit(1.0 - 1e-12)


def test_theta_pi_limit_agrees_with_small_a():
    for b in (0.1, 0.37, 0.8):
        limit = eval_theta_pi_limit(b).value.real
        near = eval_cosh_ratio(1e-6, b).value.real
        assert abs(limit - near) < 1e-5


def test_split_form_values():
    assert abs(eval_split_form(1.0, 0.4).value
               - eval_theta_pi_limit(0.4).value) < 1e-13
    assert abs(eval_split_form(2.0, 0.5).value - ORACLE_SPLIT_2_HALF) < 1e-13
    assert abs(eval_split_form(math.e, 0.5).value - ORACLE_SPLIT_E_HALF) < 1e-13
    with pytest.raises(DomainError):
        eval_split_form(-2.0, 0.5)


def test_split_form_principal_branch():
    f = cmath.exp(0.4 + 0.9j)
    got = eval_split_form(f, 0.3).value
    phi = cmath.log(f)
    expected = (PI * (cmath.exp(phi * 0.3) - cmath.exp(-phi * 0.3))
                / ((f - 1 / f) * cmath.sin(PI * 0.3)))
    assert abs(got - expected) < 1e-12 * (1 + abs(expected))


def test_split_cos_form_values():
    assert math.isclose(eval_split_cos_form(2.0, 1e-13),
                        math.log(2.0) / (2.0 - 0.5), rel_tol=1e-12)
    assert abs(eval_split_cos_form(math.exp(PI), 1.0)) < 1e-15
    assert abs(eval_split_cos_form(2.0, 1.0) - ORACLE_SPLIT_COS_2_1) < 1e-13
    with pytest.raises(DomainError):
        eval_split_cos_form(0.0, 1.0)


def test_closed_value_keeps_digits_near_the_edges():
    # 1/sinc(pi - theta) loses about 3e-16/theta relative as theta nears 0
    # or 2*pi, 1e-9 at theta = 1e-7; sin(theta) keeps every digit
    mp = pytest.importorskip("mpmath")
    for dist in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for theta in (dist, 2 * PI - dist):
            for b in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99):
                for n in (0.5, 1.0, 3.7):
                    spec = IntegrandSpec(n, b * n, theta, 1.0)
                    with mp.workdps(30):
                        a = mp.pi - mp.mpf(theta)
                        bb = mp.mpf(spec.p) / n
                        ratio = a / mp.pi if bb == 0 else mp.sin(a * bb) / mp.sin(mp.pi * bb)
                        want = (mp.pi * ratio - a * mp.cos(1.0)) / (mp.sin(a) * n)
                    got = closed_value(spec)
                    assert abs(got - want) <= 1e-13 * abs(want), (spec, got)


def test_master_theta_path_leaves_the_middle_untouched():
    # within 1 of theta = pi the master value keeps dividing by sinc(a)
    for theta in (PI - 0.999, 2.5, PI, 3.9, PI + 0.999):
        a = PI - theta
        for b in (0.0, 0.3, -0.95):
            assert (eval_master(a, b, 2.0, theta=theta).value
                    == eval_master(a, b, 2.0).value)
