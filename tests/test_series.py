import math

import numpy as np
import pytest

from coshint import (
    SlowConvergenceError,
    ToleranceUnreachableError,
    eval_cosh_ratio,
    eval_sech_transform,
    series_contracted,
    series_imaginary,
    series_one_sided,
    sine_series_partial,
)

PI = math.pi

# Frozen one-sided values from the quadrature oracle (x**p kernel on (0, 1]).
ORACLE_ONESIDED_2_1_T1 = 0.430207848993075
ORACLE_ONESIDED_1_09_T25 = 0.22615076094387707


def test_sine_series_leading_term():
    assert sine_series_partial(0.8, 0.0, 5) == math.sin(0.8)


def test_sine_series_converges_to_rational_form():
    got = sine_series_partial(PI / 2, 0.5, 60)
    assert abs(got - 0.8) < 1e-15  # sin(t)/(1-2*0.5*cos(t)+0.25) at t = pi/2
    theta, x = 1.0, -0.9
    got = sine_series_partial(theta, x, 400)
    want = math.sin(theta) / (1.0 - 2.0 * x * math.cos(theta) + x * x)
    assert abs(got - want) < 0.9 ** 400 / (1 - 0.9) + 1e-12


def test_one_sided_anchor_case():
    res = series_one_sided(1.0, 0.0, PI / 2, 1e-8)
    assert abs(res.value - PI / 4) < 1e-12
    assert res.terms_used == 0  # pure anchor, no residual terms needed
    assert res.accelerated


def test_one_sided_matches_oracle():
    res = series_one_sided(2.0, 1.0, 1.0, 1e-8)
    assert abs(res.value - ORACLE_ONESIDED_2_1_T1) < 1e-8
    assert res.tail_estimate <= 1e-9
    res = series_one_sided(1.0, 0.9, 2.5, 1e-8)
    assert abs(res.value - ORACLE_ONESIDED_1_09_T25) < 1e-8


def test_contracted_values():
    res = series_contracted(1.0, 0.5, PI / 2, 1e-8)
    assert abs(res.value - PI / math.sqrt(2)) < 1e-8
    res = series_contracted(1.0, 1e-9, 1.0, 1e-8)
    assert abs(res.value - (PI - 1.0) / math.sin(1.0)) < 1e-8
    res = series_contracted(3.0, 2.0, 2.0, 1e-8)
    want = eval_cosh_ratio(PI - 2.0, 2.0 / 3.0).value.real / 3.0
    assert abs(res.value - want) < 1e-8


def test_contracted_within_budget():
    rng = np.random.RandomState(13)
    for _ in range(20):
        n = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-0.9, 0.9))
        theta = float(rng.uniform(0.1, 2 * PI - 0.1))
        res = series_contracted(n, b * n, theta, 1e-8)
        assert res.terms_used <= 100_000
        want = eval_cosh_ratio(PI - theta, b).value.real / n
        assert abs(res.value - want) < 1e-8


def test_imaginary_values():
    res = series_imaginary(1.0, 1e-9, 1.3, 1e-8)
    assert abs(res.value - (PI - 1.3) / math.sin(1.3)) < 1e-8
    res = series_imaginary(1.0, 1.0, PI / 2, 1e-8)
    assert abs(res.value - PI * math.sinh(PI / 2) / math.sinh(PI)) < 1e-8
    res = series_imaginary(2.0, 1.5, 1.2, 1e-8)
    want = eval_sech_transform(PI - 1.2, 0.75) / 2.0
    assert abs(res.value - want) < 1e-8


def test_imaginary_matches_closed_form_randomly():
    rng = np.random.RandomState(37)
    for _ in range(20):
        n = float(rng.uniform(0.5, 3.0))
        q = float(rng.uniform(-3.0, 3.0))
        theta = float(rng.uniform(0.1, 2 * PI - 0.1))
        res = series_imaginary(n, q, theta, 1e-8)
        want = (PI * math.sinh(q * (PI - theta) / n)
                / (n * math.sin(theta) * math.sinh(q * PI / n))
                if q != 0 else (PI - theta) / (n * math.sin(theta)))
        assert abs(res.value - want) < 1e-8


def test_pairing_identity():
    rng = np.random.RandomState(41)
    for _ in range(10):
        n = float(rng.uniform(0.5, 2.5))
        b = float(rng.uniform(0.05, 0.85))
        theta = float(rng.uniform(0.3, 2 * PI - 0.3))
        tol = 1e-8
        paired = series_contracted(n, b * n, theta, tol)
        plus = series_one_sided(n, b * n, theta, tol)
        minus = series_one_sided(n, -b * n, theta, tol)
        assert abs(paired.value - (plus.value + minus.value)) < 2 * tol


def test_theta_edge_refused():
    with pytest.raises(SlowConvergenceError):
        series_contracted(1.0, 0.5, 5e-4, 1e-8)
    with pytest.raises(SlowConvergenceError):
        series_one_sided(1.0, 0.5, 2 * PI - 1e-4, 1e-8)


def test_tol_floor_refused():
    with pytest.raises(ValueError):
        series_contracted(1.0, 0.5, 1.0, 1e-12)


def test_tolerance_unreachable():
    with pytest.raises(ToleranceUnreachableError):
        series_contracted(1.0, 0.9, 1.5e-3, 1e-10)


def test_tail_estimate_is_honest():
    res = series_contracted(1.0, 0.7, 2.0, 1e-8)
    want = eval_cosh_ratio(PI - 2.0, 0.7).value.real
    assert abs(res.value - want) <= res.tail_estimate + 1e-12


def _bound(variant, n, p, theta, k):
    """The Dirichlet bound after k - 1 residual terms, written out per variant."""
    b = p / n
    scale = 1.0 / (n * abs(math.sin(theta)) * abs(math.sin(0.5 * theta)))
    if variant is series_one_sided:
        return scale * abs(b) / (k * (k + b))
    if variant is series_contracted:
        return 2.0 * scale * b * b / (k * (k * k - b * b))
    return 2.0 * scale * b * b / (k * (k * k + b * b))


@pytest.mark.parametrize("variant", [series_one_sided, series_contracted,
                                     series_imaginary])
def test_terms_used_is_minimal(variant):
    rng = np.random.RandomState(53)
    tol = 1e-7
    for _ in range(30):
        n = float(rng.uniform(0.5, 3.0))
        p = float(rng.uniform(-0.95, 0.95)) * n
        theta = float(rng.uniform(0.5, 2 * PI - 0.5))
        res = variant(n, p, theta, tol)
        k = res.terms_used
        assert _bound(variant, n, p, theta, k + 1) <= 0.1 * tol * (1 + 1e-12)
        assert math.isclose(res.tail_estimate, _bound(variant, n, p, theta, k + 1),
                            rel_tol=1e-12)
        if k > 0:
            assert _bound(variant, n, p, theta, k) > 0.1 * tol * (1 - 1e-12)


def test_sum_beyond_one_chunk_matches_closed_sum():
    n, b, theta = 1.0, 0.9, 0.02
    res = series_contracted(n, b * n, theta, 1e-8)
    assert res.terms_used > 8192
    want = eval_cosh_ratio(PI - theta, b).value.real / n
    assert abs(res.value - want) <= res.tail_estimate + 1e-12


def test_unreachable_refused_before_summing(monkeypatch):
    def no_sin(*args, **kwargs):
        raise AssertionError("a term was summed")

    monkeypatch.setattr("coshint.series.np.sin", no_sin)
    with pytest.raises(ToleranceUnreachableError):
        series_contracted(1.0, 0.9, 1.5e-3, 1e-10)
