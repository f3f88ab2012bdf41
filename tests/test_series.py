import math

import numpy as np
import pytest

from coshint import (
    IntegrandSpec,
    SlowConvergenceError,
    ToleranceUnreachableError,
    eval_cosh_ratio,
    eval_sech_transform,
    series_contracted,
    series_imaginary,
    series_one_sided,
    sine_series_partial,
)
from coshint import series
from coshint.series import anchor_sums

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


@pytest.mark.parametrize("variant", [series_one_sided, series_contracted,
                                     series_imaginary])
def test_nan_tol_refused(variant):
    with pytest.raises(ValueError, match="tol = nan"):
        variant(1.0, 0.5, 1.0, math.nan)


def test_tolerance_unreachable():
    # the one-sided sum keeps the single anchor: its bound needs ~2.8e8 terms
    with pytest.raises(ToleranceUnreachableError):
        series_one_sided(1.0, 0.9, 1.5e-3, 1e-10)


def _mp_contracted(n, p, theta):
    """The closed sum of series_contracted at the exact float inputs, 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        n, p, t = mp.mpf(n), mp.mpf(p), mp.mpf(theta)
        b = p / n
        if b == 0:
            return (mp.pi - t) / (n * mp.sin(t))
        return mp.pi * mp.sin(b * (mp.pi - t)) / (n * mp.sin(t) * mp.sin(b * mp.pi))


def test_contracted_served_where_one_anchor_was_unreachable():
    res = series_contracted(1.0, 0.9, 1.5e-3, 1e-10)
    assert res.terms_used < 100
    assert abs(res.value - _mp_contracted(1.0, 0.9, 1.5e-3)) <= res.tail_estimate
    assert res.tail_estimate <= 1e-11


def test_tail_estimate_is_honest():
    res = series_contracted(1.0, 0.7, 2.0, 1e-8)
    want = eval_cosh_ratio(PI - 2.0, 0.7).value.real
    assert abs(res.value - want) <= res.tail_estimate + 1e-12


# the weight b**(2J+2) of the remainder, and its decay k**-(2J+3)
WEIGHT_POWER = 2 * series.EXTRA_ANCHORS + 2
DECAY = WEIGHT_POWER + 1


def _contracted_rounding(n, p, theta):
    """series_contracted's rounding bound, written out."""
    b = p / n
    _, sizes = anchor_sums(theta)
    size = sum(b ** (2 * j) * s for j, s in enumerate(sizes))
    remainder_size = abs(math.sin(theta)) / (1.0 - b * b) + series._COEF_SUM
    return 2.0 / (n * abs(math.sin(theta))) * 2.0 ** -53 * (
        series._ROUNDING_ULPS * (size + b ** WEIGHT_POWER * remainder_size)
        + b ** WEIGHT_POWER * theta * series._ARG_SUM)


def _bound(variant, n, p, theta, k):
    """The Dirichlet bound after k - 1 residual terms, written out per variant."""
    b = p / n
    scale = 1.0 / (n * abs(math.sin(theta)) * abs(math.sin(0.5 * theta)))
    if variant is series_one_sided:
        return scale * abs(b) / (k * (k + b))
    if variant is series_contracted:
        # the remainder left by the anchors S_1..S_{2J+1}, plus their rounding
        return (2.0 * scale * b ** WEIGHT_POWER / (k ** (DECAY - 2) * (k * k - b * b))
                + _contracted_rounding(n, p, theta))
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
    # one-sided sums still run past one chunk; their pair is the contracted sum
    n, b, theta = 1.0, 0.9, 0.2
    plus = series_one_sided(n, b * n, theta, 1e-7)
    minus = series_one_sided(n, -b * n, theta, 1e-7)
    assert min(plus.terms_used, minus.terms_used) > 8192
    want = eval_cosh_ratio(PI - theta, b).value.real / n
    assert (abs(plus.value + minus.value - want)
            <= plus.tail_estimate + minus.tail_estimate + 1e-12)


def test_unreachable_refused_before_summing(monkeypatch):
    def no_sin(*args, **kwargs):
        raise AssertionError("a term was summed")

    monkeypatch.setattr("coshint.series.np.sin", no_sin)
    with pytest.raises(ToleranceUnreachableError):
        series_one_sided(1.0, 0.9, 1.5e-3, 1e-10)


def test_contracted_refused_at_pi_before_summing(monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("a term was summed")

    monkeypatch.setattr("coshint.series._sine_sum", no_sum)
    with pytest.raises(ToleranceUnreachableError):
        # at theta = math.pi the rounding of k*theta, amplified by
        # 1/sin(theta), is above the target by itself
        series_contracted(1.0, 0.5, PI, 1e-10)


ANCHOR_THETAS = [1.001e-3, 0.3, 1.0, PI / 2, 2.0, PI - 1e-5, PI, PI + 1e-5,
                 4.5, 3 * PI / 2, 6.0, 2 * PI - 1.001e-3]


@pytest.mark.parametrize("theta", ANCHOR_THETAS)
def test_anchors_match_polylog(theta):
    mp = pytest.importorskip("mpmath")
    sums, sizes = anchor_sums(theta)
    assert len(sums) == series.EXTRA_ANCHORS + 1
    with mp.workdps(30):
        for j, (got, size) in enumerate(zip(sums, sizes)):
            want = mp.polylog(2 * j + 1, mp.expj(mp.mpf(theta))).imag
            # S_{2j+1}(theta) = Im Li_{2j+1}(e^{i*theta}), to a few roundings
            # of the polynomial's terms, which shrink with the sum (at most
            # 5x it over a 4001-point grid of theta)
            assert abs(got - want) <= 4 * 2.0 ** -53 * size
            assert size <= 6 * abs(want)


def test_anchor_coefficients_are_correctly_rounded():
    # S_{2m+1} in theta: c_i = (-1)**i*zeta(2m - 2i)/(2i + 1)! and
    # e = (-1)**m*pi/(2*(2m)!); in y = pi - theta: c_i = (-1)**i*eta(2m - 2i)/(2i + 1)!,
    # eta(2j) = (1 - 2**(1 - 2j))*zeta(2j); zeta(0) = -1/2.  Each float is
    # within half an ulp of its value, to 50 digits
    mp = pytest.importorskip("mpmath")
    assert len(series._THETA_FORMS) == len(series._PI_FORMS) == series.EXTRA_ANCHORS + 1
    with mp.workdps(50):
        def near(got, want):
            return abs(mp.mpf(got) - want) <= mp.mpf(math.ulp(got)) / 2

        for m in range(series.EXTRA_ANCHORS + 1):
            zetas = [mp.zeta(2 * (m - i)) / mp.factorial(2 * i + 1) * (-1) ** i
                     for i in range(m + 1)]
            etas = [(1 - mp.mpf(2) ** (1 - 2 * (m - i))) * z for i, z in enumerate(zetas)]
            for (odd, even, even_abs), want_odd, want_even in (
                    (series._THETA_FORMS[m], zetas, (-1) ** m * mp.pi / (2 * mp.factorial(2 * m))),
                    (series._PI_FORMS[m], etas, mp.mpf(0))):
                assert len(odd) == m + 1
                for (c, c_abs), want in zip(odd, reversed(want_odd)):
                    assert c_abs == abs(c) and near(c, want), (m, c)
                assert even_abs == abs(even) and near(even, want_even), (m, even)


def test_bernoulli_table_is_exact():
    mp = pytest.importorskip("mpmath")
    for j, (num, den) in enumerate(series._BERNOULLI):
        assert num * mp.bernfrac(2 * j)[1] == mp.bernfrac(2 * j)[0] * den


HONESTY_THETAS = [1.001e-3, 0.01, 0.5, PI - 2e-6, PI + 2e-6, PI - 1e-4,
                  PI + 1e-4, 3.0, 2 * PI - 1.001e-3]
HONESTY_BS = [0.0, 1e-3, -1e-3, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99]


@pytest.mark.parametrize("theta", HONESTY_THETAS)
def test_contracted_value_within_its_estimate(theta):
    pytest.importorskip("mpmath")
    served = 0
    for b in HONESTY_BS:
        for n in (0.5, 1.0, 3.7):
            try:
                res = series_contracted(n, b * n, theta, 2.5e-10)
            except ToleranceUnreachableError:
                continue
            served += 1
            assert abs(res.value - _mp_contracted(n, b * n, theta)) <= res.tail_estimate
            assert res.tail_estimate <= 2.5e-11
    assert served > 0


# (variant, n, p or q, theta, tol) -> (value, terms_used, tail_estimate),
# exactly as the series driver returned them when these were recorded; the
# three deep sums as its numpy chunks add their terms left to right
FROZEN_SERIES = [
    # b = 0: the anchors alone, K - 1 = 0 terms; the estimate is the rounding
    (series_contracted, (1.3, 0.0, 1.1, 1e-8),
     (1.762166649149424, 0, 6.503348894828462e-15)),
    (series_one_sided, (1.0, 0.0, 2.0, 1e-8), (0.6277333575962291, 0, 0.0)),
    # past 8192 terms, so the sum runs in chunks
    (series_one_sided, (1.0, 0.9, 0.2, 1e-7),
     (5.771423902433319, 67361, 9.99999994563509e-09)),
    # |b| near 1, where the c_1 term carries 1/(1 - b**2)
    (series_contracted, (1.0, 0.999, 0.7, 1e-9),
     (1002.8974270687571, 6, 9.604245102396227e-11)),
    (series_contracted, (2.5, -2.4975, 4.0, 1e-10),
     (399.7039506173211, 7, 2.8341679025757106e-12)),
    # large r = q/n
    (series_imaginary, (0.5, 15.0, 1.0, 1e-8),
     (3.815034647547843e-10, 20741, 9.999755749948753e-10)),
    (series_imaginary, (0.4, 12.0, 5.0, 1e-9),
     (2.973583400313551e-11, 42801, 9.999812542074423e-11)),
]


@pytest.mark.parametrize("variant, args, want", FROZEN_SERIES)
def test_frozen_series_outputs(variant, args, want):
    res = variant(*args)
    assert (res.value, res.terms_used, res.tail_estimate) == want


def test_frozen_unreachable_message():
    with pytest.raises(ToleranceUnreachableError) as info:
        series_contracted(1.0, 0.5, PI, 1e-10)
    assert str(info.value) == ("tail bound 1.1609140611615028e-06 still above "
                               "1.0000000000000001e-11 after 100000 terms")


# ---------------------------------------------------------------------------
# _contracted_rows: the block form of series_contracted

BLOCK_TOL = 0.25e-9  # verify.series_value's tol at the default AGREE_TOL


def _bits(res):
    """A SeriesResult's fields, or a block row's (value, terms_used,
    tail_estimate), as bits."""
    if isinstance(res, tuple):
        return (res[0].hex(), res[1], res[2].hex())
    return (res.value.hex(), res.terms_used, res.tail_estimate.hex())


def _block(n, p, theta, tol) -> list:
    """_contracted_rows on the rows' columns: per row, the columns
    (value, terms_used, tail_estimate) of a row it serves, else None."""
    rows: list = [None] * len(n)
    served, *columns = series._contracted_rows(n, p, theta, tol)
    for i, *row in zip(served.tolist(), *(x.tolist() for x in columns)):
        rows[i] = tuple(row)
    return rows


def _block_against_scalar(rows, tol=BLOCK_TOL):
    """Run rows of (n, p, theta) as one block and one by one.

    The block must serve every row that the scalar serves within the
    block's width (terms_used <= _WIDTH), in its plain loop or in one numpy
    chunk, and equal the scalar call there bit for bit; the others are
    None.  Returns {terms_used or the error class: count} of the scalar
    calls.
    """
    n, p, theta = zip(*rows)
    block = _block(n, p, theta, tol)
    assert len(block) == len(rows)
    seen = {}
    for row, got in zip(rows, block):
        try:
            want = series_contracted(*row, tol)
        except (SlowConvergenceError, ToleranceUnreachableError, ValueError) as exc:
            assert got is None, row
            seen[type(exc)] = seen.get(type(exc), 0) + 1
            continue
        seen[want.terms_used] = seen.get(want.terms_used, 0) + 1
        if want.terms_used <= series._WIDTH:
            assert got is not None, row
            assert _bits(got) == _bits(want), row
        else:
            assert got is None, row
    return seen


@pytest.mark.parametrize("name, seed, served", [
    ("random_unit", 1, 1000), ("integer_inf", 1, 2000),
    ("near_edge", 1, 712), ("near_edge", 2, 713), ("near_edge", 9001, 712),
    ("random_unit", 2, 1000), ("random_unit", 9001, 1000),
    ("integer_inf", 2, 2000), ("integer_inf", 9001, 2000)])
def test_block_equals_scalar_on_workload(workload, name, seed, served):
    rows = [(s.n, abs(s.p), s.theta) for s in workload(name, seed)]
    seen = _block_against_scalar(rows)
    terms = sorted(k for k, v in seen.items() if isinstance(k, int) for _ in range(v))
    assert len(terms) == served
    if name == "near_edge":  # theta near the edges: the anchors' gain shows most
        assert terms[len(terms) // 2] <= 15


def test_block_b_zero_sums_no_terms():
    rows = [(n, 0.0, theta) for n in (0.5, 1.3, 7.0)
            for theta in (1.5e-3, 0.4, 1.1, PI, 4.0, 2 * PI - 1.5e-3)]
    assert _block_against_scalar(rows) == {0: len(rows)}


BLOCK_BS = [0.0, 1e-3, 0.3, -0.5, 0.9, -0.95, 0.99, -0.995, 0.999]
# the three anchor regions of theta, their borders at pi/2 and 3*pi/2 and
# the points beside them
REGION_THETAS = [0.01, 0.3, math.nextafter(PI / 2, 0.0), PI / 2,
                 math.nextafter(PI / 2, 4.0), 2.0, PI, 4.0,
                 math.nextafter(3 * PI / 2, 0.0), 3 * PI / 2,
                 math.nextafter(3 * PI / 2, 7.0), 5.5, 6.2]


def test_block_equals_scalar_in_every_anchor_region(monkeypatch):
    rows = [(n, b * n, theta) for theta in REGION_THETAS for b in BLOCK_BS
            for n in (0.5, 2.0)]
    seen = _block_against_scalar(rows)
    # the scalar sums these rows in its loop; theta = pi leaves no budget
    # (see test_contracted_refused_at_pi_before_summing)
    assert sum(v for k, v in seen.items() if isinstance(k, int) and k < 24) > 0.8 * len(rows)
    assert seen[ToleranceUnreachableError] >= 1
    # rows the scalar sums in numpy chunks, 24 terms or more, in each region:
    # a tol just above 10*rounding asks for any number of terms (see
    # test_block_around_its_width)
    deep = {}
    for theta in REGION_THETAS:
        if theta == PI:
            continue
        for b in (0.9, -0.999):
            row = (1e-4, b * 1e-4, theta)
            scale, rounding = _scale_and_rounding(monkeypatch, row)
            for k in (24.0, 25.0, 40.0, 100.0):
                deep.update(_block_against_scalar([row], 10.0 * (rounding + scale / k ** DECAY)))
    assert {24, 25, 40} <= set(deep) <= set(range(24, series._WIDTH + 1))


def test_block_around_the_loop_boundary():
    # the scalar sums 24 terms or more with numpy instead of its loop: the
    # block's one search and one sum must equal both sides of that switch.
    # At the tolerance floor, |b| near 1 and theta just inside either edge
    # walk terms_used across it, in one block
    rows = [(n, s * b * n, theta) for n in (0.5, 1.0, 3.7) for s in (1.0, -1.0)
            for b in (0.99, 0.995, 0.999, 0.9995)
            for edge in (1.0001e-3, 1.001e-3, 1.01e-3, 1.05e-3, 1.2e-3)
            for theta in (edge, 2 * PI - edge)]
    seen = _block_against_scalar(rows, 1e-10)
    assert {22, 23, 24, 25} <= set(seen)


def _scale_and_rounding(monkeypatch, row):
    """The tail's scale and the rounding allowance of a scalar call."""
    seen = []
    driver = series._accelerated_sum

    def record(theta, prefactor, anchored, weight, c_of_k, tol, rounding, decay):
        seen.append((abs(prefactor * weight) / abs(math.sin(0.5 * theta)), rounding))
        return driver(theta, prefactor, anchored, weight, c_of_k, tol, rounding, decay)

    monkeypatch.setattr(series, "_accelerated_sum", record)
    series_contracted(*row, 1e-6)
    monkeypatch.undo()
    return seen[0]


def test_block_around_its_width(monkeypatch):
    # K ~ (scale/budget)**(1/(2J+3)), and the budget is 0.1*tol less the
    # rounding, so a tol just above 10*rounding asks for any number of terms;
    # natural rows need at most about 40.  Near pi the rounding allowance
    # is smallest against the tail's scale, so a tol there still sets K
    # to the term at the width
    row = (1e-4, 0.9e-4, PI - 1e-6)
    scale, rounding = _scale_and_rounding(monkeypatch, row)
    width = series._WIDTH
    seen = {}
    for k in np.linspace(width - 40, width + 3, 300).tolist() + [30.0, 100.0, 2 * width]:
        seen.update(_block_against_scalar([row], 10.0 * (rounding + scale / k ** DECAY)))
    assert {width - 1, width, width + 1} <= set(seen)


@pytest.mark.parametrize("n, b_abs, scale", [(0.7, 0.0, 3.0e7), (0.7, 0.9, 3.0e7),
                                          (2.5, 0.999999, 0.02)])
def test_search_lands_where_the_scalars_tail_meets_the_budget(n, b_abs, scale):
    # with the budget set to the scalar's own tail(k) (Python floats, as
    # _accelerated_sum's tail passes them), K must be k and tail(K) its bits,
    # for every k the block serves, k = 1 (the window's first column) and
    # |b| near 1 (c_1 about 5e5) among them; k**(2J+1) is a product there,
    # which differs from pow's at some k and would move K past k or change
    # the tail's last bit if the search took the other
    p_abs = b_abs * n
    b_abs = p_abs / n  # as series_contracted takes it
    ks = list(map(float, range(1, series._WIDTH + 2)))
    budget = [scale * series._coefficients(n, p_abs, b_abs, k) for k in ks]
    assert any(scale * (n / (k ** (DECAY - 2) * (k * n - p_abs) * (k + b_abs))) != tail
               for k, tail in zip(ks, budget))
    column = np.ones(len(budget))
    stop, tail = series._stops(scale * column, np.array(budget), n * column,
                               p_abs * column, b_abs * column)
    assert stop.tolist() == ks
    assert tail.tolist() == budget


def test_block_refuses_a_row_without_budget(monkeypatch):
    # the budget is the target less the rounding; where the rounding alone
    # is above the target, the block must not take the root of a negative
    # ratio, and the scalar raises its own error
    rows = [(1.0, 0.5, PI), (2.0, -1.0, math.nextafter(PI, 0.0)), (3.0, 2.9, 1.0)]
    budgets = []
    driver = series._accelerated_sum

    def record(theta, prefactor, anchored, weight, c_of_k, tol, rounding, decay):
        budgets.append(0.1 * tol - rounding)
        return driver(theta, prefactor, anchored, weight, c_of_k, tol, rounding, decay)

    monkeypatch.setattr(series, "_accelerated_sum", record)
    seen = _block_against_scalar(rows)
    assert [g <= 0.0 for g in budgets] == [True, True, False]
    assert seen.pop(ToleranceUnreachableError) == 2
    assert list(seen.values()) == [1]


def test_block_at_the_theta_edge():
    edge, top = series.THETA_EDGE, 2 * PI - series.THETA_EDGE
    thetas = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0),
              math.nextafter(top, 0.0), top, math.nextafter(top, 7.0)]
    rows = [(n, b * n, theta) for theta in thetas for b in (0.0, 1e-3, 0.5) for n in (0.7, 3.0)]
    seen = _block_against_scalar(rows)
    assert seen[SlowConvergenceError] == 24  # theta on or beyond the edge
    assert seen[0] >= 4  # b = 0 just inside the edge is served


def test_block_refuses_what_the_scalar_refuses():
    rows = [(1.0, 1.0, 1.0), (1.0, -1.5, 2.0), (0.0, 0.0, 1.0), (-1.0, 0.5, 1.0),
            (math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, 0.5, math.nan),
            (1.0, 0.5, 1.0)]
    assert _block(*zip(*rows), 0.5 * series.TOL_FLOOR) == [None] * 8
    assert _block([], [], [], BLOCK_TOL) == []
    block = _block(*zip(*rows), BLOCK_TOL)
    assert block[:7] == [None] * 7
    assert _bits(block[7]) == _bits(series_contracted(1.0, 0.5, 1.0, BLOCK_TOL))


def test_numpy_sin_is_libm_sin_on_the_loop_arguments():
    # the block's sine table is np.sin, the scalar loop's math.sin
    theta = np.linspace(series.THETA_EDGE, 2 * PI - series.THETA_EDGE, 20_001)
    args = (series._K[:series._LOOP_TERMS, None] * theta).ravel()
    assert np.sin(args).tolist() == [math.sin(x) for x in args.tolist()]


def test_numpy_sin_and_cos_are_libm_on_the_pf_block_arguments():
    # _pf_columns takes np.sin and np.cos where integral_at and
    # integral_closed take math's: of the root angles omega_k and p*omega_k
    # (n <= _BLOCK_ROOTS), theta, zeta and the sinc arguments.  Its
    # arctangents stay math.atan2: numpy's arctan2 is a SIMD routine that
    # is not libm's atan2 and can round differently, depending on the host
    from coshint.partial_fractions import _BLOCK_ROOTS

    def same(args):
        args = np.asarray(args, dtype=float).ravel()
        listed = args.tolist()
        assert np.sin(args).tolist() == [math.sin(x) for x in listed]
        assert np.cos(args).tolist() == [math.cos(x) for x in listed]

    theta = np.concatenate([np.linspace(0.0, 2 * PI, 11)[1:-1], [1e-3, 2 * PI - 1e-3,
                            math.nextafter(2 * PI, 0.0), 5e-324, PI + 2e-12]])
    for n in range(1, _BLOCK_ROOTS + 1):
        omega = (theta + 2.0 * PI * np.arange(n)[:, None]) / n
        p = np.arange(n, dtype=float)
        same(p[:, None, None] * omega)
        b = p / n
        same(b[:, None] * (PI - theta))
        same(PI * b)
    same(np.linspace(0.0, 2 * PI, 20_001))
    same(np.concatenate([np.linspace(-1e3, 1e3, 20_001), [1e10, -3e15, 1e300]]))


def _same_libm(args, fns=("sin", "cos")):
    """numpy's functions in ``fns`` equal math's on every argument."""
    args = np.asarray(args, dtype=float).ravel()
    listed = args.tolist()
    for name in fns:
        assert getattr(np, name)(args).tolist() == list(map(getattr(math, name), listed)), name


def test_numpy_sin_and_cos_are_libm_on_the_closed_block_arguments():
    # verify's closed block (closed_form.master_value_many) takes np.sin of
    # pi*b, a*b, a and theta, and np.cos of c = pi - zeta, where
    # _closed_value takes math's, with a = pi - theta
    rng = np.random.default_rng(2027)
    b = np.concatenate([rng.uniform(-1.0, 1.0, 20_000),
                        [0.0, -0.0, 1e-9, 1e-8, 0.999999, 1.0 - 1e-11, -(1.0 - 1e-11)]])
    theta = np.concatenate([rng.uniform(0.0, 2 * PI, 20_000), np.linspace(0.0, 2 * PI, 20_001),
                            [5e-324, 1e-17, 1e-13, 1e-12, PI - 1e-13, PI + 1e-13,
                             2 * PI - 1e-12, math.nextafter(2 * PI, 0.0)]])
    a = PI - theta
    zeta = np.concatenate([rng.uniform(-50.0, 50.0, 20_000), np.linspace(0.0, PI, 2001)])
    _same_libm(PI * b)
    _same_libm(a[:b.size] * b)
    _same_libm(a[:b.size] * b[::-1])
    _same_libm(a)
    _same_libm(theta)
    _same_libm(PI - zeta)


def test_numpy_sin_and_cos_are_libm_on_the_series_epilogue_arguments():
    # verify's series block adds series_value's epilogue as columns:
    # np.cos(zeta) and middle_term_integral's np.sin of theta and of
    # a = pi - theta, for theta inside the series' edges
    rng = np.random.default_rng(2028)
    theta = np.concatenate([rng.uniform(series.THETA_EDGE, 2 * PI - series.THETA_EDGE, 20_000),
                            np.linspace(series.THETA_EDGE, 2 * PI - series.THETA_EDGE, 20_001)])
    _same_libm(theta)
    _same_libm(PI - theta)
    _same_libm(np.concatenate([rng.uniform(-50.0, 50.0, 20_000), np.linspace(0.0, PI, 2001)]))


def test_anchor_columns_equal_anchor_sums():
    # both regions' borders, the edges and a dense grid; both take w**m as
    # a running product, which a pow on either side would move by an ulp
    thetas = np.concatenate([np.linspace(1e-3, 2 * PI - 1e-3, 20_001),
                             [5e-324, PI / 2, math.nextafter(PI / 2, 0.0), PI,
                              3 * PI / 2, math.nextafter(3 * PI / 2, 7.0)]])
    sums, sizes = series._anchor_columns(thetas)
    for theta, row_sums, row_sizes in zip(thetas.tolist(), sums.tolist(), sizes.tolist()):
        assert (row_sums, row_sizes) == anchor_sums(theta), theta


def test_numpy_row_sums_of_a_table_are_the_one_row_sum():
    # the scalar's loop adds its terms left to right from 0.0, and its numpy
    # chunk by np.add.accumulate of a fresh array seeded with the total; the
    # block by np.cumsum along the rows of a table from a zero column: at
    # every length, each must be Python's left-to-right sum, bit for bit
    rng = np.random.default_rng(7)
    table = rng.standard_normal((5, series._WIDTH)) * np.exp(rng.uniform(-30, 30, (5, 1)))
    rows = table.tolist()
    running = np.cumsum(table, axis=1).tolist()
    for length in range(1, series._WIDTH + 1):
        want = []
        for row in rows:
            total = 0.0
            for term in row[:length]:
                total += term
            want.append(total)
        assert [row[length - 1] for row in running] == want, length
        for row, total in zip(rows, want):
            fresh = np.array(row[:length])
            assert float(np.add.accumulate(fresh, out=fresh)[-1]) == total, length
        assert np.cumsum(table[:, :length], axis=1)[:, -1].tolist() == want, length


def test_numpy_sin_of_a_table_is_the_sin_of_each_row():
    # the scalar's numpy chunk takes np.sin of one row's arguments, the block
    # of a (rows x width) table of them
    theta = np.linspace(series.THETA_EDGE, 2 * PI - series.THETA_EDGE, 401)
    k = series._K[:series._WIDTH]
    table = np.sin(k * theta[:, None])
    for t, row in zip(theta.tolist(), table.tolist()):
        assert np.sin(np.arange(1, series._WIDTH + 1, dtype=float) * t).tolist() == row, t
