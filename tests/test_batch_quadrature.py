"""The row-block quadrature path against the per-spec oracle.

quad_x_domain_many must reproduce quad_x_domain(spec, spec.upper), at
every upper limit, and quad_x_domain_infinite_many
quad_x_domain_infinite, which is quad_x_domain at X = inf, bit for bit
(value, error estimate, evaluation count, and the error raised) whatever
the block size, and verify_points must reproduce verify_point.
"""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

import coshint.quadrature as quadrature
from coshint import (
    BudgetExceededError,
    CoshintError,
    DomainError,
    IntegrandSpec,
    Lcg64,
    NonIntegrableError,
    quad_x_domain,
    quad_x_domain_infinite,
    quad_x_domain_infinite_many,
    quad_x_domain_many,
    random_specs,
    verify_point,
    verify_points,
)
from coshint.cli import main, report_to_dict
from coshint.series import TOL_FLOOR

TWO_PI = 2.0 * math.pi


def _integer_finite_x(count: int, seed: int) -> list[IntegrandSpec]:
    """Integer n in [1, 24], integer p in [0, n), X in (0.05, 0.95)."""
    rng = Lcg64(seed)
    specs = []
    for _ in range(count):
        n = 1 + int(rng.next_float() * 24)
        p = int(rng.next_float() * n)
        specs.append(IntegrandSpec(n=float(n), p=float(p),
                                   theta=rng.uniform(0.02, TWO_PI - 0.02),
                                   zeta=rng.uniform(0.05, math.pi - 0.05),
                                   upper=rng.uniform(0.05, 0.95)))
    return specs


def _near_edge(count: int, seed: int) -> list[IntegrandSpec]:
    """|b| in [0.9, 0.99]; theta within 1e-4 to 0.3 of 0 or 2*pi."""
    rng = Lcg64(seed)
    specs = []
    for _ in range(count):
        n = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.9, 0.99) * (1.0 if rng.next_float() < 0.5 else -1.0)
        dist = math.exp(rng.uniform(math.log(1e-4), math.log(0.3)))
        theta = dist if rng.next_float() < 0.5 else TWO_PI - dist
        specs.append(IntegrandSpec(n=n, p=b * n, theta=theta,
                                   zeta=rng.uniform(0.05, math.pi - 0.05)))
    return specs


def _peak_widths(count: int, seed: int) -> list[IntegrandSpec]:
    """X = 1, |b| <= 0.995, theta log-uniform 1e-12 to pi away from 0 or 2*pi."""
    rng = Lcg64(seed)
    specs = []
    for _ in range(count):
        n = rng.uniform(0.5, 4.0)
        dist = math.exp(rng.uniform(math.log(1e-12), math.log(math.pi)))
        specs.append(IntegrandSpec(n=n, p=rng.uniform(-0.995, 0.995) * n,
                                   theta=dist if rng.next_float() < 0.5 else TWO_PI - dist,
                                   zeta=rng.uniform(0.05, math.pi - 0.05)))
    return specs


def _mixed_p(count: int, seed: int) -> list[IntegrandSpec]:
    """Real p (|b| <= 0.95) and imaginary p = i*q (|q| <= 5n) in turn,
    theta log-uniform 1e-10 to pi from either edge, X = 1 or in (0.05, 0.95)."""
    rng = Lcg64(seed)
    specs = []
    for k in range(count):
        n = rng.uniform(0.5, 4.0)
        p = rng.uniform(-5.0, 5.0) * n * 1j if k % 2 else rng.uniform(-0.95, 0.95) * n
        dist = math.exp(rng.uniform(math.log(1e-10), math.log(math.pi)))
        specs.append(IntegrandSpec(n=n, p=p,
                                   theta=dist if rng.next_float() < 0.5 else TWO_PI - dist,
                                   zeta=rng.uniform(0.05, math.pi - 0.05),
                                   upper=1.0 if rng.next_float() < 0.5 else
                                   rng.uniform(0.05, 0.95)))
    return specs


# sin(theta/2)**2 underflows to 0 at theta = 1e-170, so the kernel is inf
# at s = 0, where the folded sinh map has a node: the oracle runs out of
# levels
EXHAUSTING = IntegrandSpec(1.0, 0.5, 1e-170, 1.0)


# theta = 6e-253 makes sin(theta/2)**2 0, so the kernel grows like 1/s**2
# down to s_X = 8e-13.  The DE map ran out of levels here while the
# kernel's numerator cancelled to zeta**2 near s = 0; written without the
# cancellation, it is served in 1345 evaluations
DE_EXHAUSTING = IntegrandSpec(0.5657970664045806, 0.5632730087006228,
                              5.952019849354575e-253, 0.00021524280251170567,
                              upper=0.9999999999985351)
# cos(1000*s) oscillates across the DE map's range: the map runs out of
# levels, and its last round holds 10 752 nodes, more than one kernel call
# takes
DE_OSCILLATING = IntegrandSpec(1.0, 1000j, 1.0, 1.0, upper=0.5)


def _rounds() -> list[IntegrandSpec]:
    """On the DE map (X < 1) and the folded sinh map (X = 1), for real and
    imaginary p: rows that stop at level 2, at level 3 (the first round's
    last), in a later round, and rows that run out of levels."""
    return [
        IntegrandSpec(1.0, 0.5, 2.0, 1.0, upper=0.5),  # DE: level 2
        IntegrandSpec(1.0, 0.5, 1e-3, 1.0, upper=0.5),  # 3
        IntegrandSpec(1.0, -0.99, 2.0, 1.0, upper=0.5),  # 4
        IntegrandSpec(1.0, -0.99, 1e-9, 1.0, upper=1.0 - 1e-12),  # 7
        DE_EXHAUSTING,  # served in a later round
        IntegrandSpec(2.0, 0.25j, 2.0, 1.0, upper=0.5),  # 2
        IntegrandSpec(1.0, 0.5j, 2.0, 1.0, upper=0.5),  # 3
        IntegrandSpec(1.0, -12j, 2.0, 1.0, upper=0.5),  # 6
        replace(DE_EXHAUSTING, p=0.5632730087006228j),  # served in a later round
        DE_OSCILLATING,
        IntegrandSpec(1.0, 0.5, 2.0, 1.0),  # folded: level 2
        IntegrandSpec(1.0, 0.5, 1e-3, 1.0),  # 3
        IntegrandSpec(1.0, 0.5, 1e-9, 1.0),  # 4
        EXHAUSTING,
        IntegrandSpec(1.0, 0.5j, 2.0, 1.0),  # 2
        IntegrandSpec(1.0, 0.5j, 1e-3, 1.0),  # 3
        IntegrandSpec(1.0, -12j, 1e-3, 1.0),  # 7
        replace(EXHAUSTING, p=0.5j),
    ]


def _edges() -> list[IntegrandSpec]:
    """X = 1, theta 1e-2 to 1e-16 from either edge, |b| up to 0.999."""
    return [IntegrandSpec(n, b * n, theta, 1.0)
            for n in (0.5, 1.0, 3.7)
            for b in (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99, 0.999, -0.999)
            for dist in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16)
            for theta in (dist, TWO_PI - dist)]


def _mixed_uppers() -> list[IntegrandSpec]:
    """_mixed_p's real and imaginary p at upper 0.3, 1 and infinity in
    turn, each kind of p on each map, with rows that run out of levels on
    the folded sinh map and on the sinh map, and the refused specs of
    test_invalid_specs_raise_the_single_spec_errors."""
    return [replace(s, upper=(0.3, 1.0, math.inf)[k % 3])
            for k, s in enumerate(_mixed_p(90, 37))] + [
        EXHAUSTING, replace(EXHAUSTING, upper=math.inf, p=0.5j),
        IntegrandSpec(1, 1.5, 1.0, 1.0),  # |p| >= n
        IntegrandSpec(1, 0.5, 1.0, 1.0, upper=1.5),  # X outside (0, 1]
        IntegrandSpec(1, 0.5, 1.0, 1.0, upper=math.inf),
        IntegrandSpec(1, 0.2j, 1.0, 1.0),  # imaginary p
        IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0),  # paradox-only theta
        IntegrandSpec(1, 0.5, 1.0, 1.0),
    ]


GRIDS = {
    "random": random_specs(200, 42),
    "integer_x": _integer_finite_x(150, 7),
    "near_edge": _near_edge(120, 11),
    # X = 1 rows whose kernel peaks at s = 0 with widths from 1e-12 to pi
    "peak_widths": _peak_widths(120, 23) + [EXHAUSTING],
    "edges": _edges(),
    # real and imaginary p in one block, each kind on both maps
    "mixed_p": _mixed_p(120, 31) + [replace(EXHAUSTING, p=0.5j)],
    # each map's and kind of p's rows, by the round they stop in
    "rounds": _rounds(),
    # every spec over its own range: upper 0.3, 1 and inf in one block
    "mixed_uppers": _mixed_uppers(),
}


def _single(spec):
    try:
        return quad_x_domain(spec, spec.upper)
    except Exception as exc:  # compared by type and message
        return exc


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(expected, got) -> bool:
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return (not isinstance(got, Exception)
            and _bits(got.value) == _bits(expected.value)
            and _bits(got.abs_err_estimate) == _bits(expected.abs_err_estimate)
            and got.evaluations == expected.evaluations)


@pytest.fixture(scope="module")
def singles():
    return {name: [_single(s) for s in specs] for name, specs in GRIDS.items()}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("size", [1, 7, 125, None])
def test_batch_bit_identical_to_single(singles, name, size):
    specs = GRIDS[name]
    size = size or len(specs)
    got = []
    for lo in range(0, len(specs), size):
        got.extend(quad_x_domain_many(specs[lo:lo + size]))
    assert len(got) == len(specs)
    mismatched = [i for i, (e, g) in enumerate(zip(singles[name], got)) if not _same(e, g)]
    assert mismatched == []


def test_edges_are_served_up_to_the_last_theta_below_two_pi(singles):
    # the block's failure sets are test_failure_sets_equal's; here the one
    # failure is a theta of 2*pi - 1e-16, which rounds to 2*pi
    specs = GRIDS["edges"]
    assert len(specs) == 432
    failed = [s for s, r in zip(specs, singles["edges"]) if isinstance(r, Exception)]
    assert len(failed) == 27 and all(s.theta == TWO_PI for s in failed)
    assert max(r.evaluations for r in singles["edges"] if not isinstance(r, Exception)) <= 513


def test_failure_sets_equal(singles):
    for name, specs in GRIDS.items():
        got = quad_x_domain_many(specs)
        expected = {i for i, r in enumerate(singles[name]) if isinstance(r, Exception)}
        assert {i for i, r in enumerate(got) if isinstance(r, Exception)} == expected
    specs = GRIDS["near_edge"][:10] + [EXHAUSTING] + GRIDS["near_edge"][10:20]
    got = quad_x_domain_many(specs)
    expected = [_single(s) for s in specs]
    failed = {i for i, r in enumerate(expected) if isinstance(r, Exception)}
    assert failed == {10}
    assert {i for i, r in enumerate(got) if isinstance(r, Exception)} == failed
    assert _same(expected[10], got[10])


def test_invalid_specs_raise_the_single_spec_errors():
    specs = [
        IntegrandSpec(1, 1.5, 1.0, 1.0),  # |p| >= n
        IntegrandSpec(1, 0.5, 1.0, 1.0, upper=1.5),  # X outside (0, 1]
        IntegrandSpec(1, 0.5, 1.0, 1.0, upper=math.inf),
        IntegrandSpec(1, 0.2j, 1.0, 1.0),  # imaginary p
        IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0),  # paradox-only theta
        IntegrandSpec(1, 0.5, 1.0, 1.0),
    ]
    got = quad_x_domain_many(specs)
    for spec, result in zip(specs, got):
        assert _same(_single(spec), result)
    assert not isinstance(got[-1], Exception)
    assert quad_x_domain_many([]) == []


def test_mixed_uppers_grid_covers_every_map_and_kind_of_p(singles):
    specs, results = GRIDS["mixed_uppers"], singles["mixed_uppers"]
    served = {(s.upper if s.upper in (1.0, math.inf) else "X < 1", type(s.p))
              for s, r in zip(specs, results) if not isinstance(r, Exception)}
    assert served == {(upper, kind) for upper in (1.0, math.inf, "X < 1")
                      for kind in (float, complex)}
    failed = [type(r) for r in results if isinstance(r, Exception)]
    assert failed == [BudgetExceededError, BudgetExceededError, NonIntegrableError,
                      ValueError, DomainError]


def test_many_matches_the_infinite_block_on_its_infinite_rows(singles):
    specs = GRIDS["mixed_uppers"]
    rows = [i for i, s in enumerate(specs) if s.upper == math.inf]
    assert len(rows) >= 30
    got = quad_x_domain_many(specs)
    infinite = quad_x_domain_infinite_many([specs[i] for i in rows])
    assert all(_same(one, got[i]) for i, one in zip(rows, infinite))
    assert all(_same(singles["mixed_uppers"][i], got[i]) for i in rows)


def test_kernel_calls_stay_within_the_deepest_level(monkeypatch):
    cap = _deepest_round(quadrature._FOLDED).size
    sizes = []
    original = quadrature._t_kernel

    def counting(b, cos_c, sin2_half):
        f = original(b, cos_c, sin2_half)

        def g(s):
            sizes.append(s.size)
            return f(s)

        return g

    monkeypatch.setattr(quadrature, "_t_kernel", counting)
    specs = GRIDS["near_edge"] + [EXHAUSTING]
    quad_x_domain_many(specs)
    block_calls, block_max = len(sizes), max(sizes)
    sizes.clear()
    for spec in specs:
        _single(spec)
    assert block_max <= cap
    assert max(sizes) == cap  # failing specs reach the deepest level
    # the block's rows share its kernel rounds; most one-row calls make a
    # single round
    assert block_calls <= 16
    assert block_calls * 8 < len(sizes)
    # the DE map's last round runs in slices of _CHUNK nodes
    for run in (_single, lambda spec: quad_x_domain_many([spec])[0]):
        sizes.clear()
        assert str(run(DE_OSCILLATING)) == ("trapezoid levels exhausted after 21505 "
                                            "evaluations without reaching tolerance")
        assert max(sizes) == cap == quadrature._CHUNK


def test_verify_points_equals_verify_point():
    specs = GRIDS["random"][:40] + GRIDS["integer_x"][:20] + GRIDS["near_edge"][:20] + [
        IntegrandSpec(2, 1, 1.0, 2.0, upper=math.inf),
        IntegrandSpec(1, 1j, math.pi / 2, math.pi / 2),
        IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0),  # paradox-only
        IntegrandSpec(1, 1.5, 1.0, 1.0),  # excluded
        IntegrandSpec(1, 0.5, TWO_PI, 1.0),  # singular theta
        IntegrandSpec(2, 1, math.pi, 1.0),  # boundary-a
    ]
    assert verify_points(specs, 1e-9) == [verify_point(s, 1e-9) for s in specs]


def test_verify_points_equals_verify_point_on_mixed_uppers():
    specs = GRIDS["mixed_uppers"]
    reports = verify_points(specs, 1e-9)
    assert [repr(r) for r in reports] == [repr(verify_point(s, 1e-9)) for s in specs]
    # four rows get no quadrature value; the paradox-only row gets its
    # canonical angle's
    assert sum(r.quad is not None for r in reports) == len(specs) - 4


def test_cli_verify_matches_verify_point(capsys):
    code = main(["verify", "--random", "200", "--seed", "42"])
    lines = capsys.readouterr().out.splitlines()
    expected = [json.dumps(report_to_dict(verify_point(s, 1e-9)))
                for s in random_specs(200, 42)]
    assert code in (0, 1)
    assert lines == expected


# ---------------------------------------------------------------------------
# X = inf: quad_x_domain_infinite_many against quad_x_domain_infinite


def _slow_tails_infinite(count: int, seed: int) -> list[IntegrandSpec]:
    """|b| in [0.9, 0.99], so the tails decay slowly; upper limit infinity."""
    rng = Lcg64(seed)
    specs = []
    for _ in range(count):
        n = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.9, 0.99) * (1.0 if rng.next_float() < 0.5 else -1.0)
        specs.append(IntegrandSpec(n=n, p=b * n,
                                   theta=rng.uniform(0.05, TWO_PI - 0.05),
                                   zeta=rng.uniform(0.05, math.pi - 0.05),
                                   upper=math.inf))
    return specs


INFINITE_GRIDS = {
    "integer_inf": [replace(s, upper=math.inf) for s in _integer_finite_x(150, 5)],
    "slow_tails_inf": _slow_tails_infinite(100, 13),
    "mixed_p_inf": [replace(s, upper=math.inf) for s in _mixed_p(120, 31)],
    # real p, then imaginary: rows that stop at level 2, at level 3 (the
    # first round's last) and in later rounds
    "rounds_inf": [IntegrandSpec(1.0, p, theta, 1.0, upper=math.inf)
                   for p, theta in ((0.0, 2.0), (0.5, 2.0), (0.5, 1e-3), (0.5, 1e-9),
                                    (0.01j, 2.0), (0.5j, 2.0), (0.5j, 1e-3), (-12j, 1e-3))],
}

# sin(theta/2)**2 underflows to 0 at theta = 1e-170, so the kernel is inf
# at s = 0, where the sinh map has a node: the oracle runs out of
# refinements
EXHAUSTING_INF = IntegrandSpec(1.0, 0.5, 1e-170, 1.0, upper=math.inf)


def _single_infinite(spec):
    try:
        return quad_x_domain_infinite(spec)
    except Exception as exc:  # compared by type and message
        return exc


@pytest.fixture(scope="module")
def infinite_singles():
    return {name: [_single_infinite(s) for s in specs]
            for name, specs in INFINITE_GRIDS.items()}


@pytest.mark.parametrize("name", sorted(INFINITE_GRIDS))
@pytest.mark.parametrize("size", [1, 7, 125, None])
def test_infinite_batch_bit_identical_to_single(infinite_singles, name, size):
    specs = INFINITE_GRIDS[name]
    size = size or len(specs)
    got = []
    for lo in range(0, len(specs), size):
        got.extend(quad_x_domain_infinite_many(specs[lo:lo + size]))
    assert len(got) == len(specs)
    expected = infinite_singles[name]
    assert not any(isinstance(e, Exception) for e in expected)
    mismatched = [i for i, (e, g) in enumerate(zip(expected, got)) if not _same(e, g)]
    assert mismatched == []


@pytest.mark.parametrize("name", sorted(INFINITE_GRIDS) + ["random"])
def test_quad_x_domain_at_inf_is_quad_x_domain_infinite(name):
    # quad_x_domain_infinite integrates over (0, inf) whatever spec.upper
    # is; the random grid's upper limits are 1
    specs = INFINITE_GRIDS.get(name, GRIDS["random"][:40]) + [EXHAUSTING_INF]
    expected = [_single_infinite(s) for s in specs]
    got = []
    for spec in specs:
        try:
            got.append(quad_x_domain(spec, math.inf))
        except Exception as exc:  # compared by type and message
            got.append(exc)
    assert isinstance(expected[-1], BudgetExceededError)
    mismatched = [i for i, (e, g) in enumerate(zip(expected, got)) if not _same(e, g)]
    assert mismatched == []


def test_infinite_failure_sets_equal():
    grid = INFINITE_GRIDS["slow_tails_inf"]
    for p in (0.5, 0.5j):  # real and imaginary p
        specs = grid[:10] + [replace(EXHAUSTING_INF, p=p)] + grid[10:20]
        got = quad_x_domain_infinite_many(specs)
        expected = [_single_infinite(s) for s in specs]
        assert isinstance(expected[10], BudgetExceededError)
        assert {i for i, r in enumerate(expected) if isinstance(r, Exception)} == {10}
        assert {i for i, r in enumerate(got) if isinstance(r, Exception)} == {10}
        assert all(_same(e, g) for e, g in zip(expected, got))


def test_infinite_invalid_specs_raise_the_single_spec_errors():
    specs = [
        IntegrandSpec(1, 1.5, 1.0, 1.0, upper=math.inf),  # |p| >= n
        IntegrandSpec(1, 0.5 + 0.2j, 1.0, 1.0, upper=math.inf),  # complex p
        IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0, upper=math.inf),  # paradox-only theta
        IntegrandSpec(1, 0.2j, 1.0, 1.0, upper=math.inf),  # imaginary p: served
        IntegrandSpec(1, 0.5, 1.0, 1.0, upper=math.inf),
    ]
    got = quad_x_domain_infinite_many(specs)
    for spec, result in zip(specs, got):
        assert _same(_single_infinite(spec), result)
    assert all(isinstance(r, Exception) for r in got[:-2])
    assert not any(isinstance(r, Exception) for r in got[-2:])
    assert quad_x_domain_infinite_many([]) == []


def test_infinite_kernel_calls_stay_within_the_deepest_level(monkeypatch):
    # the whole line's kernel runs once per |tau|: a lone row's deepest
    # round samples 4096 |tau|, and a block's chunks stay within _CHUNK
    cap = quadrature._CHUNK
    deepest = _deepest_round(quadrature._LINE).size
    assert 2 * deepest == cap
    sizes = []
    original = quadrature._t_kernel

    def counting(b, cos_c, sin2_half):
        f = original(b, cos_c, sin2_half)

        def g(s):
            sizes.append(s.size)
            return f(s)

        return g

    monkeypatch.setattr(quadrature, "_t_kernel", counting)
    # enough rows that the first stage alone would exceed the cap unchunked
    specs = 3 * (INFINITE_GRIDS["integer_inf"] + INFINITE_GRIDS["slow_tails_inf"])
    specs.append(EXHAUSTING_INF)
    quad_x_domain_infinite_many(specs)
    block_calls, block_max = len(sizes), max(sizes)
    sizes.clear()
    for spec in specs:
        _single_infinite(spec)
    assert block_max <= cap
    assert max(sizes) == deepest  # the failing spec reaches the deepest level
    assert block_calls * 10 < len(sizes)


def _full_line_place(scale, span, tau):
    # the whole line's place on its full table, tau of either sign
    u = span * tau
    return (-scale) * np.abs(np.sinh(u)), np.cosh(u), scale * span


def _line_columns(specs):
    """The _t_kernel parameters and sinh-map geometry of the specs at
    X = inf, as the (rows, 1) columns of one block."""
    rules = [quadrature._x_rule(s, math.inf) for s in specs]
    return ([np.array(col)[:, None] for col in zip(*(params for _, params, _ in rules))],
            [np.array(col)[:, None] for col in zip(*(geometry for _, _, geometry in rules))])


# the maps of the even kernel
_MAPS = {quadrature._LINE, quadrature._FOLDED, quadrature._DE}
# the whole line's rule with the kernel run at every node of its table
_FULL_LINE = quadrature._TWO_SIDED._replace(place=_full_line_place)


def _deepest_round(m):
    """The nodes of a map's deepest kernel round."""
    return m.stage(m.h0, m.last_level)[0]


def _lone(run):
    """A lone row's (S_h, |S_h - S_2h|, evaluations), or the error it raised."""
    try:
        return run()
    except BudgetExceededError as exc:
        return exc


def _block_rows(m, params, geometry) -> list:
    """_trapezoid_columns on a block's (rows, 1) columns on the map m, as
    each row's outcome in the form of _lone: its error is _exhausted's."""
    return [(v, e, used) if ok else quadrature._exhausted(used)
            for v, e, used, ok in zip(*(x.tolist() for x in quadrature._trapezoid_columns(
                m, quadrature._t_kernel, params, geometry)))]


def _lone_row(m, params, geometry):
    """_trapezoid_rows on the map m, in the form of _lone."""
    return _lone(lambda: quadrature._trapezoid_rows(m, quadrature._t_kernel, params, geometry))


def _full_line(params, geometry):
    """The whole line's rule with the kernel run at every node of its
    table, on a block's columns or, as a list of one, on a lone row."""
    if isinstance(geometry[0], np.ndarray):
        return _block_rows(_FULL_LINE, params, geometry)
    return [_lone_row(_FULL_LINE, params, geometry)]


def _close(value, want) -> bool:
    return abs(value - want) <= 1e-15 * (1.0 + abs(want))


def _same_outcome(got, want) -> bool:
    """The folded whole line's row against the full table's: the same
    error, or the same stopping level and a value within 1e-15*(1 + |v|)."""
    if isinstance(want, Exception):
        return type(got) is type(want)
    return (not isinstance(got, Exception) and got[2] == (want[2] + 1) // 2
            and _close(got[0], want[0]))


@pytest.mark.parametrize("name", sorted(INFINITE_GRIDS) + ["exhausting"])
def test_mirrored_line_equals_the_full_table(name):
    # the sinh map mirrors the even kernel's samples at tau > 0 onto -tau,
    # weighting them 2 (the folded rule at the whole line's steps): each
    # row, in a block and alone, must stop where the full table does, with
    # half its samples and its value up to rounding, and a row that
    # exhausts the levels must fail alike
    specs = INFINITE_GRIDS.get(name, [EXHAUSTING_INF, replace(EXHAUSTING_INF, p=0.5j)])
    for imaginary in (False, True):
        group = [s for s in specs if isinstance(quadrature._x_rule(s, math.inf)[1][0], complex)
                 is imaginary]
        if not group:
            continue
        params, geometry = _line_columns(group)
        want = _full_line(params, geometry)
        block = _block_rows(quadrature._LINE, params, geometry)
        assert all(_same_outcome(g, w) for g, w in zip(block, want))
        for spec, row, full in zip(group, block, want):
            _, params, geometry = quadrature._x_rule(spec, math.inf)
            lone = [_lone_row(quadrature._LINE, params, geometry)]
            assert repr(lone) == repr([row])  # a block's row is its lone row, bit for bit
            assert _same_outcome(row, _full_line(params, geometry)[0]), spec
        if name == "exhausting":
            assert all(isinstance(r, BudgetExceededError) for r in want)


def _level_values(m, params, geometry) -> list:
    """Per level from 3 to the map m's last, each row's trapezoid value on
    its rounds: the rounds' samples summed so far, times the step."""
    values, totals = [], None
    for level in range(quadrature._FIRST_ROUND_LEVEL, m.last_level + 1):
        table, starts, bounds, _, _ = quadrature._round_plan(m, level)
        if isinstance(geometry[0], np.ndarray):  # a block's (rows, 1) columns
            sums = list(zip(*(x.tolist() for x in quadrature._round_columns(
                quadrature._t_kernel, params, m.place, geometry, table, starts, bounds))))
        else:
            sums = [quadrature._round_sums(quadrature._t_kernel(*params), m.place, geometry,
                                           table, starts, bounds)]
        new = [sum(parts) for parts, _, _ in sums]
        totals = new if totals is None else [t + n for t, n in zip(totals, new)]
        h = m.h0 / (1 << level)
        values.append([t * h * factor for t, (_, _, factor) in zip(totals, sums)])
    return values


def test_mirrored_rounds_equal_the_full_table_at_every_level(monkeypatch):
    # no served row reaches the deepest levels, so each level's value is
    # compared directly, up to level 10 (8192 new nodes, 4096 |tau|), for
    # a block and a lone row; at a _CHUNK below the half table the mirrored
    # samples are placed in slices and the block in more chunks
    specs = INFINITE_GRIDS["rounds_inf"][:4] + INFINITE_GRIDS["slow_tails_inf"][:6]
    block = _line_columns(specs)
    lone = quadrature._x_rule(specs[2], math.inf)[1:]
    for chunk in (quadrature._CHUNK, 1000):
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        for params, geometry in (block, lone):
            want = _level_values(_FULL_LINE, params, geometry)
            got = _level_values(quadrature._LINE, params, geometry)
            for level, (g, w) in enumerate(zip(got, want), quadrature._FIRST_ROUND_LEVEL):
                assert all(_close(x, y) for x, y in zip(g, w)), (chunk, level)
    half = _deepest_round(quadrature._LINE)
    assert half.size == 4096 > 1000


def test_verify_points_equals_verify_point_at_infinity():
    specs = (INFINITE_GRIDS["integer_inf"][:20] + INFINITE_GRIDS["slow_tails_inf"][:10]
             + GRIDS["random"][:10] + [
                 EXHAUSTING_INF,
                 IntegrandSpec(1, 1j, math.pi / 2, math.pi / 2, upper=math.inf),
                 IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0, upper=math.inf),  # paradox-only
                 IntegrandSpec(1, 1.5, 1.0, 1.0, upper=math.inf),  # excluded
                 IntegrandSpec(2, 1, math.pi, 1.0, upper=math.inf),  # boundary-a
             ])
    assert sum(s.upper == math.inf for s in specs) >= 20
    assert verify_points(specs, 1e-9) == [verify_point(s, 1e-9) for s in specs]


def test_mixed_p_grid_covers_both_kinds_of_p_and_both_maps(singles):
    specs = GRIDS["mixed_p"]
    imaginary = [isinstance(s.p, complex) for s in specs]
    for kind in (False, True):
        uppers = {s.upper == 1.0 for s, im in zip(specs, imaginary) if im is kind}
        assert uppers == {False, True}
    assert max(abs(s.p) / s.n for s in specs) > 4.5
    assert min(min(s.theta, TWO_PI - s.theta) for s in specs) < 1e-8
    failed = [s for s, r in zip(specs, singles["mixed_p"]) if isinstance(r, Exception)]
    assert failed == [specs[-1]]
    assert all(type(r.value) is float for r in singles["mixed_p"][:-1])


@pytest.mark.parametrize("upper", [1.0, math.inf, 0.5])
def test_verify_points_equals_verify_point_on_mixed_p(upper):
    specs = [replace(s, upper=upper) for s in GRIDS["mixed_p"][:60] + GRIDS["mixed_p"][-1:]]
    reports = verify_points(specs, 1e-9)
    assert [repr(r) for r in reports] == [repr(verify_point(s, 1e-9)) for s in specs]
    assert all(r.quad is not None for r in reports[:-1] if isinstance(r.spec.p, complex))
    assert (reports[-1].quad is None) is (upper != 0.5)  # s_X > 0 leaves the peak out


@pytest.mark.parametrize("tol", [1e-9, 2e-10])
def test_verify_points_bytes_equal_verify_point(workload, tol):
    # EvalReport == compares floats with ==, blind to -0.0 against 0.0;
    # the JSON lines are what the CLI writes.  0.25*2e-10 is below the
    # series floor, so that tol runs the contracted sums at TOL_FLOOR.
    assert 0.25 * 2e-10 < TOL_FLOOR < 0.25 * 1e-9
    specs = workload("near_edge", 1) + workload("integer_inf", 1)[:100] + [
        IntegrandSpec(2, 1, 1.0, 2.0, upper=math.inf),
        IntegrandSpec(3, 1, 2.0, 1.0, upper=0.5),
        IntegrandSpec(1.5, 0.4, 1.0, 1.0, upper=0.5),
        IntegrandSpec(1, 1j, math.pi / 2, math.pi / 2),
        IntegrandSpec(1, 0.5j, 2.0, 1.0, upper=math.inf),
        IntegrandSpec(1, -0.0, 1.0, math.pi / 2),
        IntegrandSpec(1, 0.5, 1.0 + TWO_PI, 1.0),  # paradox-only
        IntegrandSpec(1, 1.5, 1.0, 1.0),  # excluded
        IntegrandSpec(1, 0.5, TWO_PI, 1.0),  # singular theta
        IntegrandSpec(2, 1, math.pi, 1.0),  # boundary-a
        IntegrandSpec(2, 1, math.pi, 1.0, upper=math.inf),
    ]
    block = [json.dumps(report_to_dict(r)) for r in verify_points(specs, tol)]
    assert block == [json.dumps(report_to_dict(verify_point(s, tol))) for s in specs]


def test_block_stopping_test_gives_the_lone_row_bits_on_imaginary_p():
    # the block runs the stopping test on complex columns, taking |S_h| and
    # |S_h - S_2h| with np.hypot: np.abs on complex128 is not Python's abs
    # (libm's hypot) in the last bit on about one value in ten
    rng = np.random.default_rng(9)
    z = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) * 10.0 ** rng.uniform(
        -200.0, 200.0, 20_000)
    assert quadrature._modulus(z).tolist() == [abs(x) for x in z.tolist()]
    specs = [s for s in GRIDS["mixed_p"] + GRIDS["rounds"] if isinstance(s.p, complex)]
    specs += [replace(s, upper=math.inf) for s in specs]
    groups = {}
    for spec in specs:
        m, params, geometry = quadrature._x_rule(spec, spec.upper)
        groups.setdefault(m, []).append((params, geometry))
    assert len(groups) == 3  # the sinh, folded sinh and DE maps
    for m, rules in groups.items():
        params, geometry = ([np.array(col)[:, None] for col in zip(*cols)]
                            for cols in zip(*rules))
        assert params[0].dtype.kind == "c"
        block = _block_rows(m, params, geometry)
        assert any(isinstance(row, Exception) for row in block)
        for (params, geometry), row in zip(rules, block):
            assert repr([_lone_row(m, params, geometry)]) == repr([row])


def _row_bits(row) -> tuple:
    """A trapezoid row's (S_h, |S_h - S_2h|, evaluations) as bits, S_h's type kept."""
    value, err, used = row
    return type(value), _bits(value.real), _bits(value.imag), _bits(err), used


@pytest.mark.parametrize("imaginary", [False, True])
def test_lone_row_is_its_block_row_bit_for_bit_on_every_map(imaginary):
    # the lone row runs the block's operations on Python floats: on the
    # whole line, the folded map and the DE map its (S_h, |S_h - S_2h|,
    # evaluations) are the bits of its _trapezoid_columns row, and a row
    # that runs out of levels raises the error that the block reports
    specs = GRIDS["rounds"] + GRIDS["mixed_uppers"] + [replace(s, upper=math.inf)
                                                       for s in GRIDS["rounds"]]
    groups = {}
    for spec in specs:
        if isinstance(spec.p, complex) is not imaginary:
            continue
        try:
            m, params, geometry = quadrature._x_rule(spec, spec.upper)
        except (CoshintError, ValueError):  # a spec that no map serves
            continue
        groups.setdefault(m, []).append((params, geometry))
    assert set(groups) == _MAPS
    for m, rules in groups.items():
        params, geometry = ([np.array(col)[:, None] for col in zip(*cols)]
                            for cols in zip(*rules))
        block = _block_rows(m, params, geometry)
        assert not all(isinstance(row, Exception) for row in block)
        for (params, geometry), row in zip(rules, block):
            lone = _lone_row(m, params, geometry)
            if isinstance(row, Exception):
                assert type(lone) is type(row) and str(lone) == str(row)
            else:
                assert _row_bits(lone) == _row_bits(row)


@pytest.mark.parametrize("spec", [EXHAUSTING, replace(EXHAUSTING, p=0.5j), EXHAUSTING_INF,
                                  replace(EXHAUSTING_INF, p=0.5j), DE_OSCILLATING])
def test_a_lone_row_that_exhausts_its_map_raises_the_block_message(spec):
    m, params, geometry = quadrature._x_rule(spec, spec.upper)
    (row,) = _block_rows(m, *([np.array([x])[:, None] for x in values]
                              for values in (params, geometry)))
    assert isinstance(row, BudgetExceededError)
    for run in (lambda: quadrature._trapezoid_rows(m, quadrature._t_kernel, params, geometry),
                lambda: quad_x_domain(spec, spec.upper)):
        with pytest.raises(BudgetExceededError) as exc:
            run()
        assert str(exc.value) == str(row)
    assert str(row).startswith("trapezoid levels exhausted after ")


def test_exhausting_specs_cover_every_map():
    maps = {quadrature._x_rule(s, s.upper)[0] for s in (EXHAUSTING, EXHAUSTING_INF,
                                                        DE_OSCILLATING)}
    assert maps == _MAPS
