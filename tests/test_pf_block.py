"""The partial-fraction block against the per-spec route.

The route's column core, _pf_columns, must give pf_value's value bit for
bit (sign of zero included) on every row it serves, and serve no other
row, without a warning; verify_points, which takes the pf route of a
grid from it, must still write verify_point's report for every spec.
"""

import math
import struct
import warnings

import numpy as np
import pytest

from coshint import (
    CoshintError,
    IntegrandSpec,
    Verdict,
    pf_value,
    verify_point,
    verify_points,
)
from coshint.cli import report_line
from coshint.params import _THETA_PI_TOL
from coshint.partial_fractions import _BLOCK_ROOTS, _pf_columns

PI = math.pi
TWO_PI = 2.0 * math.pi
SEEDS = (1, 2, 9001)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _core(n, p, theta, zeta, upper) -> list:
    """_pf_columns on lists of the rows' fields, without a warning: per
    row, the value of a row it serves, else None."""
    p = np.array(p, dtype=complex)
    n, theta, zeta, upper = (np.array(x, dtype=float) for x in (n, theta, zeta, upper))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        served, values = _pf_columns(n, p.real, theta, zeta, upper, p.imag)
    rows: list = [None] * len(n)
    for i, value in zip(served.tolist(), values.tolist()):
        rows[i] = value
    return rows


def _block(specs):
    return _core([s.n for s in specs], [s.p for s in specs], [s.theta for s in specs],
                 [s.zeta for s in specs], [s.upper for s in specs])


def _scalar(spec):
    try:
        return pf_value(spec)
    except (CoshintError, ValueError) as exc:
        return exc


def _special(spec) -> bool:
    """A row that pf_value serves by a case that the block leaves to it:
    the repeated-root limit, a theta it reduces into (0, 2*pi) (verify
    asks no route but closed and quad for those), or many roots."""
    near_pi = abs(spec.theta - PI) <= _THETA_PI_TOL and spec.upper in (1.0, math.inf)
    return near_pi or not 0.0 < spec.theta < TWO_PI or spec.n > _BLOCK_ROOTS


def _check(specs) -> int:
    """Assert block == pf_value on each served row, and that every row it
    leaves is one that pf_value refuses or serves by a special case.
    Returns the number of rows served."""
    served = 0
    for spec, got in zip(specs, _block(specs)):
        want = _scalar(spec)
        if got is None:
            assert isinstance(want, Exception) or _special(spec), spec
            continue
        served += 1
        assert not isinstance(want, Exception), (spec, want)
        assert _bits(got) == _bits(want) or math.isnan(got) and math.isnan(want), spec
    return served


def _lines(reports):
    return [report_line(r) for r in reports]


@pytest.mark.parametrize("name", ["integer_x", "integer_inf"])
def test_block_equals_pf_value_on_the_workloads(workload, name):
    for seed in SEEDS:
        specs = workload(name, seed)
        assert _check(specs) == len(specs)


def test_verify_points_equals_verify_point_on_the_workloads(workload):
    for name in ("integer_x", "integer_inf"):
        for seed in SEEDS:
            specs = workload(name, seed)
            assert _lines(verify_points(specs, 1e-9)) == _lines(
                verify_point(s, 1e-9) for s in specs)


def _edge_grid() -> list[IntegrandSpec]:
    specs = []
    for upper in (0.5, 1.0, math.inf, math.nextafter(1.0, 0.0), 1e-300):
        for n in (1, 2, 3, 7, 24, 63, 64, 65):
            for p in sorted({0, 1, n // 2, n - 1, -(n - 1), -0.0}):
                if abs(p) < n:
                    for theta in (1e-3, 1.0, 2.0, 4.0, TWO_PI - 1e-3):
                        specs.append(IntegrandSpec(n=float(n), p=float(p), theta=theta,
                                                   zeta=1.1, upper=upper))
        # near pi, and sinc arguments b*(pi - theta) on both sides of its
        # Taylor radius 1e-4
        for theta in (PI, PI + 1e-12, PI - 1e-12, PI + 0.5e-12, PI - 0.5e-12,
                      PI + 2e-12, PI - 2e-12, PI + 1e-5, PI - 6e-3, PI - 3.5e-3, PI + 8e-3):
            for n in (3.0, 64.0):
                specs.append(IntegrandSpec(n=n, p=1.0, theta=theta, zeta=0.7, upper=upper))
        specs += [
            IntegrandSpec(n=2.0, p=1.0, theta=math.nextafter(TWO_PI, 0.0), zeta=1.0,
                          upper=upper),
            IntegrandSpec(n=1.0, p=0.0, theta=5e-324, zeta=1.0, upper=upper),
            IntegrandSpec(n=2.0, p=1.0, theta=5e-324, zeta=1.0, upper=upper),
            IntegrandSpec(n=3, p=1, theta=2.0, zeta=-40.0, upper=upper),  # int fields
            IntegrandSpec(n=3.0, p=complex(1.0, 0.0), theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=2.5, p=1.0, theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=0.5, theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=1j, theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=3.0, theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=-4.0, theta=2.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=1.0, theta=0.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=1.0, theta=TWO_PI, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=1.0, theta=-1.0, zeta=1.0, upper=upper),
            IntegrandSpec(n=3.0, p=1.0, theta=2.0 + TWO_PI, zeta=1.0, upper=upper),
        ]
    return specs + [IntegrandSpec(n=3.0, p=1.0, theta=2.0, zeta=1.0, upper=1.5)]


def test_block_equals_pf_value_on_the_edge_grid():
    specs = _edge_grid()
    assert _check(specs) > len(specs) // 2


def test_block_serves_what_it_documents():
    rows = [
        # (spec, served): integer n up to _BLOCK_ROOTS, |p| < n, theta in
        # (0, 2*pi) off pi, X in (0, 1) with every root angle inside
        # (0, 2*pi), or X = 1 or inf
        (IntegrandSpec(64.0, -63.0, 1.0, 1.0, upper=0.5), True),
        (IntegrandSpec(65.0, 1.0, 1.0, 1.0, upper=0.5), False),
        (IntegrandSpec(3.0, 1.0, 1.0, 1.0, upper=1e-300), True),
        (IntegrandSpec(3.0, 1.0, 1.0, 1.0, upper=math.nextafter(1.0, 0.0)), True),
        (IntegrandSpec(3.0, 1.0, PI + 2e-12, 1.0, upper=math.inf), True),
        (IntegrandSpec(3.0, 1.0, PI + 0.5e-12, 1.0, upper=math.inf), False),
        (IntegrandSpec(3.0, 1.0, PI - 0.5e-12, 1.0, upper=0.5), False),
        # omega_1 = (theta + 2*pi)/2 rounds to 2*pi: integral_at raises BranchError
        (IntegrandSpec(2.0, 1.0, math.nextafter(TWO_PI, 0.0), 1.0, upper=0.5), False),
        (IntegrandSpec(2.0, 1.0, math.nextafter(TWO_PI, 0.0), 1.0, upper=1.0), True),
        (IntegrandSpec(2.5, 1.0, 2.0, 1.0, upper=0.5), False),
        (IntegrandSpec(3.0, 1j, 2.0, 1.0, upper=1.0), False),
        (IntegrandSpec(3.0, 1.0, 2.0 + TWO_PI, 1.0, upper=1.0), False),
        (IntegrandSpec(3.0, 1.0, 2.0, 1.0, upper=1.5), False),
    ]
    got = _block([spec for spec, _ in rows])
    assert [v is not None for v in got] == [served for _, served in rows]


def test_branch_refusal_leaves_the_report_skipped():
    spec = IntegrandSpec(2.0, 1.0, math.nextafter(TWO_PI, 0.0), 1.0, upper=0.5)
    with pytest.raises(CoshintError):
        pf_value(spec)
    report = verify_points([spec], 1e-9)[0]
    assert report.pf is None and report.verdict is Verdict.SKIPPED
    assert report == verify_point(spec, 1e-9)


def test_verify_points_equals_verify_point_on_the_edge_grid():
    specs = _edge_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block = _lines(verify_points(specs, 1e-9))
    assert block == _lines(verify_point(s, 1e-9) for s in specs)


def test_empty_block():
    assert _core([], [], [], [], []) == []


def test_block_leaves_non_finite_exponents_without_a_warning():
    # IntegrandSpec refuses them, but _pf_columns takes plain columns: an
    # infinite or NaN n or p is no integer exponent, and _integer_n's
    # remainder of an infinite one must stay quiet
    rows = [(math.inf, 1.0), (2.0, math.inf), (2.0, -math.inf), (math.nan, 1.0), (3.0, math.nan)]
    for upper in (1.0, math.inf, 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _core([n for n, _ in rows], [p for _, p in rows], [1.0] * len(rows),
                        [1.0] * len(rows), [upper] * len(rows))
        assert got == [None] * len(rows)
