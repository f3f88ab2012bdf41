"""Real specs on floats: the same bits as the complex arithmetic they replace.

eval_master evaluates exact float a and b with math, and the real-p
predicates answer an exact float or int without complex().  Each test
here compares such a fast path against the complex() form of the same
arguments, and verify._row's max - min verdict against the pairwise
maximum it stands for.
"""

import math
import random

import numpy as np
import pytest

import coshint.cli as cli
import coshint.verify as verify
from coshint.closed_form import eval_master
from coshint.errors import CoshintError, NotIntegerExponentsError
from coshint.params import IntegrandSpec, _real_or_complex, _theta_mod, classify_domain, normalize
from coshint.partial_fractions import _as_int
from coshint.quadrature import _x_kernel_args

PI = math.pi
WORKLOADS = ("random_unit", "integer_inf", "integer_x", "near_edge")


def _master_outcome(a, b, c, theta):
    """eval_master's value bits and flag, or its error class and message."""
    kwargs = {} if theta is None else {"theta": theta}
    try:
        result = eval_master(a, b, c, **kwargs)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    value = result.value
    assert type(value) is complex and value.imag == 0.0
    return repr(value.real), math.copysign(1.0, value.real), result.limit_applied


def _assert_master_paths_agree(a, b, c, theta):
    assert type(a) is float and type(b) is float
    real = _master_outcome(a, b, c, theta)
    assert real == _master_outcome(complex(a), complex(b), c, theta), (a, b, c, theta)
    return real


@pytest.mark.parametrize("name", WORKLOADS)
def test_eval_master_floats_match_complex_on_the_workloads(workload, name):
    for spec in workload(name, 1):
        nf = normalize(spec)
        for theta in (None, _theta_mod(spec.theta)[0]):
            _assert_master_paths_agree(nf.a, nf.b, nf.c, theta)


def _signed(*values):
    return [x for v in values for x in (v, -v)]


_TAYLOR = 1e-4  # closed_form._TAYLOR_RADIUS
EDGE_A = [0.0, *_signed(1e-9, 1.0 - 2.0 ** -53, 1.0, PI - 1e-12, PI, math.inf), math.nan]
EDGE_B = [0.0, *_signed(1e-9, math.nextafter(_TAYLOR, 0.0), _TAYLOR,
                        math.nextafter(_TAYLOR, 1.0), 0.5, 1.0 - 1e-11, 1.0, math.inf),
          math.nan]
EDGE_C = [0.3, math.nan, math.inf]


def test_eval_master_floats_match_complex_on_the_edge_grid():
    outcomes = set()
    for a in EDGE_A:
        for b in EDGE_B:
            for c in EDGE_C:
                for theta in (None, PI - a):
                    outcome = _assert_master_paths_agree(a, b, c, theta)
                    kind = outcome[0]
                    outcomes.add(kind.__name__ if isinstance(kind, type) else "value")
    # the grid reaches values, the strip's refusals and the near-pole one
    assert outcomes == {"value", "DomainError", "NearPoleError"}


# ---------------------------------------------------------------------------
# real-p predicates against complex() references

P_VALUES = [0.5, 2.0, 1, 0, True, False, 0.5 + 0j, 0.5 + 0.2j, 0.3j, np.float64(0.5),
            np.float64(2.0), np.complex128(0.5 + 0.2j), np.complex128(0.5), -0.0, -1.0,
            1e300, 10 ** 20, 2 ** 53 + 1]
N_VALUES = [2.0, 3, True, np.float64(2.0), 2.5, 1e300]


def _is_int_reference(x) -> bool:
    xc = complex(x)
    return xc.imag == 0.0 and xc.real == round(xc.real)


def _as_int_reference(x, name: str) -> int:
    xc = complex(x)
    if xc.imag == 0.0 and xc.real == (r := round(xc.real)):
        return r
    raise NotIntegerExponentsError(f"{name} = {x!r} is not an integer")


def _outcome(fn, *args):
    """repr(fn(*args)), or the class and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("x", P_VALUES + N_VALUES + [math.nan, 2.5 + 0j])
def test_integer_tests_match_complex(x):
    assert _outcome(_as_int, x, "n") == _outcome(_as_int_reference, x, "n")
    if not isinstance(x, complex) and math.isfinite(x):  # as a spec's n: pf's admission
        assert verify._integer_n(x) == _is_int_reference(x)


def _specs():
    for n in N_VALUES:
        for p in P_VALUES:
            for theta in (1.0, 7.0):
                yield IntegrandSpec(n=n, p=p, theta=theta, zeta=1.2)


def _complex_p(spec):
    return IntegrandSpec(n=spec.n, p=complex(spec.p), theta=spec.theta, zeta=spec.zeta,
                         upper=spec.upper)


def test_spec_predicates_match_complex():
    seen = set()
    for spec in _specs():
        reference = _complex_p(spec)
        real = complex(spec.p).imag == 0.0
        seen.add(real)
        assert verify._real_p(_real_or_complex(spec.p).imag) is real
        assert classify_domain(spec) == classify_domain(reference)
        for X in (None, 0.5, 1.0):
            assert _outcome(_x_kernel_args, spec, X) == _outcome(_x_kernel_args, reference, X)
    assert seen == {True, False}


def test_spec_refuses_non_finite_p_as_complex_does():
    for p in (math.inf, -math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="p must be finite"):
            IntegrandSpec(n=2.0, p=p, theta=1.0, zeta=1.0)
    with pytest.raises(OverflowError):  # as complex(10 ** 400) raises
        IntegrandSpec(n=2.0, p=10 ** 400, theta=1.0, zeta=1.0)


# ---------------------------------------------------------------------------
# _report's max_abs_err: max - min against the pairwise maximum

VALUE_SETS = [
    (1.0, -2.5), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1e308, -1e308),
    (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (math.nan, 1.0),
    (0.1, 0.2, 0.3), (-1e-300, 0.0, 1e-300), (2.0, 2.0, 2.0), (5e-324, -0.0, 0.0),
    (1.0, math.inf, 3.0), (1.0, math.nan, math.inf),
    (3.0, -1.0, 2.0, -0.0), (0.0, -0.0, 0.0, -0.0), (1.0, math.inf, -math.inf, 0.0),
    (1e300, -1e300, 1e-300, 7.0), (0.1 + 0.2, 0.3, 0.30000000000000004, 0.3),
]
SPEC = IntegrandSpec(2.0, 1.0, 1.0, 2.0)  # every route admits it
ROUTE_NAMES = ("_closed_value", "pf_value", "quad_value", "series_value")


def _pairwise(values):
    return max(abs(x - y) for i, x in enumerate(values) for y in values[i + 1:])


def _patch_routes(monkeypatch, values):
    """Let the routes return ``values`` (None: the route raises)."""
    for name, value in zip(ROUTE_NAMES, values):
        def route(*args, value=value):
            if value is None:
                raise CoshintError("left out")
            return value
        monkeypatch.setattr(verify, name, route)


def _placements(values):
    """``values`` on the four routes, as given and with routes left out."""
    yield values + (None,) * (4 - len(values))
    if len(values) < 4:
        yield (None,) * (4 - len(values)) + values
        yield (values[0], None) + values[1:] + (None,) * (3 - len(values))


@pytest.mark.parametrize("values", VALUE_SETS)
def test_max_abs_err_is_the_pairwise_maximum(monkeypatch, values):
    for placed in _placements(values):
        _patch_routes(monkeypatch, placed)
        report = verify.verify_point(SPEC, 1e-9)
        assert [report.closed, report.pf, report.quad, report.series] == list(placed)
        expected = _pairwise([v for v in placed if v is not None])
        assert repr(report.max_abs_err) == repr(expected)
        assert math.copysign(1.0, report.max_abs_err) == math.copysign(1.0, expected)
        agree = verify.Verdict.AGREE if expected <= 1e-9 else verify.Verdict.DISAGREE
        assert report.verdict is agree


def test_max_abs_err_on_random_route_values(monkeypatch):
    rng = random.Random(5)
    for _ in range(2000):
        count = rng.choice((2, 3, 4))
        values = tuple(rng.choice((rng.uniform(-1.0, 1.0),
                                   rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308),
                                   rng.choice((0.0, -0.0, 1.0))))
                       for _ in range(count))
        _patch_routes(monkeypatch, values + (None,) * (4 - count))
        report = verify.verify_point(SPEC, 1e-9)
        expected = _pairwise(values)
        assert repr(report.max_abs_err) == repr(expected), values


# ---------------------------------------------------------------------------
# the grid writer's float strings


@pytest.mark.parametrize("value", [0.5, -0.0, 0.0, 1e300, 5e-324, math.inf, -math.inf,
                                   math.nan, 2, 0, True, np.float64(0.25), 0.5 + 0j])
def test_format_complex_prints_complex_values_real_part(value):
    assert cli.format_complex(value) == repr(complex(value).real)


def test_integer_grid_p_still_prints_as_a_float(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"n": 5, "p": 2, "theta": 2.0, "zeta": 1.0}]')
    assert cli.main(["verify", "--grid", str(grid)]) == 0
    line = capsys.readouterr().out.strip()
    assert '"p": "2.0"' in line
