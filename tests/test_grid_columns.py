"""The grid path's columns against the scalar calls they replace.

The grid parse (cli.grid_columns) must accept and refuse exactly what
spec_from_dict does, and the column forms of form_and_kind and of
_x_rule's kernel arguments and geometry must equal the scalar calls bit
for bit on every row.
"""

import json
import math
import random
import struct

import numpy as np
import pytest

import coshint.cli as cli
import coshint.verify as verify
from coshint.cli import grid_columns, main, spec_from_dict
from coshint.params import (
    IntegrandSpec,
    _real_or_complex,
    form_and_kind,
    form_and_kind_many,
    valid_fields,
)
from coshint.quadrature import _DE, _FOLDED, _LINE, _x_columns, _x_rule, _x_served

PI = math.pi
WORKLOADS = ("random_unit", "integer_inf", "integer_x", "near_edge")


def _outcome(call):
    """A call's value, or its error."""
    try:
        return call()
    except Exception as exc:
        return exc


def _error(outcome):
    """An outcome's error type and message, or None for a value."""
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else None


def _same_fields(columns, specs) -> bool:
    """Whether the columns hold the specs' fields, value and type."""
    return [[repr(x) for x in col] for col in columns] == \
        [[repr(x) for x in col] for col in verify._fields(specs)]


# ---------------------------------------------------------------------------
# the grid parse


_NUMBERS = [2, 3.5, 0, -1, 0.5, 1, True, False, 10 ** 400, -10 ** 400, 2 ** 70, 1e-300,
            7.0, 0.999]
_STRINGS = ["2", "0.5", "1+2i", "0.3i", "-i", "0.5+0i", "inf", "Infinity", "-inf", "nan",
            "", "x", "1e400", "2.5e-1"]
_OTHERS = [None, [1.0], {"a": 1}]
_KEYS = ("n", "p", "theta", "zeta", "upper")


def _value(rng):
    pick = rng.random()
    if pick < 0.55:
        return rng.choice(_NUMBERS)
    if pick < 0.9:
        return rng.choice(_STRINGS)
    return rng.choice(_OTHERS)


def _good_row(rng):
    return {"n": rng.choice([2, 3.5, "4"]), "p": rng.choice([0.5, 1, "0.3i", "1+0.5i", True]),
            "theta": rng.choice([1, 2.5, "7.0", 0]), "zeta": rng.choice([1, "0.5"]),
            "upper": rng.choice([1, 0.5, "inf", "Infinity", "1"])}


def _row(rng):
    """A spec row with its keys drawn at random, a key missing at times,
    or a row that is no object."""
    if rng.random() < 0.04:
        return rng.choice([[1, 2], "row", 3, None])
    row = _good_row(rng)
    for key in _KEYS:
        if rng.random() < 0.2:
            row[key] = _value(rng)
    if rng.random() < 0.05:
        del row[rng.choice(_KEYS)]
    return row


def _grids():
    rng = random.Random(30)
    for _ in range(1500):
        yield [_row(rng) for _ in range(rng.choice([1, 1, 2, 3, 5]))]
    good = {"n": 2, "p": 0.5, "theta": 1, "zeta": 1}
    yield []
    yield [good, {**good, "theta": "x"}]  # a bad row after a good one
    yield [good, {**good, "zeta": None}, {**good, "n": -1}]  # the later row's key comes first
    yield [{**good, "upper": 2}, {**good, "p": "1+"}]
    yield [{**good, "p": 10 ** 400}, {"n": 1}]
    yield [{key: value for key, value in good.items() if key != "theta"}, {**good, "n": "x"}]


def test_grid_columns_accept_and_refuse_what_spec_from_dict_does():
    accepted = refused = 0
    for raw in _grids():
        want = _outcome(lambda: [spec_from_dict(d) for d in raw])
        got = _outcome(lambda: grid_columns(raw))
        if _error(want):
            assert _error(got) == _error(want), raw
            refused += 1
        else:
            assert _same_fields(got, want), raw
            accepted += 1
    assert accepted > 300 and refused > 300


def test_grid_columns_take_the_column_path_on_valid_files(monkeypatch, workload):
    # a valid file builds no spec: spec_from_dict is not called
    valid = [raw for raw in _grids() if not _error(_outcome(
        lambda: [spec_from_dict(d) for d in raw]))]
    for name in WORKLOADS:  # p as a number (the benchmark's files) and as text
        specs = workload(name, 1)
        valid.append([{"n": s.n, "p": s.p, "theta": s.theta, "zeta": s.zeta,
                       "upper": "inf" if s.upper == math.inf else s.upper} for s in specs])
        valid.append([cli.spec_to_dict(s) for s in specs])
    monkeypatch.setattr(cli, "spec_from_dict", None)
    for raw in valid:
        grid_columns(json.loads(json.dumps(raw)))
    assert len(valid) > 300


def test_verify_refuses_a_grid_file_with_the_row_by_row_message(tmp_path, capsys):
    path = tmp_path / "grid.json"
    for raw in list(_grids())[::7]:
        want = _outcome(lambda: [spec_from_dict(d) for d in raw])
        path.write_text(json.dumps(raw))
        code = main(["verify", "--grid", str(path)])
        captured = capsys.readouterr()
        if _error(want):
            assert code == 2
            assert captured.err == f"bad grid file: {want}\n"
        else:
            assert captured.out == "".join(cli.report_line(verify.verify_point(s)) + "\n"
                                           for s in want)


def test_valid_fields_is_integrand_specs_check():
    values = [2.0, 0.5, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]
    ps = values + [1, True, 0.5j, complex(1.0, math.inf), complex(math.nan, 0.0)]
    rng = random.Random(1)
    for _ in range(4000):
        row = (rng.choice(values), rng.choice(ps), rng.choice(values), rng.choice(values),
               rng.choice(values))
        accepted = not _error(_outcome(lambda: IntegrandSpec(*row)))
        assert valid_fields(*([x] for x in row)) is accepted, row
    assert valid_fields([], [], [], [], [])


# ---------------------------------------------------------------------------
# the column forms of form_and_kind and _x_rule


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _corner_specs() -> list[IntegrandSpec]:
    """theta within 1e-12 of 0, pi and 2*pi and outside (0, 2*pi), |b| up
    to 1 - 1e-6, real and imaginary p, upper 0.5, 1 and inf (and 2, which
    the quadrature refuses), |p| >= n."""
    thetas = [5e-324, 1e-300, 1e-13, 1e-12, PI - 1e-12, PI - 1e-13, PI, PI + 5e-13, PI + 1e-12,
              2 * PI - 1e-12, math.nextafter(2 * PI, 0.0), 2 * PI, 0.0, -1.0, 7.5, 1.0, 4.0]
    bs = [0.0, -0.0, 0.3, -0.7, 1.0 - 1e-6, -(1.0 - 1e-6), 1.0, -1.5]
    specs = []
    for upper in (0.5, 1.0, math.inf, 1e-3, 2.0):
        for n in (1.0, 2.5, 7.0):
            for p in [b * n for b in bs] + [0.5j, -2j, complex(0.5, 0.0), 0.5 + 0.3j]:
                for theta in thetas:
                    specs.append(IntegrandSpec(n, p, theta, 2.9 if theta > 1 else 0.3, upper))
    return specs


def _grid_specs(workload):
    specs = _corner_specs()
    for name in WORKLOADS:
        for seed in (1, 2, 9001):
            specs += workload(name, seed)
    return specs


def test_random_unit_row_426_is_covered(workload):
    # sin(theta/2)**2 by numpy's square is an ulp off the scalar's here
    theta = workload("random_unit", 1)[426].theta
    assert 0.5 * theta == 1.1649135420204642
    s = math.sin(0.5 * theta)
    assert s ** 2 != np.square(np.array([s]))[0]


def test_form_and_kind_many_equals_form_and_kind(workload):
    specs = _grid_specs(workload)
    g = verify._columns(*verify._fields(specs))
    a, b, c, scale, inside, kinds = form_and_kind_many(g.n, g.p, g.theta, g.zeta)
    seen = set()
    for i, spec in enumerate(specs):
        want = form_and_kind(spec.n, spec.p, spec.theta, spec.zeta)
        assert inside[i] == (want[4] in ("valid", "boundary-a")), spec
        assert kinds[i] == (want[4:] if inside[i] else None), spec
        assert [_bits(x) for x in (c[i], scale[i])] == [_bits(x) for x in want[2:4]], spec
        if inside[i]:  # the others reduce theta first
            assert _bits(a[i]) == _bits(want[0]), spec
        if g.real_b[i]:
            assert type(want[1]) is float and _bits(b[i]) == _bits(want[1]), spec
        seen.add(want[4])
    assert seen == {"valid", "boundary-a", "singular-theta", "excluded", "paradox-only"}


def test_x_columns_equal_x_rule(workload):
    specs = _grid_specs(workload)
    g = verify._columns(*verify._fields(specs))
    served = _x_served(g.n, g.p, g.q, g.theta, g.upper)
    rows = np.flatnonzero(served)
    b, cos_c, sin2_half, s_x, decay, scale, span = _x_columns(
        *(col[rows] for col in (g.n, g.p, g.theta, g.zeta, g.upper)))
    maps = set()
    for i, spec in enumerate(specs):
        rule = _outcome(lambda: _x_rule(spec, spec.upper))
        assert served[i] == (not _error(rule)), spec
        if not served[i]:
            continue
        j = np.searchsorted(rows, i)
        m, params, geometry = rule
        if m is _DE:
            columns = (-s_x[j], decay[j])
        else:
            assert s_x[j] == (-math.inf if m is _LINE else 0.0)
            columns = (scale[j], span[j])
        assert [_bits(x) for x in columns] == [_bits(x) for x in geometry], spec
        assert [_bits(x) for x in (cos_c[j], sin2_half[j])] == \
            [_bits(x) for x in params[1:]], spec
        if _real_or_complex(spec.p).imag == 0.0:
            assert _bits(b[j]) == _bits(params[0]), spec
        maps.add(m)
    assert maps == {_LINE, _FOLDED, _DE}
