import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coshint import (
    DomainKind,
    IntegrandSpec,
    SingularThetaError,
    canonicalize_theta,
    classify_domain,
    denormalize,
    normalize,
    rescale,
    verify_point,
)
from coshint.params import (
    _THETA_PI_TOL,
    _inside_turn,
    _integer_n,
    _real_p,
    _summed_upper,
    _theta_at_pi,
    _upper_factor,
    _valid_upper,
)

PI = math.pi
_UPPERS = [0.0, -0.0, math.nextafter(1.0, 0.0), 1.0, 2.0, math.inf]
# the ends of (0, 1] and of (0, 2*pi), from either side, and inf and NaN
_EDGES = [0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), math.nextafter(2 * PI, 0.0), 2 * PI,
          math.inf, math.nan]


@pytest.mark.parametrize("predicate, values", [
    (_summed_upper, _UPPERS),
    (_upper_factor, _UPPERS),
    (_valid_upper, _EDGES),
    (_inside_turn, _EDGES),
    (_real_p, [0.0, -0.0, 5e-324, -0.5, 2.0]),
    (_integer_n, [1.0, 3.0, 64.0, 2.0 ** 60, math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0),
                  math.nextafter(1.0, 2.0), 0.5, 0.0]),
    (_theta_at_pi, [PI, *(PI + d * _THETA_PI_TOL for d in (-2.0, -1.0, 1.0, 2.0)),
                    *(math.nextafter(PI + d * _THETA_PI_TOL, PI + 2.0 * d) for d in (-1.0, 1.0)),
                    *(math.nextafter(PI + d * _THETA_PI_TOL, PI) for d in (-1.0, 1.0))]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_each_predicate_is_one_expression_on_floats_and_columns(predicate, values):
    # the one-row path runs a predicate on floats and the grid path on
    # columns: on each edge input the two must give the same value and type
    on_floats = [predicate(x) for x in values]
    column = predicate(np.array(values)).tolist()
    assert [(type(x), x) for x in column] == [(type(x), x) for x in on_floats]
    assert len(set(on_floats)) == 2  # the inputs lie on both sides of the decision


def test_canonicalize_identity():
    theta, shifted = canonicalize_theta(PI / 2)
    assert theta == PI / 2 and not shifted


def test_canonicalize_full_turn():
    theta, shifted = canonicalize_theta(PI / 2 + 2 * PI)
    assert shifted
    assert math.isclose(theta, PI / 2, rel_tol=0, abs_tol=1e-14)


def test_canonicalize_negative():
    theta, shifted = canonicalize_theta(-PI / 3)
    assert shifted
    assert math.isclose(theta, 5 * PI / 3, rel_tol=0, abs_tol=1e-14)


@pytest.mark.parametrize("theta", [0.0, 2 * PI, -2 * PI, 6 * PI])
def test_canonicalize_singular(theta):
    with pytest.raises(SingularThetaError):
        canonicalize_theta(theta)


@given(st.floats(min_value=1e-3, max_value=2 * PI - 1e-3),
       st.integers(min_value=-3, max_value=3))
def test_canonicalize_preserves_cosine(theta, k):
    shifted_theta = theta + 2 * PI * k
    canon, _ = canonicalize_theta(shifted_theta)
    assert 0.0 < canon < 2 * PI
    assert abs(math.cos(canon) - math.cos(shifted_theta)) < 5e-15
    assert abs(math.sin(canon) - math.sin(shifted_theta)) < 5e-15


def test_normalize_identity_scale():
    nf = normalize(IntegrandSpec(1, 0.0, PI / 2, PI / 2))
    assert nf.a == PI / 2 and nf.b == 0.0 and nf.c == PI / 2 and nf.scale == 1.0


def test_normalize_theta_pi():
    nf = normalize(IntegrandSpec(2, 1.0, PI, PI / 2))
    assert nf.a == 0.0 and nf.b == 0.5 and nf.scale == 0.5


def test_normalize_imaginary_p():
    nf = normalize(IntegrandSpec(2, 1j, PI / 2, PI / 2))
    assert nf.a == PI / 2 and nf.b == 0.5j and nf.c == PI / 2 and nf.scale == 0.5


def test_normalize_roundtrip():
    rng = np.random.RandomState(7)
    for _ in range(100):
        spec = IntegrandSpec(
            n=float(rng.uniform(0.2, 8.0)),
            p=float(rng.uniform(-3.0, 3.0)),
            theta=float(rng.uniform(0.1, 2 * PI - 0.1)),
            zeta=float(rng.uniform(0.0, PI)),
        )
        back = denormalize(normalize(spec))
        assert math.isclose(back.n, spec.n, rel_tol=1e-14)
        assert abs(complex(back.p) - complex(spec.p)) <= 1e-14 * (1 + abs(complex(spec.p)))
        # angles pass through a pi-subtraction, so allow one ulp of pi
        assert math.isclose(back.theta, spec.theta, rel_tol=1e-14, abs_tol=5e-16)
        assert math.isclose(back.zeta, spec.zeta, rel_tol=1e-14, abs_tol=5e-16)


@pytest.mark.parametrize("spec,kind", [
    (IntegrandSpec(1, 0.5, PI / 2, PI / 2), DomainKind.VALID),
    (IntegrandSpec(1, 1.5, PI / 2, PI / 2), DomainKind.EXCLUDED),
    (IntegrandSpec(2, 1.0, PI, PI / 2), DomainKind.BOUNDARY_A),
    (IntegrandSpec(1, 0.5, 2 * PI, PI / 2), DomainKind.SINGULAR_THETA),
    (IntegrandSpec(1, 0.5, PI / 2 + 2 * PI, PI / 2), DomainKind.PARADOX_ONLY),
    (IntegrandSpec(2, 0.4 + 0.3j, 1.0, 1.0), DomainKind.VALID),
    (IntegrandSpec(1, -1.0, PI / 2, PI / 2), DomainKind.EXCLUDED),
])
def test_classify_kinds(spec, kind):
    assert classify_domain(spec).kind is kind


def test_classify_shift_invariant_after_canonicalization():
    rng = np.random.RandomState(3)
    for _ in range(50):
        theta = float(rng.uniform(0.05, 2 * PI - 0.05))
        k = int(rng.randint(-3, 4))
        spec = IntegrandSpec(1.5, 0.7, theta, 1.0)
        canon, _ = canonicalize_theta(theta + 2 * PI * k)
        shifted = IntegrandSpec(1.5, 0.7, canon, 1.0)
        assert classify_domain(shifted).kind is classify_domain(spec).kind


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrandSpec(-1.0, 0.5, PI / 2, PI / 2)
    with pytest.raises(ValueError):
        IntegrandSpec(1.0, 0.5, PI / 2, PI / 2, upper=0.0)
    with pytest.raises(ValueError):
        IntegrandSpec(1.0, 0.5, math.nan, PI / 2)
    with pytest.raises(ValueError):
        IntegrandSpec(1.0, math.nan, PI / 2, PI / 2)
    with pytest.raises(ValueError):
        IntegrandSpec(1.0, complex(0.5, math.inf), PI / 2, PI / 2)


def test_rescale_exact():
    spec = IntegrandSpec(1.5, 0.75, 1.0, 2.0)
    check = rescale(spec, 2.0)
    assert check.scaled.n == 3.0
    assert check.scaled.p == 1.5
    assert check.scaled.theta == spec.theta and check.scaled.zeta == spec.zeta
    assert check.original is spec


def test_spec_fields_are_stored_as_python_floats():
    # ints, bools and numpy scalars become Python floats, p a float or a
    # complex, so every spec computes in float64 and prints as the CLI's do
    spec = IntegrandSpec(np.float32(3.0), np.int64(1), 1, True, upper=np.float64(0.5))
    assert [type(x) for x in (spec.n, spec.p, spec.theta, spec.zeta, spec.upper)] == [float] * 5
    assert (spec.n, spec.p, spec.theta, spec.zeta, spec.upper) == (3.0, 1.0, 1.0, 1.0, 0.5)
    for p, want in ((np.complex128(0.5 + 2j), 0.5 + 2j), (np.complex64(2j), 2j),
                    (complex(0.5, 0.0), complex(0.5, 0.0)), (2 ** 53 + 1, 2.0 ** 53)):
        got = IntegrandSpec(1e16, p, 1.0, 1.0).p
        assert type(got) is type(want) and got == want, p
    assert IntegrandSpec(3.0, 1.0, 1.0, 1.0) == IntegrandSpec(3, 1, 1, 1)


def test_a_string_p_is_refused():
    # complex() parses '1+2j', which then failed in form_and_kind's p / n
    with pytest.raises(ValueError, match="p must be a number"):
        IntegrandSpec(2.0, "1+2j", 1.0, 1.0)


def test_a_float32_spec_evaluates_in_float64():
    # in float32, cosh at X = inf overflowed under -W error::RuntimeWarning
    spec = IntegrandSpec(np.float32(3.0), 1.0, 1.0, 1.2, upper=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_point(spec)
    assert report == verify_point(IntegrandSpec(3.0, 1.0, 1.0, 1.2, upper=math.inf))
    assert report.quad is not None and type(report.quad) is float
