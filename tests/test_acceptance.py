"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single `criterion NN <name>: PASS|FAIL` line (visible
with `pytest -s`); the asserted condition is identical to the printed
one.  The random grids use the package's own deterministic generator,
so every run checks the same points.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from coshint import (
    IntegrandSpec,
    Lcg64,
    TrigSumSpec,
    closed_value,
    cosine_sum,
    eval_cosh_ratio,
    eval_master,
    eval_sec_case,
    eval_sech2_transform,
    eval_sech_transform,
    eval_split_cos_form,
    eval_split_form,
    eval_tan_case,
    eval_theta_pi_limit,
    integral_at,
    integral_closed,
    integrand_value,
    middle_term_integral,
    normalize,
    paradox_imaginary_n,
    paradox_periodicity,
    quad_sec_antiderivative_check,
    quad_t_domain,
    quad_two_sided,
    quad_x_domain,
    quad_x_domain_infinite,
    random_specs,
    reconstruct,
    rescale,
    decompose,
    series_contracted,
    series_imaginary,
    sine_sum,
    squared_denominator_identity,
    weighted_cosine_sum,
)
from coshint.quadrature import integrate_half_line
from coshint.trig_sums import arc_cosine_sum, arc_sum

PI = math.pi


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def master_grid():
    """The 500-spec grid shared by criteria 1 and 4, evaluated once."""
    specs = random_specs(500, seed=1)
    rows = []
    for spec in specs:
        one = quad_x_domain(spec, 1.0).value
        nf = normalize(spec)
        closed = eval_master(nf.a, nf.b, nf.c).value.real
        rows.append((spec, one, closed))
    return rows


def test_criterion_01_master_formula_vs_oracle(master_grid):
    bad = []
    for spec, one, closed in master_grid:
        err = abs(spec.n * one - closed)
        if err > 1e-10 * (1.0 + abs(closed)):
            bad.append((spec, err))
    ok = not bad
    _report(1, "master formula vs oracle (500 seeded specs)", ok)
    assert ok, f"{len(bad)} grid points out of tolerance, first: {bad[:2]}"


def test_criterion_02_secant_value_all_four_routes():
    spec = IntegrandSpec(1, 0.5, PI / 2, PI / 2)
    target = PI / math.sqrt(2)
    routes = {
        "closed": closed_value(spec),
        "sec_case": eval_sec_case(0.5),
        # integer exponents via the doubling substitution x = z**2
        "pf": 2.0 * integral_closed(rescale(spec, 2.0).scaled),
        "quad": quad_x_domain(spec, 1.0).value,
        "series": series_contracted(1.0, 0.5, PI / 2, 1e-10).value,
    }
    errs = {k: abs(v - target) for k, v in routes.items()}
    ok = all(e <= 1e-11 for e in errs.values())
    _report(2, "secant case equals pi/sqrt(2) by all four routes", ok)
    assert ok, errs


def test_criterion_03_middle_term_reduction():
    spec = IntegrandSpec(1, 0.0, PI / 2, PI / 2)
    errs = [abs(closed_value(spec) - PI / 2),
            abs(quad_x_domain(spec, 1.0).value - PI / 2)]
    grid_ok = True
    for n in np.linspace(0.5, 5.0, 10):
        for theta in np.linspace(0.15, 2 * PI - 0.15, 10):
            want = middle_term_integral(float(n), float(theta))
            got = 0.5 * quad_x_domain(
                IntegrandSpec(float(n), 0.0, float(theta), PI / 2), 1.0).value
            if abs(got - want) > 1e-11:
                grid_ok = False
    ok = max(errs) <= 1e-11 and grid_ok
    _report(3, "middle-term value pi/2 and 10x10 reduction grid", ok)
    assert ok, (errs, grid_ok)


def test_criterion_04_infinite_upper_doubles(master_grid):
    bad = []
    for spec, one, _ in master_grid:
        inf = quad_x_domain_infinite(spec).value  # whole line: the folded map's |s| nodes
        err = abs(inf - 2.0 * one)
        if err > 1e-10 * (1.0 + abs(inf)):
            bad.append((spec, err))
    ok = not bad
    _report(4, "infinite upper limit doubles the unit value", ok)
    assert ok, f"{len(bad)} grid points out of tolerance, first: {bad[:2]}"


def test_criterion_05_one_sided_kernels_equal():
    rng = Lcg64(5)
    ok = True
    details = []
    for _ in range(50):
        a = rng.uniform(0.1, PI - 0.1)
        b = rng.uniform(-0.9, 0.9)
        plus = quad_two_sided(a, b).value
        minus = quad_two_sided(a, -b).value
        target = 2.0 * eval_cosh_ratio(a, b).value.real
        if abs(plus - target) > 1e-10 or abs(minus - target) > 1e-10 \
                or abs(plus - minus) > 1e-10:
            ok = False
            details.append((a, b, plus, minus, target))
    _report(5, "signed power kernels both integrate to twice the ratio value", ok)
    assert ok, details[:3]


def test_criterion_06_partial_fraction_machinery():
    xs = (0.07, 0.25, 0.5, 0.75, 0.93)
    bad_reconstruct = 0
    bad_assembly = 0
    for n in range(1, 21):
        for p in range(0, n):
            for theta in (0.3, PI / 2, 2.8):
                for zeta in (0.1, PI / 2, 3.0):
                    spec = IntegrandSpec(n, p, theta, zeta)
                    d = decompose(spec)
                    for x in xs:
                        want = integrand_value(spec, x)
                        if abs(reconstruct(d, x) - want) > 1e-12 * (1 + abs(want)):
                            bad_reconstruct += 1
                    if abs(integral_at(spec, 1.0) - integral_closed(spec)) > 1e-11:
                        bad_assembly += 1
    ok = bad_reconstruct == 0 and bad_assembly == 0
    _report(6, "reconstruction and arctangent assembly over the integer grid", ok)
    assert ok, (bad_reconstruct, bad_assembly)


def test_criterion_07_trig_sum_lemmas():
    rng = Lcg64(7)
    ok = True
    count = 0
    while count < 200:
        alpha = rng.uniform(-PI, PI)
        beta = rng.uniform(-PI, PI)
        if abs(math.sin(beta)) <= 0.2:
            continue
        count += 1
        n = 1 + int(rng.uniform(0.0, 50.0))
        spec = TrigSumSpec(alpha=alpha, beta=beta, count=n)
        j = np.arange(1, n + 1, dtype=np.longdouble)
        al, be = np.longdouble(alpha), np.longdouble(beta)
        tol = n * 1e-13
        if abs(cosine_sum(spec) - float(np.sum(np.cos(al + 2 * j * be)))) > tol:
            ok = False
        if abs(weighted_cosine_sum(spec)
               - float(np.sum(j * np.cos(al + 2 * j * be)))) > tol:
            ok = False
        if abs(sine_sum(spec) - float(np.sum(np.sin(al + (2 * j - 1) * be)))) > tol:
            ok = False
    for n in (1, 2, 3, 7, 20, 50):
        for p in range(1, min(n, 6)):
            theta = 0.31 + 5.3 * p / n
            jj = np.arange(n, dtype=np.longdouble)
            coeff = ((n - 2.0 * jj) * np.longdouble(PI) - np.longdouble(theta)) / n
            angles = np.mod(np.longdouble(p) * (np.longdouble(theta)
                            + 2 * np.longdouble(PI) * jj) / n,
                            2 * np.longdouble(PI))
            direct = float(np.sum(coeff * np.cos(angles)))
            if abs(arc_cosine_sum(n, p, theta) - direct) > 1e-11:
                ok = False
            if abs(arc_sum(n, theta) - (PI - theta)) > 1e-13:
                ok = False
    _report(7, "telescoped progression sums match their definitions", ok)
    assert ok


def _quad_sech2(q: float) -> float:
    def kernel(t: np.ndarray) -> np.ndarray:
        e = np.exp(-2.0 * t)
        return np.cos(2.0 * q * t) * 4.0 * e / (1.0 + e) ** 2

    return integrate_half_line(kernel, 0.0, 2.0).value


def _quad_tan_kernel(b: float) -> float:
    def kernel(t: np.ndarray) -> np.ndarray:
        e2 = np.exp(-2.0 * t)
        return (np.exp((b - 1.0) * t) - np.exp(-(b + 1.0) * t)) / (1.0 - e2)

    return integrate_half_line(kernel, 1e-300, 1.0 - b).value


def _quad_split(f: float, b: float) -> float:
    ca = 0.5 * (f + 1.0 / f)

    def kernel(t: np.ndarray) -> np.ndarray:
        e = np.exp(-t)
        return (np.exp((b - 1.0) * t) + np.exp(-(b + 1.0) * t)) / (
            1.0 + e * e + 2.0 * ca * e)

    return integrate_half_line(kernel, 0.0, 1.0 - b).value


def _quad_split_cos(f: float, q: float) -> float:
    ca = 0.5 * (f + 1.0 / f)

    def kernel(t: np.ndarray) -> np.ndarray:
        e = np.exp(-t)
        return np.cos(q * t) * 2.0 * e / (1.0 + e * e + 2.0 * ca * e)

    return 0.5 * integrate_half_line(kernel, 0.0, 1.0).value


def test_criterion_08_transform_theorems():
    ok = True
    for a in np.linspace(-2.8, 2.8, 7):
        if a == 0.0:
            a = 0.35
        for q in np.linspace(-3.0, 3.0, 7):
            got = eval_sech_transform(float(a), float(q))
            quad = quad_t_domain(float(a), 1j * float(q), PI / 2).value.real
            if abs(got - quad) > 1e-10:
                ok = False
    for q in (0.0, 0.5, 1.0, 2.0, 4.0):
        if abs(eval_sech2_transform(q) - _quad_sech2(q)) > 1e-10:
            ok = False
    for f in (1.1, 2.0, math.e, 10.0):
        for b in (0.3, 0.7):
            if abs(eval_split_form(f, b).value.real - _quad_split(f, b)) > 1e-10:
                ok = False
        for q in (0.5, 1.5):
            if abs(eval_split_cos_form(f, q) - _quad_split_cos(f, q)) > 1e-10:
                ok = False
    for b in np.arange(0.1, 0.95, 0.1):
        if abs(eval_tan_case(float(b)) - _quad_tan_kernel(float(b))) > 1e-10:
            ok = False
    _report(8, "cosine-transform and secant/tangent theorems vs quadrature", ok)
    assert ok


def test_criterion_09_repeated_root_limit():
    ok = True
    for b in np.arange(0.1, 0.95, 0.1):
        b = float(b)
        limit = eval_theta_pi_limit(b).value.real
        if abs(limit - eval_cosh_ratio(1e-6, b).value.real) > 1e-5:
            ok = False

        def kernel(t: np.ndarray, b=b) -> np.ndarray:
            e2 = np.exp(-2.0 * t)
            return (np.exp((2 * b - 2.0) * t) + np.exp(-(2 * b + 2.0) * t)) \
                * 2.0 / (1.0 + e2) ** 2

        quad = integrate_half_line(kernel, 0.0, 2.0 - 2.0 * b).value
        if abs(limit - quad) > 1e-10:
            ok = False
    rng = Lcg64(9)
    for _ in range(20):
        n = rng.uniform(0.7, 4.0)
        b = rng.uniform(0.1, 0.9)
        X = rng.uniform(0.05, 1.0)
        lhs, rhs = squared_denominator_identity(n, b * n, X)
        if abs(lhs - rhs) > 1e-10:
            ok = False
    _report(9, "repeated-root limit value and its reduction identity", ok)
    assert ok


def test_criterion_10_series_match_closed_forms():
    rng = Lcg64(10)
    ok = True
    for _ in range(30):
        n = rng.uniform(0.5, 3.0)
        b = rng.uniform(-0.9, 0.9)
        q = rng.uniform(-3.0, 3.0)
        theta = rng.uniform(0.1, 2 * PI - 0.1)
        res = series_contracted(n, b * n, theta, 1e-8)
        want = eval_cosh_ratio(PI - theta, b).value.real / n
        if abs(res.value - want) > 1e-8 or res.terms_used > 100_000:
            ok = False
        res = series_imaginary(n, q, theta, 1e-8)
        if q == 0.0:
            want = (PI - theta) / (n * math.sin(theta))
        else:
            want = (PI * math.sinh(q * (PI - theta) / n)
                    / (n * math.sin(theta) * math.sinh(q * PI / n)))
        if abs(res.value - want) > 1e-8 or res.terms_used > 100_000:
            ok = False
    _report(10, "accelerated series reach their closed sums", ok)
    assert ok


def test_criterion_11_paradox_suite():
    rng = Lcg64(11)
    ok = True
    for i in range(20):
        n = rng.uniform(0.5, 3.0)
        b = rng.uniform(-0.85, 0.85)
        theta = rng.uniform(0.2, 2 * PI - 0.2)
        zeta = rng.uniform(0.1, PI - 0.1)
        k = (1, -1, 2, -2)[i % 4]
        spec = IntegrandSpec(n, b * n, theta, zeta)
        rep = paradox_periodicity(spec, k)
        if not (rep.mismatch > 0.05 and rep.restored_mismatch < 1e-9):
            ok = False
    for _ in range(10):
        m = rng.uniform(0.3, 3.0)
        p = rng.uniform(0.1, 2.0)
        theta = rng.uniform(0.2, PI - 0.2)
        rep = paradox_imaginary_n(m, p, theta)
        if not (abs(rep.formula_value.imag) > 0.01
                and rep.pole_location is not None
                and 0.0 < rep.pole_location < PI):
            ok = False
    for _ in range(10):
        m = rng.uniform(0.5, 3.0)
        z = rng.uniform(0.1, 0.95) * (0.5 * PI - 2e-3) / m
        lhs, rhs = quad_sec_antiderivative_check(m, z)
        if abs(lhs - rhs) > 1e-11:
            ok = False
    _report(11, "both paradoxes manifest; secant antiderivative agrees", ok)
    assert ok


def test_criterion_12_scale_invariance():
    rng = Lcg64(12)
    ok = True
    for _ in range(20):
        n = rng.uniform(0.5, 3.0)
        b = rng.uniform(-0.9, 0.9)
        theta = rng.uniform(0.2, 2 * PI - 0.2)
        zeta = rng.uniform(0.1, PI - 0.1)
        spec = IntegrandSpec(n, b * n, theta, zeta)
        quad_base = quad_x_domain(spec, 1.0).value
        closed_base = closed_value(spec)
        for lam in (0.5, 2.0, 2.7):
            scaled = rescale(spec, lam).scaled
            if abs(quad_x_domain(scaled, 1.0).value - quad_base / lam) > 1e-10:
                ok = False
            if abs(closed_value(scaled) - closed_base / lam) > 1e-10:
                ok = False
    _report(12, "exponent rescaling divides the value by the scale factor", ok)
    assert ok


def test_criterion_13_cli_determinism(tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        path = tmp_path / f"run_{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "coshint.cli", "verify", "--random", "100",
             "--seed", "42", "--tol", "1e-9", "--threads", threads,
             "--out", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2] and len(outs[0].splitlines()) == 100
    verdicts = {json.loads(line)["verdict"] for line in outs[0].splitlines()}
    ok = ok and verdicts <= {"Agree", "Skipped"}
    _report(13, "verification runs are byte-identical across runs and threads", ok)
    assert ok
