"""Seeded spec generators for the four benchmark workloads.

Every workload draws its specs with ``coshint.Lcg64`` from the run's seed,
so one seed always yields the same specs, byte for byte, on every platform.
The program under test receives only the generated specs: as a grid file
for the CLI and as ``IntegrandSpec`` objects for ``verify_point``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from coshint import IntegrandSpec, Lcg64, random_specs

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    make: Callable[[int, int], list[IntegrandSpec]]
    expected_routes: tuple[str, ...]
    # a typical spec of the workload; every run checks that verify_point
    # returns exactly expected_routes for it
    fixed: IntegrandSpec
    why: str


def _strata(rng: Lcg64, count: int) -> list[int]:
    """A seeded random order of the slices 0..count-1 (Fisher-Yates).

    Spec i draws its stratified parameter from slice order[i] of its range.
    The parameter keeps its distribution, but the share of specs in any
    part of the range, such as the few costly specs near theta = 0 or
    2*pi, no longer swings from seed to seed; the latency tail would.
    """
    order = list(range(count))
    for j in range(count - 1, 0, -1):
        k = rng.next_u64() % (j + 1)
        order[j], order[k] = order[k], order[j]
    return order


def _integer_specs(count: int, seed: int, finite: bool) -> list[IntegrandSpec]:
    """Integer n in [1, 24], integer p in [0, n); X = inf or X in (0.05, 0.95).

    theta is stratified over (0.02, 2*pi - 0.02).  The series route's cost
    comes in steps of 8192 terms (a known defect of terms_used), and the
    specs that need two or more blocks are those near theta = 0 or 2*pi.
    Over (0.05, 2*pi - 0.05) they are 1.2% of specs, so the 99th
    percentile would jump between steps from seed to seed; over this range
    they are 2%, and it falls among them.
    """
    rng = Lcg64(seed)
    specs = []
    for stratum in _strata(rng, count):
        n = 1 + int(rng.next_float() * 24)
        p = int(rng.next_float() * n)
        theta = 0.02 + (TWO_PI - 0.04) * (stratum + rng.next_float()) / count
        zeta = rng.uniform(0.05, math.pi - 0.05)
        upper = rng.uniform(0.05, 0.95) if finite else math.inf
        specs.append(IntegrandSpec(n=float(n), p=float(p), theta=theta,
                                   zeta=zeta, upper=upper))
    return specs


def _near_edge_specs(count: int, seed: int) -> list[IntegrandSpec]:
    """|b| in [0.9, 0.99]; theta log-uniformly 1e-4 to 0.3 away from 0 or 2*pi.

    The log-distance is stratified, so the share of specs below the theta
    at which routes fail does not swing from seed to seed.
    """
    rng = Lcg64(seed)
    lo, hi = math.log(1e-4), math.log(0.3)
    specs = []
    for stratum in _strata(rng, count):
        n = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.9, 0.99)
        if rng.next_float() < 0.5:
            b = -b
        dist = math.exp(lo + (hi - lo) * (stratum + rng.next_float()) / count)
        theta = dist if rng.next_float() < 0.5 else TWO_PI - dist
        zeta = rng.uniform(0.05, math.pi - 0.05)
        specs.append(IntegrandSpec(n=n, p=b * n, theta=theta, zeta=zeta))
    return specs


# At least 1000 specs, so the p99 of per-spec times has ten specs beyond
# it.  integer_inf has 2000: its slowest 2% mix two step costs (series
# blocks and sinh-map levels), and with 1000 specs the p99 moved by 10-20%
# between seeds.
WORKLOADS = {
    w.name: w for w in (
        Workload("random_unit", 1000, lambda count, seed: random_specs(count, seed),
                 ("closed", "quad", "series"),
                 IntegrandSpec(n=1.5, p=0.6, theta=2.0, zeta=1.0),
                 "the coshint verify --random traffic: tanh-sinh quadrature "
                 "dominates, so batched quadrature must show here"),
        Workload("integer_inf", 2000, lambda count, seed: _integer_specs(count, seed, False),
                 ("closed", "pf", "quad", "series"),
                 IntegrandSpec(n=5.0, p=2.0, theta=2.0, zeta=1.0, upper=math.inf),
                 "X = inf: sinh-map quadrature and the series route share the "
                 "time, so a series change shows and a tanh-sinh one does not"),
        Workload("integer_x", 1000, lambda count, seed: _integer_specs(count, seed, True),
                 ("pf", "quad"),
                 IntegrandSpec(n=5.0, p=2.0, theta=2.0, zeta=1.0, upper=0.5),
                 "finite X: the only arctangent-sum workload, no series route, "
                 "so a series change predicts no move"),
        Workload("near_edge", 1000, _near_edge_specs,
                 ("closed", "quad", "series"),
                 IntegrandSpec(n=2.0, p=-1.9, theta=TWO_PI - 0.05, zeta=1.0),
                 "slow tails and theta near 0 or 2*pi: the hard specs that set "
                 "the latency tail and show the known route failures"),
    )
}


def generate(name: str, seed: int) -> list[IntegrandSpec]:
    workload = WORKLOADS[name]
    return workload.make(workload.count, seed)


def grid_json(specs: list[IntegrandSpec]) -> str:
    """The grid file the CLI reads: a JSON array of spec objects."""
    rows = [{"n": s.n, "p": s.p, "theta": s.theta, "zeta": s.zeta,
             "upper": "inf" if s.upper == math.inf else s.upper} for s in specs]
    return json.dumps(rows)
