"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import coshint.verify  # noqa: E402
import run  # noqa: E402
from coshint import CoshintError  # noqa: E402
from reference import reference  # noqa: E402
from spans import Span, Tracer, self_times, union_length, wrap_targets  # noqa: E402
from specgen import WORKLOADS, generate, grid_json  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_specs(workload):
    first = grid_json(generate(workload, 7))
    assert grid_json(generate(workload, 7)) == first
    assert grid_json(generate(workload, 8)) != first
    assert len(json.loads(first)) == WORKLOADS[workload].count


def test_near_edge_keeps_its_theta_range():
    for spec in generate("near_edge", 3):
        dist = min(spec.theta, 2.0 * math.pi - spec.theta)
        assert 1e-4 <= dist <= 0.3
        assert 0.9 <= abs(spec.p / spec.n) <= 0.99


def _span(start, end, parent, layer="x"):
    return Span(layer, "f", start, end, parent, -1)


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span(0.0, 10.0, -1),  # root
        _span(1.0, 3.0, 0),  # child
        _span(3.0, 6.0, 0),  # child starting where the previous one ended
        _span(4.0, 5.0, 2),  # grandchild, inside the second child
        _span(7.0, 7.5, 0),  # third child
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 2.0, 1.0, 0.5])


def test_union_of_overlapping_intervals():
    assert union_length([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert union_length([]) == 0.0


def _current_targets():
    return {(m.__name__, name): getattr(m, name) for m, name, _ in wrap_targets()}


def test_wrappers_are_installed_then_restored():
    before = _current_targets()
    spec = WORKLOADS["integer_inf"].fixed
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(sys.modules[module], name) is not fn
                   for (module, name), fn in before.items())
        coshint.verify.verify_point(spec, run.TOL)
    assert _current_targets() == before
    layers = {s.layer for s in tracer.spans}
    assert {"verify", "params", "closed_form", "partial_fractions", "trig_sums",
            "quadrature", "series"} <= layers


def test_wrappers_are_restored_when_the_body_raises():
    before = _current_targets()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _current_targets() == before


def test_a_route_that_raises_counts_as_missing(monkeypatch):
    workload = WORKLOADS["random_unit"]
    spec = workload.fixed

    def broken(_spec):
        raise CoshintError("quadrature unavailable")

    monkeypatch.setattr(coshint.verify, "quad_value", broken)
    report = coshint.verify.verify_point(spec, run.TOL)
    assert report.quad is None
    ratios = run.correctness([report], [reference(spec)], workload.expected_routes)
    assert ratios["route_hit_frac"] == pytest.approx(2 / 3)
    assert ratios["ref_pass_frac"] == 1.0


def test_expected_routes_table_holds():
    assert run.routes_table_holds()


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
