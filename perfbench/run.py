"""coshint verification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run generates the workload's specs from the seed, computes a 30-digit
mpmath reference for each (untimed), and then measures for about S
seconds with one caller in a closed loop: a spec goes in only after the
previous one returned, in one single-threaded process.

--trace 0 prints the end-to-end metrics: set-up time of a fresh
interpreter, grid throughput of ``coshint.cli.main(["verify", "--grid",
...])``, per-spec latency of ``verify_point``, peak RSS of a cold CLI
process, and three correctness ratios.  --trace 1 wraps the calls into
each coshint module (see spans.py) and prints the per-layer metrics and
the tracing overhead.  Times are scaled to a reference core speed (see
"machine speed" below).  ``--workload all`` runs every workload both
ways in child processes and prints one table.

Every run checks the program's outputs: the CLI's JSON-lines output must
be byte-identical to ``json.dumps(report_to_dict(verify_point(s, tol)))``
for the same specs in the same order, repeated passes must give identical
reports, each workload's fixed spec must return exactly the workload's
expected routes, and the first specs' references must match mp.quad of
the s-domain kernel.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1
when a check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
if not (SRC / "coshint" / "__init__.py").is_file():
    sys.exit(f"perfbench: no coshint package at {SRC / 'coshint'}; "
             "run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy  # noqa: E402

import coshint  # noqa: E402
import coshint.cli as cli_mod  # noqa: E402
import coshint.verify as verify_mod  # noqa: E402
from reference import agrees_with_s_quad, reference  # noqa: E402
from spans import LAYERS, Tracer, is_call_into_layer, self_times, wrap_targets  # noqa: E402
from specgen import WORKLOADS, generate, grid_json  # noqa: E402

TOL = 1e-9  # verify_point's tolerance; also the CLI's --tol default
REF_SCALE = 1e-10  # criterion-1 scale: |value - ref| <= REF_SCALE * (1 + |ref|)
ROUTES = ("closed", "pf", "quad", "series")
SETUP_PROBES = 5
GRID_CHUNK = 125  # specs per grid file given to one cli.main call
MIN_PASSES = 3  # per-spec passes at least, so each spec's time is a median
REF_CHECKS = 2  # specs per run whose reference is checked against mp.quad
HELD_OUT_SEED = 9001  # never used while tuning; reserved to confirm a claimed gain

END_TO_END = {
    "setup_s": "s",
    "grid_specs_per_s": "specs/s",
    "eval_ms_p50": "ms",
    "eval_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "route_hit_frac": "ratio",
    "agree_frac": "ratio",
    "ref_pass_frac": "ratio",
}
PER_LAYER = {
    "quadrature.calls_per_spec": "calls/spec",
    "quadrature.evals_per_call_p50": "evals/call",
    "quadrature.evals_per_call_p99": "evals/call",
    "quadrature.self_ms_per_spec": "ms/spec",
    "quadrature.share": "ratio",
    "quadrature.fail_frac": "ratio",
    "quadrature.err_rel_max": "ratio",
    "quadrature.bound_miss_frac": "ratio",
    "series.calls_per_spec": "calls/spec",
    "series.terms_per_call_p50": "terms/call",
    "series.terms_per_call_p99": "terms/call",
    "series.self_ms_per_spec": "ms/spec",
    "series.share": "ratio",
    "series.fail_frac": "ratio",
    "series.err_rel_max": "ratio",
    "series.bound_miss_frac": "ratio",
    "partial_fractions.calls_per_spec": "calls/spec",
    "partial_fractions.terms_per_call": "terms/call",
    "partial_fractions.self_ms_per_spec": "ms/spec",
    "partial_fractions.share": "ratio",
    "partial_fractions.err_rel_max": "ratio",
    "trig_sums.calls_per_spec": "calls/spec",
    "trig_sums.self_ms_per_spec": "ms/spec",
    "closed_form.calls_per_spec": "calls/spec",
    "closed_form.self_ms_per_spec": "ms/spec",
    "closed_form.err_rel_max": "ratio",
    "params.calls_per_spec": "calls/spec",
    "params.self_ms_per_spec": "ms/spec",
    "verify.self_ms_per_spec": "ms/spec",
    "verify.routes_per_spec": "routes/spec",
    "cli.self_ms_per_spec": "ms/spec",
    "cli.bytes_per_spec": "B/spec",
    "cli.import_s": "s",
    "trace.overhead_ms": "ms",
}
# layer -> report field of the route it computes
_ROUTE_OF = {"closed_form": "closed", "partial_fractions": "pf",
             "quadrature": "quad", "series": "series"}


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sample_note(values: list[float], q: float) -> dict:
    return {"n": len(values), "beyond": len(values) - math.ceil(q * len(values))}


def rel_err(value: float, ref: float) -> float:
    """Error on the criterion-1 scale, |value - ref| / (1 + |ref|)."""
    return abs(value - ref) / (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared host the speed of one core drifts by up to 2x over seconds
# (other tenants), which would swamp any change to the program.  So the run
# times a fixed loop, which no commit of coshint can change, every
# READING_EVERY_S during per-spec passes and around every grid file and
# set-up probe.  A timed interval is scaled by CALIBRATION_S over the median
# loop time read within WINDOW_S of it: timings read as seconds on a core
# that runs the loop in CALIBRATION_S.  The record keeps unscaled values.

CALIBRATION_S = 2.5e-3  # the loop's time on an idle core of the reference host
WINDOW_S = 0.5
READING_EVERY_S = 0.04  # between readings during a per-spec pass


def _calibration_nodes(level: int) -> tuple[numpy.ndarray, numpy.ndarray]:
    h = 1.0 / (1 << level)
    m = numpy.arange(1, int(6.0 / h) + 1, 2 if level else 1, dtype=float) * h
    t = numpy.concatenate([-m[::-1], [0.0] if level == 0 else [], m])
    g = 0.5 * math.pi * numpy.sinh(t)
    return numpy.tanh(g), 0.5 * math.pi * numpy.cosh(t) / numpy.cosh(g) ** 2


_CAL_NODES = [_calibration_nodes(level) for level in range(5)]
_CAL_X = numpy.linspace(0.1, 4.0, 48)


def calibration_seconds() -> float:
    """Time a fixed loop shaped like the program's hot path: small numpy
    kernels on tanh-sinh nodes, reductions, and Python scalar arithmetic."""
    start = perf_counter()
    acc = 0.0
    for panel in range(6):
        half, mid = 2.0, 2.0 + 0.3 * panel
        for u, w in _CAL_NODES:
            s = numpy.abs(mid + half * u)
            em = numpy.exp(-s)
            f = w * (numpy.exp(-0.3 * s) + numpy.exp(-1.7 * s) + 0.4 * em) / (
                1.0 + em * em - 0.8 * em)
            acc += float(numpy.sum(f)) + math.atan2(float(numpy.sum(numpy.abs(f))), 1.0)
    for k in range(200):
        acc += float(numpy.sum(numpy.exp(-_CAL_X * (0.01 * k)) / (1.0 + _CAL_X)))
        acc += math.sin(k)
    return perf_counter() - start


class Tally:
    """Operations attempted and failed (one per spec verification), and the
    calibration readings (start time, loop seconds) taken during the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.readings: list[tuple[float, float]] = []

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            self.readings.append((perf_counter(), calibration_seconds()))

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        lo = bisect.bisect_left(self.readings, (start - WINDOW_S,))
        hi = bisect.bisect_right(self.readings, (start + seconds + WINDOW_S,))
        near = [loop for _, loop in self.readings[lo:hi]]
        return seconds * CALIBRATION_S / statistics.median(near)


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


_READY = ("import time; t0 = time.perf_counter(); import coshint.cli; "
          "t1 = time.perf_counter(); coshint.cli.build_parser(); print(t1 - t0)")


def probe_setup(count: int, tally: Tally) -> tuple[list[tuple[float, float]],
                                                  list[tuple[float, float]]]:
    """Fresh interpreters importing coshint.cli and building the parser:
    (start, wall seconds) of each, and (start, import seconds) as each
    child measured it."""
    cmd = [sys.executable, "-c", _READY]
    # one unmeasured child writes the bytecode cache a user would already have
    subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                   capture_output=True, timeout=120)
    walls, imports = [], []
    for _ in range(count):
        tally.calibrate(3)
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                              capture_output=True, text=True, timeout=120)
        walls.append((start, perf_counter() - start))
        imports.append((start, float(proc.stdout)))
    tally.calibrate(3)
    return walls, imports


def probe_peak_rss(grid: Path, out: Path) -> tuple[float, int]:
    """Peak RSS (MB) and exit code of one cold `python -m coshint.cli verify`."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "coshint.cli", "verify", "--grid", str(grid),
         "--out", str(out)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------------------
# passes over the workload

def eval_pass(specs, tally: Tally, tracer: Tracer | None = None):
    """verify_point on each spec in turn, each call timed on its own.

    Returns the reports and each call's (start, seconds).
    """
    reports, timings = [], []
    tally.calibrate()
    last = perf_counter()
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.spec = i
        tally.attempted += 1
        start = perf_counter()
        try:
            report = verify_mod.verify_point(spec, TOL)
        except Exception:  # a failed operation is counted, not fatal
            tally.failed += 1
            report = None
        end = perf_counter()
        timings.append((start, end - start))
        reports.append(report)
        if end - last >= READING_EVERY_S:
            tally.calibrate()
            last = perf_counter()
    tally.calibrate()
    return reports, timings


def grid_pass(chunks: list[tuple[Path, Path, int]], tally: Tally) -> list[tuple[float, float]]:
    """The grid through the CLI entry point, in process, one grid file of
    GRID_CHUNK specs at a time with calibration readings in between;
    (start, seconds) of each file."""
    timings = []
    for grid, out, n_specs in chunks:
        tally.attempted += n_specs
        tally.calibrate(2)
        start = perf_counter()
        try:
            code = cli_mod.main(["verify", "--grid", str(grid), "--out", str(out)])
        except Exception:
            code = -1
        timings.append((start, perf_counter() - start))
        if code not in (0, 1):  # 1 only reports a Disagree verdict
            tally.failed += n_specs
    tally.calibrate(2)
    return timings


def expected_output(reports) -> str:
    return "".join(json.dumps(cli_mod.report_to_dict(r)) + "\n" for r in reports)


def routes_of(report) -> tuple[str, ...]:
    return tuple(r for r in ROUTES if getattr(report, r) is not None)


def routes_table_holds() -> bool:
    """Each workload's fixed spec returns exactly its expected routes."""
    return all(routes_of(verify_mod.verify_point(w.fixed, TOL)) == w.expected_routes
               for w in WORKLOADS.values())


# ---------------------------------------------------------------------------
# metrics


def correctness(reports, refs, expected_routes) -> dict[str, float]:
    """route_hit_frac, agree_frac and ref_pass_frac of one pass's reports.

    A route that raised inside verify_point leaves its value None and so
    counts as missing.
    """
    hits = values = passed = agree = 0
    for report, ref in zip(reports, refs):
        agree += report.verdict is verify_mod.Verdict.AGREE
        for route in ROUTES:
            value = getattr(report, route)
            if value is None:
                continue
            hits += route in expected_routes
            values += 1
            passed += rel_err(value, ref) <= REF_SCALE
    return {"route_hit_frac": hits / (len(reports) * len(expected_routes)),
            "agree_frac": agree / len(reports),
            "ref_pass_frac": passed / values if values else 0.0}


def layer_metrics(tracer: Tracer, reports, refs, specs, scale: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced per-spec passes, and sample counts.

    Times are multiplied by ``scale``, the traced passes' scaled time over
    their raw time.  Counts repeat exactly from pass to pass, so their
    percentiles are those of one pass.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    evals, terms, root_counts = [], [], []
    bound_miss = {"quadrature": 0, "series": 0}
    bound_seen = {"quadrature": 0, "series": 0}
    verify_calls = 0
    verify_time = 0.0
    for span, own in zip(spans, selfs):
        busy[span.layer] += own
        if span.name == "root_angles" and span.error is None:
            root_counts.append(len(span.result))
        if not is_call_into_layer(spans, span):
            continue
        calls[span.layer] += 1
        failed[span.layer] += span.error is not None
        if span.layer == "verify" and span.parent < 0:
            verify_calls += 1
            verify_time += span.end - span.start
        if span.error is not None or span.spec < 0:
            continue
        ref = refs[span.spec]
        if span.layer == "quadrature":
            evals.append(span.result.evaluations)
            actual = abs(float(span.result.value) - ref)
            bound_seen["quadrature"] += 1
            bound_miss["quadrature"] += span.result.abs_err_estimate < actual
        elif span.layer == "series" and reports[span.spec].series is not None:
            factor = 2.0 if specs[span.spec].upper == math.inf else 1.0
            terms.append(span.result.terms_used)
            actual = abs(reports[span.spec].series - ref)
            bound_seen["series"] += 1
            bound_miss["series"] += factor * span.result.tail_estimate < actual

    def per_spec(x):
        return x / verify_calls

    def frac(num, den):
        return num / den if den else 0.0

    def err_max(route):
        errs = [rel_err(getattr(r, route), ref) for r, ref in zip(reports, refs)
                if getattr(r, route) is not None]
        return max(errs, default=0.0)

    m = {}
    for layer in ("quadrature", "series", "partial_fractions", "trig_sums",
                  "closed_form", "params", "verify"):
        m[f"{layer}.calls_per_spec"] = per_spec(calls[layer])
        m[f"{layer}.self_ms_per_spec"] = 1e3 * scale * per_spec(busy[layer])
        m[f"{layer}.share"] = frac(busy[layer], verify_time)
    for layer, route in _ROUTE_OF.items():
        m[f"{layer}.err_rel_max"] = err_max(route)
    for layer in ("quadrature", "series"):
        m[f"{layer}.fail_frac"] = frac(failed[layer], calls[layer])
        m[f"{layer}.bound_miss_frac"] = frac(bound_miss[layer], bound_seen[layer])
    m["quadrature.evals_per_call_p50"] = percentile(evals, 0.50)
    m["quadrature.evals_per_call_p99"] = percentile(evals, 0.99)
    m["series.terms_per_call_p50"] = percentile(terms, 0.50)
    m["series.terms_per_call_p99"] = percentile(terms, 0.99)
    m["partial_fractions.terms_per_call"] = frac(sum(root_counts),
                                                 calls["partial_fractions"])
    m["verify.routes_per_spec"] = statistics.fmean(len(routes_of(r)) for r in reports)
    notes = {"verify_point calls traced": verify_calls,
             "quadrature.evals_per_call": sample_note(evals, 0.99),
             "series.terms_per_call": sample_note(terms, 0.99),
             "layers_self_ms_per_spec_sum": sum(
                 1e3 * scale * per_spec(busy[layer]) for layer in LAYERS if layer != "cli")}
    return m, notes


def cli_self_ms_per_spec(tracer: Tracer, specs_run: int, scale: float) -> float:
    """cli.main's own time (all but verify_point) per spec run through it."""
    spans = tracer.spans
    own = self_times(spans)
    busy = scale * sum(t for s, t in zip(spans, own) if s.name == "main" and s.parent < 0)
    return 1e3 * busy / specs_run


# ---------------------------------------------------------------------------
# one run


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "platform": platform.platform(), "commit": _commit()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, run record)."""
    # One core for this process and its children, so the calibration
    # readings and the timed work always share a core.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec_set = WORKLOADS[workload]
    specs = generate(workload, seed)
    refs = [reference(s) for s in specs]
    checks = {"routes_table": routes_table_holds(),
              "reference_vs_s_domain_quad": all(
                  agrees_with_s_quad(s) for s in specs[:REF_CHECKS])}
    out_dir = OUT / f"{workload}-trace{int(trace)}"  # overwritten by the next run
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = out_dir / "grid.json"
    grid.write_text(grid_json(specs), encoding="utf-8")
    chunks = []
    for lo in range(0, len(specs), GRID_CHUNK):
        part = specs[lo:lo + GRID_CHUNK]
        chunk = (out_dir / f"grid-{lo}.json", out_dir / f"cli-{lo}.jsonl", len(part))
        chunk[0].write_text(grid_json(part), encoding="utf-8")
        chunks.append(chunk)
    tally = Tally()
    setup_walls, imports = probe_setup(SETUP_PROBES, tally)

    reports, _ = eval_pass(specs, Tally())  # warm-up; the reference reports
    expected = expected_output(reports) if None not in reports else None
    same_reports = True
    output_ok = True

    def check_output(*paths: Path) -> None:
        nonlocal output_ok
        text = "".join(path.read_text(encoding="utf-8") for path in paths)
        output_ok = output_ok and text == expected

    def evaluate(tracer: Tracer | None = None) -> list[tuple[float, float]]:
        nonlocal same_reports
        pass_reports, timings = eval_pass(specs, tally, tracer)
        same_reports &= pass_reports == reports
        return timings

    def scaled(timings) -> list[float]:
        return [tally.scaled(start, seconds) for start, seconds in timings]

    def per_spec(passes) -> list[float]:
        """Each spec's (or grid file's) median scaled time over the passes."""
        return [statistics.median(times) for times in zip(*map(scaled, passes))]

    def enough(passes) -> bool:
        return perf_counter() - begin >= seconds and len(passes) >= MIN_PASSES

    record = {"workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
              "trace": int(trace), "specs": len(specs),
              "expected_routes": list(spec_set.expected_routes),
              "machine": machine(), "pinned_cpu": cpu, "tol": TOL,
              "samples": {"setup_probes": SETUP_PROBES}}
    begin = perf_counter()
    if not trace:
        rss_mb, rss_code = probe_peak_rss(grid, out_dir / "cold.jsonl")
        check_output(out_dir / "cold.jsonl")
        grids, passes = [], []
        while True:
            grids.append(grid_pass(chunks, tally))
            check_output(*(out for _, out, _ in chunks))
            passes.append(evaluate())
            if enough(passes):
                break
        samples = per_spec(passes)
        metrics = {"setup_s": statistics.median(scaled(setup_walls)),
                   "grid_specs_per_s": len(specs) / sum(per_spec(grids)),
                   "eval_ms_p50": 1e3 * statistics.median(samples),
                   "eval_ms_p99": 1e3 * percentile(samples, 0.99),
                   "peak_rss_mb": rss_mb}
        metrics.update(correctness(reports, refs, spec_set.expected_routes))
        checks["cold_cli_exit"] = rss_code in (0, 1)
        raw = [statistics.median(seconds for _, seconds in times) for times in zip(*passes)]
        record["unscaled"] = {"setup_s": statistics.median(t for _, t in setup_walls),
                              "grid_specs_per_s": statistics.median(
                                  len(specs) / sum(t for _, t in chunk_times)
                                  for chunk_times in grids),
                              "eval_ms_p50": 1e3 * statistics.median(raw),
                              "eval_ms_p99": 1e3 * percentile(raw, 0.99)}
        record["samples"].update({"grid_passes": len(grids), "eval_passes": len(passes),
                                  "eval_ms (per-spec medians)": sample_note(samples, 0.99),
                                  "peak_rss_children": 1})
    else:
        before = {(m.__name__, name): getattr(m, name) for m, name, _ in wrap_targets()}
        eval_tracer = Tracer(keep_results=("quadrature", "series", "partial_fractions"))
        cli_tracer = Tracer()
        plain, traced, grids = [], [], []
        first_pass_spans = 0
        while True:
            plain.append(evaluate())
            with eval_tracer.installed():
                traced.append(evaluate(eval_tracer))
            first_pass_spans = first_pass_spans or len(eval_tracer.spans)
            with cli_tracer.installed():
                grids.append(grid_pass(chunks, tally))
            check_output(*(out for _, out, _ in chunks))
            if enough(traced):
                break
        after = {(m.__name__, name): getattr(m, name) for m, name, _ in wrap_targets()}
        checks["wrappers_restored"] = before == after
        # the speed scale of the traced time, applied to its per-layer split
        traced_all = [timing for times in traced for timing in times]
        metrics, notes = layer_metrics(
            eval_tracer, reports, refs, specs,
            sum(scaled(traced_all)) / sum(seconds for _, seconds in traced_all))
        plain, traced = per_spec(plain), per_spec(traced)
        grid_all = [timing for chunk_times in grids for timing in chunk_times]
        metrics["cli.self_ms_per_spec"] = cli_self_ms_per_spec(
            cli_tracer, len(specs) * len(grids),
            sum(scaled(grid_all)) / sum(t for _, t in grid_all))
        metrics["cli.bytes_per_spec"] = sum(
            out.stat().st_size for _, out, _ in chunks) / len(specs)
        metrics["cli.import_s"] = statistics.median(scaled(imports))
        p50_plain = 1e3 * statistics.median(plain)
        p50_traced = 1e3 * statistics.median(traced)
        metrics["trace.overhead_ms"] = p50_traced - p50_plain
        metrics = {name: metrics[name] for name in PER_LAYER}
        notes.update({"eval_ms_p50_untraced": p50_plain,
                      "eval_ms_p50_traced": p50_traced,
                      "eval_ms_mean_untraced": 1e3 * statistics.fmean(plain),
                      "eval_ms_mean_traced": 1e3 * statistics.fmean(traced)})
        record["samples"].update({"eval_passes": len(grids), "cli_passes": len(grids),
                                  "eval_ms (per-spec medians)": sample_note(plain, 0.99)})
        record["accounting"] = notes
        eval_tracer.write(out_dir / "spans.jsonl", first_pass_spans)
    record["seconds_measured"] = perf_counter() - begin
    record["calibration_s"] = {"nominal": CALIBRATION_S,
                               "median": statistics.median(t for _, t in tally.readings),
                               "readings": len(tally.readings)}
    checks.update({"cli_output_byte_identical": output_ok,
                   "reports_repeat": same_reports, "no_failed_operations": tally.failed == 0})
    record["checks"] = checks
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": all(checks.values()), "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return result, record


# ---------------------------------------------------------------------------
# all workloads, both ways


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in its own child process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                sys.stderr.write(proc.stderr)
                results[(workload, trace)] = {"correct": False, "attempted": 0,
                                              "failed": 0, "metrics": {}}
                continue
            print(lines[0])  # the run record
            results[(workload, trace)] = json.loads(lines[-1])
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        print(f"\n{'metric':<36}{'unit':>12}" + "".join(f"{w:>14}" for w in WORKLOADS))
        for name, unit in names.items():
            cells = []
            for workload in WORKLOADS:
                entry = results[(workload, trace)]["metrics"].get(name)
                cells.append(f"{entry['value']:>14.6g}" if entry else f"{'-':>14}")
            print(f"{name:<36}{unit:>12}" + "".join(cells))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": entry
                        for (w, _), r in results.items()
                        for name, entry in r["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(coshint.__file__).resolve().parent != SRC / "coshint":
        sys.exit(f"perfbench: imported coshint from {coshint.__file__}, not from {SRC}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
