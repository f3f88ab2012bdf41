import json
import math
import time

import numpy as np
import pytest

import coshint.cli as cli
from coshint.cli import (
    MAX_SWEEP_SPECS,
    build_parser,
    format_complex,
    main,
    parse_complex_literal,
    parse_grid,
    parse_upper,
    report_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from coshint.errors import CoshintError
from coshint.params import DomainKind, DomainStatus, IntegrandSpec, NormalizedForm
from coshint.verify import (
    EvalReport,
    Lcg64,
    Verdict,
    pf_value,
    series_value,
    verify_point,
    verify_points,
)

PI_STR = "3.141592653589793"
HALF_PI = "1.5707963267948966"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("text,value", [
    ("0.5", 0.5),
    ("-2", -2.0),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("-0.3i", -0.3j),
    ("0.5i", 0.5j),
    ("1e-3+2e-4i", 1e-3 + 2e-4j),
    ("i", 1j),
    ("-i", -1j),
])
def test_parse_complex_literal(text, value):
    assert parse_complex_literal(text) == value


def test_complex_roundtrip():
    for z in (0.5, -1.25, 1 + 2j, -0.5 - 0.25j, 0.75j):
        assert parse_complex_literal(format_complex(z)) == complex(z)


def test_parse_grid():
    assert parse_grid("1.5") == [1.5]
    got = parse_grid("0:0.1:0.9")
    assert len(got) == 10
    assert math.isclose(got[-1], 0.9, rel_tol=1e-12)
    assert parse_grid("1:1:3") == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("text", ["0:1:inf", "0:1:-inf", "-inf:1:0", "inf:1:inf",
                                  "0:inf:1", "nan:1:2", "0:nan:1", "0:1:nan"])
def test_parse_grid_refuses_non_finite_parts(text):
    with pytest.raises(ValueError, match="finite"):
        parse_grid(text)


def test_table_non_finite_sweep_exits_2(capsys):
    code = main(["table", "--n", "1", "--p", "0.5", "--theta", "0:1:inf", "--zeta", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bad sweep: grid ranges need finite")
    code = main(["table", "--n", "1", "--p", "nan:0.1:0.5", "--theta", "1", "--zeta", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("bad sweep: grid ranges need finite")


def _walk(text):
    """The values parse_grid gave by stepping k until start + k*step
    passed stop + step/2; run only on ranges of a few thousand values."""
    start, step, stop = (float(x) for x in text.split(":"))
    values, k = [], 0
    while start + k * step <= stop + 0.5 * step:
        values.append(start + k * step)
        k += 1
    return values


def _ranges() -> list[str]:
    rng = Lcg64(17)
    texts = ["0:0.1:0.3", "0:0.1:0.9", "-0.0:1:2", "5:1:4", "5:1:4.5", "1:1:1",
             "0.1:0.1:0.30000000000000004", "1e20:1:1e20", "1e16:1:1e16+4",
             "-3:0.7:3", "1e-300:1e-300:1e-297"]
    for _ in range(300):
        start = rng.uniform(-10.0, 10.0)
        step = (0.1, 0.3, 0.25, 1e-3, 0.333, 2.5, 7.0)[int(rng.next_float() * 7)]
        stop = start + step * rng.uniform(-2.0, 3000.0)
        texts.append(f"{start!r}:{step!r}:{stop!r}")
    return [t.replace("1e16+4", repr(1e16 + 4)) for t in texts]


def test_parse_grid_counts_the_values_the_walk_gave():
    for text in _ranges():
        got, want = parse_grid(text), _walk(text)
        assert [x.hex() for x in got] == [x.hex() for x in want], text
    assert len(parse_grid("1e20:1:1e20")) == 8193  # 1e20 + k rounds to 1e20


@pytest.mark.parametrize("text", ["0:1e-9:1", "1:1e-300:2", "1e20:1e-10:1e20",
                                  "0:1:1e6", "-1e308:1:1e308"])
def test_parse_grid_refuses_a_range_above_the_sweep_limit(text):
    with pytest.raises(ValueError, match="holds more than 1000000 values"):
        parse_grid(text)
    assert len(parse_grid("1:1:1e6")) == MAX_SWEEP_SPECS


@pytest.mark.parametrize("argv", [
    ["--n", "0:1e-9:1", "--p", "0", "--theta", "1", "--zeta", "1"],
    ["--n", "1:1e-300:2", "--p", "0.5", "--theta", "1", "--zeta", "1"],
    ["--n", "1", "--p", "0:1e-12:0.5", "--theta", "1", "--zeta", "1"],
    # each range is below the limit, the sweep is not: 1001 * 1000 specs
    ["--n", "1:1:1001", "--p", "0", "--theta", "0.001:0.001:1", "--zeta", "1"],
])
def test_table_refuses_a_sweep_above_the_limit(capsys, argv):
    start = time.perf_counter()
    code = main(["table", *argv])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bad sweep: ")
    assert "more than 1000000" in captured.err


def test_table_takes_a_sweep_of_the_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SWEEP_SPECS", 6)
    argv = ["table", "--n", "1:1:2", "--p", "0:0.2:0.4", "--theta", "1", "--zeta", "1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert main(argv[:-1] + ["1:1:2"]) == 2
    assert capsys.readouterr().err == "bad sweep: the sweep holds more than 6 specs\n"
    # an empty range makes an empty sweep, but a range above the limit is refused
    assert main(argv[:-2] + ["--zeta", "1:1:0"]) == 0
    assert capsys.readouterr().out.splitlines() == [",".join(cli._CSV_HEADER)]
    assert main(["table", "--n", "1:1:7", "--p", "0", "--theta", "1", "--zeta", "1:1:0"]) == 2
    assert "holds more than 6 values" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "-1000000000"])
def test_verify_random_refuses_a_negative_count(capsys, count):
    assert main(["verify", "--random", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad --random: the spec count must be nonnegative, got {count}\n"
    assert main(["verify", "--random", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_verify_random_refuses_a_count_above_the_limit(monkeypatch, capsys):
    def refuse(count, seed):
        raise AssertionError(f"random_specs({count}, {seed}) was called")

    monkeypatch.setattr(cli, "random_specs", refuse)
    assert main(["verify", "--random", str(MAX_SWEEP_SPECS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"bad --random: the spec count must be at most {MAX_SWEEP_SPECS}, "
                            f"got {MAX_SWEEP_SPECS + 1}\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SWEEP_SPECS", 3)  # a run of the limit is taken
    assert main(["verify", "--random", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_parse_upper():
    assert parse_upper("inf") == math.inf
    assert parse_upper("1") == 1.0
    with pytest.raises(ValueError):
        parse_upper("2.0")


@pytest.mark.parametrize("text", ["Inf", "INF", "infinity", "+inf", " inf\n", math.inf])
def test_parse_upper_reads_infinity_as_float_does(text, capsys):
    assert parse_upper(text) == math.inf
    if isinstance(text, str):
        argv = ["eval", "--n", "2", "--p", "1", "--theta", "1", "--zeta", "2",
                "--method", "quad"]
        assert run_cli(capsys, argv + ["--upper", text]) == run_cli(
            capsys, argv + ["--upper", "inf"])
    for bad in ("-inf", "nan", "0", "1.5"):
        with pytest.raises(ValueError, match="finite upper limits must lie in"):
            parse_upper(bad)


def test_spec_dict_roundtrip():
    spec = IntegrandSpec(2.0, 0.5 + 0.25j, 1.0, 2.0, upper=math.inf)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_eval_closed(capsys):
    code, out = run_cli(capsys, [
        "eval", "--n", "1", "--p", "0.5", "--theta", HALF_PI,
        "--zeta", HALF_PI, "--upper", "1", "--method", "closed"])
    assert code == 0
    assert math.isclose(float(out), math.pi / math.sqrt(2), rel_tol=1e-12)


def test_eval_excluded_exits_2(capsys):
    code, _ = run_cli(capsys, [
        "eval", "--n", "1", "--p", "1.5", "--theta", "1.57", "--zeta", "1.57"])
    assert code == 2


def test_eval_infinite_doubles(capsys):
    argv = ["eval", "--n", "1.5", "--p", "0.7", "--theta", "2.0",
            "--zeta", "1.0", "--method", "closed"]
    _, one = run_cli(capsys, argv + ["--upper", "1"])
    _, two = run_cli(capsys, argv + ["--upper", "inf"])
    assert float(two) == 2.0 * float(one)


def test_eval_deg_flag(capsys):
    _, rad = run_cli(capsys, ["eval", "--n", "1", "--p", "0.5",
                              "--theta", HALF_PI, "--zeta", HALF_PI])
    _, deg = run_cli(capsys, ["eval", "--n", "1", "--p", "0.5",
                              "--theta", "90", "--zeta", "90", "--deg"])
    assert abs(float(rad) - float(deg)) < 1e-12


def test_eval_json_report(capsys):
    code, out = run_cli(capsys, [
        "eval", "--n", "2", "--p", "1", "--theta", HALF_PI,
        "--zeta", HALF_PI, "--method", "all", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Agree"
    assert spec_from_dict(report["spec"]) == IntegrandSpec(2, 1.0, math.pi / 2,
                                                           math.pi / 2)


# one spec that every route admits: n = 2, p = 1, theta = 1, zeta = 2, X = 1
_ALL_ROUTES = ["--n", "2", "--p", "1", "--theta", "1", "--zeta", "2"]


@pytest.mark.parametrize("method", ["closed", "pf", "quad", "series"])
def test_eval_method_prints_the_route_value(capsys, method):
    code, out = run_cli(capsys, ["eval", *_ALL_ROUTES, "--method", method])
    assert code == 0
    report = verify_point(IntegrandSpec(2.0, 1.0, 1.0, 2.0), 1e-9)
    assert out == repr(getattr(report, method)) + "\n"


def test_eval_method_all_lists_the_routes_then_the_verdict(capsys):
    code, out = run_cli(capsys, ["eval", *_ALL_ROUTES, "--method", "all"])
    assert code == 0
    report = verify_point(IntegrandSpec(2.0, 1.0, 1.0, 2.0), 1e-9)
    names = ("closed", "pf", "quad", "series")
    assert None not in [getattr(report, name) for name in names]
    assert out.splitlines() == [f"{name} {getattr(report, name)!r}" for name in names] + [
        f"verdict {report.verdict.value} max_abs_err {report.max_abs_err!r}"]


_ROUTE_CALLS = {"pf": pf_value, "series": lambda spec: series_value(spec, 1e-9)}


@pytest.mark.parametrize("method,spec", [
    ("pf", IntegrandSpec(2.5, 1.0, 1.0, 2.0)),
    ("series", IntegrandSpec(2.0, 1.0, 1.0, 2.0, upper=0.5)),
])
def test_eval_method_refused_route_exits_2_with_its_message(capsys, method, spec):
    code = main(["eval", "--n", repr(spec.n), "--p", "1", "--theta", "1", "--zeta", "2",
                 "--upper", repr(spec.upper), "--method", method])
    captured = capsys.readouterr()
    with pytest.raises(CoshintError) as exc:
        _ROUTE_CALLS[method](spec)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"domain error: {exc.value}\n"


def test_decompose_json_fields(capsys):
    code, out = run_cli(capsys, [
        "decompose", "--n", "2", "--p", "1", "--theta", HALF_PI,
        "--zeta", HALF_PI, "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["k"] for row in rows] == [0, 1]
    assert set(rows[0]) == {"k", "omega", "coeff"}
    assert math.isclose(rows[0]["omega"], math.pi / 4, rel_tol=1e-12)
    assert math.isclose(rows[0]["coeff"], 0.5, rel_tol=1e-12)


def test_decompose_rejects_bad_exponents(capsys):
    code, _ = run_cli(capsys, ["decompose", "--n", "1", "--p", "0.5",
                               "--theta", "1.0", "--zeta", "1.0"])
    assert code == 2
    code, _ = run_cli(capsys, ["decompose", "--n", "2", "--p", "3",
                               "--theta", "1.0", "--zeta", "1.0"])
    assert code == 2


def test_series_command(capsys):
    code, out = run_cli(capsys, [
        "series", "--variant", "contracted", "--n", "1", "--p", "0.5",
        "--theta", HALF_PI, "--tol", "1e-8"])
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - math.pi / math.sqrt(2)) < 1e-8


def test_series_nan_tol_refused(capsys):
    code = main(["series", "--variant", "contracted", "--n", "1", "--p", "0.5",
                 "--theta", "1", "--tol", "nan"])
    err = capsys.readouterr().err
    assert code == 2
    assert "series error: tol = nan is not >= the supported floor" in err


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "-inf"])
@pytest.mark.parametrize("argv", [
    ["verify", "--random", "1"],
    ["eval", "--n", "2", "--p", "1", "--theta", "1", "--zeta", "1", "--json"],
    ["table", "--n", "2", "--p", "1", "--theta", "1", "--zeta", "1"],
    ["paradox", "--kind", "periodicity", "--n", "1", "--p", "0.5", "--theta", HALF_PI,
     "--k", "1"],
])
def test_a_nan_or_negative_tol_exits_2(capsys, argv, tol):
    # such a tol read Disagree on every row (exit 1), or a paradox that
    # failed to manifest; --tol -1e-9 as two arguments is tested below
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    assert "argument --tol: tol must be a number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--p", "-0.5i"), ("--p", "-1e-3"), ("--p", "-i"),
                                         ("--theta", "-1e-3")])
def test_a_negative_literal_is_the_value_of_its_flag(capsys, flag, value):
    # argparse alone reads -0.5i, -1e-3 and -i as flags (exit 2, "expected
    # one argument"); main() joins each onto its flag, as --flag=value
    fields = {"--n": "2", "--p": "0.5", "--theta": "1", "--zeta": "1", flag: value}
    argv = ["eval", *(x for item in fields.items() for x in item), "--json"]
    code, out = run_cli(capsys, argv)
    fields.pop(flag)
    joined = ["eval", *(x for item in fields.items() for x in item), f"{flag}={value}",
              "--json"]
    assert code in (0, 1) and (code, out) == run_cli(capsys, joined)


@pytest.mark.parametrize("tol", ["-1e-9", "-inf"])
@pytest.mark.parametrize("argv", [
    ["verify", "--random", "1"],
    ["eval", "--n", "2", "--p", "1", "--theta", "1", "--zeta", "1", "--json"],
])
def test_a_negative_tol_as_two_arguments_exits_2(capsys, argv, tol):
    # joined onto --tol, the value reaches parse_tol, which refuses it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: tol must be a number >= 0, got {float(tol)!r}" in err


@pytest.mark.parametrize("tol", ["0", "inf"])
def test_tol_zero_and_inf_are_accepted(capsys, tol):
    code, out = run_cli(capsys, ["verify", "--random", "2", "--tol", tol])
    assert code == (0 if tol == "inf" else 1)
    assert len(out.splitlines()) == 2


def test_verify_random_deterministic(capsys):
    argv = ["verify", "--random", "8", "--seed", "42", "--tol", "1e-9"]
    code1, out1 = run_cli(capsys, argv + ["--threads", "1"])
    code2, out2 = run_cli(capsys, argv + ["--threads", "4"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 8
    for line in out1.splitlines():
        assert json.loads(line)["verdict"] in ("Agree", "Skipped")


def test_verify_grid_file(tmp_path, capsys):
    grid = [
        {"n": 1, "p": 0.5, "theta": math.pi / 2, "zeta": math.pi / 2},
        {"n": 1, "p": 1.5, "theta": 1.57, "zeta": 1.57},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out = run_cli(capsys, ["verify", "--grid", str(path)])
    assert code == 0
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert verdicts == ["Agree", "Skipped"]


def test_verify_grid_uncanonical_theta_disagrees(tmp_path, capsys):
    grid = [{"n": 1, "p": 0.5, "theta": math.pi / 2 + 2 * math.pi,
             "zeta": math.pi / 2}]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, out = run_cli(capsys, ["verify", "--grid", str(path)])
    assert code == 1
    assert json.loads(out.splitlines()[0])["verdict"] == "Disagree"


def test_verify_bad_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, ["verify", "--grid", str(path)])
    assert code == 2


@pytest.mark.parametrize("upper", [2.0, -1, "2.0"], ids=["number", "negative", "text"])
def test_verify_grid_upper_out_of_range_exits_2(tmp_path, capsys, upper):
    # a number in the file gets the same range check as the flag's text
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"n": 2, "p": 0.5, "theta": 1, "zeta": 1,
                                 "upper": upper}]))
    code = main(["verify", "--grid", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad grid file: finite upper limits must lie in (0, 1]" in captured.err


def test_spec_from_dict_accepts_a_numeric_upper():
    base = {"n": 2, "p": 0.5, "theta": 1, "zeta": 1}
    assert spec_from_dict({**base, "upper": 0.5}).upper == 0.5
    assert spec_from_dict({**base, "upper": 1}).upper == 1.0
    assert spec_from_dict(json.loads('{"upper": Infinity, "n": 2, "p": 0.5, '
                                     '"theta": 1, "zeta": 1}')).upper == math.inf


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def _run_calls(capsys, tmp_path, fresh):
    """Exit code, stdout, stderr and --out file of each call, in one process."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"n": 1, "p": 0.5, "theta": math.pi / 2, "zeta": math.pi / 2},
        {"n": 2, "p": 1.0, "theta": 1.0, "zeta": 2.0, "upper": 0.5},
        {"n": 1, "p": 0.5, "theta": 1.0, "zeta": 1.0, "upper": "inf"},
    ]))
    out = tmp_path / "out.jsonl"
    calls = [
        ["verify", "--grid", str(grid), "--out", str(out)],
        ["verify", "--no-such-flag"],
        ["--help"],
        ["series", "--variant", "one-sided", "--n", "2", "--p", "0.5", "--theta", "1"],
        ["eval", "--n", "2", "--p", "0.5", "--theta", "1", "--zeta", "1", "--json"],
        ["verify", "--grid", str(grid)],
    ]
    results = []
    for argv in calls:
        if fresh:
            cli._parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        results.append((code, captured.out, captured.err, written))
    return results


def test_main_reuses_one_parser(tmp_path, capsys):
    # a failed parse and --help leave the cached parser as a fresh one
    cached = _run_calls(capsys, tmp_path, fresh=False)
    parser = cli._parser()
    assert main(["series", "--variant", "one-sided", "--n", "2", "--theta", "1"]) == 0
    assert cli._parser() is parser
    capsys.readouterr()
    fresh = _run_calls(capsys, tmp_path, fresh=True)
    assert [r[0] for r in cached] == [0, 2, 0, 0, 0, 0]
    assert cached[0][3] == cached[5][1] != ""
    assert "usage: coshint" in cached[2][1]
    assert cached == fresh


def test_table_csv(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _ = run_cli(capsys, [
        "table", "--n", "1", "--p", "0:0.2:0.8", "--theta", "0.5:0.9:2.3",
        "--zeta", HALF_PI, "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ("n,p_re,p_im,theta,zeta,upper,domain,closed,pf,quad,"
                        "series,max_abs_err,verdict")
    assert len(lines) == 1 + 5 * 3  # header + full grid, nothing dropped
    assert all(line.endswith("Agree") for line in lines[1:])


def test_table_flags_excluded_rows(capsys):
    code, out = run_cli(capsys, [
        "table", "--n", "1", "--p", "1.5", "--theta", "1.0",
        "--zeta", "1.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "excluded" in lines[1]


def test_series_imaginary_variant(capsys):
    code, out = run_cli(capsys, [
        "series", "--variant", "imaginary", "--n", "1", "--q", "1",
        "--theta", HALF_PI, "--tol", "1e-8"])
    assert code == 0
    value = float(out.split()[1])
    assert abs(value - math.pi * math.sinh(math.pi / 2) / math.sinh(math.pi)) < 1e-8


def test_eval_pf_and_quad_methods(capsys):
    argv = ["eval", "--n", "2", "--p", "1", "--theta", "1.0", "--zeta", "2.0"]
    _, pf = run_cli(capsys, argv + ["--method", "pf"])
    _, quad = run_cli(capsys, argv + ["--method", "quad"])
    assert abs(float(pf) - float(quad)) < 1e-10
    code, _ = run_cli(capsys, ["eval", "--n", "2", "--p", "0.5", "--theta", "1.0",
                               "--zeta", "2.0", "--method", "pf"])
    assert code == 2  # non-integer exponents have no fraction construction


def test_table_thread_determinism(tmp_path, capsys):
    paths = []
    for tag, threads in (("one", "1"), ("four", "4")):
        path = tmp_path / f"{tag}.csv"
        code, _ = run_cli(capsys, [
            "table", "--n", "1:0.5:2", "--p", "0.2:0.3:0.8", "--theta", "1.0",
            "--zeta", "1.0", "--threads", threads, "--out", str(path)])
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_paradox_periodicity_cli(capsys):
    code, out = run_cli(capsys, [
        "paradox", "--kind", "periodicity", "--n", "1", "--p", "0.5",
        "--theta", HALF_PI, "--k", "1"])
    assert code == 0
    assert "mismatch" in out
    code, _ = run_cli(capsys, [
        "paradox", "--kind", "periodicity", "--n", "1", "--p", "0.5",
        "--theta", HALF_PI, "--k", "0"])
    assert code == 1  # control case: no paradox to show


def test_paradox_refuses_an_upper_limit(capsys):
    # the periodicity paradox is shown at X = 1 only: --upper is not a flag
    with pytest.raises(SystemExit) as exc:
        main(["paradox", "--kind", "periodicity", "--n", "1", "--p", "0.5",
              "--theta", HALF_PI, "--k", "1", "--upper", "inf"])
    assert exc.value.code == 2
    assert "--upper" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--grid", "g.json", "--random", "5"], []])
def test_verify_needs_exactly_one_of_grid_and_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_paradox_imaginary_cli(capsys):
    code, out = run_cli(capsys, [
        "paradox", "--kind", "imaginary-n", "--m", "1", "--p", "0.5",
        "--theta", HALF_PI])
    assert code == 0
    assert "pole_location" in out


def test_paradox_periodicity_takes_an_imaginary_p(capsys):
    code, out = run_cli(capsys, [
        "paradox", "--kind", "periodicity", "--p", "0.5i", "--theta", HALF_PI, "--k", "1"])
    assert code == 0
    assert "oracle_value" in out


@pytest.mark.parametrize("kind, flag", [
    ("imaginary-n", ["--n", "7"]),
    ("imaginary-n", ["--zeta", "0.1"]),
    ("imaginary-n", ["--k", "5"]),
    ("imaginary-n", ["--tol", "1e-3"]),
    ("periodicity", ["--m", "5"]),
])
def test_paradox_refuses_the_other_kinds_flags(capsys, kind, flag):
    code = main(["paradox", "--kind", kind, "--p", "0.5", "--theta", HALF_PI, *flag])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"{flag[0]} does not apply to --kind {kind}\n"


def test_paradox_imaginary_n_refuses_a_complex_p(capsys):
    code = main(["paradox", "--kind", "imaginary-n", "--p", "0.5+3i", "--theta", HALF_PI])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--p" in captured.err


@pytest.mark.parametrize("kind, defaults", [
    ("periodicity", ["--n", "1", "--zeta", HALF_PI, "--k", "1", "--tol", "1e-9"]),
    ("imaginary-n", ["--m", "1"]),
])
def test_paradox_flags_keep_their_defaults(capsys, kind, defaults):
    argv = ["paradox", "--kind", kind, "--p", "0.5", "--theta", HALF_PI]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert run_cli(capsys, argv + defaults) == (0, out)


def test_imaginary_p_at_finite_x_gets_a_quadrature_value(capsys):
    argv = ["eval", "--n", "1.5", "--p", "0.7i", "--theta", "1", "--zeta", "2",
            "--upper", "0.5"]
    code, out = run_cli(capsys, argv + ["--method", "quad"])
    assert code == 0
    value = float(out)
    code, out = run_cli(capsys, argv + ["--json"])
    report = json.loads(out)
    assert report["quad"] == value
    assert [report[k] for k in ("closed", "pf", "series")] == [None, None, None]
    assert report["verdict"] == "Skipped"  # quadrature is its only route


def test_table_upper_inf(capsys):
    code, out = run_cli(capsys, [
        "table", "--n", "1.5", "--p", "0.2:0.3:0.8", "--theta", "2.0",
        "--zeta", "1.0", "--upper", "inf"])
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert row["upper"] == "inf"
        assert all(row[name] for name in ("closed", "quad", "series"))
        assert row["verdict"] == "Agree"


# ---------------------------------------------------------------------------
# report_line: the verify and eval --json writer


def _edge_grid() -> list[IntegrandSpec]:
    """Specs of every domain kind and route pattern, at X = 1, inf and 0.5."""
    specs = []
    for upper in (1.0, math.inf, 0.5):
        for n, p in ((3.0, 1.0), (3.0, -2.0), (2.5, 0.7), (2.0, 0.6j),
                     (2.0, 0.5 + 0.3j), (2.0, -0.0), (2.0, 2.0), (1.0, -3.0)):
            for theta in (1.0, math.pi, 0.0, 2 * math.pi, 7.5, -1.0):
                specs.append(IntegrandSpec(n=n, p=p, theta=theta, zeta=1.0, upper=upper))
    return specs


def test_report_line_equals_json_dumps_on_the_workloads(workload):
    for name in ("random_unit", "integer_inf", "integer_x", "near_edge"):
        for report in verify_points(workload(name, 1), 1e-9):
            assert cli.report_line(report) == json.dumps(report_to_dict(report))


def test_report_line_equals_json_dumps_on_every_domain_kind():
    reports = verify_points(_edge_grid(), 1e-9)
    kinds = {r.domain.kind for r in reports}
    assert kinds == set(DomainKind)
    for report in reports:
        assert cli.report_line(report) == json.dumps(report_to_dict(report))


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_verify_writes_the_report_lines_of_every_domain_kind(tmp_path, capsys, tol):
    # cmd_verify writes its lines from verify_rows, without the reports
    rows = [(s, verify_point(s, tol)) for s in _edge_grid()]
    agreeing = [(s, r) for s, r in rows if r.verdict is not Verdict.DISAGREE]
    grid = tmp_path / "grid.json"
    for part, disagrees in ((rows, 1), (agreeing, 0)):
        grid.write_text(json.dumps([spec_to_dict(s) for s, _ in part]))
        code, out = run_cli(capsys, ["verify", "--grid", str(grid), "--tol", repr(tol)])
        assert out == "".join(cli.report_line(r) + "\n" for _, r in part)
        assert code == disagrees
    code, out = run_cli(capsys, ["verify", "--random", "20", "--seed", "3",
                                 "--tol", repr(tol)])
    specs = cli.random_specs(20, 3)
    assert out == "".join(cli.report_line(verify_point(s, tol)) + "\n" for s in specs)


_SPEC = IntegrandSpec(n=3.0, p=1.0, theta=1.0, zeta=1.0)
_NF = NormalizedForm(a=math.pi - 1.0, b=1.0 / 3.0, c=math.pi - 1.0, scale=1.0 / 3.0)
_VALID = DomainStatus(DomainKind.VALID, "inside the validity region")


@pytest.mark.parametrize("report", [
    EvalReport(_SPEC, _NF, _VALID, math.nan, math.inf, -math.inf, -0.0,
               5e-324, Verdict.DISAGREE, None),
    EvalReport(_SPEC, _NF, _VALID, 1e300, -1e300, 5e-324, None,
               math.nan, Verdict.AGREE, None),
    EvalReport(IntegrandSpec(n=3, p=1, theta=1, zeta=1, upper=math.inf),
               NormalizedForm(a=2, b=-0.0, c=0, scale=1), _VALID,
               None, 0, None, None, 0, Verdict.SKIPPED, "ints"),
    EvalReport(IntegrandSpec(n=np.float64(3.0), p=np.float64(1.0), theta=np.float64(1.0),
                             zeta=np.float64(1.0), upper=np.float64(0.5)),
               NormalizedForm(a=np.float64(2.0), b=np.float64(0.25), c=np.float64(2.0),
                              scale=np.float64(1 / 3)), _VALID,
               np.float64(0.1), np.float64(math.nan), np.float64(-0.0), np.float64(math.inf),
               np.float64(1e-17), Verdict.AGREE, None),
    EvalReport(IntegrandSpec(n=2.0, p=complex(-0.0, 0.5), theta=1.0, zeta=1.0),
               NormalizedForm(a=1.0, b=complex(0.0, -0.25), c=1.0, scale=0.5),
               DomainStatus(DomainKind.PARADOX_ONLY, 'say "\\n"\nand\tthéta ≈ 2π \x00'),
               None, None, None, None, 0.0, Verdict.SKIPPED, 'a "quote", a \\, a\nnewline, ß'),
])
def test_report_line_equals_json_dumps_on_hand_built_reports(report):
    assert cli.report_line(report) == json.dumps(report_to_dict(report))


def test_eval_json_prints_the_report_line(capsys):
    argv = ["eval", "--n", "2", "--p", "0.5", "--theta", "1", "--zeta", "1", "--json"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    spec = IntegrandSpec(n=2.0, p=0.5, theta=1.0, zeta=1.0)
    assert out == json.dumps(report_to_dict(verify_point(spec, 1e-9))) + "\n"


HUGE = 10 ** 400  # an integer literal beyond float range


@pytest.mark.parametrize("key", ["n", "p", "theta", "zeta", "upper"])
def test_verify_grid_refuses_an_integer_beyond_float_range(tmp_path, capsys, key):
    row = {"n": 2, "p": 0.5, "theta": 1, "zeta": 1, "upper": 1, key: HUGE}
    with pytest.raises(OverflowError):
        spec_from_dict(row)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"n": 2, "p": 0.5, "theta": 1, "zeta": 1}, row]))
    assert f'"{key}": 1{"0" * 400}' in path.read_text()
    code = main(["verify", "--grid", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bad grid file: int too large to convert to float\n"


@pytest.mark.parametrize("flags", [["--n", "-1"], ["--n", "inf"], ["--p", "nan"]])
def test_eval_refuses_an_invalid_spec_as_decompose_does(capsys, flags):
    values = {"--n": "2", "--p": "0.5", "--theta": "1", "--zeta": "1"}
    values.update([flags])
    argv = [x for item in values.items() for x in item]
    with pytest.raises(ValueError) as exc:
        IntegrandSpec(n=float(values["--n"]), p=parse_complex_literal(values["--p"]),
                      theta=1.0, zeta=1.0)
    for command in ("eval", "decompose"):
        code = main([command, *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"domain error: {exc.value}\n"
