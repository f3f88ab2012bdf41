"""Command-line surface: eval, verify, decompose, series, table, paradox.

Angles are radians unless --deg is given.  Complex literals use the
form RE, RE+IMi, RE-IMi or IMi with no spaces (e.g. 0.5, 1+2i, -0.3i);
grid ranges use start:step:stop, inclusive of stop within half a step,
and a table sweep or a verify --random run holds at most MAX_SWEEP_SPECS
specs.
Exit codes: 0 success or agreement, 1 verification disagreement or a
paradox that failed to manifest, 2 usage or domain errors.

The routes, their names and when each applies come from
coshint.verify.ROUTES: eval --method, the report keys and the table
columns follow it.  Sweeps evaluate the whole grid in one process, with
every route's block form run once over it, through
coshint.verify.verify_columns, which takes the grid as the five lists of
its specs' fields and gives each spec's report values as a plain row,
so that neither table nor verify builds a report, normalized form or
domain status per spec.  verify --grid builds no spec either:
grid_columns reads the file into the five lists with spec_from_dict's
conversions and IntegrandSpec's checks run on columns, and reads it row
by row only to report a bad file's first bad row.  Output rows follow
input order and each equals the single-spec report, so identical flags
and seed give byte-identical output.  --threads is still accepted but
has no effect.

One writer holds the report line's key layout: _line, one f-string over
a row's values in report_to_dict's key order, byte for byte equal to
json.dumps(report_to_dict(report)) without building the dicts or
running the json encoder.  verify writes each row with it, and
report_line, which eval --json uses, is its one-row call.
report_to_dict stays the dict form of a report and the reference that
the writer is tested against.  table writes each row's CSV cells with
_csv_row, which takes the row as _line does.

main() parses with one parser per process, built on its first call:
building it costs about 2 ms (53 add_argument calls), so a caller that
runs main() once per grid file, such as a script that sweeps many files
or the test suite, pays it once.  A one-shot ``coshint verify`` still
builds it once, about 1% of a 1000-spec run.  build_parser() returns a
fresh parser on every call.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .errors import CoshintError
from .params import (
    DomainKind,
    IntegrandSpec,
    canonicalize_theta,
    classify_domain,
    normalize,
    valid_fields,
)
from .partial_fractions import decompose
from .series import series_contracted, series_imaginary, series_one_sided
from .verify import (
    AGREE_TOL,
    ROUTES,
    EvalReport,
    _checked_tol,
    _fields,
    paradox_imaginary_n,
    paradox_periodicity,
    random_specs,
    rows_disagree,
    verify_columns,
    verify_point,
    verify_rows,
)

_USAGE_ERROR = 2
# The most specs one `coshint table` sweep or `coshint verify --random`
# run may hold; a larger one exits 2 before any list is built.  A run
# holds every spec at once, with its report (table) or its row and
# output line (verify).
MAX_SWEEP_SPECS = 1_000_000


def parse_complex_literal(text: str) -> float | complex:
    """Parse RE, RE+IMi, RE-IMi or IMi into a float or complex."""
    s = text.strip()
    if not s:
        raise ValueError("empty number")
    if not s.endswith("i"):
        return float(s)
    body = s[:-1]
    split = None
    for j in range(1, len(body)):
        if body[j] in "+-" and body[j - 1] not in "eE":
            split = j  # keep scanning: the last such sign starts the imag part
    if split is None:
        if body in ("", "+"):
            return 1j
        if body == "-":
            return -1j
        return complex(0.0, float(body))
    re_part, im_part = body[:split], body[split:]
    if im_part in ("+", "-"):
        im_part += "1"
    return complex(float(re_part), float(im_part))


def parse_tol(text: str) -> float:
    """A --tol value: a float that verify takes as a tolerance."""
    try:
        return _checked_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def format_complex(value: complex | float) -> str:
    if type(value) is float:  # complex(value) would print its real part
        return repr(value)
    z = complex(value)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _grid_range(text: str) -> tuple[float, float, int]:
    """The start, step and value count of a start:step:stop range, whose
    values are start + k*step for k below the count; a count above
    MAX_SWEEP_SPECS reads MAX_SWEEP_SPECS + 1.

    The values grow with k (rounding is monotone), so a binary search
    over k finds the count of those within stop + step/2, the count that
    stepping k one by one gives, in at most 21 steps however many values
    the range holds.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid ranges are start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError(f"grid ranges need finite start, step and stop, got {text!r}")
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = bisect.bisect_right(range(MAX_SWEEP_SPECS + 1), stop + 0.5 * step,
                                key=lambda k: start + k * step)
    return start, step, count


def parse_grid(text: str) -> list[float]:
    """A grid value, or the values of a start:step:stop range (at most
    MAX_SWEEP_SPECS of them)."""
    if ":" not in text:
        return [float(text)]
    start, step, count = _grid_range(text)
    if count > MAX_SWEEP_SPECS:
        raise ValueError(f"grid range {text!r} holds more than {MAX_SWEEP_SPECS} values")
    return [start + k * step for k in range(count)]


def parse_upper(text: str | float) -> float:
    """An upper limit, given as text or a number: whatever float() reads
    as +inf ("inf", "Infinity", a grid file's infinite number), else a
    finite value in (0, 1]."""
    x = float(text)
    if not (0.0 < x <= 1.0 or x == math.inf):
        raise ValueError("finite upper limits must lie in (0, 1]")
    return x


def format_upper(upper: float) -> str:
    if upper == math.inf:
        return "inf"
    if upper == 1.0:
        return "1"
    return repr(upper)


def spec_to_dict(spec: IntegrandSpec) -> dict:
    return {
        "n": spec.n,
        "p": format_complex(spec.p),
        "theta": spec.theta,
        "zeta": spec.zeta,
        "upper": format_upper(spec.upper),
    }


def spec_from_dict(d: dict) -> IntegrandSpec:
    p_raw = d["p"]
    p = parse_complex_literal(p_raw) if isinstance(p_raw, str) else p_raw
    return IntegrandSpec(n=float(d["n"]), p=p, theta=float(d["theta"]),
                         zeta=float(d["zeta"]), upper=parse_upper(d.get("upper", 1.0)))


def grid_columns(raw: list) -> list[list]:
    """The lists n, p, theta, zeta and upper of the specs of a grid
    file's JSON array, which verify_columns takes, without building the
    specs: each field converted as spec_from_dict converts it, and
    IntegrandSpec's checks run on the columns at once (valid_fields).

    If a conversion raises or a row fails the checks, the fields come
    from [spec_from_dict(d) for d in raw], which raises the first bad
    row's error, as a row-by-row parse finds it, with its own message.
    """
    try:
        n = [float(d["n"]) for d in raw]
        p = [parse_complex_literal(x) if isinstance(x, str) else float(x)
             for x in [d["p"] for d in raw]]
        theta = [float(d["theta"]) for d in raw]
        zeta = [float(d["zeta"]) for d in raw]
        upper = [parse_upper(d.get("upper", 1.0)) for d in raw]
        if valid_fields(n, p, theta, zeta, upper):
            return [n, p, theta, zeta, upper]
    except Exception:  # any error: the row-by-row parse below gives the one to report
        pass
    return _fields([spec_from_dict(d) for d in raw])


def report_to_dict(report: EvalReport) -> dict:
    nf = report.normalized
    return {
        "spec": spec_to_dict(report.spec),
        "normalized": {"a": format_complex(nf.a), "b": format_complex(nf.b),
                       "c": nf.c, "scale": nf.scale},
        "domain": {"kind": report.domain.kind.value,
                   "detail": report.domain.detail},
        **{route.name: getattr(report, route.name) for route in ROUTES},
        "max_abs_err": report.max_abs_err,
        "verdict": report.verdict.value,
        "reason": report.reason,
    }


_float_repr = float.__repr__


def _json_num(x) -> str:
    """json.dumps(x) for a number or None; a finite float is written
    directly, anything else (ints, float subclasses, NaN, +-inf) by json."""
    if type(x) is float and x - x == 0.0:  # x - x is NaN for +-inf and NaN
        return _float_repr(x)
    if x is None:
        return "null"
    return json.dumps(x)


def report_line(report: EvalReport) -> str:
    """json.dumps(report_to_dict(report)), byte for byte: the one-row
    call of the verify writer."""
    spec, nf, domain = report.spec, report.normalized, report.domain
    return _line(spec.n, spec.p, spec.theta, spec.zeta, spec.upper, nf.a, nf.b, nf.c, nf.scale,
                 domain.kind.value, domain.detail, report.closed, report.pf, report.quad,
                 report.series, report.max_abs_err, report.verdict.value, report.reason)


def _line(n, p, theta, zeta, upper, a, b, c, scale, kind, detail,
          closed, pf, quad, series, max_abs_err, verdict, reason) -> str:
    """The report line of one verify_rows row, written directly.

    The keys come in report_to_dict's order; the complex and upper-limit
    strings are reprs of numbers, which JSON needs no escapes for.
    """
    return (
        f'{{"spec": {{"n": {_json_num(n)}, "p": "{format_complex(p)}", '
        f'"theta": {_json_num(theta)}, "zeta": {_json_num(zeta)}, '
        f'"upper": "{format_upper(upper)}"}}, '
        f'"normalized": {{"a": "{format_complex(a)}", "b": "{format_complex(b)}", '
        f'"c": {_json_num(c)}, "scale": {_json_num(scale)}}}, '
        f'"domain": {{"kind": {_json_str(kind)}, "detail": {_json_str(detail)}}}, '
        f'"closed": {_json_num(closed)}, "pf": {_json_num(pf)}, '
        f'"quad": {_json_num(quad)}, "series": {_json_num(series)}, '
        f'"max_abs_err": {_json_num(max_abs_err)}, "verdict": {_json_str(verdict)}, '
        f'"reason": {"null" if reason is None else _json_str(reason)}}}'
    )


def _spec_from_args(args) -> IntegrandSpec:
    theta = math.radians(args.theta) if args.deg else args.theta
    zeta = math.radians(args.zeta) if args.deg else args.zeta
    theta, _ = canonicalize_theta(theta)
    return IntegrandSpec(n=args.n, p=args.p, theta=theta, zeta=zeta,
                         upper=args.upper)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return _USAGE_ERROR


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    try:
        spec = _spec_from_args(args)
    except (CoshintError, ValueError) as exc:
        return _fail(f"domain error: {exc}")
    status = classify_domain(spec)
    if status.kind not in (DomainKind.VALID, DomainKind.BOUNDARY_A):
        return _fail(f"domain error: {status.detail}")
    tol = args.tol
    if args.json or args.method == "all":
        report = verify_point(spec, tol)
        if args.json:
            print(report_line(report))
        else:
            for route in ROUTES:
                value = getattr(report, route.name)
                if value is not None:
                    print(f"{route.name} {value!r}")
            print(f"verdict {report.verdict.value} max_abs_err {report.max_abs_err!r}")
        return 0
    route = next(r for r in ROUTES if r.name == args.method)
    try:
        nf = normalize(spec)
        value = route.value(spec, (nf.a, nf.b, nf.c, nf.scale), tol)
    except (CoshintError, ValueError) as exc:
        return _fail(f"domain error: {exc}")
    print(repr(value))
    return 0


def cmd_verify(args) -> int:
    if args.grid is not None:
        try:
            with open(args.grid, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, list):
                raise ValueError("grid file must hold a JSON array of specs")
            columns = grid_columns(raw)
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            return _fail(f"bad grid file: {exc}")
    elif args.random < 0:
        return _fail(f"bad --random: the spec count must be nonnegative, got {args.random}")
    elif args.random > MAX_SWEEP_SPECS:
        return _fail(f"bad --random: the spec count must be at most {MAX_SWEEP_SPECS}, "
                     f"got {args.random}")
    else:
        columns = _fields(random_specs(args.random, args.seed))
    rows = verify_columns(*columns, tol=args.tol)
    text = "".join([_line(*row) + "\n" for row in rows])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if rows_disagree(rows) else 0


def cmd_decompose(args) -> int:
    try:
        spec = _spec_from_args(args)
        d = decompose(spec)
    except (CoshintError, ValueError) as exc:
        return _fail(f"domain error: {exc}")
    rows = [{"k": k, "omega": t.omega, "coeff": t.coeff}
            for k, t in enumerate(d.terms)]
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print(f"{'k':>4} {'omega':>22} {'coeff':>22}")
        for row in rows:
            print(f"{row['k']:>4} {row['omega']:>22.15g} {row['coeff']:>22.15g}")
    return 0


def cmd_series(args) -> int:
    theta = math.radians(args.theta) if args.deg else args.theta
    try:
        theta, _ = canonicalize_theta(theta)
        if args.variant == "one-sided":
            result = series_one_sided(args.n, args.p, theta, args.tol)
        elif args.variant == "contracted":
            result = series_contracted(args.n, args.p, theta, args.tol)
        else:
            if args.q is None:
                return _fail("variant imaginary needs --q")
            result = series_imaginary(args.n, args.q, theta, args.tol)
    except (CoshintError, ValueError) as exc:
        return _fail(f"series error: {exc}")
    print(f"value {result.value!r} terms_used {result.terms_used} "
          f"tail_estimate {result.tail_estimate!r} accelerated {result.accelerated}")
    return 0


_CSV_HEADER = ["n", "p_re", "p_im", "theta", "zeta", "upper", "domain",
               *(route.name for route in ROUTES), "max_abs_err", "verdict"]


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _csv_row(n, p, theta, zeta, upper, a, b, c, scale, kind, detail,
             closed, pf, quad, series, max_abs_err, verdict, reason) -> list[str]:
    """The table's CSV cells of one verify_rows row (_line's signature)."""
    p = complex(p)
    if reason is not None:
        verdict = f"{verdict}: {reason}"
    return [repr(n), repr(p.real), repr(p.imag), repr(theta), repr(zeta),
            format_upper(upper), kind, _csv_cell(closed), _csv_cell(pf), _csv_cell(quad),
            _csv_cell(series), repr(max_abs_err), verdict]


def cmd_table(args) -> int:
    try:
        counts = [_grid_range(text)[2] if ":" in text else 1
                  for text in (args.p, args.n, args.theta, args.zeta)]
        if math.prod(counts) > MAX_SWEEP_SPECS:
            raise ValueError(f"the sweep holds more than {MAX_SWEEP_SPECS} specs")
        p_values = ([parse_complex_literal(args.p)] if ":" not in args.p
                    else parse_grid(args.p))
        n_values = parse_grid(args.n)
        thetas = [math.radians(t) if args.deg else t for t in parse_grid(args.theta)]
        zetas = [math.radians(z) if args.deg else z for z in parse_grid(args.zeta)]
        specs = [IntegrandSpec(n=n, p=p, theta=theta, zeta=zeta, upper=args.upper)
                 for n in n_values
                 for p in p_values
                 for theta in thetas
                 for zeta in zetas]
    except (CoshintError, ValueError) as exc:
        return _fail(f"bad sweep: {exc}")
    rows = verify_rows(specs, args.tol)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(_CSV_HEADER)
        writer.writerows(_csv_row(*row) for row in rows)
    finally:
        if args.out:
            out.close()
    return 0


# the flags that only one kind of paradox reads, with their defaults; the
# parser leaves them None, so that the other kind can tell they were given
_PARADOX_FLAGS = {"periodicity": {"n": 1.0, "zeta": 0.5 * math.pi, "k": 1, "tol": AGREE_TOL},
                  "imaginary-n": {"m": 1.0}}


def cmd_paradox(args) -> int:
    for kind, flags in _PARADOX_FLAGS.items():
        for name, default in flags.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif kind != args.kind:
                return _fail(f"--{name} does not apply to --kind {args.kind}")
    if args.kind == "imaginary-n" and args.p.imag != 0.0:
        return _fail("--p must be real for --kind imaginary-n")
    try:
        if args.kind == "periodicity":
            spec = _spec_from_args(args)
            report = paradox_periodicity(spec, args.k)
            manifested = (report.mismatch > 0.05
                          and report.restored_mismatch <= args.tol)
        else:
            theta = math.radians(args.theta) if args.deg else args.theta
            report = paradox_imaginary_n(args.m, args.p.real, theta)
            manifested = abs(report.formula_value.imag) > 0.01
    except (CoshintError, ValueError) as exc:
        return _fail(f"paradox error: {exc}")
    print(f"kind {report.kind}")
    print(f"formula_value {format_complex(report.formula_value)}")
    if report.oracle_value is not None:
        print(f"oracle_value {report.oracle_value!r}")
    if report.mismatch is not None:
        print(f"mismatch {report.mismatch!r}")
    if report.restored_mismatch is not None:
        print(f"restored_mismatch {report.restored_mismatch!r}")
    if report.pole_location is not None:
        print(f"pole_location {report.pole_location!r}")
    print(f"explanation {report.explanation}")
    return 0 if manifested else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_spec_flags(sub, with_upper: bool = True) -> None:
    sub.add_argument("--n", type=float, required=True)
    sub.add_argument("--p", type=parse_complex_literal, required=True)
    sub.add_argument("--theta", type=float, required=True)
    sub.add_argument("--zeta", type=float, required=True)
    if with_upper:
        sub.add_argument("--upper", type=str, default="1")
    sub.add_argument("--deg", action="store_true",
                     help="interpret angles as degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coshint",
        description="evaluate, verify and dissect trinomial-denominator integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one spec")
    _add_spec_flags(p_eval)
    p_eval.add_argument("--method", choices=[*(route.name for route in ROUTES), "all"],
                        default="closed")
    p_eval.add_argument("--tol", type=parse_tol, default=AGREE_TOL)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="cross-check a grid of specs")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid", type=str, default=None)
    source.add_argument("--random", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=parse_tol, default=AGREE_TOL)
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--threads", type=int, default=1,
                          help="accepted for compatibility; has no effect")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="partial-fraction terms of a spec")
    _add_spec_flags(p_dec, with_upper=False)
    p_dec.set_defaults(upper=1.0)
    p_dec.add_argument("--format", choices=["json", "table"], default="json")
    p_dec.set_defaults(func=cmd_decompose)

    p_ser = sub.add_parser("series", help="accelerated series value")
    p_ser.add_argument("--variant", choices=["one-sided", "contracted", "imaginary"],
                       required=True)
    p_ser.add_argument("--n", type=float, required=True)
    p_ser.add_argument("--p", type=float, default=0.0)
    p_ser.add_argument("--q", type=float, default=None)
    p_ser.add_argument("--theta", type=float, required=True)
    p_ser.add_argument("--tol", type=float, default=1e-8)
    p_ser.add_argument("--deg", action="store_true")
    p_ser.set_defaults(func=cmd_series)

    p_tab = sub.add_parser("table", help="CSV sweep over parameter grids")
    p_tab.add_argument("--n", type=str, required=True)
    p_tab.add_argument("--p", type=str, required=True)
    p_tab.add_argument("--theta", type=str, required=True)
    p_tab.add_argument("--zeta", type=str, required=True)
    p_tab.add_argument("--upper", type=str, default="1")
    p_tab.add_argument("--tol", type=parse_tol, default=AGREE_TOL)
    p_tab.add_argument("--out", type=str, default=None)
    p_tab.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    p_tab.add_argument("--deg", action="store_true")
    p_tab.set_defaults(func=cmd_table)

    p_par = sub.add_parser("paradox", help="demonstrate a documented formula failure")
    p_par.add_argument("--kind", choices=["periodicity", "imaginary-n"], required=True)
    p_par.add_argument("--n", type=float)
    p_par.add_argument("--p", type=parse_complex_literal, default=0.5)
    p_par.add_argument("--theta", type=float, required=True)
    p_par.add_argument("--zeta", type=float)
    p_par.add_argument("--k", type=int)
    p_par.add_argument("--m", type=float)
    p_par.add_argument("--tol", type=parse_tol)
    p_par.add_argument("--deg", action="store_true")
    p_par.set_defaults(upper=1.0, func=cmd_paradox)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main()'s parser, built once per process.  argparse keeps no state of
    # a parse on the parser, so a parse that fails (exit 2, or the
    # SystemExit of --help) leaves it fit for the next call.  Each
    # subcommand's cmd_* function is bound when it is built: patching one
    # of them after the first main() call does not reach main().
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # argparse reads a value that starts with '-' and is not a plain decimal
    # (-0.5i, -1e-3, -inf) as a flag: join it onto its --flag (-h is the one
    # flag with a single '-')
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and re.fullmatch(r"--\w[\w-]*", joined[-1]) and re.match(r"-(?!h$)[^-]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = _parser().parse_args(joined)
    if hasattr(args, "upper") and isinstance(args.upper, str):
        try:
            args.upper = parse_upper(args.upper)
        except ValueError as exc:
            return _fail(f"bad --upper: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
