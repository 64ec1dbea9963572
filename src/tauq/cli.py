"""Command-line front end.

Subcommands: tau gl2|gl3 (tau tables), verify qsystem|gl3|zero-curvature|
orthogonality|mop (identity suites), opgen / mop / recurrence (polynomial
generation). Moments arrive as a file path or inline JSON; all arithmetic
is exact, all output deterministic.

Exit codes: 0 all checks pass / computation done; 1 at least one identity
violation; 2 usage or parse error, including a verify run whose ranges
select no instance; 3 degenerate input (a required tau is zero). Errors
are single-line JSON records on stderr.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys

from .errors import (DegenerateTauError, MomentParseError, OutputClosedError,
                     ResourceBoundError, TauqError, UsageError)
from .factorization import verify_zero_curvature
from .moments import MomentSequence, build_moments
from .orthopoly import (bordered_table, cone, monic_op, mop_type2,
                        recurrence_coeffs, verify_mop, verify_orthogonality)
from .report import VerificationReport
from .tau_gl2 import condensation_table, tau_table, verify_qsystem
from .tau_gl3 import tau3_table, verify_gl3_relations

# Largest determinant order a --mode symbolic run may compute. An order-n
# determinant takes n 2^(n-1) products of ever longer polynomials: on a
# 2-vCPU VM (Python 3.11.7, process CPU time) `tau gl2 --mode symbolic
# --k 0..9` takes 0.5 s and prints 1 MB, while the order-10 tau alone
# takes 2.9 s and 4.8 MB.
SYMBOLIC_ORDER_BOUND = 9
# Largest --k of symbolic zero-curvature: its cross-multiplied identities
# multiply whole tau polynomials, and --k 0..3 takes 7-11 s there.
SYMBOLIC_ZERO_CURVATURE_K_BOUND = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError (exit 2) instead of
    exiting on its own."""

    def error(self, message):
        raise UsageError(message)


def parse_range(text: str, name: str) -> tuple[int, int]:
    """Inclusive 'lo..hi' range; a bare integer means a one-point range."""
    s = text.strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(s)
    except ValueError:
        raise UsageError(f"--{name}: expected INT or LO..HI, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"--{name}: empty range {text!r}")
    return (lo, hi)


def nonnegative_int(text: str) -> int:
    """argparse type for counts and bounds; a negative value is a usage
    error, not an empty (vacuously passing) run."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _ranges(args, *names: str) -> list[tuple[int, int]]:
    """parse_range of each named flag, in the order given."""
    return [parse_range(getattr(args, name), name) for name in names]


def single_value(text: str, name: str) -> int:
    lo, hi = parse_range(text, name)
    if lo != hi:
        raise UsageError(f"--{name}: expected a single integer, got {text!r}")
    return lo


def load_moments(text: str, flag: str) -> MomentSequence:
    """Parse a moments argument: inline JSON if it starts with '{',
    otherwise a path to a JSON file."""
    s = text.strip()
    if not s.startswith("{"):
        try:
            with open(s, encoding="utf-8") as fh:
                s = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise MomentParseError(flag, f"cannot read file {text!r}: {exc}") from None
    try:
        spec = json.loads(s)
    except ValueError as exc:  # JSONDecodeError or an over-long integer
        raise MomentParseError(flag, f"invalid JSON: {exc}") from None
    return build_moments(spec)


# -- output rendering -------------------------------------------------------

def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _csv_table(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def emit_entries(entries: list[dict], fields: list[str], fmt: str) -> None:
    """Tau-table output; the only shape the csv format applies to."""
    if fmt == "json":
        _print_json({"entries": entries})
    elif fmt == "csv":
        print(_csv_table(fields, entries))
    else:
        for e in entries:
            coords = ", ".join(f"{f}={e[f]}" for f in fields if f != "value")
            print(f"tau[{coords}] = {e['value']}")


def emit_report(report: VerificationReport, fmt: str) -> None:
    if fmt == "json":
        _print_json(report.to_dict())
        return
    print(report.summary_line())
    for c in report.failed_checks():
        print(f"  FAIL {c.instance}: lhs={c.lhs} rhs={c.rhs}")
    for s in report.skipped:
        print(f"  skip {s.instance}: {s.reason}")


def finish_report(report: VerificationReport, fmt: str) -> int:
    """Print a verification report and return its exit code: 1 on a
    failed check, 3 when every instance was skipped, else 0. A run whose
    ranges select no instance is a usage error, not a vacuous pass, and
    prints nothing to stdout."""
    if report.total == 0 and not report.skipped:
        raise UsageError(f"{report.name}: the requested ranges select no instance")
    emit_report(report, fmt)
    if report.failures:
        return 1
    return 3 if report.total == 0 else 0


def emit_polys(entries: list[dict], fmt: str) -> None:
    """Polynomial output (opgen/mop); json or pretty."""
    if fmt == "json":
        _print_json({"entries": entries})
        return
    for e in entries:
        sub = ",".join(str(e[f]) for f in ("k", "l") if f in e)
        print(f"p_{{{sub}}} = {e['text']}" if "," in sub
              else f"p_{sub} = {e['text']}")


def _poly_entry(p, **indices) -> dict:
    entry = dict(indices)
    entry["coefficients"] = [str(c) for c in p.coeffs]
    entry["text"] = str(p)
    return entry


# -- subcommand handlers ----------------------------------------------------

def _gl2_source(args) -> MomentSequence:
    if args.mode == "symbolic":
        if args.moments is not None:
            raise UsageError("--mode symbolic takes no --moments (formal symbols)")
        return MomentSequence.formal("c")
    if args.moments is None:
        raise UsageError("--moments is required in numeric mode")
    return load_moments(args.moments, "moments")


def _check_symbolic(args, what: str, value: int, bound: int) -> None:
    """Refuse a symbolic run over one of the bounds above, before any work."""
    if args.mode == "symbolic" and value > bound:
        raise ResourceBoundError(
            f"--mode symbolic: {what} {value} is above the bound {bound}")


def _gl3_sources(args):
    if getattr(args, "mode", "numeric") == "symbolic":
        if args.moments_c or args.moments_d or args.moments_e:
            raise UsageError("--mode symbolic takes no moment flags (formal symbols)")
        return (MomentSequence.formal("c"), MomentSequence.formal("d"), None)
    if not args.moments_c or not args.moments_d:
        raise UsageError("--moments-c and --moments-d are required in numeric mode")
    C = load_moments(args.moments_c, "moments-c")
    D = load_moments(args.moments_d, "moments-d")
    E = load_moments(args.moments_e, "moments-e") if args.moments_e else None
    return (C, D, E)


def _tau_table(args, fields: tuple[str, ...], tau) -> int:
    """Print tau(*indices) over the product of the fields' ranges, in
    nested-loop order. The first field bounds a symbolic run's order."""
    ranges = _ranges(args, *fields)
    _check_symbolic(args, "determinant order", ranges[0][1], SYMBOLIC_ORDER_BOUND)
    entries = [{**dict(zip(fields, idx)), "value": str(tau(*idx))}
               for idx in itertools.product(
                   *(range(lo, hi + 1) for lo, hi in ranges))]
    emit_entries(entries, [*fields, "value"], args.format)
    return 0


def cmd_tau_gl2(args) -> int:
    m = _gl2_source(args)
    k_range, a_range = _ranges(args, "k", "alpha")
    if m.is_formal:
        # one Laplace run per alpha gives the whole k column
        return _tau_table(args, ("k", "alpha"),
                          tau_table(m, lambda a: k_range))
    table = condensation_table(m, k_range, a_range)
    return _tau_table(args, ("k", "alpha"), lambda k, a: table[k, a])


def cmd_tau_gl3(args) -> int:
    C, D, E = _gl3_sources(args)
    k_range, (_, l_hi) = _ranges(args, "k", "l")
    return _tau_table(args, ("k", "l", "alpha", "beta"),
                      tau3_table(C, D, E, k_range, l_hi))


def cmd_verify_qsystem(args) -> int:
    m = _gl2_source(args)
    (_, k_max), a_range = _ranges(args, "k", "alpha")
    _check_symbolic(args, "determinant order", k_max, SYMBOLIC_ORDER_BOUND)
    # the k range starts at the recurrence base regardless of the flag's lo
    return finish_report(verify_qsystem(m, k_max, a_range), args.format)


def cmd_verify_gl3(args) -> int:
    C, D, E = _gl3_sources(args)
    (_, k_max), (_, l_max), a_range, b_range = _ranges(
        args, "k", "l", "alpha", "beta")
    # the relations reach tau_{k+1, l+1}
    _check_symbolic(args, "determinant order", k_max + 1, SYMBOLIC_ORDER_BOUND)
    report = verify_gl3_relations(C, D, E, k_max, l_max, a_range, b_range)
    return finish_report(report, args.format)


def cmd_verify_zero_curvature(args) -> int:
    m = _gl2_source(args)
    k_range, a_range = _ranges(args, "k", "alpha")
    _check_symbolic(args, "zero-curvature --k", k_range[1],
                    SYMBOLIC_ZERO_CURVATURE_K_BOUND)
    report = verify_zero_curvature(m, k_range, a_range)
    return finish_report(report, args.format)


def cmd_verify_orthogonality(args) -> int:
    m = load_moments(args.moments, "moments")
    report = verify_orthogonality(m, parse_range(args.alpha, "alpha"),
                                  args.count)
    return finish_report(report, args.format)


def cmd_verify_mop(args) -> int:
    C, D, E = _gl3_sources(args)
    if E is not None:
        raise UsageError("mop verification applies to the two-family case; "
                         "drop --moments-e")
    report = verify_mop(C, D, *_ranges(args, "k", "l", "alpha", "beta"))
    return finish_report(report, args.format)


def cmd_opgen(args) -> int:
    m = load_moments(args.moments, "moments")
    alpha = single_value(args.alpha, "alpha")
    table = bordered_table(args.count, m, m)
    entries = [_poly_entry(monic_op(k, alpha, m, table), k=k)
               for k in range(1, args.count + 1)]
    emit_polys(entries, args.format)
    return 0


def cmd_mop(args) -> int:
    C, D, E = _gl3_sources(args)
    if E is not None:
        raise UsageError("type-II polynomials use two families; drop --moments-e")
    k_range, l_range = _ranges(args, "k", "l")
    alpha = single_value(args.alpha, "alpha")
    beta = single_value(args.beta, "beta")
    table = bordered_table(k_range[1], C, D)
    entries = [_poly_entry(mop_type2(k, l, alpha, beta, C, D, table), k=k, l=l)
               for k, l in cone(k_range, l_range)]
    emit_polys(entries, args.format)
    return 0


def cmd_recurrence(args) -> int:
    m = load_moments(args.moments, "moments")
    alpha = single_value(args.alpha, "alpha")
    coeffs = recurrence_coeffs(m, alpha, args.count)
    entries = [{"k": k, "a": str(a), "b": str(b)}
               for k, (a, b) in enumerate(coeffs)]
    if args.format == "json":
        _print_json({"entries": entries})
    else:
        for e in entries:
            print(f"k={e['k']}: a={e['a']}, b={e['b']}")
    return 0


# -- parser wiring ----------------------------------------------------------

def _add_format(p: argparse.ArgumentParser, table: bool = False) -> None:
    """--format; csv only for tau tables, so argparse refuses it elsewhere
    before any work is done."""
    p.add_argument("--format", choices=("json", "csv", "pretty") if table
                   else ("json", "pretty"),
                   default="pretty", help="output format (default pretty)")


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("numeric", "symbolic"), default="numeric",
                   help="numeric evaluates moments; symbolic uses formal symbols")


def _add_gl2_moments(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--moments", required=required, metavar="JSON|PATH",
                   help="moment sequence: inline JSON or a path to a JSON file")


def _add_gl3_moments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--moments-c", metavar="JSON|PATH", help="c-family moments")
    p.add_argument("--moments-d", metavar="JSON|PATH", help="d-family moments")
    p.add_argument("--moments-e", metavar="JSON|PATH",
                   help="e-family moments (omit for the e=0 case)")


def _add_ignored_max_work(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-work", type=nonnegative_int, metavar="N",
                   help="accepted and ignored: every tau is one determinant, "
                        "so there is no residue work to bound")


def _add_ranges(p: argparse.ArgumentParser, *names: str, **defaults) -> None:
    for name in names:
        p.add_argument(f"--{name}", default=defaults.get(name, "0"),
                       metavar="N|LO..HI", help=f"{name} range (inclusive)")


def build_parser() -> _Parser:
    parser = _Parser(prog="tauq",
                     description="Exact tau-function and orthogonal-polynomial "
                                 "toolkit for moment sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    tau = sub.add_parser("tau", help="tabulate tau values")
    tau_sub = tau.add_subparsers(dest="group", required=True)

    t2 = tau_sub.add_parser("gl2", help="Hankel tau table")
    _add_gl2_moments(t2)
    _add_ranges(t2, "k", "alpha", k="0..4", alpha="0")
    _add_format(t2, table=True)
    _add_mode(t2)
    t2.set_defaults(func=cmd_tau_gl2)

    t3 = tau_sub.add_parser("gl3", help="two-index tau table")
    _add_gl3_moments(t3)
    _add_ranges(t3, "k", "l", "alpha", "beta", k="0..3", l="0..2")
    _add_ignored_max_work(t3)
    _add_format(t3, table=True)
    _add_mode(t3)
    t3.set_defaults(func=cmd_tau_gl3)

    verify = sub.add_parser("verify", help="identity verification suites")
    v_sub = verify.add_subparsers(dest="suite", required=True)

    vq = v_sub.add_parser("qsystem", help="bilinear tau recurrence")
    _add_gl2_moments(vq)
    _add_ranges(vq, "k", "alpha", k="0..4", alpha="0")
    _add_format(vq)
    _add_mode(vq)
    vq.set_defaults(func=cmd_verify_qsystem)

    vg = v_sub.add_parser("gl3", help="the four two-index difference relations")
    _add_gl3_moments(vg)
    _add_ranges(vg, "k", "l", "alpha", "beta", k="0..2", l="0..2")
    _add_ignored_max_work(vg)
    _add_format(vg)
    _add_mode(vg)
    vg.set_defaults(func=cmd_verify_gl3)

    vz = v_sub.add_parser("zero-curvature",
                          help="connection-matrix product identities")
    _add_gl2_moments(vz)
    _add_ranges(vz, "k", "alpha", k="0..3", alpha="0")
    _add_format(vz)
    _add_mode(vz)
    vz.set_defaults(func=cmd_verify_zero_curvature)

    vo = v_sub.add_parser("orthogonality",
                          help="monic polynomial orthogonality and norms")
    _add_gl2_moments(vo, required=True)
    _add_ranges(vo, "alpha", alpha="0")
    vo.add_argument("--count", type=nonnegative_int, default=6, metavar="K",
                    help="verify polynomials up to degree K (default 6)")
    _add_format(vo)
    vo.set_defaults(func=cmd_verify_orthogonality)

    vm = v_sub.add_parser("mop", help="type-II multiple orthogonality")
    _add_gl3_moments(vm)
    _add_ranges(vm, "k", "l", "alpha", "beta", k="0..4", l="0..4")
    _add_format(vm)
    vm.set_defaults(func=cmd_verify_mop)

    og = sub.add_parser("opgen", help="generate monic orthogonal polynomials")
    _add_gl2_moments(og, required=True)
    og.add_argument("--count", type=nonnegative_int, default=6, metavar="N",
                    help="generate p_1 .. p_N (default 6)")
    _add_ranges(og, "alpha")
    _add_format(og)
    og.set_defaults(func=cmd_opgen)

    mp = sub.add_parser("mop", help="generate type-II multiple orthogonal "
                                    "polynomials")
    _add_gl3_moments(mp)
    _add_ranges(mp, "k", "l", "alpha", "beta", k="0..3", l="0..3")
    _add_format(mp)
    mp.set_defaults(func=cmd_mop)

    rc = sub.add_parser("recurrence", help="three-term recurrence coefficients")
    _add_gl2_moments(rc, required=True)
    rc.add_argument("--count", type=nonnegative_int, default=6, metavar="K",
                    help="coefficients a_k, b_k for k < K (default 6)")
    _add_ranges(rc, "alpha")
    _add_format(rc)
    rc.set_defaults(func=cmd_recurrence)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser main() uses, built on its first call and kept for the
    process: parse_args fills a fresh namespace on every call, so nothing
    carries over from one command to the next."""
    return build_parser()


_VALUE_FLAGS = ("--k", "--l", "--alpha", "--beta", "--count", "--max-work")


def _attach_values(argv: list[str]) -> list[str]:
    """Join range flags with their values ('--k -1..3' to '--k=-1..3') so
    argparse does not mistake a leading minus for an option."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _shared_parser().parse_args(_attach_values(list(argv)))
        code = args.func(args)
        # a closed stdout shows up here for output that fits the buffer
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away. Point stdout at the null device, so the
        # interpreter's flush at exit writes nowhere instead of failing again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        err = OutputClosedError("stdout was closed before the output was written")
        print(json.dumps(err.record()), file=sys.stderr)
        return 2
    except DegenerateTauError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 3
    except TauqError as exc:
        print(json.dumps(exc.record()), file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of an int past the interpreter's digit limit. Every handler
        # renders its values to text before it prints, so stdout is empty.
        if "integer string conversion" not in str(exc):
            raise
        err = ResourceBoundError(
            f"a result has more than {sys.get_int_max_str_digits()} decimal "
            "digits, too many to print")
        print(json.dumps(err.record()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
