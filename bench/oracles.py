"""Per-job output checks, run outside the timed region.

Each check reaches the answer by a route other than the one the job took:
modular determinants, the condensation identity between table entries,
orthogonality under the moment form, the three-term reconstruction,
evaluation of symbolic output at a seeded window against the numeric
engine, connection-matrix products, and the residue formula on a sample.
A check returns (problem or None, checks passed, checks skipped); the two
counts are nonzero only for verification reports.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import reduce
from itertools import product

from tauq import (HankelForm, LaurentPoly, build_moments,
                  connection_matrices_gl2, form_eval, recurrence_reconstruct,
                  tau3_e0_det, tau3_residue, tau_det)

from modp import P, det_mod, to_mod
from workloads import MAX_WORK, window_values

OK = (None, 0, 0)


def _flag(argv, name: str, default: str = "0") -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _range(argv, name: str) -> range:
    text = _flag(argv, name)
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _coords(entries, fields) -> list[tuple]:
    return [tuple(e[f] for f in fields) for e in entries]


def _expect_coords(entries, argv, fields) -> str | None:
    want = sorted(product(*(_range(argv, f"--{f}") for f in fields)))
    if sorted(_coords(entries, fields)) != want:
        return f"table covers {len(entries)} entries, expected {len(want)}"
    return None


def _hankel(get, k: int, alpha: int):
    return [[get(alpha + i + j) for j in range(k)] for i in range(k)]


def _block(c, d, k: int, l: int, alpha: int, beta: int):
    return [[d(alpha + i + j) if j < l else c(alpha - beta + i + j - l)
             for j in range(k)] for i in range(k)]


# -- tau tables -----------------------------------------------------------

def check_tau_gl2(job, out) -> tuple:
    entries = out["entries"]
    problem = _expect_coords(entries, job.argv, ("k", "alpha"))
    if problem:
        return (problem, 0, 0)
    get = window_values(job.check["m"])
    tau = {(e["k"], e["alpha"]): Fraction(e["value"]) for e in entries}
    for (k, a), v in tau.items():
        if k == 1 and v != get(a):
            return (f"tau[1,{a}] = {v} is not the moment {get(a)}", 0, 0)
        if to_mod(v) != det_mod(_hankel(get, k, a)):
            return (f"tau[{k},{a}] differs from the modular determinant", 0, 0)
        need = [(k - 2, a + 2), (k - 1, a + 2), (k - 1, a), (k - 1, a + 1)]
        if k >= 2 and all(p in tau for p in need):
            lhs = v * tau[k - 2, a + 2]
            rhs = tau[k - 1, a + 2] * tau[k - 1, a] - tau[k - 1, a + 1] ** 2
            if lhs != rhs:
                return (f"condensation fails at (k={k}, alpha={a})", 0, 0)
    return OK


def check_tau_gl3_e0(job, out) -> tuple:
    entries = out["entries"]
    problem = _expect_coords(entries, job.argv, ("k", "l", "alpha", "beta"))
    if problem:
        return (problem, 0, 0)
    c, d = window_values(job.check["C"]), window_values(job.check["D"])
    for e in entries:
        k, l, a, b = e["k"], e["l"], e["alpha"], e["beta"]
        want = 0 if k < l else (-1) ** (l * (l + 1) // 2) * det_mod(
            _block(c, d, k, l, a, b))
        if to_mod(Fraction(e["value"])) != want % P:
            return (f"tau[{k},{l},{a},{b}] differs from the modular "
                    "block determinant", 0, 0)
    return OK


_TERM_SPLIT = re.compile(r" ([+-]) ")


def eval_poly(text: str, lookup) -> Fraction:
    """Evaluate tauq's printed moment polynomial, e.g.
    'c_-1*c_1 - 2 c_0^2 + 1/2', with lookup(family, index) -> Fraction."""
    parts = _TERM_SPLIT.split(text.strip())
    terms = [("-" if parts[0].startswith("-") else "+", parts[0].lstrip("-"))]
    terms += zip(parts[1::2], parts[2::2])
    total = Fraction(0)
    for sign, term in terms:
        coef, _, body = term.rpartition(" ")
        if not body[0].isalpha():
            coef, body = body, ""
        val = Fraction(coef or 1)
        for factor in filter(None, body.split("*")):
            sym, _, power = factor.partition("^")
            family, _, index = sym.partition("_")
            val *= lookup(family, int(index)) ** int(power or 1)
        total += val if sign == "+" else -val
    return total


def check_tau_sym(job, out) -> tuple:
    entries = out["entries"]
    fields = ("k", "alpha") if job.kind == "tau-gl2-sym" \
        else ("k", "l", "alpha", "beta")
    problem = _expect_coords(entries, job.argv, fields)
    if problem:
        return (problem, 0, 0)
    specs = {f: job.check[f] for f in ("c", "d") if f in job.check}
    gets = {f: window_values(s) for f, s in specs.items()}
    seqs = {f: build_moments(s) for f, s in specs.items()}
    for e in entries:
        got = eval_poly(e["value"], lambda fam, i: gets[fam](i))
        if "l" in e:
            want = tau3_e0_det(e["k"], e["l"], e["alpha"], e["beta"],
                               seqs["c"], seqs["d"])
        else:
            want = tau_det(e["k"], e["alpha"], seqs["c"])
        if got != want:
            return (f"symbolic entry {e} evaluates to {got}, numeric {want}", 0, 0)
    return OK


def check_tau_gl3_residue(job, out) -> tuple:
    entries = out["entries"]
    problem = _expect_coords(entries, job.argv, ("k", "l", "alpha", "beta"))
    if problem:
        return (problem, 0, 0)
    C, D, E = (build_moments(job.check[f]) for f in ("C", "D", "E"))
    for i, e in enumerate(entries):
        k, l, a, b = e["k"], e["l"], e["alpha"], e["beta"]
        value = Fraction(e["value"])
        # With one index zero the residue formula keeps a single summand,
        # a plain Hankel determinant of C or of E.
        if l == 0 and value != tau_det(k, a - b, C):
            return (f"tau[{k},0,{a},{b}] is not the C Hankel determinant", 0, 0)
        if k == 0 and value != tau_det(l, b, E):
            return (f"tau[0,{l},{a},{b}] is not the E Hankel determinant", 0, 0)
        if i == job.check["sample"] and value != tau3_residue(
                k, l, a, b, C, D, E, max_work=int(MAX_WORK)):
            return (f"tau[{k},{l},{a},{b}] differs from tau3_residue", 0, 0)
    return OK


# -- polynomials ----------------------------------------------------------

def _poly(coeffs) -> LaurentPoly:
    return LaurentPoly({e: Fraction(c) for e, c in enumerate(coeffs)})


def _orthogonal(form: HankelForm, p: LaurentPoly, n_max: int) -> bool:
    return all(form_eval(form, p, LaurentPoly.z_pow(n)) == 0
               for n in range(n_max))


def _monic(coeffs, degree: int) -> bool:
    return len(coeffs) == degree + 1 and Fraction(coeffs[-1]) == 1


def check_opgen(job, out) -> tuple:
    entries = out["entries"]
    count, alpha = job.check["count"], job.check["alpha"]
    if [e["k"] for e in entries] != list(range(1, count + 1)):
        return (f"expected p_1..p_{count}", 0, 0)
    form = HankelForm(build_moments(job.check["m"]), alpha)
    for e in entries:
        k = e["k"]
        if not _monic(e["coefficients"], k):
            return (f"p_{k} is not monic of degree {k}", 0, 0)
        if not _orthogonal(form, _poly(e["coefficients"]), k):
            return (f"p_{k} is not orthogonal to lower powers", 0, 0)
    return OK


def check_recurrence(job, out) -> tuple:
    entries = out["entries"]
    count, alpha = job.check["count"], job.check["alpha"]
    if [e["k"] for e in entries] != list(range(count)):
        return (f"expected coefficients for k < {count}", 0, 0)
    if Fraction(entries[0]["b"]) != 0:
        return ("b_0 must be 0", 0, 0)
    polys = recurrence_reconstruct([(Fraction(e["a"]), Fraction(e["b"]))
                                    for e in entries])
    form = HankelForm(build_moments(job.check["m"]), alpha)
    for k, p in enumerate(polys):
        if not _orthogonal(form, p.as_laurent(), k):
            return (f"reconstructed p_{k} is not orthogonal", 0, 0)
    return OK


def check_mop(job, out) -> tuple:
    entries = out["entries"]
    a, b = job.check["alpha"], job.check["beta"]
    ks, ls = _range(job.argv, "--k"), _range(job.argv, "--l")
    want = [(k, l) for k in ks if k >= 0 for l in ls if 0 <= l <= k]
    if _coords(entries, ("k", "l")) != want:
        return ("wrong set of (k, l) polynomials", 0, 0)
    form_c = HankelForm(build_moments(job.check["C"]), a - b)
    form_d = HankelForm(build_moments(job.check["D"]), a)
    for e in entries:
        k, l = e["k"], e["l"]
        p = _poly(e["coefficients"])
        if not _monic(e["coefficients"], k):
            return (f"p_{{{k},{l}}} is not monic of degree {k}", 0, 0)
        if not (_orthogonal(form_c, p, k - l) and _orthogonal(form_d, p, l)):
            return (f"p_{{{k},{l}}} misses an orthogonality condition", 0, 0)
    return OK


# -- reports and library results ------------------------------------------

def check_report(job, out) -> tuple:
    checks = out["checks"]
    summary = out["summary"]
    passed = sum(1 for c in checks if c["pass"] is True)
    if not checks or passed != len(checks):
        return (f"{len(checks) - passed} of {len(checks)} checks failed", 0, 0)
    if (summary["total"], summary["pass"]) != (len(checks), passed):
        return ("report summary disagrees with its checks", 0, 0)
    if summary["skipped"] != len(out["skipped"]):
        return ("report skip count disagrees with its skips", 0, 0)
    return (None, passed, len(out["skipped"]))


def check_window_gl2(job, result) -> tuple:
    _, k, alpha, spec = job.call
    md = result.min_degree()
    if md is None or md < 0:
        return (f"window matrix has a negative power (min degree {md})", 0, 0)
    m = build_moments(spec)
    us = [connection_matrices_gl2(j, alpha, m)[2] for j in range(k)]
    if us and result != reduce(lambda x, y: x @ y, us):
        return ("window matrix is not the product U_0 ... U_{k-1}", 0, 0)
    return OK


def check_window_gl3(job, result) -> tuple:
    md = result.min_degree()
    if md is None or md < 0:
        return (f"window matrix has a negative power (min degree {md})", 0, 0)
    if result.det() != LaurentPoly.const(Fraction(1)):
        return ("window matrix determinant is not 1", 0, 0)
    return OK


CHECKS = {"tau-gl2": check_tau_gl2, "tau-gl3-e0": check_tau_gl3_e0,
          "tau-gl2-sym": check_tau_sym, "tau-gl3-sym": check_tau_sym,
          "tau-gl3-res": check_tau_gl3_residue, "opgen": check_opgen,
          "recurrence": check_recurrence, "mop": check_mop,
          "verify": check_report, "window-gl2": check_window_gl2,
          "window-gl3": check_window_gl3}


def check(job, output) -> tuple:
    """Check one job's result: the stdout text of a CLI job that exited 0,
    or the object a library call returned."""
    if job.argv:
        output = json.loads(output)
    return CHECKS[job.kind](job, output)
