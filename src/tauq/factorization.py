"""Shifted tau-functions, lower-triangular wave factors, connection matrices.

The shift fields act on one moment family: S+ sends m_n to m_n - m_{n+1}/z,
S- sends m_n to sigma_n = sum_{i>=0} m_{n+i} z^{-i} (cut off at the top of
the finite support; a second-kind function of the moment sequence). Applied
to Hankel tau-functions they give the explicit g_minus factors; diagonal
twists and the unipotent series factor reassemble them into window matrices
that are polynomial in z, and the z-linear connection matrices V, W, U
relate neighbouring (k, alpha).

Every shifted tau comes from one bordered determinant. Write
B_{k,l} = z^k Sc+ Sd+ tau_{k,l} (``mop_bordered_poly``; GL2 is l = 0 with
C = D = m) and, for B = sum_r b_r z^r, Q[B; F, n] = sum_r b_r sigma^F_{n+r}.
Since sigma_n - sigma_{n+1}/z = F_n, the column operations
col_j - col_{j+1}/z over one family's columns of the shifted matrix leave
plain moment columns and one sigma column; expanding along that column
gives the bordered minors back:

    S+ tau_k        = z^{-k} B_{k,0}
    S- tau_k        = Q[B_{k-1,0}; m, alpha+k-1]            (k >= 1; 1 at k = 0)
    Sc- tau_{k,l}   = Q[B_{k-1,l}; C, alpha-beta+k-l-1]     (k > l; tau_{k,k} at k = l)
    Sd- tau_{k,l}   = (-1)^k Q[B_{k-1,l-1}; D, alpha+l-1]   (l >= 1; tau_{k,0} at l = 0)

A wave factor reads them from one ``bordered_table``: one elimination
per (l, alpha, beta) column, then series contractions. Wave factors and
windows run on integer numerators: the bordered columns share one scale,
each family's window is scaled to integers once, a contraction is an
integer correlation, the window's twist is a shift per row and its
unipotent factor a convolution, and each output coefficient is one
Fraction over tau's numerator (times the family's window denominator).
``evaluate_shifted`` pushes a formal tau polynomial through the fields
monomial by monomial (k! terms); it is the independent reference route the
tests compare against.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DegenerateTauError, SupportError
from .moments import MomentSequence
# bordered_tau_poly is unused here, but bench/tracing.py wraps it under
# this module's name (and tests/test_bench_names.py checks that it exists)
from .orthopoly import bordered_table, bordered_tau_poly  # noqa: F401
from .report import VerificationReport
from .rings import (LaurentMatrix, LaurentPoly, MomentPoly, RingFraction,
                    _integer_rows)
from .tau_gl2 import TauTable, qsystem_residual, tau_table


def _shifted_series(index: int, seq: MomentSequence, sign: int) -> LaurentPoly:
    """Numeric Laurent series the generator m_index is sent to by S^sign
    (sign 0 leaves it alone); sign -1 gives sigma_index."""
    if sign == 0:
        return LaurentPoly.const(seq.get(index))
    if sign == 1:
        return LaurentPoly({0: seq.get(index), -1: -seq.get(index + 1)})
    sup = seq.support()
    if sup is None:
        return LaurentPoly.zero()
    return LaurentPoly({-i: seq.get(index + i)
                        for i in range(sup[1] - index + 1)})


def evaluate_shifted(p: MomentPoly, seqs: dict[str, MomentSequence],
                     signs: dict[str, int]) -> LaurentPoly:
    """Evaluate p with family f's generators passed through S_f^signs[f]
    (omitted families are unshifted), collapsing coefficients per z-power
    as it goes."""
    total = LaurentPoly.zero()
    for mono, coef in p.items():
        acc = LaurentPoly.const(Fraction(coef))
        for s in mono:
            fac = _shifted_series(s.index, seqs[s.family],
                                  signs.get(s.family, 0))
            acc = acc * fac
            if not acc:
                break
        total = total + acc
    return total


def tail_series(seq: MomentSequence, offset: int) -> LaurentPoly:
    """sum_{i >= 0} m_{offset+i} z^{-i-1}, truncated by finite support."""
    return _shifted_series(offset, seq, -1).shift(-1)


# -- lower wave factor and window, for one (GL2) or two (GL3) families ------
# Until the last step an entry is a dict z-power -> int numerator over its
# row's denominator; the bordered columns' common scale cancels against tau.

def _scaled_window(seq: MomentSequence) -> tuple[int, list[int], int]:
    """(lo, numerators of m_lo..m_hi, their one denominator) on the trimmed
    support of a finite window; raises SupportError, as support() does,
    for any other sequence."""
    sup = seq.support()
    if sup is None:
        return 0, [], 1
    lo, hi = sup
    (nums,), (den,) = _integer_rows([[seq.get(i) for i in range(lo, hi + 1)]])
    return lo, nums, den


def _moments_from(win, n: int) -> list[int]:
    """The window's numerators of m_n, m_{n+1}, ..., m_hi."""
    lo, nums, _ = win
    return [0] * (lo - n) + nums if n < lo else nums[n - lo:]


def _sigma(col: list[int], win, n: int, shift: int) -> dict[int, int]:
    """z^shift Q[B; F, n] on numerators, B's coefficients being col: the
    z^{shift-t} coefficient of Q = sum_r b_r sigma^F_{n+r} is the
    correlation sum_r b_r m_{n+r+t}."""
    ms = _moments_from(win, n)
    out = {}
    for t in range(len(ms)):
        q = sum(map(mul, col, ms[t:]))
        if q:
            out[shift - t] = q
    return out


def _wave_numerators(k: int, l: int, alpha: int, beta: int,
                     seqs: tuple[MomentSequence, ...], wins: list,
                     indices: dict) -> tuple[list[list[dict]], list[int]]:
    """tau_{k,l} times the (n+1) x (n+1) lower wave factor, for the n
    pull-back families seqs: (m,) with l = beta = 0 (so C = D = m), or
    (C, D), with wins their scaled windows. Returns the rows of numerator
    dicts and each row's denominator: tau's numerator for row 0, times
    family i's window denominator for row i.

    Column j comes from B_{k,l}, B_{k-1,l} and (-1)^k B_{k-1,l-1} of one
    bordered_table; row 0 takes each over z^k, row i contracts each with
    family i's sigma series over z. The diagonal entry of row i is one
    index lower and has no 1/z, or is tau itself when the family has no
    columns to pull back (c when k = l, d when l = 0). In the d row the
    sign twist cancels the (-1)^k that Sd- carries."""
    B = bordered_table(k, seqs[0], seqs[-1])
    b = B(k, l, alpha, beta)
    if not b.coeff(k):
        raise DegenerateTauError("tau is zero", **indices)
    n = len(seqs)
    polys = [b, B(k - 1, l, alpha, beta), B(k - 1, l - 1, alpha, beta)][:n + 1]
    dense = [[p.coeffs.get(r, 0) for r in range(k + 1)] for p in polys]
    scale = lcm(*[c.denominator for col in dense for c in col])
    cols = [[c.numerator * (scale // c.denominator) for c in col]
            for col in dense]
    if n == 2 and k % 2:
        cols[2] = [-c for c in cols[2]]
    tau = cols[0][k]
    rows = [[{r - k: c for r, c in enumerate(col) if c} for col in cols]]
    dens = [tau]
    # (family window, sigma offset, has columns to pull back)
    families = zip(wins, (alpha - beta + k - l, alpha + l), (k > l, l > 0))
    for i, (win, off, live) in enumerate(families, 1):
        den = win[2] * tau
        row = []
        for j, col in enumerate(cols):
            if j != i:
                row.append(_sigma(col, win, off, -1))
            elif live:
                row.append(_sigma(col, win, off - 1, 0))
            else:
                row.append({0: den})
        rows.append(row)
        dens.append(den)
    return rows, dens


def _matrix(rows: list[list[dict]], dens: list[int]) -> LaurentMatrix:
    return LaurentMatrix([[LaurentPoly({e: Fraction(c, den)
                                        for e, c in entry.items()})
                           for entry in row] for row, den in zip(rows, dens)])


def _g_minus(k: int, l: int, alpha: int, beta: int,
             seqs: tuple[MomentSequence, ...], indices: dict) -> LaurentMatrix:
    """The lower wave factor divided by tau_{k,l} (see _wave_numerators)."""
    for seq in seqs:
        if not seq.is_finite:
            raise SupportError("the inverse shift field needs finite support")
    wins = [_scaled_window(seq) for seq in seqs]
    return _matrix(*_wave_numerators(k, l, alpha, beta, seqs, wins, indices))


def _window(k: int, l: int, alpha: int, beta: int,
            seqs: tuple[MomentSequence, ...], indices: dict) -> LaurentMatrix:
    """Unipotent series factor (minus each family's tail series in column
    0) times diag(z^k, z^{l-k}, z^{-l}) (cut to size) times g_minus: row 0
    is g_minus's row 0 times z^k, row i is z^{twist_i} times g_minus's row
    i minus tail_i times row 0, an integer convolution. The tails' windows
    are read first, so a family that is not a finite window raises their
    SupportError before g_minus's checks."""
    wins = [_scaled_window(seq) for seq in seqs]
    rows, dens = _wave_numerators(k, l, alpha, beta, seqs, wins, indices)
    top = [{e + k: c for e, c in entry.items()} for entry in rows[0]]
    out = [top]
    # tail_i = sum_{j >= 1} m_{off+j-1} z^{-j}, off = alpha - beta (c), alpha (d)
    for i, (win, off, twist) in enumerate(
            zip(wins, (alpha - beta, alpha), (l - k, -l)), 1):
        tail = _moments_from(win, off)
        row = []
        for entry, above in zip(rows[i], top):
            acc = {e + twist: c for e, c in entry.items()}
            for j, m in enumerate(tail, 1):
                if m:
                    for e, c in above.items():
                        acc[e - j] = acc.get(e - j, 0) - m * c
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return _matrix(out, dens)


# -- GL2 ------------------------------------------------------------------

def g_minus_gl2(k: int, alpha: int, m: MomentSequence) -> LaurentMatrix:
    """(1/tau_k) [[S+ tau_k, S+ tau_{k-1} / z], [S- tau_{k+1} / z, S- tau_k]].

    Unipotent up to z^{-1} tails: (1,1) has constant term 1 and only
    nonpositive powers, off-diagonal entries only strictly negative powers.
    """
    return _g_minus(k, 0, alpha, 0, (m,), {"k": k, "alpha": alpha})


def window_matrix_gl2(k: int, alpha: int, m: MomentSequence) -> LaurentMatrix:
    """Product of the unipotent factor [[1,0],[-tail,1]] with the twisted
    g_minus; polynomial in z (min degree >= 0) and equal to the ordered
    connection-matrix product U_0 U_1 ... U_{k-1}."""
    return _window(k, 0, alpha, 0, (m,), {"k": k, "alpha": alpha})


def _tau_ratio(num, den, formal: bool, what: str, **indices):
    if not den:
        raise DegenerateTauError(f"{what} is zero", **indices)
    return RingFraction(num, den) if formal else num / den


def connection_matrices_gl2(k: int, alpha: int, m: MomentSequence,
                            tau: TauTable | None = None):
    """(V, W, U) at (k, alpha), exactly as displayed: z-linear, built from
    tau ratios read from tau (a fresh table of m when omitted). Formal m
    gives symbolic entries as fractions of tau polynomials (no
    cancellation); numeric m gives Fraction entries."""
    formal = m.is_formal
    one = RingFraction(MomentPoly.one()) if formal else Fraction(1)
    if tau is None:
        tau = tau_table(m, lambda a: (k - 1, k + 2))

    tk_a, tk_a1 = tau(k, alpha), tau(k, alpha + 1)
    tk1_a, tk1_a1 = tau(k + 1, alpha), tau(k + 1, alpha + 1)
    tkm_a1 = tau(k - 1, alpha + 1)

    # each ratio once, in the order V, W, U first use them: the first zero
    # denominator decides what the DegenerateTauError names
    v00 = _tau_ratio(tkm_a1 * tk1_a, tk_a1 * tk_a, formal,
                     "tau_k^(alpha+1) tau_k^(alpha)", k=k, alpha=alpha)
    v01 = _tau_ratio(tkm_a1, tk_a1, formal,
                     "tau_k^(alpha+1)", k=k, alpha=alpha + 1)
    v10 = _tau_ratio(tk1_a, tk_a, formal, "tau_k^(alpha)", k=k, alpha=alpha)
    w01 = _tau_ratio(tk_a, tk1_a, formal,
                     "tau_{k+1}^(alpha)", k=k + 1, alpha=alpha)
    w10 = _tau_ratio(tk1_a1, tk_a1, formal,
                     "tau_k^(alpha+1)", k=k, alpha=alpha + 1)
    w11 = _tau_ratio(tk_a * tk1_a1, tk1_a * tk_a1, formal,
                     "tau_{k+1}^(alpha) tau_k^(alpha+1)", k=k, alpha=alpha)

    v = LaurentMatrix([
        [LaurentPoly({1: one, 0: -v00}), LaurentPoly({0: v01})],
        [LaurentPoly({0: -v10}), LaurentPoly({0: one})],
    ])
    w = LaurentMatrix([
        [LaurentPoly({0: one}), LaurentPoly({0: -w01})],
        [LaurentPoly({0: w10}), LaurentPoly({1: one, 0: -w11})],
    ])
    u = LaurentMatrix([
        [LaurentPoly({1: one, 0: -w11 - v00}), LaurentPoly({0: w01})],
        [LaurentPoly({0: -v10}), LaurentPoly.zero()],
    ])
    return v, w, u


def scalar_compatibility(k: int, alpha: int, tau):
    """(lhs, rhs) of the scalar identity the overlapping connection
    products force, over a tau callable: tau_k^2 (tau_{k+2}^(a-1)
    tau_k^(a+1) - tau_{k+1}^(a-1) tau_{k+1}^(a+1)) against tau_{k+1}^2
    (tau_{k+1}^(a-1) tau_{k-1}^(a+1) - tau_k^(a-1) tau_k^(a+1))."""
    lhs = tau(k, alpha) ** 2 * (tau(k + 2, alpha - 1) * tau(k, alpha + 1)
                                - tau(k + 1, alpha - 1) * tau(k + 1, alpha + 1))
    rhs = tau(k + 1, alpha) ** 2 * (tau(k + 1, alpha - 1) * tau(k - 1, alpha + 1)
                                    - tau(k, alpha - 1) * tau(k, alpha + 1))
    return lhs, rhs


def verify_zero_curvature(m: MomentSequence, k_range: tuple[int, int],
                          alpha_range: tuple[int, int]) -> VerificationReport:
    """At each (k, alpha) in range: the scalar identity, U_k W_k = V_k,
    and the cross-multiplied overlap W_k^(a-1) V_k^(a) = V_{k+1}^(a-1)
    W_k^(a) that forces it. Cross-multiplied forms stay polynomial, so no
    matrix is ever inverted. The scalar identity has no denominators and
    is always checked; a matrix identity whose tau denominators vanish is
    recorded as skipped rather than failed. One tau table serves every
    instance, and each (V, W, U) is built once, in a memo keyed
    (k, alpha); matrices that raise are not stored, so every read of them
    raises the same error."""
    report = VerificationReport("zero-curvature")
    # (k, a) reads up to tau_{k+2} at a - 1 and a, tau_{k+1} at a + 1
    (k_lo, k_hi), (a_lo, a_hi) = k_range, alpha_range
    tau = tau_table(m, lambda a: (k_lo - 1, k_hi + 2 - (a > a_hi)))
    mats = TauTable(lambda *key: {key: connection_matrices_gl2(*key, m, tau)})
    for k in range(k_lo, k_hi + 1):
        for a in range(a_lo, a_hi + 1):
            at = {"k": k, "alpha": a}
            report.add_check({**at, "identity": "scalar"},
                             *scalar_compatibility(k, a, tau))
            try:
                v_k, w_k, u_k = mats(k, a)
            except DegenerateTauError as exc:
                for identity in ("UW=V", "WV=VW"):
                    report.add_skip({**at, "identity": identity}, str(exc))
                continue
            report.add_check({**at, "identity": "UW=V"}, u_k @ w_k, v_k)
            try:
                w_prev, v_next = mats(k, a - 1)[1], mats(k + 1, a - 1)[0]
            except DegenerateTauError as exc:
                report.add_skip({**at, "identity": "WV=VW"}, str(exc))
                continue
            report.add_check({**at, "identity": "WV=VW"},
                             w_prev @ v_k, v_next @ w_k)
    return report


def induction_replay(m: MomentSequence, k_max: int,
                     alpha_range: tuple[int, int]) -> VerificationReport:
    """Rebuild the bilinear recurrence from the scalar identity alone.

    With R(k, a) = tau_k^(a) tau_{k-2}^(a+2) - tau_{k-1}^(a+2) tau_{k-1}^(a)
    + (tau_{k-1}^(a+1))^2, the scalar identity at (k-2, a+1) rearranges to
    (tau_{k-2}^(a+1))^2 R(k, a) = (tau_{k-1}^(a+1))^2 R(k-1, a). R vanishes
    at k = 0, 1 by the boundary conventions, and each step transports
    R = 0 upward wherever the squared factor is nonzero; where it is zero
    the step is recorded as skipped (the identity cannot propagate there).
    """
    report = VerificationReport("induction-replay")
    top = max(k_max, 1)  # the taus of verify_qsystem; the base reads k = 1
    tau = tau_table(m, lambda a: (-2, top - (a > alpha_range[1])))
    for a in range(alpha_range[0], alpha_range[1] + 1):
        for k in (0, 1):
            r = qsystem_residual(k, a, tau)
            report.add_check({"k": k, "alpha": a, "step": "base"}, r, 0)
        for k in range(2, k_max + 1):
            factor_new = tau(k - 2, a + 1)
            factor_old = tau(k - 1, a + 1)
            # r_prev is R(k - 1, a), from the step before or the base row
            r_prev, r = r, qsystem_residual(k, a, tau)
            lhs = factor_new ** 2 * r
            rhs = factor_old ** 2 * r_prev
            report.add_check({"k": k, "alpha": a, "step": "transport"},
                             lhs, rhs)
            if factor_new:
                report.add_check({"k": k, "alpha": a, "step": "conclude"},
                                 r, 0)
            else:
                report.add_skip({"k": k, "alpha": a, "step": "conclude"},
                                "squared transport factor is zero")
    return report


# -- GL3 (E identically zero) ----------------------------------------------

def g_minus_gl3(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence) -> LaurentMatrix:
    """The 3x3 lower wave factor divided by tau_{k,l}: first row shifts
    both families forward, middle row pulls c back, last row pulls d back,
    with sign twists (-1)^k on the last column. Needs E identically zero
    (tau is then the block-Hankel determinant and the e-family shift
    fields act trivially)."""
    return _g_minus(k, l, alpha, beta, (C, D),
                    {"k": k, "l": l, "alpha": alpha, "beta": beta})


def window_matrix_gl3(k: int, l: int, alpha: int, beta: int,
                      C: MomentSequence, D: MomentSequence) -> LaurentMatrix:
    """Unipotent series factor times diag(z^k, z^{l-k}, z^{-l}) times
    g_minus; polynomial in z entry by entry (a product of connection
    matrices, each polynomial). Needs k >= l so tau_{k,l} can be nonzero."""
    if k < l:
        raise DegenerateTauError("tau vanishes identically for k < l",
                                 k=k, l=l, alpha=alpha, beta=beta)
    return _window(k, l, alpha, beta, (C, D),
                   {"k": k, "l": l, "alpha": alpha, "beta": beta})
