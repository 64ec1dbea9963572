import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

import tauq.factorization
import tauq.orthopoly
from tauq import (
    DegenerateTauError,
    LaurentMatrix,
    LaurentPoly,
    MomentPoly,
    MomentSequence,
    RingFraction,
    SupportError,
    bordered_tau_poly,
    connection_matrices_gl2,
    evaluate_shifted,
    g_minus_gl2,
    g_minus_gl3,
    induction_replay,
    monic_op,
    scalar_compatibility,
    tail_series,
    tau3_e0_det,
    tau_det,
    verify_zero_curvature,
    window_matrix_gl2,
    window_matrix_gl3,
)

from tauq.rings import det
from tauq.tau_gl2 import tau_table
from tauq.tau_gl3 import block_hankel_rows

from formal_shift import (ShiftEndomorphism, apply_shift, formal_g_minus_gl2,
                          formal_g_minus_gl3)
import reference
from reference import seeded_window

SP = ShiftEndomorphism("c", 1)
SM = ShiftEndomorphism("c", -1)


def sym(j):
    return MomentPoly.symbol("c", j)


def test_shift_plus_image():
    img = SP.symbol_image(2)
    assert img == LaurentPoly({0: sym(2), -1: -sym(3)})


def test_shift_minus_image_needs_support():
    with pytest.raises(SupportError):
        SM.symbol_image(0)
    img = SM.symbol_image(2, hi=4)
    assert img == LaurentPoly({0: sym(2), -1: sym(3), -2: sym(4)})
    assert SM.symbol_image(5, hi=4) == LaurentPoly.zero()
    assert SM.symbol_image(4, hi=4) == LaurentPoly({0: sym(4)})


def test_shift_validation():
    with pytest.raises(ValueError):
        ShiftEndomorphism("c", 2)


def test_apply_shift_is_multiplicative(formal_c):
    t2 = tau_det(2, 0, formal_c)
    direct = apply_shift(SP, t2)
    by_hand = (SP.symbol_image(0) * SP.symbol_image(2)
               - SP.symbol_image(1) * SP.symbol_image(1))
    assert direct == by_hand


def test_apply_then_evaluate_matches_evaluate_shifted(formal_c, catalan_window):
    t3 = tau_det(3, 0, formal_c)
    shifted_poly = apply_shift(SP, t3)
    lo, hi = shifted_poly.min_degree, shifted_poly.max_degree
    rebuilt = LaurentPoly.zero()
    for e in range(lo, hi + 1):
        c = shifted_poly.coeff(e)
        if isinstance(c, MomentPoly):
            c = c.evaluate(lambda s: catalan_window.get(s.index))
        rebuilt = rebuilt + LaurentPoly.z_pow(e, Fraction(c))
    numeric = evaluate_shifted(t3, {"c": catalan_window}, {"c": 1})
    assert numeric == rebuilt


def test_evaluate_shifted_plain_and_frozen(formal_c, catalan_window):
    t2 = tau_det(2, 0, formal_c)
    assert evaluate_shifted(t2, {"c": catalan_window}, {"c": 0}) == \
        LaurentPoly.const(Fraction(1))
    assert str(evaluate_shifted(t2, {"c": catalan_window}, {"c": 1})) == \
        "1 - 3 z^-1 + z^-2"


def test_tail_series(catalan):
    t = tail_series(catalan.truncated(0, 3), 0)
    assert t == (LaurentPoly.z_pow(-1) + LaurentPoly.z_pow(-2)
                 + LaurentPoly.z_pow(-3, Fraction(2))
                 + LaurentPoly.z_pow(-4, Fraction(5)))
    assert tail_series(catalan.truncated(0, 3), 4) == LaurentPoly.zero()


def test_bordered_tau_poly(hermite, catalan, catalan_window, formal_c):
    assert bordered_tau_poly(2, 0, hermite) == \
        LaurentPoly({2: Fraction(1, 2), 0: Fraction(-1, 4)})
    p3 = monic_op(3, 0, catalan)
    assert bordered_tau_poly(3, 0, catalan) == p3.as_laurent()
    # independent route: z^k (S+ tau_k), evaluated numerically
    for k in range(5):
        route = evaluate_shifted(tau_det(k, 0, formal_c),
                                 {"c": catalan_window}, {"c": 1}).shift(k)
        assert bordered_tau_poly(k, 0, catalan_window) == route


def test_g_minus_gl2_base_case(catalan_window):
    g = g_minus_gl2(0, 0, catalan_window)
    assert g.entries[0][0] == LaurentPoly.const(Fraction(1))
    assert g.entries[0][1] == LaurentPoly.zero()
    assert g.entries[1][1] == LaurentPoly.const(Fraction(1))
    assert g.entries[1][0] == tail_series(catalan_window, 0)


def test_g_minus_gl2_unit_determinant(catalan_window):
    for k in range(4):
        assert g_minus_gl2(k, 0, catalan_window).det() == \
            LaurentPoly.const(Fraction(1))


def test_g_minus_gl2_errors(catalan):
    with pytest.raises(SupportError):
        g_minus_gl2(1, 0, catalan)
    w = MomentSequence.window(0, [Fraction(0), Fraction(1), Fraction(2)])
    with pytest.raises(DegenerateTauError) as exc:
        g_minus_gl2(1, 0, w)
    assert exc.value.indices == {"k": 1, "alpha": 0}


def test_window_gl2_equals_connection_product(catalan_window):
    us = [connection_matrices_gl2(k, 0, catalan_window)[2] for k in range(8)]
    for k in range(9):
        assert window_matrix_gl2(k, 0, catalan_window) == \
            reduce(lambda a, b: a @ b, us[:k], LaurentMatrix.identity(2))


def _outcome(build, *args):
    """A factor matrix, or the error it raised (type, message, indices)."""
    try:
        return build(*args)
    except (DegenerateTauError, SupportError) as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)


def test_g_minus_gl2_matches_formal_route(rand_window):
    # one generic window, one with entries in {-1, 0, 1}: singular minors
    # below a nonsingular tau_k, and singular tau_k themselves
    evaluated = minor_zero = 0
    for m in (rand_window(1, -3, 8), rand_window(4, -2, 9, 1, 1)):
        for a in (-1, 1):
            for k in range(6):
                got = _outcome(g_minus_gl2, k, a, m)
                assert got == _outcome(formal_g_minus_gl2, k, a, m), (m, k, a)
                if not isinstance(got, tuple):
                    evaluated += 1
                    minor_zero += k > 0 and not tau_det(k - 1, a, m)
    assert (evaluated, minor_zero) == (20, 3)


def test_g_minus_gl3_matches_formal_route(rand_window):
    evaluated = minor_zero = 0
    for C, D in ((rand_window(11, -3, 6), rand_window(12, -2, 7)),
                 (rand_window(13, -3, 6, 1, 1), rand_window(14, -2, 7, 1, 1))):
        for b in (-1, 0, 1):
            for k in range(5):
                for l in range(k + 1):
                    args = (k, l, 0, b, C, D)
                    got = _outcome(g_minus_gl3, *args)
                    assert got == _outcome(formal_g_minus_gl3, *args), args
                    if not isinstance(got, tuple):
                        evaluated += 1
                        minor_zero += k > l and not tau3_e0_det(k - 1, l, 0, b, C, D)
    assert (evaluated, minor_zero) == (79, 7)


def test_g_minus_edge_indices(catalan_window, linear_window):
    one = LaurentPoly.const(Fraction(1))
    zero = LaurentPoly.zero()
    cw, lw = catalan_window, linear_window
    assert g_minus_gl2(0, 0, cw) == formal_g_minus_gl2(0, 0, cw)
    for k, l in ((0, 0), (2, 0), (3, 0), (1, 1), (2, 2)):
        g = g_minus_gl3(k, l, 0, 0, cw, lw)
        assert g == formal_g_minus_gl3(k, l, 0, 0, cw, lw), (k, l)
        if l == 0:  # no d-columns: Sd- leaves tau alone
            assert (g.entries[2][2], g.entries[0][2], g.entries[1][2]) == \
                (one, zero, zero)
        if k == l:  # no c-columns: Sc- leaves tau alone
            assert (g.entries[1][1], g.entries[0][1], g.entries[2][1]) == \
                (one, zero, zero)


def test_window_gl2_nonnegative(catalan_window):
    for k in range(5):
        md = window_matrix_gl2(k, 0, catalan_window).min_degree()
        assert md is not None and md >= 0


def test_connection_matrices_catalan(catalan):
    V, W, U = connection_matrices_gl2(1, 0, catalan)
    z = LaurentPoly.z_pow(1)
    one = LaurentPoly.const(Fraction(1))
    assert V.entries == [[z - 1, one], [-one, one]]
    assert W.entries == [[one, -one], [one, z - 1]]
    assert U.entries == [[z - 2, one], [-one, LaurentPoly.zero()]]


def test_connection_identities_numeric(catalan, hermite):
    # hermite has vanishing odd-offset taus, so some instances are
    # legitimately degenerate; every evaluable one must satisfy UW = V
    done = 0
    for m in (catalan, hermite):
        for k in range(4):
            try:
                v, w, u = connection_matrices_gl2(k, 0, m)
            except DegenerateTauError:
                continue
            assert u @ w == v
            done += 1
    assert done >= 6


def test_connection_matrices_symbolic(formal_c):
    V, W, U = connection_matrices_gl2(1, 0, formal_c)
    assert isinstance(V.entries[0][1].coeff(0), RingFraction)
    assert U @ W == V


def test_scalar_compatibility(catalan, hermite):
    for m in (catalan, hermite):
        for k in range(4):
            tau = tau_table(m, lambda alpha: (k - 1, k + 2))
            for a in (-1, 0, 1):
                lhs, rhs = scalar_compatibility(k, a, tau)
                assert lhs == rhs


def test_zero_curvature_identities_per_instance(catalan):
    r = verify_zero_curvature(catalan, (1, 1), (0, 0))
    assert r.passes == 2 and r.failures == 0 and len(r.skipped) == 1
    assert r.skipped[0].instance == {"k": 1, "alpha": 0, "identity": "WV=VW"}


def test_zero_curvature_skip_granularity(hermite):
    # one instance, three identities: only the one with a vanishing tau
    # denominator is skipped, the others are still checked
    r = verify_zero_curvature(hermite, (2, 2), (0, 0))
    done = {c.instance["identity"] for c in r.checks}
    skipped = {s.instance["identity"] for s in r.skipped}
    assert done == {"scalar", "UW=V"} and skipped == {"WV=VW"}
    assert r.failures == 0


def test_verify_zero_curvature_counts(catalan):
    r = verify_zero_curvature(catalan, (0, 3), (0, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (34, 0, 2)
    assert {tuple(sorted(s.instance.items())) for s in r.skipped} == {
        (("alpha", 0), ("identity", "WV=VW"), ("k", 0)),
        (("alpha", 0), ("identity", "WV=VW"), ("k", 1))}


def test_zero_curvature_symbolic(formal_c):
    for k in range(3):
        r = verify_zero_curvature(formal_c, (k, k), (0, 0))
        assert r.passes == 3 and not r.skipped


def test_passing_ring_fraction_checks_print_both_sides(formal_c):
    # RingFraction entries are unreduced, so equal matrices print apart:
    # a passing WV=VW check keeps each side's own text
    k, a = 1, 0
    check, = [c for c in verify_zero_curvature(formal_c, (k, k), (a, a)).checks
              if c.instance["identity"] == "WV=VW"]
    v_k, w_k, _ = connection_matrices_gl2(k, a, formal_c)
    w_prev = connection_matrices_gl2(k, a - 1, formal_c)[1]
    v_next = connection_matrices_gl2(k + 1, a - 1, formal_c)[0]
    assert check.passed
    assert (check.lhs, check.rhs) == (str(w_prev @ v_k), str(v_next @ w_k))
    assert check.lhs != check.rhs


@pytest.mark.parametrize("case", ["catalan", "hermite", "neg-lo-30",
                                  "neg-lo-60", "formal"])
def test_zero_curvature_ranged_matches_one_point_calls(request, case):
    # the ranged call's shared tau table and matrix memo change no check,
    # no skip and no order: it is its one-point calls, k outer, alpha inner
    if case in ("catalan", "hermite"):
        m, k_range, a_range = request.getfixturevalue(case), (0, 3), (-1, 2)
    elif case == "formal":
        m, k_range, a_range = request.getfixturevalue("formal_c"), (0, 1), (-1, 0)
    else:
        zeros = int(case[-2:]) / 100
        m = seeded_window(random.Random(case), -3, 12, num=5, den=3,
                          zeros=zeros)
        k_range, a_range = (0, 3), (-2, 2)
    ranged = verify_zero_curvature(m, k_range, a_range)
    singles = [verify_zero_curvature(m, (k, k), (a, a))
               for k in range(k_range[0], k_range[1] + 1)
               for a in range(a_range[0], a_range[1] + 1)]
    assert ranged.checks == [c for r in singles for c in r.checks]
    assert ranged.skipped == [s for r in singles for s in r.skipped]
    assert ranged.total and ranged.failures == 0
    if case.startswith("neg-lo"):
        assert ranged.skipped


def test_zero_curvature_builds_each_connection_matrix_once(monkeypatch):
    # on a window with no zero tau every identity is checked, and each
    # (V, W, U) an instance or a neighbour needs is built exactly once
    m = seeded_window(random.Random(7), -3, 14, num=9, den=5)
    assert all(tau_det(k, a, m) for k in range(6) for a in range(-2, 4))
    calls = Counter()
    real = tauq.factorization.connection_matrices_gl2

    def counting(k, alpha, *args):
        calls[k, alpha] += 1
        return real(k, alpha, *args)

    monkeypatch.setattr(tauq.factorization, "connection_matrices_gl2",
                        counting)
    r = verify_zero_curvature(m, (0, 3), (-1, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (48, 0, 0)
    assert set(calls) == ({(k, a) for k in range(4) for a in range(-2, 3)}
                          | {(4, a) for a in range(-2, 2)})
    assert set(calls.values()) == {1}


def test_induction_replay_structure(catalan):
    r = induction_replay(catalan, 4, (0, 0))
    assert (r.total, r.passes) == (8, 8)
    steps = [c.instance["step"] for c in r.checks]
    assert steps == ["base", "base", "transport", "conclude",
                     "transport", "conclude", "transport", "conclude"]


def test_induction_replay_hermite(hermite):
    r = induction_replay(hermite, 6, (-1, 2))
    assert r.failures == 0
    assert r.passes == 44 and len(r.skipped) == 4


def test_g_minus_gl3_unit_determinant(catalan_window, linear_window):
    one = LaurentPoly.const(Fraction(1))
    for k in range(3):
        for l in range(k + 1):
            g = g_minus_gl3(k, l, 0, 0, catalan_window, linear_window)
            assert g.det() == one
    g0 = g_minus_gl3(0, 0, 0, 0, catalan_window, linear_window)
    for i in range(3):
        assert g0.entries[i][i] == one
    assert g0.entries[0][1] == LaurentPoly.zero()
    assert g0.entries[0][2] == LaurentPoly.zero()


def test_window_gl3_nonnegative(catalan_window, linear_window):
    for k in range(4):
        for l in range(k + 1):
            if (k, l) == (3, 3):
                continue
            w = window_matrix_gl3(k, l, 0, 0, catalan_window, linear_window)
            md = w.min_degree()
            assert md is not None and md >= 0, (k, l)


def test_window_gl3_degenerate_cases(catalan_window, linear_window):
    with pytest.raises(DegenerateTauError) as exc:
        window_matrix_gl3(1, 2, 0, 0, catalan_window, linear_window)
    assert "k < l" in str(exc.value)
    # the pure-d Hankel of a linear sequence is singular from size 3 on
    with pytest.raises(DegenerateTauError):
        window_matrix_gl3(3, 3, 0, 0, catalan_window, linear_window)


def _leading_block(build, *args):
    """The leading 2x2 block of a factor matrix, or the error it raised
    (type, detail without the indices, and the (k, alpha) indices)."""
    try:
        g = build(*args)
    except (DegenerateTauError, SupportError) as exc:
        idx = getattr(exc, "indices", {})
        return (type(exc), str(exc).split(" at {")[0],
                {key: idx[key] for key in ("k", "alpha") if key in idx})
    return LaurentMatrix([row[:2] for row in g.entries[:2]])


def test_gl2_is_the_one_family_slice_of_gl3(rand_window, catalan):
    # GL2 is l = beta = 0 with C = D = m: its wave factor and window are
    # the leading 2x2 blocks of the GL3 ones, errors included
    outcomes, minor_zero = [], 0
    for m in (rand_window(1, -3, 8), rand_window(4, -2, 9, 1, 1),
              rand_window(13, -3, 6, 1, 1), catalan):
        for a in (-1, 0, 1):
            for k in range(6):
                # tau_{k-1} = 0 below a nonzero tau_k: a singular minor
                minor_zero += (m.is_finite and k > 0 and tau_det(k, a, m) != 0
                               and not tau_det(k - 1, a, m))
                for gl2, gl3 in ((g_minus_gl2, g_minus_gl3),
                                 (window_matrix_gl2, window_matrix_gl3)):
                    got = _leading_block(gl2, k, a, m)
                    assert got == _leading_block(gl3, k, 0, a, 0, m, m), \
                        (gl2.__name__, m, k, a)
                    outcomes.append(got[0] if isinstance(got, tuple) else None)
    assert minor_zero == 7
    assert outcomes.count(None) == 88
    assert outcomes.count(DegenerateTauError) == 20
    assert outcomes.count(SupportError) == 36
    # below the first row of the grid tau is zero on both sides
    m = rand_window(1, -3, 8)
    assert _leading_block(g_minus_gl2, -1, 0, m) == \
        _leading_block(g_minus_gl3, -1, 0, 0, 0, m, m) == \
        (DegenerateTauError, "tau is zero", {"k": -1, "alpha": 0})


def _leading_minors_nonzero(k, l, a, b, C, D) -> bool:
    rows = block_hankel_rows(k, k, l, a, b, C, D)
    return all(det([r[:j] for r in rows[:j]]) for j in range(1, k + 1))


@pytest.mark.parametrize("seed", range(1, 4))
def test_windows_take_no_bordered_determinant_of_their_own(monkeypatch, seed):
    # on nondegenerate windows every B_{k,l}, B_{k-1,l} and B_{k-1,l-1}
    # comes from the leading blocks of one elimination per column
    calls = []
    real = tauq.orthopoly.mop_bordered_poly

    def counting(*args):
        calls.append(args[:4])
        return real(*args)

    # any call counts, through the table's fallback or a module's own import
    for module in (tauq.orthopoly, tauq.factorization):
        monkeypatch.setattr(module, "mop_bordered_poly", counting, raising=False)
    rng = random.Random(seed)
    C, D = (seeded_window(rng, -4, 12, num=9, den=5) for _ in range(2))
    for k in range(5):
        for a in (-1, 0, 1):
            assert _leading_minors_nonzero(k, 0, a, 0, C, C)
            window_matrix_gl2(k, a, C)
            for l in range(k + 1):
                b = rng.randint(-1, 1)
                assert all(_leading_minors_nonzero(k, ll, a, b, C, D)
                           for ll in (max(l - 1, 0), l))
                window_matrix_gl3(k, l, a, b, C, D)
    assert not calls


# -- the integer-numerator route against the Fraction composition ----------

def _draw_window(rng):
    """Negative lo, 30-60% zeros, and a length of one value, a few values
    (so sigma offsets run past the top) or up to 13; half the draws have
    3-digit denominators, whose lcm over a window is large."""
    lo = rng.randint(-5, 1)
    length = rng.choice((1, rng.randint(2, 5), rng.randint(6, 13)))
    big = rng.random() < 0.5
    return seeded_window(rng, lo, lo + length - 1, num=999 if big else 9,
                         den=999 if big else 9,
                         zeros=rng.choice((0.3, 0.45, 0.6)))


def _past_top(m, *offsets):
    """Some sigma or tail offset lies above the window's last nonzero value."""
    sup = m.support()
    return sup is None or max(offsets) > sup[1]


@pytest.mark.parametrize("seed", range(6))
def test_factors_match_the_fraction_route(seed):
    rng = random.Random(seed)
    seen = {"value": 0, "error": 0, "past-top": 0, "k=0": 0, "l=0": 0,
            "k=l": 0, "one-value": 0}

    def check(lib, ref, *args, offsets=(), seqs=()):
        got = _outcome(lib, *args)
        assert got == _outcome(ref, *args), (lib.__name__, args)
        if isinstance(got, tuple):
            seen["error"] += 1
            return
        seen["value"] += 1
        seen["past-top"] += any(_past_top(s, *offsets) for s in seqs)
        seen["one-value"] += any(len(s.values) == 1 for s in seqs)

    for _ in range(12):
        m, C, D = (_draw_window(rng) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-1, 1)
        for k in range(5):
            check(g_minus_gl2, reference.g_minus_gl2, k, a, m,
                  offsets=(a + k,), seqs=(m,))
            check(window_matrix_gl2, reference.window_matrix_gl2, k, a, m,
                  offsets=(a + k, a), seqs=(m,))
            for l in range(k + 2):
                before = seen["value"]
                check(g_minus_gl3, reference.g_minus_gl3, k, l, a, b, C, D,
                      offsets=(a - b + k - l, a + l), seqs=(C, D))
                check(window_matrix_gl3, reference.window_matrix_gl3,
                      k, l, a, b, C, D,
                      offsets=(a - b + k - l, a + l, a - b, a), seqs=(C, D))
                if seen["value"] > before:
                    seen["k=0"] += k == 0
                    seen["l=0"] += l == 0
                    seen["k=l"] += k == l
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("seed", range(3))
def test_g_minus_matches_the_formal_route(seed):
    # the formal route expands every shifted tau (k! monomials): k <= 3
    rng = random.Random(100 + seed)
    evaluated = 0
    for _ in range(4):
        m, C, D = (_draw_window(rng) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-1, 1)
        for k in range(4):
            got = _outcome(g_minus_gl2, k, a, m)
            assert got == _outcome(formal_g_minus_gl2, k, a, m), (k, a, m)
            evaluated += not isinstance(got, tuple)
            for l in range(k + 1):
                args = (k, l, a, b, C, D)
                got = _outcome(g_minus_gl3, *args)
                assert got == _outcome(formal_g_minus_gl3, *args), args
                evaluated += not isinstance(got, tuple)
    assert evaluated > 0


def test_one_value_window_factors():
    # m = 3 at index 1: tau_1^(1) = 3, B_1 = 3z, and the c row's sigma
    # offset, 2, lies past the top of the window, so its series is empty
    m = MomentSequence.window(1, [Fraction(3)])
    one, zero = LaurentPoly.const(Fraction(1)), LaurentPoly.zero()
    third = LaurentPoly.z_pow(-1, Fraction(1, 3))
    g = g_minus_gl2(1, 1, m)
    assert g.entries == [[one, third], [zero, one]]
    assert g == reference.g_minus_gl2(1, 1, m) == formal_g_minus_gl2(1, 1, m)
    # z^1 row 0, z^-1 row 1 minus tail 3 z^-1 times row 0
    w = window_matrix_gl2(1, 1, m)
    assert w == reference.window_matrix_gl2(1, 1, m)
    assert w.entries == [[LaurentPoly.z_pow(1), LaurentPoly.const(Fraction(1, 3))],
                         [LaurentPoly.const(Fraction(-3)), zero]]


def test_factor_error_precedence(catalan, formal_d):
    rng = random.Random(7)
    C, D = (seeded_window(rng, -2, 9, num=9, den=9) for _ in range(2))
    zero_tau = MomentSequence.window(0, [Fraction(0), Fraction(1), Fraction(2)])
    named = "support of a named sequence is not finite"
    formal = "support of a formal sequence is not finite"
    inverse = "the inverse shift field needs finite support"
    cases = [
        # the tails come first, then g_minus's finite-support check
        (window_matrix_gl2, (1, 0, catalan), (SupportError, named, None)),
        (g_minus_gl2, (1, 0, catalan), (SupportError, inverse, None)),
        (window_matrix_gl3, (2, 1, 0, 0, C, catalan),
         (SupportError, named, None)),
        (window_matrix_gl3, (2, 1, 0, 0, formal_d, catalan),
         (SupportError, formal, None)),
        (g_minus_gl3, (2, 1, 0, 0, C, catalan), (SupportError, inverse, None)),
        # a zero tau beside a named family: the support check wins
        (window_matrix_gl3, (1, 0, 0, 0, zero_tau, catalan),
         (SupportError, named, None)),
        (g_minus_gl3, (1, 0, 0, 0, zero_tau, catalan),
         (SupportError, inverse, None)),
        # then a zero tau, with the entry point's indices
        (window_matrix_gl2, (1, 0, zero_tau),
         (DegenerateTauError, "tau is zero at {'k': 1, 'alpha': 0}",
          {"k": 1, "alpha": 0})),
        (g_minus_gl3, (1, 0, 0, 0, zero_tau, D),
         (DegenerateTauError,
          "tau is zero at {'k': 1, 'l': 0, 'alpha': 0, 'beta': 0}",
          {"k": 1, "l": 0, "alpha": 0, "beta": 0})),
        (window_matrix_gl3, (1, 0, 0, 0, zero_tau, D),
         (DegenerateTauError,
          "tau is zero at {'k': 1, 'l': 0, 'alpha': 0, 'beta': 0}",
          {"k": 1, "l": 0, "alpha": 0, "beta": 0})),
        # k < l is refused before any family is read
        (window_matrix_gl3, (1, 2, 0, 0, catalan, catalan),
         (DegenerateTauError,
          "tau vanishes identically for k < l at "
          "{'k': 1, 'l': 2, 'alpha': 0, 'beta': 0}",
          {"k": 1, "l": 2, "alpha": 0, "beta": 0})),
    ]
    ref = {fn: getattr(reference, fn.__name__) for fn, *_ in cases}
    for fn, args, want in cases:
        assert _outcome(fn, *args) == _outcome(ref[fn], *args) == want, \
            (fn.__name__, args)
