"""The orthogonality verifiers in one integer pass.

``verify mop`` reads its polynomials from one bordered column per (l,
alpha, beta), past a zero leading minor of their column too, so none
takes a bordered determinant of its own. Both verifiers pair a
polynomial with every power it is checked against through one
``form_pairings`` call, never through ``form_eval``; the values must equal
``form_eval`` check by check.
"""
import contextlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import tauq.orthopoly
from tauq import (DegenerateTauError, HankelForm, LaurentPoly, MomentSequence,
                  form_eval, monic_op, mop_type2, verify_mop,
                  verify_orthogonality)
from tauq.cli import main
from tauq.orthopoly import form_pairings
from tauq.rings import det
from tauq.tau_gl3 import block_hankel_rows

from reference import seeded_window


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _json(m: MomentSequence) -> str:
    return json.dumps({"kind": "window", "lo": m.lo,
                       "values": [str(v) for v in m.values]})


@pytest.fixture
def bordered_calls(monkeypatch):
    """Counts mop_bordered_poly calls per (k, l, alpha, beta) through
    orthopoly's binding, the one a bordered table takes the entries its
    columns leave out from."""
    calls = Counter()
    real = tauq.orthopoly.mop_bordered_poly

    def counting(*args):
        calls[args[:4]] += 1
        return real(*args)

    monkeypatch.setattr(tauq.orthopoly, "mop_bordered_poly", counting)
    return calls


def _minors(key, k_hi, C, D) -> list:
    """The leading minors of orders 1..k of the order-k_hi block-Hankel
    matrix of B_{k,l}'s (l, alpha, beta) column; the last is tau_{k,l} up
    to sign."""
    k, l, a, b = key
    rows = block_hankel_rows(k_hi, k_hi, l, a, b, C, D)
    return [det([r[:j] for r in rows[:j]]) for j in range(1, k + 1)]


@pytest.mark.parametrize("case", ["neg-lo", "zero-heavy", "forced-zero"])
def test_verify_mop_determinants_only_past_zero_minor(bordered_calls, case):
    # every polynomial, past a zero minor too, comes from one elimination
    # per (l, alpha, beta)
    rng = random.Random(case)
    C, D = (seeded_window(rng, -4, 11, num=9, den=5,
                          zeros=0.5 if case == "zero-heavy" else 0.0)
            for _ in range(2))
    if case == "forced-zero":
        C.values[1 - C.lo] = D.values[-D.lo] = Fraction(0)  # c_1, d_0
    k_hi, l_hi, alphas, betas = 5, 3, (-1, 1), (-1, 0)
    code, out = _run(["verify", "mop", "--moments-c", _json(C),
                      "--moments-d", _json(D), "--k", f"-1..{k_hi}",
                      "--l", f"-1..{l_hi}",
                      "--alpha", "{}..{}".format(*alphas),
                      "--beta", "{}..{}".format(*betas), "--format", "json"])
    assert code == 0, out
    keys = [(k, l, a, b) for k, a, b in itertools.product(
                range(k_hi + 1), range(alphas[0], alphas[1] + 1),
                range(betas[0], betas[1] + 1))
            for l in range(min(k, l_hi) + 1)]
    minors = {key: _minors(key, k_hi, C, D) for key in keys}
    degenerate = {key for key in keys if not all(minors[key])}
    assert len(degenerate) < len(keys)
    assert degenerate or case == "neg-lo"
    assert not bordered_calls
    # a zero tau_{k,l} is still a skip record
    assert len(json.loads(out)["skipped"]) == sum(
        not minors[key][-1] for key in keys if minors[key])


def test_verifiers_take_no_form_eval(monkeypatch, catalan, hermite):
    def refuse(*args):
        raise AssertionError("form_eval called")

    monkeypatch.setattr(tauq.orthopoly, "form_eval", refuse)
    rng = random.Random(4)
    C, D = (seeded_window(rng, -3, 12, num=9, den=5) for _ in range(2))
    for m in (C, catalan, hermite):
        assert verify_orthogonality(m, 0, 5).total == 15 + 6
    assert verify_mop(5, 2, 0, -1, C, D).total == 5
    code, _ = _run(["verify", "mop", "--moments-c", _json(C),
                    "--moments-d", _json(D), "--k", "0..4", "--l", "0..2"])
    assert code == 0
    code, _ = _run(["verify", "orthogonality", "--moments", _json(C),
                    "--count", "4", "--alpha", "-1..1"])
    assert code == 0


def _sources():
    rng = random.Random(31)
    return ([seeded_window(rng, lo, 16, num=40, den=9) for lo in (-6, -3, -1)]
            + [seeded_window(rng, -4, 16, num=9, den=4, zeros=z)
               for z in (0.3, 0.45, 0.6)]
            + [MomentSequence.named("catalan"),
               MomentSequence.named("hermite")])


SOURCES = _sources()


@pytest.mark.parametrize("m", SOURCES, ids=[
    "neg-lo-6", "neg-lo-3", "neg-lo-1", "zeros-30", "zeros-45", "zeros-60",
    "catalan", "hermite"])
def test_pairings_equal_form_eval(m):
    rng = random.Random(str(m.kind) + str(m.lo if m.is_finite else m.name))
    for offset in (-3, -1, 0, 2):
        form = HankelForm(m, offset)
        for _ in range(8):
            f = LaurentPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                             for e in rng.sample(range(8), rng.randint(0, 5))})
            count = rng.randint(0, 6)
            nums, den = form_pairings(form, f, count)
            assert len(nums) == count
            got = [Fraction(v, den) for v in nums]
            assert got == [form_eval(form, f, LaurentPoly.z_pow(n))
                           for n in range(count)]


def _mop_values(k, l, a, b, C, D) -> list[str]:
    p = mop_type2(k, l, a, b, C, D)
    return [str(form_eval(HankelForm(C, a - b), p, LaurentPoly.z_pow(n)))
            for n in range(k - l)] + \
        [str(form_eval(HankelForm(D, a), p, LaurentPoly.z_pow(n)))
         for n in range(l)]


def _gram_values(m, a, K) -> list[str]:
    polys = [monic_op(k, a, m) for k in range(K + 1)]
    form = HankelForm(m, a)
    return [str(form_eval(form, polys[j], polys[k]))
            for k in range(K + 1) for j in range(k + 1)]


@pytest.mark.parametrize("i", range(len(SOURCES)))
def test_verifier_values_equal_form_eval_check_by_check(i):
    m, other = SOURCES[i], SOURCES[(i + 3) % len(SOURCES)]
    for a in (-2, -1, 0, 1):
        try:
            want = _gram_values(m, a, 5)
        except DegenerateTauError:
            with pytest.raises(DegenerateTauError):
                verify_orthogonality(m, a, 5)
            continue
        assert [c.lhs for c in verify_orthogonality(m, a, 5).checks] == want
    for k, l, a, b in itertools.product(range(6), range(3), (-1, 0, 1), (-1, 0)):
        if l > k:
            continue
        try:
            want = _mop_values(k, l, a, b, m, other)
        except DegenerateTauError:
            with pytest.raises(DegenerateTauError):
                verify_mop(k, l, a, b, m, other)
            continue
        assert [c.lhs for c in verify_mop(k, l, a, b, m, other).checks] == want
