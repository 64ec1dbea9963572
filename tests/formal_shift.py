"""Formal shift fields and the formal-expansion route to g_minus.

Test oracles only. S is the substitution endomorphism sending every
generator of one moment family to its successor (c_k to c_{k+1}), acting
multiplicatively and fixing other families; S+ = 1 - S/z and its formal
inverse S- = sum_i S^i z^{-i}. The formal route expands the tau polynomial
over formal symbols (k! monomials) and pushes every monomial through
``evaluate_shifted``; the library builds the same factors from bordered
determinants, and the gate tests require both to agree entry by entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tauq import (DegenerateTauError, LaurentMatrix, LaurentPoly, MomentPoly,
                  MomentSequence, SupportError, evaluate_shifted, tau3_e0_det,
                  tau_det)

FORMAL_C = MomentSequence.formal("c")
FORMAL_D = MomentSequence.formal("d")


@dataclass(frozen=True)
class ShiftEndomorphism:
    """S_family^sign with sign +1 for 1 - S/z, -1 for its inverse."""

    family: str
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def symbol_image(self, index: int, hi: int | None = None) -> LaurentPoly:
        """Laurent series (MomentPoly coefficients) the field sends one
        generator to. The minus field needs a support top hi to truncate;
        generators above hi map to 0 because every summand does."""
        sym = lambda j: MomentPoly.symbol(self.family, j)
        if self.sign == 1:
            return LaurentPoly({0: sym(index), -1: -sym(index + 1)})
        if hi is None:
            raise SupportError("the inverse shift field needs a support bound")
        return LaurentPoly({-i: sym(index + i) for i in range(hi - index + 1)})


def apply_shift(shift: ShiftEndomorphism, p: MomentPoly,
                hi: int | None = None) -> LaurentPoly:
    """Homomorphic image of p under the shift field, z-dependence collected
    as a Laurent polynomial with MomentPoly coefficients."""
    total = LaurentPoly.zero()
    for mono, coef in p.items():
        acc = LaurentPoly.const(MomentPoly.const(coef))
        for s in mono:
            if s.family == shift.family:
                fac = shift.symbol_image(s.index, hi)
            else:
                fac = LaurentPoly.const(MomentPoly.symbol(s.family, s.index))
            acc = acc * fac
            if not acc:
                break
        total = total + acc
    return total


def formal_g_minus_gl2(k: int, alpha: int, m: MomentSequence) -> LaurentMatrix:
    """g_minus_gl2 by formal expansion of every shifted tau."""
    if not m.is_finite:
        raise SupportError("the inverse shift field needs finite support")
    tau_k = tau_det(k, alpha, m)
    if not tau_k:
        raise DegenerateTauError("tau is zero", k=k, alpha=alpha)

    def ev(kk: int, sign: int) -> LaurentPoly:
        formal = tau_det(kk, alpha, FORMAL_C)
        if not formal:
            return LaurentPoly.zero()
        return evaluate_shifted(formal, {"c": m}, {"c": sign})

    inv = Fraction(1) / tau_k
    return LaurentMatrix([
        [ev(k, 1).scale(inv), ev(k - 1, 1).shift(-1).scale(inv)],
        [ev(k + 1, -1).shift(-1).scale(inv), ev(k, -1).scale(inv)],
    ])


def formal_g_minus_gl3(k: int, l: int, alpha: int, beta: int,
                       C: MomentSequence, D: MomentSequence) -> LaurentMatrix:
    """g_minus_gl3 by formal expansion of every shifted tau."""
    for seq in (C, D):
        if not seq.is_finite:
            raise SupportError("the inverse shift field needs finite support")
    tau = tau3_e0_det(k, l, alpha, beta, C, D)
    if not tau:
        raise DegenerateTauError("tau is zero", k=k, l=l, alpha=alpha, beta=beta)

    seqs = {"c": C, "d": D}

    def ev(kk: int, ll: int, signs: dict[str, int]) -> LaurentPoly:
        formal = tau3_e0_det(kk, ll, alpha, beta, FORMAL_C, FORMAL_D)
        if not formal:
            return LaurentPoly.zero()
        return evaluate_shifted(formal, seqs, signs)

    plus_both = {"c": 1, "d": 1}
    minus_c, minus_d = {"c": -1}, {"d": -1}
    sk = Fraction((-1) ** k)
    rows = [
        [ev(k, l, plus_both),
         ev(k - 1, l, plus_both).shift(-1),
         ev(k - 1, l - 1, plus_both).shift(-1).scale(sk)],
        [ev(k + 1, l, minus_c).shift(-1),
         ev(k, l, minus_c),
         ev(k, l - 1, minus_c).shift(-1).scale(sk)],
        [ev(k + 1, l + 1, minus_d).shift(-1).scale(-sk),
         ev(k, l + 1, minus_d).shift(-1).scale(sk),
         ev(k, l, minus_d)],
    ]
    inv = Fraction(1) / tau
    return LaurentMatrix([[e.scale(inv) for e in row] for row in rows])
