"""Moment bilinear forms and the polynomials the tau-functions generate.

The form <z^a, z^b> = m_{offset+a+b} turns a moment sequence into a
bilinear pairing on polynomials. The bordered determinant B_{k,l}
(``mop_bordered_poly``) over its leading coefficient tau_{k,l} is the
monic type-II multiple orthogonal polynomial of the c and d forms; B_{k,0}
gives the monic polynomial orthogonal to all lower powers of one form.

``bordered_table`` memoizes B_{k,l} keyed (k, l, alpha, beta) and takes an
(l, alpha, beta) column's degrees from one ``leading_blocks`` run: for
numeric moments one elimination that swaps rows past a zero pivot,
O(K^3) where one per degree costs O(K^4). ``mop_bordered_poly`` reads its
column at exactly degree k. ``monic_op`` and ``mop_type2`` read B_{k,l}
from the table they are given, or from a fresh one; ``opgen``,
``recurrence`` and ``mop`` pass one table for all their degrees, and
both verifiers one table for their whole ranges. The verifiers take
ranges, as every verifier does, and record each instance whose tau is
zero as a skip: an alpha of ``verify_orthogonality``, a (k, l, alpha,
beta) of ``verify_mop``, whose (k, l) run over the ``cone`` 0 <= l <= k.

The verifiers pair each polynomial f with the powers z^n in one integer
pass (``form_pairings``: f and the moments it meets scaled to integers
once); ``verify_orthogonality`` then takes each <p_j, p_k> as an integer
dot product of p_j's scaled coefficients with p_k's pairings.
``form_eval`` stays the plain one-pair reference.

Norms and three-term recurrence coefficients are derived facts here, not
inputs: tests gate the polynomials against a brute-force Gram-Schmidt
oracle, and the coefficients by rebuilding the polynomials from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul

from .errors import DegenerateTauError
from .moments import MomentSequence
from .report import VerificationReport
from .rings import _ZERO, LaurentPoly, _integer_rows, _numeric
from .tau_gl3 import TauTable, read_line, tau3_line


@dataclass(frozen=True)
class HankelForm:
    """Bilinear symmetric pairing <z^a, z^b> = seq.get(offset + a + b)."""

    seq: MomentSequence
    offset: int = 0

    def moment(self, n: int):
        return self.seq.get(self.offset + n)


def _poly_coeffs(f) -> dict[int, Fraction]:
    """Coefficient map of a polynomial argument; rejects negative powers."""
    if isinstance(f, MonicPolynomial):
        return {e: c for e, c in enumerate(f.coeffs) if c}
    if isinstance(f, LaurentPoly):
        coeffs = f.coeffs
    elif isinstance(f, (int, Fraction)):
        coeffs = {0: Fraction(f)} if f else {}
    else:
        raise TypeError(f"not a polynomial: {f!r}")
    if coeffs and min(coeffs) < 0:
        raise ValueError("bilinear form arguments must have no negative powers")
    return coeffs


def form_eval(form: HankelForm, f, g):
    """<f, g> by coefficient extraction: sum f_a g_b m_{offset+a+b}, on
    Python ints with one Fraction at the end when everything is numeric."""
    fa, gb = _poly_coeffs(f), _poly_coeffs(g)
    if not fa or not gb:
        return Fraction(0)
    lo = min(fa) + min(gb)
    rows = [list(fa.values()), list(gb.values()),
            [form.moment(n) for n in range(lo, max(fa) + max(gb) + 1)]]
    if not _numeric(rows):
        return sum((ca * cb * rows[2][a + b - lo] for a, ca in fa.items()
                    for b, cb in gb.items()), Fraction(0))
    (fs, gs, ms), scales = _integer_rows(rows)
    total = sum(x * sum(y * ms[a + b - lo] for b, y in zip(gb, gs))
                for a, x in zip(fa, fs))
    return Fraction(total, prod(scales))


def form_pairings(form: HankelForm, f, count: int) -> tuple[list[int], int]:
    """<f, z^n> for n < count as integer numerators over one denominator:
    f and the moments it meets, m_{offset+a} for min(f) <= a < deg f +
    count, are each scaled to integers once, so a caller makes one
    Fraction per value, or pairs another polynomial g by an integer dot
    product with g's scaled coefficients first. Numeric moments only."""
    fa = _poly_coeffs(f)
    if not fa or not count:
        return [0] * count, 1
    lo, hi = min(fa), max(fa)
    (fs, ms), (fscale, mscale) = _integer_rows(
        [[fa.get(a, 0) for a in range(lo, hi + 1)],
         [form.moment(n) for n in range(lo, hi + count)]])
    return [sum(map(mul, fs, ms[n:])) for n in range(count)], fscale * mscale


class MonicPolynomial:
    """Dense polynomial in z with exact coefficients and leading 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if not coeffs or coeffs[-1] != 1:
            raise ValueError("leading coefficient must be exactly 1")
        self.coeffs = coeffs

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "MonicPolynomial":
        deg = p.max_degree
        if deg is None or (p.min_degree is not None and p.min_degree < 0):
            raise ValueError("not a polynomial")
        return cls([p.coeff(e) for e in range(deg + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else _ZERO

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly({e: c for e, c in enumerate(self.coeffs)})

    def __call__(self, x):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        if isinstance(other, MonicPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, LaurentPoly):
            return self.as_laurent() == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __str__(self) -> str:
        return str(self.as_laurent())

    def __repr__(self) -> str:
        return f"MonicPolynomial({self.coeffs!r})"


def _monic(bordered: LaurentPoly, degree: int,
           what: str = "tau is zero; no monic orthogonal polynomial", **indices):
    """bordered / tau, where tau is its leading coefficient (at z^degree)."""
    tau = bordered.coeff(degree)
    if not tau:
        raise DegenerateTauError(what, **indices)
    return MonicPolynomial.from_laurent(bordered.scale(Fraction(1) / tau))


def monic_op(k: int, alpha: int, m: MomentSequence,
             bordered=None) -> MonicPolynomial:
    """Monic degree-k orthogonal polynomial: bordered determinant / tau_k,
    with B_k read from ``bordered``, a bordered_table of m (fresh if None).

    Exists iff tau_k != 0 (the moment functional is quasi-definite at k).
    """
    b = (bordered or bordered_table(k, m, m))(k, 0, alpha, 0)
    return _monic(b, k, k=k, alpha=alpha)


def verify_orthogonality(m: MomentSequence, alpha_range: tuple[int, int],
                         K: int) -> VerificationReport:
    """<p_j, p_k> = 0 for j < k <= K, and <p_k, p_k> = tau_{k+1}/tau_k, at
    every alpha in range, with p_0..p_K from ``monic_op`` on one
    bordered_table and each tau the leading coefficient of that table's
    B_k (or B_{K+1}). Each <p_j, p_k> is p_j's scaled coefficients dotted
    with p_k's ``form_pairings``. An alpha whose polynomials need a zero
    tau is recorded as one skip."""
    report = VerificationReport("orthogonality")
    table = bordered_table(K + 1, m, m)
    for alpha in range(alpha_range[0], alpha_range[1] + 1):
        try:
            # a zero tau_k raises before B_{k+1} is read
            polys = [monic_op(k, alpha, m, table) for k in range(K + 1)]
        except DegenerateTauError as exc:
            report.add_skip({"alpha": alpha, **exc.indices}, str(exc))
            continue
        form = HankelForm(m, alpha)
        taus = [table(k, 0, alpha, 0).coeff(k) for k in range(K + 2)]
        coeffs, scales = _integer_rows([p.coeffs for p in polys])
        for k in range(K + 1):
            pairings, den = form_pairings(form, polys[k], k + 1)
            gram = [Fraction(sum(map(mul, c, pairings)), s * den)
                    for c, s in zip(coeffs[:k + 1], scales)]
            for j, v in enumerate(gram[:k]):
                report.add_check({"j": j, "k": k, "alpha": alpha,
                                  "identity": "orthogonal"}, v, 0)
            report.add_check({"k": k, "alpha": alpha, "identity": "norm"},
                             gram[k], taus[k + 1] / taus[k])
    return report


def recurrence_coeffs(m: MomentSequence, alpha: int, K: int) -> list[tuple]:
    """(a_k, b_k) with z p_k = p_{k+1} + a_k p_k + b_k p_{k-1}, k < K, read
    off the polynomials: with s_k, t_k the z^{k-1}, z^{k-2} coefficients of
    p_k, comparing the z^k and z^{k-1} coefficients gives a_k = s_k - s_{k+1}
    and b_k = t_k - t_{k+1} - a_k s_k (so b_0 = 0). Reconstructing from
    these must reproduce monic_op exactly (tested, not assumed)."""
    table = bordered_table(K, m, m)
    polys = [monic_op(k, alpha, m, table) for k in range(K + 1)]
    s = [p.coeff(k - 1) for k, p in enumerate(polys)]
    t = [p.coeff(k - 2) for k, p in enumerate(polys)]
    out = []
    for k in range(K):
        a_k = s[k] - s[k + 1]
        out.append((a_k, t[k] - t[k + 1] - a_k * s[k]))
    return out


def recurrence_reconstruct(coeffs: list[tuple]) -> list[MonicPolynomial]:
    """Rebuild p_0..p_K from three-term coefficients (the consistency
    check for recurrence_coeffs)."""
    polys = [LaurentPoly.const(Fraction(1))]
    prev = LaurentPoly.zero()
    for a_k, b_k in coeffs:
        cur = polys[-1]
        nxt = cur.shift(1) - cur.scale(a_k) - prev.scale(b_k)
        prev = cur
        polys.append(nxt)
    return [MonicPolynomial.from_laurent(p) for p in polys]


# -- type-II multiple orthogonality (two families, E = 0) -------------------

def mop_bordered_poly(k: int, l: int, alpha: int, beta: int,
                      C: MomentSequence, D: MomentSequence) -> LaurentPoly:
    """z^k Sc+ Sd+ tau_{k,l}: the (k+1) x (k+1) bordered block determinant
    (l d-columns, then k-l c-columns, last column 1, z, ..., z^k) with the
    E=0 sign, read from its (l, alpha, beta) column at exactly degree k.
    Degree-k polynomial with leading coefficient tau_{k,l}; 0 outside
    0 <= l <= k, as tau is."""
    return tau3_line(k, l, alpha, beta, (k, k), (l, l), C, D,
                     bordered=True)[k, l, alpha, beta]


def bordered_table(k_max: int, C: MomentSequence,
                   D: MomentSequence) -> TauTable:
    """A memo of B_{k,l} (``mop_bordered_poly``) keyed (k, l, alpha, beta):
    each (l, alpha, beta) column's degrees -1..k_max come from one
    leading_blocks run, by the fill rule of ``read_line``."""
    return TauTable(lambda *key: read_line(key, (-1, k_max), 0, C, D,
                                           bordered=True))


def bordered_tau_poly(k: int, alpha: int, m: MomentSequence) -> LaurentPoly:
    """z^k S+ tau_k: the one-family bordered Hankel determinant (no
    d-columns). Dividing by tau_k gives the monic orthogonal polynomial."""
    return mop_bordered_poly(k, 0, alpha, 0, m, m)


def mop_type2(k: int, l: int, alpha: int, beta: int,
              C: MomentSequence, D: MomentSequence,
              bordered=None) -> MonicPolynomial:
    """Monic type-II multiple orthogonal polynomial for the (C, D) pair,
    with B_{k,l} read from ``bordered``, a bordered_table (fresh if None)."""
    b = (bordered or bordered_table(k, C, D))(k, l, alpha, beta)
    return _monic(b, k, "tau is zero; no monic polynomial",
                  k=k, l=l, alpha=alpha, beta=beta)


def cone(k_range: tuple[int, int],
         l_range: tuple[int, int]) -> list[tuple[int, int]]:
    """Every (k, l) of the ranges with 0 <= l <= k, k outer: the indices
    of the type-II polynomials."""
    return [(k, l) for k in range(max(0, k_range[0]), k_range[1] + 1)
            for l in range(max(0, l_range[0]), min(k, l_range[1]) + 1)]


def verify_mop(C: MomentSequence, D: MomentSequence,
               k_range: tuple[int, int], l_range: tuple[int, int],
               alpha_range: tuple[int, int],
               beta_range: tuple[int, int]) -> VerificationReport:
    """Shared orthogonality at every (k, l) of the ``cone`` and every
    (alpha, beta) in range: <p, z^n>_C = 0 for n < k-l (offset
    alpha-beta) and <p, z^n>_D = 0 for n < l (offset alpha), each
    family's values from one ``form_pairings``, with every B_{k,l} read
    from one bordered_table. An instance whose tau is zero is recorded as
    one skip."""
    report = VerificationReport("mop-orthogonality")
    table = bordered_table(k_range[1], C, D)
    for (k, l), a, b in product(cone(k_range, l_range),
                                range(alpha_range[0], alpha_range[1] + 1),
                                range(beta_range[0], beta_range[1] + 1)):
        instance = {"k": k, "l": l, "alpha": a, "beta": b}
        try:
            p = mop_type2(k, l, a, b, C, D, table)
        except DegenerateTauError as exc:
            report.add_skip(instance, str(exc))
            continue
        for family, form, count in (("c", HankelForm(C, a - b), k - l),
                                    ("d", HankelForm(D, a), l)):
            pairings, den = form_pairings(form, p, count)
            for n, num in enumerate(pairings):
                report.add_check({**instance, "family": family, "n": n},
                                 Fraction(num, den), 0)
    return report
