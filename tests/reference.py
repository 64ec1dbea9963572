"""Slow independent routes to single-family taus and orthogonal polynomials.

Test oracles only: the symmetrized residue formula for tau_k^(alpha)
(every monomial of a squared Vandermonde, k! of them and more) and brute
Gram-Schmidt under the Hankel form. The library takes both answers from
determinants; the tests require the two routes to agree. Also the numeric
tau table one determinant per entry, which the condensation table must
equal, two seeded windows (a random one and one with a chosen zero
Hankel minor), and the bordered leading blocks from a Bareiss run over
the whole [A | I], which the triangular run must equal. And the
``MomentPoly`` renderer as it stood before it became one run-length pass,
which the library's must match character for character.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, lcm

from tauq import (DegenerateTauError, HankelForm, LaurentPoly,
                  MomentSequence, MonicPolynomial, ResourceBoundError,
                  form_eval, tau_det)
from tauq.rings import _signed_term, _unpack

RESIDUE_K_BOUND = 5


def _vandermonde_sq(k: int) -> dict[tuple[int, ...], int]:
    """Expansion of prod_{i<j} (w_i - w_j)^2 as exponent-tuple -> coefficient."""
    poly: dict[tuple[int, ...], int] = {(0,) * k: 1}
    for i in range(k):
        for j in range(i + 1, k):
            for _ in range(2):
                out: dict[tuple[int, ...], int] = {}
                for expo, coef in poly.items():
                    e1 = list(expo)
                    e1[i] += 1
                    out[tuple(e1)] = out.get(tuple(e1), 0) + coef
                    e2 = list(expo)
                    e2[j] += 1
                    out[tuple(e2)] = out.get(tuple(e2), 0) - coef
                poly = {e: c for e, c in out.items() if c}
    return poly


def tau_residue(k: int, alpha: int, m: MomentSequence, max_k: int = RESIDUE_K_BOUND):
    """tau_k^(alpha) by the symmetrized residue formula.

    (1/k!) Res_{w_1} ... Res_{w_k} of prod_{i<j}(w_i - w_j)^2 prod_i C^(alpha)(w_i),
    residues taken innermost first. Res_w(w^e C^(alpha)(w)) = c_{alpha+e}, so
    each monomial of the squared Vandermonde picks one moment per variable.
    """
    if k < 0:
        raise ValueError("tau_residue requires k >= 0")
    if k > max_k:
        raise ResourceBoundError(f"residue formula bounded at k <= {max_k}, got {k}")
    if k == 0:
        return m.ring_one()
    total = m.ring_zero()
    for expo, coef in _vandermonde_sq(k).items():
        term = m.ring_one() * coef
        for e in expo:
            term = term * m.get(alpha + e)
            if not term:
                break
        total = total + term
    return total * Fraction(1, factorial(k))


def gram_schmidt_monic(m: MomentSequence, alpha: int, K: int) -> list[MonicPolynomial]:
    """Brute-force monic orthogonalization of 1, z, ..., z^K under the
    Hankel form; the oracle monic_op is checked against."""
    form = HankelForm(m, alpha)
    basis: list[LaurentPoly] = []
    norms: list[Fraction] = []
    for k in range(K + 1):
        p = LaurentPoly.z_pow(k)
        for q, nq in zip(basis, norms):
            if not nq:
                raise DegenerateTauError("zero norm; orthogonalization stuck",
                                         k=len(norms) - 1, alpha=alpha)
            p = p - q.scale(form_eval(form, LaurentPoly.z_pow(k), q) / nq)
        basis.append(p)
        norms.append(form_eval(form, p, p))
    return [MonicPolynomial.from_laurent(p) for p in basis]


def tau_det_table(m: MomentSequence, k_range: tuple[int, int],
                  alpha_range: tuple[int, int]) -> dict:
    """tau_k^(alpha) over two inclusive ranges, keyed (k, alpha), one
    determinant per entry (bound at import, so a test that counts the
    library's determinant calls does not count these)."""
    return {(k, a): tau_det(k, a, m)
            for k in range(k_range[0], k_range[1] + 1)
            for a in range(alpha_range[0], alpha_range[1] + 1)}


def seeded_window(rng, lo, hi, num=999, den=99, zeros=0.0):
    """Seeded window on [lo, hi]: +-a/b with a <= num, b <= den, each value
    zero with probability ``zeros``."""
    return MomentSequence.window(lo, [
        Fraction(0) if rng.random() < zeros
        else Fraction(rng.randint(-num, num), rng.randint(1, den))
        for _ in range(hi - lo + 1)])


def forced_zero_window(rng, k, alpha):
    """A seeded window on [alpha - 4, alpha + 2k + 8] with tau_k^(alpha) = 0:
    c_{alpha+2k-2} enters that determinant only in its last diagonal
    entry, with cofactor tau_{k-1}^(alpha), so one value of it zeroes it."""
    while True:
        m = seeded_window(rng, alpha - 4, alpha + 2 * k + 8)
        cofactor = tau_det(k - 1, alpha, m)
        if cofactor:
            break
    j = alpha + 2 * k - 2 - m.lo
    m.values[j] = Fraction(0)
    m.values[j] = -tau_det(k, alpha, m) / cofactor
    assert tau_det(k, alpha, m) == 0
    return m


def bordered_blocks_full(rows) -> list:
    """bordered_cofactors of the leading (t+1) x t blocks of an (n+1) x n
    numeric body A, t = 0, 1, ..., from one no-swap Bareiss run over all
    of [A | I_{n+1}]: after t steps row t's identity block holds block t's
    cofactors times the row scales of the other rows. Stops after the
    first t whose pivot is zero, or at t = n."""
    n = len(rows[0]) if rows else 0
    scales = [lcm(*[Fraction(x).denominator for x in row]) for row in rows]
    m = [[int(Fraction(x) * s) for x in row] + [int(c == r) for c in range(n + 1)]
         for r, (row, s) in enumerate(zip(rows, scales))]
    out, total, prev = [], 1, 1
    for t in range(n + 1):
        total *= scales[t]
        out.append([Fraction(v * s, total)
                    for v, s in zip(m[t][n:n + t + 1], scales)])
        pivot = m[t][t] if t < n else 0
        if not pivot:
            break
        for row in m[t + 1:]:
            a = row[t]
            row[:] = [(x * pivot - a * y) // prev for x, y in zip(row, m[t])]
        prev = pivot
    return out


def moment_poly_str(self) -> str:
    """``MomentPoly.__str__`` before it built each monomial in one pass:
    one ``count`` per distinct symbol, every coefficient through
    ``_signed_term``."""
    if not self.terms:
        return "0"
    names = {code: str(_unpack(code))
             for code in set(chain.from_iterable(self.terms))}
    parts = []
    for mono in sorted(self.terms):
        factors = []
        for code in dict.fromkeys(mono):
            power = mono.count(code)
            factors.append(names[code] if power == 1
                           else f"{names[code]}^{power}")
        body = "*".join(factors)
        parts.append(_signed_term(self.terms[mono], body, first=not parts))
    return "".join(parts)
