"""Determinants modulo a large prime: an exact route that shares no code
with tauq's Fraction Bareiss or cofactor engines.

A rational r = a/b maps to a * b^-1 mod P. For the small denominators the
benchmark draws, every map is defined, and a determinant that is nonzero
mod P is nonzero over Q. The converse fails only when P divides the
numerator, which the benchmark's inputs never reach.
"""
from __future__ import annotations

from fractions import Fraction

P = (1 << 61) - 1


def to_mod(x) -> int:
    x = Fraction(x)
    return x.numerator % P * pow(x.denominator, -1, P) % P


def _eliminate(rows, pivoting: bool) -> int:
    """det mod P by Gaussian elimination. Without pivoting a zero pivot
    (a vanishing leading principal minor) gives 0."""
    m = [[to_mod(x) for x in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n if pivoting else c + 1) if m[r][c]),
                     None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % P
        inv = pow(m[c][c], -1, P)
        for r in range(c + 1, n):
            f = m[r][c] * inv % P
            if f:
                m[r] = [(x - f * y) % P for x, y in zip(m[r], m[c])]
    return det % P


def det_mod(rows) -> int:
    """det of a square matrix of rationals, mod P."""
    return _eliminate(rows, pivoting=True)


def leading_minors_nonzero(rows) -> bool:
    """True when every leading principal minor of the matrix is nonzero
    mod P."""
    return _eliminate(rows, pivoting=False) != 0
