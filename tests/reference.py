"""Slow independent routes to single-family taus and orthogonal polynomials.

Test oracles only: the symmetrized residue formula for tau_k^(alpha)
(every monomial of a squared Vandermonde, k! of them and more) and brute
Gram-Schmidt under the Hankel form. The library takes both answers from
determinants; the tests require the two routes to agree. Also each
two-index tau as one determinant of its own layout and each bordered
polynomial B_{k,l} from one bordered run of its own body, as the library
took them before every tau and bordered polynomial became a read of one
column or row: the tables and the per-entry routines must equal them.
The numeric tau table one determinant per entry, which the condensation
table must equal, two seeded windows (a random one and one with a chosen zero
Hankel minor), and the bordered leading blocks from a no-swap Bareiss
run over the whole [A | I], which the triangular run must equal as far
as it reaches. The lower wave factor and window composed from Fraction
Laurent series and matrix products, which the integer-numerator route
must equal entry by entry.
And the ``MomentPoly`` renderer as it stood before it became one
run-length pass, which the library's must match character for character,
and the sorted-tuple ``MomentPoly`` ring itself, which the packed-exponent
one must match operation for operation.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, lcm

from tauq import (DegenerateTauError, HankelForm, LaurentMatrix, LaurentPoly,
                  MomentSequence, MomentSymbol, MonicPolynomial,
                  ResourceBoundError, SupportError, form_eval, tail_series,
                  tau_det)
from tauq.factorization import _shifted_series
from tauq.orthopoly import bordered_table
from tauq.rings import (_FAMILIES, _FAMILY_RANK, _FAMILY_SHIFT, _INDEX_BOUND,
                        _clean, _signed_term, _unpack, as_rational, det,
                        leading_minors)
from tauq.tau_gl3 import block_hankel_rows, block_sign_odd, e_is_zero

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
    determinant per entry (``tau3_by_det``)."""
    return {(k, a): tau3_by_det(k, 0, a, 0, m, m)
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
    """The last-column cofactors of the leading (t+1) x t blocks of an
    (n+1) x n numeric body A, t = 0, 1, ..., from one no-swap Bareiss run
    over all of [A | I_{n+1}]: after t steps row t's identity block holds
    block t's cofactors times the row scales of the other rows. Stops
    after the first t whose pivot is zero, or at t = n."""
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


def tau3_by_det(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence,
                E: MomentSequence | None = None):
    """tau_{k,l}^(alpha, beta) as one determinant: for k >= l the k x k
    block matrix of the column layout, for k < l with E != 0 its k x l
    Cauchy rows over the l - k rows e_{beta+i+j-k}, with the sign
    ``block_sign_odd``; 0 for k < 0, l < 0 and, with E = 0, k < l, and 1
    at k = l = 0."""
    if k < 0 or l < 0:
        return C.ring_zero()
    if k == 0 and l == 0:
        return C.ring_one()
    if k < l and e_is_zero(E):
        return C.ring_zero()
    rows = block_hankel_rows(k, max(k, l), l, alpha, beta, C, D, E)
    rows += [[E.get(beta + i + j - k) for i in range(l)] for j in range(k, l)]
    value = det(rows)
    return -value if block_sign_odd(k, l) else value


def bordered_by_run(k: int, l: int, alpha: int, beta: int,
                    C: MomentSequence, D: MomentSequence) -> LaurentPoly:
    """B_{k,l} = z^k Sc+ Sd+ tau_{k,l} (E = 0) from one bordered run of
    its own (k+1) x k body: the last block of ``leading_minors``, with
    tau's sign. 0 outside 0 <= l <= k."""
    if l < 0 or k < l:
        return LaurentPoly.zero()
    rows = block_hankel_rows(k + 1, k, l, alpha, beta, C, D)
    block = leading_minors(rows, bordered=True)[-1]
    sign = -1 if block_sign_odd(k, l) else 1
    return LaurentPoly({r: sign * c for r, c in enumerate(block)})


# -- the Fraction composition of the lower wave factor and window ----------
# As the library built them before they ran on integer numerators: every
# sigma series a LaurentPoly of Fractions, the twist a diagonal
# LaurentMatrix and the window two LaurentMatrix products.

def _contract(b: LaurentPoly, seq: MomentSequence, n: int) -> LaurentPoly:
    """Q[B; F, n] = sum_r b_r sigma^F_{n+r}."""
    total = LaurentPoly.zero()
    for r, coef in b.coeffs.items():
        total = total + _shifted_series(n + r, seq, -1).scale(coef)
    return total


def diagonal_z(powers) -> LaurentMatrix:
    """diag(z^p for p in powers)."""
    powers = list(powers)
    n = len(powers)
    return LaurentMatrix([[LaurentPoly.z_pow(powers[i]) if i == j
                           else LaurentPoly.zero() for j in range(n)]
                          for i in range(n)])


def _g_minus(k: int, l: int, alpha: int, beta: int,
             seqs: tuple[MomentSequence, ...], indices: dict) -> LaurentMatrix:
    """The (n+1) x (n+1) lower wave factor divided by tau_{k,l}, for the n
    pull-back families seqs: (m,) with l = beta = 0 (so C = D = m), or
    (C, D). Column j comes from B_{k,l}, B_{k-1,l} and (-1)^k B_{k-1,l-1}
    of one bordered_table; row 0 takes each over z^k, row i contracts each
    with family i's sigma series over z. The diagonal entry of row i is
    one index lower and has no 1/z, or is tau itself when the family has
    no columns to pull back (c when k = l, d when l = 0). In the d row the
    sign twist cancels the (-1)^k that Sd- carries."""
    for seq in seqs:
        if not seq.is_finite:
            raise SupportError("the inverse shift field needs finite support")
    B = bordered_table(k, seqs[0], seqs[-1])
    b = B(k, l, alpha, beta)
    tau = b.coeff(k)
    if not tau:
        raise DegenerateTauError("tau is zero", **indices)
    n = len(seqs)
    cols = [b, B(k - 1, l, alpha, beta),
            B(k - 1, l - 1, alpha, beta).scale(Fraction((-1) ** k))][:n + 1]
    # (family, sigma offset, has columns to pull back)
    families = zip(seqs, (alpha - beta + k - l, alpha + l), (k > l, l > 0))
    rows = [[col.shift(-k) for col in cols]]
    for i, (seq, off, live) in enumerate(families, 1):
        row = [_contract(col, seq, off).shift(-1) for col in cols]
        row[i] = (_contract(cols[i], seq, off - 1) if live
                  else LaurentPoly.const(tau))
        rows.append(row)
    return LaurentMatrix(rows).scale(Fraction(1) / tau)


def _window(k: int, l: int, alpha: int, beta: int,
            seqs: tuple[MomentSequence, ...], g_minus) -> LaurentMatrix:
    """Unipotent series factor (minus each family's tail series in column
    0) times diag(z^k, z^{l-k}, z^{-l}) (cut to size) times g_minus(),
    which is called after the tail series are built."""
    uni = LaurentMatrix.identity(len(seqs) + 1)
    for i, (seq, off) in enumerate(zip(seqs, (alpha - beta, alpha)), 1):
        uni.entries[i][0] = -tail_series(seq, off)
    twist = diagonal_z((k, l - k, -l)[:len(seqs) + 1])
    return uni @ (twist @ g_minus())


def g_minus_gl2(k: int, alpha: int, m: MomentSequence) -> LaurentMatrix:
    return _g_minus(k, 0, alpha, 0, (m,), {"k": k, "alpha": alpha})


def g_minus_gl3(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence) -> LaurentMatrix:
    return _g_minus(k, l, alpha, beta, (C, D),
                    {"k": k, "l": l, "alpha": alpha, "beta": beta})


def window_matrix_gl2(k: int, alpha: int, m: MomentSequence) -> LaurentMatrix:
    return _window(k, 0, alpha, 0, (m,), lambda: g_minus_gl2(k, alpha, m))


def window_matrix_gl3(k: int, l: int, alpha: int, beta: int,
                      C: MomentSequence, D: MomentSequence) -> LaurentMatrix:
    if k < l:
        raise DegenerateTauError("tau vanishes identically for k < l",
                                 k=k, l=l, alpha=alpha, beta=beta)
    return _window(k, l, alpha, beta, (C, D),
                   lambda: g_minus_gl3(k, l, alpha, beta, C, D))


def moment_poly_str(self) -> str:
    """``MomentPoly.__str__`` before it built each monomial in one pass:
    one ``count`` per distinct symbol, every coefficient through
    ``_signed_term``. Reads only ``items()``, so it renders the library's
    ring and the sorted-tuple one alike."""
    terms = dict(self.items())
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms):
        factors = []
        for sym in dict.fromkeys(mono):
            power = mono.count(sym)
            factors.append(str(sym) if power == 1 else f"{sym}^{power}")
        body = "*".join(factors)
        parts.append(_signed_term(terms[mono], body, first=not parts))
    return "".join(parts)


# The moment-polynomial ring as it stood before its monomials were packed
# exponent vectors: a monomial is a sorted tuple of packed symbols, with
# repetition, and a product concatenates and sorts two of them.
class MomentPoly:
    """Polynomial over Q in moment symbols.

    Terms map a monomial (sorted tuple of packed symbols, with repetition)
    to a nonzero coefficient: an int when integral, else a Fraction.
    Equality is structural. ``items`` reads the terms back with
    MomentSymbol monomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def zero(cls) -> "MomentPoly":
        return cls()

    @classmethod
    def one(cls) -> "MomentPoly":
        return cls({(): 1})

    @classmethod
    def const(cls, c) -> "MomentPoly":
        return cls({(): as_rational(c)})

    @classmethod
    def symbol(cls, family: str, index: int) -> "MomentPoly":
        if family not in _FAMILIES:
            raise ValueError(f"unknown moment family {family!r}")
        if not -_INDEX_BOUND < index < _INDEX_BOUND:
            raise ResourceBoundError(
                f"moment index {index} is outside the symbolic range "
                f"|index| < {_INDEX_BOUND}")
        return cls({(_FAMILY_RANK[family] << _FAMILY_SHIFT
                     | index + _INDEX_BOUND,): 1})

    def _coerce(self, other) -> "MomentPoly | None":
        if isinstance(other, MomentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MomentPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c
        return MomentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MomentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], int | Fraction] = {}
        get = out.get
        right = other.terms.items()
        for ma, ca in self.terms.items():
            for mb, cb in right:
                m = tuple(sorted(ma + mb))
                out[m] = get(m, 0) + ca * cb
        return MomentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = self if n else MomentPoly.one()
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        """(monomial as a sorted tuple of MomentSymbol, coefficient) per term."""
        for mono, coef in self.terms.items():
            yield tuple(map(_unpack, mono)), coef

    def evaluate(self, assign):
        """Substitute assign(symbol) for every symbol; plain Fraction result
        when the assignment is numeric. Substitution is a ring homomorphism.
        """
        total = None
        for mono, coef in self.items():
            val = as_rational(coef)
            for s in mono:
                val = val * assign(s)
            total = val if total is None else total + val
        return Fraction(0) if total is None else total

    def symbols(self) -> set[MomentSymbol]:
        return {s for mono, _ in self.items() for s in mono}

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = {code: str(_unpack(code))
                 for code in set(chain.from_iterable(terms))}
        parts = []
        for mono in sorted(terms):
            # a monomial is sorted, so each symbol is one run; the None
            # after the last one closes its run
            factors, run, power = [], None, 0
            for code in (*mono, None):
                if code == run:
                    power += 1
                    continue
                if power:
                    name = names[run]
                    factors.append(name if power == 1 else f"{name}^{power}")
                run, power = code, 1
            coef = terms[mono]
            neg = coef < 0
            mag = -coef if neg else coef
            if not factors:
                term = str(mag)
            elif mag == 1:
                term = "*".join(factors)
            else:
                term = f"{mag} {'*'.join(factors)}"
            if parts:
                parts.append(" - " if neg else " + ")
            elif neg:
                parts.append("-")
            parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MomentPoly({self})"
