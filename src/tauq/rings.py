"""Exact coefficient rings and Laurent polynomials.

Three coefficient domains are used throughout:

* ``Fraction`` for numeric work;
* ``MomentPoly``, polynomials over the rationals in formal moment symbols
  c_i, d_i, e_i, for symbolic identity proofs;
* ``RingFraction``, quotients of MomentPoly with equality by
  cross-multiplication, for symbolic matrices whose entries are ratios.

``LaurentPoly`` and ``LaurentMatrix`` are generic over any of these:
coefficients only need +, *, unary -, ==, and truthiness (zero is falsy).
All values are immutable after construction; every operation is pure.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, prod
from typing import Iterable, NamedTuple

from .errors import ResourceBoundError


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


class MomentSymbol(NamedTuple):
    """A formal moment variable, e.g. c_3 or d_{-1}.

    Ordered lexicographically by (family, index).
    """

    family: str  # one of "c", "d", "e"
    index: int

    def __str__(self) -> str:
        return f"{self.family}_{self.index}"


_FAMILIES = ("c", "d", "e")
_FAMILY_RANK = {f: r for r, f in enumerate(_FAMILIES)}
# A symbol is packed into one int, rank(family) << 28 | (index + 2**27), so
# packed monomials sort exactly as tuples of MomentSymbol do.
_INDEX_BOUND = 1 << 27
_FAMILY_SHIFT = 28
_INDEX_MASK = (1 << _FAMILY_SHIFT) - 1


def _unpack(code: int) -> MomentSymbol:
    return MomentSymbol(_FAMILIES[code >> _FAMILY_SHIFT],
                        (code & _INDEX_MASK) - _INDEX_BOUND)


def _clean(terms: dict) -> dict:
    """Drop zero coefficients; store integral ones as ints."""
    return {m: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c}


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
        acc = MomentPoly.one()
        for _ in range(n):
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

    def __repr__(self) -> str:
        return f"MomentPoly({self})"


def _signed_term(coef, body: str, first: bool) -> str:
    """Render one term of a polynomial string, with leading sign handling."""
    neg = coef < 0 if isinstance(coef, (int, Fraction)) else False
    mag = -coef if neg else coef
    if body:
        coef_str = "" if mag == 1 else f"{mag} " if isinstance(mag, (int, Fraction)) else f"({mag}) "
        term = f"{coef_str}{body}" if coef_str else body
    else:
        term = str(mag)
    if first:
        return f"-{term}" if neg else term
    return f" - {term}" if neg else f" + {term}"


class RingFraction:
    """A quotient num/den of ring elements, without gcd reduction.

    Equality is by cross-multiplication, so two unreduced representations
    of the same quotient compare equal. Used for symbolic matrices whose
    entries are ratios of tau polynomials.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MomentPoly.one() if isinstance(num, MomentPoly) else Fraction(1)
        if not den:
            raise ZeroDivisionError("zero denominator in RingFraction")
        self.num = num
        self.den = den

    @classmethod
    def _coerce(cls, other) -> "RingFraction | None":
        if isinstance(other, RingFraction):
            return other
        if isinstance(other, (int, Fraction, MomentPoly)):
            return cls(other if isinstance(other, MomentPoly) else MomentPoly.const(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RingFraction(-self.num, self.den)

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
        return RingFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero RingFraction")
        return RingFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __bool__(self):
        return bool(self.num)

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RingFraction({self.num!r}, {self.den!r})"


class LaurentPoly:
    """Finite Laurent polynomial in z over an exact coefficient ring.

    coeffs maps integer exponents to nonzero coefficients; the zero
    polynomial has an empty map.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def z_pow(cls, n: int, c=Fraction(1)) -> "LaurentPoly":
        return cls({n: c})

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction, MomentPoly, RingFraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    prod = c1 * c2
                    s = out.get(e)
                    out[e] = prod if s is None else s + prod
            return LaurentPoly(out)
        if isinstance(other, (int, Fraction, MomentPoly, RingFraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly({e: v * c for e, v in self.coeffs.items()})

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z^n."""
        return LaurentPoly({e + n: c for e, c in self.coeffs.items()})

    @property
    def min_degree(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, e: int):
        return self.coeffs.get(e, Fraction(0))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(other.coeffs[e] == c for e, c in self.coeffs.items())

    def __hash__(self):
        return hash(frozenset(self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            body = "" if e == 0 else "z" if e == 1 else f"z^{e}"
            if isinstance(c, (int, Fraction)):
                parts.append(_signed_term(c, body, first=not parts))
            else:
                wrapped = f"({c})" + (f" {body}" if body else "")
                parts.append(wrapped if not parts else f" + {wrapped}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class LaurentMatrix:
    """Square matrix of LaurentPoly entries (dimension 2 or 3 in practice)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[LaurentPoly]]):
        rows = [list(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = rows

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls([[LaurentPoly.const(Fraction(1)) if i == j else LaurentPoly.zero()
                     for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal_z(cls, powers: Iterable[int]) -> "LaurentMatrix":
        powers = list(powers)
        n = len(powers)
        return cls([[LaurentPoly.z_pow(powers[i]) if i == j else LaurentPoly.zero()
                     for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        n = self.n
        return LaurentMatrix(
            [[_sum_polys(self.entries[i][t] * other.entries[t][j] for t in range(n))
              for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            return self @ other
        return NotImplemented

    def scale(self, c) -> "LaurentMatrix":
        return LaurentMatrix([[e.scale(c) for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.n == other.n and all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.n) for j in range(self.n))

    def min_degree(self) -> int | None:
        """Smallest z-exponent over all entries; None for the zero matrix."""
        degs = [e.min_degree for row in self.entries for e in row if e]
        return min(degs) if degs else None

    def det(self) -> LaurentPoly:
        return det(self.entries)

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    __repr__ = __str__


def _sum_polys(polys) -> LaurentPoly:
    acc = LaurentPoly.zero()
    for p in polys:
        acc = acc + p
    return acc


def _integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as Python ints, and
    the row scales (those lcms)."""
    out, scales = [], []
    for row in rows:
        vals = [x if isinstance(x, (int, Fraction)) else as_rational(x)
                for x in row]
        # a list, not a generator: a tuple unpacked from a generator is
        # allocated at a guessed size and resized, and the resized tuples
        # pile up in the interpreter's tuple free lists over many calls
        s = lcm(*[x.denominator for x in vals])
        out.append([x.numerator * (s // x.denominator) for x in vals])
        scales.append(s)
    return out, scales


def _eliminate(m: list[list[int]], steps: int) -> int:
    """Run ``steps`` Bareiss steps in place on integer rows, dividing
    exactly by the previous pivot. After t steps, entry (i, j) with
    i, j >= t is the determinant of the leading t x t block bordered by
    row i and column j (Sylvester's identity).

    Returns the sign of the row swaps, or 0 when a pivot column has no
    nonzero entry on or below the diagonal (then every minor that the
    remaining steps would produce is 0).
    """
    sign, prev = 1, 1
    for t in range(steps):
        if not m[t][t]:
            for r in range(t + 1, len(m)):
                if m[r][t]:
                    m[t], m[r] = m[r], m[t]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[t][t]
        tail = m[t][t + 1:]
        for row in m[t + 1:]:
            a = row[t]
            row[t + 1:] = [(x * pivot - a * y) // prev
                           for x, y in zip(row[t + 1:], tail)]
        prev = pivot
    return sign


def det_bareiss(rows: list[list[Fraction]]) -> Fraction:
    """Fraction-free (Bareiss) determinant for exact numeric entries.

    Each row is scaled to integers by the lcm of its denominators and the
    elimination runs on Python ints with exact division; one Fraction is
    built at the end. Row swaps flip the sign; a zero pivot column means
    a zero determinant.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m, scales = _integer_rows(rows)
    sign = _eliminate(m, n - 1)
    if not sign:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], prod(scales))


def _det_cofactor_generic(rows, zero):
    n = len(rows)
    if n == 0:
        raise ValueError("cofactor determinant needs explicit handling of 0x0")
    if n == 1:
        return rows[0][0]
    total = zero
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor_generic(minor, zero)
        total = total - term if j % 2 else total + term
    return total


def det_cofactor(rows):
    """Cofactor-expansion determinant over any commutative ring: n!
    products, the reference the Laplace kernel is tested against."""
    if not rows:
        return Fraction(1)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    first = rows[0][0]
    zero = MomentPoly.zero() if isinstance(first, MomentPoly) else \
        LaurentPoly.zero() if isinstance(first, LaurentPoly) else Fraction(0)
    return _det_cofactor_generic([list(r) for r in rows], zero)


def _laplace(lines) -> dict:
    """Laplace expansion by subsets over any commutative ring.

    Places lines[0], lines[1], ... one at a time, each in a free column,
    and keys the signed sum of the placements so far by the mask of used
    columns. After every line is placed, the entry for a mask is the
    determinant of the square matrix those columns cut from the lines.
    Placing line t costs C(w, t) (w - t) ring products for lines of width
    w, fewer than n 2^(n-1) in all for an n x n matrix.
    """
    partial = {1 << j: x for j, x in enumerate(lines[0])}
    for line in lines[1:]:
        nxt: dict = {}
        for mask, acc in partial.items():
            for j, x in enumerate(line):
                bit = 1 << j
                if mask & bit:
                    continue
                term = acc * x
                key = mask | bit
                prev = nxt.get(key)
                # one transposition per used column right of j
                if (mask >> j).bit_count() & 1:
                    nxt[key] = -term if prev is None else prev - term
                else:
                    nxt[key] = term if prev is None else prev + term
        partial = nxt
    return partial


def det(rows):
    """Exact determinant: Bareiss for numeric entries, the Laplace subset
    kernel otherwise."""
    if not rows:
        return Fraction(1)
    if _numeric(rows):
        return det_bareiss(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return _laplace(rows)[(1 << n) - 1]


def _numeric(rows) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in rows for x in row)


def bordered_cofactors(rows) -> list:
    """The k+1 last-column cofactors (-1)^(r+k) det(A without row r) of a
    (k+1) x k body A: the coefficients of the determinant of A bordered by
    one more column.

    Numeric bodies take one integer elimination of [A | I_{k+1}]: after k
    Bareiss steps the last row's identity block holds every cofactor,
    times the swap sign and the row scales of the other rows. A pivot
    column with no nonzero entry means A has rank below k, so every
    cofactor is 0. Other rings run the Laplace kernel over the k columns:
    its masks that miss one of the k+1 rows hold every minor at once.
    """
    k = len(rows) - 1
    if k < 0 or any(len(row) != k for row in rows):
        raise ValueError("bordered body must be (k+1) x k")
    if not _numeric(rows):
        by_rows = _laplace(list(zip(*rows)))
        full = (1 << (k + 1)) - 1
        minors = [by_rows[full ^ (1 << r)] for r in range(k + 1)]
        return [-d if (r + k) % 2 else d for r, d in enumerate(minors)]
    m, scales = _integer_rows(rows)
    for r, row in enumerate(m):
        row.extend(int(c == r) for c in range(k + 1))
    sign = _eliminate(m, k)
    if not sign:
        return [Fraction(0)] * (k + 1)
    total = prod(scales)
    return [Fraction(sign * v * s, total) for v, s in zip(m[k][k:], scales)]
