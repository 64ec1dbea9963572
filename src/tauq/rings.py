"""Exact coefficient rings and Laurent polynomials.

Three coefficient domains are used throughout:

* ``Fraction`` for numeric work;
* ``MomentPoly``, polynomials over the rationals in formal moment symbols
  c_i, d_i, e_i, for symbolic identity proofs. Each keys its monomials
  by packed exponent vectors on its own basis of symbols, so a product of
  monomials is one int addition;
* ``RingFraction``, quotients of MomentPoly with equality by
  cross-multiplication, for symbolic matrices whose entries are ratios.

``LaurentPoly`` and ``LaurentMatrix`` are generic over any of these:
coefficients only need +, *, unary -, ==, and truthiness (zero is falsy).
All values are immutable after construction; every operation is pure.

Every determinant is a read of ``leading_minors``, which takes one of
two kernels. Numeric entries run one Bareiss elimination on Python ints
that swaps rows past a zero pivot (``_eliminate``), read row by row for
every leading minor or every bordered cofactor of each leading block.
Entries that mix numbers and MomentPoly run the Laplace subset kernel
(``_laplace``) on plain term dicts keyed on one basis for the whole
matrix, building a MomentPoly only for the minors a caller reads.
``det`` and ``det_bareiss`` read its minor of order n. No other ring
has a determinant kernel: ``LaurentMatrix.det`` (order 2 or 3) is a
cofactor expansion.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import lcm
from operator import or_
from typing import Iterable, NamedTuple

from .errors import ResourceBoundError


_ZERO = Fraction(0)


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
# packed symbols sort exactly as MomentSymbol does.
_INDEX_BOUND = 1 << 27
_FAMILY_SHIFT = 28
_INDEX_MASK = (1 << _FAMILY_SHIFT) - 1
# bits per exponent field until a degree bound needs more
_WIDTH = 8


def _unpack(code: int) -> MomentSymbol:
    return MomentSymbol(_FAMILIES[code >> _FAMILY_SHIFT],
                        (code & _INDEX_MASK) - _INDEX_BOUND)


def _clean(terms: dict) -> dict:
    """Drop zero coefficients; store integral ones as ints."""
    return {m: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c}


def _width_for(bound: int, width: int) -> int:
    """width if its fields hold every exponent up to bound, else the least
    multiple of 8 bits that does."""
    return width if not bound >> width else -(-bound.bit_length() // 8) * 8


def _exponents(key: int, n: int, width: int):
    """The n fields of a key, slot 0 (the top field) first: bytes for
    8-bit fields."""
    if width == 8:
        return key.to_bytes(n, "big")
    mask = (1 << width) - 1
    return [key >> (n - 1 - i) * width & mask for i in range(n)]


def _fields(key: int, n: int, width: int) -> list[tuple[int, int]]:
    """(slot, exponent) for each nonzero field of a key on n slots."""
    e = _exponents(key, n, width)
    return [(i, e[i]) for i in compress(range(n), e)]


def _union(a: tuple, b: tuple) -> tuple:
    """The sorted union of two bases, reusing either when it is the union."""
    if not b or a == b:
        return a
    if not a:
        return b
    u = tuple(sorted({*a, *b}))
    return a if len(u) == len(a) else b if len(u) == len(b) else u


def _rekey(p: "MomentPoly", basis: tuple, width: int) -> dict:
    """p's terms keyed on basis, which holds p's, with width-bit fields
    (no narrower than p's). Slots that stay adjacent move as one masked
    shift, so a basis that only gains symbols before p's costs nothing,
    and one that gains them only after p's costs one shift per key."""
    if not p.basis or p.width == width and (p.basis is basis
                                            or p.basis == basis):
        return p.terms
    field = (1 << p.width) - 1
    top, to_top = len(p.basis) - 1, len(basis) - 1
    moves: list[list[int]] = []
    for i, code in enumerate(p.basis):
        at = (top - i) * p.width
        shift = (to_top - bisect_left(basis, code)) * width - at
        if moves and moves[-1][1] == shift:
            moves[-1][0] |= field << at
        else:
            moves.append([field << at, shift])
    if len(moves) == 1:
        shift = moves[0][1]
        return {key << shift: c for key, c in p.terms.items()} if shift \
            else p.terms
    return {sum((key & mask) << shift for mask, shift in moves): c
            for key, c in p.terms.items()}


def _align(p: "MomentPoly", q: "MomentPoly", bound: int):
    """p's and q's terms on the union of their bases, with fields that
    hold every exponent up to bound; and that basis and width."""
    basis = _union(p.basis, q.basis)
    width = _width_for(bound, max(p.width, q.width))
    return _rekey(p, basis, width), _rekey(q, basis, width), basis, width


class MomentPoly:
    """Polynomial over Q in moment symbols.

    ``basis`` is a sorted tuple of packed symbols (a superset of those
    the terms use), and ``terms`` maps each monomial's key to its nonzero
    coefficient, an int when integral, else a Fraction. A key is one int,
    the packed exponent vector: one field of ``width`` bits (8 unless
    widened) per basis symbol, slot 0 in the top field, so the key of a
    product of monomials is the sum of their keys.

    Sums never carry between fields: ``bound`` is an upper bound on the
    total degree (a symbol 1, a product the sum, a sum the max), so it
    bounds every exponent, and the fields always hold it. An operation
    whose bound would not fit widens the fields of its result to the next
    multiple of 8 bits that does. Two operands on different bases or
    widths are first re-keyed onto the union basis at the wider width.
    A constructor caller passes the bound of terms of positive degree.

    Equality and hashing do not depend on the basis or the width, and
    ``items``, ``symbols``, ``evaluate`` and ``str`` read the symbols
    back: monomials print in the order of their sorted symbol tuples.
    """

    __slots__ = ("terms", "basis", "width", "bound")

    def __init__(self, terms: dict[int, int | Fraction] | None = None,
                 basis: tuple[int, ...] = (), width: int = _WIDTH,
                 bound: int = 0):
        self.terms = _clean(terms) if terms else {}
        self.basis = basis
        self.width = width
        self.bound = bound

    @classmethod
    def zero(cls) -> "MomentPoly":
        return cls()

    @classmethod
    def one(cls) -> "MomentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c) -> "MomentPoly":
        return cls({0: as_rational(c)})

    @classmethod
    def symbol(cls, family: str, index: int) -> "MomentPoly":
        if family not in _FAMILIES:
            raise ValueError(f"unknown moment family {family!r}")
        if not -_INDEX_BOUND < index < _INDEX_BOUND:
            raise ResourceBoundError(
                f"moment index {index} is outside the symbolic range "
                f"|index| < {_INDEX_BOUND}")
        return cls({1: 1}, (_FAMILY_RANK[family] << _FAMILY_SHIFT
                            | index + _INDEX_BOUND,), _WIDTH, 1)

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
        bound = max(self.bound, other.bound)
        left, right, basis, width = _align(self, other, bound)
        out = dict(left)
        get = out.get
        for m, c in right.items():
            out[m] = get(m, 0) + c
        return MomentPoly(out, basis, width, bound)

    __radd__ = __add__

    def __neg__(self):
        return MomentPoly({m: -c for m, c in self.terms.items()},
                          self.basis, self.width, self.bound)

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
        bound = self.bound + other.bound
        left, right, basis, width = _align(self, other, bound)
        out: dict[int, int | Fraction] = {}
        get = out.get
        right = right.items()
        for ma, ca in left.items():
            for mb, cb in right:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        return MomentPoly(out, basis, width, bound)

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
        if len(self.terms) != len(other.terms):
            return False
        left, right, _, _ = _align(self, other, 0)
        return left == right

    def __hash__(self):
        return hash(frozenset(zip(self._monomials(), self.terms.values())))

    def __bool__(self):
        return bool(self.terms)

    def _monomials(self, names=None) -> list[tuple]:
        """Each key as a sorted tuple of its symbols, with repetition, in
        terms order: packed codes, or names(code) for each code."""
        n, width = len(self.basis), self.width
        syms = self.basis if names is None else self._slot_names(names)
        return [tuple(syms[i] for i, e in _fields(key, n, width)
                      for _ in range(e)) for key in self.terms]

    def _slot_names(self, name) -> list:
        """name(code) for each slot that some term uses, None for the rest."""
        # fields never overlap, so the OR of every key is nonzero in
        # exactly the fields some term uses
        used = _exponents(reduce(or_, self.terms, 0), len(self.basis),
                          self.width)
        return [name(code) if u else None
                for code, u in zip(self.basis, used)]

    def items(self):
        """(monomial as a sorted tuple of MomentSymbol, coefficient) per term."""
        return zip(self._monomials(_unpack), self.terms.values())

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
        return set(filter(None, self._slot_names(_unpack)))

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        basis, n, width = self.basis, len(self.basis), self.width
        names = self._slot_names(lambda code: str(_unpack(code)))
        # A monomial prints as its symbols in sorted order: its slot
        # sequence, with repetition. Two sequences of one length first
        # differ at the first slot whose exponents differ, and the larger
        # exponent comes first; slot 0 is the top field, so that is
        # descending key order. 2^width is 1 modulo 2^width - 1, so a key
        # modulo that is the sum of its fields, its degree, while the
        # bound stays below it.
        ones = (1 << width) - 1
        if self.bound < ones and len({key % ones for key in terms}) == 1:
            order = sorted(terms.items(), reverse=True)
        else:
            order = sorted(terms.items(), key=lambda term: [
                i for i, e in _fields(term[0], n, width) for _ in range(e)])
        slots = range(n)
        parts = []
        for key, coef in order:
            e = key.to_bytes(n, "big") if width == 8 \
                else _exponents(key, n, width)
            factors = []
            for i in compress(slots, e):
                power = e[i]
                factors.append(names[i] if power == 1
                               else f"{names[i]}^{power}")
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
        return self.coeffs.get(e, _ZERO)

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
        """Cofactor expansion: n! entry products, six at n = 3."""
        return det_cofactor(self.entries)

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


def _eliminate(m: list[list[int]], perm: list[int] | None = None):
    """Bareiss elimination in place on integer rows, one step per row but
    the last, dividing exactly by the previous pivot. Yields once per row
    t, after t steps and before step t: the sign of row t.

    After t steps entry (i, j) with i, j >= t is the determinant of the
    leading t x t block bordered by row i and column j (Sylvester's
    identity), so the sign times m[t][t] is the leading (t+1) x (t+1)
    minor. A zero pivot at step t swaps in the first row r below it with
    a nonzero entry in column t, flipping the sign. Rows t..r-1 have no
    such entry, so the first t+1 columns of rows 0..r-1 have rank t, and
    every leading minor or bordered block within those rows that holds
    those columns is 0: rows t+1..r-1 yield sign 0 (``reach`` is the
    farthest swap so far). With no such row the run ends, and every later
    minor is 0 too.

    With ``perm``, the original index of each row, swapped with the rows,
    each row below the pivot row also gains one entry per step, -a for
    its pivot-column entry a: the rows then carry the run's identity
    block in triangular form (see ``leading_minors``).
    """
    sign, prev, reach = 1, 1, 0
    for t in range(len(m)):
        yield sign if reach <= t else 0
        if t == len(m) - 1:
            return
        if not m[t][t]:
            r = next((r for r in range(t + 1, len(m)) if m[r][t]), 0)
            if not r:
                return
            m[t], m[r] = m[r], m[t]
            if perm is not None:
                perm[t], perm[r] = perm[r], perm[t]
            sign, reach = -sign, max(reach, r)
        pivot = m[t][t]
        tail = m[t][t + 1:]
        for row in m[t + 1:]:
            a = row[t]
            row[t + 1:] = [(x * pivot - a * y) // prev
                           for x, y in zip(row[t + 1:], tail)]
            if perm is not None:
                row.append(-a)
        prev = pivot


def leading_minors(rows, bordered: bool = False, lo: int = 0) -> list:
    """The leading minors of orders lo, lo+1, ..., n of an n x n matrix.
    With ``bordered``, rows is an (n+1) x n body A, and entry t, for t =
    lo..n, lists the t+1 last-column cofactors (-1)^(r+t) det(A_t without
    row r) of A's leading (t+1) x t block A_t: the coefficients of the
    determinant of A_t bordered by one more column. Only the entries of
    orders lo..n are built.

    Numeric rows take one Bareiss run (``_eliminate``), over [A | I] when
    bordered: minor t+1 is row t's pivot, and block t row t's identity
    block, each times the row's sign and over the row scales of rows
    0..t. The identity block is never stored whole: after t steps row
    r's block is zero outside columns 0..t-1 and its own column r, which
    holds the last pivot. So each row starts with no identity columns and
    gains column t at step t, and compact column s belongs to original
    row perm[s].

    MomentPoly rows take one Laplace run. Placing the rows, the minor of
    order t is the mask (1 << t) - 1 after t rows; placing the body's
    columns, block t's minors are the masks that miss one of rows 0..t
    after t columns."""
    n = len(rows) - bordered
    if n < 0 or any(len(row) != n for row in rows):
        raise ValueError("leading_minors takes an n x n matrix or, "
                         "bordered, an (n+1) x n body")
    if not _numeric(rows):
        minors = _laplace(list(zip(*rows)) if bordered else rows,
                          {t: _bordered_masks(t) if bordered
                           else [(1 << t) - 1] for t in range(lo, n + 1)})
        return [_cofactor_signs(minors[t]) if bordered else minors[t][0]
                for t in range(lo, n + 1)]
    m, scales = _integer_rows(rows)
    perm = list(range(n + 1)) if bordered else None
    # step t gives the minor of order t + 1, or block t
    first = lo - (not bordered)
    out, total = [], 1
    for t, sign in enumerate(_eliminate(m, perm)):
        total *= scales[t]
        if t < first:
            continue
        row = m[t]
        if bordered:
            block = [_ZERO] * (t + 1)
            if sign:
                for q, v in zip(perm, row[n:] + [m[t - 1][t - 1] if t else 1]):
                    block[q] = Fraction(sign * v * scales[q], total)
            out.append(block)
        else:
            out.append(Fraction(sign * row[t], total))
    # a run that ends early leaves every later minor and block 0
    out += [[_ZERO] * (t + 1) if bordered else _ZERO
            for t in range(max(lo, 1 - bordered) + len(out), n + 1)]
    return out if bordered or lo else [Fraction(1), *out]


def det_bareiss(rows: list[list[Fraction]]) -> Fraction:
    """Fraction-free (Bareiss) determinant: the leading minor of order n
    (``leading_minors``), one run on integer rows for numeric entries
    (MomentPoly ones take the Laplace kernel, as in ``det``)."""
    # Kept beside det because bench/tracing.py wraps both names.
    return leading_minors(rows, lo=len(rows))[0]


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
    products. ``LaurentMatrix.det`` uses it, and the tests hold the
    Laplace kernel to it."""
    if not rows:
        return Fraction(1)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    first = rows[0][0]
    zero = MomentPoly.zero() if isinstance(first, MomentPoly) else \
        LaurentPoly.zero() if isinstance(first, LaurentPoly) else Fraction(0)
    return _det_cofactor_generic([list(r) for r in rows], zero)


def _laplace(lines, reads: dict[int, list[int]]) -> dict[int, list[MomentPoly]]:
    """Laplace expansion by subsets over MomentPoly terms.

    Places lines[0], lines[1], ... one at a time, each in a free position,
    and keys the signed sum of the placements so far, one term dict, by
    the mask of used positions: after t lines the dict at a mask is the
    determinant of the square matrix those positions cut from the first t
    lines (1 at t = 0, mask 0). reads maps t to the masks read after t
    lines; only those become MomentPoly. Every entry is keyed once on the
    union basis of the matrix, with fields wide enough for the sum over
    lines of their largest entry degree, so each placement product is an
    int addition; each product is added straight into its mask's dict,
    and zero coefficients are dropped once per line. Placing line t costs
    C(w, t-1) (w - t + 1) entry products for lines of width w, fewer than
    n 2^(n-1) in all for an n x n matrix.
    """
    polys = []
    for x in chain.from_iterable(lines):
        if isinstance(x, MomentPoly):
            polys.append(x)
        elif not isinstance(x, (int, Fraction)):
            raise TypeError("symbolic determinants take numbers and "
                            f"MomentPoly entries, not {type(x).__name__}")
    basis = tuple(sorted({code for p in polys for code in p.basis}))
    # a minor's degree is at most the sum over its lines of their largest
    # entry degree
    bounds = [max([x.bound for x in line if isinstance(x, MomentPoly)],
                  default=0) for line in lines]
    width = _width_for(sum(bounds), max([p.width for p in polys],
                                        default=_WIDTH))

    def terms(x) -> tuple:
        if isinstance(x, MomentPoly):
            return tuple(_rekey(x, basis, width).items())
        return ((0, x),) if x else ()

    partial = {0: {0: 1}}
    out = {}
    bound = 0

    def read(t: int) -> None:
        if t in reads:
            out[t] = [MomentPoly(partial.get(mask), basis, width, bound)
                      for mask in reads[t]]

    read(0)
    for t, line in enumerate(lines, 1):
        # each entry with its terms negated too: the sign of a placement
        # is one transposition per used position right of it
        entries = [(1 << j, j, plus, tuple((m, -c) for m, c in plus))
                   for j, plus in enumerate(map(terms, line)) if plus]
        nxt: dict[int, dict] = {}
        for mask, acc in partial.items():
            acc_terms = acc.items()
            for bit, j, plus, minus in entries:
                if mask & bit:
                    continue
                key = mask | bit
                target = nxt.get(key)
                if target is None:
                    target = nxt[key] = {}
                get = target.get
                for mb, cb in minus if (mask >> j).bit_count() & 1 else plus:
                    for ma, ca in acc_terms:
                        m = ma + mb
                        target[m] = get(m, 0) + ca * cb
        partial = {}
        for mask, acc in nxt.items():
            acc = {m: c for m, c in acc.items() if c}
            if acc:
                partial[mask] = acc
        bound += bounds[t - 1]
        read(t)
    return out


def det(rows):
    """Exact determinant: the leading minor of order n (``leading_minors``),
    Bareiss for numeric entries, the Laplace subset kernel for MomentPoly
    ones (TypeError for any other ring)."""
    return leading_minors(rows, lo=len(rows))[0]


def _numeric(rows) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in rows for x in row)


def _bordered_masks(k: int) -> list[int]:
    """The masks of rows 0..k that miss row r, for r = 0..k."""
    full = (1 << (k + 1)) - 1
    return [full ^ (1 << r) for r in range(k + 1)]


def _cofactor_signs(minors: list) -> list:
    """(-1)^(r+k) times minor r of the k+1 minors of a (k+1) x k body."""
    k = len(minors) - 1
    return [-d if (r + k) % 2 else d for r, d in enumerate(minors)]
