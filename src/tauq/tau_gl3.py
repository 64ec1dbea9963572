"""Two-index tau-functions from a (C, D, E) moment triple.

Every tau is a minor of one block matrix. ``block_hankel_rows`` builds it
in one layout around the Cauchy block

    M_ij = d_{alpha+i+j} - sum_{m>=0} c_{alpha-beta+i-m-1} e_{beta+j+m},

the sum running over the m where both moments lie in their finite
supports (no sum when E = 0, which ``e_is_zero`` decides: no e-family,
or a finite window with no nonzero value). For k >= l the tau is
(-1)^{l(l+1)/2} det[M_ij (j < l) | c_{alpha-beta+i+j-l} (j >= l)],
a k x k determinant; for k < l and E != 0 it is
(-1)^{k(k+1)/2 + k(l-k)} times the l x l determinant of the k x l block
M_ij over the l-k rows e_{beta+i+j-k} (j = k..l-1); ``block_sign_odd``
holds both signs. The boundary conventions are 0 for k < 0 or l < 0,
1 at k = l = 0 and 0 for k < l when E = 0. The kernel factor
Delta(x) Delta(z) / prod (x_i - z_j) is a Cauchy-Vandermonde
determinant, as in the Cauchy two-matrix model (Bertola, Gekhtman and
Szmigielski, *Cauchy biorthogonal polynomials*, 2010), and Andreief's
identity folds the sum into one determinant. The form is verified
against the residue formula on seeded grids in the tests; it is not
proven here.

M_ij depends only on (i, j), so along a line of indices the matrices are
nested, and one ``leading_minors`` run gives the whole line: an
elimination that swaps rows past a zero pivot for numeric moments, one
Laplace run for formal ones. At one (l, alpha, beta) the k >= l
matrices of k = l..K are the leading blocks of the order-K one
(``leading_blocks``: every tau_{k,l} of that column, or with E = 0
every B_{k,l}); with E != 0 at one (k, alpha, beta) the k < l matrices of
l = k+1..L are the leading blocks of the order-L one (the row of
``tau3_line``). ``tau3_line`` reads a key's line; ``tau3_table`` and
``orthopoly.bordered_table`` memoize lines in a ``TauTable`` by one fill
rule (``read_line``), and ``tau3_det`` (like ``mop_bordered_poly``) is a
read of its key's line at exactly its order.

The reference the closed form is tested against is the general residue
formula (``tau3_residue``). It sums, over kernel splittings (n_c, n_d, n_e)
with n_c + n_d = k and n_e + n_d = l, iterated residues of

    prod C^(alpha-beta)(x_i) prod D^(alpha)(y_i) prod E^(beta)(z_i) * p,

where the kernel p carries squared Vandermonde factors in each variable
group, cross factors prod (x_i - y_j) prod (y_i - z_j), the sign
(-1)^{n_d(n_d+1)/2}, and one geometric-expansion factor per (x_i, z_j)
pair: 1/(x_i - z_j) expanded as sum_{m>=0} z_j^m x_i^{-m-1}. Finite
support makes every such expansion a finite sum. No runtime route calls
it, and only it has a summand work bound (``max_work``); with E != 0
the line reads check only that all three families are finite windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .errors import ResourceBoundError, SupportError
from .moments import MomentSequence
from .report import VerificationReport
from .rings import LaurentPoly, leading_minors

SUMMAND_WORK_BOUND = 5


@dataclass(frozen=True)
class KernelSpec:
    """One summand (n_c, n_d, n_e) of the two-index tau formula."""

    n_c: int
    n_d: int
    n_e: int

    @property
    def sign(self) -> int:
        return (-1) ** (self.n_d * (self.n_d + 1) // 2)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, factorial(self.n_c) * factorial(self.n_d)
                        * factorial(self.n_e))

    @property
    def work(self) -> int:
        return self.n_c + self.n_d + self.n_e


def kernel_specs(k: int, l: int) -> list[KernelSpec]:
    """All splittings n_c + n_d = k, n_e + n_d = l with nonnegative parts."""
    return [KernelSpec(k - n_d, n_d, l - n_d) for n_d in range(min(k, l) + 1)]


# -- residue summands by elimination --------------------------------------
# Polynomials in the x/y/z variables are dicts mapping a flat exponent
# tuple (x exponents, then y, then z) to an integer coefficient. A variable
# whose moment has been substituted keeps exponent 0 in the tuple.

def _mul_diff(poly: dict, a: int, b: int) -> dict:
    """Multiply by (v_a - v_b)."""
    out: dict[tuple[int, ...], int] = {}
    for expo, coef in poly.items():
        e1 = list(expo)
        e1[a] += 1
        t1 = tuple(e1)
        out[t1] = out.get(t1, 0) + coef
        e2 = list(expo)
        e2[b] += 1
        t2 = tuple(e2)
        out[t2] = out.get(t2, 0) - coef
    return {e: c for e, c in out.items() if c}


def _substitute(poly: dict, var: int, moments: dict) -> dict:
    """Apply the moment functional to one variable: its exponent e becomes
    the factor moments[e] (0 off the support)."""
    out: dict[tuple[int, ...], int] = {}
    for expo, coef in poly.items():
        v = moments.get(expo[var])
        if v:
            e = list(expo)
            e[var] = 0
            t = tuple(e)
            out[t] = out.get(t, 0) + coef * v
    return {e: c for e, c in out.items() if c}


def _expand_pair(poly: dict, x: int, z: int, x_floor: int, z_cap: int) -> dict:
    """Multiply by 1/(v_x - v_z) = sum_{m>=0} v_z^m v_x^{-m-1}, keeping the
    m that leave v_x's exponent >= x_floor and v_z's <= z_cap: later steps
    only lower the one and raise the other, so the rest would meet a zero
    moment."""
    out: dict[tuple[int, ...], int] = {}
    for expo, coef in poly.items():
        for m in range(min(expo[x] - 1 - x_floor, z_cap - expo[z]) + 1):
            e = list(expo)
            e[x] -= m + 1
            e[z] += m
            t = tuple(e)
            out[t] = out.get(t, 0) + coef
    return {e: c for e, c in out.items() if c}


def _int_moments(seq: MomentSequence, offset: int) -> tuple[dict, int]:
    """Exponent e -> L * seq_{offset+e} on the support, as integers, with L
    the lcm of the window's denominators."""
    values = {seq.lo + j - offset: v for j, v in enumerate(seq.values) if v}
    scale = lcm(*(v.denominator for v in values.values()))
    return ({e: v.numerator * (scale // v.denominator)
             for e, v in values.items()}, scale)


def _summand(spec: KernelSpec, alpha: int, beta: int,
             C: MomentSequence, D: MomentSequence, E: MomentSequence) -> Fraction:
    """One (n_c, n_d, n_e) term. Variables are eliminated as soon as every
    factor that holds them is in: each y_j (D moment) after its cross and
    Vandermonde factors, then each x_i (C moment) after its Vandermonde
    factors and its geometric expansions against every z_j, then each z_j
    (E moment). Each family is scaled to integers once and the product of
    the scales divided out at the end."""
    n_c, n_d, n_e = spec.n_c, spec.n_d, spec.n_e
    x0, y0, z0 = 0, n_c, n_c + n_d
    c, c_scale = _int_moments(C, alpha - beta)
    d, d_scale = _int_moments(D, alpha)
    e, e_scale = _int_moments(E, beta)
    poly: dict[tuple[int, ...], int] = {(0,) * spec.work: 1}
    for j in range(n_d):
        y = y0 + j
        for i in range(n_c):
            poly = _mul_diff(poly, x0 + i, y)
        for i in range(n_e):
            poly = _mul_diff(poly, y, z0 + i)
        for j2 in range(j + 1, n_d):
            poly = _mul_diff(_mul_diff(poly, y, y0 + j2), y, y0 + j2)
        poly = _substitute(poly, y, d)
    for i in range(n_c):
        x = x0 + i
        for i2 in range(i + 1, n_c):
            poly = _mul_diff(_mul_diff(poly, x, x0 + i2), x, x0 + i2)
        for j in range(n_e):
            # the n_e - 1 - j expansions still to come lower x by >= 1 each
            poly = _expand_pair(poly, x, z0 + j, min(c) + n_e - 1 - j, max(e))
        poly = _substitute(poly, x, c)
    for j in range(n_e):
        z = z0 + j
        for j2 in range(j + 1, n_e):
            poly = _mul_diff(_mul_diff(poly, z, z0 + j2), z, z0 + j2)
        poly = _substitute(poly, z, e)
    total = poly.get((0,) * spec.work, 0)
    scale = c_scale ** n_c * d_scale ** n_d * e_scale ** n_e
    return spec.sign * spec.weight * Fraction(total, scale)


def tau3_residue(k: int, l: int, alpha: int, beta: int,
                 C: MomentSequence, D: MomentSequence, E: MomentSequence,
                 max_work: int = SUMMAND_WORK_BOUND) -> Fraction:
    """Two-index tau by the general residue formula (finite support only):
    the reference route the closed form is tested against.

    A summand drawing against an identically-zero family vanishes exactly
    and is skipped before the work bound applies; ResourceBoundError when
    another summand exceeds max_work.
    """
    if k < 0 or l < 0:
        return Fraction(0)
    if k == 0 and l == 0:
        return Fraction(1)
    if not (C.is_finite and D.is_finite and E.is_finite):
        raise SupportError("the residue formula needs finite-support sequences")
    zero = [seq.support() is None for seq in (C, D, E)]
    total = Fraction(0)
    for spec in kernel_specs(k, l):
        if any(n and z for n, z in zip((spec.n_c, spec.n_d, spec.n_e), zero)):
            continue
        if spec.work > max_work:
            raise ResourceBoundError(
                f"summand (n_c,n_d,n_e)=({spec.n_c},{spec.n_d},{spec.n_e}) "
                f"exceeds work bound {max_work}")
        total += _summand(spec, alpha, beta, C, D, E)
    return total


def e_is_zero(E: MomentSequence | None) -> bool:
    """The E = 0 rule: no e-family, or a finite window with no nonzero
    value."""
    return E is None or (E.is_finite and not any(E.values))


def block_sign_odd(k: int, l: int) -> bool:
    """Whether tau_{k,l} is minus the determinant of its block layout:
    the parity of l(l+1)/2 for k >= l, of k(k+1)/2 + k(l-k) for k < l."""
    flips = l * (l + 1) // 2 if k >= l else k * (k + 1) // 2 + k * (l - k)
    return flips % 2 == 1


def block_hankel_rows(n_rows: int, k: int, l: int, alpha: int, beta: int,
                      C: MomentSequence, D: MomentSequence,
                      E: MomentSequence | None = None) -> list[list]:
    """Rows 0 .. n_rows-1 of the k-column block matrix, 0 <= l <= k: l
    Cauchy columns M_ij (see the module docstring), then k-l c-columns
    c_{alpha-beta+i+(j-l)}. n_rows = k gives the tau matrix, n_rows = k+1
    the body of the bordered one. With E = 0 (``e_is_zero``) M_ij is
    d_{alpha+i+j} and each distinct moment is read once, only from a
    family with columns, and none for n_rows = 0. With E != 0 every family must be a finite window
    (SupportError, before any moment is read), as in the residue
    reference. Every row is a fresh list."""
    e_zero = e_is_zero(E)
    if not (e_zero or (C.is_finite and D.is_finite and E.is_finite)):
        raise SupportError("the c*e convolution in tau3_det needs finite-support sequences")
    d = [D.get(alpha + s) for s in range(n_rows + l - 1)] \
        if n_rows and l > 0 else []
    c = [C.get(alpha - beta + s) for s in range(n_rows + k - l - 1)] \
        if n_rows and k > l else []
    rows = [d[i:i + l] + c[i:i + k - l] for i in range(n_rows)]
    if not e_zero:
        c_hi = C.lo + len(C.values) - 1
        for i, row in enumerate(rows):
            top = alpha - beta + i - 1
            for j in range(l):
                # sum_{m>=0} c_{top-m} e_{beta+j+m}: from the first m with
                # both in their windows, c read downwards and e upwards
                m = max(0, top - c_hi, E.lo - beta - j)
                if top - m >= C.lo:
                    row[j] -= sum(map(mul, C.values[top - m - C.lo::-1],
                                      E.values[beta + j + m - E.lo:]))
    return rows


def tau3_det(k: int, l: int, alpha: int, beta: int,
             C: MomentSequence, D: MomentSequence,
             E: MomentSequence | None = None):
    """The two-index tau with its boundary conventions (see the module
    docstring); E = None means E = 0. One read of its line at exactly its
    order. With E != 0 every family must be a finite window (SupportError
    otherwise), as in the residue reference."""
    line = tau3_line(k, l, alpha, beta, (k, k), (l, l), C, D, E)
    return line[k, l, alpha, beta]


def tau3_e0_det(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence):
    """tau3_det with E = 0; with l = 0 and C = D it is the one-family
    Hankel tau."""
    # Kept only because bench/tracing.py wraps it (its span counts the
    # one-family taus of tau_det) and bench/oracles.py imports it.
    return tau3_det(k, l, alpha, beta, C, D)


def leading_blocks(k_range: tuple[int, int], l: int, alpha: int, beta: int,
                   C: MomentSequence, D: MomentSequence,
                   bordered: bool = False,
                   E: MomentSequence | None = None) -> dict:
    """The column at one (l, alpha, beta): k -> tau_{k,l}, or with
    ``bordered`` (E = 0 only) k -> B_{k,l}, for the k of k_range but,
    with E != 0, those with 0 <= k < l (a row's, see ``tau3_line``): the
    boundary entries (0 for k < 0, l < 0, and k < l when E = 0; tau_{0,0}
    = 1, an empty matrix that reads no moment), then every k from
    max(l, k_lo) to k_hi from one ``leading_minors`` run of the order-k_hi
    matrix or body. A moment that cannot be read raises its error."""
    k_lo, k_hi = k_range
    zero = LaurentPoly.zero() if bordered else C.ring_zero()
    out = {k: zero for k in range(k_lo, k_hi + 1)
           if l < 0 or k < 0 or (k < l and e_is_zero(E))}
    if l < 0 or k_hi < l:
        return out
    if k_hi + bordered == 0:
        out[0] = C.ring_one()
        return out
    lo = max(l, k_lo)
    rows = block_hankel_rows(k_hi + bordered, k_hi, l, alpha, beta, C, D, E)
    # negating column 0 gives every minor and block with a column (each
    # one read, as l >= 1 when the sign is odd) tau's sign
    if block_sign_odd(k_hi, l):
        for row in rows:
            row[0] = -row[0]
    for k, x in enumerate(leading_minors(rows, bordered, lo), lo):
        out[k] = LaurentPoly(dict(enumerate(x))) if bordered else x
    return out


def tau3_line(k: int, l: int, alpha: int, beta: int,
              k_range: tuple[int, int], l_range: tuple[int, int],
              C: MomentSequence, D: MomentSequence,
              E: MomentSequence | None = None, bordered: bool = False) -> dict:
    """The line of tau_{k,l} (or with ``bordered`` B_{k,l}), keyed by the
    full index (k, l, alpha, beta): its (l, alpha, beta) column over
    k_range (``leading_blocks``) or, with E != 0 and 0 <= k < l, its (k,
    alpha, beta) row over l_range. The l x l matrix of a row's tau_{k,l}
    is k Cauchy rows M_ij (j < l), then the rows e_{beta+j+r} (r < l - k):
    the leading block of the order-l_hi one. So one ``leading_minors`` run
    gives the row, each minor with its sign ``block_sign_odd(k, l)``."""
    if k < 0 or k >= l or e_is_zero(E):
        col = leading_blocks(k_range, l, alpha, beta, C, D, bordered, E)
        return {(j, l, alpha, beta): v for j, v in col.items()}
    l_lo, l_hi = l_range
    rows = block_hankel_rows(k, l_hi, l_hi, alpha, beta, C, D, E)
    rows += [[E.get(beta + j + r) for j in range(l_hi)]
             for r in range(l_hi - k)]
    return {(k, j, alpha, beta): -x if block_sign_odd(k, j) else x
            for j, x in enumerate(leading_minors(rows, lo=l_lo), l_lo)}


def read_line(key: tuple, k_range: tuple[int, int], l_hi: int,
              C: MomentSequence, D: MomentSequence,
              E: MomentSequence | None = None, bordered: bool = False) -> dict:
    """The one fill rule of the tau tables: key's line (``tau3_line``)
    over the table's ranges, k_range and l up to l_hi, widened to include
    the key. If a moment in that range cannot be read, or a family is not
    a finite window beside a nonzero E, key's own order only: a key then
    fails exactly when its own matrix cannot be read."""
    k, l, _, _ = key
    try:
        return tau3_line(*key, (min(k_range[0], k), max(k_range[1], k)),
                         (k + 1, max(l_hi, l)), C, D, E, bordered)
    except (ResourceBoundError, SupportError):
        return tau3_line(*key, (k, k), (l, l), C, D, E, bordered)


class TauTable:
    """Memo of taus or bordered polynomials keyed by index tuple. On a
    miss it stores fill(*key), a dict that holds the key and the rest of
    the key's line; every entry is read back by get(*key) or by calling
    the table, so a table goes wherever a tau callable is expected."""

    __slots__ = ("fill", "values")

    def __init__(self, fill):
        self.fill = fill
        self.values: dict[tuple, object] = {}

    def get(self, *key):
        values = self.values
        if key not in values:
            values.update(self.fill(*key))
        return values[key]

    __call__ = get


def tau3_table(C: MomentSequence, D: MomentSequence,
               E: MomentSequence | None, k_range: tuple[int, int],
               l_hi: int) -> TauTable:
    """A TauTable of the taus over (C, D, E) for a caller that reads k
    over k_range and l up to l_hi: each (l, alpha, beta) column, and with
    E != 0 each (k, alpha, beta) row, comes from one run."""
    return TauTable(lambda *key: read_line(key, k_range, l_hi, C, D, E))


# The four difference relations, written exactly as stated: each entry is
# (name, lhs, rhs) over a tau callable t(k, l, alpha, beta).

def relation_sides(relation: int, k: int, l: int, a: int, b: int, t):
    if relation == 1:
        lhs = t(k, l, a + 1, b) ** 2
        rhs = (t(k, l, a, b) * t(k, l, a + 2, b)
               + t(k + 1, l + 1, a, b) * t(k - 1, l - 1, a + 2, b)
               - t(k + 1, l, a, b) * t(k - 1, l, a + 2, b))
    elif relation == 2:
        lhs = t(k, l, a + 1, b) * t(k, l - 1, a + 2, b)
        rhs = (t(k - 1, l - 1, a + 2, b) * t(k + 1, l, a + 1, b)
               + t(k, l - 1, a + 1, b) * t(k, l, a + 2, b))
    elif relation == 3:
        lhs = t(k, l, a, b + 1) ** 2
        rhs = (t(k, l, a, b) * t(k, l, a, b + 2)
               - t(k, l - 1, a, b + 2) * t(k, l + 1, a, b)
               - t(k + 1, l, a, b + 2) * t(k - 1, l, a, b))
    elif relation == 4:
        lhs = t(k - 1, l, a, b + 1) * t(k, l + 1, a, b)
        rhs = (t(k - 1, l, a, b) * t(k, l + 1, a, b + 1)
               + t(k - 1, l + 1, a, b) * t(k, l, a, b + 1))
    else:
        raise ValueError(f"relation must be 1..4, got {relation}")
    return lhs, rhs


def verify_gl3_relations(C: MomentSequence, D: MomentSequence,
                         E: MomentSequence | None,
                         k_max: int, l_max: int,
                         alpha_range: tuple[int, int],
                         beta_range: tuple[int, int]) -> VerificationReport:
    """Check all four relations on every in-range instance, exactly.

    Out-of-range tau values follow the k < 0 / l < 0 -> 0 convention, so
    the relations can be checked at the edges; they reach one step past
    the ranges. Every tau is read from one tau3_table over k = -1..k_max+1.
    No instance is skipped: the relations have no denominators.
    """
    report = VerificationReport("gl3-relations")
    tau = tau3_table(C, D, E, (-1, k_max + 1), l_max + 1)
    for relation in (1, 2, 3, 4):
        for k in range(0, k_max + 1):
            for l in range(0, l_max + 1):
                for a in range(alpha_range[0], alpha_range[1] + 1):
                    for b in range(beta_range[0], beta_range[1] + 1):
                        lhs, rhs = relation_sides(relation, k, l, a, b, tau)
                        report.add_check(
                            {"relation": relation, "k": k, "l": l,
                             "alpha": a, "beta": b}, lhs, rhs)
    return report
