"""Two-index tau-functions from a (C, D, E) moment triple.

Every tau is one determinant, ``tau3_det``, which also holds the
boundary conventions (0 for k < 0 or l < 0, 1 at k = l = 0, 0 for k < l
when E = 0). It takes the ``block_hankel_rows`` layout (l d-columns, then
k-l c-columns) with every d-entry replaced by

    M_ij = d_{alpha+i+j} - sum_{m>=0} c_{alpha-beta+i-m-1} e_{beta+j+m},

the sum running over the m where both moments lie in their finite
supports (no sum when E = 0). For k >= l the tau is
(-1)^{l(l+1)/2} det[M_ij (j < l) | c_{alpha-beta+i+j-l} (j >= l)],
a k x k determinant; for k < l and E != 0 it is
(-1)^{k(k+1)/2 + k(l-k)} det[M_ji (j < k) | e_{beta+i+j-k} (j >= k)],
an l x l one, which is the same layout with E in the place of C.
The kernel factor Delta(x) Delta(z) / prod (x_i - z_j) is a
Cauchy-Vandermonde determinant, as in the Cauchy two-matrix model
(Bertola, Gekhtman and Szmigielski, *Cauchy biorthogonal polynomials*,
2010), and Andreief's identity folds the sum into one determinant. The
form is verified against the residue formula on seeded grids in the
tests; it is not proven here.

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
``tau3_det`` checks only that all three families are finite windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import ResourceBoundError, SupportError
from .moments import MomentSequence
from .report import VerificationReport
from .rings import det

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


def block_hankel_rows(n_rows: int, k: int, l: int, alpha: int, beta: int,
                      C: MomentSequence, D: MomentSequence) -> list[list]:
    """Rows 0 .. n_rows-1 of the k-column block-Hankel matrix: l d-columns
    d_{alpha+i+j}, then k-l c-columns c_{alpha-beta+i+(j-l)}. n_rows = k
    gives the tau matrix, n_rows = k+1 the body of the bordered one."""
    return [[D.get(alpha + i + j) if j < l else C.get(alpha - beta + i + (j - l))
             for j in range(k)] for i in range(n_rows)]


def tau3_det(k: int, l: int, alpha: int, beta: int,
             C: MomentSequence, D: MomentSequence,
             E: MomentSequence | None = None):
    """The two-index tau with its boundary conventions, as one determinant
    (see the module docstring); E = None means E = 0. With E != 0 every
    family must be a finite window (SupportError otherwise), as in the
    residue reference."""
    if k < 0 or l < 0:
        return C.ring_zero()
    if k == 0 and l == 0:
        return C.ring_one()
    e_zero = E is None or (E.is_finite and E.support() is None)
    if e_zero and k < l:
        return C.ring_zero()
    if not e_zero and not (C.is_finite and D.is_finite and E.is_finite):
        raise SupportError("the c*e convolution in tau3_det needs "
                           "finite-support sequences")
    if k >= l:
        rows = block_hankel_rows(k, k, l, alpha, beta, C, D)
        flips = l * (l + 1) // 2
    else:
        rows = block_hankel_rows(l, l, k, alpha, alpha - beta, E, D)
        flips = k * (k + 1) // 2 + k * (l - k)
    c_sup = None if e_zero else C.support()
    if c_sup is not None:
        e_sup = E.support()
        for i, row in enumerate(rows):
            for j in range(min(k, l)):
                # sum_{m>=0} c_{alpha-beta+p-m-1} e_{beta+q+m} over both supports
                p, q = (i, j) if k >= l else (j, i)
                top = alpha - beta + p - 1
                row[j] -= sum(C.get(top - m) * E.get(beta + q + m) for m in range(
                    max(0, top - c_sup[1], e_sup[0] - beta - q),
                    min(top - c_sup[0], e_sup[1] - beta - q) + 1))
    val = det(rows)
    return -val if flips % 2 else val


def tau3_e0_det(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence):
    """tau3_det with E = 0; with l = 0 and C = D it is the one-family
    Hankel tau."""
    # Kept only because bench/tracing.py wraps it (its span counts the
    # one-family taus of tau_det) and bench/oracles.py imports it.
    return tau3_det(k, l, alpha, beta, C, D)


class TauTable:
    """Memo of tau values keyed by index tuple. Each entry is computed once,
    as fn(*key, *args), and read back by get(*key) or by calling the table,
    so a table goes wherever a tau callable is expected."""

    __slots__ = ("fn", "args", "values")

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args
        self.values: dict[tuple, object] = {}

    def get(self, *key):
        if key not in self.values:
            self.values[key] = self.fn(*key, *self.args)
        return self.values[key]

    __call__ = get


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
    the ranges. Every tau is one tau3_det determinant, read from one
    table. No instance is skipped: the relations have no denominators.
    """
    report = VerificationReport("gl3-relations")
    tau = TauTable(tau3_det, C, D, E)
    for relation in (1, 2, 3, 4):
        for k in range(0, k_max + 1):
            for l in range(0, l_max + 1):
                for a in range(alpha_range[0], alpha_range[1] + 1):
                    for b in range(beta_range[0], beta_range[1] + 1):
                        lhs, rhs = relation_sides(relation, k, l, a, b, tau)
                        report.add_check(
                            {"relation": relation, "k": k, "l": l,
                             "alpha": a, "beta": b},
                            lhs == rhs, lhs, rhs)
    return report
