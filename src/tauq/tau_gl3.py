"""Two-index tau-functions from a (C, D, E) moment triple.

The general formula sums, over kernel splittings (n_c, n_d, n_e) with
n_c + n_d = k and n_e + n_d = l, iterated residues of

    prod C^(alpha-beta)(x_i) prod D^(alpha)(y_i) prod E^(beta)(z_i) * p,

where the kernel p carries squared Vandermonde factors in each variable
group, cross factors prod (x_i - y_j) prod (y_i - z_j), the sign
(-1)^{n_d(n_d+1)/2}, and one geometric-expansion factor per (x_i, z_j)
pair: 1/(x_i - z_j) expanded as sum_{m>=0} z_j^m x_i^{-m-1}. Finite
support makes every such expansion a finite sum.

When E is identically zero the sum collapses to a single term and the
value equals a signed block-Hankel determinant (d-columns then c-columns);
that closed form is implemented separately and cross-checked against the
residue engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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


# -- multivariate kernel expansion ----------------------------------------
# Polynomials in the x/y/z variables are dicts mapping a flat exponent
# tuple (x exponents, then y, then z) to an integer coefficient.

def _poly_mul_factor(poly: dict, a: int, b: int | None, nvars: int) -> dict:
    """Multiply by (v_a - v_b), or by v_a alone when b is None."""
    out: dict[tuple[int, ...], int] = {}
    for expo, coef in poly.items():
        e1 = list(expo)
        e1[a] += 1
        t1 = tuple(e1)
        out[t1] = out.get(t1, 0) + coef
        if b is not None:
            e2 = list(expo)
            e2[b] += 1
            t2 = tuple(e2)
            out[t2] = out.get(t2, 0) - coef
    return {e: c for e, c in out.items() if c}


def _kernel_poly(spec: KernelSpec) -> dict:
    """Vandermonde-squared and cross factors, before underline expansion."""
    n = spec.work
    poly: dict[tuple[int, ...], int] = {(0,) * n: 1}
    x0, y0, z0 = 0, spec.n_c, spec.n_c + spec.n_d
    for group_start, count in ((x0, spec.n_c), (y0, spec.n_d), (z0, spec.n_e)):
        for i in range(count):
            for j in range(i + 1, count):
                poly = _poly_mul_factor(poly, group_start + i, group_start + j, n)
                poly = _poly_mul_factor(poly, group_start + i, group_start + j, n)
    for i in range(spec.n_c):
        for j in range(spec.n_d):
            poly = _poly_mul_factor(poly, x0 + i, y0 + j, n)
    for i in range(spec.n_d):
        for j in range(spec.n_e):
            poly = _poly_mul_factor(poly, y0 + i, z0 + j, n)
    return poly


def _window_bounds(seq: MomentSequence) -> tuple[int, int] | None:
    if not seq.is_finite:
        raise SupportError("the residue formula needs finite-support sequences")
    return seq.support()


def _summand(spec: KernelSpec, alpha: int, beta: int,
             C: MomentSequence, D: MomentSequence, E: MomentSequence) -> Fraction:
    """One (n_c, n_d, n_e) term: expand the kernel, apply the geometric
    expansions for every (x_i, z_j) pair with support-derived cutoffs, then
    read residues as moment lookups."""
    n = spec.work
    x0, y0, z0 = 0, spec.n_c, spec.n_c + spec.n_d
    poly = _kernel_poly(spec)

    c_sup = _window_bounds(C)
    e_sup = _window_bounds(E)
    if spec.n_c and c_sup is None:
        return Fraction(0)
    if spec.n_e and e_sup is None:
        return Fraction(0)
    if spec.n_d and _window_bounds(D) is None:
        return Fraction(0)

    # Degree cap for any single x variable in the kernel part: squared
    # Vandermonde contributes at most 2(n_c - 1), the x-y cross factors n_d.
    x_deg_cap = 2 * (spec.n_c - 1) + spec.n_d if spec.n_c else 0
    for i in range(spec.n_c):
        for j in range(spec.n_e):
            # x_i picks moment c_{alpha-beta+e}; exponents below
            # c_lo - (alpha-beta) die, so m <= x_deg_cap - 1 - that bound.
            # z_j picks e_{beta+e}; any m > e_hi - beta dies.
            m_hi = min(e_sup[1] - beta,
                       x_deg_cap + (alpha - beta) - c_sup[0] - 1)
            if m_hi < 0:
                return Fraction(0)
            out: dict[tuple[int, ...], int] = {}
            for expo, coef in poly.items():
                for m in range(m_hi + 1):
                    e2 = list(expo)
                    e2[x0 + i] -= m + 1
                    e2[z0 + j] += m
                    t = tuple(e2)
                    out[t] = out.get(t, 0) + coef
            poly = {e: c for e, c in out.items() if c}

    total = Fraction(0)
    for expo, coef in poly.items():
        val = Fraction(coef)
        for i in range(spec.n_c):
            val *= C.get(alpha - beta + expo[x0 + i])
            if not val:
                break
        if val:
            for i in range(spec.n_d):
                val *= D.get(alpha + expo[y0 + i])
                if not val:
                    break
        if val:
            for i in range(spec.n_e):
                val *= E.get(beta + expo[z0 + i])
                if not val:
                    break
        total += val
    return spec.sign * spec.weight * total


def tau3_residue(k: int, l: int, alpha: int, beta: int,
                 C: MomentSequence, D: MomentSequence, E: MomentSequence,
                 max_work: int = SUMMAND_WORK_BOUND) -> Fraction:
    """Two-index tau by the general residue formula (finite support only).

    A summand drawing against an identically-zero family vanishes exactly
    and is skipped before the work bound applies.
    """
    if k < 0 or l < 0:
        return Fraction(0)
    if k == 0 and l == 0:
        return Fraction(1)
    for seq in (C, D, E):
        _window_bounds(seq)
    total = Fraction(0)
    for spec in kernel_specs(k, l):
        if ((spec.n_c and C.support() is None)
                or (spec.n_d and D.support() is None)
                or (spec.n_e and E.support() is None)):
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


def tau3_e0_det(k: int, l: int, alpha: int, beta: int,
                C: MomentSequence, D: MomentSequence):
    """Closed form when E = 0: zero for k < l, else the signed k x k
    block-Hankel determinant (block_hankel_rows) times (-1)^{l(l+1)/2}.
    With l = 0 and C = D it is the one-family Hankel tau.
    """
    if k < 0 or l < 0 or k < l:
        return C.ring_zero()
    if k == 0:
        return C.ring_one()
    val = det(block_hankel_rows(k, k, l, alpha, beta, C, D))
    return -val if l * (l + 1) // 2 % 2 else val


class TauTable:
    """Memo of tau values keyed by index tuple. Each entry is computed once,
    as fn(*key, *args, **kwargs), and read back by get(*key) or by calling
    the table, so a table goes wherever a tau callable is expected."""

    __slots__ = ("fn", "args", "kwargs", "values")

    def __init__(self, fn, *args, **kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self.values: dict[tuple, object] = {}

    def get(self, *key):
        if key not in self.values:
            self.values[key] = self.fn(*key, *self.args, **self.kwargs)
        return self.values[key]

    __call__ = get


def _e_is_zero(E: MomentSequence | None) -> bool:
    if E is None:
        return True
    return E.is_finite and E.support() is None


def tau3_value(k: int, l: int, alpha: int, beta: int,
               C: MomentSequence, D: MomentSequence, E: MomentSequence | None,
               max_work: int = SUMMAND_WORK_BOUND) -> Fraction:
    """Tau with boundary conventions, choosing the cheapest exact engine:
    the block-Hankel closed form when E = 0, the residue formula otherwise.
    """
    if k < 0 or l < 0:
        return Fraction(0)
    if _e_is_zero(E):
        return tau3_e0_det(k, l, alpha, beta, C, D)
    return tau3_residue(k, l, alpha, beta, C, D, E, max_work=max_work)


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
                         beta_range: tuple[int, int],
                         max_work: int | None = None) -> VerificationReport:
    """Check all four relations on every in-range instance, exactly.

    Out-of-range tau values follow the k < 0 / l < 0 -> 0 convention, so
    the relations can be checked at the edges. No instance is skipped:
    the relations have no denominators. The relations reach one step past
    the ranges, so the summand work bound defaults to (k_max+1)+(l_max+1)
    rather than the direct-call default.
    """
    if max_work is None:
        max_work = k_max + l_max + 2
    report = VerificationReport("gl3-relations")
    tau = TauTable(tau3_value, C, D, E, max_work=max_work)
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
