"""Single-family tau-functions: Hankel determinants, the symmetrized
residue formula, condensation grid filling, and the bilinear recurrence
check tau_k^(a) tau_{k-2}^(a+2) = tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2.

Conventions: tau_k = 0 for k < 0 and tau_0 = 1, in the ring matching the
moment source (Fraction numerically, MomentPoly for formal sequences).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import DegenerateTauError, ResourceBoundError
from .moments import MomentSequence
from .report import VerificationReport
from .tau_gl3 import tau3_e0_det

RESIDUE_K_BOUND = 5


def tau_det(k: int, alpha: int, m: MomentSequence):
    """tau_k^(alpha) as the k x k Hankel determinant det[c_{alpha+i+j}]:
    the block-Hankel tau with no d-columns."""
    return tau3_e0_det(k, 0, alpha, 0, m, m)


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


@dataclass
class TauGridGL2:
    """Table of tau values keyed by (k, alpha), with boundary conventions."""

    source: MomentSequence
    entries: dict[tuple[int, int], object] = field(default_factory=dict)

    def get(self, k: int, alpha: int):
        if k < 0:
            return self.source.ring_zero()
        if k == 0:
            return self.source.ring_one()
        return self.entries[(k, alpha)]

    def set(self, k: int, alpha: int, value) -> None:
        self.entries[(k, alpha)] = value


def fill_grid_recurrence(m: MomentSequence, k_max: int,
                         alpha_range: tuple[int, int]) -> TauGridGL2:
    """Fill a tau grid from rows k = 0, 1 upward via the condensation
    recurrence tau_k = (tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2)
    / tau_{k-2}^(a+2).

    Row k over the requested alphas needs row k-1 two shifts wider, so
    intermediate rows are filled over widening ranges. A zero denominator
    aborts with the offending (k, alpha): a silent hole would poison
    downstream identity checks.
    """
    a_lo, a_hi = alpha_range
    if a_hi < a_lo:
        raise ValueError("empty alpha range")
    if m.is_formal:
        raise ValueError("grid filling divides; use a numeric moment source")
    grid = TauGridGL2(m)
    for alpha in range(a_lo, a_hi + 2 * k_max + 1):
        grid.set(1, alpha, tau_det(1, alpha, m))
    for k in range(2, k_max + 1):
        for alpha in range(a_lo, a_hi + 2 * (k_max - k) + 1):
            den = grid.get(k - 2, alpha + 2)
            if not den:
                raise DegenerateTauError(
                    "condensation denominator tau_{k-2}^(alpha+2) is zero",
                    k=k, alpha=alpha)
            num = (grid.get(k - 1, alpha + 2) * grid.get(k - 1, alpha)
                   - grid.get(k - 1, alpha + 1) ** 2)
            grid.set(k, alpha, num / den)
    return grid


def qsystem_residual(k: int, alpha: int, tau):
    """R(k, alpha): the bilinear relation rearranged to one side.

    tau is a callable (k, alpha) -> value honoring the boundary conventions.
    """
    return (tau(k, alpha) * tau(k - 2, alpha + 2)
            - tau(k - 1, alpha + 2) * tau(k - 1, alpha)
            + tau(k - 1, alpha + 1) ** 2)


def verify_qsystem(m: MomentSequence, k_max: int,
                   alpha_range: tuple[int, int]) -> VerificationReport:
    """Check the bilinear recurrence at every (k, alpha) in range.

    Works identically for numeric and formal sources; formal sources make
    the check a polynomial identity (exact cancellation). There is nothing
    to skip: the relation has no denominators.
    """
    a_lo, a_hi = alpha_range
    report = VerificationReport("qsystem")
    cache: dict[tuple[int, int], object] = {}

    def tau(k: int, alpha: int):
        key = (k, alpha)
        if key not in cache:
            cache[key] = tau_det(k, alpha, m)
        return cache[key]

    for k in range(0, k_max + 1):
        for alpha in range(a_lo, a_hi + 1):
            lhs = tau(k, alpha) * tau(k - 2, alpha + 2)
            rhs = (tau(k - 1, alpha + 2) * tau(k - 1, alpha)
                   - tau(k - 1, alpha + 1) ** 2)
            report.add_check({"k": k, "alpha": alpha}, lhs == rhs, lhs, rhs)
    return report
