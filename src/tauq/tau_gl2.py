"""Single-family tau-functions: Hankel determinants, the symmetrized
residue formula, condensation filling, and the bilinear recurrence
check tau_k^(a) tau_{k-2}^(a+2) = tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2.

Verifiers read tau from one memoized table per call (``tau_table``),
which computes each entry once through this module's ``tau_det``.

Conventions: tau_k = 0 for k < 0 and tau_0 = 1, in the ring matching the
moment source (Fraction numerically, MomentPoly for formal sequences).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DegenerateTauError, ResourceBoundError
from .moments import MomentSequence
from .report import VerificationReport
from .tau_gl3 import TauTable, tau3_e0_det

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


def tau_table(m: MomentSequence) -> TauTable:
    """A memo of tau_k^(alpha) over m: each entry is one tau_det call,
    made on its first read."""
    return TauTable(tau_det, m)


def condensation_numerator(k: int, alpha: int, tau):
    """tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2: the right-hand
    side of the bilinear relation. tau is a callable (k, alpha) -> value
    honoring the boundary conventions."""
    return (tau(k - 1, alpha + 2) * tau(k - 1, alpha)
            - tau(k - 1, alpha + 1) ** 2)


def fill_grid_recurrence(m: MomentSequence, k_max: int,
                         alpha_range: tuple[int, int]) -> TauTable:
    """Fill a tau table from rows k = 0, 1 upward via the condensation
    recurrence tau_k = condensation_numerator / tau_{k-2}^(a+2).

    Row k over the requested alphas needs row k-1 two shifts wider, so
    intermediate rows are filled over widening ranges; rows 0 and 1 come
    from tau_det as they are read. A zero denominator aborts with the
    offending (k, alpha): a silent hole would poison downstream identity
    checks.
    """
    a_lo, a_hi = alpha_range
    if a_hi < a_lo:
        raise ValueError("empty alpha range")
    if m.is_formal:
        raise ValueError("grid filling divides; use a numeric moment source")
    grid = tau_table(m)
    for k in range(2, k_max + 1):
        for alpha in range(a_lo, a_hi + 2 * (k_max - k) + 1):
            den = grid.get(k - 2, alpha + 2)
            if not den:
                raise DegenerateTauError(
                    "condensation denominator tau_{k-2}^(alpha+2) is zero",
                    k=k, alpha=alpha)
            grid.values[k, alpha] = condensation_numerator(k, alpha, grid) / den
    return grid


def qsystem_residual(k: int, alpha: int, tau):
    """R(k, alpha): the bilinear relation rearranged to one side."""
    return (tau(k, alpha) * tau(k - 2, alpha + 2)
            - condensation_numerator(k, alpha, tau))


def verify_qsystem(m: MomentSequence, k_max: int,
                   alpha_range: tuple[int, int]) -> VerificationReport:
    """Check the bilinear recurrence at every (k, alpha) in range.

    Works identically for numeric and formal sources; formal sources make
    the check a polynomial identity (exact cancellation). There is nothing
    to skip: the relation has no denominators.
    """
    a_lo, a_hi = alpha_range
    report = VerificationReport("qsystem")
    tau = tau_table(m)
    for k in range(0, k_max + 1):
        for alpha in range(a_lo, a_hi + 1):
            lhs = tau(k, alpha) * tau(k - 2, alpha + 2)
            rhs = condensation_numerator(k, alpha, tau)
            report.add_check({"k": k, "alpha": alpha}, lhs == rhs, lhs, rhs)
    return report
