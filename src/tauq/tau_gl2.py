"""Single-family tau-functions: Hankel determinants, condensation
filling, and the bilinear recurrence check
tau_k^(a) tau_{k-2}^(a+2) = tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2.

Verifiers read tau from one memoized table per call (``tau_table``),
which computes each entry once through this module's ``tau_det``.

Conventions: tau_k = 0 for k < 0 and tau_0 = 1, in the ring matching the
moment source (Fraction numerically, MomentPoly for formal sequences).
"""
from __future__ import annotations

from .errors import DegenerateTauError
from .moments import MomentSequence
from .report import VerificationReport
from .tau_gl3 import TauTable, tau3_e0_det


def tau_det(k: int, alpha: int, m: MomentSequence):
    """tau_k^(alpha) as the k x k Hankel determinant det[c_{alpha+i+j}]:
    the block-Hankel tau with no d-columns."""
    return tau3_e0_det(k, 0, alpha, 0, m, m)


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
