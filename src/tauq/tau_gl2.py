"""Single-family tau-functions: Hankel determinants, numeric tau tables by
condensation, and the bilinear recurrence check
tau_k^(a) tau_{k-2}^(a+2) = tau_{k-1}^(a+2) tau_{k-1}^(a) - (tau_{k-1}^(a+1))^2.

``qsystem_sides`` writes the relation once; ``tau_det`` is one Hankel
determinant, a read of its alpha's column at exactly order k. The
relation's verifiers read tau from one memoized table per call
(``tau_table``), never from the relation they check. A table takes an
alpha's tau_1..tau_K from ``leading_blocks``, the leading minors of one
run: for numeric moments one elimination that swaps rows past a zero
pivot, O(K^3) where one determinant per entry costs O(K^4); for formal
ones a single Laplace run, the cost of tau_K alone.

``condensation_table`` runs that relation as an algorithm (Dodgson's
condensation, the Desnanot-Jacobi identity the Q-system is proved by) for
numeric tables: tau_K costs O(K^2) big-int operations instead of one
O(K^3) elimination per entry. It works on integers. The alpha range is cut
into tiles of about K alphas; each tile reads its moments once and scales
them by the lcm L of their denominators, so row k of the triangle holds
L^k tau_k and every division is exact. A zero divisor makes its entry
unknown, and every entry above that depends on it is unknown too; the
requested unknown entries are read from one ``tau_table``, one column run
per alpha that has any.

Conventions: tau_k = 0 for k < 0 and tau_0 = 1, in the ring matching the
moment source (Fraction numerically, MomentPoly for formal sequences).
"""
from __future__ import annotations

from fractions import Fraction

from .moments import MomentSequence
from .report import VerificationReport
from .rings import _integer_rows
from .tau_gl3 import TauTable, read_line, tau3_e0_det


def tau_det(k: int, alpha: int, m: MomentSequence):
    """tau_k^(alpha) as the k x k Hankel determinant det[c_{alpha+i+j}]:
    the block-Hankel tau with no d-columns."""
    return tau3_e0_det(k, 0, alpha, 0, m, m)


def tau_table(m: MomentSequence, orders) -> TauTable:
    """A memo of tau_k^(alpha) over m, given orders(alpha), the lowest and
    highest k its caller reads at alpha: each alpha's taus come from one
    leading_blocks run, by the fill rule of ``read_line``."""
    return TauTable(lambda k, a: {
        (j, a): v for (j, *_), v in
        read_line((k, 0, a, 0), orders(a), 0, m, m).items()})


def qsystem_sides(k: int, alpha: int, tau):
    """(lhs, rhs) of the bilinear relation: ``relation_sides`` for GL2."""
    return (tau(k, alpha) * tau(k - 2, alpha + 2),
            tau(k - 1, alpha + 2) * tau(k - 1, alpha) - tau(k - 1, alpha + 1) ** 2)


def condensation_table(m: MomentSequence, k_range: tuple[int, int],
                       alpha_range: tuple[int, int]) -> dict:
    """tau_k^(alpha) for every k and alpha of the two inclusive ranges, as
    a dict keyed (k, alpha), by integer condensation over tiles of about
    k_max alphas (see the module docstring). A zero divisor does not abort
    it: a requested entry that depends on one is read from its alpha's
    column over k_range, and no other determinant is taken."""
    (k_lo, k_hi), (a_lo, a_hi) = k_range, alpha_range
    if k_hi < k_lo or a_hi < a_lo:
        raise ValueError("empty k or alpha range")
    if m.is_formal:
        raise ValueError("condensation divides; use a numeric moment source")
    table = {}
    width = max(k_hi, 1)
    for t_lo in range(a_lo, a_hi + 1, width):
        _condense_tile(m, k_range, range(t_lo, min(t_lo + width, a_hi + 1)),
                       table)
    tau = tau_table(m, lambda a: k_range)
    for key in [key for key, v in table.items() if v is None]:
        table[key] = tau(*key)
    return table


def _condense_tile(m: MomentSequence, k_range: tuple[int, int],
                   alphas: range, table: dict) -> None:
    """Fill table[k, a] for a in alphas, None where unknown, from one
    condensation triangle on the tile's moments times their lcm L. Row k
    of the triangle starts at alphas[0], is 2(k_max - k) entries longer
    than the tile, and holds L^k tau_k."""
    k_lo, k_hi = k_range
    for k in range(k_lo, min(k_hi, 0) + 1):
        for alpha in alphas:
            table[k, alpha] = Fraction(int(k == 0))
    if k_hi < 1:
        return
    (row,), (scale,) = _integer_rows(
        [[m.get(i) for i in range(alphas[0], alphas[-1] + 2 * k_hi - 1)]])
    prev, power = [1] * (len(row) + 2), scale  # rows 0 and 1
    for k in range(1, k_hi + 1):
        if k > 1:
            # d = 0 is a zero divisor, d = None an unknown one
            prev, row = row, [(x * z - y * y) // d if d and None not in (x, y, z)
                              else None for x, y, z, d in
                              zip(row, row[1:], row[2:], prev[2:])]
            power *= scale
        if k >= k_lo:
            for alpha, v in zip(alphas, row):
                table[k, alpha] = None if v is None else Fraction(v, power)


def qsystem_residual(k: int, alpha: int, tau):
    """R(k, alpha): the bilinear relation rearranged to one side."""
    lhs, rhs = qsystem_sides(k, alpha, tau)
    return lhs - rhs


def verify_qsystem(m: MomentSequence, k_max: int,
                   alpha_range: tuple[int, int]) -> VerificationReport:
    """Check the bilinear recurrence at every (k, alpha) in range.

    Works identically for numeric and formal sources; formal sources make
    the check a polynomial identity (exact cancellation). There is nothing
    to skip: the relation has no denominators.
    """
    a_lo, a_hi = alpha_range
    report = VerificationReport("qsystem")
    # tau_k at alpha in range, tau_{k-1} and tau_{k-2} up to alpha + 2
    tau = tau_table(m, lambda a: (-2, k_max - (a > a_hi)))
    for k in range(0, k_max + 1):
        for alpha in range(a_lo, a_hi + 1):
            lhs, rhs = qsystem_sides(k, alpha, tau)
            report.add_check({"k": k, "alpha": alpha}, lhs, rhs)
    return report
