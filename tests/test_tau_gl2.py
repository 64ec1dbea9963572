import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import tauq.factorization
import tauq.tau_gl2
import tauq.tau_gl3
from tauq import (
    MomentPoly,
    MomentSequence,
    ResourceBoundError,
    TauTable,
    condensation_table,
    induction_replay,
    qsystem_residual,
    tau_det,
    verify_orthogonality,
    verify_qsystem,
    verify_zero_curvature,
)
from tauq.tau_gl2 import tau_table

from reference import (forced_zero_window, seeded_window, tau3_by_det,
                       tau_det_table, tau_residue)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_boundary_conventions(catalan, formal_c):
    assert tau_det(-1, 0, catalan) == 0
    assert tau_det(0, 5, catalan) == 1
    assert tau_det(-2, 0, formal_c) == MomentPoly.zero()
    assert tau_det(0, 0, formal_c) == MomentPoly.one()


def test_tau_det_is_hankel(catalan):
    assert tau_det(1, 3, catalan) == 5
    assert tau_det(2, 0, catalan) == Fraction(1 * 2 - 1 * 1)


def test_tau_det_formal_string(formal_c):
    assert str(tau_det(2, 0, formal_c)) == "c_0*c_2 - c_1^2"


def test_hermite_taus(hermite):
    assert [tau_det(k, 0, hermite) for k in range(6)] == [
        1, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 16), Fraction(9, 32)]


def test_catalan_negative_offset(catalan):
    assert [tau_det(k, -1, catalan) for k in range(6)] == [1, 0, -1, -2, -3, -4]


def test_residue_matches_det_formal(formal_c):
    for k in range(4):
        for a in (-1, 0, 2):
            assert tau_residue(k, a, formal_c) == tau_det(k, a, formal_c)


@settings(max_examples=25)
@given(st.lists(fracs, min_size=7, max_size=9), st.integers(-1, 1))
def test_residue_matches_det_windows(values, alpha):
    m = MomentSequence.window(-1, values)
    for k in range(4):
        assert tau_residue(k, alpha, m) == tau_det(k, alpha, m)


def test_residue_bound(catalan):
    with pytest.raises(ResourceBoundError):
        tau_residue(6, 0, catalan)
    assert tau_residue(6, 0, catalan, max_k=6) == 1
    with pytest.raises(ValueError):
        tau_residue(-1, 0, catalan)


def test_grid_get_set(tau_det_calls, catalan):
    # a miss stores its key's whole column over the table's range; a key
    # past the range refills its column at the larger range; no key takes
    # a determinant of its own
    grid = tau_table(catalan, lambda a: (-1, 3))
    assert isinstance(grid, TauTable)
    assert grid.get(-1, 0) == 0
    assert grid(0, 7) == 1
    assert grid.get(3, 2) == tau3_by_det(3, 0, 2, 0, catalan, catalan)
    grid.values[2, 1] = Fraction(9)
    assert grid.get(2, 1) == 9
    assert set(grid.values) == {(k, a) for k in range(-1, 4)
                                for a in (0, 7, 2)} | {(2, 1)}
    assert grid(5, 2) == tau3_by_det(5, 0, 2, 0, catalan, catalan)
    assert {k for k, a in grid.values if a == 2} == set(range(-1, 6))
    assert not tau_det_calls


def test_fill_grid_matches_det(catalan):
    assert condensation_table(catalan, (0, 5), (0, 2)) == \
        tau_det_table(catalan, (0, 5), (0, 2))


def test_fill_grid_hermite_degeneracy(hermite):
    # tau_1^(1) = c_1 = 0 divides tau_3^(-1); the table falls back to the
    # determinant there instead of aborting
    table = condensation_table(hermite, (0, 4), (-1, 0))
    assert [table[k, 0] for k in range(5)] == [
        1, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 16)]
    assert table[3, -1] == 0
    assert table == tau_det_table(hermite, (0, 4), (-1, 0))


def test_fill_grid_zero_sequence():
    table = condensation_table(MomentSequence.zero(), (-1, 4), (-2, 2))
    assert table == {(k, a): Fraction(int(k == 0))
                     for k in range(-1, 5) for a in range(-2, 3)}


def test_fill_grid_rejects_formal_and_empty_range(formal_c, catalan):
    with pytest.raises(ValueError):
        condensation_table(formal_c, (0, 2), (0, 0))
    with pytest.raises(ValueError):
        condensation_table(catalan, (0, 2), (1, 0))
    with pytest.raises(ValueError):
        condensation_table(catalan, (2, 1), (0, 0))


@pytest.mark.parametrize("zeros", [0.0, 0.5], ids=["dense", "zero-heavy"])
@pytest.mark.parametrize("seed", range(20))
def test_condensation_table_random_windows(seed, zeros):
    # the window may start before or after alpha_lo (lo up to 3 either
    # side, sometimes negative) and end past the cone the table reads or
    # up to 8 moments inside it
    rng = random.Random(seed)
    k_lo = rng.randint(-2, 3)
    k_hi = k_lo + rng.randint(0, 7)
    a_lo = rng.randint(-5, 4)
    a_hi = a_lo + rng.randint(0, 12)
    lo = a_lo + rng.randint(-3, 3)
    hi = max(lo, a_hi + 2 * k_hi - 2 + rng.randint(-8, 2))
    m = seeded_window(rng, lo, hi, zeros=zeros)
    assert condensation_table(m, (k_lo, k_hi), (a_lo, a_hi)) == \
        tau_det_table(m, (k_lo, k_hi), (a_lo, a_hi))


@pytest.mark.parametrize("k", range(1, 9))
def test_condensation_table_forced_zero_minor(k):
    # tau_k^(2) = 0 divides tau_{k+2}^(0), and every entry above that
    # reads tau_{k+2}^(0) is unknown too
    m = forced_zero_window(random.Random(k), k, 2)
    assert condensation_table(m, (0, k + 4), (-3, 4)) == \
        tau_det_table(m, (0, k + 4), (-3, 4))


def test_condensation_table_hermite_odd_alpha(hermite):
    # every odd moment is zero, and so is the divisor tau_1^(a + 2) of
    # tau_3^(a) at odd a: those entries and every entry from k = 4 up
    # come from the determinant
    for alphas in ((1, 1), (-3, 5), (7, 9)):
        assert condensation_table(hermite, (-1, 9), alphas) == \
            tau_det_table(hermite, (-1, 9), alphas)


def test_condensation_table_large_denominators():
    # pairwise-distinct 20-digit denominators and a wide alpha range. The
    # lcm of all 315 moments has about 6,300 digits, and one triangle
    # scaled by it takes tens of seconds; each tile of about k_max alphas
    # scales by the lcm of its own 23 moments or so
    rng = random.Random(20)
    dens = set()
    while len(dens) < 315:
        dens.add(rng.randrange(10 ** 19, 10 ** 20))
    m = MomentSequence.window(-2, [Fraction(rng.randint(-999, 999), d)
                                   for d in sorted(dens)])
    start = time.process_time()
    table = condensation_table(m, (6, 8), (-4, 300))
    assert time.process_time() - start < 5.0
    assert table == tau_det_table(m, (6, 8), (-4, 300))


def test_qsystem_residual_zero_on_data(catalan, hermite):
    for m in (catalan, hermite):
        for k in range(6):
            for a in (-2, 0, 1):
                assert qsystem_residual(k, a, lambda kk, aa: tau_det(kk, aa, m)) == 0


def test_verify_qsystem_counts(catalan):
    r = verify_qsystem(catalan, 4, (0, 2))
    assert (r.total, r.passes, r.failures) == (15, 15, 0)
    assert r.ok
    d = r.to_dict()
    assert d["summary"] == {"total": 15, "pass": 15, "skipped": 0}
    assert {"k", "alpha"} <= set(d["checks"][0]["instance"])


def test_verify_qsystem_symbolic(formal_c):
    r = verify_qsystem(formal_c, 3, (-1, 1))
    assert r.failures == 0 and r.total == 4 * 3


def test_verify_qsystem_detects_violation():
    # a sequence is free; a wrong tau table is not. Feed a corrupted table
    # through the residual to confirm the check is not vacuous.
    broken = lambda k, a: Fraction(k + a + 2)
    assert qsystem_residual(2, 0, broken) != 0


@pytest.fixture
def tau_det_calls(monkeypatch):
    """Counts tau_det calls per (k, alpha) made through tau_gl2's binding:
    the per-entry route, which no tau table takes."""
    calls = Counter()
    real = tauq.tau_gl2.tau_det

    def counting(k, alpha, m):
        calls[k, alpha] += 1
        return real(k, alpha, m)

    monkeypatch.setattr(tauq.tau_gl2, "tau_det", counting)
    return calls


VERIFIERS = pytest.mark.parametrize("verify", [
    lambda m: verify_qsystem(m, 5, (-1, 2)),
    lambda m: verify_zero_curvature(m, (0, 3), (-1, 1)),
    lambda m: induction_replay(m, 5, (-1, 2)),
], ids=["qsystem", "zero-curvature", "induction-replay"])


def _past_zero_minor(monkeypatch, verify, m) -> set:
    """The (k, alpha) a verifier reads that lie past a zero tau_j^(alpha),
    1 <= j < k, in their column: the entries a run that stops at a zero
    pivot would leave out. The reads go to a memo of ``tau3_by_det`` put
    in place of the verifier's table."""
    reads = {}

    def tau(k, a):
        if (k, a) not in reads:
            reads[k, a] = tau3_by_det(k, 0, a, 0, m, m)
        return reads[k, a]

    with monkeypatch.context() as patch:
        for module in (tauq.tau_gl2, tauq.factorization):
            patch.setattr(module, "tau_table", lambda m, orders: tau)
        verify(m)
    return {(k, a) for k, a in list(reads)
            if any(not tau(j, a) for j in range(1, k))}


@VERIFIERS
@pytest.mark.parametrize("source", ["catalan", "hermite"])
def test_verifier_computes_each_tau_once(tau_det_calls, monkeypatch, request,
                                         source, verify):
    # every tau it reads, past a zero minor too, comes from its alpha's
    # column: none is a determinant of its own
    m = request.getfixturevalue(source)
    past = _past_zero_minor(monkeypatch, verify, m)
    report = verify(m)
    assert report.total and past
    assert not tau_det_calls


@VERIFIERS
@pytest.mark.parametrize("case", ["neg-lo", "zero-heavy", "forced-zero"])
def test_verifier_determinants_only_past_zero_minor(tau_det_calls,
                                                    monkeypatch, case, verify):
    # those taus too come from the one elimination per alpha
    rng = random.Random(case)
    m = {"neg-lo": seeded_window(rng, -3, 12, num=9, den=5),
         "zero-heavy": seeded_window(rng, -2, 14, num=5, den=3, zeros=0.5),
         "forced-zero": forced_zero_window(rng, 3, 0)}[case]
    past = _past_zero_minor(monkeypatch, verify, m)
    assert verify(m).total
    assert past or case == "neg-lo"
    assert not tau_det_calls


@pytest.mark.parametrize("source", ["catalan", "hermite"])
def test_orthogonality_takes_no_tau_determinant(tau_det_calls, monkeypatch,
                                                request, source):
    # every tau it claims is the leading coefficient of a bordered
    # polynomial it has already built for p_k
    tau3_calls = Counter()
    real = tauq.tau_gl3.tau3_det

    def counting(*args):
        tau3_calls[args[:4]] += 1
        return real(*args)

    monkeypatch.setattr(tauq.tau_gl3, "tau3_det", counting)
    report = verify_orthogonality(request.getfixturevalue(source), 0, 5)
    assert (report.total, report.failures) == (15 + 6, 0)
    assert not tau_det_calls and not tau3_calls


def test_fill_grid_determinants_only_below_row_two(tau_det_calls, catalan):
    # every catalan tau at alpha >= 0 is positive: no divisor is zero, so
    # the table takes no determinant at all, in any row
    table = condensation_table(catalan, (-1, 12), (0, 20))
    assert not tau_det_calls
    assert table == tau_det_table(catalan, (-1, 12), (0, 20))


def _unknown(m, k_range, alpha_range) -> set:
    """The requested entries whose condensation divides by a zero tau,
    directly or through an entry it reads, found from determinants."""
    @cache
    def unknown(k, a):
        return k >= 2 and (not tau_det(k - 2, a + 2, m)
                           or unknown(k - 2, a + 2)
                           or any(unknown(k - 1, a + s) for s in range(3)))
    return {key for key in tau_det_table(m, k_range, alpha_range)
            if unknown(*key)}


@pytest.mark.parametrize("case", ["hermite-odd", "zero-window", "forced-zero",
                                  "window-ends-in-cone"])
def test_condensation_table_determinants_only_for_unknown(tau_det_calls,
                                                          monkeypatch,
                                                          hermite, case):
    rng = random.Random(case)
    k_range, alpha_range = (0, 9), (-2, 6)
    m = {"hermite-odd": hermite,
         "zero-window": MomentSequence.zero(),
         "forced-zero": forced_zero_window(rng, 3, 1),
         "window-ends-in-cone": seeded_window(rng, -1, 14)}[case]
    expected = _unknown(m, k_range, alpha_range)
    # the unknown entries come from one column run per alpha that has one
    columns = Counter()
    real = tauq.tau_gl3.leading_blocks

    def counting(k_range, l, alpha, *args, **kwargs):
        columns[alpha] += 1
        return real(k_range, l, alpha, *args, **kwargs)

    monkeypatch.setattr(tauq.tau_gl3, "leading_blocks", counting)
    table = condensation_table(m, k_range, alpha_range)
    assert expected
    assert not tau_det_calls
    assert dict(columns) == dict.fromkeys({a for _, a in expected}, 1)
    assert table == tau_det_table(m, k_range, alpha_range)
