from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tauq.tau_gl2
from tauq import (
    DegenerateTauError,
    MomentPoly,
    MomentSequence,
    ResourceBoundError,
    TauTable,
    fill_grid_recurrence,
    induction_replay,
    qsystem_residual,
    tau_det,
    verify_orthogonality,
    verify_qsystem,
    verify_zero_curvature,
)

from reference import tau_residue

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


def test_grid_get_set(catalan):
    grid = TauTable(tau_det, catalan)
    assert grid.get(-1, 0) == 0
    assert grid(0, 7) == 1
    assert grid.get(3, 2) == tau_det(3, 2, catalan)
    grid.values[2, 1] = Fraction(9)
    assert grid.get(2, 1) == 9
    assert set(grid.values) == {(-1, 0), (0, 7), (3, 2), (2, 1)}


def test_fill_grid_matches_det(catalan):
    grid = fill_grid_recurrence(catalan, 5, (0, 2))
    for k in range(6):
        for a in range(3):
            assert grid.get(k, a) == tau_det(k, a, catalan)


def test_fill_grid_hermite_degeneracy(hermite):
    grid = fill_grid_recurrence(hermite, 3, (0, 0))
    assert [grid.get(k, 0) for k in range(4)] == [1, 1, Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(DegenerateTauError) as exc:
        fill_grid_recurrence(hermite, 4, (0, 0))
    assert exc.value.indices == {"k": 3, "alpha": 1}


def test_fill_grid_zero_sequence():
    with pytest.raises(DegenerateTauError) as exc:
        fill_grid_recurrence(MomentSequence.zero(), 3, (0, 0))
    assert exc.value.indices == {"k": 3, "alpha": 0}


def test_fill_grid_rejects_formal_and_empty_range(formal_c, catalan):
    with pytest.raises(ValueError):
        fill_grid_recurrence(formal_c, 2, (0, 0))
    with pytest.raises(ValueError):
        fill_grid_recurrence(catalan, 2, (1, 0))


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
    """Counts tau_det calls per (k, alpha) made through tau_gl2's binding,
    which every tau table reads."""
    calls = Counter()
    real = tauq.tau_gl2.tau_det

    def counting(k, alpha, m):
        calls[k, alpha] += 1
        return real(k, alpha, m)

    monkeypatch.setattr(tauq.tau_gl2, "tau_det", counting)
    return calls


@pytest.mark.parametrize("verify", [
    lambda m: verify_qsystem(m, 5, (-1, 2)),
    lambda m: verify_zero_curvature(m, (0, 3), (-1, 1)),
    lambda m: verify_orthogonality(m, 0, 5),
    lambda m: induction_replay(m, 5, (-1, 2)),
], ids=["qsystem", "zero-curvature", "orthogonality", "induction-replay"])
@pytest.mark.parametrize("source", ["catalan", "hermite"])
def test_verifier_computes_each_tau_once(tau_det_calls, request, source, verify):
    report = verify(request.getfixturevalue(source))
    assert report.total and tau_det_calls
    assert max(tau_det_calls.values()) == 1


def test_fill_grid_determinants_only_below_row_two(tau_det_calls, catalan):
    grid = fill_grid_recurrence(catalan, 6, (-1, 2))
    values = {(k, a): grid.get(k, a) for k in range(7) for a in range(-1, 3)}
    assert tau_det_calls
    assert max(k for k, _ in tau_det_calls) <= 1
    assert values == {key: tau_det(*key, catalan) for key in values}
