from fractions import Fraction

import pytest

from tauq import (
    KernelSpec,
    MomentSequence,
    ResourceBoundError,
    SupportError,
    TauTable,
    kernel_specs,
    tau3_e0_det,
    tau3_residue,
    tau3_value,
    verify_gl3_relations,
)
from tauq.tau_gl3 import relation_sides

ZERO = MomentSequence.zero()


@pytest.fixture(scope="module")
def rand_pair(rand_window):
    return rand_window(101, -2, 9), rand_window(201, -2, 9)


def test_kernel_specs_enumeration():
    assert kernel_specs(1, 1) == [KernelSpec(1, 0, 1), KernelSpec(0, 1, 0)]
    specs = kernel_specs(2, 2)
    assert [(s.n_c, s.n_d, s.n_e) for s in specs] == [(2, 0, 2), (1, 1, 1), (0, 2, 0)]
    assert [s.sign for s in specs] == [1, -1, -1]
    assert [s.weight for s in specs] == [Fraction(1, 4), 1, Fraction(1, 2)]
    assert [s.work for s in specs] == [4, 3, 2]
    # sign period: (-1)^(n_d(n_d+1)/2)
    assert [KernelSpec(0, n, 0).sign for n in range(5)] == [1, -1, -1, 1, 1]


def test_boundary_conventions(catalan_window, linear_window):
    assert tau3_residue(-1, 0, 0, 0, catalan_window, linear_window, ZERO) == 0
    assert tau3_residue(0, -2, 0, 0, catalan_window, linear_window, ZERO) == 0
    assert tau3_residue(0, 0, 3, -1, catalan_window, linear_window, ZERO) == 1
    assert tau3_e0_det(0, 0, 0, 0, catalan_window, linear_window) == 1
    # with e = 0 the tau vanishes identically below the diagonal
    for k in range(3):
        for l in range(k + 1, 4):
            assert tau3_e0_det(k, l, 0, 0, catalan_window, linear_window) == 0
            assert tau3_residue(k, l, 0, 0, catalan_window, linear_window, ZERO) == 0


def test_worked_residue_instance():
    C = MomentSequence.window(-1, [Fraction(3)])
    D = MomentSequence.window(0, [Fraction(1)])
    E = MomentSequence.window(0, [Fraction(2)])
    assert tau3_residue(1, 1, 0, 0, C, D, E) == 5


def test_e0_det_formal(formal_c, formal_d):
    assert str(tau3_e0_det(2, 1, 0, 0, formal_c, formal_d)) == "c_0*d_1 - c_1*d_0"
    assert str(tau3_e0_det(1, 1, 0, 0, formal_c, formal_d)) == "-d_0"


def test_e0_det_reduces_to_hankel(formal_c, formal_d, catalan, linear_window):
    # l = 0 is the one-family Hankel determinant
    from tauq import tau_det
    assert tau3_e0_det(3, 0, 1, 0, formal_c, formal_d) == tau_det(3, 1, formal_c)
    for k in range(5):
        assert tau3_e0_det(k, 0, 0, 0, catalan, linear_window) == tau_det(k, 0, catalan)


def test_residue_matches_e0_det(rand_pair):
    C, D = rand_pair
    for k in range(4):
        for l in range(k + 1):
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    assert tau3_residue(k, l, a, b, C, D, ZERO) == \
                        tau3_e0_det(k, l, a, b, C, D)


def test_residue_requires_finite_support(catalan, linear_window):
    with pytest.raises(SupportError):
        tau3_residue(1, 0, 0, 0, catalan, linear_window, ZERO)


def test_residue_work_bound(rand_window):
    C = rand_window(42, -2, 4, 6, 4)
    D = rand_window(43, -2, 4, 6, 4)
    E = rand_window(44, -1, 2, 6, 4)
    with pytest.raises(ResourceBoundError) as exc:
        tau3_residue(2, 2, 0, 0, C, D, E, max_work=3)
    assert "work bound 3" in str(exc.value)
    # the same instance inside the default bound
    tau3_residue(2, 2, 0, 0, C, D, E)


def test_zero_family_short_circuits_bound(rand_pair):
    # E = 0 kills every summand with n_e > 0 before the bound applies,
    # so k = l = 3 stays inside the default even though n_c + n_e = 6
    C, D = rand_pair
    assert tau3_residue(3, 3, 0, 0, C, D, ZERO) == tau3_e0_det(3, 3, 0, 0, C, D)


def test_tau3_value_dispatch(rand_pair, rand_window):
    C, D = rand_pair
    assert tau3_value(2, 1, 0, 0, C, D, None) == tau3_e0_det(2, 1, 0, 0, C, D)
    assert tau3_value(2, 1, 0, 0, C, D, ZERO) == tau3_e0_det(2, 1, 0, 0, C, D)
    E = rand_window(44, -1, 2, 6, 4)
    assert tau3_value(1, 1, 0, 0, C, D, E) == tau3_residue(1, 1, 0, 0, C, D, E)
    assert tau3_value(-1, 0, 0, 0, C, D, E) == 0


def test_grid_boundaries(catalan_window, linear_window):
    grid = TauTable(tau3_value, catalan_window, linear_window, ZERO, max_work=2)
    assert grid.get(-1, 0, 0, 0) == 0
    assert grid.get(0, 0, 5, 5) == 1
    assert grid.get(2, 1, 0, 0) == \
        tau3_e0_det(2, 1, 0, 0, catalan_window, linear_window)
    grid.values[1, 0, 0, 0] = Fraction(7)
    assert grid.get(1, 0, 0, 0) == 7


def test_relation_sides_balance(catalan, linear_window):
    def t(k, l, a, b):
        return tau3_value(k, l, a, b, catalan, linear_window, None)
    for rel in (1, 2, 3, 4):
        lhs, rhs = relation_sides(rel, 2, 1, 0, 0, t)
        assert lhs == rhs
    with pytest.raises(ValueError):
        relation_sides(5, 0, 0, 0, 0, t)


def test_verify_relations_e0(catalan, linear_window):
    r = verify_gl3_relations(catalan, linear_window, None, 2, 2, (0, 1), (0, 1))
    assert (r.total, r.failures) == (144, 0)
    inst = r.checks[0].instance
    assert {"relation", "k", "l", "alpha", "beta"} <= set(inst)


def test_verify_relations_nonzero_e(rand_window):
    C = rand_window(42, -2, 4, 6, 4)
    D = rand_window(43, -2, 4, 6, 4)
    E = rand_window(44, -1, 2, 6, 4)
    r = verify_gl3_relations(C, D, E, 1, 1, (0, 0), (0, 0))
    assert (r.total, r.failures) == (16, 0)


def test_verify_relations_detects_violation(catalan, linear_window):
    # perturb one tau through the callable path: relation 1 must break
    def t(k, l, a, b):
        v = tau3_value(k, l, a, b, catalan, linear_window, None)
        return v + 1 if (k, l, a, b) == (1, 1, 1, 0) else v
    lhs, rhs = relation_sides(1, 1, 1, 0, 0, t)
    assert lhs != rhs
