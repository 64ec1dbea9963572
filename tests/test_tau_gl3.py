import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import tauq.tau_gl3
from tauq import (
    KernelSpec,
    MomentSequence,
    ResourceBoundError,
    SupportError,
    TauqError,
    TauTable,
    kernel_specs,
    tau3_det,
    tau3_e0_det,
    tau3_residue,
    verify_gl3_relations,
)
from tauq.cli import main
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
    assert tau3_det(1, 1, 0, 0, C, D, E) == 5


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


def test_residue_requires_finite_support(catalan, linear_window, rand_window):
    with pytest.raises(SupportError):
        tau3_residue(1, 0, 0, 0, catalan, linear_window, ZERO)
    # the closed-form route keeps the reference's contract: a named E
    C = rand_window(42, -2, 4, 6, 4)
    with pytest.raises(SupportError):
        tau3_det(1, 1, 0, 0, C, linear_window, catalan)


def test_residue_work_bound(rand_window):
    C = rand_window(42, -2, 4, 6, 4)
    D = rand_window(43, -2, 4, 6, 4)
    E = rand_window(44, -1, 2, 6, 4)
    with pytest.raises(ResourceBoundError) as exc:
        tau3_residue(2, 2, 0, 0, C, D, E, max_work=3)
    assert "work bound 3" in str(exc.value)
    # the same instance inside the default bound
    assert tau3_residue(2, 2, 0, 0, C, D, E) == tau3_det(2, 2, 0, 0, C, D, E)


def test_zero_family_short_circuits_bound(rand_pair):
    # E = 0 kills every summand with n_e > 0 before the bound applies,
    # so k = l = 3 stays inside the default even though n_c + n_e = 6
    C, D = rand_pair
    assert tau3_residue(3, 3, 0, 0, C, D, ZERO) == tau3_e0_det(3, 3, 0, 0, C, D)


def test_tau3_value_dispatch(rand_pair, rand_window):
    C, D = rand_pair
    assert tau3_det(2, 1, 0, 0, C, D, None) == tau3_e0_det(2, 1, 0, 0, C, D)
    assert tau3_det(2, 1, 0, 0, C, D, ZERO) == tau3_e0_det(2, 1, 0, 0, C, D)
    E = rand_window(44, -1, 2, 6, 4)
    assert tau3_det(1, 1, 0, 0, C, D, E) == tau3_residue(1, 1, 0, 0, C, D, E)
    assert tau3_det(-1, 0, 0, 0, C, D, E) == 0


# sha256 of the grid below, recorded from the two-index tau before its
# E = 0 and E != 0 routes and their boundary conventions merged into tau3_det
BEHAVIOUR_DIGEST = "529d62b3e121c7509af2ed43617523e3d5de39ca2fd142d08e5afb0704f97445"


def test_behaviour_matrix_is_pinned(rand_window, catalan, hermite,
                                    formal_c, formal_d):
    # every kind of family (window with negative lo, empty, all-zero,
    # named, formal) for C and D; E also None; k, l from -1. Each case is
    # its value string or its error type and text.
    cs = [rand_window(501, -2, 3), ZERO, MomentSequence.window(-1, [0, 0, 0]),
          catalan, formal_c]
    ds = [rand_window(502, -1, 4), ZERO, MomentSequence.window(2, [0, 0]),
          hermite, formal_d]
    es = [None, ZERO, MomentSequence.window(0, [0, 0, 0]),
          rand_window(503, -2, 2), catalan, MomentSequence.formal("e")]
    lines = []
    for C, D, E in itertools.product(cs, ds, es):
        for k, l in itertools.product(range(-1, 4), repeat=2):
            for a, b in ((0, 0), (-1, 1), (2, -1)):
                try:
                    lines.append(str(tau3_det(k, l, a, b, C, D, E)))
                except TauqError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
    assert len(lines) == 11250
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BEHAVIOUR_DIGEST


def _gate_triples(rand_window):
    """(C, D, E) windows for the closed-form gate: random windows with
    negative lo, a zero-heavy window, and C or D identically zero."""
    heavy = MomentSequence.window(
        -2, [Fraction(3), 0, 0, Fraction(-1, 2), 0, 0, Fraction(5)])
    return [(rand_window(301, -2, 4), rand_window(302, -3, 3),
             rand_window(303, -2, 2)),
            (heavy, rand_window(305, -1, 5), rand_window(306, -3, 1)),
            (ZERO, rand_window(307, -2, 3), rand_window(308, -1, 3)),
            (rand_window(309, -3, 2), ZERO, heavy)]


def test_det_matches_residue(rand_window):
    # k + l <= 5 on both sides of k = l, every alpha in -2..2 and beta in
    # -1..2: 21 (k, l) pairs x 20 offsets x 4 triples
    n = 0
    for C, D, E in _gate_triples(rand_window):
        for k in range(6):
            for l in range(6 - k):
                for a in range(-2, 3):
                    for b in range(-1, 3):
                        assert tau3_det(k, l, a, b, C, D, E) == \
                            tau3_residue(k, l, a, b, C, D, E), (k, l, a, b)
                        n += 1
    assert n == 1680


def test_det_matches_residue_order_six(rand_window):
    C, D, E = _gate_triples(rand_window)[0]
    for k, l, a, b in [(3, 3, 0, 0), (4, 2, 1, 0), (2, 4, 0, 1),
                       (1, 5, -1, 1), (5, 1, 0, 0), (0, 6, 0, 0)]:
        assert tau3_det(k, l, a, b, C, D, E) == \
            tau3_residue(k, l, a, b, C, D, E, max_work=6), (k, l, a, b)


def test_e_nonzero_route_skips_residue(monkeypatch, rand_window, capsys):
    # the closed-form route runs neither the residue nor its summand list
    calls = []

    def count_calls(name):
        reference = getattr(tauq.tau_gl3, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return reference(*args, **kwargs)
        monkeypatch.setattr(tauq.tau_gl3, name, counting)

    count_calls("tau3_residue")
    count_calls("kernel_specs")
    C, D, E = _gate_triples(rand_window)[0]
    tau3_det(2, 3, 0, 1, C, D, E)
    verify_gl3_relations(C, D, E, 2, 2, (0, 0), (0, 0))
    argv = ["tau", "gl3", "--k", "0..3", "--l", "0..2"]
    for flag, seed in (("c", 42), ("d", 43), ("e", 44)):
        argv += [f"--moments-{flag}", json.dumps(
            {"kind": "random", "seed": seed, "lo": -1, "hi": 3,
             "max_abs_num": 6, "max_den": 4})]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_grid_boundaries(catalan_window, linear_window):
    grid = TauTable(tau3_det, catalan_window, linear_window, ZERO)
    assert grid.get(-1, 0, 0, 0) == 0
    assert grid.get(0, 0, 5, 5) == 1
    assert grid.get(2, 1, 0, 0) == \
        tau3_e0_det(2, 1, 0, 0, catalan_window, linear_window)
    grid.values[1, 0, 0, 0] = Fraction(7)
    assert grid.get(1, 0, 0, 0) == 7


def test_relation_sides_balance(catalan, linear_window):
    def t(k, l, a, b):
        return tau3_det(k, l, a, b, catalan, linear_window, None)
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
    # k, l <= 3 reaches tau up to (4, 4), past the residue engine's reach
    r = verify_gl3_relations(C, D, E, 3, 3, (0, 1), (0, 1))
    assert (r.total, r.failures) == (256, 0)


def test_verify_relations_detects_violation(catalan, linear_window):
    # perturb one tau through the callable path: relation 1 must break
    def t(k, l, a, b):
        v = tau3_det(k, l, a, b, catalan, linear_window, None)
        return v + 1 if (k, l, a, b) == (1, 1, 1, 0) else v
    lhs, rhs = relation_sides(1, 1, 1, 0, 0, t)
    assert lhs != rhs
