import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import tauq.tau_gl3
from tauq import (
    KernelSpec,
    MomentSequence,
    ResourceBoundError,
    SupportError,
    TauqError,
    kernel_specs,
    tau3_det,
    tau3_e0_det,
    tau3_residue,
    verify_gl3_relations,
)
from tauq.cli import main
from tauq.tau_gl3 import (block_hankel_rows, e_is_zero, leading_blocks,
                          relation_sides, tau3_table)

from reference import seeded_window, tau3_by_det

ZERO = MomentSequence.zero()


@pytest.fixture(scope="module")
def rand_pair(rand_window):
    return rand_window(101, -2, 9), rand_window(201, -2, 9)


class RecordingSequence(MomentSequence):
    """A copy of a sequence that records the index of every get call."""

    def __init__(self, seq):
        super().__init__(seq.kind, lo=seq.lo, values=seq.values,
                         name=seq.name, family=seq.family)
        self.calls = []

    def get(self, i):
        self.calls.append(i)
        return super().get(i)


def test_block_hankel_rows_reads_each_moment_once(rand_window):
    families = [rand_window(7, -2, 5), MomentSequence.named("catalan"),
                MomentSequence.named("hermite"), MomentSequence.formal("c"),
                MomentSequence.formal("d"), ZERO]
    cases = 0
    for C0, D0 in itertools.product(families, repeat=2):
        for k in range(7):
            for l, n_rows, a, b in itertools.product(
                    range(k + 1), (k, k + 1), (-3, 0, 2), (-1, 0, 2)):
                C, D = RecordingSequence(C0), RecordingSequence(D0)
                rows = block_hankel_rows(n_rows, k, l, a, b, C, D)
                assert rows == [[D0.get(a + i + j) if j < l
                                 else C0.get(a - b + i + j - l)
                                 for j in range(k)] for i in range(n_rows)]
                assert len({id(row) for row in rows}) == n_rows
                # exactly the indices the entries use, each read once
                assert sorted(D.calls) == sorted(
                    {a + i + j for i in range(n_rows) for j in range(l)})
                assert sorted(C.calls) == sorted(
                    {a - b + i + j for i in range(n_rows) for j in range(k - l)})
                cases += 1
    assert cases == 18144
    # one family for both blocks, as in the one-family bordered body
    m = RecordingSequence(MomentSequence.named("catalan"))
    assert len(block_hankel_rows(5, 4, 0, 0, 0, m, m)) == 5
    assert m.calls == list(range(8))


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


def test_grid_boundaries(tau3_det_calls, catalan_window, linear_window):
    # boundary keys and a column entry from the table's fill, with no
    # determinant of their own
    grid = tau3_table(catalan_window, linear_window, ZERO, (-1, 2), 1)
    assert grid.get(-1, 0, 0, 0) == 0
    assert grid.get(0, 0, 5, 5) == 1
    assert grid.get(2, 1, 0, 0) == \
        tau3_by_det(2, 1, 0, 0, catalan_window, linear_window)
    assert grid.get(1, 2, 0, 0) == 0
    grid.values[1, 0, 0, 0] = Fraction(7)
    assert grid.get(1, 0, 0, 0) == 7
    assert not tau3_det_calls


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


@pytest.fixture
def tau3_det_calls(monkeypatch):
    """Counts tau3_det calls per (k, l, alpha, beta) made through
    tau_gl3's binding: the per-entry route, which no tau table takes."""
    calls = Counter()
    real = tauq.tau_gl3.tau3_det

    def counting(*args):
        calls[args[:4]] += 1
        return real(*args)

    monkeypatch.setattr(tauq.tau_gl3, "tau3_det", counting)
    return calls


def _relation_reads(k_max, l_max, alphas, betas) -> set:
    """Every (k, l, alpha, beta) the four relations read on the ranges."""
    keys = set()

    def record(*key):
        keys.add(key)
        return 0

    for relation, k, l, a, b in itertools.product(
            (1, 2, 3, 4), range(k_max + 1), range(l_max + 1),
            range(alphas[0], alphas[1] + 1), range(betas[0], betas[1] + 1)):
        relation_sides(relation, k, l, a, b, record)
    return keys


def _past_zero_minor(key, C, D, E=None) -> bool:
    """Whether tau_{k,l} at (alpha, beta) lies past a zero leading minor
    of order 1 <= j < k of its (l, alpha, beta) column's matrix (entries
    with l < 0 or k < l are not in a column's minors): an entry a run that
    stops at a zero pivot would leave out. That minor is tau_{j,l} up to
    sign for j >= l, and tau_{j,j} below."""
    k, l, a, b = key
    if l < 0 or k < l:
        return False
    return any(not tau3_by_det(j, min(j, l), a, b, C, D, E)
               for j in range(1, k))


@pytest.mark.parametrize("case", ["neg-lo", "zero-heavy", "forced-zero"])
def test_gl3_verifier_determinants_only_past_zero_minor(tau3_det_calls, case):
    # every tau, past a zero minor too, comes from one elimination per
    # (l, alpha, beta): none is a determinant of its own
    rng = random.Random(case)
    C, D = (seeded_window(rng, -4, 9, num=9, den=5,
                          zeros=0.5 if case == "zero-heavy" else 0.0)
            for _ in range(2))
    if case == "forced-zero":
        C.values[C.lo + 5] = D.values[-D.lo] = Fraction(0)  # c_1, d_0
    k_max, l_max, alphas, betas = 4, 3, (-1, 1), (-1, 0)
    report = verify_gl3_relations(C, D, None, k_max, l_max, alphas, betas)
    assert report.total and not report.failures
    past = {key for key in _relation_reads(k_max, l_max, alphas, betas)
            if _past_zero_minor(key, C, D)}
    assert past
    assert not tau3_det_calls
    # the table `tau gl3` reads takes none either
    table = tau3_table(C, D, None, (-1, k_max + 1), l_max + 1)
    assert all(table(*key) == tau3_by_det(*key, C, D) for key in
               sorted(_relation_reads(k_max, l_max, alphas, betas)))
    assert not tau3_det_calls


@pytest.fixture
def line_runs(monkeypatch):
    """Counts tau3_line calls per line through tau_gl3's binding, the one
    every two-index table fills from: (k, alpha, beta) for a row (E != 0
    and 0 <= k < l), (l, alpha, beta) with "col" for a column."""
    runs = Counter()
    real = tauq.tau_gl3.tau3_line

    def counting(k, l, a, b, k_range, l_range, C, D, E=None, *rest):
        row = 0 <= k < l and not e_is_zero(E)
        runs[("row", k, a, b) if row else ("col", l, a, b)] += 1
        return real(k, l, a, b, k_range, l_range, C, D, E, *rest)

    monkeypatch.setattr(tauq.tau_gl3, "tau3_line", counting)
    return runs


def test_gl3_verifier_one_determinant_per_tau_with_e_or_formal(
        tau3_det_calls, line_runs, formal_c, formal_d):
    # with E != 0 the columns hold k >= l (and k < 0), and each (k, alpha,
    # beta) row the taus with 0 <= k < l: one run per line, and no tau is
    # a determinant of its own
    rng = random.Random(5)
    C, D, E = (seeded_window(rng, -2, 6, num=5, den=3) for _ in range(3))
    report = verify_gl3_relations(C, D, E, 2, 1, (0, 1), (0, 0))
    assert report.total and not report.failures
    reads = _relation_reads(2, 1, (0, 1), (0, 0))
    rows = {("row", k, a, b) for k, l, a, b in reads if 0 <= k < l}
    assert rows
    assert not tau3_det_calls
    assert {run: n for run, n in line_runs.items() if run[0] == "row"} == \
        dict.fromkeys(rows, 1)
    assert set(line_runs.values()) == {1}
    # formal columns come from one Laplace run each, so over
    # k = -1..k_max+1 they leave out no tau
    line_runs.clear()
    report = verify_gl3_relations(formal_c, formal_d, None, 1, 1, (0, 0), (0, 0))
    assert report.total and not report.failures
    reads = _relation_reads(1, 1, (0, 0), (0, 0))
    assert all(key[0] in leading_blocks((-1, 2), *key[1:], formal_c, formal_d)
               for key in reads)
    assert not tau3_det_calls
    assert dict(line_runs) == dict.fromkeys(
        {("col", l, a, b) for _, l, a, b in reads}, 1)


def _e_triple(case: str):
    """(C, D, E) windows with negative lo for the E != 0 column gates; with
    "forced-zero" the first Cauchy entry M_00 at (alpha, beta) = (0, 0)
    and c_1, the first entry of the l = 0 column at (1, 0), are zero."""
    rng = random.Random(f"e-{case}")
    zeros = 0.5 if case == "zero-heavy" else 0.0
    C, D, E = (seeded_window(rng, -4, 8, num=9, den=5, zeros=zeros)
               for _ in range(3))
    if case == "forced-zero":
        D.values[-D.lo] = sum(C.get(-m - 1) * E.get(m) for m in range(-C.lo))
        C.values[1 - C.lo] = Fraction(0)
        assert tau3_det(1, 1, 0, 0, C, D, E) == tau3_det(1, 0, 1, 0, C, D, E) == 0
    return C, D, E


@pytest.mark.parametrize("case", ["neg-lo", "zero-heavy", "forced-zero"])
def test_e_table_matches_per_entry_det(tau3_det_calls, case):
    # one elimination per (l, alpha, beta) column gives every tau with
    # k >= l, and one per (k, alpha, beta) row every tau with 0 <= k < l,
    # past a zero minor too; each equals the tau as one determinant of its
    # own layout, and none takes a determinant of its own
    C, D, E = _e_triple(case)
    k_range = (-1, 5)
    keys = list(itertools.product(range(-1, 6), range(-1, 5), (-1, 0, 1),
                                  (-1, 0)))
    table = tau3_table(C, D, E, k_range, 4)
    assert [table(*key) for key in keys] == [tau3_by_det(*key, C, D, E)
                                             for key in keys]
    assert any(0 <= key[0] < key[1] for key in keys)
    assert case != "forced-zero" or any(
        _past_zero_minor(key, C, D, E) for key in keys)
    assert not tau3_det_calls
    # the per-entry route reads the same line at its own order
    assert [tau3_det(*key, C, D, E) for key in keys] == \
        [table(*key) for key in keys]


def test_all_zero_e_window_takes_the_e0_columns(tau3_det_calls):
    # an all-zero e-window is E = 0: no determinant of its own, as with
    # E = None
    rng = random.Random(7)
    C, D = (seeded_window(rng, -3, 8, num=7, den=3, zeros=0.4)
            for _ in range(2))
    args = (3, 2, (-1, 1), (-1, 0))
    reports = []
    for E in (None, MomentSequence.window(-2, [0, 0, 0]), ZERO):
        tau3_det_calls.clear()
        report = verify_gl3_relations(C, D, E, *args)
        assert report.total and not report.failures
        reports.append((report.total, dict(tau3_det_calls)))
    assert reports[0][1] == {}
    assert reports[1] == reports[2] == reports[0]
