"""Acceptance suite: one test per shipped guarantee, all exact arithmetic.

Every expected value here was derived by an independent route (brute-force
determinant, Gram-Schmidt, hand expansion, or a second formula) before being
frozen. Equality asserts are exact: Fractions and polynomials, no floats,
zero tolerance. Run with `pytest -v` for one pass/fail line per criterion.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from tauq import (
    DegenerateTauError,
    MomentSequence,
    build_moments,
    condensation_table,
    connection_matrices_gl2,
    induction_replay,
    monic_op,
    mop_type2,
    recurrence_coeffs,
    tau3_e0_det,
    tau3_residue,
    tau_det,
    verify_gl3_relations,
    verify_mop,
    verify_orthogonality,
    verify_qsystem,
    verify_zero_curvature,
    window_matrix_gl2,
    window_matrix_gl3,
)

from reference import gram_schmidt_monic, tau_det_table, tau_residue

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"
CATALAN = MomentSequence.named("catalan")
HERMITE = MomentSequence.named("hermite")
FORMAL_C = MomentSequence.formal("c")
ZERO = MomentSequence.zero()
CATALAN_W = MomentSequence.window(0, [CATALAN.get(i) for i in range(13)])
LINEAR_W = MomentSequence.window(0, [Fraction(i + 1) for i in range(13)])


def rand(seed, lo, hi, num=9, den=7):
    return build_moments({"kind": "random", "seed": seed, "lo": lo, "hi": hi,
                          "max_abs_num": num, "max_den": den})


RANDOM_20 = [rand(seed, -2, 14) for seed in range(1, 21)]


def test_c01_qsystem_bilinear_recurrence():
    # numeric: named families plus 20 seeded random windows, k <= 6,
    # alpha in [-2, 2]
    for m in [CATALAN, HERMITE] + RANDOM_20:
        r = verify_qsystem(m, 6, (-2, 2))
        assert r.failures == 0 and r.total == 35
    # symbolic: the identity cancels as a polynomial in the c_i
    r = verify_qsystem(FORMAL_C, 4, (0, 0))
    assert r.failures == 0 and r.total == 5


def test_c02_gl2_residue_matches_determinant():
    for k in range(5):
        for a in range(-2, 3):
            assert tau_residue(k, a, FORMAL_C) == tau_det(k, a, FORMAL_C)
    for m in RANDOM_20:
        for k in range(5):
            for a in range(-2, 3):
                assert tau_residue(k, a, m) == tau_det(k, a, m)


def test_c03_catalan_hankel_regressions():
    assert [tau_det(k, 0, CATALAN) for k in range(9)] == [Fraction(1)] * 9
    assert [tau_det(k, 2, CATALAN) for k in range(7)] == \
        [Fraction(k + 1) for k in range(7)]


def test_c04_condensation_fill_matches_determinant():
    def check(m, k_range, alphas):
        assert condensation_table(m, k_range, alphas) == \
            tau_det_table(m, k_range, alphas)

    check(CATALAN, (0, 6), (0, 2))
    check(HERMITE, (0, 6), (0, 1))  # odd-offset taus vanish: determinant fallback
    # every window matches, including the 13 with a singular interior
    # minor, where those entries come from the determinant
    for m in RANDOM_20:
        check(m, (0, 6), (0, 2))


def test_c05_hermite_three_term_recurrence():
    coeffs = recurrence_coeffs(HERMITE, 0, 6)
    assert coeffs == [(Fraction(0), Fraction(k, 2)) for k in range(6)]
    generated = [monic_op(0, 0, HERMITE).as_laurent(),
                 monic_op(1, 0, HERMITE).as_laurent()]
    for k in range(1, 6):
        generated.append(generated[k].shift(1)
                         - generated[k - 1].scale(Fraction(k, 2)))
    for k in range(7):
        assert monic_op(k, 0, HERMITE) == generated[k]


def test_c06_orthogonality_and_norms():
    for m in [CATALAN, HERMITE, RANDOM_20[0], RANDOM_20[1], RANDOM_20[2]]:
        # gate: the determinant route must agree with plain Gram-Schmidt
        assert gram_schmidt_monic(m, 0, 6) == \
            [monic_op(k, 0, m) for k in range(7)]
        r = verify_orthogonality(m, (0, 0), 6)
        assert r.failures == 0 and r.total == 21 + 7 and not r.skipped


def test_c07_zero_curvature_and_induction_replay():
    r = verify_zero_curvature(CATALAN, (0, 4), (-1, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (53, 0, 7)
    r = verify_zero_curvature(HERMITE, (0, 4), (-1, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (26, 0, 34)
    for k in range(3):
        r = verify_zero_curvature(FORMAL_C, (k, k), (0, 0))
        assert r.passes == 3 and not r.skipped
    r = induction_replay(CATALAN, 6, (-1, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (48, 0, 0)
    r = induction_replay(HERMITE, 6, (-1, 2))
    assert (r.passes, r.failures, len(r.skipped)) == (44, 0, 4)


def test_c08_factor_matrices_nonnegative_in_z():
    evaluated = 0
    for m in (CATALAN, HERMITE):
        for k in range(5):
            for a in range(-1, 3):
                try:
                    mats = connection_matrices_gl2(k, a, m)
                except DegenerateTauError:
                    continue
                for mat in mats:
                    md = mat.min_degree()
                    assert md is not None and md >= 0
                evaluated += 1
    assert evaluated == 18 + 6

    for m in (CATALAN_W, rand(1, 0, 12), rand(3, 0, 12)):
        for k in range(9):
            md = window_matrix_gl2(k, 0, m).min_degree()
            assert md is not None and md >= 0

    windows = 0
    for cw, dw in [(CATALAN_W, LINEAR_W), (rand(5, 0, 12), rand(6, 0, 12))]:
        for k in range(7):
            for l in range(k + 1):
                try:
                    w = window_matrix_gl3(k, l, 0, 0, cw, dw)
                except DegenerateTauError:
                    continue
                md = w.min_degree()
                assert md is not None and md >= 0
                windows += 1
    assert windows == 17 + 28


def test_c09_gl3_residue_matches_block_hankel():
    for s in range(1, 11):
        cw, dw = rand(100 + s, -2, 9), rand(200 + s, -2, 9)
        for k in range(4):
            for l in range(k + 1):
                for a in range(-1, 2):
                    for b in range(-1, 2):
                        assert tau3_residue(k, l, a, b, cw, dw, ZERO) == \
                            tau3_e0_det(k, l, a, b, cw, dw)


def test_c10_gl3_difference_relations():
    r = verify_gl3_relations(CATALAN, LINEAR_W, None, 3, 3, (0, 1), (0, 1))
    assert r.failures == 0 and r.total == 256
    cw = rand(42, -2, 4, 6, 4)
    dw = rand(43, -2, 4, 6, 4)
    ew = rand(44, -1, 2, 6, 4)
    assert ew.support() is not None  # genuinely nonzero third family
    r = verify_gl3_relations(cw, dw, ew, 2, 2, (0, 0), (0, 0))
    assert r.failures == 0 and r.total == 36


def test_c11_type2_multiple_orthogonality():
    assert str(mop_type2(2, 1, 0, 0, CATALAN, LINEAR_W)) == "z^2 - z - 1"
    for cw, dw, expected_skips in [
            (CATALAN, LINEAR_W, [(3, 3), (4, 1), (4, 3), (4, 4)]),
            (rand(7, -2, 14), rand(8, -2, 14), [])]:
        r = verify_mop(cw, dw, (0, 4), (0, 4), (0, 0), (0, 0))
        assert r.failures == 0
        skips = [(s.instance["k"], s.instance["l"]) for s in r.skipped]
        assert skips == expected_skips


def cli(*argv, check=False):
    # the child must import the same sources as this process
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tauq.cli", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})
    if check and proc.returncode != 0:
        raise AssertionError(proc.stderr.decode())
    return proc


def test_c12_cli_determinism_and_exit_codes():
    argv = ("verify", "qsystem", "--moments",
            '{"kind": "named", "name": "catalan"}',
            "--k", "0..6", "--alpha", "0..2", "--format", "json")
    first = cli(*argv, check=True)
    second = cli(*argv, check=True)
    assert first.stdout == second.stdout and first.stdout
    assert json.loads(first.stdout)["summary"] == \
        {"total": 21, "pass": 21, "skipped": 0}

    bad = cli("tau", "gl2", "--moments",
              str(FIXTURES / "malformed_moments.json"))
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["error"] == "MomentParseError"

    degenerate = cli("opgen", "--moments",
                     str(FIXTURES / "all_zero_moments.json"))
    assert degenerate.returncode == 3
    assert json.loads(degenerate.stderr)["error"] == "DegenerateTauError"
