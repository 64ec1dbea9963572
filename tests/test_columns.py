"""One swapping elimination per column against one determinant per entry.

``leading_blocks`` reads every tau_{k,l} or B_{k,l} at one (l, alpha,
beta) from a single Bareiss run, and ``tau_table``, ``tau3_table`` and
``bordered_table`` memoize it; ``tau_det``, ``tau3_det`` and
``mop_bordered_poly`` read their entry's column at exactly its order, and
``monic_op`` and ``mop_type2`` read only a table. They must all equal the
independent routes of ``reference.py``, one determinant or one bordered
run per entry in its own layout, everywhere: past a zero leading minor,
where the run swaps rows and the column still holds every entry, and
where a named moment past its bound cannot be read, where a table key
fails exactly when its own matrix does.
"""
import random
from fractions import Fraction

import pytest

import tauq.moments
import tauq.orthopoly
import tauq.tau_gl3
from tauq import (DegenerateTauError, HankelForm, LaurentPoly, MomentPoly,
                  MomentSequence, MonicPolynomial, TauqError,
                  bordered_tau_poly, form_eval, monic_op, mop_bordered_poly,
                  mop_type2, tau3_det, tau_det)
from tauq.orthopoly import bordered_table
from tauq.rings import det, leading_minors
from tauq.tau_gl2 import tau_table
from tauq.tau_gl3 import block_hankel_rows, leading_blocks, tau3_table

from reference import (bordered_blocks_full, bordered_by_run,
                       forced_zero_window, seeded_window, tau3_by_det)


def _sources():
    """(id, sequence, alphas, K): negative lo, 30-60% zeros, a forced zero
    minor at each k = 1..8, hermite (every other pivot zero at odd alpha)
    and catalan up to K = 24."""
    rng = random.Random(17)
    out = [(f"neg-lo-{i}", seeded_window(rng, -5 + i, 12, num=9, den=5),
            range(-3, 3), 8) for i in range(3)]
    out += [(f"zeros-{z}", seeded_window(rng, -3, 14, num=5, den=3,
                                         zeros=z / 100), range(-2, 4), 8)
            for z in (30, 45, 60)]
    out += [(f"forced-{k}", forced_zero_window(rng, k, 1), range(0, 3), k + 3)
            for k in range(1, 9)]
    out += [("hermite", MomentSequence.named("hermite"), range(-2, 6), 12),
            ("catalan", MomentSequence.named("catalan"), range(-2, 3), 24)]
    return out


SOURCES = _sources()
SOURCE_IDS = [s[0] for s in SOURCES]


def _block_by_det(rows, t: int) -> list:
    """Block t of a body, one determinant per cofactor."""
    block = [r[:t] for r in rows[:t + 1]]
    return [(-1) ** (r + t) * det(block[:r] + block[r + 1:])
            for r in range(t + 1)]


def test_leading_minors_are_leading_determinants():
    rng = random.Random(3)
    for n in range(1, 8):
        for zeros in (0.0, 0.4, 0.7):
            rows = [[Fraction(0) if rng.random() < zeros
                     else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n + 1)]
            minors = [det([r[:k] for r in rows[:k]]) for k in range(n + 1)]
            blocks = [_block_by_det(rows, t) for t in range(n + 1)]
            # every minor and block, past a zero minor too, from any
            # lowest order on
            for lo in range(n + 1):
                assert leading_minors(rows[:n], lo=lo) == minors[lo:]
                assert leading_minors(rows, True, lo) == blocks[lo:]
            assert leading_minors(rows[:n]) == minors
            assert leading_minors(rows, bordered=True) == blocks


def _bodies():
    """(n+1) x n bodies up to n = 14: seeded, 30-60% zeros, Hankel bodies
    of 3-digit values, and bodies with a forced zero leading minor of
    each order 1..n (its last diagonal entry has the order below as
    cofactor, so one value of it zeroes the minor)."""
    rng = random.Random(29)

    def entry(zeros=0.0):
        return (Fraction(0) if rng.random() < zeros
                else Fraction(rng.randint(-99, 99), rng.randint(1, 9)))

    out = []
    for n in (1, 2, 5, 9, 14):
        for zeros in (0.0, 0.3, 0.45, 0.6):
            out.append([[entry(zeros) for _ in range(n)] for _ in range(n + 1)])
        m = [Fraction(rng.randint(-999, 999), rng.randint(1, 99))
             for _ in range(2 * n + 1)]
        out.append([[m[i + j] for j in range(n)] for i in range(n + 1)])
        for j in range(1, n + 1):
            rows = [[entry() for _ in range(n)] for _ in range(n + 1)]
            cofactor = det([r[:j - 1] for r in rows[:j - 1]])
            if cofactor:
                rows[j - 1][j - 1] = Fraction(0)
                rows[j - 1][j - 1] = -det([r[:j] for r in rows[:j]]) / cofactor
                assert not det([r[:j] for r in rows[:j]])
                out.append(rows)
    return out


def test_triangular_bordered_run_matches_full_identity_run():
    # the run keeps only the identity columns that can be nonzero; the
    # reference eliminates every column of [A | I] without swaps, up to
    # its first zero pivot
    bodies = _bodies()
    assert len(bodies) > 40
    stopped = 0
    for rows in bodies:
        got = leading_minors(rows, bordered=True)
        full = bordered_blocks_full(rows)
        assert len(got) == len(rows)
        assert got[:len(full)] == full
        assert all(type(c) is Fraction for block in got for c in block)
        assert got[:10] == [_block_by_det(rows, t)
                            for t in range(min(len(got), 10))]
        stopped += len(full) < len(rows)
    assert stopped > 10


def test_leading_minors_edges():
    assert leading_minors([]) == [1]
    assert leading_minors([[]], bordered=True) == [[1]]
    assert leading_minors([[0, 1], [1, 0]]) == [1, 0, -1]
    # the swap takes in the body's last row
    assert leading_minors([[0], [1]], bordered=True) == [[1], [-1, 0]]
    # no nonzero entry below a zero pivot: every later minor is 0
    assert leading_minors([[0, 1], [0, 2]]) == [1, 0, 0]
    assert leading_minors([[0, 1], [0, 2], [0, 3]], bordered=True) == [
        [1], [0, 0], [0, 0, 0]]
    for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3, 4], [5, 6], [7, 8]]):
        with pytest.raises(ValueError):
            leading_minors(rows)


@pytest.mark.parametrize("name, m, alphas, K", SOURCES, ids=SOURCE_IDS)
def test_tau_columns_match_tau_det(name, m, alphas, K):
    def ref(k, a):
        return tau3_by_det(k, 0, a, 0, m, m)

    for a in alphas:
        col = leading_blocks((-2, K), 0, a, 0, m, m)
        assert sorted(col) == list(range(-2, K + 1))
        assert col == {k: ref(k, a) for k in col}
    table = tau_table(m, lambda a: (-2, K))
    assert all(table(k, a) == tau_det(k, a, m) == ref(k, a)
               for a in alphas for k in range(-2, K + 2))


@pytest.mark.parametrize("name, m, alphas, K", SOURCES, ids=SOURCE_IDS)
def test_polynomial_columns_match_per_degree(name, m, alphas, K):
    K = min(K, 14)
    for a in alphas:
        blocks = leading_blocks((-1, K), 0, a, 0, m, m, bordered=True)
        assert sorted(blocks) == list(range(-1, K + 1))
        assert blocks == {k: bordered_by_run(k, 0, a, 0, m, m)
                          for k in blocks}
        bordered = bordered_table(K, m, m)
        for k in range(-1, K + 2):
            assert (bordered(k, 0, a, 0) == mop_bordered_poly(k, 0, a, 0, m, m)
                    == bordered_by_run(k, 0, a, 0, m, m))
        for k in range(K + 1):
            try:
                want = monic_op(k, a, m)
            except DegenerateTauError as exc:
                with pytest.raises(DegenerateTauError) as got:
                    monic_op(k, a, m, bordered)
                assert got.value.record() == exc.record()
            else:
                assert monic_op(k, a, m, bordered) == want


def _minors_nonzero(k, l, a, b, C, D) -> bool:
    rows = block_hankel_rows(k, k, l, a, b, C, D)
    return all(det([r[:j] for r in rows[:j]]) for j in range(1, k + 1))


def test_polynomials_without_a_table_take_no_bordered_determinant(monkeypatch):
    # a fresh table reads every degree of a nondegenerate column from its
    # one elimination, so the per-entry route never runs
    calls = []
    real = tauq.orthopoly.mop_bordered_poly

    def counting(*args):
        calls.append(args[:4])
        return real(*args)

    monkeypatch.setattr(tauq.orthopoly, "mop_bordered_poly", counting)
    rng = random.Random(41)
    for m, alphas in ((seeded_window(rng, -5, 12), range(-3, 2)),
                      (MomentSequence.named("catalan"), range(0, 3))):
        for a in alphas:
            for k in range(7):
                assert _minors_nonzero(k, 0, a, 0, m, m)
                assert monic_op(k, a, m).degree == k
    C, D = (seeded_window(rng, -4, 12) for _ in range(2))
    for k in range(6):
        for l in range(k + 1):
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    assert _minors_nonzero(k, l, a, b, C, D)
                    assert mop_type2(k, l, a, b, C, D).degree == k
    assert not calls


def _monic_of(read, b: LaurentPoly, degree: int, detail: str, **indices) -> bool:
    """Whether read() is b over its z^degree coefficient, or raises the
    DegenerateTauError record of a zero one; True for the latter."""
    lead = b.coeff(degree)
    if lead:
        assert read() == MonicPolynomial.from_laurent(b.scale(1 / lead))
        return False
    with pytest.raises(DegenerateTauError) as got:
        read()
    assert got.value.record() == DegenerateTauError(detail, **indices).record()
    return True


@pytest.mark.parametrize("k", range(1, 6))
def test_polynomials_past_a_zero_minor_match_per_entry(k):
    # tau_k = 0 at alpha 1: the column's polynomials and zero-tau records
    # past it equal the per-entry bordered determinant's
    rng = random.Random(f"forced {k}")
    C, D = forced_zero_window(rng, k, 1), forced_zero_window(rng, k, 1)
    degenerate = 0
    for a in (0, 1, 2):
        for j in range(-1, k + 3):
            b = bordered_by_run(j, 0, a, 0, C, C)
            assert bordered_tau_poly(j, a, C) == b
            degenerate += _monic_of(
                lambda: monic_op(j, a, C), b, j,
                "tau is zero; no monic orthogonal polynomial", k=j, alpha=a)
    # l = 0 at beta = 0 is C's column and l = k D's; both have a zero
    # minor of order k
    for a, b in ((1, 0), (1, -1), (2, 1)):
        for j in range(k + 3):
            for l in range(min(j, k) + 2):
                poly = bordered_by_run(j, l, a, b, C, D)
                assert mop_bordered_poly(j, l, a, b, C, D) == poly
                degenerate += _monic_of(
                    lambda: mop_type2(j, l, a, b, C, D), poly, j,
                    "tau is zero; no monic polynomial",
                    k=j, l=l, alpha=a, beta=b)
    assert degenerate > 3


@pytest.mark.parametrize("l", range(4))
@pytest.mark.parametrize("beta", [-1, 0, 1])
@pytest.mark.parametrize("zeros", [0.0, 0.3, 0.6])
def test_gl3_columns_match_per_entry(l, beta, zeros):
    rng = random.Random(f"{l} {beta} {zeros}")
    C = seeded_window(rng, -3, 12, num=6, den=4, zeros=zeros)
    D = seeded_window(rng, -2, 13, num=6, den=4, zeros=zeros)
    K = 7
    for a in range(-2, 3):
        col = leading_blocks((-1, K), l, a, beta, C, D)
        assert sorted(col) == list(range(-1, K + 1))
        assert col == {k: tau3_by_det(k, l, a, beta, C, D) for k in col}
        blocks = leading_blocks((-1, K), l, a, beta, C, D, bordered=True)
        assert sorted(blocks) == list(range(-1, K + 1))
        assert blocks == {k: bordered_by_run(k, l, a, beta, C, D)
                          for k in blocks}
        bordered = bordered_table(K, C, D)
        for k in range(-1, K + 2):
            assert (bordered(k, l, a, beta)
                    == mop_bordered_poly(k, l, a, beta, C, D)
                    == bordered_by_run(k, l, a, beta, C, D))
            assert (tau3_det(k, l, a, beta, C, D)
                    == tau3_by_det(k, l, a, beta, C, D))


def _outcome(read, *args):
    """read(*args), or the type and text of the TauqError it raises."""
    try:
        return read(*args)
    except TauqError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("bordered", [False, True])
def test_leading_blocks_edges(monkeypatch, formal_c, formal_d, bordered):
    rng = random.Random(29)
    C, D = (seeded_window(rng, -2, 9, num=5, den=3) for _ in range(2))
    reference = bordered_by_run if bordered else tau3_by_det
    zero = LaurentPoly.zero() if bordered else Fraction(0)
    # the per-entry routine, counted through the binding a table would use
    module, name = ((tauq.orthopoly, "mop_bordered_poly") if bordered
                    else (tauq.tau_gl3, "tau3_det"))
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args[:4]) or real(*args))

    def column(k_range, l, m1=C, m2=D):
        return leading_blocks(k_range, l, 1, 0, m1, m2, bordered)

    # k_hi = 0: the boundary entries and, at l = 0, tau_{0,0} or B_{0,0}
    for l in (-1, 0, 1):
        col = column((-2, 0), l)
        assert sorted(col) == [-2, -1, 0]
        assert col == {k: reference(k, l, 1, 0, C, D) for k in col}
    # l > k_hi and l < 0: every entry of the range is a boundary zero
    for l in (-3, -1, 4, 6):
        assert column((-1, 3), l) == dict.fromkeys(range(-1, 4), zero)
    # formal and mixed families: the whole column, equal to per-entry work
    for m1, m2, l in ((formal_c, formal_d, 1), (C, formal_d, 0),
                      (C, formal_d, 1), (formal_c, D, 2)):
        col = column((-1, 3), l, m1, m2)
        assert sorted(col) == [-1, 0, 1, 2, 3]
        assert col == {k: reference(k, l, 1, 0, m1, m2) for k in col}
    catalan = MomentSequence.named("catalan")
    if not bordered:
        # tau_{0,0} is an empty matrix: it reads no moment, so a named C
        # beside a nonzero E does not fail it
        assert leading_blocks((-1, 0), 0, 1, 0, catalan, D, E=C) == {
            -1: 0, 0: 1}
    # a moment past the named-index bound raises the order-k_hi matrix's
    # error; a column whose every read is below the bound is whole
    monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", 6)
    for l in (0, 2):
        want = _outcome(reference, 5, l, 1, 0, catalan, catalan)
        assert want == "ResourceBoundError: catalan index 7 is above 6"
        assert _outcome(column, (-1, 5), l, catalan, catalan) == want
    col = column((-1, 3), 1, catalan, D)
    assert sorted(col) == [-1, 0, 1, 2, 3]
    assert col == {k: reference(k, 1, 1, 0, catalan, D) for k in col}
    # a table over those columns reads every key without the per-entry
    # routine, where a key's own matrix can be read and where it cannot
    table = (bordered_table(5, catalan, catalan) if bordered
             else tau3_table(catalan, catalan, None, (-1, 5), 2))
    for l in (0, 2):
        for k in range(-1, 7):
            assert (_outcome(table, k, l, 1, 0)
                    == _outcome(reference, k, l, 1, 0, catalan, catalan))
    assert not calls


def _crosses(reference, key, k_hi, *families) -> bool:
    """Whether key's own matrix can be read but its column's order-k_hi
    one (its range widened to the key) cannot."""
    k, l, a, b = key
    return (k >= l and not isinstance(_outcome(reference, *key, *families), str)
            and isinstance(_outcome(reference, max(k, k_hi), l, a, b,
                                    *families), str))


@pytest.mark.parametrize("bound", range(6, 14))
def test_tables_fail_exactly_where_the_own_matrix_fails(monkeypatch, bound):
    # with the named-index bound lowered, a key whose line over the
    # table's range reads past the bound but whose own matrix does not
    # still gets its value, and a key whose own matrix reads past it
    # raises that matrix's error, whatever order the keys are read in
    monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", bound)
    rng = random.Random(bound)
    catalan = MomentSequence.named("catalan")
    hermite = MomentSequence.named("hermite")
    window = seeded_window(rng, -3, 9, num=7, den=3, zeros=0.3)
    E = seeded_window(rng, -2, 6, num=7, den=3)
    K, L = 6, 3
    alphas, betas = range(-1, 3), (-1, 1)
    cases = []  # (table, keys, reference as a function of a key)
    for m in (catalan, hermite):
        keys = [(k, a) for k in range(-2, K + 3) for a in alphas]
        cases.append((tau_table(m, lambda a: (-2, K)), keys,
                      lambda k, a, m=m: tau3_by_det(k, 0, a, 0, m, m)))
    gl3 = [(k, l, a, b) for k in range(-1, K + 2) for l in range(-1, L + 2)
           for a in alphas for b in betas]
    for C, D, e in ((catalan, hermite, None), (catalan, window, None),
                    (window, hermite, None), (catalan, window, E),
                    (window, window, E)):
        cases.append((tau3_table(C, D, e, (-1, K), L), gl3,
                      lambda *key, f=(C, D, e): tau3_by_det(*key, *f)))
    crossing = failing = 0
    for C, D in ((catalan, hermite), (window, catalan)):
        cases.append((bordered_table(K, C, D), gl3,
                      lambda *key, f=(C, D): bordered_by_run(*key, *f)))
        crossing += sum(_crosses(bordered_by_run, key, K, C, D)
                        for key in gl3)
    for table, keys, reference in cases:
        keys = rng.sample(keys, len(keys))
        got = [_outcome(table, *key) for key in keys]
        want = [_outcome(reference, *key) for key in keys]
        assert got == want
        failing += sum(isinstance(w, str) for w in want)
    assert crossing and failing


def _fraction_form_eval(form, fa: dict, gb: dict):
    total = Fraction(0)
    for a, ca in fa.items():
        for b, cb in gb.items():
            total += ca * cb * form.moment(a + b)
    return total


@pytest.mark.parametrize("seed", range(12))
def test_integer_form_eval_matches_fraction_sum(seed):
    rng = random.Random(seed)
    m = seeded_window(rng, rng.randint(-6, 0), 14, num=50, den=12,
                      zeros=rng.choice([0.0, 0.4]))
    for offset in (-4, -1, 0, 3):
        form = HankelForm(m, offset)
        for _ in range(5):
            fa, gb = ({e: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                       for e in rng.sample(range(12), rng.randint(0, 6))}
                      for _ in range(2))
            f, g = LaurentPoly(fa), LaurentPoly(gb)
            got = form_eval(form, f, g)
            assert type(got) is Fraction
            assert got == _fraction_form_eval(form, f.coeffs, g.coeffs)


def test_form_eval_over_moment_symbols():
    form = HankelForm(MomentSequence.formal("c"), -1)
    f = LaurentPoly({0: Fraction(1, 2), 2: Fraction(3)})
    g = LaurentPoly({1: Fraction(-2)})
    want = _fraction_form_eval(form, f.coeffs, g.coeffs)
    assert isinstance(want, MomentPoly)
    assert form_eval(form, f, g) == want
    assert form_eval(form, f, 0) == 0
