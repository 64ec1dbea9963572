import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauq import (
    LaurentMatrix,
    LaurentPoly,
    MomentPoly,
    MomentSequence,
    MomentSymbol,
    ResourceBoundError,
    RingFraction,
    det,
    det_bareiss,
    tau_det,
)
from tauq import rings
from tauq.rings import _eliminate, as_rational, det_cofactor, leading_minors
from tauq.tau_gl3 import block_hankel_rows

from reference import diagonal_z, moment_poly_str, seeded_window

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
symbols = st.builds(MomentSymbol,
                    st.sampled_from(["c", "d"]), st.integers(-2, 4))


@st.composite
def moment_polys(draw, syms=symbols):
    p = MomentPoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = MomentPoly.const(draw(fracs))
        for s in draw(st.lists(syms, max_size=2)):
            term = term * MomentPoly.symbol(s.family, s.index)
        p = p + term
    return p


@st.composite
def laurent_polys(draw):
    p = LaurentPoly.zero()
    for _ in range(draw(st.integers(0, 4))):
        p = p + LaurentPoly.z_pow(draw(st.integers(-3, 3)), draw(fracs))
    return p


def test_as_rational():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert as_rational("2/3") == Fraction(2, 3)


def test_moment_symbol_str():
    assert str(MomentSymbol("c", 2)) == "c_2"
    assert str(MomentSymbol("d", -1)) == "d_-1"


def test_moment_poly_basics():
    c0 = MomentPoly.symbol("c", 0)
    c1 = MomentPoly.symbol("c", 1)
    p = c0 * c1 - c1 * c0
    assert not p
    assert MomentPoly.one() * c0 == c0
    assert c0 + 0 == c0
    assert (c1 ** 2) == c1 * c1
    assert str(c0 * c1 + 2) == "2 + c_0*c_1"
    assert str(c1 * c1 - c0) == "-c_0 + c_1^2"


def test_moment_poly_evaluate_and_symbols():
    c0, c2 = MomentPoly.symbol("c", 0), MomentPoly.symbol("c", 2)
    p = c0 * c2 - 3
    assert p.symbols() == {MomentSymbol("c", 0), MomentSymbol("c", 2)}
    val = p.evaluate(lambda s: Fraction(s.index + 1))
    assert val == Fraction(1 * 3 - 3)


def test_moment_poly_coefficient_types(formal_c):
    # integral coefficients are ints; a Fraction only where one is needed
    assert [type(c) for _, c in MomentPoly.one().items()] == [int]
    assert [type(c) for _, c in MomentPoly.const(Fraction(6, 3)).items()] \
        == [int]
    assert list(MomentPoly.const("1/2").items()) == [((), Fraction(1, 2))]
    half_c = MomentPoly.const(Fraction(1, 2)) * MomentPoly.symbol("c", 1)
    assert [type(c) for _, c in (half_c + half_c).items()] == [int]
    tau = tau_det(5, -1, formal_c)
    assert tau and all(type(c) is int for _, c in tau.items())
    # evaluation stays a Fraction, also for int assignments
    assert type(tau.evaluate(lambda s: s.index + 3)) is Fraction
    assert type(MomentPoly.one().evaluate(lambda s: 1)) is Fraction


def test_packed_symbols_keep_moment_symbol_order():
    edge = 2 ** 27 - 1
    syms = [MomentSymbol(f, i) for f in "edc" for i in (edge, 3, 0, -1, -edge)]
    p = MomentPoly.zero()
    for s in syms:
        p = p + MomentPoly.symbol(*s)
    assert str(p) == " + ".join(str(s) for s in sorted(syms))
    assert p.symbols() == set(syms)
    sq = MomentPoly.symbol("d", -edge) ** 2 * MomentPoly.symbol("c", edge)
    assert list(sq.items()) == [((MomentSymbol("c", edge), MomentSymbol("d", -edge),
                                  MomentSymbol("d", -edge)), 1)]
    assert str(sq) == f"c_{edge}*d_{-edge}^2"
    for index in (edge + 1, -edge - 1):
        with pytest.raises(ResourceBoundError):
            MomentPoly.symbol("c", index)


@given(moment_polys(), moment_polys(), moment_polys())
def test_moment_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MomentPoly.zero()
    assert a * MomentPoly.one() == a


@given(moment_polys(), moment_polys(),
       st.dictionaries(symbols, fracs, max_size=4))
def test_moment_poly_evaluate_is_ring_hom(a, b, env):
    def assign(sym):
        return env.get(sym, Fraction(1, 2))
    assert (a + b).evaluate(assign) == a.evaluate(assign) + b.evaluate(assign)
    assert (a * b).evaluate(assign) == a.evaluate(assign) * b.evaluate(assign)


@given(moment_polys(st.builds(MomentSymbol, st.sampled_from(["c", "d", "e"]),
                              st.integers(-4, 3))), st.integers(0, 3))
def test_moment_poly_pow_is_repeated_product(p, n):
    want = MomentPoly.one()
    for _ in range(n):
        want = want * p
    assert p ** n == want


def test_moment_poly_pow_takes_n_minus_one_products(monkeypatch):
    calls = []
    real = MomentPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(MomentPoly, "__mul__", counting)
    p = MomentPoly.symbol("e", -2) - MomentPoly.const(Fraction(1, 3))
    assert p ** 2 == real(p, p)
    assert len(calls) == 1
    assert p ** 0 == MomentPoly.one() and p ** 1 == p and len(calls) == 1
    with pytest.raises(ValueError):
        p ** -1


def test_ring_fraction_equality_and_arithmetic():
    c0, c1 = MomentPoly.symbol("c", 0), MomentPoly.symbol("c", 1)
    half = RingFraction(c0, c0 + c0)
    assert half == RingFraction(c1, 2 * c1)
    s = RingFraction(c0, c1) + RingFraction(c1, c0)
    assert s == RingFraction(c0 * c0 + c1 * c1, c0 * c1)
    q = RingFraction(c0, c1) / RingFraction(c0, c1)
    assert q == RingFraction(MomentPoly.one())
    assert str(RingFraction(c0, c1)) == "(c_0)/(c_1)"
    with pytest.raises(ZeroDivisionError):
        RingFraction(c0, MomentPoly.zero())


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()


@given(laurent_polys(), st.integers(-3, 3))
def test_laurent_shift_scale_residue(p, n):
    assert p.shift(n).coeff(-1) == p.coeff(-1 - n)
    assert p.shift(n).shift(-n) == p
    assert p.scale(Fraction(2)).scale(Fraction(1, 2)) == p
    if p:
        assert p.shift(n).min_degree == p.min_degree + n
        assert p.shift(n).max_degree == p.max_degree + n
    else:
        assert p.min_degree is None and p.max_degree is None


def test_laurent_str_and_eq():
    z = LaurentPoly.z_pow(1)
    assert str(z - 1) == "z - 1"
    assert str(LaurentPoly.z_pow(-2, Fraction(1, 2))) == "1/2 z^-2"
    assert str(LaurentPoly.zero()) == "0"
    assert z - 1 == LaurentPoly({1: Fraction(1), 0: Fraction(-1)})
    assert LaurentPoly.const(Fraction(3)) == 3


# zero-heavy entries reach the pivot search, the early zero return and
# singular matrices; ints and Fractions may share a row
entries = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-5, 5), fracs)


@settings(deadline=None)
@given(st.integers(1, 7), st.data())
def test_det_engines_agree(n, data):
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                  unique=True))
        rows[j] = rows[i][:]
    expected = det_cofactor(rows)
    assert det_bareiss([r[:] for r in rows]) == expected
    assert det(rows) == expected


@st.composite
def sparse_polys(draw):
    # zero in both rings, or up to two terms q * symbol with q in Q, one
    # time in four with a constant term or a second symbol
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([MomentPoly.zero(), Fraction(0)]))
    p = MomentPoly.const(draw(fracs)) if draw(st.integers(0, 3)) == 0 \
        else MomentPoly.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = MomentPoly.const(draw(fracs))
        for s in draw(st.lists(symbols, min_size=1, max_size=2)):
            term = term * MomentPoly.symbol(s.family, s.index)
        p = p + term
    return p


# numbers (ints, Fractions, zeros) and MomentPoly entries in one row
mixed_entries = st.one_of(entries, sparse_polys(), sparse_polys())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.data())
def test_laplace_det_matches_cofactor_on_moment_polys(n, data):
    rows = [[data.draw(mixed_entries) for _ in range(n)] for _ in range(n)]
    assert det(rows) == det_cofactor(rows)


def test_symbolic_det_never_calls_cofactor(monkeypatch, formal_c, formal_d):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return det_cofactor(rows)
    monkeypatch.setattr(rings, "det_cofactor", counting)
    rows = block_hankel_rows(5, 4, 2, 0, 1, formal_c, formal_d)
    assert det(rows[:4]) and tau_det(5, 0, formal_c)
    assert all(last_block(rows))
    assert calls == []


def _sympy_expr(sympy, p):
    return sympy.Add(*[sympy.Rational(str(c))
                       * sympy.Mul(*[sympy.Symbol(str(s)) for s in mono])
                       for mono, c in p.items()])


def test_formal_determinants_match_sympy(formal_c, formal_d):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    for n in range(1, 7):
        for l, alpha, beta in ((0, 0, 0), (n // 2, -1, 2), (n, 3, -2)):
            rows = block_hankel_rows(n, n, l, alpha, beta, formal_c, formal_d)
            dm = DomainMatrix.from_Matrix(sympy.Matrix(
                [[_sympy_expr(sympy, x) for x in row] for row in rows]))
            assert dm.det() == dm.domain.from_sympy(_sympy_expr(sympy, det(rows)))


def test_det_bareiss_matches_sympy(rand_window):
    sympy = pytest.importorskip("sympy")
    for seed, lo in ((11, -6), (12, -3), (13, -1)):
        m = rand_window(seed, lo, 34, 999, 99)
        for n in (1, 2, 5, 9, 12, 16):
            for alpha in (lo, 0, 3):
                rows = [[m.get(alpha + i + j) for j in range(n)] for i in range(n)]
                expected = sympy.Matrix(
                    [[sympy.Rational(x.numerator, x.denominator) for x in r]
                     for r in rows]).det()
                got = det_bareiss(rows)
                assert (got.numerator, got.denominator) == \
                    (expected.p, expected.q)


def per_minor_cofactors(rows):
    k = len(rows) - 1
    return [(-1) ** (r + k) * det_cofactor(rows[:r] + rows[r + 1:])
            for r in range(k + 1)]


def last_block(rows):
    """The k+1 last-column cofactors of a (k+1) x k body."""
    return leading_minors(rows, bordered=True)[-1]


@settings(deadline=None)
@given(st.integers(0, 5), st.booleans(), st.data())
def test_bordered_cofactors_match_minors(k, symbolic, data):
    pick = mixed_entries if symbolic else entries
    rows = [[data.draw(pick) for _ in range(k)] for _ in range(k + 1)]
    assert last_block(rows) == per_minor_cofactors(rows)


@pytest.mark.parametrize("k_hi", range(7))
def test_formal_leading_minors_match_cofactor(k_hi, formal_c, formal_d,
                                              rand_window):
    numeric_c = rand_window(31, -4, 16)
    for C, D in ((formal_c, formal_d), (numeric_c, formal_d)):
        for l in sorted({0, k_hi // 2, k_hi}):
            rows = block_hankel_rows(k_hi, k_hi, l, 1, -1, C, D)
            assert leading_minors(rows) == [
                det_cofactor([r[:t] for r in rows[:t]])
                for t in range(k_hi + 1)]
            body = block_hankel_rows(k_hi + 1, k_hi, l, 1, -1, C, D)
            assert leading_minors(body, bordered=True) == [
                per_minor_cofactors([r[:t] for r in body[:t + 1]])
                for t in range(k_hi + 1)]


def _run_shape(rows) -> tuple[list[int], list[int]]:
    """The signs the swapping Bareiss run yields on rows, one per row it
    reaches, and its final row permutation."""
    m, _ = rings._integer_rows(rows)
    perm = list(range(len(m)))
    return list(_eliminate(m, perm)), perm


def _swapping_bodies() -> list:
    """(n+1) x n bodies whose leading minors vanish: Hankel windows with
    negative lo and 30-85% zeros, hermite at odd alpha (a checkerboard of
    zeros), and hand-made bodies for each way a zero pivot is met."""
    rng = random.Random(43)
    out = []
    for i in range(160):
        lo = rng.randint(-6, -1)
        m = seeded_window(rng, lo, lo + 14, num=9, den=4,
                          zeros=rng.choice((0.3, 0.5, 0.7, 0.85)))
        n, a = rng.randint(1, 6), rng.randint(lo - 2, 1)
        out.append([[m.get(a + i + j) for j in range(n)] for i in range(n + 1)])
    hermite = MomentSequence.named("hermite")
    out += [[[hermite.get(a + i + j) for j in range(n)] for i in range(n + 1)]
            for a in (-1, 1, 3) for n in range(1, 7)]
    f = Fraction
    out += [
        # zero pivots at steps 0 and 2; the second swaps in the last row
        [[0, 1, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]],
        # the first nonzero entry of column 0 is two rows down
        [[0, 1], [0, f(2, 3)], [3, 0]],
        [[0, 2, 1], [0, 1, 1], [0, 1, 0], [f(1, 2), 1, 1]],
        # column 1 is zero on and below the pivot after step 0
        [[1, 2, 0], [2, 4, 1], [3, 6, 2], [4, 8, 5]],
        [[0, 1], [0, 3], [0, f(1, 2)]],
    ]
    return out


def test_swapping_run_matches_cofactor_expansion():
    # every leading minor and bordered block, past every zero pivot, by
    # one swapping run against one cofactor expansion per minor
    seen = dict.fromkeys(("zero minor", "two zero minors", "reach",
                          "ends early", "last row swapped in"), 0)
    for rows in _swapping_bodies():
        n = len(rows) - 1
        square = rows[:n]
        minors = [det_cofactor([r[:t] for r in square[:t]])
                  for t in range(n + 1)]
        assert leading_minors(square) == minors
        assert leading_minors(rows, bordered=True) == [
            per_minor_cofactors([r[:t] for r in rows[:t + 1]])
            for t in range(n + 1)]
        assert det_bareiss(square) == minors[n]
        assert det_bareiss(rows[1:]) == det_cofactor(rows[1:])
        zeros = minors[1:n].count(0)
        seen["zero minor"] += zeros > 0
        seen["two zero minors"] += zeros > 1
        signs, perm = _run_shape(rows)
        seen["reach"] += 0 in signs
        seen["ends early"] += len(signs) < len(rows)
        seen["last row swapped in"] += perm[n] != n
    assert min(seen.values()) >= 3, seen


def test_bordered_cofactors_edge_cases():
    assert last_block([[]]) == [1]
    f = Fraction
    # rank 1 < k = 2: every 2 x 2 minor vanishes, even past the first pivot
    assert last_block([[f(1), f(2)], [f(2), f(4)], [f(-1), f(-2)]]) \
        == [0, 0, 0]
    # a zero first column ends the elimination at once
    assert last_block([[0, 1], [0, 3], [0, f(1, 2)]]) == [0, 0, 0]
    # zero pivots force a row swap in each of the first two steps
    swap = [[0, 0, 1], [2, 0, 1], [f(1, 2), f(1, 2), 0], [1, 2, 3]]
    assert last_block(swap) == per_minor_cofactors(swap)
    assert last_block(swap) == [f(-7, 2), f(1, 2), -4, 1]
    with pytest.raises(ValueError):
        last_block([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        last_block([])


def test_bordered_cofactors_moment_poly(formal_c, formal_d):
    c = [MomentPoly.symbol("c", i) for i in range(5)]
    rows = [[c[i], c[i + 1]] for i in range(3)]
    assert last_block(rows) == per_minor_cofactors(rows)
    assert last_block(rows)[2] == c[0] * c[2] - c[1] ** 2
    for k in range(1, 6):
        for l in (0, k // 2, k):
            rows = block_hankel_rows(k + 1, k, l, -1, 1, formal_c, formal_d)
            assert last_block(rows) == per_minor_cofactors(rows)
            # and with zero entries
            holes = [[MomentPoly.zero() if (i + j) % 3 == 0 else x
                      for j, x in enumerate(row)] for i, row in enumerate(rows)]
            assert last_block(holes) == per_minor_cofactors(holes)


def test_det_edge_cases():
    assert det([]) == 1
    assert det([[Fraction(5)]]) == 5
    row = [Fraction(1), Fraction(2)]
    assert det([row, row[:]]) == 0
    c = [MomentPoly.symbol("c", i) for i in range(3)]
    assert det([[c[0], c[1]], [c[1], c[2]]]) == c[0] * c[2] - c[1] ** 2
    # numbers and MomentPoly only: the Laplace kernel has no generic ring
    z = LaurentPoly.z_pow(1)
    with pytest.raises(TypeError, match="LaurentPoly"):
        det([[z, c[0]], [c[1], z]])


all_symbols = st.builds(MomentSymbol, st.sampled_from(["c", "d", "e"]),
                        st.integers(-6, 6))
coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9,
                                      max_denominator=8))


@st.composite
def printable_polys(draw):
    # a constant term one time in two, then terms c * s_1^p_1 * ... with
    # powers up to 4 over all three families and negative indices
    p = MomentPoly.const(draw(coefficients)) if draw(st.booleans()) \
        else MomentPoly.zero()
    for _ in range(draw(st.integers(0, 5))):
        term = MomentPoly.const(draw(coefficients))
        for s in draw(st.lists(all_symbols, max_size=3)):
            term = term * MomentPoly.symbol(s.family, s.index) ** \
                draw(st.integers(1, 4))
        p = p + term
    return p


@settings(max_examples=300)
@given(printable_polys())
def test_moment_poly_str_matches_reference(p):
    assert str(p) == moment_poly_str(p)


def test_moment_poly_str_edges():
    c0, d1, e_2 = (MomentPoly.symbol(f, i) for f, i in
                   (("c", 0), ("d", 1), ("e", -2)))
    for p, text in [(MomentPoly.zero(), "0"), (MomentPoly.const(-1), "-1"),
                    (MomentPoly.const(Fraction(-1, 2)), "-1/2"),
                    (-c0, "-c_0"), (c0 ** 2 * d1 - 1, "-1 + c_0^2*d_1"),
                    (Fraction(3, 4) * e_2 ** 3 * c0 - d1 * e_2,
                     "3/4 c_0*e_-2^3 - d_1*e_-2")]:
        assert str(p) == moment_poly_str(p) == text


def test_matrix_identity_and_diagonal():
    one = LaurentPoly.const(Fraction(1))
    eye = LaurentMatrix.identity(2)
    d = diagonal_z([1, -1])
    assert eye @ d == d
    assert d.entries[0][0] == LaurentPoly.z_pow(1)
    assert d.entries[1][1] == LaurentPoly.z_pow(-1)
    assert d.entries[0][1] == LaurentPoly.zero()
    assert d.det() == one


@settings(max_examples=30)
@given(st.data())
def test_matrix_product_det_and_assoc(data):
    def mat():
        return LaurentMatrix([[data.draw(laurent_polys()) for _ in range(2)]
                              for _ in range(2)])
    a, b, c = mat(), mat(), mat()
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b).det() == a.det() * b.det()


def test_matrix_min_degree():
    m = LaurentMatrix([[LaurentPoly.z_pow(2), LaurentPoly.z_pow(-1)],
                       [LaurentPoly.zero(), LaurentPoly.const(Fraction(1))]])
    assert m.min_degree() == -1
    assert m.scale(Fraction(2)).entries[0][0] == LaurentPoly.z_pow(2, Fraction(2))
