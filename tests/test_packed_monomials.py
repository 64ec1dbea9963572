"""The packed-exponent ``MomentPoly`` against the sorted-tuple ring it
replaced (``reference.MomentPoly``).

Every polynomial is built twice, by the same operations in both rings, and
the two must agree on every observable: the string, ``items`` in order, the
hash, ``symbols``, ``evaluate`` and the terms themselves. Operands are drawn
on disjoint, nested and overlapping symbol sets, so the packed ring re-keys
them onto a union basis first, and the widening cases push a degree bound
past one 8-bit field.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tauq import MomentPoly, MomentSymbol, det
from tauq.rings import (_FAMILY_RANK, _FAMILY_SHIFT, _INDEX_BOUND,
                        det_cofactor, leading_minors)

import reference
from reference import MomentPoly as RefPoly

SYMBOLS = [MomentSymbol(f, i) for f in "cde" for i in range(-4, 5)]
coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9,
                                      max_denominator=8))


def pack(s: MomentSymbol) -> int:
    return _FAMILY_RANK[s.family] << _FAMILY_SHIFT | s.index + _INDEX_BOUND


def as_ref(x) -> RefPoly:
    """A number or a packed polynomial as a reference polynomial."""
    if not isinstance(x, MomentPoly):
        return RefPoly.const(x)
    return RefPoly({tuple(map(pack, mono)): c for mono, c in x.items()})


def assign(s: MomentSymbol) -> Fraction:
    return Fraction(2 * s.index + "cde".index(s.family) - 3, 5)


def assert_same(p: MomentPoly, ref: RefPoly, same_route=True) -> None:
    """p and ref agree; in term order too when built the same way."""
    assert str(p) == str(ref) == reference.moment_poly_str(p)
    assert repr(p) == repr(ref)
    if same_route:
        assert list(p.items()) == list(ref.items())
    assert dict(p.items()) == dict(ref.items())
    assert hash(p) == hash(ref)
    assert p.symbols() == ref.symbols()
    assert p.evaluate(assign) == ref.evaluate(assign)
    assert as_ref(p).terms == ref.terms
    assert bool(p) == bool(ref)


@st.composite
def pools(draw):
    """Two symbol pools that are disjoint, nested or overlapping."""
    syms = draw(st.permutations(SYMBOLS))
    kind = draw(st.sampled_from(["disjoint", "nested", "overlapping"]))
    if kind == "disjoint":
        return syms[:4], syms[4:8]
    if kind == "nested":
        return syms[:6], syms[:3]
    return syms[:5], syms[3:8]


@st.composite
def paired(draw, pool, max_terms=4, max_power=20, max_factors=3):
    """One polynomial over pool in both rings, by the same operations: a
    constant one time in two, then terms c * s_1^p_1 * ... ."""
    new, ref = MomentPoly.zero(), RefPoly.zero()
    if draw(st.booleans()):
        c = draw(coefficients)
        new, ref = MomentPoly.const(c), RefPoly.const(c)
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coefficients)
        tn, tr = MomentPoly.const(c), RefPoly.const(c)
        for s in draw(st.lists(st.sampled_from(pool), max_size=max_factors)):
            e = draw(st.integers(1, max_power))
            tn = tn * MomentPoly.symbol(*s) ** e
            tr = tr * RefPoly.symbol(*s) ** e
        new, ref = new + tn, ref + tr
    return new, ref


operand_pairs = pools().flatmap(
    lambda ab: st.tuples(paired(ab[0]), paired(ab[1])))


@settings(max_examples=200, deadline=None)
@given(operand_pairs, st.integers(0, 3), coefficients)
def test_ring_operations_match_reference(pair, n, c):
    (a, ra), (b, rb) = pair
    for p, ref in [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
                   (b - a, rb - ra), (a * b, ra * rb), (b * a, rb * ra),
                   (-a, -ra), (a ** n, ra ** n), (a * c, ra * c),
                   (c - b, c - rb), (a + c, ra + c)]:
        assert_same(p, ref)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(operand_pairs, coefficients)
def test_cancellation_matches_reference(pair, c):
    (a, ra), (b, rb) = pair
    # each result sits on the union basis, with slots no term uses
    back = (a + b) - b
    assert_same(back, (ra + rb) - rb)
    assert back == a and hash(back) == hash(a)
    assert_same(a * b - b * a, ra * rb - rb * ra)
    assert not a * b - b * a and a * b - b * a == 0
    shifted = (a + c) - a
    assert_same(shifted, (ra + c) - ra)
    assert shifted == MomentPoly.const(c) == c
    assert hash(shifted) == hash(MomentPoly.const(c))


numbers = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-5, 5),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))
SMALL_POOL = [MomentSymbol(f, i) for f in "cde" for i in range(-2, 3)]
entries = st.one_of(numbers.map(lambda x: (x, x)),
                    paired(SMALL_POOL, max_terms=2, max_power=3,
                           max_factors=2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_laplace_kernels_match_reference_cofactor(n, data):
    pairs = [[data.draw(entries) for _ in range(n)] for _ in range(n + 1)]
    rows = [[x for x, _ in row] for row in pairs]
    refs = [[r for _, r in row] for row in pairs]
    assert as_ref(det(rows[:n])) == det_cofactor(refs[:n])
    # numeric and MomentPoly rows alike give every minor and block
    minors = leading_minors(rows[:n])
    assert minors[0] == 1
    assert len(minors) == n + 1
    for t in range(1, len(minors)):
        assert as_ref(minors[t]) == det_cofactor([r[:t] for r in refs[:t]])
    bordered = leading_minors(rows, bordered=True)
    assert len(bordered) == n + 1
    for t, got in enumerate(bordered):
        body = [r[:t] for r in refs[:t + 1]]
        want = [(-1) ** (i + t) * (det_cofactor(body[:i] + body[i + 1:])
                                   if t else RefPoly.one())
                for i in range(t + 1)]
        assert [as_ref(x) for x in got] == want


# -- widening: a degree bound past one field widens it, never wraps --------

def sym(family, index):
    return MomentPoly.symbol(family, index), RefPoly.symbol(family, index)


def test_power_past_one_field_widens():
    c0, rc0 = sym("c", 0)
    p = c0 ** 300
    assert p.width > 8
    assert_same(p, rc0 ** 300)
    assert str(p) == "c_0^300"
    q = (c0 ** 200) * (c0 ** 100)
    assert_same(q, (rc0 ** 200) * (rc0 ** 100))
    assert q == p and hash(q) == hash(p)
    # a narrow operand meets a widened one on the wider fields
    assert_same(p + c0 - 1, rc0 ** 300 + rc0 - 1)
    assert p - p + c0 == c0 and hash(p - p + c0) == hash(c0)


def test_product_power_past_one_field_widens():
    d, rd = sym("d", -1)
    e, re = sym("e", 5)
    p = (d * e) ** 130
    assert p.bound == 260 and p.width > 8
    assert_same(p, (rd * re) ** 130)
    assert str(p) == "d_-1^130*e_5^130"
    assert_same(p * d - d ** 131 * e ** 130, (rd * re) ** 130 * rd
                - rd ** 131 * re ** 130)


def test_laplace_determinant_past_one_field_widens():
    # each line's largest entry degree is 100, so three lines need 300
    def matrix(ring):
        c = [ring.symbol("c", i) for i in range(4)]
        d = [ring.symbol("d", i) for i in range(3)]
        return [[c[0] ** 100, c[1], d[0]],
                [d[1] ** 90 + 1, c[2] ** 100, 2],
                [c[3], c[0] * d[2] ** 99, c[1] ** 100]]
    rows, refs = matrix(MomentPoly), matrix(RefPoly)
    got = det(rows)
    assert got.width > 8
    # the Laplace kernel and cofactor expansion meet terms in other orders
    assert_same(got, det_cofactor(refs), same_route=False)
    minors = leading_minors(rows)
    assert_same(minors[2], det_cofactor([r[:2] for r in refs[:2]]),
                same_route=False)


def test_basis_longer_than_a_byte_of_slots():
    syms = [sym(f, i) for f in "cde" for i in range(-50, 50)]
    p, ref = MomentPoly.zero(), RefPoly.zero()
    for s, rs in syms:
        p, ref = p + s, ref + rs
    assert len(p.basis) == 300
    assert_same(p, ref)
    # 45,150 terms: the string and the terms, not every observable
    square, ref_square = p * p, ref * ref
    assert str(square) == str(ref_square)
    assert as_ref(square).terms == ref_square.terms
