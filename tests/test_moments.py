from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import tauq.moments
from tauq import (
    MomentParseError,
    MomentPoly,
    MomentSequence,
    ResourceBoundError,
    SupportError,
    build_moments,
    serialize,
)
from tauq.moments import MAX_DECIMAL_EXPONENT, MAX_RANDOM_SPAN


def test_catalan_values(catalan):
    assert [catalan.get(i) for i in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan.get(-1) == 0
    assert catalan.get(-5) == 0


def test_hermite_values(hermite):
    assert [hermite.get(i) for i in range(7)] == [
        1, 0, Fraction(1, 2), 0, Fraction(3, 4), 0, Fraction(15, 8)]
    assert hermite.get(-2) == 0


def test_catalan_matches_convolution_recurrence(catalan):
    # C_0 = 1, C_{n+1} = sum_j C_j C_{n-j}, over ints
    ref = [1]
    for n in range(400):
        ref.append(sum(ref[j] * ref[n - j] for j in range(n + 1)))
    assert [catalan.get(n) for n in range(401)] == ref
    assert all(catalan.get(n) == 0 for n in range(-60, 0))


def test_hermite_matches_ratio_recurrence(hermite):
    # m_0 = 1, m_{2j+2} = m_{2j} (2j + 1) / 2, and 0 at odd indices
    even = Fraction(1)
    for j in range(401):
        assert hermite.get(2 * j) == even
        assert hermite.get(2 * j - 1) == 0
        even = even * (2 * j + 1) / 2
    assert all(hermite.get(i) == 0 for i in range(-60, 0))


def test_window_lookup_and_support():
    w = MomentSequence.window(-1, [Fraction(0), Fraction(2), Fraction(3)])
    assert w.get(-1) == 0
    assert w.get(0) == 2
    assert w.get(5) == 0
    assert w.support() == (0, 1)
    assert w.is_finite and not w.is_formal
    assert MomentSequence.zero().support() is None
    assert MomentSequence.window(3, [Fraction(0)]).support() is None


def test_support_requires_window(catalan, formal_c):
    with pytest.raises(SupportError):
        catalan.support()
    with pytest.raises(SupportError):
        formal_c.support()


def test_formal_sequence(formal_c, formal_d):
    v = formal_c.get(2)
    assert v == MomentPoly.symbol("c", 2)
    assert formal_d.get(0) == MomentPoly.symbol("d", 0)
    assert formal_c.is_formal
    assert formal_c.ring_one() == MomentPoly.one()
    assert formal_c.ring_zero() == MomentPoly.zero()


def test_numeric_ring_elements(catalan):
    assert catalan.ring_one() == Fraction(1)
    assert catalan.ring_zero() == Fraction(0)


def test_truncated(catalan):
    w = catalan.truncated(-1, 3)
    assert w.is_finite
    assert [w.get(i) for i in range(-1, 4)] == [0, 1, 1, 2, 5]
    assert w.get(4) == 0


def test_truncate_formal_rejected(formal_c):
    with pytest.raises(SupportError):
        formal_c.truncated(0, 2)


def test_equality_trims_zero_padding():
    a = MomentSequence.window(0, [Fraction(1), Fraction(0)])
    b = MomentSequence.window(-1, [Fraction(0), Fraction(1)])
    assert a == b
    assert a != MomentSequence.window(0, [Fraction(2)])
    assert MomentSequence.named("catalan") == MomentSequence.named("catalan")
    assert MomentSequence.named("catalan") != MomentSequence.named("hermite")


def test_build_window_from_json_strings():
    m = build_moments('{"kind": "window", "lo": -1, "values": ["1/2", "0", "3"]}')
    assert m.get(-1) == Fraction(1, 2)
    assert m.get(1) == 3


def test_build_named():
    m = build_moments({"kind": "named", "name": "hermite"})
    assert m.get(2) == Fraction(1, 2)


def test_build_random_is_deterministic():
    spec = {"kind": "random", "seed": 42, "lo": -2, "hi": 4,
            "max_abs_num": 6, "max_den": 4}
    m = build_moments(spec)
    assert m == build_moments(spec)
    assert [str(m.get(i)) for i in range(-2, 5)] == \
        ["-4/3", "-3/4", "-2", "2", "3/2", "-4/3", "0"]


@given(st.integers(0, 2 ** 32), st.integers(-3, 3), st.integers(0, 8))
def test_build_random_values_in_range(seed, lo, width):
    m = build_moments({"kind": "random", "seed": seed, "lo": lo,
                       "hi": lo + width, "max_abs_num": 5, "max_den": 3})
    for i in range(lo, lo + width + 1):
        v = m.get(i)
        assert abs(v.numerator) <= 5 * v.denominator or abs(v) <= 5
        assert -5 <= v <= 5


@pytest.mark.parametrize("spec,field", [
    ({"kind": "polynomial"}, "kind"),
    ({}, "kind"),
    ({"kind": "named", "name": "legendre"}, "name"),
    ({"kind": "window", "lo": 0}, "values"),
    ({"kind": "window", "lo": "x", "values": ["1"]}, "lo"),
    ({"kind": "window", "lo": 0, "values": ["1/0"]}, "values[0]"),
    ({"kind": "window", "lo": 0, "values": ["pi"]}, "values[0]"),
    ({"kind": "random", "seed": -1, "lo": 0, "hi": 2,
      "max_abs_num": 1, "max_den": 1}, "seed"),
    ({"kind": "random", "seed": 0, "lo": 2, "hi": 0,
      "max_abs_num": 1, "max_den": 1}, "hi"),
    ({"kind": "random", "seed": 0, "lo": 0, "hi": 2,
      "max_abs_num": 1, "max_den": 0}, "max_den"),
])
def test_build_rejects_bad_specs(spec, field):
    with pytest.raises(MomentParseError) as exc:
        build_moments(spec)
    assert exc.value.field == field


def test_build_rejects_non_object():
    with pytest.raises(MomentParseError):
        build_moments("[1, 2]")
    with pytest.raises(MomentParseError):
        build_moments("{not json")


def test_serialize_round_trip(catalan):
    w = MomentSequence.window(-1, [Fraction(1, 2), Fraction(3)])
    assert build_moments(serialize(w)) == w
    assert build_moments(serialize(catalan)) == catalan


def test_serialize_formal_rejected(formal_c):
    with pytest.raises(SupportError):
        serialize(formal_c)


def test_random_span_bound():
    spec = {"kind": "random", "seed": 1, "lo": -1, "max_abs_num": 3, "max_den": 2}
    assert len(build_moments({**spec, "hi": MAX_RANDOM_SPAN - 2}).values) == \
        MAX_RANDOM_SPAN
    for hi in (MAX_RANDOM_SPAN - 1, 10 ** 8):
        with pytest.raises(MomentParseError) as exc:
            build_moments({**spec, "hi": hi})
        assert exc.value.field == "hi"


@pytest.mark.parametrize("text", ["1e10000000", "-2.5E-1001", "3e+00_1001",
                                  "1e" + "9" * 5000])
def test_decimal_exponent_bound(text):
    with pytest.raises(MomentParseError) as exc:
        build_moments({"kind": "window", "lo": 0, "values": ["1", text]})
    assert exc.value.field == "values[1]"


def test_decimal_exponent_within_bound():
    m = build_moments({"kind": "window", "lo": 0,
                       "values": ["1e1000", "-25E-1000", "7/2"]})
    assert m.get(0) == 10 ** MAX_DECIMAL_EXPONENT
    assert m.get(1) == Fraction(-25, 10 ** 1000)


@pytest.mark.parametrize("name", ["catalan", "hermite"])
def test_named_index_bound(monkeypatch, name):
    # the bound is checked before comb or prod, so 10**18 raises at once
    m = MomentSequence.named(name)
    monkeypatch.setattr(tauq.moments, "MAX_NAMED_INDEX", 10)
    assert m.get(10) == {"catalan": 16796, "hermite": Fraction(945, 32)}[name]
    assert m.get(-10 ** 18) == 0
    for i in (11, 10 ** 18):
        with pytest.raises(ResourceBoundError):
            m.get(i)
