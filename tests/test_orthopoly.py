from fractions import Fraction

import pytest

from tauq import (
    DegenerateTauError,
    HankelForm,
    LaurentPoly,
    MonicPolynomial,
    bordered_tau_poly,
    form_eval,
    monic_op,
    mop_bordered_poly,
    mop_type2,
    recurrence_coeffs,
    recurrence_reconstruct,
    tau3_e0_det,
    tau_det,
    verify_mop,
    verify_orthogonality,
)
from tauq.rings import det_cofactor
from tauq.tau_gl3 import block_hankel_rows

from reference import gram_schmidt_monic


def test_hankel_form_eval(catalan):
    form = HankelForm(catalan, 0)
    assert form.moment(3) == 5
    assert form_eval(form, LaurentPoly.z_pow(1), LaurentPoly.z_pow(2)) == 5
    assert form_eval(form, 1, 1) == 1
    shifted = HankelForm(catalan, 2)
    assert form_eval(shifted, LaurentPoly.z_pow(1), 1) == 5


def test_hankel_form_is_bilinear(catalan):
    form = HankelForm(catalan, 0)
    f = LaurentPoly.z_pow(2) - LaurentPoly.const(Fraction(3))
    g = LaurentPoly.z_pow(1) + LaurentPoly.const(Fraction(1, 2))
    direct = form_eval(form, f, g)
    expanded = (form_eval(form, LaurentPoly.z_pow(2), g)
                - 3 * form_eval(form, LaurentPoly.const(Fraction(1)), g))
    assert direct == expanded


def test_form_rejects_negative_powers(catalan):
    form = HankelForm(catalan, 0)
    with pytest.raises(ValueError):
        form_eval(form, LaurentPoly.z_pow(-1), 1)


def test_monic_polynomial_api():
    p = MonicPolynomial([Fraction(-1, 2), Fraction(0), Fraction(1)])
    assert p.degree == 2
    assert p.coeff(0) == Fraction(-1, 2)
    assert p.coeff(5) == 0
    assert p(Fraction(2)) == Fraction(7, 2)
    assert str(p) == "z^2 - 1/2"
    assert p == p.as_laurent()
    assert MonicPolynomial.from_laurent(p.as_laurent()) == p
    assert hash(MonicPolynomial([Fraction(1)])) == hash(MonicPolynomial([Fraction(1)]))


def test_monic_polynomial_validation():
    with pytest.raises(ValueError):
        MonicPolynomial([Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        MonicPolynomial.from_laurent(LaurentPoly.z_pow(-1))
    with pytest.raises(ValueError):
        MonicPolynomial.from_laurent(LaurentPoly.z_pow(1, Fraction(2)))


def test_monic_op_known_values(catalan, hermite):
    assert str(monic_op(2, 0, catalan)) == "z^2 - 3 z + 1"
    assert str(monic_op(3, 0, catalan)) == "z^3 - 5 z^2 + 6 z - 1"
    assert str(monic_op(2, 0, hermite)) == "z^2 - 1/2"
    assert str(monic_op(3, 0, hermite)) == "z^3 - 3/2 z"
    assert monic_op(0, 0, catalan) == MonicPolynomial([Fraction(1)])


def test_monic_op_degenerate(catalan):
    with pytest.raises(DegenerateTauError) as exc:
        monic_op(1, -1, catalan)
    assert exc.value.indices == {"k": 1, "alpha": -1}


def test_bordered_leading_coefficient_is_tau(hermite, rand_window):
    # monic_op and mop_type2 divide by this coefficient instead of a
    # second determinant; degenerate minors included (odd hermite offsets)
    C, D = rand_window(61, -2, 9, 3, 2), rand_window(62, -1, 9, 1, 1)
    for k in range(6):
        for a in (-1, 0, 1):
            for m in (hermite, C):
                assert bordered_tau_poly(k, a, m).coeff(k) == tau_det(k, a, m)
            for l in range(k + 1):
                assert mop_bordered_poly(k, l, a, 1, C, D).coeff(k) == \
                    tau3_e0_det(k, l, a, 1, C, D)
    with pytest.raises(DegenerateTauError) as exc:
        monic_op(-1, 0, hermite)
    assert exc.value.indices == {"k": -1, "alpha": 0}
    with pytest.raises(DegenerateTauError) as exc:
        mop_type2(1, 2, 0, 0, C, D)
    assert exc.value.indices == {"k": 1, "l": 2, "alpha": 0, "beta": 0}


def test_bordered_poly_matches_per_minor_expansion(rand_window, formal_c,
                                                   formal_d):
    # the old route: one determinant per minor of the (k+1) x k body,
    # signed by (-1)^(r + k + l(l+1)/2)
    def per_minor(k, l, a, b, C, D):
        rows = block_hankel_rows(k + 1, k, l, a, b, C, D)
        sign = (-1) ** (l * (l + 1) // 2)
        return LaurentPoly({r: sign * (-1) ** (r + k)
                            * det_cofactor(rows[:r] + rows[r + 1:])
                            for r in range(k + 1)})
    C, D = rand_window(71, -3, 14, 99, 9), rand_window(72, -2, 14, 1, 1)
    cases = 0
    for k in range(7):
        for l in range(min(k, 2) + 1):
            for a, b in ((-2, 1), (0, 0), (1, -1)):
                for pair in ((C, D), (D, C)):
                    assert mop_bordered_poly(k, l, a, b, *pair) == \
                        per_minor(k, l, a, b, *pair)
                    cases += 1
    for k in range(4):
        for l in range(min(k, 2) + 1):
            assert mop_bordered_poly(k, l, 0, 0, formal_c, formal_d) == \
                per_minor(k, l, 0, 0, formal_c, formal_d)
    assert cases == 2 * 3 * (1 + 2 + 3 * 5)


def test_gram_schmidt_matches_determinant_route(catalan, hermite):
    for m in (catalan, hermite):
        assert gram_schmidt_monic(m, 0, 5) == [monic_op(k, 0, m) for k in range(6)]


def test_verify_orthogonality_counts_and_norms(catalan):
    r = verify_orthogonality(catalan, (0, 0), 5)
    assert (r.total, r.failures, r.skipped) == (15 + 6, 0, [])
    norm_checks = [c for c in r.checks if c.instance["identity"] == "norm"]
    assert len(norm_checks) == 6
    # catalan at offset 0 has every tau equal to 1, so every norm is 1
    assert all(c.lhs == "1" for c in norm_checks)


def test_norms_match_tau_ratio(hermite):
    form = HankelForm(hermite, 0)
    for k in range(5):
        p = monic_op(k, 0, hermite)
        assert form_eval(form, p, p) == \
            tau_det(k + 1, 0, hermite) / tau_det(k, 0, hermite)


def test_recurrence_coeffs_frozen(catalan, hermite):
    assert recurrence_coeffs(catalan, 0, 5) == \
        [(Fraction(1), Fraction(0))] + [(Fraction(2), Fraction(1))] * 4
    assert recurrence_coeffs(hermite, 0, 6) == \
        [(Fraction(0), Fraction(k, 2)) for k in range(6)]


def test_recurrence_reconstruct_round_trip(catalan):
    coeffs = recurrence_coeffs(catalan, 0, 6)
    assert recurrence_reconstruct(coeffs) == \
        [monic_op(k, 0, catalan) for k in range(7)]


def test_recurrence_degenerate(catalan):
    with pytest.raises(DegenerateTauError):
        recurrence_coeffs(catalan, -1, 3)


def test_mop_worked_values(catalan, linear_window):
    assert str(mop_type2(1, 1, 0, 0, catalan, linear_window)) == "z - 2"
    assert str(mop_type2(2, 1, 0, 0, catalan, linear_window)) == "z^2 - z - 1"


def test_mop_collapses_to_single_family(catalan, linear_window):
    for k in range(5):
        assert mop_type2(k, 0, 0, 0, catalan, linear_window) == \
            monic_op(k, 0, catalan)


def test_mop_validation_and_degeneracy(catalan, linear_window):
    # B_{k,l} is 0 outside the cone 0 <= l <= k, as tau_{k,l} is at E = 0
    for k, l in ((1, 2), (1, -1), (-1, 0)):
        assert mop_bordered_poly(k, l, 0, 0, catalan, linear_window) == \
            LaurentPoly.zero()
        assert tau3_e0_det(k, l, 0, 0, catalan, linear_window) == 0
    with pytest.raises(DegenerateTauError):
        mop_type2(3, 3, 0, 0, catalan, linear_window)


def test_verify_mop_counts(catalan, linear_window):
    r = verify_mop(catalan, linear_window, (2, 2), (1, 1), (0, 0), (0, 0))
    assert (r.total, r.failures) == (2, 0)
    fams = sorted(c.instance["family"] for c in r.checks)
    assert fams == ["c", "d"]
    r = verify_mop(catalan, linear_window, (0, 0), (0, 0), (0, 0), (0, 0))
    assert (r.total, r.skipped) == (0, [])


def test_mop_conditions_split(catalan, linear_window):
    # degree-4, two conditions against d, two against c
    p = mop_type2(4, 2, 0, 0, catalan, linear_window)
    fc = HankelForm(catalan, 0)
    fd = HankelForm(linear_window, 0)
    for n in range(2):
        assert form_eval(fc, p, LaurentPoly.z_pow(n)) == 0
        assert form_eval(fd, p, LaurentPoly.z_pow(n)) == 0
