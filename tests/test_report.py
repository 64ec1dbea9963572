"""VerificationReport decides pass or fail from the two sides it is given."""
import contextlib
import io
from fractions import Fraction

from tauq import MomentPoly, VerificationReport
from tauq.cli import finish_report


def test_unequal_sides_fail_and_print_both():
    report = VerificationReport("demo")
    report.add_check({"k": 0}, Fraction(1, 2), Fraction(1, 3))
    report.add_check({"k": 1}, MomentPoly.symbol("c", 0), 0)
    assert [c.passed for c in report.checks] == [False, False]
    assert [(c.lhs, c.rhs) for c in report.checks] == [("1/2", "1/3"),
                                                       ("c_0", "0")]
    assert (report.total, report.passes, report.failures) == (2, 0, 2)
    assert not report.ok and report.failed_checks() == report.checks
    assert report.to_dict()["checks"][0] == {
        "instance": {"k": 0}, "pass": False, "lhs": "1/2", "rhs": "1/3"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert finish_report(report, "pretty") == 1
    assert out.getvalue().splitlines() == [
        "demo: 2 checks, 0 pass, 2 FAIL",
        "  FAIL {'k': 0}: lhs=1/2 rhs=1/3",
        "  FAIL {'k': 1}: lhs=c_0 rhs=0"]


def test_equal_fraction_sides_print_once():
    report = VerificationReport("demo")
    report.add_check({"k": 0}, Fraction(2, 4), Fraction(1, 2))
    # equal sides of different types pass too
    report.add_check({"k": 1}, Fraction(3), 3)
    first, second = report.checks
    assert first.passed and first.lhs == "1/2" and first.rhs is first.lhs
    assert second.passed and (second.lhs, second.rhs) == ("3", "3")
    assert report.ok and report.summary_line() == "demo: 2 checks, 2 pass"
