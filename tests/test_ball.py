import math
from fractions import Fraction

import pytest

from starklab.ball import (Ball, CBall, Undecided, ball_det, ball_exp,
                           ball_from_json, ball_log, ball_log_int, ball_pi,
                           ball_sqrt, gauss_solve, working_precision)



def test_exact_integers_and_rationals():
    x = Ball(Fraction(1, 3))
    assert x.rad() < Fraction(1, 2 ** 120)
    assert (x * 3 - 1).contains_zero()
    big = Ball(2 ** 200 + 1)
    lo, hi = big.endpoints()
    assert lo <= 2 ** 200 + 1 <= hi
    neg = Ball(Fraction(-1, 3))
    lo, hi = neg.endpoints()
    assert lo <= Fraction(-1, 3) <= hi


def test_enclosures_contain_truth():
    # 50-digit reference values, well inside the 128-bit enclosures
    two = ball_log_int(2)
    ref = Fraction(
        "0.69314718055994530941723212145817656807550013436026")
    lo, hi = two.endpoints()
    assert lo < ref < hi
    pi = ball_pi()
    assert pi.contains(Fraction(
        "3.1415926535897932384626433832795028841971693993751"))
    assert ball_exp(Ball(0)).contains(1)
    assert ball_sqrt(Ball(2)).contains(Fraction(
        "1.4142135623730950488016887242096980785696718753769"))


def test_certified_predicates():
    assert Ball(5, Fraction(1, 10)).unique_integer() == 5
    with pytest.raises(Undecided):
        Ball(Fraction(1, 2), Fraction(1, 100)).unique_integer()
    with pytest.raises(Undecided):
        Ball(0, 1).sign()
    assert Ball(3, Fraction(1, 10)).sign() == 1
    assert Ball(Fraction(3, 8), Fraction(1, 100)).unique_rational(8) \
        == Fraction(3, 8)
    with pytest.raises(Undecided):
        (Ball(1) / Ball(0, 1))


def test_precision_scoping():
    with working_precision(64):
        a = Ball(Fraction(1, 7))
        assert a.rad() < Fraction(1, 2 ** 55)
    with working_precision(256):
        b = Ball(Fraction(1, 7))
        assert b.rad() < Fraction(1, 2 ** 240)


def test_json_roundtrip_encloses():
    b = ball_log_int(7)
    b2 = ball_from_json(b.to_json())
    lo, hi = b.endpoints()
    lo2, hi2 = b2.endpoints()
    assert lo2 <= lo and hi <= hi2


def test_complex_balls():
    w = CBall.root_of_unity(1, 3)
    assert ((w * w * w) - 1).contains_zero()
    assert (w * w.conj() - 1).contains_zero()
    exact = CBall.root_of_unity(1, 4)
    assert exact.re.endpoints() == (0, 0)  # special angle stays exact
    with pytest.raises(Undecided):
        CBall(1, 1).real_part_certified()


def test_linear_algebra():
    A = [[Ball(2), Ball(1)], [Ball(1), Ball(3)]]
    sol = gauss_solve(A, [Ball(5), Ball(10)])
    assert (sol[0] - 1).contains_zero() and (sol[1] - 3).contains_zero()
    assert (ball_det(A) - 5).contains_zero()
    with pytest.raises(Undecided):
        gauss_solve([[Ball(0, 1)]], [Ball(1)])
    # determinant with a zero-straddling column still encloses the truth
    Z = [[Ball(0, Fraction(1, 1000)), Ball(1)], [Ball(0), Ball(1)]]
    d = ball_det(Z)
    assert d.contains_zero()
