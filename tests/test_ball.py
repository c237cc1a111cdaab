import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_int, from_man_exp, fzero
from mpmath.libmp.libmpi import mpi_exp

from starklab import ball
from starklab.ball import (Ball, CBall, Undecided, ball_det,
                           ball_log, ball_log_int, ball_pi, ball_ratio,
                           ball_sqrt, gauss_solve, working_precision)


def ball_exp(x):
    """exp(x) as a certified ball."""
    b = x if isinstance(x, Ball) else Ball(x)
    return Ball._wrap(mpi_exp(b._v, ball._PREC))


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


def test_log_int_is_cached_per_precision():
    with working_precision(64):
        ball_log_int(7)
    with working_precision(256):
        fine = ball_log_int(7)
        assert fine.rad() < Fraction(1, 2 ** 240)
    with working_precision(64):
        coarse = ball_log_int(7)
        assert coarse.rad() > Fraction(1, 2 ** 80)
    ball._log_int.cache_clear()
    with working_precision(64):
        assert ball_log_int(7).endpoints() == coarse.endpoints()
    with working_precision(256):
        assert ball_log_int(7).endpoints() == fine.endpoints()


def test_json_roundtrip_encloses():
    b = ball_log_int(7)
    obj = b.to_json()
    b2 = Ball(Fraction(obj["mid"]), Fraction(obj["rad"]))
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


# -- the raw-endpoint predicates against their Fraction definitions ----------

_frac = ball._raw_to_fraction

_mpf = st.one_of(
    st.just(fzero),
    st.builds(from_man_exp,
              st.integers(-2 ** 140, 2 ** 140).filter(bool),
              st.one_of(st.integers(-300, 300),
                        st.integers(-5000, 5000))))


@st.composite
def _ball(draw):
    """A Ball with arbitrary binary endpoints, or Ball(Fraction) of a
    non-dyadic rational at a random precision."""
    if draw(st.booleans()):
        a, b = draw(_mpf), draw(_mpf)
        if _frac(a) > _frac(b):
            a, b = b, a
        return Ball._wrap((a, b))
    n = draw(st.integers(-10 ** 60, 10 ** 60))
    d = draw(st.integers(1, 10 ** 40))
    with working_precision(draw(st.sampled_from([53, 64, 128, 256]))):
        return Ball(Fraction(n, d))


def _points(b):
    """x at and one ulp either side of each endpoint, and 0."""
    out = {Fraction(0)}
    for raw in b._v:
        x = _frac(raw)
        ulp = Fraction(2) ** raw[2] if raw[1] else Fraction(1, 2 ** 200)
        out |= {x, x - ulp, x + ulp}
    return out


@settings(max_examples=300, deadline=None)
@given(_ball(), st.lists(st.fractions(), max_size=3))
def test_predicates_match_fraction_endpoints(b, extra):
    lo, hi = b.endpoints()
    assert b.contains_zero() == (lo <= 0 <= hi)
    assert b.is_nonzero() == (hi < 0 or lo > 0)
    assert b.is_zero() == (lo == hi == 0)
    if lo > 0 or hi < 0 or lo == hi == 0:
        assert b.sign() == (1 if lo > 0 else -1 if hi < 0 else 0)
    else:
        with pytest.raises(Undecided) as err:
            b.sign()
        assert err.value.radius == (hi - lo) / 2
    for x in _points(b) | set(extra):
        assert b.contains(x) == (lo <= x <= hi), x
        if x.denominator == 1:
            assert b.contains(int(x)) == (lo <= x <= hi), x


def test_predicates_on_exact_points():
    assert Ball(0).is_zero() and Ball(0).sign() == 0
    assert not Ball(0, Fraction(1, 8)).is_zero()
    third = Ball(Fraction(1, 3))
    assert third.contains(Fraction(1, 3)) and third.sign() == 1
    lo, hi = third.endpoints()
    assert third.contains(lo) and third.contains(hi)
    assert not third.contains(hi + Fraction(1, 2 ** 300))
    big = Ball(2 ** 4000 + 1)
    assert big.contains(2 ** 4000 + 1) and not big.contains(2 ** 4000)
    tiny = Ball._wrap((from_man_exp(1, -5000), from_man_exp(3, -5000)))
    assert tiny.is_nonzero() and tiny.contains(Fraction(1, 2 ** 4999))
    assert not tiny.contains(Fraction(1, 2 ** 5001))


@pytest.mark.parametrize("raw", [(fninf, from_int(1)), (fzero, finf),
                                 (fnan, fnan), (from_int(1), finf)])
def test_non_finite_endpoints_raise(raw):
    b = Ball._wrap(raw)
    for query in (b.contains_zero, b.is_nonzero, b.is_zero, b.sign,
                  lambda: b.contains(1), lambda: b.contains(Fraction(1, 3)),
                  lambda: ball_log(b), lambda: ball_sqrt(b)):
        with pytest.raises(ValueError):
            query()


@given(st.integers(-10 ** 80, 10 ** 80), st.integers(1, 10 ** 50),
       st.integers(1, 10 ** 30), st.sampled_from([53, 64, 128, 256]))
@settings(deadline=None)
def test_ball_ratio_is_ball_of_the_fraction(n, d, g, bits):
    # an unreduced pair n g / d g rounds to the same endpoints as the
    # Fraction, including integer quotients longer than the precision
    with working_precision(bits):
        assert ball_ratio(n * g, d * g)._v == Ball(Fraction(n, d))._v
        assert ball_ratio(n * d * g, g)._v == Ball(n * d)._v
