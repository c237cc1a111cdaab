import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from starklab.ball import Ball, ball_log_int, working_precision
from starklab.grpring import AbelianGroup, GroupRingElement, InputError
from starklab.lfun import (AbelianFieldRealization, DirichletChar, Jet,
                           LSpec, UnresolvedOrderError, WrongOrderError,
                           bernoulli_value, hurwitz_jet, invert_ball_element,
                           l_jet, leading_term_element, stickelberger_element,
                           theoretical_order, validate_rubin_shape)


def _close(ball, ref, tol=1e-25):
    return abs(float(ball.mid()) - ref) < tol + float(ball.rad())


def test_hurwitz_known_constants():
    j = hurwitz_jet(Fraction(1), 1)
    assert j.coeffs[0] == Fraction(-1, 2)
    mp.prec = 220
    assert _close(j.coeffs[1], float(-mp.log(2 * mp.pi) / 2), 1e-35)
    j2 = hurwitz_jet(Fraction(1, 2), 1)
    assert j2.coeffs[0] == 0
    assert _close(j2.coeffs[1], -math.log(2) / 2, 1e-35)
    with working_precision(64):
        ja = hurwitz_jet(Fraction(1, 4), 0)
        jb = hurwitz_jet(Fraction(3, 4), 0)
    assert ja.coeffs[0] + jb.coeffs[0] == 0


def test_hurwitz_derivative_matches_loggamma():
    mp.prec = 220
    for num, den in [(1, 3), (2, 5), (7, 10), (1, 12)]:
        j = hurwitz_jet(Fraction(num, den), 1)
        ref = float(mp.loggamma(mp.mpf(num) / den) - mp.log(2 * mp.pi) / 2)
        assert _close(j.coeffs[1], ref, 1e-30), (num, den)


def test_hurwitz_second_order_against_numerical_diff():
    # independent check of c_2 by high-precision central differences
    mp.prec = 300
    x = Fraction(1, 3)
    j = hurwitz_jet(x, 2)
    h = mp.mpf(1) / 10 ** 12
    xm = mp.mpf(1) / 3
    second = (mp.zeta(h, xm) - 2 * mp.zeta(0, xm) + mp.zeta(-h, xm)) / h ** 2
    assert _close(j.coeffs[2], float(second / 2), 1e-10)


def test_hurwitz_input_validation():
    with pytest.raises(InputError):
        hurwitz_jet(Fraction(3, 2), 1)
    with pytest.raises(Exception), working_precision(10):
        hurwitz_jet(Fraction(1, 2), 1)


def test_characters():
    chi3 = DirichletChar.quadratic(-3)
    assert chi3.parity() == -1 and chi3.conductor() == 3
    chi5 = DirichletChar.quadratic(5)
    assert chi5.parity() == 1 and chi5.order == 2
    triv = DirichletChar.trivial(12)
    assert triv.conductor() == 1
    prod = chi3.mul(chi3)
    assert prod.order == 1
    assert chi3.inverse().values == chi3.values  # quadratic: self-inverse
    # induced-vs-primitive consistency: chi mod 15 induced from mod 3
    chi15 = DirichletChar(15, 2, [
        None if math.gcd(a, 15) != 1 else chi3(a) for a in range(15)])
    prim = chi15.primitive()
    assert prim.conductor() == 3 and prim.values == chi3.values


def test_theoretical_orders():
    chi5 = DirichletChar.quadratic(5)
    chi3 = DirichletChar.quadratic(-3)
    assert theoretical_order(chi5, ["inf", 5]) == 1
    assert theoretical_order(chi3, ["inf", 3]) == 0
    assert theoretical_order(DirichletChar.trivial(1), ["inf", 2]) == 1
    assert theoretical_order(DirichletChar.trivial(1), ["inf", 2, 3]) == 2
    # a split prime in S raises the order: chi5(11) = 1
    assert theoretical_order(chi5, ["inf", 5, 11]) == 2
    assert theoretical_order(chi5, ["inf", 5, 7]) == 1


def test_bernoulli_values():
    assert bernoulli_value(DirichletChar.quadratic(-3), ["inf", 3]) \
        == Fraction(1, 3)
    assert bernoulli_value(DirichletChar.quadratic(-4), ["inf", 2]) \
        == Fraction(1, 2)
    assert bernoulli_value(DirichletChar.quadratic(-4), ["inf", 2], [3]) \
        == Fraction(2)
    assert bernoulli_value(DirichletChar.trivial(1), ["inf"]) \
        == Fraction(-1, 2)
    with pytest.raises(WrongOrderError):
        bernoulli_value(DirichletChar.quadratic(5), ["inf", 5])
    # T-factor is exactly (1 - chi(q) q)
    chi = DirichletChar.quadratic(-4)
    base = bernoulli_value(chi, ["inf", 2])
    assert bernoulli_value(chi, ["inf", 2], [7]) == base * (1 - (-1) * 7)
    assert bernoulli_value(chi, ["inf", 2], [5]) == base * (1 - 1 * 5)


def test_l_jet_examples():
    spec = LSpec(DirichletChar.trivial(1), ["inf", 2], [], truncation=1)
    j = l_jet(spec)
    assert j.order == 1
    assert _close(j.coeffs[1], -math.log(2) / 2, 1e-30)
    j0 = l_jet(LSpec(DirichletChar.quadratic(-3), ["inf", 3], [],
                     truncation=1))
    assert j0.order == 0 and j0.coeffs[0] == Fraction(1, 3)
    j5 = l_jet(LSpec(DirichletChar.quadratic(5), ["inf", 5], [],
                     truncation=1))
    assert j5.order == 1
    assert _close(j5.coeffs[1], math.log((1 + math.sqrt(5)) / 2), 1e-11)


def test_l_jet_exact_leading_value_agreement():
    import sympy
    for D in [-3, -4, -7, -8, -11, -15]:
        chi = DirichletChar.quadratic(D)
        S = ["inf"] + sorted(sympy.factorint(abs(D)))
        T = [5] if D == -3 else [7] if D == -15 else [3]
        exact = bernoulli_value(chi, S, T)
        with working_precision(80):
            jet = l_jet(LSpec(chi, S, T, truncation=1))
        assert jet.coeffs[0] == exact  # the exact path survives the jets


def test_s_enlargement_property():
    chi5 = DirichletChar.quadratic(5)
    j1 = l_jet(LSpec(chi5, ["inf", 5], [], truncation=2))
    j2 = l_jet(LSpec(chi5, ["inf", 5, 11], [], truncation=2))
    assert j1.order == 1 and j2.order == 2
    ratio = j2.coeffs[2] / j1.coeffs[1]
    assert (ratio - ball_log_int(11)).contains_zero()


def test_jet_multiplication_order_additivity():
    rng = random.Random(6)
    for _ in range(25):
        r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
        K = 4
        c1 = [Fraction(0)] * r1 + [Fraction(rng.randint(1, 5))] \
            + [Fraction(rng.randint(-3, 3)) for _ in range(K - r1)]
        c2 = [Fraction(0)] * r2 + [Fraction(rng.randint(1, 5))] \
            + [Fraction(rng.randint(-3, 3)) for _ in range(K - r2)]
        j1 = Jet(c1[:K + 1], order=r1)
        j2 = Jet(c2[:K + 1], order=r2)
        prod = j1 * j2
        assert prod.order == r1 + r2
        if prod.order <= prod.truncation:
            assert prod.coeffs[prod.order] == c1[r1] * c2[r2]
            for k in range(prod.order):
                assert prod.coeffs[k] == 0


def test_unresolved_order():
    chi5 = DirichletChar.quadratic(5)
    with pytest.raises(UnresolvedOrderError):
        l_jet(LSpec(chi5, ["inf", 5, 11], [], truncation=1))


def test_realizations():
    R5 = AbelianFieldRealization.quadratic(5)
    assert R5.degree() == 2 and R5.ramified_primes() == [5]
    assert R5.splits_completely("inf") and R5.splits_completely(11)
    assert not R5.splits_completely(2)
    assert sorted(R5.dirichlet(c).conductor()
                  for c in R5.group.all_characters()) == [1, 5]
    assert not AbelianFieldRealization.quadratic(-4).splits_completely("inf")
    Rbi = AbelianFieldRealization.multiquadratic([8, 12])
    assert Rbi.degree() == 4
    assert sorted(Rbi.dirichlet(c).conductor()
                  for c in Rbi.group.all_characters()) == [1, 8, 12, 24]
    assert Rbi.splits_completely(23) and not Rbi.splits_completely(5)
    assert AbelianFieldRealization.rationals().degree() == 1
    # generic modulus/kernel realization: index validation
    R = AbelianFieldRealization(5, [4], expected_degree=2)
    assert R.degree() == 2
    with pytest.raises(InputError):
        AbelianFieldRealization(5, [4], expected_degree=4)


def test_rubin_shape_validation():
    R5 = AbelianFieldRealization.quadratic(5)
    with pytest.raises(InputError):
        validate_rubin_shape(R5, [5], [], [3])          # no infinite place
    with pytest.raises(InputError):
        validate_rubin_shape(R5, ["inf"], [], [3])      # missing ramified
    with pytest.raises(InputError):
        validate_rubin_shape(R5, ["inf", 5], ["inf", 5], [3])  # V not proper
    with pytest.raises(InputError):
        validate_rubin_shape(R5, ["inf", 5, 2], [2], [3])  # 2 inert
    validate_rubin_shape(R5, ["inf", 5], ["inf"], [3])


def test_stickelberger_exact_cases():
    R = AbelianFieldRealization.quadratic(-4)
    th = stickelberger_element(R, ["inf", 2], [], [5])
    assert th == GroupRingElement(R.group, "rat", [Fraction(-1), Fraction(1)])
    assert th.aug() == 0  # = zeta_{Q,S,T}(0), which vanishes
    R23 = AbelianFieldRealization.quadratic(-23)
    th23 = stickelberger_element(R23, ["inf", 23], [], [3])
    assert th23 == GroupRingElement(R23.group, "rat",
                                    [Fraction(-3), Fraction(3)])


def test_stickelberger_first_order():
    R5 = AbelianFieldRealization.quadratic(5)
    th = stickelberger_element(R5, ["inf", 5], ["inf"], [2])
    log5, logeps = math.log(5), math.log((1 + math.sqrt(5)) / 2)
    assert _close(th.coeffs[0], (log5 / 2 + 3 * logeps) / 2, 1e-11)
    assert _close(th.coeffs[1], (log5 / 2 - 3 * logeps) / 2, 1e-11)
    with pytest.raises(InputError):
        stickelberger_element(R5, ["inf", 5], [5], [3])


def test_leading_term_element_and_inverse():
    R5 = AbelianFieldRealization.quadratic(5)
    lt, orders = leading_term_element(R5, ["inf", 5], [3])
    assert orders == {(0,): 1, (1,): 1}
    inv = invert_ball_element(lt)
    prod = lt * inv
    assert (prod.coeffs[0] - 1).contains_zero()
    assert prod.coeffs[1].contains_zero()


def test_complex_character_jet():
    # a quartic character mod 5: exercise the complex-ball path
    R = AbelianFieldRealization(5, [1], expected_degree=4)
    chars = R.group.all_characters()
    quartic = next(c for c in chars if c.order() == 4)
    chi = R.dirichlet(quartic)
    assert chi.order == 4
    with working_precision(96):
        jet = l_jet(LSpec(chi, ["inf", 5], [], truncation=1))
    # odd quartic character mod 5: nonvanishing at 0, known exact value
    assert jet.order == 0  # odd quartic character
    exact = bernoulli_value(chi, ["inf", 5])
    assert jet.coeffs[0] == exact  # the exact cyclotomic path is preserved
    assert not exact.is_zero()
