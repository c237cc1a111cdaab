import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_rational
from sympy.functions.combinatorial.numbers import stirling

from starklab.arith import bernoulli
from starklab.ball import (Ball, CBall, CertificationError, PrecisionError,
                           Undecided, ball_log_int, precision,
                           working_precision)
from starklab.finite import GroupStructure
from starklab import lfun
from starklab.grpring import AbelianGroup, GroupRingElement, InputError
from starklab.hnf import diagonalize_relations
from starklab.lfun import (AbelianFieldRealization, DirichletChar, LSpec,
                           UnresolvedOrderError, WrongOrderError,
                           _kronecker_table, _plan, bernoulli_value,
                           hurwitz_jet, l_jet, stickelberger_element,
                           theoretical_order)
from starklab.numfld import (QuadField, RubinDatum,
                             is_fundamental_discriminant, kronecker)

from cyclo_oracle import CycloField


def trivial_char(f):
    """The trivial character mod f."""
    if f == 1:
        return DirichletChar(1, 1, [0])
    return DirichletChar(f, 1, [0 if math.gcd(a, f) == 1 else None
                                for a in range(f)])


def _mid(ball):
    lo, hi = ball.endpoints()
    return (lo + hi) / 2


def _close(ball, ref, tol=1e-25):
    return abs(float(_mid(ball)) - ref) < tol + float(ball.rad())


def leading_terms(real, S, T):
    """{character label: (r_chi, L*_{S,T}(chi^-1, 0))}, each leading term
    read from `l_jet` at its theoretical order r_chi."""
    out = {}
    for chi in real.group.all_characters():
        lead = l_jet(LSpec(real.dirichlet(chi).inverse(), S, T))
        out[chi.exponents] = lead.order, lead.value
    return out


def test_hurwitz_known_constants():
    # sum_{a in C} zeta'(0, a/f) over a mirror-closed class C is
    # -sum_{a < f/2} log(2 sin(pi a / f)): -log(3)/2 for {1, 2} mod 3,
    # -log(2)/2 for {1, 3} mod 4, 0 for {1, 5} mod 6, and -log(p)/2 for
    # every unit mod a prime p, as prod_{a < p/2} 2 sin(pi a / p) = sqrt p
    for f, res, want in [(3, [1, 2], -math.log(3) / 2),
                         (4, [1, 3], -math.log(2) / 2),
                         (5, [1, 2, 3, 4], -math.log(5) / 2),
                         (7, list(range(1, 7)), -math.log(7) / 2)]:
        assert _close(hurwitz_jet(f, res), want, 1e-35), (f, res)
    assert hurwitz_jet(6, [1, 5]).contains(0)


def test_hurwitz_derivative_matches_loggamma():
    # Lerch: zeta'(0, x) = log Gamma(x) - log(2 pi) / 2, so the class
    # {a, f - a} has c_1 = log Gamma(a/f) + log Gamma(1 - a/f) - log(2 pi)
    mp.prec = 220
    for num, den in [(1, 3), (2, 5), (3, 10), (1, 12)]:
        c1 = hurwitz_jet(den, [num, den - num])
        x = mp.mpf(num) / den
        ref = float(mp.loggamma(x) + mp.loggamma(1 - x) - mp.log(2 * mp.pi))
        assert _close(c1, ref, 1e-30), (num, den)


def test_hurwitz_input_validation():
    # a class is a nonempty list of residues in 1..f - 1, closed under
    # a -> f - a, with no repeats and without the fixed point f/2
    for f, residues in [(5, []), (5, [0, 5]), (5, [1, 6]), (0, [1]),
                        (5, [1]), (7, [1, 2, 4]), (5, [1, 4, 1, 4]),
                        (1, [1]), (2, [1]), (10, [3, 5, 7]),
                        (5, [1, 4, 5])]:
        with pytest.raises(InputError):
            hurwitz_jet(f, residues)
    with pytest.raises(PrecisionError), working_precision(10):
        hurwitz_jet(5, [1, 4])


ORACLE_CLASSES = [(3, [1, 2]), (5, [1, 4]), (5, [2, 3]), (7, [1, 6]),
                  (10, [3, 7]), (12, [1, 5, 7, 11]), (293, [150, 143])]


def _is_unit_group(f, res):
    """Is the class res, of distinct residues, every unit mod f?"""
    return len(res) == sympy.totient(f) \
        and all(math.gcd(a, f) == 1 for a in res)


def _assert_minus_half_mangoldt(f, c1, bits):
    """c_1 of the units mod f is -Lambda(f) / 2, as sum_{(a, f) = 1}
    zeta(s, a/f) = f^s zeta(s) prod_{p | f} (1 - p^-s): an exact zero,
    of radius 0, when f has two primes or more, and otherwise a ball that
    contains -log(p) / 2, computed by mpmath at 2 bits + 64 bits.  A sum
    of zeta'(0, a/f) in mpmath is not exactly 0 there, so it is no oracle
    for this class."""
    primes = sympy.primefactors(f)
    if len(primes) > 1:
        assert c1.rad() == 0 and c1.contains(0), (bits, f)
        return
    with mp.workprec(2 * bits + 64):
        ref = -mp.log(primes[0]) / 2
    assert c1.contains(Fraction(*to_rational(ref._mpf_))), (bits, f)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_hurwitz_jet_encloses_mpmath(prec):
    # c_1 of each class encloses the sum of zeta'(0, a/f) that mpmath
    # computes, at more than twice the precision of c_1, except the two
    # whole unit groups, held to the exact -Lambda(f) / 2
    assert [(f, res) for f, res in ORACLE_CLASSES
            if _is_unit_group(f, res)] == [(3, [1, 2]), (12, [1, 5, 7, 11])]
    for f, res in ORACLE_CLASSES:
        with working_precision(prec):
            c1 = hurwitz_jet(f, res)
        if _is_unit_group(f, res):
            _assert_minus_half_mangoldt(f, c1, prec)
            continue
        with mp.workprec(2 * prec + 64):
            v = mp.fsum(mp.zeta(0, mp.mpf(a) / f, derivative=1) for a in res)
            assert c1.contains(Fraction(*to_rational(v._mpf_))), (prec, f)


def test_hurwitz_c1_radius_is_the_tail_bound_plus_little_rounding():
    # at 128 bits the tail bound is about 2^-156, so the radius is the
    # rounding of the evaluation: the logs, each one step wide, and one
    # rounding of their exact combination keep that below 2^-(prec+5)
    prec = precision()
    tail = _plan(prec).spread.rad()  # rounded up
    for f, res in ORACLE_CLASSES:
        rad = hurwitz_jet(f, res).rad()
        assert rad <= 2 * len(res) * tail + Fraction(2) ** -(prec + 5), f


def _fraction_tail_radius(N, B):
    """The remainder bound r_1 as an exact Fraction, the way the tail
    radius table computed it before it stored rounded balls: |B_2B| / (2B)!
    times the upper end of the ball N^(1 - 2B) / (2B - 1) [2B, 1], with
    sympy's unsigned Stirling number [2B, 1], the coefficient of s in
    s(s + 1)...(s + 2B - 1)."""
    a_exp = 2 * B - 1
    low = Ball(N) ** (-a_exp) * (Ball(0) + Ball(1) * Fraction(1, a_exp))
    bound = (low * int(stirling(2 * B, 1, kind=1))).endpoints()[1]
    return abs(bernoulli(2 * B)) / math.factorial(2 * B) * abs(bound)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_hurwitz_tail_is_bit_identical_to_the_fraction_sum(bits):
    # the plan's r_1 is the Fraction bound of the rising factorial,
    # rounded once
    plan = _plan(bits)
    with working_precision(bits):
        radius = Ball(0, _fraction_tail_radius(plan.N, plan.B))
    assert plan.spread._v == radius._v


def _even_classes(f):
    """The value classes of the even characters of (Z/f)^x, each once, as
    the oracle groups them: for f < 100 from every character, and for a
    prime f as the cosets of the subgroups <g^d> with -1 in them, for a
    primitive root g."""
    if f < 100:
        R = AbelianFieldRealization(f, [])
        return sorted({tuple(residues) for c in R.group.all_characters()
                       if R.dirichlet(c).parity() == 1
                       for _rep, residues in _oracle_classes(
                           R.dirichlet(c)).values()})
    g = next(g for g in range(2, f) if all(
        pow(g, (f - 1) // q, f) != 1 for q in sympy.factorint(f - 1)))
    return sorted({tuple(sorted(pow(g, i + d * k, f)
                                for k in range((f - 1) // d)))
                   for d in sympy.divisors((f - 1) // 2) for i in range(d)})


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_class_c1_is_the_reflection_formula(bits):
    # zeta'(0, x) + zeta'(0, 1 - x) = -log(2 sin(pi x)), from
    # log Gamma(x) + log Gamma(1 - x) = log(pi / sin(pi x)) and Lerch's
    # zeta'(0, x) = log Gamma(x) - log(2 pi) / 2; so a mirror-closed class
    # has c_1 = -sum_{a < f/2} log(2 sin(pi a / f)), which mpmath computes
    # at 2 bits + 64 bits.  Every even character's classes mod f for
    # 3 <= f <= 60, and mod the primes 997 and 4001.  The class of all
    # units mod f, the kernel of the trivial character, is held to the
    # exact -Lambda(f) / 2 instead
    classes = [(f, res) for f in list(range(3, 61)) + [997, 4001]
               for res in _even_classes(f)]
    assert len(classes) > 6000
    units = {(f, res) for f, res in classes if _is_unit_group(f, res)}
    assert len(units) == 60
    with working_precision(bits):
        values = [hurwitz_jet(f, list(res)) for f, res in classes]
    with mp.workprec(2 * bits + 64):
        logs = {}
        for (f, res), c1 in zip(classes, values):
            if (f, res) in units:
                _assert_minus_half_mangoldt(f, c1, bits)
                continue
            for a in res:
                if 2 * a < f and (f, a) not in logs:
                    logs[f, a] = mp.log(2 * mp.sin(mp.pi * a / f))
            ref = -mp.fsum(logs[f, a] for a in res if 2 * a < f)
            assert c1.contains(Fraction(*to_rational(ref._mpf_))), (bits, f)


def _fraction_etas(N, B, M):
    """eta_0..eta_M of h(v) = (N' (1 + v) - 1/2) log(1 + v)
    + sum_j beta_j (N' (1 + v))^(1 - 2j), N' = N + 1/2, in Fractions, with
    sympy's Bernoulli numbers: log(1 + v) = sum_k (-1)^(k+1) v^k / k and
    (1 + v)^(1 - 2j) = sum_k binomial(1 - 2j, k) v^k."""
    Np = N + Fraction(1, 2)
    beta = [Fraction(int(b.p), int(b.q)) / (2 * j * (2 * j - 1))
            for j in range(1, B + 1) for b in [sympy.bernoulli(2 * j)]]
    out = []
    for k in range(M + 1):
        h = sum(b * Np ** (1 - 2 * j) * int(sympy.binomial(1 - 2 * j, k))
                for j, b in enumerate(beta, 1))
        if k:
            h += (Np - Fraction(1, 2)) * Fraction((-1) ** (k + 1), k)
        if k > 1:
            h += Np * Fraction((-1) ** k, k - 1)
        out.append(h)
    return out, beta


@pytest.mark.parametrize("bits", [53, 80, 128, 160, 256])
def test_midpoint_series_is_the_fraction_table_and_its_bound_holds(bits):
    # the integer table over one denominator is the Fraction table, and at
    # v = +-1/(2N + 1), the ends of the range, and at v = +-1/(7 (2N + 1)),
    # each partial sum is within its bound 2^-exps[k] of h(v), evaluated
    # by mpmath at 2 bits + 64 bits
    plan = _plan(bits)
    N, H, D, exps, rads = plan.N, plan.H, plan.D, plan.exps, plan.rads
    etas, beta = _fraction_etas(N, plan.B, len(H) - 1)
    assert [Fraction(h, D) for h in H] == etas
    assert exps[-1] >= bits + 64 and list(exps) == sorted(exps)
    assert [r.endpoints()[1] for r in rads] == \
        [Fraction(2) ** -e for e in exps]
    T = 2 * N + 1
    for v in (Fraction(1, T), Fraction(-1, T), Fraction(1, 7 * T),
              Fraction(-1, 7 * T)):
        with mp.workprec(2 * bits + 64):
            vm = mp.mpf(v.numerator) / v.denominator
            w = (N + mp.mpf(1) / 2) * (1 + vm)
            h = (w - mp.mpf(1) / 2) * mp.log(1 + vm) + mp.fsum(
                mp.mpf(b.numerator) / b.denominator * w ** (1 - 2 * j)
                for j, b in enumerate(beta, 1))
            ref = Fraction(*to_rational(h._mpf_))
        partial = Fraction(0)
        for k, eta in enumerate(etas):
            partial += eta * v ** k
            assert abs(partial - ref) <= Fraction(2) ** -exps[k], (bits, v, k)


@pytest.mark.parametrize("bits", [53, 64, 80, 100, 128, 160, 256, 512,
                                  69, 83, 84, 89, 99])
def test_cutoffs_put_the_tail_bound_past_the_precision(bits):
    # the remainder bound r_1 is at most 2^-(prec + 20); where N is small
    # against prec (69..99 bits at its floor, and from 100 bits up)
    # B = prec // 5 alone would miss it, and B is the least that meets it
    plan = _plan(bits)
    N, B = plan.N, plan.B
    assert N == max(16, (bits + 32) // 8) and B >= bits // 5
    if B > bits // 5:
        with working_precision(bits):
            missed = Ball(0, _fraction_tail_radius(N, B - 1))
        assert missed.rad() > Fraction(2) ** -(bits + 20)
    assert plan.spread.rad() <= Fraction(2) ** -(bits + 20)


def test_one_plan_serves_every_class_at_a_precision():
    # the cutoffs, tail bound and midpoint table of a precision are built
    # once, whatever classes read them; the units mod 12, in closed form,
    # read no plan
    _plan.cache_clear()
    with working_precision(97):
        for _ in range(5):
            hurwitz_jet(7, [1, 6])
            hurwitz_jet(12, [1, 11])
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert hurwitz_jet(12, [1, 5, 7, 11]).is_zero()
    assert _plan.cache_info() == info


def test_class_jet_log_calls_do_not_grow_with_the_class(monkeypatch):
    # ball_log_int is called for (2N + 1) f and 2 alone, whatever the
    # class size; the 400 units mod the prime 401 take log 401 alone
    calls = []
    real = lfun.ball_log_int

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(lfun, "ball_log_int", counted)
    counts = {}
    for size in (2, 199, 200):
        closed = [a for b in range(1, size + 1) for a in (b, 401 - b)]
        hurwitz_jet(401, closed)    # the cutoff tables are built once
        calls.clear()
        hurwitz_jet(401, closed)
        counts[size] = sorted(calls)
    T = 2 * _plan(precision()).N + 1
    assert counts == {2: [2, T * 401], 199: [2, T * 401], 200: [401]}


def test_characters():
    chi3 = DirichletChar.quadratic(-3)
    assert chi3.parity() == -1 and chi3.conductor() == 3
    chi5 = DirichletChar.quadratic(5)
    assert chi5.parity() == 1 and chi5.order == 2
    triv = trivial_char(12)
    assert triv.conductor() == 1
    assert chi3.inverse().values == chi3.values  # quadratic: self-inverse
    # induced-vs-primitive consistency: chi mod 15 induced from mod 3
    chi15 = DirichletChar(15, 2, [
        None if math.gcd(a, 15) != 1 else chi3(a) for a in range(15)])
    prim = chi15.primitive()
    assert prim.conductor() == 3 and prim.values == chi3.values


def test_kronecker_table_is_the_kronecker_symbol():
    # the table from prime discriminants against kronecker(D, a) at every
    # a for each fundamental |D| <= 1500, and at random a for a D of six
    # digits; D = 1 is the trivial table
    for D in range(-1500, 1501):
        if D not in (0, 1) and is_fundamental_discriminant(D):
            assert _kronecker_table(D) == tuple(
                kronecker(D, a) for a in range(abs(D))), D
    assert _kronecker_table(1) == (1,)
    D = -256019
    table = _kronecker_table(D)
    assert len(table) == -D
    for a in random.Random(45).sample(range(-D), 2000):
        assert table[a] == kronecker(D, a), a
    # any other D is refused: squares, non-fundamental discriminants
    # (-12, 20, ...) and integers that are not discriminants at all
    for D in range(-1500, 1501):
        if D != 1 and not is_fundamental_discriminant(D):
            with pytest.raises(InputError):
                _kronecker_table(D)
    for D in (0, 2, 3, -1, -2, 6, 7, 15, -5, -6, -12, 20):
        with pytest.raises(InputError):
            DirichletChar.quadratic(D)


def _conductor_by_full_scan(chi):
    """The least divisor fp of f with chi = 1 on every unit = 1 mod fp,
    found by filtering all f residues for each divisor."""
    f = chi.modulus
    for fp in range(1, f + 1):
        if f % fp == 0 and all(chi(a) == 0 for a in range(1, f)
                               if math.gcd(a, f) == 1 and a % fp == 1 % fp):
            return fp


def test_conductor_steps_through_the_units_one_mod_each_divisor():
    # a character of (Z/f)^x / <k> is a character of (Z/f)^x trivial on k,
    # so the characters of (Z/f)^x cover every such quotient
    for f in range(1, 120):
        real = AbelianFieldRealization(f, [])
        for chi in real.group.all_characters():
            dchi = real.dirichlet(chi)
            assert dchi.conductor() == _conductor_by_full_scan(dchi), (f, chi)
    for D in range(-300, 301):
        if D not in (0, 1) and is_fundamental_discriminant(D):
            assert DirichletChar.quadratic(D).conductor() == abs(D)
            real = AbelianFieldRealization.quadratic(D)
            for chi in real.group.all_characters():
                dchi = real.dirichlet(chi)
                assert dchi.conductor() == _conductor_by_full_scan(dchi)


def test_parity_of_a_table_that_is_not_a_character_is_an_input_error():
    # chi(-1) = zeta_4: the table is no character, so it has no parity
    with pytest.raises(InputError):
        DirichletChar(5, 4, [None, 0, 1, 3, 1]).parity()


@pytest.mark.parametrize("modulus,order,values", [
    (5, 4, [None, 0, 4, 3, 1]),         # exponent beyond the order
    (5, 4, [None, 0, -1, 3, 1]),        # negative exponent
    (5, 4, [None, 0, 1.0, 3, 1]),       # not an integer
    (5, 4, [None, 0, 1, None, 1]),      # a unit without a value
    (5, 4, [0, 0, 1, 3, 1]),            # a value at 0, which is no unit
    (6, 2, [None, 0, 1, None, None, 1]),  # a value at 2, which is no unit
    (1, 1, [None]),                     # 0 is the unit mod 1
    (5, 4, [None, 0, 1, 3]),            # short table
])
def test_malformed_value_tables_are_input_errors(modulus, order, values):
    with pytest.raises(InputError):
        DirichletChar(modulus, order, values)


def test_value_classes_group_the_units_by_exponent():
    chi = DirichletChar(5, 4, [None, 0, 1, 3, 2])
    assert chi.classes() == ((0, (1,)), (1, (2,)), (3, (3,)), (2, (4,)))
    assert DirichletChar.quadratic(5).classes() == ((0, (1, 4)),
                                                     (1, (2, 3)))
    assert DirichletChar(1, 1, [0]).classes() == ((0, (1,)),)
    # a table that is well formed but not multiplicative is accepted:
    # that check would need a generating set of the units
    assert DirichletChar(5, 4, [None, 0, 1, 1, 0]).classes() == (
        (0, (1, 4)), (1, (2, 3)))


def test_theoretical_orders():
    chi5 = DirichletChar.quadratic(5)
    chi3 = DirichletChar.quadratic(-3)
    assert theoretical_order(chi5, ["inf", 5]) == 1
    assert theoretical_order(chi3, ["inf", 3]) == 0
    assert theoretical_order(trivial_char(1), ["inf", 2]) == 1
    assert theoretical_order(trivial_char(1), ["inf", 2, 3]) == 2
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
    assert bernoulli_value(trivial_char(1), ["inf"]) \
        == Fraction(-1, 2)
    with pytest.raises(WrongOrderError):
        bernoulli_value(DirichletChar.quadratic(5), ["inf", 5])
    # T-factor is exactly (1 - chi(q) q)
    chi = DirichletChar.quadratic(-4)
    base = bernoulli_value(chi, ["inf", 2])
    assert bernoulli_value(chi, ["inf", 2], [7]) == base * (1 - (-1) * 7)
    assert bernoulli_value(chi, ["inf", 2], [5]) == base * (1 - 1 * 5)


def _bernoulli_by_residue(chi, S, T):
    """-B_{1,chi} times the Euler factors, one Fraction per residue."""
    chi = chi.primitive()
    f = chi.conductor()
    field = CycloField(max(chi.order, 1))
    powers = [Fraction(0)] * field.e
    for a in range(1, f + 1):
        if chi(a) is not None:
            powers[chi(a)] += Fraction(1, 2) - Fraction(a, f)
    value = _from_powers(field, powers)
    for q in S:
        if q != "inf" and f % q != 0:
            value = value * (1 - _value_cyclo(chi, q, field))
    for q in T:
        value = value * (1 - _value_cyclo(chi, q, field) * q)
    return value


def test_bernoulli_value_matches_the_sum_by_residue():
    chars = [DirichletChar.quadratic(D) for D in (-3, -4, -8, -1011)]
    for modulus, kernel in [(5, []), (7, []), (9, []), (13, [3]), (15, [4]),
                            (16, [5]), (41, [])]:
        real = AbelianFieldRealization(modulus, kernel)
        chars += [real.dirichlet(c) for c in real.group.all_characters()]
    checked = 0
    for chi in chars:
        S = ["inf"] + sorted(sympy.factorint(chi.modulus)) + [11]
        if theoretical_order(chi, S) != 0:
            continue
        value = bernoulli_value(chi, S, [17])
        exact = _bernoulli_by_residue(chi, S, [17])
        if chi.order <= 2:
            assert value == exact
        else:
            assert _meets(value, exact.enclosure())
        checked += 1
    assert checked > 30


def _meets(value, ref):
    """Do the complex balls `value` and `ref` overlap in both parts, with
    `value` at most 2^-(prec - 16) wide in each at the working precision?"""
    wide = Fraction(1, 2 ** (precision() - 16))
    for part, ref_part in ((value.re, ref.re), (value.im, ref.im)):
        (lo, hi), (rlo, rhi) = part.endpoints(), ref_part.endpoints()
        if not (lo <= rhi and rlo <= hi and part.rad() <= wide):
            return False
    return True


def test_l_jet_examples():
    lead = l_jet(LSpec(trivial_char(1), ["inf", 2], []))
    assert lead.order == 1
    assert _close(lead.value, -math.log(2) / 2, 1e-30)
    lead = l_jet(LSpec(DirichletChar.quadratic(-3), ["inf", 3], []))
    assert lead.order == 0 and lead.value == Fraction(1, 3)
    lead = l_jet(LSpec(DirichletChar.quadratic(5), ["inf", 5], []))
    assert lead.order == 1
    assert _close(lead.value, math.log((1 + math.sqrt(5)) / 2), 1e-11)


def test_l_jet_exact_leading_value_agreement():
    for D in [-3, -4, -7, -8, -11, -15]:
        chi = DirichletChar.quadratic(D)
        S = ["inf"] + sorted(sympy.factorint(abs(D)))
        T = [5] if D == -3 else [7] if D == -15 else [3]
        exact = bernoulli_value(chi, S, T)
        with working_precision(80):
            lead = l_jet(LSpec(chi, S, T))
        assert lead.order == 0 and lead.value == exact


def test_s_enlargement_property():
    # 11 splits in Q(sqrt 5): L*_{S + {11}} = L*_S log 11
    chi5 = DirichletChar.quadratic(5)
    small = l_jet(LSpec(chi5, ["inf", 5], []))
    large = l_jet(LSpec(chi5, ["inf", 5, 11], []))
    assert small.order == 1 and large.order == 2
    ratio = large.value / small.value
    assert (ratio - ball_log_int(11)).contains_zero()


# moduli with real and complex, even and odd, primitive and imprimitive
# characters, and with 2, 3 or 5 among their primes or not
DIRICHLET_ORACLE_MODULI = [3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 19, 20, 21,
                           24, 25, 27, 28, 29, 31, 35, 36, 40, 44]


def _primes_off(f, count):
    """The first `count` primes that do not divide f."""
    return [q for q in sympy.primerange(2, 100) if f % q][:count]


def _mp_leading(chi, S, T):
    """(r, lim_{s->0} s^-r L_{S,T}(chi, s)) from mpmath at its working
    precision, for the primitive chi.  At order 0 the primitive value is
    mp.dirichlet's L(chi, 0); for an even nontrivial chi it is
    L'(chi, 0) = sum_a chi(a) log Gamma(a/f), Lerch's formula with
    sum_a chi(a) = 0.  Each finite q in S off f gives log q where
    chi(q) = 1 and 1 - chi(q) elsewhere, each q in T gives 1 - chi(q) q."""
    f, n = chi.conductor(), chi.order

    def value(a):
        t = chi(a)
        return 0 if t is None else mp.expjpi(mp.mpf(2 * t) / n)

    table = [value(a) for a in range(f)]
    if f > 1 and chi.parity() == 1:
        r = 1
        lead = mp.fsum(table[a] * mp.loggamma(mp.mpf(a) / f)
                       for a in range(1, f))
    else:
        r = 0
        lead = mp.dirichlet(0, table)
    for q in S:
        if q == "inf" or f % q == 0:
            continue
        if chi(q) == 0:
            r += 1
            lead *= mp.log(q)
        else:
            lead *= 1 - value(q)
    for q in T:
        lead *= 1 - value(q) * q
    return r, mp.mpc(lead)


def _encloses(value, ref, slack):
    """Does the leading value (a Fraction, a Ball or a CBall) enclose the
    complex mpmath reference, to within the slack that bounds the
    reference's own error?"""
    if isinstance(value, Fraction):
        parts = [(value, value), (0, 0)]
    else:
        if isinstance(value, Ball):
            value = CBall(value)
        parts = [value.re.endpoints(), value.im.endpoints()]
    return all(lo - slack <= Fraction(*to_rational(x._mpf_)) <= hi + slack
               for (lo, hi), x in zip(parts, (ref.real, ref.imag)))


@pytest.mark.parametrize("f", DIRICHLET_ORACLE_MODULI)
def test_leading_terms_enclose_the_mpmath_dirichlet_l_functions(f):
    # every character mod f, with S = {inf} and the primes of f, T empty,
    # and with the first two primes off f added to S and the third in T:
    # l_jet's order is r and its value encloses the leading term that
    # mpmath computes at 2 bits + 64 bits, at 53 and 128 bits
    R = AbelianFieldRealization(f, [])
    chars = [R.dirichlet(c) for c in R.group.all_characters()]
    base = ["inf"] + sorted(sympy.factorint(f))
    q1, q2, q3 = _primes_off(f, 3)
    cases = [(chi, S, T) for chi in chars
             for S, T in ((base, []), (base + [q1, q2], [q3]))]
    orders = set()
    for bits in (53, 128):
        with working_precision(bits):
            leads = [l_jet(LSpec(chi, S, T)) for chi, S, T in cases]
        slack = Fraction(1, 2 ** (2 * bits))
        with mp.workprec(2 * bits + 64):
            for (chi, S, T), lead in zip(cases, leads):
                r, ref = _mp_leading(chi.primitive(), S, T)
                assert lead.order == r, (f, S, T)
                assert _encloses(lead.value, ref, slack), \
                    (bits, f, chi.values, S, T)
                orders.add(r)
    assert 0 in orders and 1 in orders and max(orders) >= 2


def test_unresolved_order(monkeypatch):
    # a leading coefficient whose ball contains 0 is undecided, with the
    # radius of that ball
    chi5 = DirichletChar.quadratic(5)
    monkeypatch.setattr(lfun, "_primitive_leading", lambda chi, prec: (
        Ball(0, Fraction(1, 2 ** 90)), {}))
    with pytest.raises(UnresolvedOrderError) as info:
        l_jet(LSpec(chi5, ["inf", 5], []))
    assert isinstance(info.value, Undecided)
    assert info.value.radius == Fraction(1, 2 ** 90)
    # a complex one too, with the larger radius of its two parts
    monkeypatch.setattr(lfun, "_primitive_leading", lambda chi, prec: (
        CBall(Ball(0, Fraction(1, 2 ** 91)), Ball(0, Fraction(1, 2 ** 90))),
        {}))
    with pytest.raises(UnresolvedOrderError) as info:
        l_jet(LSpec(chi5, ["inf", 5], []))
    assert info.value.radius == Fraction(1, 2 ** 90)


def test_exact_zero_leading_term_is_a_certification_error(monkeypatch):
    # an exact leading term of 0 contradicts the theoretical order
    monkeypatch.setattr(lfun, "_primitive_leading", lambda chi, prec: (
        Fraction(0), {}))
    with pytest.raises(CertificationError):
        l_jet(LSpec(DirichletChar.quadratic(-3), ["inf", 3], []))


def test_realizations():
    R5 = AbelianFieldRealization.quadratic(5)
    assert R5.group.order == 2 and R5.ramified_primes() == [5]
    assert R5.splits_completely("inf") and R5.splits_completely(11)
    assert not R5.splits_completely(2)
    assert sorted(R5.dirichlet(c).conductor()
                  for c in R5.group.all_characters()) == [1, 5]
    assert not AbelianFieldRealization.quadratic(-4).splits_completely("inf")
    Rbi = AbelianFieldRealization.multiquadratic([8, 12])
    assert Rbi.group.order == 4
    assert sorted(Rbi.dirichlet(c).conductor()
                  for c in Rbi.group.all_characters()) == [1, 8, 12, 24]
    assert Rbi.splits_completely(23) and not Rbi.splits_completely(5)
    assert AbelianFieldRealization.rationals().group.order == 1
    # generic modulus/kernel realization: index validation
    R = AbelianFieldRealization(5, [4], expected_degree=2)
    assert R.group.order == 2
    with pytest.raises(InputError):
        AbelianFieldRealization(5, [4], expected_degree=4)


def test_rubin_shape_validation():
    R5 = AbelianFieldRealization.quadratic(5)

    def datum(S, V, T):
        return RubinDatum.of(R5, QuadField(5), "quad", S, V, T)
    with pytest.raises(InputError):
        datum([5], [], [3])                         # no infinite place
    with pytest.raises(InputError):
        datum(["inf"], [], [3])                     # missing ramified
    with pytest.raises(InputError):
        datum(["inf", 5], ["inf", 5], [3])          # V not proper
    with pytest.raises(InputError):
        datum(["inf", 5, 2], [2], [3])              # 2 inert
    assert datum(["inf", 5], ["inf"], [3]) == \
        (R5, QuadField(5), "quad", ("inf", 5), ("inf",), (3,))


def _theta(R, S, V, T):
    """theta of the datum (S, V, T) over a field given by its realization
    R alone."""
    return stickelberger_element(RubinDatum.of(R, None, "generic", S, V, T))


@pytest.mark.parametrize("discs", [[5, 5], [5, 20], [5, 8, 40],
                                   [-4, -3, 12]])
def test_dependent_discriminants_are_rejected(discs):
    # each list has a product that is a square, so the compositum has
    # degree below 2^len(discs) and (Z/2)^len(discs) would be the wrong group
    with pytest.raises(InputError):
        AbelianFieldRealization.multiquadratic(discs)


def test_stickelberger_exact_cases():
    R = AbelianFieldRealization.quadratic(-4)
    th = _theta(R, ["inf", 2], [], [5])
    assert th == GroupRingElement(R.group, "rat", [Fraction(-1), Fraction(1)])
    assert sum(th.coeffs) == 0  # = zeta_{Q,S,T}(0), which vanishes
    R23 = AbelianFieldRealization.quadratic(-23)
    th23 = _theta(R23, ["inf", 23], [], [3])
    assert th23 == GroupRingElement(R23.group, "rat",
                                    [Fraction(-3), Fraction(3)])


def test_stickelberger_first_order():
    R5 = AbelianFieldRealization.quadratic(5)
    th = _theta(R5, ["inf", 5], ["inf"], [2])
    log5, logeps = math.log(5), math.log((1 + math.sqrt(5)) / 2)
    assert _close(th.coeffs[0], (log5 / 2 + 3 * logeps) / 2, 1e-11)
    assert _close(th.coeffs[1], (log5 / 2 - 3 * logeps) / 2, 1e-11)
    with pytest.raises(InputError):
        _theta(R5, ["inf", 5], [5], [3])


def test_leading_terms_at_order_one_are_nonzero():
    R5 = AbelianFieldRealization.quadratic(5)
    terms = leading_terms(R5, ["inf", 5], [3])
    assert {label: r for label, (r, _c) in terms.items()} == {(0,): 1,
                                                               (1,): 1}
    assert all(c.is_nonzero() for _r, c in terms.values())


def test_realization_coordinate_characters_are_the_quotient_map():
    # G = (Z/f)^x / <k>: reading a unit's coordinates off the coordinate
    # characters is a surjective homomorphism killing k, whatever the
    # invariant factors of G
    for f in range(2, 70):
        units = [a for a in range(1, f) if math.gcd(a, f) == 1]
        gens = GroupStructure(1, lambda a, b: a * b % f, units).leaders
        for k in units:
            R = AbelianFieldRealization(f, [k])
            G = R.group
            assert tuple(psi.order for psi in R.coordinate_characters) \
                == G.invariant_factors
            image = {a: tuple(psi(a) for psi in R.coordinate_characters)
                     for a in units}
            assert image[k] == G.identity()
            assert len(set(image.values())) == G.order
            for a in units:
                for g in gens:
                    assert image[a * g % f] == G.op(image[a], image[g])


def test_complex_character_jet():
    # a quartic character mod 5: exercise the complex-ball path
    R = AbelianFieldRealization(5, [1], expected_degree=4)
    chars = R.group.all_characters()
    quartic = next(c for c in chars if c.order() == 4)
    chi = R.dirichlet(quartic)
    assert chi.order == 4
    # odd quartic character mod 5: nonvanishing at 0, where its value is a
    # complex ball around the exact -B_{1,chi} in Q(i), the one that
    # `bernoulli_value` gives
    with working_precision(96):
        lead = l_jet(LSpec(chi, ["inf", 5], []))
        assert _meets(lead.value, _bernoulli_by_residue(
            chi, ["inf", 5], []).enclosure())
        assert _endpoints(lead.value) == \
            _endpoints(bernoulli_value(chi, ["inf", 5]))
    assert lead.order == 0 and lead.value.is_nonzero()


def test_a_complex_character_takes_log_q_where_it_is_one():
    # the characters of order 6 (odd) and 3 (even) mod 7 are 1 at
    # 29 = 1 mod 7, so 29 in S raises their order by one, from 0 and from
    # 1, and multiplies their leading term by log 29.  1 - chi(29) read off
    # the value would be a ball around 0, which never compares equal to 0
    # and would drop the log
    R = AbelianFieldRealization(7, [])
    for k, order in ((1, 0), (2, 1)):
        chi = R.dirichlet(R.group.all_characters()[k])
        assert chi.order == 6 // k and chi(29) == 0
        base = l_jet(LSpec(chi, ["inf", 7]))
        lead = l_jet(LSpec(chi, ["inf", 7, 29]))
        assert base.order == order and lead.order == order + 1
        want = base.value * ball_log_int(29)
        for part, inner in ((lead.value.re, want.re),
                            (lead.value.im, want.im)):
            (lo, hi), (ilo, ihi) = part.endpoints(), inner.endpoints()
            assert lo <= ilo and ihi <= hi


def test_first_order_scenario_needs_only_first_order_hurwitz_jets(
        monkeypatch):
    from starklab import lfun
    from starklab.verify import Scenario, run_scenario
    calls = []
    real_hurwitz = lfun.hurwitz_jet

    def counted(f, residues):
        calls.append((f, tuple(residues)))
        return real_hurwitz(f, residues)

    monkeypatch.setattr(lfun, "hurwitz_jet", counted)
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5],
        "V": ["inf"], "T": [3], "checks": ["rs_integrality"]}))
    assert cert["results"][0]["verdict"] == "pass"
    # chi_5 is even of conductor 5: one c_1 for the units mod 5, in closed
    # form, and one for {2, 3}, where chi_5 is -1, which stand for {1, 4};
    # the trivial character's component is zeta(0) log 5 (1 - 3), exactly
    # -1/2 times one log, and needs none
    assert calls == [(5, (1, 2, 3, 4)), (5, (2, 3))]
    calls.clear()
    R = AbelianFieldRealization.rationals()
    th = _theta(R, ["inf", 2, 3], ["inf", 2], [5])
    assert calls == [] and th.coeffs[0].is_nonzero()


def test_leading_term_at_order_five():
    # r_chi = 5 for both characters of Q(sqrt 5) with S = {inf, 5, 11, 19,
    # 29, 31}: the trivial one through five split primes, chi_5 through
    # its own first order and four split primes (1 - chi_5(3) 3 = 4)
    R5 = AbelianFieldRealization.quadratic(5)
    S = ["inf", 5, 11, 19, 29, 31]
    terms = leading_terms(R5, S, [3])
    logs = math.prod(math.log(q) for q in (11, 19, 29, 31))
    trivial = -0.5 * (1 - 3) * math.log(5) * logs
    chi5 = math.log((1 + math.sqrt(5)) / 2) * (1 + 3) * logs
    for label, want in (((0,), trivial), ((1,), chi5)):
        r, c = terms[label]
        assert r == 5
        assert math.isclose(float(_mid(c)), want, rel_tol=1e-12)
        assert c.is_nonzero() and c.rad() < 1e-30


# -- oracles: Galois groups read off cosets and Kronecker symbols, and
# L-jets summed on separate real and complex paths -------------------------

def _value_rational(chi, a):
    """chi(a) as an integer for a character of order <= 2 (0 off the
    units)."""
    t = chi(a)
    if t is None:
        return 0
    return 1 if t == 0 else -1


# zeta_e^k, kept: the oracle's sums ask for the same few powers many times
_zeta_power = functools.lru_cache(maxsize=None)(CycloField.zeta_power)


def _from_powers(field, powers):
    """sum_j powers[j] zeta_e^j in field = Q(zeta_e), e = len(powers),
    summed in integers over one denominator (zeta_e^j has integer
    coordinates)."""
    den = math.lcm(*(c.denominator for c in powers))
    total = [0] * field.degree
    for j, c in enumerate(powers):
        if c:
            n = c.numerator * (den // c.denominator)
            for i, z in enumerate(_zeta_power(field, j).vec):
                total[i] += n * int(z)
    return field.element([Fraction(t, den) for t in total])


def _value_cyclo(chi, a, field=None):
    t = chi(a)
    field = field or CycloField(chi.order)
    if t is None:
        return field.from_rational(Fraction(0))
    return _zeta_power(field, t * (field.e // chi.order))


def _value_cball(chi, a):
    t = chi(a)
    if t is None:
        return CBall(0, 0)
    return CBall.root_of_unity(t, chi.order)


def _oracle_classes(chi):
    """The units a of 1..f - 1 (a = 1 for f = 1) grouped by the oracle's
    value of chi(a): {value: (least a, [a, ...])}, in the order of the
    least elements."""
    f = chi.modulus
    classes = {}
    for a in range(1, max(f, 2)):
        if chi(a) is None:
            continue
        v = _value_rational(chi, a) if chi.order <= 2 \
            else _value_cyclo(chi, a)
        classes.setdefault(v, (a, []))[1].append(a)
    return classes


class _CosetRealization:
    """G = (Z/f)^x / H, with Frobenius read off the coset of each unit and
    every character of G tried in turn; or, given discriminants, the
    multiquadratic field with Frobenius read off their Kronecker symbols."""

    def __init__(self, modulus, kernel=(), discs=None):
        self.discs = discs
        if discs is not None:
            self.modulus = math.lcm(*(abs(D) for D in discs))
            self.group = AbelianGroup((2,) * len(discs))
            return
        f = self.modulus = modulus

        def mul(a, b):
            return a * b % f

        H = GroupStructure(1, mul, [k % f for k in kernel])
        units = [a for a in range(1, f) if math.gcd(a, f) == 1]
        self.rep = {a: min(mul(a, h) for h in H.exponents) for a in units}
        self.quotient = GroupStructure(self.rep[1],
                                       lambda a, b: self.rep[mul(a, b)],
                                       sorted(set(self.rep.values())))
        factors, self.V, _ = diagonalize_relations(
            self.quotient.relation_rows, len(self.quotient.leaders))
        self.group = AbelianGroup(tuple(factors))

    def element_of(self, a):
        if self.discs is not None:
            return tuple(0 if kronecker(D, a) == 1 else 1
                         for D in self.discs)
        x = self.quotient.dlog(self.rep[a % self.modulus])
        return tuple(sum(xi * row[j] for xi, row in zip(x, self.V)) % d
                     for j, d in enumerate(self.group.invariant_factors))

    def dirichlet(self, chi):
        f = self.modulus
        n = max(chi.order(), 1)
        e = self.group.exponent
        vals = [None if math.gcd(a, f) != 1
                else chi.value_exponent(self.element_of(a)) * n // e % n
                for a in range(f)]
        return DirichletChar(f, n, vals)

    def ramified_primes(self):
        if self.discs is not None:
            return sorted({p for D in self.discs for p in sympy.factorint(D)
                           if p > 0})
        out = set()
        for chi in self.group.all_characters():
            out |= set(sympy.factorint(self.dirichlet(chi).conductor()))
        return sorted(out)

    def splits_completely(self, v):
        if self.discs is not None:
            if v == "inf":
                return all(D > 0 for D in self.discs)
            return all(kronecker(D, v) == 1 for D in self.discs)
        for chi in self.group.all_characters():
            prim = self.dirichlet(chi).primitive()
            if v == "inf":
                if prim.parity() != 1:
                    return False
            elif prim.conductor() % v == 0 or prim(v) != 0:
                return False
        return True


def _oracle_leading_term(chi, S, T, all_classes=False):
    """(lim s^-r L_{S,T}(chi, s), params) summed on separate real and
    complex paths: the primitive leading term from the oracle's classes,
    then the factors at s = 0 of the S-primes off the conductor (log q
    where chi(q) = 1) and of T, multiplied in one at a time, as the
    leading terms of a product are.  A real character's order-0 value is
    exact; a complex character's -B_{1,chi} sums the enclosed roots of
    unity of its classes, each times that class's rational weight, and
    its Euler factors are complex balls.

    An even nontrivial chi's L'(0, chi) is c_1(U) + sum_{v != 1}
    (v - 1) c_1(class v), U the units 1..f - 1 gcd-scanned, as c_1 of the
    kernel class is c_1(U) less those of the others; with `all_classes`
    it is sum_v v c_1(class v) instead, the sum over every class."""
    chi = chi.primitive()
    f = chi.conductor()
    real = chi.order <= 2
    params = {"prec": precision()}
    if f > 1 and chi.parity() == 1:
        value = Ball(0) if all_classes else lfun.hurwitz_jet(
            f, [a for a in range(1, f) if math.gcd(a, f) == 1])
        for v, (rep, residues) in _oracle_classes(chi).items():
            if rep == 1 and not all_classes:
                continue        # the kernel class: c_1(U) stands for it
            weight = v if real else _value_cball(chi, rep)
            if not all_classes:
                weight = weight - 1
            value = value + weight * lfun.hurwitz_jet(f, residues)
        plan = _plan(precision())
        params = {"N": plan.N, "B": plan.B, "prec": precision()}
    elif f == 1:
        value = Fraction(-1, 2)
    elif real:
        value = Fraction(sum((f - 2 * a) * _value_rational(chi, a)
                             for a in range(1, f)), 2 * f)
    else:
        value = CBall(0, 0)
        for v, (rep, residues) in _oracle_classes(chi).items():
            value = value + _value_cball(chi, rep) * Fraction(
                f * len(residues) - 2 * sum(residues), 2 * f)
    for q in S:
        if q == "inf" or f % q == 0:
            continue
        if chi(q) == 0:
            log = ball_log_int(q)
            value = value * (log if real else CBall(log, 0))
        elif real:
            value = value * Fraction(1 - _value_rational(chi, q))
        else:
            value = value * (1 - _value_cball(chi, q))
    for q in T:
        if real:
            value = value * Fraction(1 - _value_rational(chi, q) * q)
        else:
            value = value * (1 - _value_cball(chi, q) * q)
    return value, params


def _oracle_bernoulli_value(chi, S, T):
    chi = chi.primitive()
    f = chi.conductor()
    if chi.order <= 2:
        value = Fraction(-sum(_value_rational(chi, a) * (2 * a - f)
                              for a in range(1, f + 1)), 2 * f)
        for q in S:
            if q != "inf" and f % q != 0:
                value *= 1 - _value_rational(chi, q)
        for q in T:
            value *= 1 - _value_rational(chi, q) * q
        return value
    return _bernoulli_by_residue(chi, S, T)


def _use_oracle_sums(m, all_classes=False):
    """Send the leading terms of `lfun` through the oracle (m: a
    monkeypatch context), summed over every class with `all_classes`."""
    m.setattr(lfun, "l_jet", lambda spec: lfun.LeadingTerm(
        None, *_oracle_leading_term(spec.char, spec.S, spec.T,
                                    all_classes)))


def _overlaps(value, ref):
    """Do `value` and `ref`, exact values or (complex) balls, meet: equal
    when both are exact, else overlapping in every part?"""
    if not isinstance(value, (Ball, CBall)) \
            and not isinstance(ref, (Ball, CBall)):
        return value == ref

    def parts(c):
        c = CBall._coerce(c)
        return c.re.endpoints(), c.im.endpoints()
    return all(lo <= rhi and rlo <= hi for (lo, hi), (rlo, rhi)
               in zip(parts(value), parts(ref)))


def _endpoints(c):
    """Raw endpoints of a ball or complex ball, or the exact value."""
    if isinstance(c, Ball):
        return ("ball", c._v)
    if isinstance(c, CBall):
        return ("cball", c.re._v, c.im._v)
    return (type(c).__name__, c)


def test_jets_and_bernoulli_values_match_the_oracle_bit_for_bit(
        monkeypatch):
    # every character of (Z/f)^x, 3 <= f < 40, with S = {inf} + ramified +
    # up to two extra primes and T empty or one prime: the leading term at
    # the order r, and at r = 0 the Bernoulli value.  A leading term reads
    # only the primitive character, so each is run once.  The class sums
    # c_1 and the roots of unity, exact and enclosed, are shared between
    # the two sides, which sum them bit for bit.  An even character's
    # leading term, summed from the units mod f and the other classes, must
    # also meet the sum over every class.  An odd complex character's
    # Bernoulli value, a ball, must also meet the enclosure of its exact
    # value in Q(zeta_n)
    hurwitz = functools.lru_cache(maxsize=None)(lfun.hurwitz_jet)
    monkeypatch.setattr(lfun, "hurwitz_jet", lambda f, residues: hurwitz(
        f, tuple(residues)))
    monkeypatch.setattr(CBall, "root_of_unity", staticmethod(
        functools.lru_cache(maxsize=None)(CBall.root_of_unity)))
    monkeypatch.setattr(CycloField, "zeta_power", functools.lru_cache(
        maxsize=None)(CycloField.zeta_power))
    seen, done = set(), set()
    for f in range(3, 40):
        R = AbelianFieldRealization(f, [])
        for c in R.group.all_characters():
            chi = R.dirichlet(c)
            cond = chi.conductor()
            if tuple(chi.primitive().values) in done:
                continue
            done.add(tuple(chi.primitive().values))
            ram = sorted(sympy.factorint(cond))
            extra = [q for q in sympy.primerange(2, 50) if cond % q][:3]
            for k in range(3):
                S = ["inf"] + sorted(ram + extra[:k])
                for T in ([], [extra[2]]):
                    r = theoretical_order(chi, S)
                    spec = LSpec(chi, S, T)
                    new = l_jet(spec)
                    value, params = _oracle_leading_term(chi, spec.S,
                                                         spec.T)
                    assert new.order == r
                    assert _endpoints(new.value) == _endpoints(value), \
                        (f, c, S, T)
                    assert _overlaps(new.value, _oracle_leading_term(
                        chi, spec.S, spec.T, all_classes=True)[0])
                    if r == 0:
                        got = bernoulli_value(chi, S, T)
                        want = _oracle_bernoulli_value(chi, S, T)
                        if chi.order > 2:
                            assert _meets(got, want.enclosure())
                            assert _endpoints(got) == _endpoints(value)
                        else:
                            assert _endpoints(got) == _endpoints(want)
                    assert new.params == params
                    seen.add((chi.primitive().order <= 2, r > 0))
    assert seen == {(True, False), (True, True), (False, False),
                    (False, True)}


# the generic kernels and biquadratic pairs of the benchmark pools
POOL_KERNELS = [(5, [4]), (7, [6]), (9, [8]), (13, [5]), (11, [10]),
                (5, []), (7, []), (9, []), (13, [3]), (7, [2]), (15, [4])]
POOL_DISC_PAIRS = [(5, 8), (5, 12), (5, 13), (8, 13), (5, 17), (12, 13),
                   (8, 17), (13, 17), (5, 21), (5, 24), (8, 21), (13, 24)]


def _assert_same_readers(R, oracle):
    assert R.group is oracle.group and R.modulus == oracle.modulus
    for c in R.group.all_characters():
        new, old = R.dirichlet(c), oracle.dirichlet(c)
        assert (new.modulus, new.order, new.values) == \
            (old.modulus, old.order, old.values), (R, c)
    assert R.ramified_primes() == oracle.ramified_primes()
    for v in ["inf"] + list(sympy.primerange(2, 120)):
        assert R.splits_completely(v) == oracle.splits_completely(v), (R, v)


def test_realization_readers_match_the_coset_oracle():
    for f, kernel in POOL_KERNELS:
        _assert_same_readers(AbelianFieldRealization(f, kernel),
                             _CosetRealization(f, kernel))
    for f in range(2, 40):
        units = [a for a in range(1, f) if math.gcd(a, f) == 1]
        for kernel in [[]] + [[k] for k in units]:
            _assert_same_readers(AbelianFieldRealization(f, kernel),
                                 _CosetRealization(f, kernel))
    for D in (-4, -3, 5, 8, -7, 12, -15, 21, -23):
        _assert_same_readers(AbelianFieldRealization.quadratic(D),
                             _CosetRealization(None, discs=[D]))
    for pair in POOL_DISC_PAIRS:
        _assert_same_readers(AbelianFieldRealization.multiquadratic(pair),
                             _CosetRealization(None, discs=list(pair)))


def _pool_realizations():
    """One realization per distinct field of the benchmark pools."""
    import json
    import pool_digest  # noqa: F401  (puts perfbench's modules on the path)
    import workloads
    from starklab.verify import Scenario
    fields = {}
    for name in workloads.WORKLOADS:
        for _stratum, _n, ops in workloads.pool(name):
            for op in ops:
                if op["kind"] == "scenario":
                    key = json.dumps(op["spec"].get("field"), sort_keys=True)
                    if key not in fields:
                        fields[key] = Scenario(op["spec"]).realization
    return list(fields.values())


def test_dirichlet_characters_of_the_pool_fields_are_their_products():
    # chi's exponent at a unit a is sum_j (t_j n / d_j) psi_j(a) mod n,
    # rebuilt here from the coordinate characters psi_j
    shortcuts = 0
    for R in _pool_realizations():
        f = R.modulus
        for chi in R.group.all_characters():
            n = max(chi.order(), 1)
            table = [sum(t * n // d * psi(a) for t, d, psi in zip(
                chi.exponents, R.group.invariant_factors,
                R.coordinate_characters)) % n if math.gcd(a, f) == 1
                else None for a in range(f)]
            dchi = R.dirichlet(chi)
            assert (dchi.modulus, dchi.order, dchi.values) == (f, n, table)
            shortcuts += dchi in R.coordinate_characters
    assert shortcuts > 0


def test_trivial_group_keeps_the_non_units_out():
    Q = AbelianFieldRealization.rationals()
    assert Q.dirichlet(Q.group.all_characters()[0]).values == [0]
    assert Q.ramified_primes() == [] and Q.splits_completely("inf")
    # f > 1 and H everything: G is trivial and has no coordinate
    # characters, yet the trivial character is still the one mod f
    R = AbelianFieldRealization(10, [3])
    assert R.group.order == 1 and R.coordinate_characters == []
    chi = R.dirichlet(R.group.all_characters()[0])
    assert chi.values == [None, 0, None, 0, None, None, None, 0, None, 0]
    # built once per realization
    assert R.dirichlet(R.group.all_characters()[0]) is chi
    assert R.ramified_primes() == [] and R.splits_completely(7)


def test_generic_stickelberger_elements_match_the_oracle(monkeypatch):
    # first-order (V = {inf}) elements of the pool's real generic fields,
    # read through the coset oracle and its sums, bit for bit; each
    # coefficient also meets the one from the sums over every class
    for f, kernel in POOL_KERNELS:
        R = AbelianFieldRealization(f, kernel)
        if not R.splits_completely("inf"):
            continue
        S = ["inf"] + R.ramified_primes()
        T = [next(q for q in sympy.primerange(2, 50) if f % q)]
        new = _theta(R, S, ["inf"], T)
        with monkeypatch.context() as m:
            _use_oracle_sums(m)
            old = _theta(_CosetRealization(f, kernel), S, ["inf"], T)
        assert new.ring == old.ring == "ball"
        assert [_endpoints(c) for c in new.coeffs] == \
            [_endpoints(c) for c in old.coeffs], (f, kernel)
        with monkeypatch.context() as m:
            _use_oracle_sums(m, all_classes=True)
            every = _theta(_CosetRealization(f, kernel), S, ["inf"], T)
        assert all(map(_overlaps, new.coeffs, every.coeffs)), (f, kernel)


# -- theta at s = 0: the Stickelberger sum against the character route ------

def _in_field(value, field):
    """An exact value of `_oracle_bernoulli_value`, a Fraction or an
    element of Q(zeta_n) for n | e, as an element of field = Q(zeta_e)."""
    powers = [Fraction(0)] * field.e
    if isinstance(value, Fraction):
        powers[0] = value
    else:
        step = field.e // value.field.e
        for k, c in enumerate(value.vec):
            powers[k * step] = c
    return _from_powers(field, powers)


def _theta_by_characters(real, S, T):
    """theta_{S,T} at s = 0 summed over the characters of G: the
    coefficient of sigma is sum_chi chi(sigma^-1) L_{S,T}(chi^-1, 0) / |G|,
    each L-value the oracle's (0 at a positive order of vanishing), summed
    in Q(zeta_e), where every coefficient must come out rational."""
    group = real.group
    e = group.exponent
    field = CycloField(e)
    values = [(chi, _in_field(_oracle_bernoulli_value(
        real.dirichlet(chi).inverse(), S, T), field).vec)
        for chi in group.all_characters()]
    # the values' coordinates as integers over one denominator
    den = math.lcm(*(c.denominator for _chi, vec in values for c in vec))
    values = [(chi, [int(c * den) for c in vec]) for chi, vec in values]
    coeffs = []
    for sigma in group.elements:
        # zeta^-k L = sum_i c_i zeta^(i - k), on the powers of zeta
        powers = [0] * e
        for chi, vec in values:
            k = chi.value_exponent(sigma)
            for i, c in enumerate(vec):
                powers[(i - k) % e] += c
        total = _from_powers(field, powers).vec
        assert not any(total[1:]), (real, sigma, total)
        coeffs.append(total[0] / (den * group.order))
    return GroupRingElement(group, "rat", coeffs)


def test_generic_exact_stickelberger_elements_match_the_character_route():
    # |V| = 0 over the pool's generic fields and some imaginary composita,
    # against the character sum over the coset oracle's characters
    fields = [(AbelianFieldRealization(f, kernel),
               _CosetRealization(f, kernel)) for f, kernel in POOL_KERNELS]
    fields += [(AbelianFieldRealization.multiquadratic(discs),
                _CosetRealization(None, discs=discs))
               for discs in ([-3, -4], [-4, 5], [-3, 5, -8], [-7, 13])]
    for R, oracle in fields:
        S = ["inf"] + R.ramified_primes()
        T = [next(q for q in sympy.primerange(2, 50) if R.modulus % q)]
        assert _theta(R, S, [], T) == \
            _theta_by_characters(oracle, S, T), R


_SMALL_PRIMES = list(sympy.primerange(2, 20))


@st.composite
def _kernel_data(draw):
    """(f, kernel generators, extra S-primes, T-primes) for a kernel
    realization mod f <= 64; the primes drawn below 20, disjoint, and
    filtered of the ramified ones by the test."""
    f = draw(st.integers(1, 64))
    units = [a for a in range(1, f) if math.gcd(a, f) == 1]
    kernel = draw(st.lists(st.sampled_from(units), max_size=2)) \
        if units else []
    primes = draw(st.permutations(_SMALL_PRIMES))
    ks, kt = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return f, kernel, primes[:ks], primes[ks:ks + kt]


@settings(max_examples=40, deadline=None)
@example((15, [11], [], [2]))      # 3 | 15 is unramified and not in S
@example((15, [11], [3], [2]))
@example((56, [], [3, 5], [11]))
@given(_kernel_data())
def test_stickelberger_sum_is_the_character_route(data):
    f, kernel, extra, T = data
    R = AbelianFieldRealization(f, kernel)
    ram = R.ramified_primes()
    S = ["inf"] + ram + [q for q in extra if q not in ram]
    T = [t for t in T if t not in ram]
    assert _theta(R, S, [], T) == \
        _theta_by_characters(R, S, T)


def test_stickelberger_sum_examples():
    Q = AbelianFieldRealization.rationals()
    assert _theta(Q, ["inf"], [], []).coeffs == \
        [Fraction(-1, 2)]                   # zeta(0)
    assert _theta(Q, ["inf"], [], [3]).coeffs == \
        [Fraction(1)]                       # zeta(0) (1 - 3)
    # Q(zeta_5) at modulus 15, where 3 is unramified: the sum runs over
    # the units mod 5, a = 1, 2, 3, 4 lifted to the units 1, 2, 8, 4 mod
    # 15, and 3 in S multiplies it by 1 - sigma_3^-1 = 1 - sigma_8^-1
    R = AbelianFieldRealization(15, [11])
    G = R.group
    assert R.group.order == 4 and R.ramified_primes() == [5]

    def sigma_inv(a):
        return GroupRingElement.from_element(G, G.inv(tuple(
            psi(a) for psi in R.coordinate_characters)), "rat")

    theta = sum((sigma_inv(lift) * (Fraction(1, 2) - Fraction(a, 5))
                 for a, lift in ((1, 1), (2, 2), (3, 8), (4, 4))),
                GroupRingElement.zero(G, "rat"))
    assert sorted(theta.coeffs) == [Fraction(k, 10) for k in (-3, -1, 1, 3)]
    assert _theta(R, ["inf", 5], [], []) == theta
    assert _theta(R, ["inf", 3, 5], [], []) == \
        theta * (GroupRingElement.one(G, "rat") - sigma_inv(8))
    # every character of a real field is even: theta = 0
    for real in (AbelianFieldRealization.quadratic(5),
                 AbelianFieldRealization(13, [5]),
                 AbelianFieldRealization.multiquadratic([5, 8])):
        S = ["inf"] + real.ramified_primes()
        assert _theta(real, S, [], [3]).is_zero()


def test_theta_at_order_zero_reads_no_character(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lfun, "bernoulli_value",
                        counted(lfun.bernoulli_value))
    monkeypatch.setattr(AbelianFieldRealization, "dirichlet",
                        counted(AbelianFieldRealization.dirichlet))
    for R, T in ((AbelianFieldRealization.rationals(), [3]),
                 (AbelianFieldRealization.quadratic(-23), [3]),
                 (AbelianFieldRealization(15, [11]), [2]),
                 (AbelianFieldRealization(63, [2]), [5]),
                 (AbelianFieldRealization.multiquadratic([-3, 5]), [7])):
        _theta(R, ["inf"] + R.ramified_primes(), [], T)
    assert calls == []
    # the first-order element reads each character through `dirichlet`
    _theta(AbelianFieldRealization.quadratic(5), ["inf", 5], ["inf"], [3])
    assert calls == ["dirichlet", "dirichlet"]
