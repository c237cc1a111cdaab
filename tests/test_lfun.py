import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from mpmath import mp
from mpmath.libmp import from_man_exp, to_rational
from sympy.functions.combinatorial.numbers import stirling

from starklab import ball
from starklab.arith import bernoulli
from starklab.ball import (Ball, CBall, PrecisionError, Undecided,
                           ball_combination, ball_log, ball_log_int,
                           precision, working_precision)
from starklab.cyclo import CycloField
from starklab.finite import GroupStructure
from starklab import lfun
from starklab.grpring import AbelianGroup, GroupRingElement, InputError
from starklab.hnf import diagonalize_relations
from starklab.lfun import (AbelianFieldRealization, DirichletChar, Jet,
                           LSpec, UnresolvedOrderError, WrongOrderError,
                           _corrections, _kronecker_table, _plan,
                           bernoulli_value, hurwitz_jet,
                           l_jet, stickelberger_element, theoretical_order,
                           validate_rubin_shape)
from starklab.numfld import is_fundamental_discriminant, kronecker


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
    read from the l_jet truncated at the theoretical order r_chi."""
    out = {}
    for chi in real.group.all_characters():
        chid = real.dirichlet(chi).inverse()
        r = theoretical_order(chid, S)
        jet = l_jet(LSpec(chid, S, T, truncation=r))
        out[chi.exponents] = r, jet.coeffs[r]
    return out


def jet_at(x, K):
    """The Hurwitz jet of zeta_H(s, x) alone: the class (den, [num])."""
    x = Fraction(x)
    return hurwitz_jet(x.denominator, [x.numerator], K)


def test_hurwitz_known_constants():
    j = jet_at(Fraction(1), 1)
    assert j.coeffs[0] == Fraction(-1, 2)
    mp.prec = 220
    assert _close(j.coeffs[1], float(-mp.log(2 * mp.pi) / 2), 1e-35)
    j2 = jet_at(Fraction(1, 2), 1)
    assert j2.coeffs[0] == 0
    assert _close(j2.coeffs[1], -math.log(2) / 2, 1e-35)
    with working_precision(64):
        ja = jet_at(Fraction(1, 4), 0)
        jb = jet_at(Fraction(3, 4), 0)
    assert ja.coeffs[0] + jb.coeffs[0] == 0


def test_hurwitz_derivative_matches_loggamma():
    mp.prec = 220
    for num, den in [(1, 3), (2, 5), (7, 10), (1, 12)]:
        j = jet_at(Fraction(num, den), 1)
        ref = float(mp.loggamma(mp.mpf(num) / den) - mp.log(2 * mp.pi) / 2)
        assert _close(j.coeffs[1], ref, 1e-30), (num, den)


def test_hurwitz_second_order_against_numerical_diff():
    # independent check of c_2 by high-precision central differences
    mp.prec = 300
    x = Fraction(1, 3)
    j = jet_at(x, 2)
    h = mp.mpf(1) / 10 ** 12
    xm = mp.mpf(1) / 3
    second = (mp.zeta(h, xm) - 2 * mp.zeta(0, xm) + mp.zeta(-h, xm)) / h ** 2
    assert _close(j.coeffs[2], float(second / 2), 1e-10)


def test_hurwitz_input_validation():
    with pytest.raises(InputError):
        jet_at(Fraction(3, 2), 1)
    for K in (-1, 5):
        with pytest.raises(InputError):
            jet_at(Fraction(1, 3), K)
    with pytest.raises(PrecisionError), working_precision(10):
        jet_at(Fraction(1, 2), 1)
    # a class is a nonempty list of residues in 1..f
    for f, residues in [(5, []), (5, [0]), (5, [1, 6]), (0, [1])]:
        for K in (1, 2):
            with pytest.raises(InputError):
                hurwitz_jet(f, residues, K)


ORACLE_XS = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 10), Fraction(1, 12),
             Fraction(150, 293), Fraction(1)]


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_hurwitz_jet_encloses_mpmath(prec, K):
    # every coefficient encloses zeta^(k)(0, x) / k! from mpmath, computed
    # at more than twice the precision of the jet
    for x in ORACLE_XS:
        with working_precision(prec):
            jet = jet_at(x, K)
        with mp.workprec(2 * prec + 64):
            xm = mp.mpf(x.numerator) / x.denominator
            for k in range(K + 1):
                v = mp.zeta(0, xm, derivative=k) / mp.factorial(k)
                ref = Fraction(*to_rational(v._mpf_))
                c = jet.coeffs[k]
                assert Ball(c).contains(ref), (prec, K, x, k)


def test_hurwitz_c1_radius_is_the_tail_bound_plus_little_rounding():
    # at 128 bits the tail bound is about 2^-156, so the radius is the
    # rounding of the evaluation: the logs, each one step wide, and one
    # rounding of their exact combination keep that below 2^-(prec+5)
    for x in ORACLE_XS:
        jet = jet_at(x, 1)
        prec = precision()
        tail = _plan(prec).spreads[1].rad()  # rounded up
        assert jet.coeffs[1].rad() <= 2 * tail + Fraction(2) ** -(prec + 5), x


def _sympy_rising(m):
    """The coefficients of s^0..s^4 in s(s + 1)...(s + m - 1) = rf(s, m):
    sympy's unsigned Stirling numbers of the first kind [m, i]."""
    return [int(stirling(m, i, kind=1)) for i in range(5)]


@functools.lru_cache(maxsize=None)
def _fraction_corrections(B):
    """The Euler-Maclaurin correction rows of the s-degrees i = 1..4 in
    Fractions, B_2j / (2j)! [2j - 1, i] for j = 1..B, with sympy's Bernoulli
    numbers and Stirling numbers."""
    return [[Fraction(str(sympy.bernoulli(2 * j))) / math.factorial(2 * j)
             * _sympy_rising(2 * j - 1)[i] for j in range(1, B + 1)]
            for i in range(1, 5)]


def _fraction_tail_radii(N, B, K):
    """The remainder bounds r_0..r_K as exact Fractions, the way the tail
    radius table computed them before it stored rounded balls, from the
    rising factorial of `_sympy_rising`."""
    P2B = _sympy_rising(2 * B)
    bconst = abs(bernoulli(2 * B)) / math.factorial(2 * B)
    logN = ball_log_int(N)
    a_exp = 2 * B - 1
    Npow = Ball(N) ** (-a_exp)
    I = []
    for j in range(K + 1):
        acc = Ball(0)
        for i in range(j + 1):
            acc = acc + (logN ** i) * Fraction(
                math.factorial(j), math.factorial(i)) \
                * Fraction(1, a_exp ** (j - i + 1))
        I.append(Npow * acc)
    rads = []
    for k in range(K + 1):
        rad = Fraction(0)
        for i in range(min(k, 2 * B) + 1):
            if P2B[i]:
                bound = (I[k - i] * Fraction(P2B[i], math.factorial(k - i))
                         ).endpoints()[1]
                rad += abs(bound)
        rads.append(bconst * rad)
    return rads


def _fraction_tail_jet(x, K, N, B):
    """hurwitz_jet's balls (c_0 included) with the tail summed in reduced
    Fractions, each rounded by Ball(Fraction): the oracle for the integer
    pairs that hurwitz_jet rounds once at K >= 2.  At K = 1 it is the
    two-step ball evaluation that the one rounding of `ball_combination`
    replaced: the oracle that c_1 refines."""
    num, den = x.numerator, x.denominator
    log_den = ball_log_int(den)
    if K == 1:
        prod = 1
        for n in range(N):
            prod *= n * den + num
        main = [N, log_den * N - ball_log(prod)]
    else:
        sums = [Ball(0)] * (K + 1)
        for n in range(N):
            L = ball_log_int(n * den + num) - log_den
            power = L
            for k in range(1, K + 1):
                if k > 1:
                    power = power * L
                sums[k] = sums[k] + power
        main = [N] + [sums[k] * Fraction((-1) ** k, math.factorial(k))
                      for k in range(1, K + 1)]
    w = N + x
    R = [Fraction(0)] + [
        sum(c * w ** (1 - 2 * j) for j, c in enumerate(row, 1))
        for row in _fraction_corrections(B)[:K]]
    neg_Lw = log_den - ball_log_int(w.numerator)
    rads = _fraction_tail_radii(N, B, K)
    out = []
    for k in range(K + 1):
        t = [R[k - m] - w + (Fraction(1, 2) if m == k else 0)
             for m in range(k + 1)]
        c = 0
        for m in range(k, 0, -1):
            c = (c + t[m] / math.factorial(m)) * neg_Lw
        out.append(c + main[k] + Ball(t[0], rads[k]))
    return out


ORACLE_TAIL_XS = ([Fraction(1), Fraction(1, 2)]
                  + [Fraction(a, 7) for a in range(1, 7)]
                  + [Fraction(a, 97) for a in (1, 2, 13, 48, 50, 96)]
                  + [Fraction(a, 401) for a in (1, 3, 100, 200, 331, 400)])


def _assert_c1_refines_the_two_step_evaluation(x, jet):
    """c_1 of a K = 1 jet overlaps the two-step ball evaluation of the
    same N and B and is no wider."""
    old = _fraction_tail_jet(x, 1, jet.params["N"], jet.params["B"])[1]
    lo, hi = jet.coeffs[1].endpoints()
    old_lo, old_hi = old.endpoints()
    assert lo <= old_hi and old_lo <= hi, x
    assert hi - lo <= old_hi - old_lo, x


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_hurwitz_tail_is_bit_identical_to_the_fraction_sum(bits):
    # K = 1 is one rounding of an exact combination, which refines the
    # two-step sum; the other truncations round each tail term once
    with working_precision(bits):
        for K in range(5):
            for x in ORACLE_TAIL_XS:
                jet = jet_at(x, K)
                assert jet.coeffs[0] == Fraction(1, 2) - x
                if K == 1:
                    _assert_c1_refines_the_two_step_evaluation(x, jet)
                    continue
                old = _fraction_tail_jet(x, K, jet.params["N"],
                                         jet.params["B"])
                assert old[0].contains(jet.coeffs[0])
                assert [c._v for c in jet.coeffs[1:]] == \
                    [c._v for c in old[1:]], (bits, K, x)
        plan = _plan(bits)
        radii = _fraction_tail_radii(plan.N, plan.B, 4)
        assert [s._v for s in plan.spreads] == \
            [Ball(0, r)._v for r in radii]


C1_ORACLE_XS = sorted({Fraction(a, f) for f in range(1, 61)
                       for a in range(1, f + 1)} | set(ORACLE_XS))


@pytest.mark.parametrize("bits", [53, 80, 128, 160, 256])
def test_hurwitz_c1_encloses_mpmath_and_refines_the_two_step_evaluation(
        bits):
    # every a/f with f <= 60, and ORACLE_XS: c_1 contains zeta'(0, x) at
    # 2 bits + 64 bits, overlaps the two-step evaluation and is no wider.
    # On the grid the reference is Lerch's log Gamma(x) - log(2 pi) / 2,
    # which mpmath evaluates some 30 times faster than the zeta
    # derivative; on ORACLE_XS it is mp.zeta's derivative itself
    with working_precision(bits):
        jets = [(x, jet_at(x, 1)) for x in C1_ORACLE_XS]
    with mp.workprec(2 * bits + 64):
        half_log_2pi = mp.log(2 * mp.pi) / 2
        for x, jet in jets:
            xm = mp.mpf(x.numerator) / x.denominator
            v = mp.zeta(0, xm, derivative=1) if x in ORACLE_XS \
                else mp.loggamma(xm) - half_log_2pi
            ref = Fraction(*to_rational(v._mpf_))
            assert jet.coeffs[1].contains(ref), (bits, x)
    with working_precision(bits):
        for x, jet in jets:
            _assert_c1_refines_the_two_step_evaluation(x, jet)


@functools.lru_cache(maxsize=None)
def _every_class(f_max):
    """(f, residues) for each class of units with one value, of every
    character mod f <= f_max, each class once, grouped by the oracle."""
    out = set()
    for f in range(1, f_max + 1):
        R = AbelianFieldRealization(f, [])
        for c in R.group.all_characters():
            chi = R.dirichlet(c)
            for _rep, residues in _oracle_classes(chi).values():
                out.add((f, tuple(residues)))
    return sorted(out)


def _mirror_closed(f, residues):
    """Is the class closed under a -> f - a?"""
    return sorted(residues) == sorted(f - a for a in residues)


# unpaired residues that no character class has: a repeated entry, a = f/2
# alone, a = f, and the class of zeta(s) itself
UNPAIRED_CLASSES = [(5, (1, 1)), (10, (5,)), (5, (5,)), (1, (1,))]


@pytest.mark.parametrize("bits", [53, 80, 128, 160, 256])
def test_class_jets_enclose_mpmath_and_overlap_the_singleton_sums(bits):
    # every class of every character mod f <= 60, mirror-closed (even
    # characters) or not (odd ones), and the unpaired classes: c_1 contains
    # sum_a (log Gamma(a/f) - log(2 pi) / 2) at 2 bits + 64 bits and
    # overlaps the sum of the classes' singleton jets
    classes = _every_class(60) + UNPAIRED_CLASSES
    assert {_mirror_closed(f, res) for f, res in classes} == {True, False}
    with working_precision(bits):
        jets = [hurwitz_jet(f, list(res), 1) for f, res in classes]
        single = {x: jet_at(x, 1).coeffs[1] for f, res in classes
                  for x in (Fraction(a, f) for a in res)}
    with mp.workprec(2 * bits + 64):
        half_log_2pi = mp.log(2 * mp.pi) / 2
        lgamma = {x: mp.loggamma(mp.mpf(x.numerator) / x.denominator)
                  for x in single}
        for (f, res), jet in zip(classes, jets):
            assert jet.coeffs[0] == sum(Fraction(1, 2) - Fraction(a, f)
                                        for a in res)
            v = mp.fsum(lgamma[Fraction(a, f)] for a in res) \
                - len(res) * half_log_2pi
            assert jet.coeffs[1].contains(
                Fraction(*to_rational(v._mpf_))), (bits, f, res)
    with working_precision(bits):
        for (f, res), jet in zip(classes, jets):
            total = Ball(0)
            for a in res:
                total = total + single[Fraction(a, f)]
            lo, hi = jet.coeffs[1].endpoints()
            total_lo, total_hi = total.endpoints()
            assert lo <= total_hi and total_lo <= hi, (bits, f, res)


def _per_residue_class_c1(f, residues):
    """c_1 of a class jet by the kernel that came before the power sums:
    one cached log of each N f + a with coefficient 2(N f + a) - f, log f
    with f |C| - 2 sum a, the log of the exact main-sum product, and the
    exact R_1(a) of `_corrections` summed on one fixed-point grid 2^-G
    (floors for the lower end, ceilings for the upper), in one
    `ball_combination` over 2f with the exact -sum w_a."""
    prec = precision()
    plan = _plan(prec)
    N = plan.N
    size, total = len(residues), sum(residues)
    wn = [N * f + a for a in residues]
    with working_precision(prec + size.bit_length()):
        log_prod = ball_log(math.prod(math.prod(range(a, w, f))
                                      for a, w in zip(residues, wn)))
    R1 = [_corrections(f, w, plan.corrections[:1])[0] for w in wn]
    G = ball._PREC + size.bit_length()
    lo = hi = 0
    for n, d in R1:
        q, r = divmod(n << G, d)
        lo += q
        hi += q + (r > 0)
    grid = Ball._wrap((from_man_exp(lo, -G), from_man_exp(hi, -G)))
    return ball_combination(
        (f * size - 2 * total, -2 * f, 2 * f, 2 * f * size)
        + tuple(2 * w - f for w in wn),
        (ball_log_int(f), log_prod, grid, plan.spreads[1])
        + tuple(ball_log_int(w) for w in wn),
        2 * f, (-sum(wn), f))


@pytest.mark.parametrize("bits", [53, 80, 128, 160, 256])
def test_class_c1_overlaps_the_per_residue_kernel(bits):
    # every class of every character mod f <= 60, mirror-closed or not,
    # the unpaired classes, and both classes of chi_D for D = 401 and 997:
    # the midpoint kernel's c_1 overlaps the per-residue kernel's at the
    # same cutoffs, and its radius is at most 1.25 times as large
    classes = _every_class(60) + UNPAIRED_CLASSES + [
        (D, res) for D in (401, 997)
        for _t, res in DirichletChar.quadratic(D).classes()]
    with working_precision(bits):
        for f, res in classes:
            new = hurwitz_jet(f, res, 1).coeffs[1]
            old = _per_residue_class_c1(f, res)
            lo, hi = new.endpoints()
            old_lo, old_hi = old.endpoints()
            assert lo <= old_hi and old_lo <= hi, (bits, f, res)
            assert 4 * (hi - lo) <= 5 * (old_hi - old_lo), (bits, f, res)


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
    # the first-order remainder bound is at most 2^-(prec + 20), and the
    # bounds of orders 2..4 at most 2^-(prec + 12); at 69..99 bits, with N
    # at its floor, B = prec // 5 alone would miss the first, and B is the
    # least that meets it
    plan = _plan(bits)
    N, B, spreads = plan.N, plan.B, plan.spreads
    assert N == max(16, bits // 5) and B >= bits // 5
    if B > bits // 5:
        with working_precision(bits):
            missed = Ball(0, _fraction_tail_radii(N, B - 1, 1)[1])
        assert missed.rad() > Fraction(2) ** -(bits + 20)
    assert spreads[1].rad() <= Fraction(2) ** -(bits + 20)
    assert all(r.rad() <= Fraction(2) ** -(bits + 12) for r in spreads[2:])


def test_one_plan_serves_every_truncation_at_a_precision():
    # the cutoffs, tail bounds, correction rows and midpoint table of a
    # precision are built once, whatever truncations read them
    _plan.cache_clear()
    with working_precision(97):
        for K in range(5):
            hurwitz_jet(7, [1, 6], K)
            hurwitz_jet(12, [5], K)
    info = _plan.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_class_jet_log_calls_do_not_grow_with_the_class(monkeypatch):
    # ball_log_int is called for (2N + 1) f and 2 alone when the class is
    # closed under a -> f - a, and for 2N + 1 as well when it is not,
    # whatever the class size
    calls = []
    real = lfun.ball_log_int

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(lfun, "ball_log_int", counted)
    counts = {}
    for size in (2, 200):
        closed = [a for b in range(1, size + 1) for a in (b, 401 - b)]
        unpaired = list(range(1, 2 * size, 2))
        for kind, res in (("closed", closed), ("unpaired", unpaired)):
            hurwitz_jet(401, res, 1)    # the cutoff tables are built once
            calls.clear()
            hurwitz_jet(401, res, 1)
            counts[kind, size] = sorted(calls)
    T = 2 * _plan(precision()).N + 1
    assert counts == {("closed", 2): [2, T * 401],
                      ("closed", 200): [2, T * 401],
                      ("unpaired", 2): [2, T, T * 401],
                      ("unpaired", 200): [2, T, T * 401]}


def test_class_jets_above_first_order_are_the_singleton_sums():
    # K = 0 and K >= 2 add the residues' own jets, in the class's order
    for f, res in [(7, [1, 2, 4]), (12, [1, 5, 7, 11]), (10, [5])]:
        for K in (0, 2, 3):
            jet = hurwitz_jet(f, res, K)
            singles = [jet_at(Fraction(a, f), K) for a in res]
            assert jet.coeffs[0] == sum(j.coeffs[0] for j in singles)
            for k in range(1, K + 1):
                total = singles[0].coeffs[k]
                for j in singles[1:]:
                    total = total + j.coeffs[k]
                assert jet.coeffs[k]._v == total._v, (f, res, K, k)


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
    for D in range(-1500, 1501):
        if D != 0 and D % 4 in (0, 1):
            assert _kronecker_table(D) == tuple(
                kronecker(D, a) for a in range(abs(D))), D
    # (D|a) is periodic mod |D| only for D = 0 or 1 mod 4
    for D in (0, 2, 3, -1, -2, 6, 7, 15, -5, -6):
        with pytest.raises(InputError):
            _kronecker_table(D)
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
    total = field.zero()
    for a in range(1, f + 1):
        if chi(a) is not None:
            total = total + _value_cyclo(chi, a, field) \
                * (Fraction(a, f) - Fraction(1, 2))
    value = -1 * total
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
        ref = _bernoulli_by_residue(chi, S, [17])
        if chi.primitive().order <= 2:
            assert value == ref.rational_value()
        else:
            assert value == ref
        checked += 1
    assert checked > 30


def test_l_jet_examples():
    spec = LSpec(trivial_char(1), ["inf", 2], [], truncation=1)
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


def test_truncation_below_the_order_is_an_input_error():
    # r = 2 (11 splits), and no precision shows a leading coefficient
    # above the truncation
    chi5 = DirichletChar.quadratic(5)
    for K in (1, 0, -1):
        with pytest.raises(InputError):
            l_jet(LSpec(chi5, ["inf", 5, 11], [], truncation=K))


def test_unresolved_order(monkeypatch):
    # a leading coefficient whose ball contains 0 is undecided, with the
    # radius of that ball
    chi5 = DirichletChar.quadratic(5)
    monkeypatch.setattr(lfun, "_primitive_l_jet", lambda chi, K: Jet(
        [Fraction(0), Ball(0, Fraction(1, 2 ** 90))], params={}))
    with pytest.raises(UnresolvedOrderError) as info:
        l_jet(LSpec(chi5, ["inf", 5], [], truncation=1))
    assert isinstance(info.value, Undecided)
    assert info.value.radius == Fraction(1, 2 ** 90)


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


@pytest.mark.parametrize("discs", [[5, 5], [5, 20], [5, 8, 40],
                                   [-4, -3, 12]])
def test_dependent_discriminants_are_rejected(discs):
    # each list has a product that is a square, so the compositum has
    # degree below 2^len(discs) and (Z/2)^len(discs) would be the wrong group
    with pytest.raises(InputError):
        AbelianFieldRealization.multiquadratic(discs)


def test_stickelberger_exact_cases():
    R = AbelianFieldRealization.quadratic(-4)
    th = stickelberger_element(R, ["inf", 2], [], [5])
    assert th == GroupRingElement(R.group, "rat", [Fraction(-1), Fraction(1)])
    assert sum(th.coeffs) == 0  # = zeta_{Q,S,T}(0), which vanishes
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
    with working_precision(96):
        jet = l_jet(LSpec(chi, ["inf", 5], [], truncation=1))
    # odd quartic character mod 5: nonvanishing at 0, known exact value
    assert jet.order == 0  # odd quartic character
    exact = bernoulli_value(chi, ["inf", 5])
    assert jet.coeffs[0] == exact  # the exact cyclotomic path is preserved
    assert not exact.is_zero()


def _complex_chars():
    """Complex primitive characters: order 4 mod 5 (odd), orders 3 (even)
    and 6 (odd) mod 7."""
    out = []
    for f, orders in ((5, (4,)), (7, (3, 6))):
        R = AbelianFieldRealization(f, [1], expected_degree=f - 1)
        for c in R.group.all_characters():
            if c.order() in orders:
                out.append(R.dirichlet(c))
    return out


def _full_product_lead(chi, S, T, r):
    """The leading coefficient as read from the full product at
    truncation r + 1: the primitive jet and every Euler factor, including
    the ones vanishing at s = 0, to that truncation."""
    from starklab.lfun import _euler_factor_jet, _primitive_l_jet
    K = r + 1
    jet = _primitive_l_jet(chi, K)
    for q in S[1:]:
        if chi.conductor() % q:
            jet = jet * _euler_factor_jet(chi, q, K, 0)
    for q in T:
        jet = jet * _euler_factor_jet(chi, q, K, 1)
    return jet.coeffs[r]


def test_leading_coefficient_matches_the_full_product_and_is_no_wider():
    import sympy
    chars = [trivial_char(1), DirichletChar.quadratic(5),
             DirichletChar.quadratic(-4), DirichletChar.quadratic(8)] \
        + _complex_chars()
    seen = set()
    for chi in chars:
        f = chi.conductor()
        ram = sorted(sympy.factorint(f))
        split = [q for q in sympy.primerange(2, 200)
                 if f % q and chi(q) == 0][:3]
        t = next(q for q in sympy.primerange(2, 200)
                 if f % q and q not in split)
        for m in range(4):
            S = ["inf"] + sorted(ram + split[:m])
            r = theoretical_order(chi, S)
            if r > 3:  # the full product needs truncation r + 1 <= 4
                continue
            for T in ([], [t]):
                lead = l_jet(LSpec(chi, S, T, truncation=r)).coeffs[r]
                old = _full_product_lead(chi, S, T, r)
                seen.add((chi.order <= 2, r - m, m))
                if not isinstance(lead, (Ball, CBall)):
                    assert lead == old
                    continue
                new, ref = _real_parts(lead), _real_parts(old)
                assert all((x - y).contains_zero()
                           for x, y in zip(new, ref)), (chi, S, T)
                assert max(x.rad() for x in new) \
                    <= max(y.rad() for y in ref), (chi, S, T)
    # real and complex characters, primitive orders 0 and 1, m = 0..3
    assert {(real, rp) for real, rp, _m in seen} == {
        (True, 0), (True, 1), (False, 0), (False, 1)}
    assert {m for _r, _rp, m in seen} == {0, 1, 2, 3}


def _real_parts(b):
    """The real balls of a ball: itself, or a complex ball's re and im."""
    return (b.re, b.im) if isinstance(b, CBall) else (b,)


def test_first_order_scenario_needs_only_first_order_hurwitz_jets(
        monkeypatch):
    from starklab import lfun
    from starklab.verify import Scenario, run_scenario
    calls = []
    real_hurwitz = lfun.hurwitz_jet

    def counted(f, residues, K):
        calls.append((f, tuple(residues), K))
        return real_hurwitz(f, residues, K)

    monkeypatch.setattr(lfun, "hurwitz_jet", counted)
    cert = run_scenario(Scenario({
        "field": {"type": "quad", "disc": 5}, "S": ["inf", 5],
        "V": ["inf"], "T": [3], "checks": ["rs_integrality"]}))
    assert cert["results"][0]["verdict"] == "pass"
    # chi_5 is even of conductor 5: one K = 1 jet per value class, {1, 4}
    # where chi_5 = 1 and {2, 3} where it is -1; the trivial character's
    # component is zeta(0) log 5 (1 - 3), exactly -1/2 times one log, and
    # needs none
    assert calls == [(5, (1, 4), 1), (5, (2, 3), 1)]
    calls.clear()
    R = AbelianFieldRealization.rationals()
    th = stickelberger_element(R, ["inf", 2, 3], ["inf", 2], [5])
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


def _value_cyclo(chi, a, field=None):
    t = chi(a)
    field = field or CycloField(chi.order)
    if t is None:
        return field.zero()
    return field.zeta_power(t * (field.e // chi.order))


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


def _oracle_primitive_l_jet(chi, K, real):
    f = chi.conductor()
    if f == 1:
        if K == 0:
            return Jet([Fraction(-1, 2)], params={"prec": precision()})
        return lfun.hurwitz_jet(1, [1], K)
    exact0 = 0 if real else CycloField(chi.order).zero()
    ball_coeffs = [Ball(0) if real else CBall(0, 0) for _ in range(K + 1)]
    params = {"prec": precision()}
    for a in range(1, f):
        if chi(a) is None:
            continue
        if real:
            exact0 += (f - 2 * a) * _value_rational(chi, a)
        else:
            exact0 = exact0 + _value_cyclo(chi, a) * (f - 2 * a)
    for value, (rep, residues) in _oracle_classes(chi).items() if K else ():
        hj = lfun.hurwitz_jet(f, residues, K)
        params = hj.params
        for k in range(1, K + 1):
            if real:
                ball_coeffs[k] = (ball_coeffs[k] + hj.coeffs[k]
                                  if value == 1
                                  else ball_coeffs[k] - hj.coeffs[k])
            else:
                ball_coeffs[k] = ball_coeffs[k] \
                    + _value_cball(chi, rep) * hj.coeffs[k]
    exact0 = Fraction(exact0, 2 * f) if real \
        else exact0 * Fraction(1, 2 * f)
    out = [exact0]
    if K:
        Lf = ball_log_int(f)
        E = [Ball(1)]
        for k in range(1, K + 1):
            E.append(E[-1] * (-Lf) * Fraction(1, k))
        for k in range(1, K + 1):
            acc = E[k] * exact0 if real else exact0.to_cball() * E[k]
            for i in range(1, k + 1):
                acc = acc + ball_coeffs[i] * E[k - i]
            out.append(acc)
    return Jet(out, params=params)


def _oracle_euler_factor_jet(chi, q, K, shift, real):
    Lq = ball_log_int(q)
    qs = q ** shift
    if real:
        v = _value_rational(chi, q)
        coeffs = [Fraction(1 - v * qs)]
        power = Ball(1)
        for k in range(1, K + 1):
            power = power * (-Lq) * Fraction(1, k)
            coeffs.append(power * (-v * qs))
        return Jet(coeffs)
    vb = _value_cball(chi, q)
    coeffs = [1 - _value_cyclo(chi, q) * qs]
    power = CBall(1, 0)
    for k in range(1, K + 1):
        power = power * CBall(-Lq, 0) * Fraction(1, k)
        coeffs.append(power * (-qs) * vb)
    return Jet(coeffs)


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


def _use_oracle_sums(m):
    """Send the primitive jets, Euler factors and Bernoulli values of
    `lfun` through the oracle (m: a monkeypatch context)."""
    m.setattr(lfun, "_primitive_l_jet", lambda chi, K:
              _oracle_primitive_l_jet(chi, K, chi.order <= 2))
    m.setattr(lfun, "_euler_factor_jet", lambda chi, q, K, shift:
              _oracle_euler_factor_jet(chi, q, K, shift, chi.order <= 2))
    m.setattr(lfun, "bernoulli_value", _oracle_bernoulli_value)


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
    # up to two extra primes, T empty or one prime, and K in {r, r + 1};
    # an L-jet reads only the primitive character, so each is run once.
    # The Hurwitz jets and the roots of unity, exact and enclosed, are
    # shared between the two sides, which sum them
    hurwitz = functools.lru_cache(maxsize=None)(lfun.hurwitz_jet)
    monkeypatch.setattr(lfun, "hurwitz_jet", lambda f, residues, K: hurwitz(
        f, tuple(residues), K))
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
                    if r == 0:
                        assert _endpoints(bernoulli_value(chi, S, T)) == \
                            _endpoints(_oracle_bernoulli_value(chi, S, T))
                    for K in (r, r + 1):
                        spec = LSpec(chi, S, T, truncation=K)
                        new = l_jet(spec)
                        with monkeypatch.context() as m:
                            _use_oracle_sums(m)
                            old = l_jet(spec)
                        assert [_endpoints(x) for x in new.coeffs] == \
                            [_endpoints(x) for x in old.coeffs], (f, c, S, T)
                        assert new.params == old.params
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


def test_trivial_group_keeps_the_non_units_out():
    Q = AbelianFieldRealization.rationals()
    assert Q.dirichlet(Q.group.all_characters()[0]).values == [0]
    assert Q.ramified_primes() == [] and Q.splits_completely("inf")
    # f > 1 and H everything: G is trivial and has no coordinate
    # characters, yet the trivial character is still the one mod f
    R = AbelianFieldRealization(10, [3])
    assert R.degree() == 1 and R.coordinate_characters == []
    chi = R.dirichlet(R.group.all_characters()[0])
    assert chi.values == [None, 0, None, 0, None, None, None, 0, None, 0]
    assert R.ramified_primes() == [] and R.splits_completely(7)


def test_generic_stickelberger_elements_match_the_oracle(monkeypatch):
    # exact (|V| = 0) and first-order (V = {inf}) elements of the pool's
    # generic fields, read through the coset oracle and its sums
    for f, kernel in POOL_KERNELS:
        R = AbelianFieldRealization(f, kernel)
        S = ["inf"] + R.ramified_primes()
        T = [next(q for q in sympy.primerange(2, 50) if f % q)]
        V = ["inf"] if R.splits_completely("inf") else []
        new = stickelberger_element(R, S, V, T)
        with monkeypatch.context() as m:
            _use_oracle_sums(m)
            old = stickelberger_element(_CosetRealization(f, kernel),
                                        S, V, T)
        assert new.ring == old.ring
        assert [_endpoints(c) for c in new.coeffs] == \
            [_endpoints(c) for c in old.coeffs], (f, kernel)
