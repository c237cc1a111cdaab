import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (finf, fnan, fninf, from_int, from_man_exp,
                          from_rational, fzero, to_rational)
from mpmath.libmp.libmpi import mpi_exp, mpi_log, mpi_sqrt

from starklab import ball, lfun
from starklab.ball import (Ball, CBall, Undecided, ball_combination,
                           ball_det, ball_log, ball_log_int, ball_log_prod,
                           ball_pi, ball_sqrt, gauss_solve, max_radius,
                           working_precision)
from starklab.lfun import hurwitz_jet


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
    with pytest.raises(Undecided):
        Ball(0, 1).sign()
    assert Ball(3, Fraction(1, 10)).sign() == 1
    with pytest.raises(Undecided):
        (Ball(1) / Ball(0, 1))


TENTH = Fraction(1, 10)


@pytest.mark.parametrize("mid,rad,expected", [
    (5, 0, 5),
    (5, TENTH, 5),
    # [4.7, 5.3]: radius 3/10, wider than a 1/4 rule allows, one integer
    (5, 3 * TENTH, 5),
    # [5.1, 5.3], [3.08, 3.24] and [0.49, 0.51] hold no integer, though
    # the first two have a radius under 1/4 and a midpoint within 1/4 of
    # one, which a "nearest integer" rule would certify
    (Fraction(26, 5), TENTH, None),
    (Fraction(79, 25), Fraction(2, 25), None),
    (Fraction(1, 2), Fraction(1, 100), None),
    # [4.9, 6.1] holds 5 and 6; so does [5, 6], ends included
    (Fraction(11, 2), 6 * TENTH, Undecided),
    (Fraction(11, 2), Fraction(1, 2), Undecided),
], ids=["point", "narrow", "wide-one", "none-near-5", "none-near-3",
        "none-at-half", "two", "two-at-the-ends"])
def test_only_integer_at_its_edges(mid, rad, expected):
    b = Ball(mid, rad)
    if expected is Undecided:
        with pytest.raises(Undecided) as info:
            b.only_integer("the ratio")
        assert "the ratio" in str(info.value)
        assert info.value.radius == b.rad()
    else:
        assert b.only_integer() == expected


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-20, max_value=20),
       st.fractions(min_value=0, max_value=3))
def test_only_integer_is_the_one_integer_in_the_enclosure(mid, rad):
    b = Ball(mid, rad)
    lo, hi = b.endpoints()
    inside = list(range(math.ceil(lo), math.floor(hi) + 1))
    if len(inside) > 1:
        with pytest.raises(Undecided):
            b.only_integer()
    else:
        assert b.only_integer() == (inside[0] if inside else None)


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
    cube = w * w * w - 1
    assert cube.re.contains_zero() and cube.im.contains_zero()
    assert (w.re * w.re + w.im * w.im - 1).contains_zero()
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
    # a column with no certified nonzero entry: exactly zero gives exactly
    # 0, and one that straddles 0 is undecided with its largest radius
    assert ball_det([[Ball(0), Ball(1)], [Ball(0), Ball(3)]]).is_zero()
    Z = [[Ball(0, Fraction(1, 1000)), Ball(1)], [Ball(0), Ball(1)]]
    with pytest.raises(Undecided) as info:
        ball_det(Z)
    assert info.value.radius == max(Z[0][0].rad(), Z[1][0].rad())


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


@settings(max_examples=300, deadline=None)
@given(_mpf)
def test_an_endpoint_is_mpmaths_rational(raw):
    # one integer, or one integer over a power of two, read off the
    # mantissa and exponent: mpmath's own rational of the endpoint
    assert _frac(raw) == Fraction(*to_rational(raw))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ball(), max_size=4))
def test_integer_recognition_and_the_widest_radius_match_fractions(balls):
    # only_integer and max_radius decide on the binary endpoints; the
    # oracle reads the Fraction endpoints
    assert max_radius(balls) == max((b.rad() for b in balls), default=0)
    for b in balls:
        lo, hi = b.endpoints()
        count = math.floor(hi) - math.ceil(lo) + 1
        if count > 1:
            with pytest.raises(Undecided) as err:
                b.only_integer("the ball")
            assert err.value.radius == b.rad()
        else:
            assert b.only_integer() == (math.ceil(lo) if count else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False),
       st.sampled_from([53, 128]))
def test_solve_encloses_the_exact_solution_of_a_rational_system(n, rng,
                                                                bits):
    # each entry rounded once; from three unknowns on the system is
    # preconditioned first, and each coordinate still holds the exact
    # solution that sympy finds
    import sympy
    A = [[Fraction(rng.randint(-60, 60), rng.randint(1, 9))
          for _ in range(n)] for _ in range(n)]
    b = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(n)]
    M = sympy.Matrix(A)
    if M.det() == 0:
        return
    exact = [Fraction(int(v.p), int(v.q)) for v in M.LUsolve(sympy.Matrix(b))]
    with working_precision(bits):
        x = gauss_solve([[Ball(a) for a in row] for row in A],
                        [Ball(v) for v in b])
    assert all(xi.contains(e) for xi, e in zip(x, exact))


def test_a_solve_with_no_certified_pivot_is_undecided():
    # the midpoint is singular, so no preconditioner is formed, and no
    # pivot of the balls certifies
    wide = [[Ball(0, 1) for _ in range(3)] for _ in range(3)]
    with pytest.raises(Undecided):
        gauss_solve(wide, [Ball(1)] * 3)


@pytest.mark.parametrize("raw", [(fninf, from_int(1)), (fzero, finf),
                                 (fnan, fnan), (from_int(1), finf)])
def test_non_finite_endpoints_raise(raw):
    b = Ball._wrap(raw)
    for query in (b.contains_zero, b.is_nonzero, b.is_zero, b.sign,
                  lambda: b.contains(1), lambda: b.contains(Fraction(1, 3)),
                  b.only_integer, lambda: max_radius([b]),
                  lambda: ball_log(b), lambda: ball_sqrt(b)):
        with pytest.raises(ValueError):
            query()


# -- one rounding per exact point, against the floor-and-ceiling kernel -----
#
# The oracle is the kernel as it was before points were rounded once: two
# evaluations, one rounded down and one rounded up.

def oracle_ratio(n, d):
    """n/d for integers n and d > 0: `from_rational` at "f" and at "c",
    with an integer quotient longer than the precision kept exact, as
    Ball(int) keeps it."""
    prec = ball._PREC
    if n.bit_length() - d.bit_length() >= prec and n % d == 0:
        f = from_int(n // d)
        return f, f
    return (from_rational(n, d, prec, "f"), from_rational(n, d, prec, "c"))


def oracle_log_point(x, prec):
    return Ball._wrap(mpi_log((x, x), prec))


def _assert_points_match_the_oracle(n, d, m):
    """ball_log_int, ball_log, ball_sqrt at the positive integer m and the
    dyadic point m / 2^10; Ball(Fraction) at n/d."""
    prec = ball._PREC
    for x in (from_int(m), from_man_exp(m, -10)):
        assert ball_log(Ball._wrap((x, x)))._v == mpi_log((x, x), prec), m
        assert ball_sqrt(Ball._wrap((x, x)))._v == \
            mpi_sqrt((x, x), prec), m
    assert ball_log_int(m)._v == mpi_log((from_int(m),) * 2, prec), m
    x = Fraction(n, d)
    assert Ball(x)._v == oracle_ratio(x.numerator, x.denominator), x


ORACLE_BITS = [53, 80, 128, 160]


@pytest.mark.parametrize("bits", ORACLE_BITS)
@pytest.mark.parametrize("n,d,m", [
    (1, 1, 1),                          # log 1 = 0 and sqrt 1 = 1, exact
    (3, 8, 2), (-5, 64, 3),             # exact dyadic quotients
    (2 ** 300 + 2 ** 200, 2 ** 200, 4),  # exact, longer than the precision
    (-7, 3, 9), (-1, 10 ** 40, 10 ** 6),  # negative numerators
    (2 ** 160 * 9 + 1, 9, 2 ** 60 * 25),  # perfect squares
    (5 ** 101, 3 ** 70, 10 ** 50 + 7),
])
def test_points_are_rounded_once_as_the_oracle_rounds_them(bits, n, d, m):
    with working_precision(bits):
        _assert_points_match_the_oracle(n, d, m)
        assert ball_log_int(1).is_zero()
        assert ball_sqrt(m).rad() == 0 or math.isqrt(m) ** 2 != m


@pytest.mark.parametrize("bits", ORACLE_BITS)
@pytest.mark.parametrize("k", [-3, 0, 4])
def test_a_floor_of_minus_a_power_of_two_steps_up_by_half_its_ulp(bits, k):
    # n/d lies just above -2^k, so its floor is -2^k, and the binary
    # numbers just above -2^k are twice as fine as those just below it
    with working_precision(bits):
        prec = ball._PREC
        x = -Fraction(2) ** k + Fraction(1, 3 * 2 ** (prec + 8) + 1)
        n, d = x.numerator, x.denominator
        lo, hi = Ball(x).endpoints()
        assert lo == -Fraction(2) ** k
        assert hi - lo == Fraction(2) ** (k - prec)
        assert Ball(x)._v == oracle_ratio(n, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 40),
       st.integers(0, 300), st.integers(1, 10 ** 60),
       st.sampled_from(ORACLE_BITS))
def test_one_rounding_matches_the_floor_and_ceiling_kernel(n, d, j, m, bits):
    with working_precision(bits):
        _assert_points_match_the_oracle(n, d, m)
        _assert_points_match_the_oracle(n, 2 ** j, m * m)


# -- an exact combination of ball endpoints, rounded once ------------------

def oracle_combination(coeffs, balls, den, exact):
    """Each end of sum_i coeffs[i] balls[i] / den + p/q summed exactly in
    Fractions, the lower end from each ball's endpoint that its coefficient
    sends down, then rounded by `from_rational` at "f" and "c"."""
    prec = ball._PREC
    out = []
    for end, rnd in ((0, "f"), (1, "c")):
        total = Fraction(*exact)
        for a, b in zip(coeffs, balls):
            pick = end if a >= 0 else 1 - end
            total += Fraction(a, den) * b.endpoints()[pick]
        out.append(from_rational(total.numerator, total.denominator, prec,
                                 rnd))
    return tuple(out)


def _make_ball(spec):
    kind, n, d = spec
    if kind == "log":
        return ball_log_int(n)          # n = 1 gives the exact 0
    if kind == "ratio":
        return Ball(Fraction(n, d))
    if kind == "int":
        return Ball(n)                  # exact, longer than the precision
    return Ball(0, Fraction(n, d))      # a radius [-n/d, n/d]


BALL_SPECS = st.tuples(
    st.sampled_from(["log", "ratio", "int", "spread"]),
    st.one_of(st.just(1), st.integers(1, 10 ** 60)),
    st.integers(1, 10 ** 45))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), BALL_SPECS),
                max_size=5),
       st.integers(1, 10 ** 30), st.integers(-10 ** 200, 10 ** 200),
       st.integers(1, 10 ** 200), st.sampled_from(ORACLE_BITS))
def test_combination_is_the_fraction_sum_rounded_once(terms, den, p, q,
                                                      bits):
    with working_precision(bits):
        coeffs = [a for a, _ in terms]
        balls = [_make_ball(spec) for _, spec in terms]
        got = ball_combination(coeffs, balls, den, (p, q))._v
        assert got == oracle_combination(coeffs, balls, den, (p, q))


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_combination_keeps_exact_sums_exact(bits):
    with working_precision(bits):
        # log 1 = 0 and a zero coefficient add nothing
        zero = ball_combination([5, 0], [ball_log_int(1), ball_log_int(3)],
                                7, (0, 1))
        assert zero.is_zero()
        long = 2 ** 300 + 2 ** 250      # longer than the precision
        exact = ball_combination([2, -1], [Ball(long), Ball(1)], 4,
                                 (1, 4))
        assert exact.endpoints() == (Fraction(long, 2),) * 2
        # a rational alone rounds as Ball(Fraction) rounds it
        assert ball_combination([], [], 1, (2, 3))._v == \
            Ball(Fraction(2, 3))._v
        with pytest.raises(ValueError):
            ball_combination([1], [Ball._wrap((finf, finf))], 1, (0, 1))


def _long_integers():
    """Integers of 10^3, 10^4 and 10^5 bits: 2^k - 1, 2^k, 2^k + 1, a
    product of consecutive terms of an arithmetic progression, as the
    class products of `hurwitz_jet` are, and seeded random ones."""
    rng = random.Random(20231016)
    out = []
    for k in (10 ** 3, 10 ** 4, 10 ** 5):
        out += [2 ** k - 1, 2 ** k, 2 ** k + 1,
                rng.getrandbits(k) | 1 << (k - 1),
                (rng.getrandbits(k) | 1 << (k - 1)) << 37]
        terms, n = [], 1
        while n.bit_length() < k:
            n *= 293 * len(terms) + 150
            terms.append(n)
        out.append(n)
    return out


@pytest.mark.parametrize("bits", ORACLE_BITS + [256])
def test_log_of_a_long_integer_encloses_mpmath(bits):
    # the class products reach some 10^5 bits: every enclosure contains
    # the log that mpmath computes at 2 bits + 64 bits
    for n in _long_integers():
        assert Ball(n)._v == (from_int(n),) * 2     # exact, however long
        with working_precision(bits):
            got = ball_log(n)
        with mp.workprec(2 * bits + 64):
            ref = Fraction(*to_rational(mp.log(n)._mpf_))
        assert got.contains(ref), (bits, n.bit_length())
        assert got.rad() <= Fraction(2) ** -bits * ref, (bits, n)


def _factor_lists():
    """Sequences of positive integers: the empty product, one factor, the
    factor 1 alone, a product below the trim length, the class product of
    f = 1 (n = 1..N), the class products of a real character mod 997 and
    seeded random factors, these two some 10^5 bits in all."""
    rng = random.Random(20231018)
    big = [math.prod(range(a, 38 * 997 + a, 997)) for a in range(1, 499)]
    return [[], [2 ** 200 + 1], [1], [3, 5, 7, 2 ** 40 + 15],
            [math.prod(range(1, 77))], big,
            [rng.getrandbits(rng.randint(1, 400)) | 1 for _ in range(500)]]


@pytest.mark.parametrize("bits", ORACLE_BITS + [256])
def test_log_of_a_product_encloses_mpmath(bits):
    # the enclosure contains the log of the exact product, computed by
    # mpmath at 2 bits + 64 bits; a product below the trim length is one
    # log of the exact point, and a trimmed one is at most a few steps wider
    for factors in _factor_lists():
        n = math.prod(factors)
        with working_precision(bits):
            got = ball_log_prod(factors)
            T = ball._PREC + len(factors).bit_length() + 16
            exact = ball_log(n)
        with mp.workprec(2 * bits + 64):
            ref = Fraction(*to_rational(mp.log(n)._mpf_))
        assert got.contains(ref), (bits, len(factors))
        if n.bit_length() <= 4 * T:
            assert got._v == exact._v, (bits, len(factors))
        else:
            assert got.rad() <= 4 * exact.rad(), (bits, len(factors))
    with working_precision(bits):
        assert ball_log_prod([1]).is_zero() and ball_log_prod([]).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 2 ** 600), min_size=1, max_size=60),
       st.sampled_from(ORACLE_BITS))
def test_log_of_a_product_contains_the_log_of_the_exact_product(factors,
                                                                  bits):
    n = math.prod(factors)
    with working_precision(bits):
        got = ball_log_prod(factors)
    with mp.workprec(2 * bits + 64):
        ref = Fraction(*to_rational(mp.log(n)._mpf_))
    assert got.contains(ref)


def _hurwitz_endpoints():
    ball._log_int.cache_clear()
    lfun._plan.cache_clear()
    with working_precision(128):
        return [hurwitz_jet(f, list(residues))._v
                for f in range(3, 61)
                for residues in _mirror_closed_classes(f)]


def _mirror_closed_classes(f):
    """The value classes of the even characters mod f, each once."""
    R = lfun.AbelianFieldRealization(f, [])
    return sorted({residues for c in R.group.all_characters()
                   if R.dirichlet(c).parity() == 1
                   for _t, residues in R.dirichlet(c).classes()})


def test_hurwitz_jets_are_bit_identical_to_the_oracle_kernel(monkeypatch):
    # c_1 of every even character's class mod f <= 60: the current kernel,
    # then the floor-and-ceiling kernel patched in, each with cold caches
    try:
        current = _hurwitz_endpoints()
        monkeypatch.setattr(ball, "_ratio_interval", oracle_ratio)
        monkeypatch.setattr(ball, "_log_point", oracle_log_point)
        assert _hurwitz_endpoints() == current
    finally:
        ball._log_int.cache_clear()
        lfun._plan.cache_clear()
