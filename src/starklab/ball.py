"""Certified real/complex interval arithmetic on mpmath's low-level
interval kernel (libmpi), which rounds endpoints outward.

A `Ball` encloses a real number between two exact binary endpoints; every
operation returns an enclosure of the exact result.  All certification
predicates are decided exactly, never on floats: sign, zero, containment
and integer recognition on the binary endpoints themselves (sign bits,
and integer comparisons of mantissa times a power of two against a
rational), with no `Fraction`s.  Floats only choose a preconditioner
for `gauss_solve`, which certifies nothing itself.

An exact point (an integer, a rational n/d, or a point ball) is rounded
once: its log, quotient or square root is evaluated only rounded down to
the working precision (`mpf_log`, `from_rational`, `mpf_sqrt`), and the
upper endpoint is the next binary number of that precision above the
floor (`_step_up`).  Quotients and square roots are correctly rounded, so
that number is their ceiling whenever the value is not the floor itself.
`mpf_log` rounds one approximation both ways, and its ceiling is that
number too unless the approximation falls on the grid, where the ceiling
would equal the floor; the step keeps the ball one step wide there.  An
exact value keeps a zero-width ball: log 1 = 0, a quotient that the floor
equals (compared in integers), and a square root whose square is the
point.

An exact linear combination of balls is rounded once too
(`ball_combination`): integer coefficients over one denominator times
balls, plus an exact rational.  Each end is the exact sum, in integers,
of the binary endpoints that the coefficients' signs send to it, and one
integer floor division rounds it to the working precision, down for the
lower end and up for the upper.

The log of a long product of positive integers (`ball_log_prod`) is taken
without forming the product: a floor and a ceiling of it are kept trimmed
to a little more than the working precision, and one log is rounded,
that of the floor; the upper end adds the ceiling's relative excess over
it.

A computation that cannot certify what was asked raises `Undecided` rather
than guessing; callers treat that as "raise the precision", not as failure.
An enclosure that certifiably contradicts what must hold raises
`CertificationError`, which callers treat as failure.

The working precision has one source: `working_precision(bits)` is the only
way to set it.  Each entry point (a scenario run, a CLI command) enters it
once, and the code it calls reads the precision in force, through
`precision()` where it needs the number itself; no public function takes
a precision argument (a memo such as `_log_int` takes it only as part of
its cache key).  A step that needs extra guard bits of its own nests
`working_precision(precision() + extra)`.
"""

from fractions import Fraction
from functools import lru_cache
from math import frexp, isfinite, ldexp

from mpmath.libmp import (from_int, from_man_exp, from_rational, fone,
                          fzero, mpf_add, mpf_cmp, mpf_log, mpf_mul,
                          mpf_neg, mpf_sqrt, mpf_sub, to_float)
from mpmath.libmp.libmpi import (mpi_abs, mpi_add, mpi_cos, mpi_div,
                                 mpi_log, mpi_mul, mpi_neg, mpi_pi,
                                 mpi_pow_int, mpi_sin, mpi_sqrt, mpi_sub)

DEFAULT_PREC = 128
_GUARD_BITS = 15
_PREC = DEFAULT_PREC + _GUARD_BITS


class Undecided(Exception):
    """An enclosure is too wide to certify the requested property."""

    def __init__(self, message, radius=None):
        super().__init__(message)
        self.radius = radius


class CertificationError(Exception):
    """A certified enclosure contradicts what the theory or an exact
    computation requires: a failure, which more precision does not resolve
    (unlike `Undecided`).  Raised in place of `assert`, so the gate also
    holds under `python -O`.
    """


class PrecisionError(Undecided):
    """The working precision is below what a computation supports.

    An `Undecided`: the answer is "raise the precision", not a failure.
    `radius` is 2^-prec, the resolution of the precision that was given.
    """


def precision():
    """The working precision in force, in bits, without the guard bits."""
    return _PREC - _GUARD_BITS


class working_precision:
    """Context manager scoping the working precision to `bits` (plus guard
    bits); the previous precision is restored on exit, also when the body
    raises.

    This is the only way to set the precision.  An entry point enters it
    once for its whole run; the code it calls reads the precision in force
    and does not take a precision argument.
    """

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        global _PREC
        self.old = _PREC
        _PREC = int(self.bits) + _GUARD_BITS
        return self

    def __exit__(self, *exc):
        global _PREC
        _PREC = self.old
        return False


def _raw_sign(raw):
    """Sign (-1, 0 or 1) of an mpf endpoint; ValueError if non-finite."""
    if raw[1]:
        return -1 if raw[0] else 1
    if raw != fzero:
        raise ValueError("non-finite endpoint")
    return 0


def _raw_cmp(raw, n, d):
    """Sign of raw - n/d for an mpf endpoint and integers n and d > 0: one
    integer comparison of +-man * d * 2^exp against n.  ValueError if raw
    is non-finite."""
    _, man, exp, _ = raw
    a = _raw_sign(raw) * man * d
    if exp >= 0:
        a <<= exp
    else:
        n <<= -exp
    return (a > n) - (a < n)


def _raw_to_fraction(raw):
    """The exact value of a finite mpf endpoint: +-man 2^exp as one integer
    or one integer over a power of two."""
    sign, man, exp, _ = raw
    if not man:
        if raw == fzero:
            return Fraction(0)
        raise ValueError("non-finite endpoint")
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def max_radius(balls):
    """The largest radius of `balls` as a Fraction, 0 for none: the widths
    hi - lo are compared on the binary endpoints, each an exact `mpf_sub`,
    and only the largest is converted.  ValueError if an endpoint is not
    finite."""
    widest = fzero
    for b in balls:
        lo, hi = b._v
        width = mpf_sub(hi, lo)
        if _raw_sign(width) and mpf_cmp(width, widest) > 0:
            widest = width
    return _raw_to_fraction(widest) / 2


def _step_up(lo, prec):
    """The least binary number of `prec` bits above the nonzero mpf `lo`
    (itself of at most `prec` bits): the ceiling at `prec` of every value
    strictly between the two.  The grid below 2^k is twice as fine as the
    one above it, so at lo = -2^k the step is 2^(k - prec), not
    2^(k + 1 - prec)."""
    sign, man, exp, bc = lo
    shift = prec - bc + (1 if sign and man == 1 else 0)
    m = man << shift
    return from_man_exp(-(m - 1) if sign else m + 1, exp - shift)


def _ratio_interval(n, d):
    """n/d for integers n and d > 0, rounded once: the floor, and the step
    up from it unless the floor is n/d itself."""
    lo = from_rational(n, d, _PREC, "f")
    return lo, lo if _raw_cmp(lo, n, d) == 0 else _step_up(lo, _PREC)


def _interval_of(x):
    if isinstance(x, Ball):
        return x._v
    if isinstance(x, int):
        # the power of two comes off in one shift: `from_int` strips zero
        # bits eight at a time, which is slow on a long product
        k = (x & -x).bit_length() - 1
        f = from_man_exp(x >> k, k) if k > 0 else from_int(x)
        return (f, f)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            f = from_int(x.numerator)
            return (f, f)
        return _ratio_interval(x.numerator, x.denominator)
    if isinstance(x, float):
        from mpmath.libmp import from_float
        f = from_float(x)
        return (f, f)
    raise TypeError(f"cannot coerce {type(x)} to Ball")


class Ball:
    __slots__ = ("_v",)

    def __init__(self, value=0, rad=None):
        self._v = _interval_of(value)
        if rad is not None:
            r = _interval_of(rad)
            spread = (mpf_neg(r[1]), r[1])
            self._v = mpi_add(self._v, spread, _PREC)

    @staticmethod
    def _wrap(ival):
        b = Ball.__new__(Ball)
        b._v = ival
        return b

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            o = _interval_of(other)
        except TypeError:
            return NotImplemented
        return Ball._wrap(mpi_add(self._v, o, _PREC))

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = _interval_of(other)
        except TypeError:
            return NotImplemented
        return Ball._wrap(mpi_sub(self._v, o, _PREC))

    def __rsub__(self, other):
        try:
            o = _interval_of(other)
        except TypeError:
            return NotImplemented
        return Ball._wrap(mpi_sub(o, self._v, _PREC))

    def __mul__(self, other):
        try:
            o = _interval_of(other)
        except TypeError:
            return NotImplemented
        return Ball._wrap(mpi_mul(self._v, o, _PREC))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Ball) else Ball(other)
        if o.contains_zero():
            raise Undecided("division by an interval containing zero",
                            o.rad())
        return Ball._wrap(mpi_div(self._v, o._v, _PREC))

    def __rtruediv__(self, other):
        return Ball(other) / self

    def __neg__(self):
        return Ball._wrap(mpi_neg(self._v, _PREC))

    def __abs__(self):
        return Ball._wrap(mpi_abs(self._v, _PREC))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers")
        if k < 0:
            return 1 / (self ** (-k))
        return Ball._wrap(mpi_pow_int(self._v, k, _PREC))

    # -- certified queries ---------------------------------------------

    def endpoints(self):
        lo, hi = self._v
        return _raw_to_fraction(lo), _raw_to_fraction(hi)

    def rad(self):
        lo, hi = self.endpoints()
        return (hi - lo) / 2

    def _signs(self):
        lo, hi = self._v
        return _raw_sign(lo), _raw_sign(hi)

    def contains_zero(self):
        lo, hi = self._signs()
        return lo <= 0 <= hi

    def contains(self, x):
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        lo, hi = self._v
        below, above = _raw_cmp(lo, n, d), _raw_cmp(hi, n, d)
        return below <= 0 <= above

    def is_nonzero(self):
        lo, hi = self._signs()
        return hi < 0 or lo > 0

    def is_zero(self):
        """Is the enclosure exactly {0}, both endpoints zero?"""
        return self._signs() == (0, 0)

    def sign(self):
        """Certified sign: -1, 0 (for exactly {0}) or +1; raises Undecided
        if straddling zero."""
        lo, hi = self._signs()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi == 0:
            return 0
        raise Undecided("interval straddles zero", self.rad())

    def only_integer(self, what="the enclosure"):
        """The one integer in the enclosure, or None when it holds none;
        raises Undecided, naming `what`, when it holds two or more.

        Decided exactly on the binary endpoints, so no integer outside the
        enclosure is ever returned: n is the ceiling of the lower end, by
        one shift of its mantissa, and is compared with the upper end.
        """
        lo, hi = self._v
        _, man, exp, _ = lo
        m = _raw_sign(lo) * man
        n = m << exp if exp >= 0 else -(-m >> -exp)
        if _raw_cmp(hi, n, 1) < 0:
            return None
        if _raw_cmp(hi, n + 1, 1) >= 0:
            raise Undecided(f"{what} holds more than one integer",
                            self.rad())
        return n

    def __repr__(self):
        lo, hi = self.endpoints()
        mid = float((lo + hi) / 2)
        rad = float((hi - lo) / 2)
        return f"Ball({mid!r} ± {rad:.3g})"

    def to_json(self):
        """Serialize as {mid, rad} decimal strings; the pair re-encloses self."""
        lo, hi = self.endpoints()
        mid, rad = (lo + hi) / 2, (hi - lo) / 2
        digits = max(_PREC // 3, 20)
        mid_str, mid_err = _frac_to_decimal(mid, digits)
        rad_str, _ = _frac_to_decimal(rad + mid_err, 6, round_up=True)
        return {"mid": mid_str, "rad": rad_str}


def _frac_to_decimal(x, digits, round_up=False):
    """(decimal string, absolute rounding error bound) for a Fraction."""
    if x == 0:
        return "0", Fraction(0)
    sign = "-" if x < 0 else ""
    x = abs(x)
    exp = 0
    while x >= 10:
        x /= 10
        exp += 1
    while x < 1:
        x *= 10
        exp -= 1
    scaled = x * 10 ** (digits - 1)
    n = int(scaled)
    if round_up and scaled != n:
        n += 1
    err = abs(scaled - n) * Fraction(10) ** (exp - digits + 1)
    s = str(n)
    tail = s[1:].rstrip("0")
    mantissa = s[0] + ("." + tail if tail else "")
    return f"{sign}{mantissa}e{exp}", err


# -- elementary functions with rigorous enclosures ----------------------

def ball_log(x):
    b = x if isinstance(x, Ball) else Ball(x)
    if b._signs()[0] <= 0:
        raise ValueError("log requires a strictly positive enclosure")
    lo, hi = b._v
    if lo == hi:
        return _log_point(lo, _PREC)
    return Ball._wrap(mpi_log(b._v, _PREC))


def ball_log_prod(factors):
    """log of the product of a sequence of positive integers, without the
    exact product: a floor and a ceiling of it, lo 2^e <= prod <= hi 2^e,
    are multiplied factor by factor, and whenever hi grows past 4T bits,
    T = _PREC + bit_length(len(factors)) + 16, both are trimmed to T bits
    (lo rounded down, hi up).  A trim moves its end by less than 2^(2-T)
    of it, and there is at most one per factor, so hi / lo stays below
    1 + 2^-(_PREC+12).  One log is rounded (`_log_point`): the lower end is
    the floor of log(lo 2^e), and the upper end its ceiling plus
    (hi - lo) / lo >= log(hi / lo), rounded up.  A product of at most 4T
    bits is never trimmed: lo = hi, and the ball is its log's point."""
    T = _PREC + len(factors).bit_length() + 16
    lo = hi = 1
    e = 0
    for x in factors:
        lo *= x
        hi *= x
        shift = hi.bit_length() - T
        if shift > 3 * T:
            lo >>= shift
            hi = -(-hi >> shift)
            e += shift
    low, high = _log_point(from_man_exp(lo, e), _PREC)._v
    if lo != hi:
        # (hi - lo) / lo <= (hi - lo) 2^(1 - bit_length(lo))
        high = mpf_add(high, from_man_exp(hi - lo, 1 - lo.bit_length()),
                       _PREC, "c")
    return Ball._wrap((low, high))


def _log_point(x, prec):
    """log of the positive mpf x, rounded once: log 1 = 0 is the only
    exact value."""
    if x == fone:
        return Ball(0)
    lo = mpf_log(x, prec, "f")
    return Ball._wrap((lo, _step_up(lo, prec)))


def ball_sqrt(x):
    b = x if isinstance(x, Ball) else Ball(x)
    if b._signs()[0] < 0:
        raise ValueError("sqrt requires a nonnegative enclosure")
    lo, hi = b._v
    if lo == hi:
        # rounded once: exact when the floor squares back to the point
        r = mpf_sqrt(lo, _PREC, "f")
        return Ball._wrap((r, r if mpf_mul(r, r) == lo
                           else _step_up(r, _PREC)))
    return Ball._wrap(mpi_sqrt(b._v, _PREC))


def ball_pi():
    return Ball._wrap(mpi_pi(_PREC))


def ball_cospi2(t):
    """cos(2*pi*t) for rational t, as a certified ball."""
    t = Fraction(t) % 1
    table = {Fraction(0): Ball(1), Fraction(1, 2): Ball(-1),
             Fraction(1, 4): Ball(0), Fraction(3, 4): Ball(0)}
    if t in table:
        return table[t]
    ang = ball_pi() * Fraction(2) * t
    return Ball._wrap(mpi_cos(ang._v, _PREC))


def ball_sinpi2(t):
    t = Fraction(t) % 1
    table = {Fraction(0): Ball(0), Fraction(1, 2): Ball(0),
             Fraction(1, 4): Ball(1), Fraction(3, 4): Ball(-1)}
    if t in table:
        return table[t]
    ang = ball_pi() * Fraction(2) * t
    return Ball._wrap(mpi_sin(ang._v, _PREC))


def ball_combination(coeffs, balls, den, exact):
    """sum_i coeffs[i] balls[i] / den + p/q, rounded once, for integers
    coeffs[i], den > 0, and an exact rational given as the unreduced pair
    exact = (p, q), q > 0.

    Each end sums, in one integer, the binary endpoints that the
    coefficients' signs send to it, so the sum is exact; one integer floor
    division then gives a mantissa of at least the working precision, and
    `from_man_exp` rounds it down (lower end) or up (upper end) to the
    working precision.  A radius r enters as the ball [-r, r] with
    coefficient den."""
    ends = [(a, b._v[0], b._v[1]) if a > 0 else (a, b._v[1], b._v[0])
            for a, b in zip(coeffs, balls) if a]
    exps = [raw[2] for _, lo, hi in ends for raw in (lo, hi) if raw[1]]
    e = min(exps, default=0)
    p, q = exact
    lo_hi = []
    for k, rnd in ((1, "f"), (2, "c")):
        s = 0
        for end in ends:
            sign, man, exp, _ = end[k]
            if man:
                s += end[0] * (-man if sign else man) << (exp - e)
            elif end[k] != fzero:
                raise ValueError("non-finite endpoint")
        # s 2^e / den + p / q = n / d
        if e < 0:
            n, d = s * q + (p * den << -e), (den * q) << -e
        else:
            n, d = (s * q << e) + p * den, den * q
        lo_hi.append(_round_ratio(n, d, rnd))
    return Ball._wrap(tuple(lo_hi))


def _round_ratio(n, d, rnd):
    """n/d for integers n and d > 0, rounded to the working precision in
    the direction rnd ("f" or "c"): one floor division to a mantissa of
    _PREC or _PREC + 1 bits, which `from_man_exp` rounds the same way.
    Every binary number of _PREC bits at or beyond the quotient's magnitude
    lies on the grid of that division, so the two roundings in one
    direction round once."""
    if not n:
        return fzero
    shift = _PREC - abs(n).bit_length() + d.bit_length()
    if shift >= 0:
        n <<= shift
    else:
        d <<= -shift
    m = n // d if rnd == "f" else -(-n // d)
    return from_man_exp(m, -shift, _PREC, rnd)


def ball_log_int(n):
    """log(n) for a positive integer, cached per working precision."""
    return _log_int(n, _PREC)


@lru_cache(maxsize=1 << 12)
def _log_int(n, prec):
    """The `lru_cache` key is (n, prec): a log is computed once per
    precision, and the least recently used logs go first.

    A class's c_1 takes the logs of (2N + 1) f and 2 alone (of p alone for the
    units mod p^k), and a leading term adds log q for each S-prime q where the
    character is 1, so after one pass over a benchmark pool (every op once,
    fresh process) the cache holds 127 logs for `acnf` (210 calls), 60 for
    `rubin_stark` (117) and none for `exact_algebra`, and a benchmark run's
    stream adds no new ones.  An entry takes about 570 bytes, so 4096 entries,
    2.3 MiB, hold these working sets many times over."""
    return _log_point(from_int(n), prec)


class CBall:
    """Rectangular complex enclosure: a pair of real balls."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Ball) else Ball(re)
        self.im = im if isinstance(im, Ball) else Ball(im)

    @staticmethod
    def root_of_unity(num, den):
        """exp(2*pi*i*num/den) as a certified complex ball."""
        t = Fraction(num, den)
        return CBall(ball_cospi2(t), ball_sinpi2(t))

    @staticmethod
    def _coerce(x):
        if isinstance(x, CBall):
            return x
        if isinstance(x, (int, Fraction, Ball)):
            return CBall(x, 0)
        raise TypeError(f"cannot coerce {type(x)} to CBall")

    def __add__(self, other):
        o = CBall._coerce(other)
        return CBall(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CBall._coerce(other)
        return CBall(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CBall._coerce(other) - self

    def __mul__(self, other):
        o = CBall._coerce(other)
        return CBall(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def is_nonzero(self):
        return self.re.is_nonzero() or self.im.is_nonzero()

    def rad(self):
        """The larger of the two parts' radii."""
        return max(self.re.rad(), self.im.rad())

    def real_part_certified(self):
        """The real part, once the imaginary part certifiably contains 0."""
        if not self.im.contains_zero():
            raise Undecided("imaginary part does not contain zero",
                            self.im.rad())
        return self.re

    def __repr__(self):
        return f"CBall({self.re!r}, {self.im!r})"


def _certified_pivot(M, col):
    """The row i >= col whose entry in column col is certified nonzero and
    farthest from zero (its endpoint nearest zero is largest), or None."""
    piv, best = None, None
    for i in range(col, len(M)):
        e = M[i][col]
        if e.is_nonzero():
            lo, hi = e._v
            score = lo if _raw_sign(lo) > 0 else mpf_neg(hi)
            if best is None or mpf_cmp(score, best) > 0:
                best, piv = score, i
    return piv


def _preconditioner(A):
    """Integer rows R_i, each a float approximate inverse row of the
    midpoint of the ball matrix A scaled to 53-bit integers, by
    Gauss-Jordan elimination in floats; None when that elimination meets
    a zero pivot or a midpoint out of float range."""
    n = len(A)
    M = []
    for i, row in enumerate(A):
        mids = [to_float(mpf_add(*e._v, 53)) / 2 for e in row]
        if not all(map(isfinite, mids)):
            return None
        M.append(mids + [float(i == j) for j in range(n)])
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(M[i][c]))
        if not M[p][c]:
            return None
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    out = []
    for row in M:
        e = frexp(max(map(abs, row[n:])))[1]
        out.append([round(ldexp(x, 53 - e)) for x in row[n:]])
    return out


def gauss_solve(A, b):
    """Solve A x = b for ball matrices by elimination with certified pivots.

    A is a list of rows of Balls, b a list of Balls.  From three unknowns
    on, the system is first preconditioned (Hansen): with R an approximate
    inverse of A's midpoint, in integers (`_preconditioner`), R A x = R b
    has the same solutions, and each entry of R A and R b is one
    `ball_combination`.  R A is then near the identity, so elimination on
    it widens the balls little.  At one or two unknowns elimination widens
    them little anyway, and the preconditioner's own roundings can double
    a radius that is at the rounding level.  Raises Undecided when no
    remaining pivot candidate certifies nonzero.
    """
    n = len(A)
    R = _preconditioner(A) if n > 2 else None
    if R is not None:
        cols = [list(col) for col in zip(*A)]
        A = [[ball_combination(r, col, 1, (0, 1)) for col in cols]
             for r in R]
        b = [ball_combination(r, b, 1, (0, 1)) for r in R]
    M = [row.copy() + [bv] for row, bv in zip(A, b)]
    for col in range(n):
        piv = _certified_pivot(M, col)
        if piv is None:
            rad = max(M[i][col].rad() for i in range(col, n))
            raise Undecided("no certified nonzero pivot", rad)
        M[col], M[piv] = M[piv], M[col]
        pe = M[col][col]
        for i in range(n):
            if i != col and not M[i][col].is_zero():
                f = M[i][col] / pe
                M[i] = [a - f * c for a, c in zip(M[i], M[col])]
                M[i][col] = Ball(0)
    return [M[i][n] / M[i][i] for i in range(n)]


def ball_det(A):
    """Determinant of a square ball matrix by certified elimination.

    A column with no certified nonzero entry left gives exactly Ball(0)
    when every such entry is exactly 0, and raises Undecided with the
    column's largest radius otherwise: each term of the determinant then
    has a factor that contains 0, so no expansion certifies its sign."""
    n = len(A)
    if n == 0:
        return Ball(1)
    M = [row.copy() for row in A]
    det = Ball(1)
    for col in range(n):
        piv = _certified_pivot(M, col)
        if piv is None:
            rad = max(M[i][col].rad() for i in range(col, n))
            if rad == 0:
                return Ball(0)
            raise Undecided("no certified nonzero pivot in determinant", rad)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        pe = M[col][col]
        det = det * pe
        for i in range(col + 1, n):
            f = M[i][col] / pe
            M[i] = [a - f * c for a, c in zip(M[i], M[col])]
    return det
