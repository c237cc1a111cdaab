"""Certified real/complex interval arithmetic on mpmath's low-level
interval kernel (libmpi), which rounds endpoints outward.

A `Ball` encloses a real number between two exact binary endpoints; every
operation returns an enclosure of the exact result.  All certification
predicates (sign, integer recognition) are decided on exact rational
endpoints, never on floats.

A computation that cannot certify what was asked raises `Undecided` rather
than guessing; callers treat that as "raise the precision", not as failure.
An enclosure that certifiably contradicts what must hold raises
`CertificationError`, which callers treat as failure.

The working precision has one source: `working_precision(bits)` is the only
way to set it.  Each entry point (a scenario run, a CLI command) enters it
once, and the code it calls reads the precision in force, through
`precision()` where it needs the number itself; no function takes a
precision argument.  A step that needs extra guard bits of its own nests
`working_precision(precision() + extra)`.
"""

from fractions import Fraction

from mpmath.libmp import (finf, fninf, fnan, from_int, from_rational,
                          mpf_cmp, mpf_neg)
from mpmath.libmp.libmpi import (mpi_abs, mpi_add, mpi_cos, mpi_div,
                                 mpi_exp, mpi_log, mpi_mul, mpi_neg,
                                 mpi_pi, mpi_pos, mpi_pow_int, mpi_sin,
                                 mpi_sqrt, mpi_sub)

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


def _raw_to_fraction(raw):
    sign, man, exp, bc = raw
    if man == 0:
        if raw == (0, 0, 0, 0):
            return Fraction(0)
        raise ValueError("non-finite endpoint")
    v = Fraction(int(man)) * (Fraction(2) ** exp)
    return -v if sign else v


def _interval_of(x):
    if isinstance(x, Ball):
        return x._v
    if isinstance(x, int):
        f = from_int(x)
        return (f, f)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            f = from_int(x.numerator)
            return (f, f)
        return (from_rational(x.numerator, x.denominator, _PREC, "f"),
                from_rational(x.numerator, x.denominator, _PREC, "c"))
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

    @staticmethod
    def from_endpoints(lo, hi):
        lo_i = _interval_of(lo)
        hi_i = _interval_of(hi)
        return Ball._wrap((lo_i[0], hi_i[1]))

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

    def mid(self):
        lo, hi = self.endpoints()
        return (lo + hi) / 2

    def rad(self):
        lo, hi = self.endpoints()
        return (hi - lo) / 2

    def contains_zero(self):
        lo, hi = self.endpoints()
        return lo <= 0 <= hi

    def contains(self, x):
        lo, hi = self.endpoints()
        x = Fraction(x)
        return lo <= x <= hi

    def is_nonzero(self):
        lo, hi = self.endpoints()
        return hi < 0 or lo > 0

    def sign(self):
        """Certified sign: -1 or +1; raises Undecided if straddling zero."""
        lo, hi = self.endpoints()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi == 0:
            return 0
        raise Undecided("interval straddles zero", (hi - lo) / 2)

    def unique_integer(self):
        """The integer this ball certifies, per the radius < 1/4 rule.

        Certifies n iff rad < 1/4 and |mid - n| <= 1/4; raises Undecided
        otherwise.
        """
        lo, hi = self.endpoints()
        rad = (hi - lo) / 2
        mid = (lo + hi) / 2
        if rad >= Fraction(1, 4):
            raise Undecided("radius too large to recognise an integer", rad)
        n = round(mid)
        if abs(mid - n) > Fraction(1, 4):
            raise Undecided("midpoint not within 1/4 of an integer", rad)
        return int(n)

    def unique_rational(self, denominator):
        """Certified rational with the given denominator (scaled 1/4 rule)."""
        n = (self * denominator).unique_integer()
        return Fraction(n, denominator)

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


def ball_from_json(obj):
    mid = Fraction(_decimal_to_fraction(obj["mid"]))
    rad = Fraction(_decimal_to_fraction(obj["rad"]))
    return Ball(mid, rad)


def _decimal_to_fraction(s):
    s = s.strip()
    if "e" in s or "E" in s:
        mant, _, ex = s.replace("E", "e").partition("e")
        return Fraction(mant.replace(".", "")) * Fraction(10) ** (
            int(ex) - (len(mant.partition(".")[2]))
        )
    return Fraction(s)


# -- elementary functions with rigorous enclosures ----------------------

def ball_log(x):
    b = x if isinstance(x, Ball) else Ball(x)
    lo, _ = b.endpoints()
    if lo <= 0:
        raise ValueError("log requires a strictly positive enclosure")
    return Ball._wrap(mpi_log(b._v, _PREC))


def ball_exp(x):
    b = x if isinstance(x, Ball) else Ball(x)
    return Ball._wrap(mpi_exp(b._v, _PREC))


def ball_sqrt(x):
    b = x if isinstance(x, Ball) else Ball(x)
    lo, _ = b.endpoints()
    if lo < 0:
        raise ValueError("sqrt requires a nonnegative enclosure")
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


_LOG_CACHE = {}


def ball_log_int(n):
    """log(n) for a positive integer, cached per working precision."""
    key = (n, _PREC)
    out = _LOG_CACHE.get(key)
    if out is None:
        f = from_int(n)
        out = Ball._wrap(mpi_log((f, f), _PREC))
        if len(_LOG_CACHE) > 400000:
            _LOG_CACHE.clear()
        _LOG_CACHE[key] = out
    return out


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
        if hasattr(x, "to_cball"):  # exact cyclotomic scalars
            return x.to_cball()
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

    def __neg__(self):
        return CBall(-self.re, -self.im)

    def conj(self):
        return CBall(self.re, -self.im)

    def contains_zero(self):
        return self.re.contains_zero() and self.im.contains_zero()

    def is_nonzero(self):
        return self.re.is_nonzero() or self.im.is_nonzero()

    def real_part_certified(self):
        """The real part, once the imaginary part certifiably contains 0."""
        if not self.im.contains_zero():
            raise Undecided("imaginary part does not contain zero",
                            self.im.rad())
        return self.re

    def rad(self):
        return max(self.re.rad(), self.im.rad())

    def __repr__(self):
        return f"CBall({self.re!r}, {self.im!r})"


def gauss_solve(A, b):
    """Solve A x = b for ball matrices by elimination with certified pivots.

    A is a list of rows of Balls, b a list of Balls.  Raises Undecided when
    no remaining pivot candidate certifies nonzero.
    """
    n = len(A)
    M = [row.copy() + [bv] for row, bv in zip(A, b)]
    for col in range(n):
        piv, best = None, None
        for i in range(col, n):
            e = M[i][col]
            if e.is_nonzero():
                lo, hi = e.endpoints()
                score = min(abs(lo), abs(hi))
                if best is None or score > best:
                    best, piv = score, i
        if piv is None:
            rad = max(M[i][col].rad() for i in range(col, n))
            raise Undecided("no certified nonzero pivot", rad)
        M[col], M[piv] = M[piv], M[col]
        pe = M[col][col]
        for i in range(n):
            if i != col and not (M[i][col].endpoints() == (0, 0)):
                f = M[i][col] / pe
                M[i] = [a - f * c for a, c in zip(M[i], M[col])]
                M[i][col] = Ball(0)
    return [M[i][n] / M[i][i] for i in range(n)]


def ball_det(A):
    """Determinant of a square ball matrix by certified elimination."""
    n = len(A)
    if n == 0:
        return Ball(1)
    M = [row.copy() for row in A]
    det = Ball(1)
    for col in range(n):
        piv, best = None, None
        for i in range(col, n):
            e = M[i][col]
            if e.is_nonzero():
                lo, hi = e.endpoints()
                score = min(abs(lo), abs(hi))
                if best is None or score > best:
                    best, piv = score, i
        if piv is None:
            if all(M[i][col].contains_zero() for i in range(col, n)):
                return _det_expand(M, col, det)
            raise Undecided("no certified nonzero pivot in determinant", None)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        pe = M[col][col]
        det = det * pe
        for i in range(col + 1, n):
            f = M[i][col] / pe
            M[i] = [a - f * c for a, c in zip(M[i], M[col])]
    return det


def _det_expand(M, col, acc):
    """Cofactor expansion fallback for ball determinants (small sizes)."""
    sub = [row[col:] for row in M[col:]]

    def expand(rows):
        k = len(rows)
        if k == 0:
            return Ball(1)
        if k == 1:
            return rows[0][0]
        total = Ball(0)
        for i in range(k):
            if rows[i][0].endpoints() == (0, 0):
                continue
            minor = [r[1:] for j, r in enumerate(rows) if j != i]
            term = rows[i][0] * expand(minor)
            total = total + term if i % 2 == 0 else total - term
        return total

    return acc * expand(sub)
