"""Exact arithmetic of Q and quadratic fields: class groups via binary
quadratic forms, fundamental units via continued fractions, prime splitting,
S-unit lattices with their Galois action, and (S, T)-ray class modules.

A field is `QQ` or a `QuadField`, and the S-unit layer reads what it
declares and answers, never its type.  Everything feeding an exact check
is computed in integer arithmetic: an element of Q is a Fraction, one of a
quadratic field is (A + B*sqrt(m))/d with integers A, B, d, d > 0 and
gcd(A, B, d) = 1, and form reduction tracks its transform as four integers.
Only logarithms and real embeddings produce balls.  Absolute values are
normalized so the product formula holds exactly: complex places squared,
finite places |x|_w = (Nw)^(-ord_w x).
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, log, log1p, prod, sqrt
from typing import NamedTuple

from . import hnf
from .arith import CapacityError, factorint, isprime, primerange
from .ball import (Ball, CertificationError, ball_combination, ball_log,
                   ball_log_int, ball_sqrt)
from .finite import GroupStructure
from .grpring import AbelianGroup, InputError

MAX_ABS_DISC = 10 ** 6


class DatumError(ValueError):
    """A scenario datum violates one of the standing hypotheses."""


def kronecker(a, n):
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_part(n):
    """The squarefree kernel s of n = s * t^2 (keeps the sign)."""
    if n == 0:
        return 0
    s = 1 if n > 0 else -1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            s *= p
    return s


def fundamental_discriminant(d):
    """Fundamental discriminant of Q(sqrt(d))."""
    m = squarefree_part(d)
    if m == 1:
        raise InputError(f"{d} is a square; not a quadratic field")
    return m if m % 4 == 1 else 4 * m


def is_fundamental_discriminant(D):
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return D == squarefree_part(D)
    if D % 4 == 0:
        m = D // 4
        return m == squarefree_part(m) and m % 4 in (2, 3)
    return False


class RationalField:
    """Q, with Fractions for elements, answering what a `QuadField` answers
    for the S-unit layer: degree 1, unit rank 0, torsion +-1, one place over
    each rational place, and logs.  `QQ` is its one instance."""

    degree = 1
    unit_rank = 0
    subfields = ()

    def torsion_generator(self):
        return Fraction(-1), 2

    def torsion_units(self):
        return [Fraction(1), Fraction(-1)]

    def is_unit(self, x):
        return abs(x) == 1

    @lru_cache(maxsize=None)
    def places(self, v):
        """The one place over the rational place v ('inf' or a prime)."""
        if v == "inf":
            return (Place(self, "real", label="inf"),)
        return (Place(self, "finite", q=v, label=f"{v}"),)

    def arch_logs(self, elements):
        """Each element's -log|x| at the real place, as a row."""
        return [[-ball_log(abs(Ball(x)))] for x in elements]

    def s_unit_lattice(self, S, T):
        return s_unit_lattice(self, S, T)


QQ = RationalField()


class QuadField:
    """Q(sqrt(m)) for squarefree m, with fundamental discriminant D."""

    degree = 2
    subfields = ()

    @lru_cache(maxsize=None)
    def __new__(cls, D):
        if abs(D) > MAX_ABS_DISC:
            raise CapacityError(f"|D| = {abs(D)} exceeds the desk bound")
        if not is_fundamental_discriminant(D):
            raise InputError(f"{D} is not a fundamental discriminant")
        inst = super().__new__(cls)
        inst.D = D
        inst.m = D if D % 4 == 1 else D // 4
        inst.is_real = D > 0
        inst.unit_rank = int(inst.is_real)
        return inst

    def element(self, a, b=0):
        return QuadElt(self, a, b)

    def is_unit(self, x):
        return x.is_integral() and abs(x.norm()) == 1

    @lru_cache(maxsize=None)
    def places(self, v):
        """The places over the rational place v ('inf' or a prime), as a
        tuple built once, the distinguished place first.  A place of degree
        1 is the prime ideal w = (q, (b + sqrt D)/2), and omega's image mod
        w is ((D mod 2) - b)/2, as omega = ((D mod 2) + sqrt D)/2."""
        if v == "inf":
            if self.is_real:
                return (Place(self, "real", conjugate=False, label="inf+"),
                        Place(self, "real", conjugate=True, label="inf-"))
            return (Place(self, "complex", label="inf"),)
        kind = self.splitting(v)
        if kind == "inert":
            ideal = QuadIdeal(self, 1, self.D % 2, scale=v)  # (v) itself
            return (Place(self, "finite", q=v, e=1, f=2, ideal=ideal,
                          label=f"{v}"),)
        ideal = QuadIdeal.prime_over(self, v)
        if kind == "ramified":
            ideals, e, labels = [ideal], 2, [f"{v}"]
        else:
            ideals, e, labels = [ideal, ideal.conj()], 1, [f"{v}+", f"{v}-"]
        return tuple(Place(self, "finite", q=v, e=e, f=1, ideal=w,
                           omega_image=(self.D % 2 - w.b) // 2 % v,
                           label=label)
                     for w, label in zip(ideals, labels))

    def arch_logs(self, elements):
        """Each element's -log|x|_w at the infinite places, as a row: the
        two real places of a real field read one sqrt m for all of them."""
        root = ball_sqrt(Ball(self.m)) if self.is_real else None
        return [[-log_abs_at_place(x, w, root) for w in self.places("inf")]
                for x in elements]

    def torsion_generator(self):
        """(generator of roots of unity, order)."""
        if self.D == -4:
            return _quad(self, 0, 1, 1), 4
        if self.D == -3:
            return _quad(self, 1, 1, 2), 6
        return _quad(self, -1, 0, 1), 2

    def torsion_units(self):
        zeta, w = self.torsion_generator()
        out = [self.element(1)]
        for _ in range(w - 1):
            out.append(out[-1] * zeta)
        return out

    def splitting(self, q):
        """'split' | 'inert' | 'ramified' at the rational prime q."""
        return {1: "split", -1: "inert", 0: "ramified"}[kronecker(self.D, q)]

    def ramified_primes(self):
        return sorted(factorint(abs(self.D)))

    def s_unit_lattice(self, S, T):
        return s_unit_lattice(self, S, T)

    def __repr__(self):
        return f"QuadField({self.D})"


def _quad(field, A, B, d):
    """The element (A + B*sqrt(m))/d for integers A, B and d != 0, brought
    to lowest terms with d > 0 by one gcd."""
    if d < 0:
        A, B, d = -A, -B, -d
    g = gcd(A, B, d)
    if g != 1:
        A, B, d = A // g, B // g, d // g
    x = object.__new__(QuadElt)
    x.field, x.A, x.B, x.d = field, A, B, d
    return x


class QuadElt:
    """(A + B*sqrt(m))/d with integers A, B, d, where d > 0 and
    gcd(A, B, d) = 1.

    The representation is unique, so equality and hashing compare the three
    integers, and every ring operation is integer arithmetic with one gcd
    per result.  `a` and `b` are the rational coordinates a + b*sqrt(m) as
    read-only Fraction views; the constructor takes them.
    """

    __slots__ = ("field", "A", "B", "d")

    def __init__(self, field, a, b):
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        self.field = field
        self.A = a.numerator * (d // a.denominator)
        self.B = b.numerator * (d // b.denominator)
        self.d = d

    @property
    def a(self):
        return Fraction(self.A, self.d)

    @property
    def b(self):
        return Fraction(self.B, self.d)

    def _coerce(self, other):
        if isinstance(other, QuadElt):
            if other.field is not self.field:
                raise InputError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(self.field, other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.d, o.d
        return _quad(self.field, self.A * e + o.A * d, self.B * e + o.B * d,
                     d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _quad(self.field, -self.A, -self.B, self.d)

    def __mul__(self, other):
        if isinstance(other, int):
            return _quad(self.field, self.A * other, self.B * other, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B, C, E = self.A, self.B, o.A, o.B
        return _quad(self.field, A * C + self.field.m * B * E, A * E + B * C,
                     self.d * o.d)

    __rmul__ = __mul__

    def conjugate(self):
        return _quad(self.field, self.A, -self.B, self.d)

    def _norm_num(self):
        """d^2 * N(self), an integer."""
        return self.A * self.A - self.field.m * self.B * self.B

    def norm(self):
        return Fraction(self._norm_num(), self.d * self.d)

    def inverse(self):
        # 1/x = conj(x) / N(x) = d (A - B sqrt m) / (A^2 - m B^2)
        n = self._norm_num()
        if n == 0:
            raise ZeroDivisionError("zero element")
        return _quad(self.field, self.d * self.A, -self.d * self.B, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _quad(self.field, 1, 0, 1)
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.d == o.d

    def __hash__(self):
        return hash((id(self.field), self.A, self.B, self.d))

    def is_integral(self):
        d = self.d
        return (2 * self.A) % d == 0 and self._norm_num() % (d * d) == 0

    def omega_coords(self):
        """(u, v) with self = u + v*omega."""
        if self.field.m % 4 == 1:
            # omega = (1 + sqrt m)/2: v = 2b, u = a - b
            return Fraction(self.A - self.B, self.d), Fraction(2 * self.B,
                                                               self.d)
        return self.a, self.b

    def embedding_ball(self, conjugate=False, root=None):
        """The real embedding a + b sqrt m (a - b sqrt m when conjugate),
        with `root` the ball of sqrt m when the caller holds it."""
        if not self.field.is_real:
            raise InputError("complex field: use norm-based absolute values")
        s = ball_sqrt(Ball(self.field.m)) if root is None else root
        b = -self.b if conjugate else self.b
        return Ball(self.a) + Ball(b) * s

    def compare_zero(self, conjugate=False):
        """Exact sign of the real embedding."""
        # d > 0, so A + B sqrt(m) has the sign of the element
        a, b = self.A, (-self.B if conjugate else self.B)
        m = self.field.m
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, m * b * b
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def abs_greater_one(self):
        """Exact |self| > 1 at the distinguished real embedding."""
        s = self.compare_zero()
        if s == 0:
            return False
        x = self if s > 0 else -self
        return (x - 1).compare_zero() > 0

    def __repr__(self):
        return f"QuadElt({self.a} + {self.b}*sqrt({self.field.m}))"


# -- fundamental units ------------------------------------------------------

@lru_cache(maxsize=None)
def fundamental_unit(D):
    """Fundamental unit (> 1) of the real quadratic field of discriminant D,
    by the continued-fraction expansion of omega, (1 + sqrt m)/2 for
    m = 1 mod 4 and sqrt m otherwise: the first convergent p/q with
    N(p - q conj(omega)) = +-1, tested in integers as (2p - q)^2 - m q^2
    = +-4 or p^2 - m q^2 = +-1, becomes the one QuadElt.
    """
    field = QuadField(D)
    if not field.is_real:
        raise InputError("fundamental units require D > 0")
    m = field.m
    half = m % 4 == 1
    P, Q = (1, 2) if half else (0, 1)
    sq = isqrt(m)
    a = (P + sq) // Q
    p_prev, p_cur = 1, a
    q_prev, q_cur = 0, 1
    for _ in range(200000):
        u = 2 * p_cur - q_cur if half else p_cur
        if abs(u * u - m * q_cur * q_cur) == (4 if half else 1):
            cand = _quad(field, u, q_cur, 2 if half else 1)
            if cand.compare_zero() < 0:
                cand = -cand
            if not cand.abs_greater_one():
                cand = cand.inverse()
                if cand.compare_zero() < 0:
                    cand = -cand
            if abs(cand.norm()) != 1 or not cand.is_integral():
                raise CertificationError(f"unit candidate for D={D} is not "
                                         "an integral unit")
            return cand
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (P + sq) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    raise CapacityError(f"continued fraction cap exceeded for D={D}")


def unit_norm(D):
    return int(fundamental_unit(D).norm())


def fundamental_unit_log(D):
    """Certified enclosure of log(fundamental unit)."""
    return ball_log(fundamental_unit(D).embedding_ball())


# -- binary quadratic forms -------------------------------------------------

def principal_form(D):
    k = abs(D) % 2
    return (1, k, (k * k - D) // 4)


def _is_reduced_neg(a, b, c):
    return (abs(b) <= a <= c) and (b >= 0 or (abs(b) != a and a != c))


def _is_reduced_indef(form, sq, D):
    # reduced: 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, equivalently
    # 4a(a - c) < 0 or (a - c)^2 < D  (using b^2 - 4ac = D)
    a, b, c = form
    if b <= 0 or b > sq:
        return False
    return 4 * a * (a - c) < 0 or (a - c) * (a - c) < D


def reduce_form(form, D):
    """(reduced, M): a reduced form equivalent to `form` of discriminant D,
    and M in SL_2(Z) with form o M = reduced.

    Convention: (Q o M)(x, y) = Q(p x + q y, r x + s y) for M = [[p,q],[r,s]].
    For D < 0 the form must be positive definite, and the reduced form is
    the unique one of its class (Cohen, GTM 138, 5.4).  For D > 0 it is
    the first reduced form that rho steps reach, one of the cycle
    `form_cycle` walks (Cohen, GTM 138, 5.6).
    """
    p, q, r, s = 1, 0, 0, 1     # M = [[p, q], [r, s]]
    if D > 0:
        sq = isqrt(D)
        guard = 0
        while not _is_reduced_indef(form, sq, D):
            form, t = rho_step(form, D, sq)
            # M <- M [[0, -1], [1, t]]
            p, q, r, s = q, q * t - p, s, s * t - r
            guard += 1
            if guard > 100000:
                raise CapacityError("indefinite reduction cap exceeded")
        return form, [[p, q], [r, s]]
    a, b, c = form
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise CertificationError(f"{form} is not positive definite")
    while not _is_reduced_neg(a, b, c):
        if c < a or (c == a and b < 0):
            # swap: (x, y) -> (-y, x), M <- M [[0, 1], [-1, 0]]
            a, b, c = c, -b, a
            p, q, r, s = -q, p, -s, r
            continue
        # translate: b -> b + 2 a k into (-a, a], M <- M [[1, k], [0, 1]]
        k = (a - b) // (2 * a)
        if k:
            b2 = b + 2 * a * k
            c2 = c + k * (b + a * k)
            b, c = b2, c2
            q, s = q + p * k, s + r * k
            continue
        if b == -a:
            b = a
            q, s = q + p, s + r
            continue
        break
    return (a, b, c), [[p, q], [r, s]]


def reduced_forms(D):
    """All reduced primitive forms of discriminant D, sorted: positive
    definite ones for D < 0.  One pass over b and the divisors a <= sqrt(n)
    of n = |b^2 - D| / 4, with the reduced conditions in integers: for
    D < 0, |b| <= a <= c with b >= 0 when |b| = a or a = c; for D > 0,
    0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, where |a| is either divisor
    and a form comes with its negative (Cohen, GTM 138, 5.4 and 5.6).
    """
    out = []
    if D < 0:
        for b in range(D % 2, isqrt(-D // 3) + 1, 2):
            n = (b * b - D) // 4
            for a in range(max(b, 1), isqrt(n) + 1):
                if n % a == 0 and gcd(a, b, n // a) == 1:
                    out.append((a, b, n // a))
                    if 0 < b < a < n // a:
                        out.append((a, -b, n // a))
        return sorted(out)
    for b in range(2 - D % 2, isqrt(D) + 1, 2):
        n = (D - b * b) // 4
        for a in range(1, isqrt(n) + 1):
            if n % a == 0:
                for A in (a, n // a) if a * a != n else (a,):
                    u, v = 2 * A + b, 2 * A - b
                    if u * u > D and (v < 0 or v * v < D) \
                            and gcd(A, b, n // A) == 1:
                        out += [(A, b, -n // A), (-A, b, n // A)]
    return sorted(out)


def rho_step(form, D, sq):
    """One cycle step (c, b', c'); returns (form', t) with transform
    [[0, -1], [1, t]]."""
    a, b, c = form
    ac = abs(c)
    if ac > sq:
        lo, hi = -ac, ac            # b' in (-|c|, |c|]
    else:
        lo, hi = sq - 2 * ac, sq    # b' in (sq - 2|c|, sq]
    # b' = -b + 2 c t
    t = (hi + b) // (2 * c) if c > 0 else -((hi + b) // (2 * (-c)))
    bp = -b + 2 * c * t
    step = 1 if c > 0 else -1
    while bp > hi:
        t -= step
        bp = -b + 2 * c * t
    while bp <= lo:
        t += step
        bp = -b + 2 * c * t
    cp = (bp * bp - D) // (4 * c)
    return (c, bp, cp), t


def form_cycle(form, D):
    """The cycle of the reduced form `form` of discriminant D, as (g, M)
    pairs with form o M = g, starting with (form, identity).

    For D > 0 the cycle is the rho-orbit of `form`, and its forms are the
    reduced forms properly equivalent to it.  For D < 0 a reduced form is
    the only reduced form of its class, so its cycle is itself alone.
    """
    out = [(form, [[1, 0], [0, 1]])]
    if D < 0:
        return out
    sq = isqrt(D)
    cur, (p, q, r, s) = form, (1, 0, 0, 1)     # M = [[p, q], [r, s]]
    while True:
        cur, t = rho_step(cur, D, sq)
        # M <- M [[0, -1], [1, t]]
        p, q, r, s = q, q * t - p, s, s * t - r
        if cur == form:
            return out
        out.append((cur, [[p, q], [r, s]]))
        if len(out) > 200000:
            raise CapacityError("cycle walk cap exceeded")


def _solve_linmod(a, b, m):
    """(u, v): the solutions of a x = b (mod m) are x = u + v k."""
    x, _, g = hnf.xgcd(a, m)
    if b % g != 0:
        raise ArithmeticError("no solution")
    u = (b // g) * x % m
    return u, m // g


def compose_abc(f1, f2, D):
    """Gaussian composition of forms of discriminant D, unreduced."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), g)
    s = a1 // w
    t = a2 // w
    u = g // w
    mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    l = (k * t - h) // s
    mcoef = (t * u * k - h * u - c1 * s) // (s * t)
    A = s * t
    B = w * u - (k * t + l * s)
    C = k * l - w * mcoef
    if B * B - 4 * A * C != D:
        raise CertificationError("composition broke the discriminant")
    return (A, B, C)


class ClassGroup:
    """The (wide) ideal class group of the quadratic field of fundamental
    discriminant D, as classes of primitive binary quadratic forms.

    Each class has one representative reduced form: for D < 0 the reduced
    form of the class itself; for D > 0 the least form of its rho-cycle,
    and, when N(eps) = +1, the lesser of that and the representative of
    the cycle's twist by a form of norm -1, which joins the two narrow
    classes of one wide class.  `structure` is the `GroupStructure` over
    these representatives, with identity the principal class and law
    composition followed by reduction; `class_of(form)` is the dlog of a
    form's class.  `h` is the class number and `h_plus` the narrow class
    number.
    """

    @lru_cache(maxsize=None)
    def __new__(cls, D):
        QuadField(D)        # a fundamental discriminant within the desk bound
        inst = super().__new__(cls)
        inst.D = D
        rep = {}
        for f in reduced_forms(D):
            if f not in rep:
                cycle = [g for g, _ in form_cycle(f, D)]
                rep.update(dict.fromkeys(cycle, min(cycle)))
        inst.h_plus = len(set(rep.values()))
        if D > 0 and unit_norm(D) == 1:
            twist = _norm_minus_one_form(D)
            wide = {r: min(r, rep[reduce_form(compose_abc(r, twist, D), D)[0]])
                    for r in set(rep.values())}
            rep = {g: wide[r] for g, r in rep.items()}
        inst._rep = rep
        classes = sorted(set(rep.values()))
        inst.h = len(classes)
        inst.structure = GroupStructure(
            inst._class_rep(principal_form(D)),
            lambda f1, f2: inst._class_rep(compose_abc(f1, f2, D)), classes)
        if inst.structure.order != inst.h:
            raise CertificationError(
                f"class group of {D}: {inst.structure.order} classes "
                f"enumerated, h = {inst.h}")
        return inst

    def _class_rep(self, form):
        return self._rep[reduce_form(form, self.D)[0]]

    def class_of(self, form):
        return self.structure.dlog(self._class_rep(form))


def _norm_minus_one_form(D):
    """A form representing -1 (the twist identifying narrow and wide)."""
    # (-1, b, c) has discriminant b^2 + 4c = D
    b = D % 2
    return (-1, b, (D - b * b) // 4)


def class_number(D):
    """Wide class number of the quadratic field of fundamental
    discriminant D (InputError for any other D)."""
    return ClassGroup(D).h


# -- quadratic ideals --------------------------------------------------------

class QuadIdeal:
    """The fractional ideal scale * (a Z + ((b + sqrt D)/2) Z) in its
    normalised form: scale > 0 rational, a > 0 and b in (-a, a].  Each
    fractional ideal has exactly one such form.  Products of ideals are
    built in integers by `_principal_generator`."""

    __slots__ = ("field", "a", "b", "scale")

    def __init__(self, field, a, b, scale=Fraction(1)):
        if a <= 0:
            raise CertificationError(f"ideal norm part a = {a} <= 0")
        b %= 2 * a
        if b > a:
            b -= 2 * a
        if (b * b - field.D) % (4 * a) != 0:
            raise InputError(f"({a}, {b}) is not an ideal of disc {field.D}")
        self.field = field
        self.a = a
        self.b = b
        self.scale = Fraction(scale)

    @staticmethod
    def prime_over(field, q):
        """Distinguished prime over a split/ramified q (InputError if inert).

        Split q: the root b is the smallest valid positive representative;
        the conjugate ideal is the other place.
        """
        D = field.D
        kind = field.splitting(q)
        if kind == "inert":
            raise InputError(f"{q} is inert in {field}")
        for b in range(0, 2 * q):
            if (b * b - D) % (4 * q) == 0:
                return QuadIdeal(field, q, b)
        raise CertificationError(f"no ideal form over {q} for D={D}")

    def conj(self):
        return QuadIdeal(self.field, self.a, -self.b, self.scale)

    def as_form(self):
        return (self.a, self.b, (self.b * self.b - self.field.D)
                // (4 * self.a))

    def principal_generator(self):
        """gamma with (gamma) = self, or None when the class is nontrivial.

        The ideal's form reduces by M, and the walk along the cycle of the
        reduced form stops at the first form g = (+-1, b, c), reached from
        the reduced one by M2: g represents +-1 at (1, 0), so the ideal's
        form represents +-1 at the first column (x, y) of M M2, and
        scale * (a x + y (b + sqrt D)/2) generates the ideal.  For D < 0 the
        cycle is the reduced form alone, and g is the principal form.  The
        result has |N(gamma)| = N(ideal).
        """
        D = self.field.D
        red, ((p, q), (r, s)) = reduce_form(self.as_form(), D)
        for g, ((x, _), (y, _)) in form_cycle(red, D):
            if abs(g[0]) == 1:
                # first column of M M2
                return self._element_from_xy(p * x + q * y, r * x + s * y)
        return None

    def _element_from_xy(self, x, y):
        """gamma = scale * (a x + y (b + sqrt D)/2), sqrt D = k sqrt m."""
        f = self.field
        k = 1 if f.D % 4 == 1 else 2
        sn, sd = self.scale.numerator, self.scale.denominator
        gamma = _quad(f, (2 * self.a * x + self.b * y) * sn, k * y * sn,
                      2 * sd)
        # |N(gamma)| = a scale^2, in integers
        if abs(gamma._norm_num()) * sd * sd != self.a * sn * sn * gamma.d ** 2:
            raise CertificationError(
                f"generator {gamma!r} of {self!r} has the wrong norm")
        return gamma

    def __repr__(self):
        return f"QuadIdeal({self.scale} * ({self.a}, ({self.b}+sqrt{self.field.D})/2))"


# -- places and valuations ---------------------------------------------------

class Place:
    """A place of any field: `QQ`, a `QuadField` or a `BiquadField`.

    kind: 'real' (with conjugate flag in a quadratic field, and in a
    compositum the signs (s1, s2, s3) it gives sqrt m1, sqrt m2, sqrt m3),
    'complex', or 'finite'.  Finite places carry q, e, f and, in a
    quadratic field, the prime ideal w; at a place of degree 1 (split or
    ramified q) also omega_image, the integer r mod q with omega = r mod w.
    In a compositum a finite place carries e_sub, its ramification index
    over each quadratic subfield.
    """

    __slots__ = ("field", "kind", "q", "e", "f", "conjugate", "ideal",
                 "omega_image", "signs", "e_sub", "label")

    def __init__(self, field, kind, q=None, e=1, f=1, conjugate=False,
                 ideal=None, omega_image=None, signs=None, e_sub=None,
                 label=""):
        self.field = field
        self.kind = kind
        self.q = q
        self.e = e
        self.f = f
        self.conjugate = conjugate
        self.ideal = ideal
        self.omega_image = omega_image
        self.signs = signs
        self.e_sub = e_sub
        self.label = label

    def nw(self):
        if self.kind != "finite":
            raise InputError(f"{self.label} is not a finite place")
        return self.q ** self.f

    def __repr__(self):
        return f"Place({self.label})"


def ord_at_place(x, place):
    """Normalized valuation ord_w(x) for x in the place's field.

    At an inert or ramified q it is read off ord_q N(x).  At a split q,
    x = (U + V omega)/d in integers and q^k is the q-part of gcd(U, V), so
    y = (U + V omega)/q^k is not divisible by q and lies in at most one of
    w and its conjugate.  With a = k - ord_q(d), ord_w(x) = a when y is a
    unit at w, that is U/q^k + (V/q^k) r != 0 mod q for omega's image r
    there; else y is a unit at the conjugate and ord_w(x) = ord_q N(x) - a.
    """
    if place.kind != "finite":
        raise InputError(f"{place.label} is not a finite place")
    q = place.q
    n = x._norm_num()       # N(A + B sqrt m) = d^2 N(x)
    if n == 0:
        raise InputError("valuation of zero")
    t = _vq_int(n, q, cap=10 ** 9)
    vd = _vq_int(x.d, q, cap=10 ** 9)
    if place.f == 2:  # inert
        if t % 2:
            raise CertificationError("odd norm valuation at an inert prime")
        return t // 2 - vd
    if place.e == 2:  # ramified
        return t - 2 * vd
    # split: A + B sqrt m = U + V omega, and N(y) = n / q^2k
    U, V = (x.A - x.B, 2 * x.B) if x.field.m % 4 == 1 else (x.A, x.B)
    k = _vq_int(gcd(U, V), q, cap=t)
    if (U + V * place.omega_image) // q ** k % q:
        return k - vd
    if t == 2 * k:
        raise CertificationError(f"{x!r} vanishes at {place.label}, but q "
                                 f"does not divide its norm: omega's image "
                                 f"there is wrong")
    return t - k - vd


def _vq_int(n, q, cap):
    n = abs(n)
    if n == 0:
        return cap
    v = 0
    while n % q == 0 and v < cap:
        n //= q
        v += 1
    return v


def log_abs_at_place(x, place, root=None):
    """Certified log|x|_w under the product-formula normalization, at a
    place of a quadratic field; `root` is sqrt m, when the caller holds it."""
    if place.kind == "real":
        return ball_log(abs(x.embedding_ball(place.conjugate, root)))
    if place.kind == "complex":
        # |x|_w = |x|_C^2 = N(x) for imaginary quadratic
        n = x.norm()
        return ball_log(Ball(n))
    o = ord_at_place(x, place)
    if o == 0:
        return Ball(0)
    return ball_log_int(place.nw()) * (-o)


def certified_arch_logs(arch_rows, valuations, finite_places):
    """`arch_rows`, each basis element's -log|g|_w at the infinite places,
    once every row passes the product formula; CertificationError if one
    does not.

    At a finite place -log|g|_w = ord_w(g) log N(w) exactly, so an
    element's logs at all places sum to one `ball_combination`: its
    infinite logs with coefficient 1 and the log N(w) with its integer
    valuations (`valuations`, a row per element over `finite_places`)."""
    logs = [ball_log_int(w.nw()) for w in finite_places]
    for b, (row, vals) in enumerate(zip(arch_rows, valuations)):
        tot = ball_combination([1] * len(row) + list(vals), row + logs, 1,
                               (0, 1))
        if not tot.contains_zero():
            raise CertificationError(
                f"product formula violated: the logs of basis element {b} "
                f"sum to {tot!r}")
    return arch_rows


def assembled_log_matrix(arch_logs, valuations, finite_places):
    """Rows: basis elements; columns: the infinite places, then
    `finite_places`; entries -log|g|_w, at a finite place
    ord_w(g) log N(w)."""
    logs = [ball_log_int(w.nw()) for w in finite_places]
    return [row + [L * o for L, o in zip(logs, vals)]
            for row, vals in zip(arch_logs, valuations)]


# -- residue systems at T ----------------------------------------------------

class ResidueSystem:
    """R_T = prod_w k(w)^x over the places w above T, as the direct product
    of its cyclic factors, read off O_K / w.

    The field is `QQ` or a `QuadField`.  At a place of degree 1, k(w) = F_q
    and a residue is an integer mod q: u + v omega goes to u + v r, for r
    the place's `omega_image`, and a rational x is (x, 0) in any field.  At
    an inert q, k(w) = Z[omega]/(q) with omega^2 = t omega - n (t and n the
    trace and norm of omega), a residue is the pair (u, v) mod q of
    u + v omega, and conjugation acts as omega -> t - omega, the Frobenius.

    Leader i is a generator of k(w_i)^x in slot i and 1 elsewhere: the
    smallest primitive root mod q at a place of degree 1, the first
    primitive u + v omega in the order (v, u) at an inert q.  So
    `relation_rows` is the diagonal matrix diag(N w_i - 1), and `dlog` reads
    each slot's exponent from that slot's table of powers of its leader.
    """

    def __init__(self, field, T):
        self.field = field
        self.T = sorted(T)
        self.places = [w for q in self.T for w in field.places(q)]
        if any(w.f == 2 for w in self.places):
            t = field.D % 2
            self._t, self._n = t, (t - field.D) // 4
        ones = [(1, 0) if w.f == 2 else 1 for w in self.places]
        k = len(self.places)
        self.size = 1
        self.leaders = []
        self.relation_rows = []
        self._logs = []       # per slot: {g^a: a for 0 <= a < N w - 1}
        for i, w in enumerate(self.places):
            n = w.nw() - 1
            self.size *= n
            for g in (range(1, w.q) if w.f == 1 else
                      ((u, v) for v in range(1, w.q) for u in range(w.q))):
                table = {}    # {g^a: a} until the powers of g cycle
                x = ones[i]
                while x not in table:
                    table[x] = len(table)
                    x = self._mul(w, x, g)
                if len(table) == n:
                    break
            else:
                raise CertificationError(f"k(w)^x has no generator at "
                                         f"{w.label}")
            self.leaders.append(tuple(ones[:i] + [g] + ones[i + 1:]))
            self.relation_rows.append([n if j == i else 0 for j in range(k)])
            self._logs.append(table)

    def _mul(self, w, x, y):
        """x y in k(w)."""
        q = w.q
        if w.f == 1:
            return x * y % q
        (a, b), (c, d) = x, y
        return ((a * c - self._n * b * d) % q,
                (a * d + b * c + self._t * b * d) % q)

    def reduce(self, x):
        """Residue tuple of x (unit at every T-place)."""
        return tuple(self._reduce_at(x, w) for w in self.places)

    def _reduce_at(self, x, w):
        q = w.q
        u, v = x.omega_coords() if isinstance(x, QuadElt) \
            else (Fraction(x), Fraction(0))
        if u.denominator % q == 0 or v.denominator % q == 0:
            raise DatumError(f"{x} has a pole at {w.label}")
        u = u.numerator * pow(u.denominator, -1, q) % q
        v = v.numerator * pow(v.denominator, -1, q) % q
        if w.f == 2:
            out = (u, v)
        else:     # v = 0 for a rational x: Q's places carry no omega_image
            out = (u + v * w.omega_image) % q if v else u
        if out in (0, (0, 0)):
            raise DatumError(f"{x} is not a unit at the place {w.label}")
        return out

    def galois_act(self, tup):
        """Action of the nontrivial automorphism on a residue tuple."""
        if self.field.degree == 1:
            raise InputError("Q has no nontrivial automorphism")
        out = list(tup)
        i = 0
        while i < len(tup):
            w = self.places[i]
            if w.f == 2:
                u, v = tup[i]
                out[i] = ((u + self._t * v) % w.q, -v % w.q)
                i += 1
            else:
                # split pair occupies consecutive slots: swap
                out[i], out[i + 1] = tup[i + 1], tup[i]
                i += 2
        return tuple(out)

    def dlog(self, tup):
        """Exponents a with tup = prod leaders^a, 0 <= a_i < N w_i - 1."""
        return [log[x] for log, x in zip(self._logs, tup)]


# -- S-unit lattices ---------------------------------------------------------

def _unit_log(u):
    """log|u| at the distinguished real place of a unit u = (A + B sqrt m)/d
    of a real quadratic field, in floating point.  It is read at the place
    where |u| = (|A| + |B| sqrt m)/d, at which nothing cancels, as
    |u conj(u)| = 1 makes |u| at one place 1/|u| at the other; A != 0, as
    m B^2 = d^2 has no solution for squarefree m > 1.  For u = +-eps^k the
    quotient _unit_log(u) / _unit_log(eps) is k to within a few |k| 1e-16,
    so it rounds to k for any u that fits in memory;
    `SUnitLattice.express` checks the rounding exactly."""
    a, b = abs(u.A), abs(u.B)
    larger = log(a) - log(u.d) + log1p(b / a * sqrt(u.field.m))
    return -larger if u.A * u.B < 0 else larger


class SUnitLattice:
    """Exact S-unit lattice of `field`, `QQ` or a QuadField, mod torsion.

    gens: multiplicative basis (exact field elements); places: every place
    of the field above S, distinguished place first per rational place;
    valuations: row i is [ord_w(gens[i]) for the finite places w], known
    by construction (the identity for Q; for a quadratic field the rows the
    generators were built from and checked against, and a zero row for the
    fundamental unit), so `express` never re-evaluates the generators;
    place_ranges: for each rational place v of S, the range of indices in
    `places` of the places above v, which conjugation reverses
    (`place_permutation`); torsion_order,
    torsion_gen: the roots of unity (killed in the lattice); unit_dlogs:
    the dlog rows (`ResidueSystem.dlog`) of the residues mod T of the
    generators, then of torsion_gen, each reduced once (None without T);
    class_primes: the split primes l_1..l_r whose classes generate Cl_K
    (`_class_primes`); relations: a basis (v, gamma) of the v with
    prod ideals^v = (gamma) over l_1..l_r, their conjugates and the finite
    places, the norm rows (`_norm_rows`) and then lifts, which `ray_class`
    presents Cl_{K,S,T} from (both empty over Q).

    Three attributes are cached properties, built on first read and then
    kept, as only the checks at |V| >= 1 read them: sigma_matrix, the
    action of conjugation in basis coordinates (the identity for Q), whose
    rows `express` the conjugates of the generators; t_sublattice, the
    coordinates of the T-congruence subgroup, read off unit_dlogs
    (`_t_sublattice`); and arch_logs, the generators' -log|g|_w at the
    infinite places, from one call to the field, which with `valuations`
    are the whole log data (`certified_arch_logs`, `log_matrix`).
    The construction is exactly saturated: saturation_index == 1.
    """

    __slots__ = ("__dict__", "field", "S", "T", "places", "gens",
                 "valuations", "torsion_gen", "torsion_order", "residues",
                 "unit_dlogs", "place_ranges", "class_primes", "relations")
    saturation_index = 1

    def __init__(self, **kw):
        names = {k for k in self.__slots__ if k[0] != "_"}
        if kw.keys() != names:
            raise InputError(
                f"SUnitLattice keywords: unknown {sorted(kw.keys() - names)}, "
                f"missing {sorted(names - kw.keys())}")
        for k in names:
            setattr(self, k, kw[k])

    @cached_property
    def sigma_matrix(self):
        # ord_w(conj g) = ord_{conj w}(g), so conj(g)'s valuations are g's
        # row permuted by the place action
        k = len(self.place_ranges["inf"])
        perm = self.place_permutation((1,))[k:]
        return [self.express(g.conjugate(), [row[a - k] for a in perm])[0]
                for g, row in zip(self.gens, self.valuations)]

    @cached_property
    def t_sublattice(self):
        return _t_sublattice(self.rank, self.residues, self.unit_dlogs)

    @property
    def rank(self):
        return len(self.gens)

    def place_permutation(self, element):
        """The permutation of `places` under a Galois group element (a
        tuple of exponents): the nontrivial one reverses each place range."""
        return [i for r in self.place_ranges.values()
                for i in (reversed(r) if any(element) else r)]

    def sigma_matrices(self):
        """Action matrices on basis coordinates, one per generator of the
        Galois group: none over Q, of degree 1."""
        return [self.sigma_matrix] if self.field.degree == 2 else []

    def express(self, x, valuations):
        """(coords, torsion_power) with x = torsion^j * prod gens^coords.

        The coordinates solve x's valuations at the finite places, which
        the caller knows, against `valuations`; what is left after dividing
        out the generators must be a unit, then, less its power of the
        fundamental unit when the unit rank is 1, a root of unity; both are
        checked exactly (CertificationError if not, which also catches
        wrong given valuations).  That power is one rounding of
        log|u| / log|eps| (`_unit_log`), which the exact check certifies.
        """
        sol = hnf.solve_in_rowspan(self.valuations, valuations)
        if sol is None:
            raise InputError(f"{x} is not an S-unit on this lattice")
        u = x
        for g, c in zip(self.gens, sol):
            u = u * g ** (-c)
        field = self.field
        if not field.is_unit(u):
            raise CertificationError(
                f"{x} / prod gens^{sol} = {u} is not a unit")
        if field.unit_rank:
            eps_index = self._eps_index()
            eps = self.gens[eps_index]
            k = round(_unit_log(u) / _unit_log(eps))
            u = u * eps ** (-k)
            sol[eps_index] += k
        # now u is torsion
        tor = field.torsion_units()
        if u not in tor:
            raise CertificationError(f"unit part {u} of {x} is not torsion")
        j = tor.index(u)
        return sol, j

    def _eps_index(self):
        for i, row in enumerate(self.valuations):
            if not any(row):
                return i
        raise CertificationError("no unit among the generators")

    @cached_property
    def arch_logs(self):
        k = len(self.place_ranges["inf"])
        return certified_arch_logs(self.field.arch_logs(self.gens),
                                   self.valuations, self.places[k:])

    def log_matrix(self):
        """Rows: generators; columns: places; entries -log|g|_w (balls),
        assembled from the log data, whose rows are certified against the
        product formula."""
        k = len(self.place_ranges["inf"])
        return assembled_log_matrix(self.arch_logs, self.valuations,
                                    self.places[k:])

    def t_lattice_hnf(self):
        return self.t_sublattice.canonical()


def s_unit_lattice(field, S, T):
    """Construct the (S, T)-unit lattice of `field` (`QQ` or a
    `QuadField`) with exact generators.

    Over Q, of degree 1 and class number 1, the generators are the finite
    places of S.  For a quadratic field the S-units come from one relation
    lattice, of the v with prod ideals^v principal over the class primes
    l_1..l_r (`_class_primes`), their conjugates and the finite S-places,
    kept whole for `ray_class`.  Its basis is the norm rows, with their
    rational generators (`_norm_rows`, each certified by its norm), and
    lifts: the Hermite basis of the relations among one ideal per
    conjugate pair, class primes first, each with one exact generator
    (`_principal_relations`).  The rows that vanish on the first 2r
    columns, the split and inert norm rows and then the lifts that do,
    are a basis of the relations among the S-places alone.

    S and T are a `RubinDatum`'s, read as given; the lattice is taken
    modulo torsion, so it needs no (H3).
    """
    places, place_ranges = _s_places(field, S)
    residues = ResidueSystem(field, T) if T else None
    k = len(place_ranges["inf"])      # the infinite places come first
    fin = places[k:]
    if field.degree == 1:
        primes, relations = [], []
        gens = [Fraction(q) for q in S[1:]]
        valuations = hnf.identity_matrix(len(gens))
    else:
        primes = _class_primes(field, {*S[1:], *T})
        r = len(primes)
        ideals = primes + [p.conj() for p in primes] + [w.ideal for w in fin]
        relations, cols = _norm_rows(field, primes, fin)
        norms = [p.a for p in primes] * 2 + [w.nw() for w in fin]
        for v, gamma in relations:
            # |N(gamma)| = prod N(ideal)^v in integers: the l_i's only gate
            if abs(gamma._norm_num()) != gamma.d ** 2 * prod(
                    nw ** e for nw, e in zip(norms, v)):
                raise CertificationError(
                    f"norm row {v} has a wrong generator {gamma!r}")
        for u, gamma in _principal_relations(field, [ideals[j] for j in cols]):
            v = [0] * len(ideals)
            for j, e in zip(cols, u):
                v[j] = e
            relations.append((v, gamma))
        valuations, gens = [], []
        for v, gamma in relations:
            if any(v[:2 * r]):
                continue
            row = v[2 * r:]
            # exact: SUnitLattice.valuations stores `row`
            for w, e in zip(fin, row):
                if ord_at_place(gamma, w) != e:
                    raise CertificationError(
                        f"generator valuation mismatch at {w!r}: wanted {e}")
            valuations.append(row)
            gens.append(gamma)
        if field.unit_rank:
            gens.append(fundamental_unit(field.D))
            valuations.append([0] * len(fin))
    if len(gens) != len(places) - 1:
        raise CertificationError(
            f"S-unit rank {len(gens)}, expected |S_K| - 1 = {len(places) - 1}")
    zeta, order = field.torsion_generator()
    return SUnitLattice(field=field, S=S, T=T, places=places, gens=gens,
                        valuations=valuations, torsion_gen=zeta,
                        torsion_order=order, residues=residues,
                        unit_dlogs=_unit_dlogs(gens, zeta, residues),
                        place_ranges=place_ranges, class_primes=primes,
                        relations=relations)


def _s_places(field, S):
    """(places, place_ranges): the places of `field` above S (the
    distinguished place first over each v) and for each v in S the range
    of its places' indices.  As S lists 'inf' first, the infinite places
    come first.
    """
    places, place_ranges = [], {}
    for v in S:
        base = len(places)
        places.extend(field.places(v))
        place_ranges[v] = range(base, len(places))
    return places, place_ranges


# -- the Rubin datum ---------------------------------------------------------

class RubinDatum(NamedTuple):
    """A Rubin datum (K, S, V, T): the realization of K, `field` (the
    arithmetic that the lattice and the ray class read, and the one record
    of the field's kind: `QQ`, a QuadField, a BiquadField, or None for a
    generic field), and S, V and T as sorted tuples of distinct places,
    "inf" first.  Its one constructor, `of`, normalises them and checks
    their shape, (H1), S and T disjoint and (H2), in that order
    (InputError); `verify.Scenario.validate_datum` checks (H3) on it once.
    Every reader takes it, or its S and T, as it is.
    """

    realization: object
    field: object
    S: tuple
    V: tuple
    T: tuple

    @classmethod
    def of(cls, realization, field, S, V, T):
        """The datum, normalised and its shape checked."""
        S = tuple(_normalize_places(S))
        V = tuple(_normalize_places(V))
        T = tuple(_normalize_primes(T))
        if "inf" not in S:
            raise InputError("(H1) fails: S omits the infinite place")
        missing = [q for q in realization.ramified_primes() if q not in S]
        if missing:
            raise InputError(f"(H1) fails: S omits ramified primes {missing}")
        if set(S) & set(T):
            raise InputError("S and T must be disjoint")
        if not set(V) <= set(S) or len(V) >= len(S):
            raise InputError("(H2) fails: V must be a proper subset of S")
        for v in V:
            if not realization.splits_completely(v):
                raise InputError(f"(H2) fails: {v} does not split completely")
        return cls(realization, field, S, V, T)


def _normalize_places(S):
    """The places of S, each once, as "inf" (from "inf", "oo" or
    "infinity") and primes, "inf" first and the primes sorted; InputError
    for anything else, as in `_normalize_primes`."""
    infinite = ("inf", "oo", "infinity")
    return ((["inf"] if any(v in infinite for v in S) else [])
            + _normalize_primes(v for v in S if v not in infinite))


def _normalize_primes(T):
    """The finite places T, each once, as sorted ints; InputError unless
    each is a prime."""
    out = []
    for v in T:
        try:
            out.append(int(v))
        except (TypeError, ValueError):
            raise InputError(f"a place is 'inf' or a prime, got {v!r}") \
                from None
    composite = [q for q in out if not isprime(q)]
    if composite:
        raise InputError(f"the finite places of S and T must be primes, "
                         f"got {composite}")
    return sorted(set(out))


def _check_torsion_killed(T):
    """(H3) for the T of a `RubinDatum`, whatever its field K: DatumError
    unless no root of unity of K but 1 is 1 at every place above T, which
    holds exactly when T holds an odd prime.

    Let zeta != 1 have order n.  If n is not a prime power, zeta - 1 is a
    unit.  If n = p^k > 2, zeta - 1 lies only above p (Washington, GTM 83,
    Prop. 2.8), and p ramifies in Q(zeta), a subfield of K, so p is in S by
    (H1) and not in T.  So only -1 can be 1 at every place above T, and it
    is 1 exactly at the places over 2."""
    if not T:
        raise DatumError("T empty: torsion units survive")
    if set(T) <= {2}:
        raise DatumError(
            f"(H3) fails: -1 = 1 at every place above T={list(T)}")


def _principal_generator(field, ideals, exponents):
    """Exact generator of the fractional ideal prod ideals_i^exponents_i,
    which is principal by construction (CertificationError if it is not).

    p^-e is conj(p)^e / N(p)^e, so each factor is a rational scale times a
    positive power of an integral ideal.  The scales collect in one
    fraction, the powers are composed as integer triples by
    `_ideal_product`, and the product is reduced once.  A fractional ideal
    has one normalised form, so the order of the factors does not matter.
    """
    D = field.D
    num = den = 1
    acc = (1, 1, D % 2)
    for p, e in zip(ideals, exponents):
        b, n, d = p.b, p.scale.numerator, p.scale.denominator
        if e < 0:
            # p^-1 = conj(p) / N(p), with N(p) = a s^2 for p = s [a, b]
            e, b, n, d = -e, -b, d, p.a * n
        num, den, base = num * n ** e, den * d ** e, (1, p.a, b)
        while e:
            if e & 1:
                acc = _ideal_product(acc, base, D)
            e >>= 1
            if e:
                base = _ideal_product(base, base, D)
    c, A, B = acc
    gamma = QuadIdeal(field, A, B, Fraction(num * c, den)) \
        .principal_generator()
    if gamma is None:
        raise CertificationError(
            f"ideal product with exponents {list(exponents)} is not principal")
    return gamma


def _class_primes(field, avoid):
    """Split primes l_1..l_r off `avoid` whose classes generate Cl_K: the
    least ones below 5000 that each enlarge the span of those before."""
    cg = ClassGroup(field.D)
    primes = []
    span = _class_lattice(cg, [])
    for ell in primerange(2, 5000):
        if span.index() == 1:
            break
        if ell in avoid or field.D % ell == 0 \
                or field.splitting(ell) != "split":
            continue
        p = QuadIdeal.prime_over(field, ell)
        cls = list(cg.class_of(p.as_form()))
        if span.contains_vector(cls):
            continue
        primes.append(p)
        span.add_vector(cls)
    if span.index() != 1:
        raise CertificationError(f"class group generators missing for {field}")
    return primes


def _norm_rows(field, primes, fin):
    """(rows, cols) over the class primes l_1..l_r, their conjugates and
    the finite S-places `fin`.  rows: the norm rows (v, c) with rational
    generators c, l_i conj(l_i) = (l_i), w conj(w) = (q) at a split q and
    w = (q) at an inert q.  cols: one ideal's column per conjugate pair,
    l_i and the first place over each split or ramified q.  Less norm rows
    every relation lies on cols (a ramified w^2 = (q) among them), so the
    norm rows and a basis of the relations on cols are a basis of all."""
    r = len(primes)
    n = 2 * r + len(fin)
    groups = [(p.a, [i, r + i], 1, 1) for i, p in enumerate(primes)]
    for j, w in enumerate(fin, 2 * r):
        if groups and groups[-1][0] == w.q:
            groups[-1][1].append(j)
        else:
            groups.append((w.q, [j], w.e, w.f))
    rows, cols = [], []
    for q, js, e, f in groups:
        if e == 1:      # unramified: the pair's product is (q)
            rows.append(([int(j in js) for j in range(n)], field.element(q)))
        if f == 1:      # of degree 1: its first place is a column
            cols.append(js[0])
    return rows, cols


def _principal_relations(field, ideals):
    """[(v, gamma)]: the Hermite basis of the exponent vectors v with
    prod ideals^v principal, each with an exact generator gamma of
    prod ideals^v."""
    cg = ClassGroup(field.D)
    stacked = ([list(cg.class_of(p.as_form())) for p in ideals]
               + list(cg.structure.relation_rows))
    ker = hnf.kernel(stacked, ambient_dim=len(cg.structure.leaders))
    lam = hnf.IntLattice(len(ideals), [row[:len(ideals)] for row in ker])
    return [(list(v), _principal_generator(field, ideals, v))
            for v in lam.canonical()]


def _ideal_product(x, y, D):
    """x y for integral ideals c [A, (B + sqrt D)/2] given as triples
    (c, A, B): Gaussian composition times the content gcd(A1, A2,
    (B1 + B2)/2) (Cohen, GTM 138, 5.4), with B put into (-A, A]."""
    (c1, a1, b1), (c2, a2, b2) = x, y
    A, B, _ = compose_abc((a1, b1, (b1 * b1 - D) // (4 * a1)),
                          (a2, b2, (b2 * b2 - D) // (4 * a2)), D)
    B = (B + A - 1) % (2 * A) - A + 1
    return c1 * c2 * gcd(a1, a2, (b1 + b2) // 2), A, B


def _unit_dlogs(gens, torsion_gen, residues):
    """The dlog rows of the residues mod T of `gens`, then of
    `torsion_gen` (None without T)."""
    if residues is None:
        return None
    return [residues.dlog(residues.reduce(u)) for u in [*gens, torsion_gen]]


def _t_sublattice(n, residues, unit_dlogs):
    """Coordinates (in the n generators) of the units that reduce to 1 in
    R_T up to a power of the torsion generator: the kernel of the dlog map
    on `unit_dlogs`, modulo R_T's relations."""
    if residues is None:
        return hnf.IntLattice(n, hnf.identity_matrix(n))
    stacked = unit_dlogs + residues.relation_rows
    return hnf.IntLattice(n, [r[:n] for r in hnf.kernel(stacked)])


# -- (S, T)-ray class modules ------------------------------------------------

def ray_class(lattice):
    """Cl_{K,S,T} as a FiniteGModule over Gal(K/Q), for the field, S and T
    of `lattice`, the (S, T)-unit lattice (`s_unit_lattice`) of `QQ` (over
    the trivial group) or of a `QuadField`, from one presentation (Cohen,
    *Advanced Topics in Computational Number Theory*, GTM 193, ch. 4).

    Generators: for a quadratic field the class primes l_1..l_r and their
    conjugates, then the leaders of the residue system R_T at T; over Q
    the leaders alone, with R_T's relations and the lattice's unit rows,
    the dlogs of the finite S-places and of -1.

    Relations: the (S, T)-unit lattice holds a basis (norm rows, lifts) of
    the v with prod ideals^v = (gamma) principal over the l_i, their
    conjugates and the m finite S-places (`s_unit_lattice`).  The S-places'
    ideals are 0, and Z^(2r+m+s) / (R + Z^m) = Z^(2r+s) / pi(R) for pi
    dropping their columns, so each row with pi(v) != 0 gives (pi(v),
    -dlog gamma), as the class of (gamma) is the image of gamma's residue.
    On the leaders: R_T's own relations and the unit rows, the dlogs of
    the residues of the lattice's generators (which cover the rows with
    pi(v) = 0) and of its torsion generator, which the lattice reduced
    once when it was built (`SUnitLattice.unit_dlogs`).

    Action: the nontrivial automorphism swaps l_i and its conjugate, and
    acts on each leader through its residue (`ResidueSystem.galois_act`).

    For a quadratic field the order is checked against
    |Cl_{K,S,T}| = h_S * |R_T / im(units)|, with h_S from the classes of
    the S-places alone (CertificationError if it fails).
    """
    field, residues = lattice.field, lattice.residues
    s_len = len(residues.leaders) if residues else 0
    unit_rows = (residues.relation_rows + lattice.unit_dlogs if residues
                 else [])
    if field.degree == 1:
        return _module_from_relations(AbelianGroup(()), s_len, unit_rows, [])
    n = 2 * len(lattice.class_primes)
    eye = hnf.identity_matrix(n)

    def rt_dlog(x):
        if residues is None:
            return []
        return residues.dlog(residues.reduce(x))

    # prod ideals^v = (gamma) gives the row (v, -dlog gamma), its S-place
    # entries dropped
    rel_rows = [v[:n] + [-c for c in rt_dlog(gamma)]
                for v, gamma in lattice.relations if any(v[:n])]
    rel_rows += [[0] * n + rr for rr in unit_rows]

    # Galois action on the generators: l_i <-> conj(l_i), then the leaders
    action_rows = eye[n // 2:] + eye[:n // 2]
    if residues:
        action_rows += [[0] * n + residues.dlog(residues.galois_act(t))
                        for t in residues.leaders]

    module = _module_from_relations(AbelianGroup((2,)), n + s_len, rel_rows,
                                    [action_rows])
    # order consistency: |Cl_{S,T}| = |Cl_S| * |R_T / im units|
    h_s = _s_class_number(field, ClassGroup(field.D), lattice.S[1:])
    if residues:
        q_ord = hnf.IntLattice(s_len, unit_rows).index()
        if q_ord is None:
            raise CertificationError(
                f"R_T / im(units) is infinite for T={lattice.T}")
    else:
        q_ord = 1
    if module.order() != h_s * q_ord:
        raise CertificationError(
            f"ray class order mismatch: module order {module.order()}, "
            f"h_S * |R_T / im(units)| = {h_s} * {q_ord}")
    return module


def q_ray_relations(S, T):
    """Cl_{Q,S,T} presented on the leaders of R_T: (their number, R_T's
    relation rows and the dlog rows of -1 and of the finite places of S),
    for the S and T of a `RubinDatum`: the presentation the s_p flag reads
    without building the datum's lattice."""
    if not T:
        return 0, []
    R = ResidueSystem(QQ, T)
    return len(R.leaders), R.relation_rows + [R.dlog(R.reduce(x))
                                              for x in (-1, *S[1:])]


def _class_lattice(cg, classes):
    """The class relation rows plus the dlog vectors `classes`, in Z^k for
    the k leaders of the class group: the classes generate it exactly when
    this lattice is Z^k, and the order of the quotient by them is its index.
    """
    return hnf.IntLattice(len(cg.structure.leaders),
                          list(cg.structure.relation_rows) + list(classes))


def _s_class_number(field, cg, finite_S):
    """h_S = |Cl_K / <classes of the finite S-places>|."""
    return _class_lattice(cg, [cg.class_of(w.ideal.as_form())
                               for q in finite_S
                               for w in field.places(q)]).index()


def _module_from_relations(group, ngens, rel_rows, action_rows_list):
    """FiniteGModule from integer relation rows and generator action rows."""
    from .zideal import FiniteGModule
    rel_rows = [list(r) + [0] * (ngens - len(r)) for r in rel_rows]
    orders, V, Vinv = hnf.diagonalize_relations(rel_rows, ngens)
    if not all(orders):
        raise CertificationError(
            f"module is not finite: invariant factors {orders}")
    mats = []
    for action_rows in action_rows_list:
        A = [list(r) + [0] * (ngens - len(r)) for r in action_rows]
        Ap = hnf.mat_mul(hnf.mat_mul(Vinv, A), V)
        mats.append([[x % d for x, d in zip(row, orders)] for row in Ap])
    return FiniteGModule(group, orders, mats)
