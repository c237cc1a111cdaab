"""Dirichlet characters over Q, rigorous Taylor jets of S-truncated
T-modified L-series at s = 0, exact order-0 values through generalized
Bernoulli sums, and the group-ring elements built from them.

The evaluation backbone is Euler-Maclaurin for the Hurwitz zeta function
with a certified tail bound; every jet coefficient is an enclosure of the
exact Taylor coefficient, and order-0 values are exact rationals or
cyclotomics whenever the character data is exact.  Ball arithmetic is kept
to what needs logarithms: at first order the main sum is the log of one
exact integer product, and the Bernoulli corrections are exact rationals
(Johansson, arXiv:1309.2877, for the method).
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from sympy import bernoulli as sym_bernoulli
from sympy import factorint, isprime

from .ball import (Ball, CBall, CertificationError, PrecisionError,
                   ball_log, ball_log_int, precision)
from .cyclo import CycloField
from .finite import GroupStructure
from .grpring import AbelianGroup, Character, GroupRingElement, InputError
from .hnf import diagonalize_relations
from .numfld import kronecker, fundamental_discriminant, squarefree_part


class UnresolvedOrderError(RuntimeError):
    """The jet truncation cannot see the certified leading coefficient."""


class WrongOrderError(ValueError):
    """An exact order-0 value was requested at positive vanishing order."""


# -- Dirichlet characters ----------------------------------------------------

class DirichletChar:
    """Character mod f with values recorded as exponents of zeta_n.

    values[a] is t with chi(a) = zeta_n^t for gcd(a, f) = 1, else None;
    n is the order of the character.
    """

    __slots__ = ("modulus", "order", "values", "_conductor")

    def __init__(self, modulus, order, values):
        self.modulus = modulus
        self.order = order
        self.values = list(values)
        if len(self.values) != modulus:
            raise InputError("value table must have length f")
        self._conductor = None

    @staticmethod
    def trivial(f=1):
        vals = [0 if gcd(a, f) == 1 else None for a in range(f)]
        if f == 1:
            vals = [0]
        return DirichletChar(f, 1, vals)

    @staticmethod
    def quadratic(D):
        """The character a -> kronecker(D, a) mod |D| (D fundamental)."""
        f = abs(D)
        vals = []
        for a in range(f):
            k = kronecker(D, a)
            vals.append(None if k == 0 else (0 if k == 1 else 1))
        return DirichletChar(f, 2 if D != 1 else 1, vals)

    def __call__(self, a):
        """Exponent of zeta_order at a (None when not coprime)."""
        return self.values[a % self.modulus]

    def value_rational(self, a):
        """Value as an integer for characters of order <= 2 (0 if None)."""
        t = self(a)
        if t is None:
            return 0
        if self.order == 1 or t == 0:
            return 1
        if self.order == 2 and t == 1:
            return -1
        raise InputError("character is not quadratic")

    def value_cyclo(self, a, field=None):
        t = self(a)
        field = field or CycloField(self.order)
        if t is None:
            return field.zero()
        return field.zeta_power(t * (field.e // self.order))

    def value_cball(self, a):
        t = self(a)
        if t is None:
            return CBall(0, 0)
        return CBall.root_of_unity(t, self.order)

    def is_real(self):
        return self.order <= 2

    def parity(self):
        """+1 for even, -1 for odd."""
        t = self(self.modulus - 1) if self.modulus > 1 else 0
        if t == 0:
            return 1
        if 2 * t == self.order:
            return -1
        raise AssertionError("chi(-1) must be a square root of 1")

    def is_trivial(self):
        return self.order == 1

    def mul(self, other):
        f = lcm(self.modulus, other.modulus)
        n = lcm(self.order, other.order)
        vals = []
        for a in range(f):
            t1, t2 = self(a), other(a)
            if t1 is None or t2 is None:
                vals.append(None)
            else:
                vals.append((t1 * (n // self.order)
                             + t2 * (n // other.order)) % n)
        # the true order may be smaller
        ordv = 1
        for t in vals:
            if t:
                ordv = lcm(ordv, n // gcd(n, t))
        vals = [None if t is None else (t * ordv) // n for t in vals]
        return DirichletChar(f, ordv, vals)

    def inverse(self):
        n = self.order
        vals = [None if t is None else (-t) % n for t in self.values]
        return DirichletChar(self.modulus, n, vals)

    def conductor(self):
        if self._conductor is not None:
            return self._conductor
        f = self.modulus
        if f == 1:
            self._conductor = 1
            return 1
        # chi factors through (Z/fp)^x iff it is trivial on units = 1 mod fp
        for fp in _divisors(f):
            if all(self(a) == 0 for a in range(1, f)
                   if gcd(a, f) == 1 and a % fp == 1 % fp):
                self._conductor = fp
                return fp
        raise AssertionError("unreachable: f itself always works")

    def primitive(self):
        """The primitive character inducing this one."""
        fp = self.conductor()
        if fp == self.modulus:
            return self
        f = self.modulus
        vals = []
        for b in range(fp):
            if gcd(b, fp) != 1:
                vals.append(None)
                continue
            a = b
            while gcd(a, f) != 1:
                a += fp
            vals.append(self(a))
        return DirichletChar(fp, self.order, vals)

    def __repr__(self):
        return f"DirichletChar(mod {self.modulus}, order {self.order})"


def _divisors(n):
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# -- field realizations ------------------------------------------------------

class AbelianFieldRealization:
    """A finite abelian extension of Q presented by a modulus f and the
    kernel subgroup H of (Z/f)^x, with G = (Z/f)^x / H.

    Frobenius data is read off from cosets: an unramified prime q splits
    completely exactly when q mod f lies in H, and the infinite place splits
    exactly when -1 does.
    """

    def __init__(self, modulus, kernel_generators, expected_degree=None,
                 label=None, field=None, subfield_discs=None):
        f = int(modulus)
        if f < 1:
            raise InputError("modulus must be positive")
        self.modulus = f
        self.label = label or f"mod {f}"
        self.field = field
        self.subfield_discs = subfield_discs
        if f == 1:
            self.group = AbelianGroup(())
            self._coset_rep = {1: 1}
            self._diag = []
            self._keep = []
            self._V = []
            if expected_degree not in (None, 1):
                raise InputError("modulus 1 realizes only Q itself")
            return
        units = [a for a in range(1, f) if gcd(a, f) == 1]

        def mul(a, b):
            return (a * b) % f

        kg = [int(k) % f for k in kernel_generators]
        for k in kg:
            if gcd(k, f) != 1:
                raise InputError(f"kernel generator {k} is not a unit mod {f}")
        kernel = GroupStructure(1, mul, kg)
        self._coset_rep = {}
        for a in units:
            self._coset_rep[a] = min(mul(a, h) for h in kernel.exponents)
        reps = sorted(set(self._coset_rep.values()))
        qop = lambda a, b: self._coset_rep[mul(a, b)]
        self.quotient = GroupStructure(self._coset_rep[1], qop, reps)
        if expected_degree is not None \
                and self.quotient.order != expected_degree:
            raise InputError(
                f"kernel index {self.quotient.order} differs from the "
                f"declared degree {expected_degree}")
        diag, V, _vinv = self.quotient.invariants()
        keep = [i for i, d in enumerate(diag) if d != 1]
        self._diag = [diag[i] for i in keep]
        self._keep = keep
        self._V = V
        self.group = AbelianGroup(tuple(self._diag)) if self._diag \
            else AbelianGroup(())

    @staticmethod
    def rationals():
        return AbelianFieldRealization(1, [], expected_degree=1, label="Q")

    @staticmethod
    def quadratic(D):
        return AbelianFieldRealization._kronecker_realization([D])

    @staticmethod
    def multiquadratic(discs):
        Ds = [fundamental_discriminant(squarefree_part(d)) for d in discs]
        if len(set(Ds)) != len(Ds):
            raise InputError("repeated quadratic subfields")
        return AbelianFieldRealization._kronecker_realization(Ds)

    @staticmethod
    def _kronecker_realization(Ds):
        """Realization of Q(sqrt d_1, ..., sqrt d_m) with the canonical
        (Z/2)^m labeling: coordinate i records the Frobenius sign on
        sqrt(d_i), so the compositum modules use the same element names."""
        from .numfld import QuadField
        f = 1
        for D in Ds:
            f = lcm(f, abs(D))
        inst = AbelianFieldRealization.__new__(AbelianFieldRealization)
        inst.modulus = f
        inst.subfield_discs = list(Ds)
        inst.field = QuadField(Ds[0]) if len(Ds) == 1 \
            else [QuadField(D) for D in Ds]
        inst.group = AbelianGroup((2,) * len(Ds))
        inst._kronecker = list(Ds)
        names = ", ".join(f"sqrt({QuadField(D).m})" for D in Ds)
        inst.label = f"Q({names})"
        return inst

    def degree(self):
        return self.group.order

    def element_of(self, a):
        """Group element of the coset of the unit a."""
        if self.modulus == 1:
            return ()
        a %= self.modulus
        if gcd(a, self.modulus) != 1:
            raise InputError(f"{a} is not a unit mod {self.modulus}")
        if getattr(self, "_kronecker", None) is not None:
            return tuple(0 if kronecker(D, a) == 1 else 1
                         for D in self._kronecker)
        x = list(self.quotient.dlog(self._coset_rep[a]))
        y = [sum(x[i] * self._V[i][j] for i in range(len(x)))
             for j in range(len(x))]
        return tuple(y[j] % self._diag[idx]
                     for idx, j in enumerate(self._keep))

    def ramified_primes(self):
        """Primes dividing the conductor of some character of G."""
        if getattr(self, "_kronecker", None) is not None:
            out = set()
            for D in self._kronecker:
                out |= set(factorint(abs(D)))
            return sorted(out)
        out = set()
        for chi in self.group.all_characters():
            if chi.is_trivial():
                continue
            out |= set(factorint(self.dirichlet(chi).conductor()))
        return sorted(out)

    def splits_completely(self, v):
        """Does the rational place v split completely in the field?

        Decided on primitive character values: Frob_v is trivial exactly
        when every character is 1 at v (and v is then unramified).
        """
        if self.degree() == 1:
            return True
        if getattr(self, "_kronecker", None) is not None:
            if v == "inf":
                return all(D > 0 for D in self._kronecker)
            return all(kronecker(D, int(v)) == 1 for D in self._kronecker)
        for chi in self.group.all_characters():
            if chi.is_trivial():
                continue
            prim = self.dirichlet(chi).primitive()
            if v == "inf":
                if prim.parity() != 1:
                    return False
            else:
                v = int(v)
                if prim.conductor() % v == 0 or prim(v) != 0:
                    return False
        return True

    def frobenius(self, q):
        """The Frobenius element at a prime q coprime to the modulus."""
        return self.element_of(int(q))

    def dirichlet(self, chi):
        """The Dirichlet character mod f attached to an abstract character."""
        f = self.modulus
        if getattr(self, "_kronecker", None) is not None:
            # product of the quadratic characters selected by the label
            vals = []
            order = 1 if all(t == 0 for t in chi.exponents) else 2
            for a in range(f):
                if gcd(a, f) != 1:
                    vals.append(None)
                    continue
                prod = 1
                for t, D in zip(chi.exponents, self._kronecker):
                    if t:
                        prod *= kronecker(D, a)
                vals.append(0 if prod == 1 else 1)
            return DirichletChar(f, order, vals)
        n = max(chi.order(), 1)
        vals = []
        for a in range(f):
            if f > 1 and gcd(a, f) != 1:
                vals.append(None)
                continue
            t = chi.value_exponent(self.element_of(a if f > 1 else 1))
            e = self.group.exponent
            vals.append((t * n // e) % n if n > 1 else 0)
        if f == 1:
            vals = [0]
        return DirichletChar(f, n, vals)

    def __repr__(self):
        return f"AbelianFieldRealization({self.label})"


# -- jets --------------------------------------------------------------------

class Jet:
    """Truncated Taylor expansion at s = 0 with certified coefficients.

    coeffs[k] encloses the k-th Taylor coefficient (exact Fractions and
    cyclotomics allowed); `order` is the proven order of vanishing, or None
    when unresolved.  Multiplication truncates at the smaller length and
    adds declared orders.
    """

    __slots__ = ("coeffs", "order", "params")

    def __init__(self, coeffs, order=None, params=None):
        self.coeffs = list(coeffs)
        self.order = order
        self.params = params or {}

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def __mul__(self, other):
        K = min(self.truncation, other.truncation)
        out = []
        for k in range(K + 1):
            acc = None
            for i in range(k + 1):
                term = self.coeffs[i] * other.coeffs[k - i]
                acc = term if acc is None else acc + term
            out.append(acc)
        order = None
        if self.order is not None and other.order is not None:
            order = self.order + other.order
        return Jet(out, order)

    def __add__(self, other):
        K = min(self.truncation, other.truncation)
        out = [self.coeffs[k] + other.coeffs[k] for k in range(K + 1)]
        order = None
        if self.order is not None and other.order is not None:
            order = min(self.order, other.order)
        return Jet(out, order)

    def scale(self, c):
        return Jet([c * x for x in self.coeffs], self.order)

    def coefficient(self, k):
        return self.coeffs[k]

    def __repr__(self):
        return f"Jet(order={self.order}, coeffs={self.coeffs!r})"


from functools import lru_cache


@lru_cache(maxsize=None)
def _rising_factorial_coeffs(m):
    """Coefficients of s(s+1)...(s+m-1), lowest degree first (m >= 1)."""
    poly = (0, 1)
    for j in range(1, m):
        # multiply by (s + j)
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += j * c
            new[i + 1] += c
        poly = tuple(new)
    return poly


@lru_cache(maxsize=None)
def _bernoulli_fraction(n):
    b = sym_bernoulli(n)
    return Fraction(int(b.p), int(b.q))


@lru_cache(maxsize=None)
def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@lru_cache(maxsize=None)
def _correction_coeffs(B, K):
    """Integer tables (a, d) of the Euler-Maclaurin corrections, one for
    each s-degree i = 1..K: a[j - 1] / d = B_2j / (2j)! * P_j[i] for
    j = 1..B, with P_j[i] the s^i coefficient of s(s+1)...(s+2j-2).  Every
    P_j[0] is 0, so there is no table for i = 0."""
    rows = []
    for i in range(1, K + 1):
        row = []
        for j in range(1, B + 1):
            P = _rising_factorial_coeffs(2 * j - 1)
            Pi = P[i] if i < len(P) else 0
            row.append(_bernoulli_fraction(2 * j) / _factorial(2 * j) * Pi)
        d = lcm(*(c.denominator for c in row))
        rows.append((tuple(int(c * d) for c in row), d))
    return tuple(rows)


@lru_cache(maxsize=None)
def _tail_radius_table(N, B, K, prec):
    """Remainder-bound radii r_0..r_K for the Euler-Maclaurin tail; the
    bound only depends on the cutoffs, not on x in (0, 1].  `prec` is the
    precision in force, passed only to key the cache."""
    P2B = _rising_factorial_coeffs(2 * B)
    bconst = abs(_bernoulli_fraction(2 * B)) / _factorial(2 * B)
    logN = ball_log_int(N)
    a_exp = 2 * B - 1
    Npow = Ball(N) ** (-a_exp)
    I = []
    for j in range(K + 1):
        acc = Ball(0)
        for i in range(j + 1):
            acc = acc + (logN ** i) * Fraction(
                _factorial(j), _factorial(i)) \
                * Fraction(1, a_exp ** (j - i + 1))
        I.append(Npow * acc)
    rads = []
    for k in range(K + 1):
        rad = Fraction(0)
        for i in range(min(k, 2 * B) + 1):
            if P2B[i]:
                bound = (I[k - i] * Fraction(P2B[i], _factorial(k - i))
                         ).endpoints()[1]
                rad += abs(bound)
        rads.append(bconst * rad)
    return tuple(rads)


def hurwitz_jet(x, K):
    """Taylor coefficients of the Hurwitz zeta function at s = 0: the jet
    (c_0, ..., c_K) of zeta_H(s, x) for rational x in (0, 1].

    Euler-Maclaurin with N terms and B Bernoulli corrections chosen from
    the working precision; every coefficient is a certified enclosure and
    c_0 = 1/2 - x is exact.  For K = 1 the main sum sum_{n<N} log(n + x) is
    the log of the exact integer prod_{n<N} (n den + num) less N log den;
    for K >= 2 it accumulates the power sums of log(n + x) and divides by
    k! once.  The corrections are summed as exact rationals in w = N + x,
    so the only balls in the tail are log w and the tail bound.  The
    precision must be at least 53 bits: below that it raises
    `PrecisionError`, an `Undecided` with radius 2^-prec.  A c_0 enclosure
    that misses 1/2 - x raises `CertificationError`.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise InputError("x must lie in (0, 1]")
    prec = precision()
    if prec < 53:
        raise PrecisionError(
            f"hurwitz_jet needs at least 53 bits of precision, got {prec}",
            Fraction(2) ** -prec)
    if K > 4:
        raise InputError("jet truncation capped at K = 4")
    N = max(16, (3 * prec) // 10)
    B = max(8, (17 * prec) // 100)
    num, den = x.numerator, x.denominator
    log_den = ball_log_int(den)
    # main sum: sum_{n<N} (-log(n+x))^k / k!
    if K == 1:
        # sum_n log(n+x) = log prod_n (n den + num) - N log den; the
        # product is exact and its log is used once, so it is not cached
        prod = 1
        for n in range(N):
            prod *= n * den + num
        main = [N, log_den * N - ball_log(prod)]
    else:
        sums = [Ball(0)] * (K + 1)  # sums[k] = sum_n log(n+x)^k
        for n in range(N):
            L = ball_log_int(n * den + num) - log_den
            power = L
            for k in range(1, K + 1):
                if k > 1:
                    power = power * L
                sums[k] = sums[k] + power
        main = [N] + [sums[k] * Fraction((-1) ** k, _factorial(k))
                      for k in range(1, K + 1)]
    # tail at w = N + x: the integral term w^(1-s)/(s-1), the half term
    # w^(-s)/2 and the Bernoulli corrections sum_i R_i s^i w^(-s).  R_i is
    # exact: Horner in u = w^-2 = p/q, on integers over the denominator
    # q^(B-1).  Expanding w^(-s) = sum_m (-Lw)^m s^m / m! then leaves a
    # polynomial in -Lw with exact coefficients t[m] / m!, where
    # t[m] = R_(k-m) - w + [m = k]/2 and R_0 = 0.
    w = N + x
    p, q = w.denominator ** 2, w.numerator ** 2
    R = [Fraction(0)]
    for a, d in _correction_coeffs(B, K):
        acc, qpow = a[-1], 1
        for c in reversed(a[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        R.append(Fraction(acc * w.denominator, d * qpow * w.numerator))
    neg_Lw = log_den - ball_log_int(w.numerator)
    rads = _tail_radius_table(N, B, K, prec)
    out = []
    for k in range(K + 1):
        t = [R[k - m] - w + (Fraction(1, 2) if m == k else 0)
             for m in range(k + 1)]
        c = 0
        for m in range(k, 0, -1):
            c = (c + t[m] / _factorial(m)) * neg_Lw
        out.append(c + main[k] + Ball(t[0], rads[k]))
    # pin the exact value at order zero
    exact0 = Fraction(1, 2) - x
    if not out[0].contains(exact0):
        raise CertificationError("Euler-Maclaurin c0 check failed")
    coeffs = [exact0] + out[1:]
    return Jet(coeffs, order=None, params={"N": N, "B": B, "prec": prec})


class LSpec:
    """Evaluation request for an S-truncated, T-modified Dirichlet L-jet."""

    __slots__ = ("char", "S", "T", "truncation")

    def __init__(self, char, S, T=(), truncation=None):
        self.char = char
        self.S = _normalize_S(S)
        self.T = sorted(int(q) for q in T)
        prim = char.primitive()
        ram = set(factorint(prim.conductor()))
        fin = {v for v in self.S if v != "inf"}
        if "inf" not in self.S:
            raise InputError("S must contain the infinite place")
        if not ram <= fin:
            raise InputError(f"S must contain the ramified primes {sorted(ram)}")
        if fin & set(self.T):
            raise InputError("S and T must be disjoint")
        self.truncation = truncation


def _normalize_S(S):
    out = []
    for v in S:
        out.append("inf" if v in ("inf", "oo", "infinity") else int(v))
    fin = sorted(q for q in out if q != "inf")
    return (["inf"] if "inf" in out else []) + fin


def theoretical_order(char, S):
    """The exact order of vanishing of L_{S,T}(chi, s) at s = 0.

    Primitive part contributes 1 for even nontrivial characters and 0
    otherwise; each finite q in S away from the conductor with chi(q) = 1
    contributes one more (its removed Euler factor vanishes at 0).  The
    T-factors (1 - chi(q) q^{1-s}) never vanish at 0.
    """
    prim = char.primitive()
    base = 1 if (prim.conductor() > 1 and prim.parity() == 1) else 0
    count = 0
    for v in S:
        if v == "inf" or prim.conductor() % v == 0:
            continue
        if prim(v) == 0:  # exponent 0: chi(v) = 1
            count += 1
    return base + count


def l_jet(spec):
    """Certified jet of L_{Q,S,T}(chi, s) at s = 0.

    The order of vanishing is the theoretical one; coefficients below it are
    pinned to exact zero once their enclosures contain zero (else
    CertificationError), and the leading coefficient must certify nonzero
    (else UnresolvedOrderError).  `params` holds the N, B and precision of
    the Hurwitz jets.
    """
    chi = spec.char.primitive()
    r = theoretical_order(spec.char, spec.S)
    K = spec.truncation if spec.truncation is not None else r + 1
    if K < r:
        raise UnresolvedOrderError(
            f"truncation K={K} below the vanishing order {r}")
    if K > 4:
        raise InputError("jet truncation capped at K = 4")
    real = chi.is_real()
    jet = _primitive_l_jet(chi, K, real)
    params = jet.params  # the products below do not carry them
    for q in spec.S:
        if q == "inf" or chi.conductor() % q == 0:
            continue
        jet = jet * _euler_factor_jet(chi, q, K, shift=0, real=real)
    for q in spec.T:
        jet = jet * _euler_factor_jet(chi, q, K, shift=1, real=real)
    # certify the order
    coeffs = list(jet.coeffs)
    for k in range(min(r, K + 1)):
        c = coeffs[k]
        if isinstance(c, (Ball, CBall)):
            vanishes = c.contains_zero()
        else:
            vanishes = c == 0
        if not vanishes:
            raise CertificationError(
                f"theoretical order {r} contradicted: coefficient {k} "
                f"is certified nonzero")
        coeffs[k] = Fraction(0)
    if r <= K:
        lead = coeffs[r]
        if isinstance(lead, Fraction):
            nonzero = lead != 0
        elif isinstance(lead, (Ball, CBall)):
            nonzero = lead.is_nonzero()
        else:  # exact cyclotomic
            nonzero = not lead.is_zero()
        if not nonzero:
            raise UnresolvedOrderError(
                f"cannot certify the leading coefficient at order {r} "
                f"(radius too large at {precision()} bits)")
    return Jet(coeffs, order=r, params=params)


def _primitive_l_jet(chi, K, real):
    f = chi.conductor()
    if f == 1:
        return hurwitz_jet(Fraction(1), K)
    exact0 = Fraction(0) if real else CycloField(chi.order).zero()
    ball_coeffs = [Ball(0) if real else CBall(0, 0)
                   for _ in range(K + 1)]
    for a in range(1, f):
        if chi(a) is None:
            continue
        hj = hurwitz_jet(Fraction(a, f), K)
        if real:
            # chi(a) is +1 or -1: add or subtract the jet
            plus = chi.value_rational(a) == 1
            exact0 += hj.coeffs[0] if plus else -hj.coeffs[0]
            for k in range(1, K + 1):
                ball_coeffs[k] = (ball_coeffs[k] + hj.coeffs[k] if plus
                                  else ball_coeffs[k] - hj.coeffs[k])
        else:
            exact0 = exact0 + chi.value_cyclo(a) * hj.coeffs[0]
            vb = chi.value_cball(a)
            for k in range(1, K + 1):
                ball_coeffs[k] = ball_coeffs[k] + vb * hj.coeffs[k]
    # multiply by f^{-s} = exp(-s log f); the order-0 part stays exact
    Lf = ball_log_int(f)
    E = [Ball(1)]
    for k in range(1, K + 1):
        E.append(E[-1] * (-Lf) * Fraction(1, k))
    out = [exact0]
    for k in range(1, K + 1):
        acc = _mul_exact(exact0, E[k])
        for i in range(1, k + 1):
            acc = acc + ball_coeffs[i] * E[k - i]
        out.append(acc)
    return Jet(out, params=hj.params)


def _mul_exact(c0, ball):
    if isinstance(c0, Fraction):
        return ball * c0
    # cyclotomic scalar: go through a certified complex enclosure
    return c0.to_cball() * ball


def _euler_factor_jet(chi, q, K, shift, real):
    """(1 - chi(q) q^{shift} q^{-s}) as a jet with exact order-0 part."""
    t = chi(q)
    Lq = ball_log_int(q)
    qs = q ** shift
    if t is None:
        one = Fraction(1)
        coeffs = [one] + [Ball(0)] * K
        return Jet(coeffs, order=0)
    if real:
        v = chi.value_rational(q)
        c0 = Fraction(1 - v * qs)
        coeffs = [c0]
        power = Ball(1)
        for k in range(1, K + 1):
            power = power * (-Lq) * Fraction(1, k)
            coeffs.append(power * (-v * qs))
        order = 0 if c0 != 0 else 1
        return Jet(coeffs, order=order)
    v = chi.value_cyclo(q)
    vb = chi.value_cball(q)
    c0 = CycloField(chi.order).one() - v * qs
    coeffs = [c0]
    power = CBall(1, 0)
    for k in range(1, K + 1):
        power = power * CBall(-Lq, 0) * Fraction(1, k)
        coeffs.append(power * (-qs) * vb)
    return Jet(coeffs, order=0 if not c0.is_zero() else 1)


def bernoulli_value(char, S, T=()):
    """Exact L_{S,T}(chi, 0) when the order of vanishing is zero.

    Computed as -B_{1,chi} for the primitive core times the exact removed
    Euler factors (1 - chi(q)) for q in S and (1 - chi(q) q) for q in T.
    Raises WrongOrderError at positive order.
    """
    S = _normalize_S(S)
    T = sorted(int(q) for q in T)
    r = theoretical_order(char, S)
    if r != 0:
        raise WrongOrderError(f"order of vanishing is {r}, not 0")
    chi = char.primitive()
    f = chi.conductor()
    if chi.is_real():
        total = Fraction(0)
        for a in range(1, f + 1):
            v = chi.value_rational(a)
            if v:
                total += v * (Fraction(a, f) - Fraction(1, 2))
        value = -total
        for q in S:
            if q != "inf" and f % q != 0:
                value *= 1 - chi.value_rational(q)
        for q in T:
            value *= 1 - chi.value_rational(q) * q
        return value
    field = CycloField(chi.order)
    total = field.zero()
    for a in range(1, f + 1):
        if chi(a) is not None:
            total = total + chi.value_cyclo(a, field) \
                * (Fraction(a, f) - Fraction(1, 2))
    value = -1 * total
    for q in S:
        if q != "inf" and f % q != 0:
            value = value * (field.one() - chi.value_cyclo(q, field))
    for q in T:
        value = value * (field.one() - chi.value_cyclo(q, field) * q)
    return value


# -- group-ring elements from L-values ---------------------------------------

def _embed_cyclo(value, e):
    """Embed an exact value (Fraction or CycloElt) into Q(zeta_e)."""
    field = CycloField(e)
    if isinstance(value, Fraction):
        return field.from_rational(value)
    out = field.zero()
    step = e // value.field.e
    for k, c in enumerate(value.vec):
        if c:
            out = out + field.zeta_power(k * step) * c
    return out


def validate_rubin_shape(realization, S, V, T):
    """(H1) and (H2) shape checks for a Rubin datum over the realization.

    Raises InputError with a datum message on violation; the torsion
    condition (H3) is field arithmetic and lives with the S-unit lattice.
    """
    S = _normalize_S(S)
    V = _normalize_S(V) if V else []
    T = sorted(int(q) for q in T)
    if "inf" not in S:
        raise InputError("(H1) fails: S omits the infinite place")
    ram = realization.ramified_primes()
    missing = [q for q in ram if q not in S]
    if missing:
        raise InputError(f"(H1) fails: S omits ramified primes {missing}")
    if set(S) & set(T):
        raise InputError("S and T must be disjoint")
    if not set(V) <= set(S) or len(V) >= len(S):
        raise InputError("(H2) fails: V must be a proper subset of S")
    for v in V:
        if not realization.splits_completely(v):
            raise InputError(f"(H2) fails: {v} does not split completely")
    return S, V, T


def stickelberger_element(realization, S, V, T, truncation=None):
    """The group-ring element whose chi-component is
    lim_{s->0} s^{-|V|} L_{S,T}(chi^{-1}, s).

    Exact rational coefficients when |V| = 0; certified real-ball
    coefficients otherwise.  Components of characters vanishing beyond
    order |V| are exact zeros.
    """
    S, V, T = validate_rubin_shape(realization, S, V, T)
    r = len(V)
    group = realization.group
    components = {}
    for chi in group.all_characters():
        chid = realization.dirichlet(chi).inverse()
        r_chi = theoretical_order(chid, S)
        if r_chi < r:
            raise InputError(
                f"character order of vanishing {r_chi} < |V| = {r}; "
                "some place of V cannot split completely")
        if r_chi > r:
            components[chi.exponents] = Fraction(0)
        elif r == 0:
            components[chi.exponents] = bernoulli_value(chid, S, T)
        else:
            K = truncation if truncation is not None else r + 1
            jet = None
            err = None
            while K <= 4:
                try:
                    jet = l_jet(LSpec(chid, S, T, truncation=K))
                    break
                except UnresolvedOrderError as exc:
                    err = exc
                    K += 1
            if jet is None:
                raise UnresolvedOrderError(str(err))
            components[chi.exponents] = jet.coeffs[r]
    if r == 0:
        return _assemble_exact(group, components)
    return _assemble_ball(group, components)


def _assemble_exact(group, components):
    e = max(group.exponent, 1)
    field = CycloField(max(e, 1))
    coeffs = []
    for sigma in group.elements:
        total = field.zero()
        for chi in group.all_characters():
            val = _embed_cyclo(components[chi.exponents], field.e)
            # coefficient of sigma in e_chi is chi(sigma^{-1}) / |G|
            total = total + val * field.zeta_power(
                -chi.value_exponent(sigma) * (field.e // group.exponent)
                if group.rank else 0)
        if not total.is_rational():
            raise AssertionError("Stickelberger coefficient not rational")
        coeffs.append(total.rational_value() / group.order)
    from .grpring import GroupRingElement
    return GroupRingElement(group, "rat", coeffs)


def _assemble_ball(group, components):
    from .grpring import GroupRingElement
    real_chars = group.exponent <= 2
    coeffs = []
    for sigma in group.elements:
        if real_chars:
            total = Ball(0)
            for chi in group.all_characters():
                sign = 1 if chi.value_exponent(sigma) == 0 else -1
                total = total + components[chi.exponents] * Fraction(sign)
            coeffs.append(total * Fraction(1, group.order))
        else:
            total = CBall(0, 0)
            for chi in group.all_characters():
                comp = components[chi.exponents]
                w = CBall.root_of_unity(-chi.value_exponent(sigma),
                                        group.exponent)
                total = total + w * comp
            coeffs.append(total.real_part_certified()
                          * Fraction(1, group.order))
    return GroupRingElement(group, "ball", coeffs)


def leading_term_element(realization, S, T):
    """sum_chi L*_{S,T}(chi^{-1}, 0) e_chi with per-character leading terms.

    Returns (element, orders) where orders maps character labels to their
    orders of vanishing; every leading coefficient is certified nonzero.
    """
    S = _normalize_S(S)
    T = sorted(int(q) for q in T)
    group = realization.group
    components = {}
    orders = {}
    for chi in group.all_characters():
        chid = realization.dirichlet(chi).inverse()
        r_chi = theoretical_order(chid, S)
        jet = l_jet(LSpec(chid, S, T, truncation=min(max(r_chi, 1), 4)))
        comp = jet.coeffs[r_chi]
        if isinstance(comp, Fraction) and comp == 0:
            raise CertificationError(
                f"leading term at the theoretical order {r_chi} is zero")
        orders[chi.exponents] = r_chi
        components[chi.exponents] = comp
    element = _assemble_ball(group, components)
    return element, orders


def invert_ball_element(x):
    """Inverse of a unit of R[G] with certified-ball coefficients."""
    from .ball import gauss_solve
    from .grpring import GroupRingElement
    group = x.group
    n = group.order
    table = group.multiplication_table()
    cols = []
    for j in range(n):
        col = [Ball(0)] * n
        for i, c in enumerate(x.coeffs):
            cc = c if isinstance(c, Ball) else Ball(c)
            col[table[i][j]] = col[table[i][j]] + cc
        cols.append(col)
    A = [[cols[j][k] for j in range(n)] for k in range(n)]
    rhs = [Ball(1 if group.elements[k] == group.identity() else 0)
           for k in range(n)]
    sol = gauss_solve(A, rhs)
    return GroupRingElement(group, "ball", sol)
