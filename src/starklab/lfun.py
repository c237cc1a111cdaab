"""Dirichlet characters over Q, certified leading terms at s = 0 of
S-truncated T-modified L-series, order-0 values through generalized
Bernoulli sums, and the group-ring elements built from them.  At order 0
that element reads no character: it is the Stickelberger sum over the
units mod the field's conductor (`stickelberger_element`).

A character of order n records its values as exponents t of zeta_n and is
read through one value of zeta_n^t (`DirichletChar.value`): the integer
+-1 when n <= 2, else a certified complex ball.  Real characters (n <= 2)
and complex ones share every sum: -B_{1,chi} = sum_a chi(a) (f - 2a) / 2f
is one integer per power of zeta_n, and the Euler factors are
1 - chi(q) q^{k-s} (Washington, *Introduction to Cyclotomic Fields*, ch. 4);
only the values' types differ: a real character's order-0 values are
exact Fractions, a complex character's are certified complex balls.
A field is an `AbelianFieldRealization`: its Galois group is presented by
the coordinate characters dual to a basis of it, whatever way the field
was given, and every reader works from them.

Every L-value read here is one number per character: the leading
term lim_{s->0} s^-r L_{S,T}(chi, s) at the order of vanishing r (Tate,
*Les conjectures de Stark*, ch. I, section 3).  The leading term of a
product is the product of the leading terms, so it is the primitive
character's leading term times one factor per finite S-prime q off the
conductor, log q when chi(q) = 1 (there 1 - q^-s = s log q + ...) and
1 - chi(q) otherwise, and 1 - chi(q) q of each T-prime (Tate, ch. III).
The primitive leading term is -B_{1,chi}, unless chi is even and
nontrivial; then L(chi, 0) = 0, and its derivative is c_1(U) + sum_{t != 0}
(zeta_n^t - 1) c_1(class t), where c_1(C) is the derivative at 0 of the
Hurwitz zeta sum sum_{a in C} zeta_H(s, a/f), class t holds the units a
with chi(a) = zeta_n^t (`DirichletChar.classes`), and U all units mod f,
with c_1(U) = -Lambda(f)/2 in closed form (`hurwitz_jet`).

Any other c_1 comes from Euler-Maclaurin with a certified tail bound, and
is an enclosure of the exact value; ball arithmetic is kept to what needs
logarithms, and the Bernoulli corrections are exact rationals (Johansson,
arXiv:1309.2877, for the method).  Every class of an even character is
closed under a -> f - a, so the tail is expanded about the midpoint
N + 1/2, with cutoffs N and B sized from the certified tail bound.  The
precision alone fixes the cutoffs, the tail bound and the midpoint table,
so they are one cached plan per precision (`_plan`).  c_1 takes three
logs whatever the class's size: of (2N + 1) f, of 2, and of the main
sum's product, from a floor and a ceiling of it trimmed to the working
precision (`ball.ball_log_prod`).  The rest of the tail is one power
series in the offsets (2a - f)/((2N + 1) f), whose coefficients the plan
holds as integers over one denominator (`_midpoint_series`): summed over
the class it is one exact rational in the even power sums of 2a - f, as
the odd ones vanish.  One exact combination of the logs and that rational
is rounded once (`ball.ball_combination`), so a real character's leading
term costs two such roundings and a handful of logs, not a log per
residue.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import mul, sub
from typing import NamedTuple

from .arith import CapacityError, bernoulli, factorint
from .ball import (Ball, CBall, CertificationError, PrecisionError,
                   Undecided, ball_combination, ball_log_int, ball_log_prod,
                   precision, working_precision)
from .finite import GroupStructure
from .grpring import AbelianGroup, GroupRingElement, InputError
from .hnf import diagonalize_relations
from .numfld import (MAX_ABS_DISC, _normalize_places, _normalize_primes,
                     fundamental_discriminant, is_fundamental_discriminant,
                     squarefree_part)


class UnresolvedOrderError(Undecided):
    """The leading coefficient at the order of vanishing does not certify
    nonzero at the working precision: an `Undecided`, whose radius is that
    coefficient's."""


class WrongOrderError(ValueError):
    """An order-0 value was requested at positive vanishing order."""


# -- Dirichlet characters ----------------------------------------------------

class DirichletChar:
    """Character mod f with values recorded as exponents of zeta_n.

    values[a] is t with chi(a) = zeta_n^t for gcd(a, f) = 1, else None;
    n is the order of the character.  A quadratic character reads its
    values off the Kronecker table of its discriminant (`_kronecker_table`),
    once per D, as `quadratic` is memoised.  The conductor is the least
    divisor f' of f with chi trivial on the units = 1 mod f', so it looks
    only at the residues 1 + f', 1 + 2f', ... below f.
    """

    __slots__ = ("__dict__", "modulus", "order", "values")

    def __init__(self, modulus, order, values):
        self.modulus = modulus
        self.order = order
        self.values = vals = list(values)
        if modulus < 1 or len(vals) != modulus:
            raise InputError("value table must have length f >= 1")
        # an int exponent in range(n) at every unit and None exactly at the
        # multiples of the primes of f, checked on the distinct values and
        # the non-units; multiplicativity would need a generating set of
        # the units, and is not checked
        non_units = {m for p in factorint(modulus)
                     for m in range(0, modulus, p)}
        distinct = set(vals)
        if not (distinct <= {None, *range(order)}
                and all(type(t) is int for t in distinct - {None})
                and vals.count(None) == len(non_units)
                and all(vals[m] is None for m in non_units)):
            raise InputError(
                f"a character mod {modulus} of order {order} needs an "
                f"exponent in range({order}) at every unit and None at "
                f"every non-unit")

    @staticmethod
    @lru_cache(maxsize=256)
    def quadratic(D):
        """The character a -> kronecker(D, a) mod |D| for a fundamental
        discriminant D or D = 1 (any other D is an InputError), one object
        per D; nothing writes to a character's `values`."""
        vals = map({0: None, 1: 0, -1: 1}.__getitem__, _kronecker_table(D))
        return DirichletChar(abs(D), 2 if D != 1 else 1, vals)

    def __call__(self, a):
        """Exponent of zeta_order at a (None when not coprime)."""
        return self.values[a % self.modulus]

    @cached_property
    def classes(self):
        """The units a in 1..f grouped by exponent: the pairs (t, (a with
        chi(a) = zeta_n^t)), each tuple ascending and the classes in the
        order of their least elements.  a = f is a unit only for f = 1."""
        groups = [[] for _ in range(self.order)]
        vals = self.values
        # the exponents at a = 1..f are values[1:] then values[0]
        for a, t in enumerate(vals[1:] + vals[:1], 1):
            if t is not None:
                groups[t].append(a)
        return tuple(sorted(((t, tuple(g)) for t, g in enumerate(groups) if g),
                            key=lambda tg: tg[1][0]))

    def value(self, t):
        """zeta_n^t, n the order, for an exponent t = chi(a) (`_zeta`)."""
        return _zeta(t, self.order)

    def parity(self):
        """+1 for even, -1 for odd."""
        t = self(self.modulus - 1) if self.modulus > 1 else 0
        if t == 0:
            return 1
        if 2 * t == self.order:
            return -1
        raise InputError("chi(-1) must be a square root of 1")

    def inverse(self):
        """The conjugate character: itself when real (order <= 2)."""
        n = self.order
        if n <= 2:
            return self
        vals = [None if t is None else (-t) % n for t in self.values]
        return DirichletChar(self.modulus, n, vals)

    @cached_property
    def conductor(self):
        # chi factors through (Z/fp)^x iff it is trivial on the units = 1
        # mod fp; the non-units among them have the value None, and fp = f
        # always qualifies.  A character of order 1 is trivial.
        f = self.modulus
        return 1 if self.order == 1 else next(
            fp for fp in _divisors(f)
            if all(self.values[a] in (0, None) for a in range(1 + fp, f, fp)))

    def primitive(self):
        """The primitive character inducing this one."""
        fp = self.conductor
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


def _zeta(t, n):
    """zeta_n^t for an integer t: the integer +-1 when n <= 2, which a sum
    adds or subtracts (`_add_times`), else a certified CBall."""
    return (-1) ** (t % n) if n <= 2 else CBall.root_of_unity(t, n)


def _kronecker_table(D):
    """(kronecker(D, a) for a in range(|D|)) for a fundamental
    discriminant D, or (1,) for D = 1; InputError for any other D.  D is
    a product of prime discriminants -4, 8, -8 and p* = +-p = 1 mod 4, so
    the table is the pointwise product of theirs, each repeated to length
    |D|; that of p* is (a|p): 0 at 0, 1 at a^2 mod p for 0 < a < p/2 and
    -1 elsewhere.

    Nothing keeps the table: its one caller, `DirichletChar.quadratic`, is
    memoised on the same D with 256 entries, which hold the 163
    discriminants (|D| < 1500) of the largest benchmark pool,
    `exact_algebra`, so a run over it builds each table once."""
    if D != 1 and not is_fundamental_discriminant(D):
        raise InputError(f"{D} is not a fundamental discriminant")
    f, two, table = abs(D), D, (1,)
    parts = []
    for p in factorint(f):
        if p > 2:
            two //= p if p % 4 == 1 else -p
            legendre = [-1] * p
            legendre[0] = 0
            for a in range(1, p // 2 + 1):
                legendre[a * a % p] = 1
            parts.append(legendre)
    if two != 1:
        parts.append({-4: [0, 1, 0, -1], 8: [0, 1, 0, -1, 0, -1, 0, 1],
                      -8: [0, 1, 0, 1, 0, -1, 0, -1]}[two])
    for i, part in enumerate(parts):
        part *= f // len(part)
        table = part if i == 0 else list(map(mul, table, part))
    return tuple(table)


def _divisors(n):
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# -- field realizations ------------------------------------------------------

class AbelianFieldRealization:
    """A finite abelian extension K of Q in Q(zeta_f), presented by the
    coordinate characters of its Galois group G = Z/d_1 x ... x Z/d_k.

    The j-th coordinate character is the Dirichlet character mod a divisor
    of f, of order d_j, whose exponent at a unit is the j-th coordinate of
    its image in G.  They generate the characters of G, so every character
    is a product of their powers (`dirichlet`), and Frobenius data is read
    off them alone: an unramified prime q splits completely exactly when
    every coordinate character is 1 at q, and the infinite place exactly
    when every one is even.

    A kernel realization, G = (Z/f)^x / H for the subgroup H that the
    kernel generators span, computes them once from discrete logs in the
    quotient and its Smith form.  A multiquadratic field Q(sqrt d_1, ...,
    sqrt d_m) takes the Kronecker characters of the d_i, in order: its
    (Z/2)^m labels record the Frobenius sign on each sqrt(d_i), so the
    compositum modules use the same element names.
    """

    def __init__(self, modulus, kernel_generators, expected_degree=None,
                 label=None):
        f = int(modulus)
        if f < 1:
            raise InputError("modulus must be positive")
        # the units mod f are listed below, before |G| is known
        if f > MAX_ABS_DISC:
            raise CapacityError(
                f"modulus {f} exceeds the desk bound {MAX_ABS_DISC}")

        def mul(a, b):
            return (a * b) % f

        kg = [int(k) % f for k in kernel_generators]
        for k in kg:
            if gcd(k, f) != 1:
                raise InputError(f"kernel generator {k} is not a unit mod {f}")
        # 1 % f is the identity, 0 for f = 1; each coset of H is named by
        # its least element
        kernel = GroupStructure(1 % f, mul, kg)
        units = [a for a in range(f) if gcd(a, f) == 1]
        rep = {a: min(mul(a, h) for h in kernel.exponents) for a in units}
        quotient = GroupStructure(rep[1 % f], lambda a, b: rep[mul(a, b)],
                                  sorted(set(rep.values())))
        if expected_degree is not None \
                and quotient.order != expected_degree:
            raise InputError(
                f"kernel index {quotient.order} differs from the "
                f"declared degree {expected_degree}")
        factors, V, _ = diagonalize_relations(
            quotient.relation_rows, len(quotient.leaders))
        logs = {a: quotient.dlog(rep[a]) for a in units}
        coords = []
        for j, d in enumerate(factors):
            vals = [None] * f
            for a, x in logs.items():
                vals[a] = sum(xi * row[j] for xi, row in zip(x, V)) % d
            coords.append(DirichletChar(f, d, vals))
        self._present(f, coords, label or f"mod {f}")

    def _present(self, modulus, coordinate_characters, label):
        """Set the presentation: G is the product of the cyclic groups of
        the coordinate characters' orders, in their order."""
        self.modulus = modulus
        self.label = label
        self.coordinate_characters = coordinate_characters
        self.group = AbelianGroup(
            tuple(chi.order for chi in coordinate_characters))

    @staticmethod
    def rationals():
        return AbelianFieldRealization(1, [], expected_degree=1, label="Q")

    @staticmethod
    def quadratic(D):
        return AbelianFieldRealization._compositum([D])

    @staticmethod
    def multiquadratic(discs):
        """Q(sqrt d_1, ..., sqrt d_m) for independent d_i: InputError when
        some product of them is a square (a repeated subfield, say), as the
        field would then have degree below 2^m."""
        Ds = [fundamental_discriminant(squarefree_part(d)) for d in discs]
        for k in range(2, len(Ds) + 1):
            for sub in combinations(Ds, k):
                if squarefree_part(prod(sub)) == 1:
                    raise InputError(
                        f"dependent quadratic subfields: the product of "
                        f"{list(sub)} is a square")
        return AbelianFieldRealization._compositum(Ds)

    @staticmethod
    def _compositum(Ds):
        """Q(sqrt D_1, ..., sqrt D_m) for fundamental discriminants D_i,
        with their Kronecker characters as the coordinate characters."""
        from .numfld import QuadField
        inst = AbelianFieldRealization.__new__(AbelianFieldRealization)
        names = ", ".join(f"sqrt({QuadField(D).m})" for D in Ds)
        inst._present(lcm(*(abs(D) for D in Ds)),
                      [DirichletChar.quadratic(D) for D in Ds],
                      f"Q({names})")
        return inst

    def ramified_primes(self):
        """Primes dividing the conductor of some character of G: those of
        the coordinate characters, as the conductor of a product divides
        the lcm of the factors' conductors."""
        return sorted({p for chi in self.coordinate_characters
                       for p in factorint(chi.conductor)})

    def splits_completely(self, v):
        """Does the rational place v split completely in the field?

        Frob_v is trivial exactly when every character of G is 1 at v (and
        v is then unramified), so exactly when every coordinate character
        is: even at v = inf, and of conductor prime to a finite v with
        primitive value 1 there.
        """
        if v == "inf":
            return all(chi.parity() == 1
                       for chi in self.coordinate_characters)
        v = int(v)
        prims = [chi.primitive() for chi in self.coordinate_characters]
        return all(chi.conductor % v and chi(v) == 0 for chi in prims)

    def dirichlet(self, chi):
        """The Dirichlet character mod f attached to an abstract character.

        chi is the product of the coordinate characters psi_j to the powers
        t_j of its label, so for chi of order n its exponent of zeta_n at a
        unit a is sum_j t_j (n / d_j) psi_j(a) mod n.  When chi is a
        coordinate character psi_j mod f itself, that is psi_j, the same
        object with its conductor and value classes already read.
        """
        if not any(chi.exponents):
            return self._principal_character
        if sum(chi.exponents) == 1:       # labels are >= 0: a unit vector
            psi = self.coordinate_characters[chi.exponents.index(1)]
            if psi.modulus == self.modulus:
                return psi
        n = chi.order()
        vals = list(self._principal_character.values)
        for t, d, psi in zip(chi.exponents, self.group.invariant_factors,
                             self.coordinate_characters):
            if t:
                w, m = t * n // d, psi.modulus
                for a, x in enumerate(vals):
                    if x is not None:
                        vals[a] = (x + w * psi.values[a % m]) % n
        return DirichletChar(self.modulus, n, vals)

    @cached_property
    def _principal_character(self):
        """The principal character mod f, built on first use and kept: the
        trivial character of G, whose values every product in `dirichlet`
        starts from.  It keeps the non-units None also when G is trivial."""
        vals = [0] * self.modulus
        for p in factorint(self.modulus):
            vals[::p] = [None] * len(vals[::p])
        return DirichletChar(self.modulus, 1, vals)

    def __repr__(self):
        return f"AbelianFieldRealization({self.label})"


# -- leading terms -----------------------------------------------------------

class LeadingTerm(NamedTuple):
    """lim_{s->0} s^-order L_{S,T}(chi, s), from `l_jet`: `value` is an
    exact Fraction for a real character at order 0, and otherwise a
    certified ball, a complex one (CBall) for a complex character; `params`
    holds the N, B and precision of the Hurwitz sums (only the precision
    when none was needed)."""
    order: int
    value: object
    params: dict


class _Plan(NamedTuple):
    """What the precision fixes for `hurwitz_jet` (`_plan`)."""
    N: int              # main-sum terms
    B: int              # Bernoulli corrections
    spread: Ball        # the remainder bound r_1, as the ball [-r_1, r_1]
    beta: tuple         # (a, d): beta_j = a[j - 1] / d for j = 1..B
    # the midpoint table (H, D, exps, rads) of `_midpoint_series`
    H: tuple
    D: int
    exps: tuple
    rads: tuple


@lru_cache(maxsize=8)
def _plan(prec):
    """The Euler-Maclaurin plan of `hurwitz_jet` at prec >= 53 bits.

    N = max(16, (prec + 32) // 8) main-sum terms, sized to what a class jet
    costs (about N product steps and M/2 power-sum steps per mirror pair,
    and a larger N shortens the series M little), and the least
    B >= prec // 5 Bernoulli corrections whose remainder bound r_1
    (`_tail_radius`) is at most 2^-(prec + 20):

        prec  53  80  128  160  256  512
        N     16  16  20   24   36   68
        B     10  16  28   35   56   111

    The corrections are beta_j = B_2j / (2j (2j - 1)) for j = 1..B, the
    coefficients of s in B_2j / (2j)! s (s + 1) ... (s + 2j - 2), kept as
    integers a over one denominator d, from which the midpoint table is
    built (`_midpoint_series`).

    The `lru_cache` key is prec.  A process works at a few precisions: one
    pass over the benchmark pools asks for c_1 at 128 bits alone (`acnf`)
    and at 80, 128 and 160 bits (`rubin_stark`), so each plan is built once
    per precision and process.
    """
    N, B = max(16, (prec + 32) // 8), prec // 5
    with working_precision(prec):
        while True:
            spread = _tail_radius(N, B)
            if spread.rad() <= Fraction(2) ** -(prec + 20):
                break
            B += 1
        beta = [bernoulli(2 * j) / (2 * j * (2 * j - 1))
                for j in range(1, B + 1)]
        d = lcm(*(c.denominator for c in beta))
        a = tuple(int(c * d) for c in beta)
        return _Plan(N, B, spread, (a, d), *_midpoint_series(N, a, d, prec))


def _tail_radius(N, B):
    """The Euler-Maclaurin remainder bound of c_1 at the cutoffs N and B
    as the ball [-r_1, r_1], rounded up once: r_1 = |B_2B| / (2B)! (2B - 1)!
    N^(1 - 2B) / (2B - 1), where (2B - 1)! is the coefficient of s in
    s (s + 1) ... (s + 2B - 1).  It does not depend on x in (0, 1]."""
    a_exp = 2 * B - 1
    bound = (Ball(N) ** (-a_exp) * Fraction(1, a_exp)
             * factorial(a_exp)).endpoints()[1]
    return Ball(0, abs(bernoulli(2 * B)) / factorial(2 * B) * abs(bound))


def _midpoint_series(N, a, d, prec):
    """The tail of a first-order jet about the midpoint N' = N + 1/2, as a
    power series in v: with w = N' (1 + v) and beta_j = a[j - 1] / d =
    B_2j / (2j (2j - 1)) for j = 1..B, the s^1 correction row of `_plan`,

        h(v) = (N' (1 + v) - 1/2) log(1 + v)
               + sum_{j <= B} beta_j (N' (1 + v))^(1 - 2j)

    is sum_k eta_k v^k.  Returns (H, D, exps, rads): eta_k = H[k] / D for
    k = 0..M, in integers, and for each k a bound 2^-exps[k] on the terms
    of one residue past k at |v| <= 1/(2N + 1), with rads[k] the ball
    [-2^-exps[k], 2^-exps[k]].

    Past M the bound is Cauchy's on |v| = 3/4.  There |log(1 + v)| <=
    log 4 < 7/5, |N' (1 + v) - 1/2| <= 7N'/4 + 1/2 and |1 + v| >= 1/4, so
    |h| <= H' = (7N'/4 + 1/2) 7/5 + sum_j |beta_j| (4/N')^(2j - 1),
    |eta_k| <= H' (4/3)^k, and the terms past M sum to at most
    H' rho^(M+1) / (1 - rho) for rho = 4/(3 (2N + 1)); M is the first k
    that puts this below 2^-(prec + 64).  Up to M the bound adds the exact
    |eta_i| (2N + 1)^-i.  A class of fewer than 2^40 residues thus reaches
    the 2^-(prec + 24) that `hurwitz_jet` asks of it.
    """
    B = len(a)
    T = 2 * N + 1  # N' = T / 2
    Tb = d * T ** (2 * B - 1)
    # the bound past M in integers, P 4^M / (Q (3T)^M): H' rho / (1 - rho)
    # = H' 4 / (3T - 4), and H' over the denominator 40 Tb
    P = 4 * (7 * (7 * T + 4) * Tb + 40 * sum(
        abs(c) * 8 ** (2 * j - 1) * T ** (2 * B - 2 * j)
        for j, c in enumerate(a, 1)))
    Q = 40 * Tb * (3 * T - 4)
    M, num, den = 0, P << (prec + 64), Q
    while num > den:
        num <<= 2
        den *= 3 * T
        M += 1
    D = lcm(2 * lcm(*range(1, M + 1)), Tb)
    # (-1)^k eta_k D is the sum over j of a[j - 1] 2^(2j - 1) (D / Tb)
    # T^(2B - 2j) binomial(2j - 2 + k, k), from (N' (1 + v))^(1 - 2j) =
    # (2/T)^(2j - 1) (1 + v)^(1 - 2j), by Horner in T^2; less N D / k from
    # k >= 1 and plus T D / (2 (k - 1)) from k >= 2, from
    # (N + N' v) log(1 + v)
    H = []
    for k in range(M + 1):
        acc = 0
        for j, c in enumerate(a, 1):
            acc = acc * T * T + (c * comb(2 * j - 2 + k, k) << (2 * j - 1))
        h = acc * (D // Tb)
        if k:
            h -= N * (D // k)
        if k > 1:
            h += T * (D // (2 * k - 2))
        H.append(-h if k % 2 else h)
    # rest = n / W, W = Q (3T)^M D, from the bound past M down to k = 0
    W = Q * 3 ** M * D * T ** M
    n, scale = P * 4 ** M * D, Q * 3 ** M
    exps = []
    for k in range(M, -1, -1):
        # the largest e with n / W <= 2^-e: bit lengths put it at e or
        # e - 1
        e = W.bit_length() - n.bit_length()
        fits = n << e <= W if e >= 0 else n <= W << -e
        exps.append(e if fits else e - 1)
        n += abs(H[k]) * scale
        scale *= T
    exps.reverse()
    rads = tuple(Ball(0, Fraction(2) ** -e) for e in exps)
    return tuple(H), D, tuple(exps), rads


def _floor_precision(name):
    """The working precision, which the L engine needs to be at least 53
    bits: below that raises `PrecisionError`, an `Undecided` with radius
    2^-prec."""
    prec = precision()
    if prec < 53:
        raise PrecisionError(
            f"{name} needs at least 53 bits of precision, got {prec}",
            Fraction(2) ** -prec)
    return prec


def hurwitz_jet(f, residues):
    """c_1, the derivative at s = 0 of sum_{a in residues} zeta_H(s, a/f),
    as a certified ball, for a class of residues in 1..f - 1 that is
    closed under a -> f - a, with no repeats and no a = f/2, else
    InputError: every class of an even character mod f > 2 is one.  The
    value at 0, sum (1/2 - a/f), is exactly 0.

    Euler-Maclaurin with N terms and B Bernoulli corrections sized from
    the certified tail; the precision's `_plan` holds them with the tail
    bound and the midpoint table.  The tail is expanded about the midpoint
    N' = N + 1/2: with C the residues, w_a = N + a/f = N' (1 + v_a),
    v_a = d_a / X for the offset d_a = 2a - f and X = (2N + 1) f, so
    |v_a| <= 1/(2N + 1), prod the product of all n f + a for n < N and a
    in C, and h the series of the plan's midpoint table
    (`_midpoint_series`, so that (w_a - 1/2) log w_a plus the Bernoulli
    corrections at w_a is (w_a - 1/2) log N' + h(v_a)), the value is
    exactly

        c_1 = N |C| log f - log prod + (sum_a (w_a - 1/2)) log N'
              + sum_k eta_k sum_a v_a^k - sum_a w_a

    up to |C| times the tail bound.  As the offsets sum to 0, sum_a
    (w_a - 1/2) = N |C|, and the logs are regrouped as N |C| log X -
    N |C| log 2, so the large coefficient N |C| falls on log X and log 2.
    A residue a < f/2 is taken with its mirror f - a: the pair's main-sum
    factors are (n f + a)(n f + f - a) = ((2n + 1)^2 f^2 - d_a^2) / 4, one
    per n, its offsets are d_a and -d_a, so the odd power sums cancel and
    are never formed, and the even ones come from one run of powers of
    d_a^2.  The series is cut at the first M whose truncation bound, times
    |C|, is below 2^-(prec + 24) and enters the radius.  The logs of X and
    2 (`ball_log_int`) and of prod (`ball_log_prod`, from a trimmed
    product) are taken with bit_length(N |C|) guard bits, as their
    coefficients are up to N |C| times as large as c_1; the rest is one
    exact rational.  So c_1 is one combination with integer coefficients
    over 2f, summed exactly and rounded once (`ball_combination`), and a
    class of any size makes two `ball_log_int` calls.  The precision must
    be at least 53 bits: below that it raises `PrecisionError`, an
    `Undecided` with radius 2^-prec.  The units mod f (phi(f) residues
    whose gcds with f make the set {1}) have c_1 = -Lambda(f)/2 in closed
    form, as their sum is f^s zeta(s) prod_{p | f} (1 - p^-s): -log(p)/2
    when f = p^k, else an exact Ball(0).  The class must equal its own
    image under a -> f - a, a test on sets.
    """
    prec = _floor_precision("hurwitz_jet")
    distinct = set(residues)
    if not residues or len(distinct) < len(residues) \
            or min(residues) < 1 or max(residues) >= f \
            or f % 2 == 0 and f // 2 in distinct \
            or distinct != {f - a for a in distinct}:
        raise InputError(
            f"residues must be a nonempty class in 1..{f - 1}, closed under "
            f"a -> {f} - a, with no repeats and no a = {f}/2")
    primes = factorint(f)
    if len(residues) == f // prod(primes) * prod(p - 1 for p in primes) \
            and set(map(gcd, repeat(f), distinct)) == {1}:
        return Ball(0) if len(primes) > 1 else -ball_log_int(min(primes)) / 2
    plan = _plan(prec)
    N = plan.N
    size = len(residues)
    total_wn = N * f * size + sum(residues)
    # the mirror pairs, each by its a < f - a
    pairs = [a for a in residues if 2 * a < f]
    squares = [(n * f) ** 2 for n in range(1, 2 * N, 2)]
    factors = [prod(map(sub, squares, repeat((f - 2 * a) ** 2))) >> 2 * N
               for a in pairs]
    X = (2 * N + 1) * f
    with working_precision(prec + (N * size).bit_length()):
        logs = (ball_log_int(X), ball_log_int(2), ball_log_prod(factors))
    # sum_a h(v_a) = sum_k eta_k P_k / X^k, P_k = sum_a d_a^k, is
    # sum_k H[k] P_k X^(M - k) over Q = D X^M, by Horner in X; a pair
    # adds 2 d^2m to P_2m, and the odd P_k are 0
    exps = plan.exps
    M = min(bisect_left(exps, prec + 24 + size.bit_length()), len(exps) - 1)
    P = [0] * (M + 1)
    P[::2] = [2 * p for p in _power_sums(
        [(f - 2 * a) ** 2 for a in pairs], M // 2)]
    tail = 0
    for h, p in zip(plan.H, P):
        tail = tail * X + h * p
    Q = plan.D * X ** M
    return ball_combination(
        (2 * f * N * size, -2 * f * N * size, -2 * f,
         2 * f * size, 2 * f * size),
        logs + (plan.spread, plan.rads[M]), 2 * f,
        (tail - total_wn * (Q // f), Q))


def _power_sums(xs, m):
    """[sum x^0, sum x^1, ..., sum x^m] over the integers xs, one power of
    all of them at a time."""
    sums, powers = [], [1] * len(xs)
    for _ in range(m + 1):
        sums.append(sum(powers))
        powers = list(map(mul, powers, xs))
    return sums


class LSpec:
    """Evaluation request for the leading term of an S-truncated,
    T-modified Dirichlet L-series at s = 0."""

    __slots__ = ("char", "S", "T")

    def __init__(self, char, S, T=()):
        self.char = char
        self.S = _normalize_places(S)
        self.T = _normalize_primes(T)
        prim = char.primitive()
        ram = set(factorint(prim.conductor))
        fin = {v for v in self.S if v != "inf"}
        if "inf" not in self.S:
            raise InputError("S must contain the infinite place")
        if not ram <= fin:
            raise InputError(f"S must contain the ramified primes {sorted(ram)}")
        if fin & set(self.T):
            raise InputError("S and T must be disjoint")


def theoretical_order(char, S):
    """The exact order of vanishing of L_{S,T}(chi, s) at s = 0.

    Primitive part contributes 1 for even nontrivial characters and 0
    otherwise; each finite q in S away from the conductor with chi(q) = 1
    contributes one more (its removed Euler factor vanishes at 0).  The
    T-factors (1 - chi(q) q^{1-s}) never vanish at 0.
    """
    prim = char.primitive()
    base = 1 if (prim.conductor > 1 and prim.parity() == 1) else 0
    count = 0
    for v in S:
        if v == "inf" or prim.conductor % v == 0:
            continue
        if prim(v) == 0:  # exponent 0: chi(v) = 1
            count += 1
    return base + count


def l_jet(spec):
    """The certified leading term lim_{s->0} s^-r L_{Q,S,T}(chi, s) at the
    order of vanishing r, as a `LeadingTerm`.

    The value is the primitive leading term (`_primitive_leading`, from
    c_1 of the units mod f and of each class where chi is not 1), then,
    multiplied in one at a time in this order, the factor of each finite q
    in S off the conductor, in S order, and of each q in T
    (`_euler_factors`): log q (`ball_log_int`) for an S-prime with
    chi(q) = 1, whose Euler factor 1 - q^-s vanishes at 0 to first order,
    and otherwise 1 - chi(q) or 1 - chi(q) q, exact for a real chi and a
    certified CBall for a complex one.  The leading term must certify
    nonzero: an exact zero is a CertificationError, a ball that contains
    zero an UnresolvedOrderError, which is `Undecided`.  The 53-bit floor
    of `hurwitz_jet` holds here too, with or without a Hurwitz sum.
    """
    prec = _floor_precision("l_jet")
    chi = spec.char.primitive()
    r = theoretical_order(spec.char, spec.S)
    value, params = _primitive_leading(chi, prec)
    for factor in _euler_factors(chi, spec.S, spec.T):
        value = value * factor
    if not isinstance(value, (Ball, CBall)):
        if value == 0:
            raise CertificationError(
                f"theoretical order {r} contradicted: the exact leading "
                f"coefficient is 0")
    elif not value.is_nonzero():
        raise UnresolvedOrderError(
            f"cannot certify the leading coefficient at order {r} "
            f"(radius too large at {prec} bits)", value.rad())
    return LeadingTerm(r, value, params)


def _primitive_leading(chi, prec):
    """(leading term, params) of L(chi, s) = f^-s sum_a chi(a)
    zeta_H(s, a/f) at s = 0, for a primitive chi mod f: -B_{1,chi} at
    order 0 (`_minus_b1`), or, for an even nontrivial chi, whose L-value
    at 0 vanishes, the derivative c_1(U) + sum_{t != 0} (zeta_n^t - 1)
    c_1(class t), U the units mod f, whose c_1 less the others' is
    c_1(class 0): U's first, then the classes in class order (`_add_times`)."""
    if chi.conductor == 1 or chi.parity() == -1:
        return _minus_b1(chi), {"prec": prec}
    f = chi.conductor
    classes = chi.classes  # class 0, holding 1, first
    value = hurwitz_jet(f, sorted(a for _t, res in classes for a in res))
    for t, residues in classes[1:]:
        value = _add_times(value, chi.value(t) - 1, hurwitz_jet(f, residues))
    plan = _plan(prec)
    return value, {"N": plan.N, "B": plan.B, "prec": prec}


def _euler_factors(chi, S, T):
    """The leading terms at s = 0 of the Euler factors that S and T remove
    from L(chi, s), for a primitive chi: for each finite q in S off the
    conductor, in S order, log q (`ball_log_int`) where chi(q) = 1, as
    1 - q^-s vanishes there to first order, and 1 - chi(q) elsewhere; then
    1 - chi(q) q for each q in T.  The log is keyed on the exponent
    chi(q) = 0, not on the value, as a complex value 1 - zeta_n^0 is a
    ball, which never compares equal to 0."""
    f = chi.conductor
    for q in S:
        if q != "inf" and f % q:
            t = chi(q)
            yield ball_log_int(q) if t == 0 else 1 - chi.value(t)
    for q in T:
        yield 1 - chi.value(chi(q)) * q


def _minus_b1(chi):
    """-B_{1,chi} = sum_a chi(a) (f - 2a) / 2f for a primitive chi mod f
    (zeta(0) = -1/2 when f = 1): one integer sum per power of zeta_n, each
    divided once, so exact for a real chi and a certified CBall for a
    complex one."""
    f = chi.conductor
    return sum(chi.value(t) * Fraction(f * len(res) - 2 * sum(res), 2 * f)
               for t, res in chi.classes)


def _add_times(acc, w, x):
    """acc + w x for a weight w built from `_zeta`'s values: +-1 add or
    subtract x."""
    if w == 1:
        return acc + x
    if w == -1:
        return acc - x
    return acc + w * x


def bernoulli_value(char, S, T=()):
    """L_{S,T}(chi, 0) when the order of vanishing is zero: a Fraction,
    exactly, for a real chi (order <= 2), and a certified CBall for a
    complex one.

    Computed as -B_{1,chi} for the primitive core (`_minus_b1`) times the
    removed Euler factors (1 - chi(q)) for q in S and (1 - chi(q) q) for q
    in T (`_euler_factors`).  Raises WrongOrderError at positive order.
    """
    S = _normalize_places(S)
    T = _normalize_primes(T)
    r = theoretical_order(char, S)
    if r != 0:
        raise WrongOrderError(f"order of vanishing is {r}, not 0")
    chi = char.primitive()
    value = _minus_b1(chi)
    for factor in _euler_factors(chi, S, T):
        value = value * factor
    return value


# -- group-ring elements from L-values ---------------------------------------

def stickelberger_element(datum):
    """The group-ring element whose chi-component is
    lim_{s->0} s^{-|V|} L_{S,T}(chi^{-1}, s) for a `numfld.RubinDatum`.

    At |V| = 0 it is exact, the image in Q[G] of the Stickelberger sum

        sum_{a in (Z/f)^x, 1 <= a <= f} (1/2 - a/f) sigma_a^-1
          * prod_{q in S finite, q not dividing f} (1 - sigma_q^-1)
          * prod_{t in T} (1 - t sigma_t^-1)

    (Washington, GTM 83, section 6.2; Tate, ch. IV) for f the conductor
    of the field, the lcm of its coordinate characters' conductors
    (`_stickelberger_sum`).  Otherwise its coefficients are certified real
    balls assembled from each character's `l_jet`, and the components of
    characters vanishing beyond order |V| are exact zeros.
    """
    realization, S, V, T = datum.realization, datum.S, datum.V, datum.T
    if not V:
        return _stickelberger_sum(realization, S, T)
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
        else:
            components[chi.exponents] = l_jet(LSpec(chid, S, T)).value
    return _assemble_ball(group, components)


def _stickelberger_sum(realization, S, T):
    """theta_{S,T} at s = 0 by the sum of `stickelberger_element`: summed
    over the units mod f, chi^-1 of conductor f' gives -B_{1,chi^-1} times
    1 - chi^-1(q) for each q | f off f'.  sigma_a is read off the primitive
    coordinate characters, so a modulus with a prime unramified in K needs
    no lift.  For f > 2, sigma_{f-a} = sigma_-1 sigma_a makes the sum
    (1 - sigma_-1) times its half over a < f/2, and 0 for real K."""
    group = realization.group
    prims = [psi.primitive() for psi in realization.coordinate_characters]
    f = lcm(*(chi.modulus for chi in prims))
    if not prims:
        index, u, steps = [0], [-1], []
    else:
        # index[a]: the position of sigma_a in group.elements, whose
        # mixed radix runs fastest in the last coordinate; None off the units
        *rest, last = prims
        index, stride = last.values * (f // last.modulus), last.order
        for chi in reversed(rest):
            index = [None if i is None or t is None else i + t * stride
                     for i, t in zip(index, chi.values * (f // chi.modulus))]
            stride *= chi.order
        if index[f - 1] == 0:
            return GroupRingElement.zero(group, "rat")
        half = [0] * group.order
        for a, i in enumerate(index[1:(f + 1) // 2], 1):
            if i is not None:
                half[i] += f - 2 * a
        u = [half[group.index[group.inv(g)]] for g in group.elements]
        steps = [(1, index[f - 1])]
    # times 1 - x sigma_q^-1: the coefficient of g gains -x that of g sigma_q
    steps += [(1, index[q % f]) for q in S if q != "inf" and f % q]
    steps += [(t, index[t % f]) for t in T]
    table = group.multiplication_table()
    for x, k in steps:
        u = [c - x * u[row[k]] for c, row in zip(u, table)]
    return GroupRingElement(group, "rat", [Fraction(c, 2 * f) for c in u])


def _assemble_ball(group, components):
    """The ball element sum_chi L*(chi^-1) e_chi: the coefficient of sigma
    is sum_chi chi(sigma^-1) L*(chi^-1) / |G|, summed as
    `_primitive_leading` sums its classes (`_add_times`), with the weights
    chi(sigma^-1) from `_zeta`, +-1 when every character is real and
    certified roots of unity otherwise, whose sum must certify real."""
    e = group.exponent
    coeffs = []
    for sigma in group.elements:
        total = 0
        for chi in group.all_characters():
            t = chi.value_exponent(sigma)
            total = _add_times(total, _zeta(-t, e), components[chi.exponents])
        if isinstance(total, CBall):
            total = total.real_part_certified()
        coeffs.append(total * Fraction(1, group.order))
    return GroupRingElement(group, "ball", coeffs)
