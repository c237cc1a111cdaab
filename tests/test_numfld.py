import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starklab.ball import CertificationError, working_precision
from starklab.finite import GroupStructure
from starklab.grpring import AbelianGroup, InputError
from starklab import numfld
from starklab.hnf import IntLattice, diagonalize_relations, \
    identity_matrix, kernel, mat_mul
from starklab.lfun import DirichletChar, bernoulli_value
from starklab.numfld import (QQ, ClassGroup, DatumError, QuadElt, QuadField,
                             QuadIdeal, ResidueSystem, RubinDatum,
                             SUnitLattice, class_number, compose_abc,
                             form_cycle, fundamental_discriminant,
                             fundamental_unit,
                             is_fundamental_discriminant, kronecker,
                             log_abs_at_place, ord_at_place, ray_class,
                             reduce_form, reduced_forms,
                             s_unit_lattice, squarefree_part, unit_norm,
                             _check_torsion_killed, _is_reduced_indef,
                             _is_reduced_neg, _module_from_relations,
                             _principal_generator,
                             _principal_relations, _s_class_number)
from starklab.verify import Scenario, field_of
from starklab.zideal import annihilator

SPEC_Q, SPEC_Q5 = {"type": "Q"}, {"type": "quad", "disc": 5}


def _on_datum(call, spec):
    """call(field, S, T) on the datum of S and T, with V empty, over the
    field of the scenario `field` object `spec`: the way places reach
    s_unit_lattice and ray_class, which read them as they are."""
    def run(S, T):
        datum = RubinDatum.of(*field_of(spec), S, [], T)
        return call(datum.field, datum.S, datum.T)
    return run


def omega(F):
    """The standard integral generator of F: (1 + sqrt m)/2 for m = 1 mod 4,
    else sqrt m."""
    return F.element(1, 1) / 2 if F.m % 4 == 1 else F.element(0, 1)


def finite_valuations(L, x):
    """x's valuations at the finite places of the S-unit lattice L."""
    return [ord_at_place(x, w) for w in L.places if w.kind == "finite"]


def narrow_class_number(D):
    """Narrow class number of the real quadratic field of discriminant D."""
    assert D > 0
    return ClassGroup(D).h_plus


def test_kronecker_against_residue_oracle():
    for q in [3, 5, 7, 11, 13]:
        for a in range(-30, 31):
            if a % q == 0:
                assert kronecker(a, q) == 0
            else:
                qr = any((x * x - a) % q == 0 for x in range(q))
                assert kronecker(a, q) == (1 if qr else -1)
    # multiplicativity in the lower argument
    rng = random.Random(1)
    for _ in range(100):
        a, n1, n2 = rng.randint(-30, 30), rng.randint(1, 30), rng.randint(1, 30)
        assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)


def test_discriminants():
    assert squarefree_part(12) == 3 and squarefree_part(-18) == -2
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(-1) == -4
    assert is_fundamental_discriminant(-23)
    assert not is_fundamental_discriminant(20)
    with pytest.raises(InputError):
        QuadField(20)
    with pytest.raises(InputError):
        fundamental_discriminant(4)


def test_fundamental_units_known_values():
    F5 = QuadField(5)
    assert fundamental_unit(5) == F5.element(Fraction(1, 2), Fraction(1, 2))
    assert fundamental_unit(8) == QuadField(8).element(1, 1)
    assert fundamental_unit(12) == QuadField(12).element(2, 1)
    assert unit_norm(12) == 1 and unit_norm(8) == -1
    assert fundamental_unit(13) == QuadField(13).element(
        Fraction(3, 2), Fraction(1, 2))
    assert fundamental_unit(61) == QuadField(61).element(
        Fraction(39, 2), Fraction(5, 2))
    assert fundamental_unit(376) == QuadField(376).element(2143295, 221064)


def test_fundamental_unit_is_minimal():
    # brute-force oracle for small D: no unit > 1 smaller than eps
    for D in [5, 8, 12, 13, 17, 21, 24, 28, 29, 33]:
        F = QuadField(D)
        eps = fundamental_unit(D)
        w = omega(F)
        best = None
        for x in range(-60, 61):
            for y in range(-60, 61):
                if y == 0 and x in (-1, 0, 1):
                    continue
                u = F.element(x, 0) + w * y
                if abs(u.norm()) == 1 and u.compare_zero() > 0 \
                        and u.abs_greater_one():
                    if best is None or (best - u).compare_zero() > 0:
                        best = u
        assert best is not None and best == eps, D


def _unit_by_quadelt_continued_fraction(D):
    """The fundamental unit by the continued fraction of omega in QuadElt
    arithmetic: the first convergent p/q with p - q conj(omega) of norm
    +-1, brought to the unit > 1."""
    F = QuadField(D)
    P, Q = (1, 2) if F.m % 4 == 1 else (0, 1)
    sq = math.isqrt(F.m)
    a = (P + sq) // Q
    p_prev, p_cur, q_prev, q_cur = 1, a, 0, 1
    w_conj = omega(F).conjugate()
    while True:
        cand = F.element(p_cur) - w_conj * q_cur
        if abs(cand.norm()) == 1:
            if cand.compare_zero() < 0:
                cand = -cand
            if not cand.abs_greater_one():
                cand = cand.inverse()
                if cand.compare_zero() < 0:
                    cand = -cand
            return cand
        P = a * Q - P
        Q = (F.m - P * P) // Q
        a = (P + sq) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def test_fundamental_unit_is_the_quadelt_continued_fraction():
    # the integer norm test against QuadElt arithmetic, D < 5000
    for D in range(5, 5000):
        if is_fundamental_discriminant(D):
            assert fundamental_unit(D) == \
                _unit_by_quadelt_continued_fraction(D), D


def _reduced_forms_by_candidates(D):
    """The reduced primitive forms of discriminant D: for each b and each
    divisor a <= sqrt(|ac|), the eight candidates (A, +-b, ac/A) with
    A in {+-a, +-ac/a}, kept when reduced and primitive."""
    if D > 0:
        hi = math.isqrt(D)
        reduced = lambda f: _is_reduced_indef(f, hi, D)
    else:
        hi = math.isqrt(-D // 3)
        reduced = lambda f: _is_reduced_neg(*f)
    out = set()
    for b in range(D % 2, hi + 1, 2):
        ac = (b * b - D) // 4
        for a in range(max(b, 1) if D < 0 else 1, math.isqrt(abs(ac)) + 1):
            if ac % a == 0:
                for A in (a, -a, ac // a, -ac // a):
                    for f in ((A, b, ac // A), (A, -b, ac // A)):
                        if reduced(f) and math.gcd(*f) == 1:
                            out.add(f)
    return sorted(out)


def test_reduced_forms_are_the_candidate_enumeration():
    # one divisor-pair pass against the eight-candidate filter, for every
    # fundamental 0 < |D| < 5000
    for D in range(-4999, 5000):
        if D not in (0, 1) and is_fundamental_discriminant(D):
            assert reduced_forms(D) == _reduced_forms_by_candidates(D), D


def test_class_numbers_against_tables():
    known_neg = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2,
                 -23: 3, -24: 2, -31: 3, -39: 4, -47: 5, -71: 7, -95: 8,
                 -163: 1, -231: 12}
    for D, h in known_neg.items():
        assert class_number(D) == h, D
    known_pos = {5: 1, 8: 1, 12: 1, 13: 1, 40: 2, 60: 2, 65: 2, 229: 3,
                 145: 4, 401: 5, 469: 3}
    for D, h in known_pos.items():
        assert class_number(D) == h, D
    assert narrow_class_number(12) == 2  # N(eps) = +1 doubles the count
    assert narrow_class_number(5) == 1
    for D, factors in [(-23, [3]), (-84, [2, 2])]:  # -84: Klein group
        cg = ClassGroup(D).structure
        assert diagonalize_relations(cg.relation_rows,
                                     len(cg.leaders))[0] == factors


def test_splitting_against_factorization_oracle():
    for D in [5, 8, -4, -23, 12, -84, 17]:
        F = QuadField(D)
        m = F.m
        # minimal polynomial of the integral generator
        if m % 4 == 1:
            poly = lambda x: x * x - x + (1 - m) // 4
        else:
            poly = lambda x: x * x - m
        for q in sympy.primerange(2, 100):
            roots = sorted(x for x in range(q) if poly(x) % q == 0)
            kind = F.splitting(q)
            if len(roots) == 2:
                assert kind == "split", (D, q)
            elif len(roots) == 0:
                assert kind == "inert", (D, q)
            else:
                # single root: ramified exactly when it is a double root
                x = roots[0]
                double = (2 * x - (1 if m % 4 == 1 else 0)) % q == 0
                assert kind == ("ramified" if double else "split"), (D, q)


def test_ideals_and_generators():
    Fm23 = QuadField(-23)
    p23 = QuadIdeal.prime_over(Fm23, 23)
    g = p23.principal_generator()
    assert g is not None and abs(g.norm()) == 23
    p2 = QuadIdeal.prime_over(Fm23, 2)
    assert p2.principal_generator() is None  # class of order 3
    g8 = _principal_generator(Fm23, [p2], [3])
    assert g8 is not None and abs(g8.norm()) == 8
    F5 = QuadField(5)
    p5 = QuadIdeal.prime_over(F5, 5)
    g5 = p5.principal_generator()
    assert abs(g5.norm()) == 5


def test_valuations_and_product_formula():
    F5 = QuadField(5)
    split = F5.places(11)
    assert len(split) == 2
    # built once and shared, so no caller can change another's places
    assert isinstance(split, tuple) and F5.places(11) is split
    pi = F5.element(Fraction(7, 2), Fraction(1, 2))  # norm 11
    vals = sorted(ord_at_place(pi, w) for w in split)
    assert vals == [0, 1]
    assert ord_at_place(pi.conjugate(), split[0]) == ord_at_place(pi, split[1])
    ram = F5.places(5)[0]
    assert ord_at_place(F5.element(0, 1), ram) == 1
    assert ord_at_place(F5.element(5), ram) == 2
    inert = QuadField(8).places(3)[0]
    assert inert.nw() == 9
    assert ord_at_place(QuadField(8).element(3), inert) == 1
    # split prime 2 (D = 17): distinguish the two places 2-adically
    F17 = QuadField(17)
    two = F17.places(2)
    x = (F17.element(1) + F17.element(0, 1)) * Fraction(1, 2)  # norm -4
    assert sorted(ord_at_place(x, w) for w in two) == [0, 2]
    # product formula over all places
    with working_precision(100):
        for D, coords in [(5, (Fraction(7, 2), Fraction(1, 2))), (8, (1, 1)),
                          (-23, (3, 1)),
                          (17, (Fraction(1, 2), Fraction(1, 2)))]:
            F = QuadField(D)
            x = F.element(*coords)
            n = x.norm()
            primes = sorted(set(
                list(sympy.factorint(abs(n.numerator)))
                + list(sympy.factorint(n.denominator))
                + F.ramified_primes()))
            total = None
            for v in ["inf"] + primes:
                for w in F.places(v):
                    term = log_abs_at_place(x, w)
                    total = term if total is None else total + term
            assert total.contains_zero() and total.rad() < Fraction(1, 2 ** 60)


def test_s_unit_lattices():
    L = s_unit_lattice(QQ, ["inf", 2], [5])
    assert L.rank == 1 and L.gens == [Fraction(2)]
    assert L.sigma_matrix == [[1]] and L.sigma_matrices() == []
    assert L.t_sublattice.index() == 2
    # the datum checks S and T, once, and the lattice reads them: (H3) in
    # Scenario.validate_datum, and the shape in RubinDatum.of
    for spec, S, T in ((SPEC_Q, ["inf"], []),
                       (SPEC_Q5, ["inf", 5], [2])):  # (H3): -1 = 1 mod 2
        with pytest.raises(DatumError):
            Scenario({"field": spec, "S": S, "T": T}).validate_datum()
    with pytest.raises(InputError, match="ramified primes"):  # 5 missing
        _on_datum(s_unit_lattice, SPEC_Q5)(["inf"], [3])
    L5 = s_unit_lattice(QuadField(5), ["inf", 5], [3])
    assert L5.rank == 2 and L5.t_sublattice.index() == 4
    assert mat_mul(L5.sigma_matrix, L5.sigma_matrix) == identity_matrix(2)
    L5.log_matrix()  # row sums certified zero internally
    L12 = s_unit_lattice(QuadField(12), ["inf", 2, 3], [5])
    assert L12.rank == 3 and L12.t_sublattice.index() == 12
    Li = s_unit_lattice(QuadField(-4), ["inf", 2], [5])
    assert Li.rank == 1 and abs(Li.gens[0].norm()) == 2
    # rank = |S_K| - 1 on a split-prime scenario
    L57 = s_unit_lattice(QuadField(5), ["inf", 5, 11], [3])
    assert L57.rank == 4  # places: 2 arch + 1 ram + 2 split - 1


def _h3_place_by_place(field, T):
    """(H3) read place by place, the oracle of `_check_torsion_killed`:
    DatumError, with its messages, unless each root of unity zeta != 1 has
    zeta - 1 a unit at some place above T."""
    if not T:
        raise DatumError("T empty: torsion units survive")
    for zeta in field.torsion_units():
        if zeta == 1:
            continue
        x = zeta - 1
        if not any(x.numerator % w.q != 0 if isinstance(x, Fraction)
                   else ord_at_place(x, w) == 0
                   for q in T for w in field.places(q)):
            raise DatumError(
                f"(H3) fails: {zeta} = 1 at every place above T={list(T)}")


def _h3_outcome(rule, field, T):
    try:
        rule(field, T)
    except DatumError as exc:
        return str(exc)
    return None


def test_h3_by_norms_matches_the_rule_place_by_place():
    # a root of unity zeta != 1 is 1 at every place above q exactly when
    # q | N(zeta - 1); T is empty, one prime <= 31 or two primes <= 13, on
    # Q and every quadratic field with |D| <= 400, Q(i) and Q(sqrt -3) too
    fields = [QQ] + [QuadField(D) for D in range(-400, 401)
                     if is_fundamental_discriminant(D)]
    Ts = ([()] + [(q,) for q in sympy.primerange(2, 32)]
          + list(itertools.combinations(sympy.primerange(2, 14), 2)))
    failed = 0
    for F in fields:
        for T in Ts:
            want = _h3_outcome(_h3_place_by_place, F, T)
            assert _h3_outcome(_check_torsion_killed, F, T) == want, (F, T)
            failed += want is not None
    # T empty and T = {2} fail everywhere, and Q(sqrt -3) fails at {3}
    assert (len(fields), len(Ts), failed) == (243, 27, 2 * 243 + 1)


def test_express_roundtrip():
    F5 = QuadField(5)
    L5 = s_unit_lattice(F5, ["inf", 5], [3])
    rng = random.Random(2)
    for _ in range(10):
        coords = [rng.randint(-3, 3) for _ in range(2)]
        tor = rng.randint(0, 1)
        x = F5.element(-1 if tor else 1)
        for g, c in zip(L5.gens, coords):
            x = x * (g ** c)
        got, jtor = L5.express(x, finite_valuations(L5, x))
        assert got == coords and jtor == tor


def _order_factors(F, S, T):
    """(h_S, |R_T / im units|), the two factors of |Cl_{K,S,T}|: the
    classes of the S-places alone, and the unit rows of the (S, T)-unit
    lattice against R_T's relations."""
    L = s_unit_lattice(F, S, T)
    res = L.residues
    return (_s_class_number(F, ClassGroup(F.D), L.S[1:]),
            IntLattice(len(res.leaders),
                       res.relation_rows + L.unit_dlogs).index())


def test_ray_class_modules():
    assert ray_class(QQ, ["inf"], [3]).order() == 1
    rc5 = ray_class(QQ, ["inf"], [5])
    assert rc5.order() == 2
    assert ray_class(QQ, ["inf", 2], [5]).order() == 1
    assert ray_class(QuadField(-4), ["inf", 2], [5]).order() == 1
    assert ray_class(QuadField(5), ["inf", 5], [3]).order() == 1
    assert ray_class(QuadField(12), ["inf", 2, 3], [5]).order() == 1
    F, S, T = QuadField(-23), ["inf", 23], [3]
    m = ray_class(F, S, T)
    assert m.order() == 3 and _order_factors(F, S, T) == (3, 1)
    # inversion action on the class-group part
    assert m.act_by_generator(0, (1,)) == ((-1) % m.orders[0],)
    # its p-ranks, as Scenario reads s_p
    assert [sum(d % p == 0 for d in m.orders) for p in (3, 2)] == [1, 0]
    # order identity asserted internally; spot check another field
    F, S, T = QuadField(-15), ["inf", 3, 5], [7]
    rc15 = ray_class(F, S, T)
    assert rc15.order() == math.prod(_order_factors(F, S, T))
    # a lattice the caller already holds gives the same module
    given_lat = ray_class(F, S, T, lattice=s_unit_lattice(F, S, T))
    assert given_lat.orders == rc15.orders
    assert given_lat.action == rc15.action
    with pytest.raises(InputError):
        ray_class(F, S, [11], lattice=s_unit_lattice(F, S, T))


def test_torsion_units():
    assert QuadField(-4).torsion_generator()[1] == 4
    assert QuadField(-3).torsion_generator()[1] == 6
    assert QuadField(-23).torsion_generator()[1] == 2
    z, w = QuadField(-3).torsion_generator()
    assert (z ** 6) == QuadField(-3).element(1)
    assert not (z ** 3) == QuadField(-3).element(1)


class FracQuadElt:
    """a + b*sqrt(m) with rational a, b kept as two Fractions: the former
    `QuadElt`, the oracle for the integer representation."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        if isinstance(other, FracQuadElt):
            return other
        return FracQuadElt(self.field, Fraction(other), Fraction(0))

    def __add__(self, other):
        o = self._coerce(other)
        return FracQuadElt(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FracQuadElt(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FracQuadElt(self.field, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        m = self.field.m
        return FracQuadElt(self.field, self.a * o.a + m * self.b * o.b,
                           self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conjugate(self):
        return FracQuadElt(self.field, self.a, -self.b)

    def norm(self):
        return self.a * self.a - self.field.m * self.b * self.b

    def trace(self):
        return 2 * self.a

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        return FracQuadElt(self.field, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = FracQuadElt(self.field, Fraction(1), Fraction(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_integral(self):
        return (self.trace().denominator == 1
                and self.norm().denominator == 1)

    def is_rational(self):
        return self.b == 0

    def omega_coords(self):
        w = omega(self.field)
        v = self.b / w.b
        return self.a - v * w.a, v

    def compare_zero(self, conjugate=False):
        a, b = self.a, (-self.b if conjugate else self.b)
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


def _same(x, oracle):
    """x is the oracle's value, in lowest terms with a positive
    denominator."""
    assert isinstance(x, QuadElt)
    assert (x.a, x.b) == (oracle.a, oracle.b)
    assert x.d > 0 and math.gcd(x.A, x.B, x.d) == 1
    assert x == x.field.element(oracle.a, oracle.b)
    assert hash(x) == hash(x.field.element(oracle.a, oracle.b))


QUAD_DISCS = [-4, -3, -23, -84, -163, 5, 8, 12, 13, 17, 229, 376, 997]
_RAT = st.fractions(min_value=-50, max_value=50, max_denominator=36)


@given(st.sampled_from(QUAD_DISCS), _RAT, _RAT, _RAT, _RAT, _RAT,
       st.integers(-20, 20), st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
@example(D=5, a1=Fraction(1, 2), b1=Fraction(1, 2), a2=Fraction(1, 2),
         b2=Fraction(-1, 2), q=Fraction(3, 4), k=0, e=-3)
@example(D=-3, a1=Fraction(-1, 2), b1=Fraction(1, 2), a2=Fraction(0),
         b2=Fraction(0), q=Fraction(1, 6), k=2, e=3)
def test_integer_quad_elements_match_the_fraction_oracle(D, a1, b1, a2, b2,
                                                         q, k, e):
    F = QuadField(D)
    x, y = F.element(a1, b1), F.element(a2, b2)
    ox, oy = FracQuadElt(F, a1, b1), FracQuadElt(F, a2, b2)
    _same(x, ox)
    _same(y, oy)
    for got, want in [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                      (-x, -ox), (x.conjugate(), ox.conjugate()),
                      (x + q, ox + q), (q - x, q - ox), (x * k, ox * k),
                      (q * x, q * ox), (k + x, k + ox), (x - k, ox - k)]:
        _same(got, want)
    assert x.norm() == ox.norm()
    assert x.is_integral() == ox.is_integral()
    assert x.omega_coords() == ox.omega_coords()
    if F.is_real:
        for conj in (False, True):
            assert x.compare_zero(conj) == ox.compare_zero(conj)
            assert (x - y).compare_zero(conj) == (ox - oy).compare_zero(conj)
    if ox.norm() == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    _same(x.inverse(), ox.inverse())
    _same(x ** e, ox ** e)
    _same(y / x, oy / ox)
    if q:
        _same(x / q, ox / q)
    _same(q / x, q / ox)
    # the same value reached by different routes is equal and hashes alike
    z = x * y
    for route in [y * x, (z / x) * x, x * (y + 1) - x,
                  (x * x * y) / x, F.element(z.a, z.b)]:
        assert route == z and hash(route) == hash(z)
    assert x * x.inverse() == 1 and hash(x * x.inverse()) == hash(F.element(1))
    assert x ** e * x ** (-e) == F.element(1)


def test_quad_element_views_are_read_only():
    x = QuadField(5).element(Fraction(3, 2), Fraction(1, 2))
    assert (x.A, x.B, x.d) == (3, 1, 2)
    assert (x.a, x.b) == (Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(AttributeError):
        x.a = Fraction(1)
    assert repr(x) == "QuadElt(3/2 + 1/2*sqrt(5))"
    with pytest.raises(InputError):
        x == QuadField(-3).element(1)


def _apply_form(form, M):
    """(Q o M)(x, y) = Q(p x + q y, r x + s y) for M = [[p, q], [r, s]]."""
    a, b, c = form
    (p, q), (r, s) = M
    return (a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s)


def _det(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def test_definite_reduction_transform_is_special_and_exact():
    rng = random.Random(15)
    seen = 0
    while seen < 400:
        a = rng.randint(1, 300)
        b = rng.randint(-600, 600)
        c = rng.randint(1, 2000)
        D = b * b - 4 * a * c
        if not -10 ** 4 <= D < 0:
            continue
        seen += 1
        red, M = reduce_form((a, b, c), D)
        assert _det(M) == 1
        assert _apply_form((a, b, c), M) == red
        assert abs(red[1]) <= red[0] <= red[2]
        # a reduced definite form is alone in its cycle
        assert form_cycle(red, D) == [(red, [[1, 0], [0, 1]])]


def test_indefinite_reduction_and_cycle_transforms_are_special_and_exact():
    rng = random.Random(16)
    seen = 0
    while seen < 150:
        D = rng.randint(5, 10 ** 4)
        b = rng.randint(-150, 150)
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D or (b - D) % 2:
            continue
        n = (b * b - D) // 4
        divisors = [t for t in range(1, math.isqrt(abs(n)) + 1)
                    if n % t == 0]
        a = rng.choice(divisors) * rng.choice((1, -1))
        if rng.random() < 0.5:
            a = n // a
        form = (a, b, n // a)
        seen += 1
        red, M = reduce_form(form, D)
        assert _det(M) == 1 and _apply_form(form, M) == red
        cycle = form_cycle(red, D)
        assert cycle[0] == (red, [[1, 0], [0, 1]])
        for g, M2 in cycle:
            assert _det(M2) == 1 and _apply_form(red, M2) == g


def _random_sl2(rng):
    """A seeded random element of SL_2(Z): a product of matrices
    [[0, -1], [1, k]], which generate it."""
    M = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-6, 6)
        M = mat_mul(M, [[0, -1], [1, k]])
    return M


@pytest.mark.parametrize("sign", [-1, 1])
def test_class_of_is_an_invariant_and_a_homomorphism(sign):
    # class_of is read as a map from forms to Z^k modulo the class
    # group's relation rows: it must be constant on SL_2(Z)-orbits, and
    # composition of forms must add classes
    rng = random.Random(17 + sign)
    for D in range(sign * 3, sign * 500, sign):
        if not is_fundamental_discriminant(D):
            continue
        cg = ClassGroup(D)
        rel = IntLattice(len(cg.structure.leaders),
                         cg.structure.relation_rows)
        forms = reduced_forms(D)
        for f in forms:
            cls = cg.class_of(f)
            assert cg.class_of(_apply_form(f, _random_sl2(rng))) == cls
            g = rng.choice(forms)
            total = cg.class_of(compose_abc(f, g, D))
            assert rel.contains_vector(
                [x - y - z for x, y, z in zip(total, cls, cg.class_of(g))])


@pytest.mark.parametrize("D", [-16, -12, -1, 0, 1, 20])
def test_class_number_rejects_non_fundamental_discriminants(D):
    with pytest.raises(InputError):
        class_number(D)


def test_prime_over_without_an_ideal_form_is_a_certification_error(
        monkeypatch):
    F = QuadField(5)
    assert F.splitting(3) == "inert"
    # a splitting report that disagrees with the discriminant: no root b
    monkeypatch.setattr(F, "splitting", lambda q: "split")
    with pytest.raises(CertificationError, match="no ideal form over 3"):
        QuadIdeal.prime_over(F, 3)


def test_express_without_a_unit_generator_is_a_certification_error():
    L = s_unit_lattice(QuadField(5), ["inf", 5], [3])
    unit = [i for i, row in enumerate(L.valuations) if not any(row)]
    assert len(unit) == 1
    keep = [i for i in range(L.rank) if i not in unit]
    kw = {k: getattr(L, k) for k in SUnitLattice.__slots__ if k[0] != "_"}
    kw["gens"] = [L.gens[i] for i in keep]
    kw["valuations"] = [L.valuations[i] for i in keep]
    broken = SUnitLattice(**kw)
    with pytest.raises(CertificationError, match="no unit among"):
        eps = fundamental_unit(5)
        broken.express(eps, finite_valuations(broken, eps))


def test_s_unit_lattice_rejects_unknown_and_missing_keywords():
    L = s_unit_lattice(QuadField(5), ["inf", 5], [3])
    kw = {k: getattr(L, k) for k in SUnitLattice.__slots__ if k[0] != "_"}
    assert SUnitLattice(**kw).gens == L.gens
    # a misspelt, removed or private keyword is named, not dropped
    for extra in ({"saturation_index": 1}, {"sigma_matrix": None},
                  {"_t_sublattice": None}):
        with pytest.raises(InputError,
                           match=re.escape(f"unknown {list(extra)}")):
            SUnitLattice(**kw, **extra)
    del kw["relations"]
    with pytest.raises(InputError, match=re.escape("missing ['relations']")):
        SUnitLattice(**kw)


SMALL_PRIMES = list(sympy.primerange(2, 20))
FUNDAMENTAL = [D for D in range(-300, 301)
               if D not in (0, 1) and is_fundamental_discriminant(D)]


def _lattice_for(D, extra):
    """s_unit_lattice over Q(sqrt D) with S = the ramified primes plus
    `extra`, T = the smallest odd prime outside S."""
    F = QuadField(D)
    S = ["inf"] + sorted(set(F.ramified_primes()) | set(extra))
    T = [next(q for q in sympy.primerange(3, 100) if q not in S)]
    return s_unit_lattice(F, S, T)


def _check_lattice(D, extra, seed):
    L = _lattice_for(D, extra)
    for g, row in zip(L.gens, L.valuations):
        assert row == finite_valuations(L, g)
    assert mat_mul(L.sigma_matrix, L.sigma_matrix) == identity_matrix(L.rank)
    # the rows built from the place action agree with valuations evaluated
    # on the conjugates
    assert L.sigma_matrix == [L.express(g.conjugate(),
                                        finite_valuations(L, g.conjugate()))[0]
                              for g in L.gens]
    rng = random.Random(seed)
    coords = [rng.randint(-2, 2) for _ in range(L.rank)]
    j = rng.randrange(L.torsion_order)
    x = L.torsion_gen ** j
    for g, c in zip(L.gens, coords):
        x = x * g ** c
    assert L.express(x, finite_valuations(L, x)) == (coords, j)


# split, inert and ramified primes in S, over real and imaginary fields
# (D = -23 has class number 3, D = 229 class number 3 and a unit of norm -1)
FIXED = [(5, (2, 11)), (-4, (3, 5)), (-23, (2, 5)), (12, (7, 11, 13)),
         (229, (2, 3)), (-3, (7, 2)), (-84, (5, 11, 19))]


def test_fixed_lattices_meet_every_splitting_type():
    kinds = set()
    for D, extra in FIXED:
        F = QuadField(D)
        kinds |= {F.splitting(q) for q in extra + tuple(F.ramified_primes())}
        _check_lattice(D, extra, seed=D)
    assert kinds == {"split", "inert", "ramified"}


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True),
       st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
@example(D=-3, extra=[], seed=0)
def test_stored_valuations_express_and_sigma(D, extra, seed):
    _check_lattice(D, extra, seed)


FUNDAMENTAL_1100 = [D for D in range(-1100, 1101)
                    if D not in (0, 1) and is_fundamental_discriminant(D)]


@given(st.sampled_from(FUNDAMENTAL_1100),
       st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=3,
                unique=True),
       st.lists(st.integers(-150, 150), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
@example(D=-23, extra=[2, 3, 5], coeffs=[1, -1, 40],
         rng=random.Random(0))       # h = 3: 2 and 3 split, 5 inert
@example(D=-1095, extra=[2, 7], coeffs=[-150, 101, 7],
         rng=random.Random(1))       # h = 28; 3, 5 ramified, 2, 7 split
@example(D=229, extra=[2, 3, 5], coeffs=[120, -7, 3],
         rng=random.Random(2))       # h = 3, a unit of norm -1; 2 inert
def test_principal_generators_of_principal_products(D, extra, coeffs, rng):
    F = QuadField(D)
    primes = sorted(set(F.ramified_primes()[:2]) | set(extra))
    places = [w for q in primes for w in F.places(q)]
    ideals = [w.ideal for w in places]
    cg = ClassGroup(D)
    classes = [list(cg.class_of(p.as_form())) for p in ideals]
    rows = [r[:len(places)] for r in kernel(
        classes + cg.structure.relation_rows,
        ambient_dim=len(cg.structure.leaders))]
    # a principal product: an integer combination of (at most three of)
    # the class relations
    row = [sum(c * r[i] for c, r in zip(coeffs, rows))
           for i in range(len(places))]
    gamma = _principal_generator(F, ideals, row)
    assert [ord_at_place(gamma, w) for w in places] == row
    norm = math.prod(Fraction(w.nw()) ** e for w, e in zip(places, row))
    assert abs(gamma.norm()) == norm
    # the generator does not depend on the order of the factors
    pairs = list(zip(ideals, row))
    rng.shuffle(pairs)
    assert _principal_generator(F, [p for p, _ in pairs],
                                [e for _, e in pairs]) == gamma
    # one more factor of a nontrivial class makes the product not principal
    for i, cls in enumerate(classes):
        if any(cls):
            bumped = row[:i] + [row[i] + 1] + row[i + 1:]
            with pytest.raises(CertificationError, match="not principal"):
                _principal_generator(F, ideals, bumped)
            break


def _one_lattice_datum(D, extra):
    """(field, S, T): S the ramified primes and `extra` off them, T the
    least prime >= 5 outside S, which kills every root of unity."""
    F = QuadField(D)
    S = ["inf"] + sorted(set(F.ramified_primes()) | set(extra))
    T = [next(q for q in sympy.primerange(5, 100) if q not in S)]
    return F, S, T


def _ray_module_keeping_s_columns(F, L):
    """Cl_{K,S,T} presented with a column per finite S-place, each killed
    by an identity row, and the place permutation on those columns."""
    k = len(L.place_ranges["inf"])
    r = len(L.class_primes)
    ideals = (L.class_primes + [p.conj() for p in L.class_primes]
              + [w.ideal for w in L.places[k:]])
    n = len(ideals)
    res = L.residues
    eye = identity_matrix(n)

    def dlog(x):
        return res.dlog(res.reduce(x))

    rows = [v + [-c for c in dlog(g)]
            for v, g in _principal_relations(F, ideals)] + eye[2 * r:]
    rows += [[0] * n + rr for rr in res.relation_rows
             + [dlog(u) for u in L.gens + [F.torsion_generator()[0]]]]
    action = [eye[j] for j in list(range(r, 2 * r)) + list(range(r))
              + [2 * r + a - k for a in L.place_action[k:]]]
    action += [[0] * n + res.dlog(res.galois_act(t)) for t in res.leaders]
    return _module_from_relations(AbelianGroup((2,)), n + len(res.leaders),
                                  rows, [action])


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True))
@settings(max_examples=25, deadline=None)
@example(D=-23, extra=[2, 3, 5])        # h = 3: 2 and 3 split, 5 inert
@example(D=-23, extra=[5])              # Cl_{K,S,T} = Z/12
@example(D=-84, extra=[7])              # Cl_K = (Z/2)^2, two class primes
@example(D=229, extra=[7])              # a unit of norm -1; Z/6
def test_one_relation_lattice_gives_the_s_units_and_the_ray_class(D, extra):
    F, S, T = _one_lattice_datum(D, extra)
    L = s_unit_lattice(F, S, T)
    fin = [w.ideal for w in L.places if w.kind == "finite"]
    # the S-units: the relations among the S-places alone, as their own
    # call gives them, span the lattice's valuation rows (the fundamental
    # unit of a real field adds a zero row), and each generator has its
    # row's valuations at every S-place
    alone = _principal_relations(F, fin)
    assert IntLattice(len(fin), L.valuations) \
        == IntLattice(len(fin), [v for v, _ in alone])
    assert [finite_valuations(L, g) for g in L.gens] == L.valuations
    # the ray class: the same group and annihilator as the presentation
    # that keeps a killed column per S-place
    rc = ray_class(F, S, T, lattice=L)
    kept = _ray_module_keeping_s_columns(F, L)
    assert rc.orders == kept.orders
    assert annihilator(rc) == annihilator(kept)


@pytest.mark.parametrize("D,extra", [(-23, (2, 3, 5)), (-84, (7,)),
                                     (229, (7,)), (5, ())])
def test_ray_class_reads_the_unit_rows_off_the_lattice(monkeypatch, D,
                                                       extra):
    # the generators and the torsion generator are reduced mod T once, by
    # s_unit_lattice; ray_class reduces only the generators of the
    # relations that survive on the class primes
    F, S, T = _one_lattice_datum(D, extra)
    L = s_unit_lattice(F, S, T)
    res = L.residues
    assert L.unit_dlogs == [res.dlog(res.reduce(u))
                            for u in L.gens + [L.torsion_gen]]
    n = 2 * len(L.class_primes)
    calls = []
    inner = ResidueSystem.reduce
    monkeypatch.setattr(ResidueSystem, "reduce",
                        lambda self, x: calls.append(x) or inner(self, x))
    rc = ray_class(F, S, T, lattice=L)
    assert calls == [g for v, g in L.relations if any(v[:n])]
    monkeypatch.undo()
    assert rc.orders == ray_class(F, S, T).orders


FUNDAMENTAL_400 = [D for D in FUNDAMENTAL_1100 if abs(D) <= 400]


@given(st.sampled_from(FUNDAMENTAL_400),
       st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True),
       st.lists(st.sampled_from(list(sympy.primerange(2, 40))), min_size=1,
                max_size=2, unique=True))
@settings(max_examples=60, deadline=None)
@example(D=-3, extra=[2, 7], T=[5])         # 2 inert, 7 split; 3 ramified
@example(D=-4, extra=[3, 5], T=[7])         # 3 inert, 5 split; 2 ramified
@example(D=-23, extra=[2, 3, 5], T=[7])     # h = 3: 2 and 3 split, 5 inert
@example(D=-84, extra=[5, 11], T=[13])      # Cl_K = (Z/2)^2; 5, 11 split
@example(D=229, extra=[3, 7], T=[11, 2])    # h = 3, N(eps) = -1; 7 inert
def test_norm_rows_and_lifts_match_the_hermite_route(D, extra, T):
    # the oracle: the Hermite basis of all the relations, over every class
    # prime, conjugate and S-place, each row with its own generator
    F = QuadField(D)
    S = ["inf"] + sorted(set(F.ramified_primes()) | set(extra))
    T = sorted(set(T) - set(S))
    assume(T)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numfld, "_principal_generator",
                   lambda *a: calls.append(a) or _principal_generator(*a))
        L = s_unit_lattice(F, S, T)
    k = len(L.place_ranges["inf"])
    fin = L.places[k:]
    r = len(L.class_primes)
    ideals = (L.class_primes + [p.conj() for p in L.class_primes]
              + [w.ideal for w in fin])
    n = len(ideals)
    oracle = [v for v, _ in _principal_relations(F, ideals)]
    rows = [v for v, _ in L.relations]
    assert len(rows) == n
    assert IntLattice(n, rows) == IntLattice(n, oracle)
    for v, gamma in L.relations:
        assert [ord_at_place(gamma, w) for w in fin] == v[2 * r:]
        assert abs(gamma.norm()) == math.prod(
            (p.a * p.scale ** 2) ** e for p, e in zip(ideals, v))
    # the S-units: the oracle's rows off the class primes
    assert IntLattice(len(fin), L.valuations) == IntLattice(
        len(fin), [v[2 * r:] for v in oracle if not any(v[:2 * r])])
    rc = ray_class(F, S, T, lattice=L)
    kept = _ray_module_keeping_s_columns(F, L)
    assert rc.orders == kept.orders
    assert annihilator(rc) == annihilator(kept)
    # one generator per lift: per class prime, split and ramified prime
    kinds = [F.splitting(q) for q in S[1:]]
    assert len(calls) == r + kinds.count("split") + kinds.count("ramified")


def _corrupt_a_class_norm_row(real):
    """`_norm_rows` with the class prime l_1's generator l_1 made l_1 + 1."""
    def corrupted(field, primes, fin):
        rows, cols = real(field, primes, fin)
        v, ell = rows[0]
        return [(v, ell + 1)] + rows[1:], cols
    return corrupted


def test_a_wrong_norm_row_generator_fails_the_build(monkeypatch):
    F = QuadField(-23)      # h = 3: one class prime
    monkeypatch.setattr(numfld, "_norm_rows",
                        _corrupt_a_class_norm_row(numfld._norm_rows))
    with pytest.raises(CertificationError, match="has a wrong generator"):
        s_unit_lattice(F, ["inf", 23], [5])


def test_ray_class_of_d_minus_187_by_hand():
    # h(-187) = 2 and the ramified primes above 11 and 17 are not
    # principal, so h_S = 1; 7 splits, R_T = (Z/6)^2, and the images of
    # -1 and the S-units span <(1, 1), (3, 0)>, of index 3
    F, S, T = QuadField(-187), ["inf", 11, 17], [7]
    rc = ray_class(F, S, T)
    assert (*_order_factors(F, S, T), rc.order()) == (1, 3, 3)
    assert rc.orders == [3]


def _gamma(w):
    """(b + sqrt D)/2, which with q generates the prime ideal
    w = (q, (b + sqrt D)/2) of a place of degree 1."""
    F = w.field
    k = 1 if F.D % 4 == 1 else 2        # sqrt D = k sqrt m
    return F.element(Fraction(w.ideal.b, 2), Fraction(k, 2))


SPLIT = [(D, q) for D in FUNDAMENTAL for q in SMALL_PRIMES
         if kronecker(D, q) == 1]


@given(st.sampled_from(SPLIT), st.integers(0, 3), st.integers(0, 3),
       st.integers(-3, 3), st.lists(st.integers(-60, 60), min_size=2,
                                    max_size=2), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
@example(Dq=(17, 2), i=2, j=1, l=-1, uv=[1, 2], c=3)    # 2 splits
@example(Dq=(17, 2), i=0, j=3, l=0, uv=[3, 0], c=1)
@example(Dq=(5, 11), i=1, j=0, l=2, uv=[2, 1], c=7)
@example(Dq=(5, 11), i=3, j=3, l=-2, uv=[-5, 4], c=1)
def test_split_valuations_match_powers_of_the_ideal_generator(Dq, i, j, l,
                                                              uv, c):
    # gamma = (b + sqrt D)/2 lies in w and not in its conjugate (their sum b
    # would be 0 mod q, and so would D), so ord_w(gamma) = ord_q N(gamma)
    # and ord_w'(gamma) = 0; z is a unit at both places
    D, q = Dq
    F = QuadField(D)
    w, w_conj = F.places(q)
    z = (F.element(uv[0]) + omega(F) * uv[1]) / c
    assume(c % q and (z * c).norm() % q)
    gamma = _gamma(w)
    e = sympy.multiplicity(q, int(gamma.norm()))
    x = z * gamma ** i * gamma.conjugate() ** j * Fraction(q) ** l
    assert ord_at_place(x, w) == i * e + l
    assert ord_at_place(x, w_conj) == j * e + l


def _residue_closure(res):
    """(identity, op) of the product of the residue groups k(w)^x, slot by
    slot: the group that `GroupStructure` enumerates in the oracles.

    op lifts both residue tuples to O_K (to Z over Q), multiplies the lifts
    as field elements and reduces the product.  A lift writes each slot as
    u + v omega mod its q: an integer residue a is a + 0 omega, an inert
    pair (u, v) is itself, and the two slots of a split q are joined
    through omega's images there, each the r mod q at which the generator
    (b + sqrt D)/2 of the prime ideal w, written u + v omega, goes to
    u + v r = 0; the rational primes of T are then joined by the Chinese
    remainder theorem."""
    F = res.field
    primes = []       # (q, c = 1 mod q and 0 mod the rest of T, slots, roots)
    for q in res.T:
        slots = [i for i, w in enumerate(res.places) if w.q == q]
        roots = []
        if len(slots) == 2:
            for i in slots:
                u, v = _gamma(res.places[i]).omega_coords()
                roots.append(next(r for r in range(q)
                                  if (u + v * r) % q == 0))
        c = math.prod(res.T) // q
        primes.append((q, c * pow(c, -1, q), slots, roots))

    def lift(tup):
        u = v = 0
        for q, c, slots, roots in primes:
            if roots:
                (a, b), (r, s) = [tup[i] for i in slots], roots
                vq = (a - b) * pow(r - s, -1, q)
                uq = a - vq * r
            else:
                uq, vq = (tup[slots[0]], 0) if F is QQ else tup[slots[0]]
            u, v = u + uq * c, v + vq * c
        return Fraction(u) if F is QQ else F.element(u) + omega(F) * v

    def op(t1, t2):
        return res.reduce(lift(t1) * lift(t2))
    return res.reduce(1), op


def _check_residues_against_enumeration(field, T):
    """`ResidueSystem.dlog` and `relation_rows` against the polycyclic
    presentation `GroupStructure` enumerates from the same leaders (it
    skips a leader that is already in the span: the generator of F_2^x,
    which is 1)."""
    res = ResidueSystem(field, T)
    k = len(res.leaders)
    identity, op = _residue_closure(res)
    assert all(op(identity, g) == g for g in res.leaders)
    enum = GroupStructure(identity, op, res.leaders)
    assert enum.order == res.size == math.prod(r[i] for i, r in
                                               enumerate(res.relation_rows))
    slots = [res.leaders.index(g) for g in enum.leaders]

    def lift(vec):
        out = [0] * k
        for i, a in zip(slots, vec):
            out[i] = a
        return out
    for element, exponents in enum.exponents.items():
        assert res.dlog(element) == lift(exponents)
    skipped = [[int(i == j) for j in range(k)]
               for i in range(k) if i not in slots]
    enumerated = IntLattice(k, [lift(r) for r in enum.relation_rows]
                            + skipped)
    assert enumerated == IntLattice(k, res.relation_rows)


@pytest.mark.parametrize("T", [[3], [2, 3], [5, 7], [2, 11, 13], [43]])
def test_residues_of_q_match_enumeration(T):
    _check_residues_against_enumeration(QQ, T)


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=2,
                unique=True))
@settings(max_examples=40, deadline=None)
@example(D=17, T=[2, 3])      # 2 splits: two copies of F_2^x
@example(D=-4, T=[7])         # inert: F_49^x
@example(D=-3, T=[2])         # inert 2: F_4^x
def test_residues_of_quadratic_fields_match_enumeration(D, T):
    F = QuadField(D)
    assume(all(D % q for q in T))
    assume(math.prod(q * q - 1 if F.splitting(q) == "inert" else
                     (q - 1) ** 2 for q in T) <= 3000)
    _check_residues_against_enumeration(F, T)


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=2,
                unique=True),
       st.lists(st.integers(-40, 40), min_size=4, max_size=4),
       st.integers(1, 30))
@settings(max_examples=60, deadline=None)
@example(D=17, T=[2, 3], uv=[1, 2, 5, 2], c=5)     # 2 and 3 split
@example(D=-4, T=[7], uv=[1, 2, 3, -1], c=3)       # 7 inert
@example(D=-3, T=[2], uv=[1, 1, 2, 1], c=3)        # 2 inert
def test_residue_map_is_a_multiplicative_galois_map(D, T, uv, c):
    # x = (u1 + v1 omega)/c and y = (u2 + v2 omega)/c, units at every place
    # above T exactly when their norms are prime to T
    F = QuadField(D)
    assume(all(D % q and c % q for q in T))
    x, y = [(F.element(u) + omega(F) * v) / c
            for u, v in (uv[:2], uv[2:])]
    assume(all(z.norm().numerator % q for z in (x, y) for q in T))
    res = ResidueSystem(F, T)
    rx, ry, rxy = res.reduce(x), res.reduce(y), res.reduce(x * y)
    k = len(res.leaders)
    gap = [a - b - e for a, b, e in zip(res.dlog(rxy), res.dlog(rx),
                                        res.dlog(ry))]
    assert IntLattice(k, res.relation_rows).contains_vector(gap)
    for z, rz in ((x, rx), (y, ry), (x * y, rxy)):
        assert res.galois_act(rz) == res.reduce(z.conjugate())
    for q in T:
        with pytest.raises(DatumError):
            res.reduce(F.element(q))


def test_ray_classes_with_large_residue_groups():
    # |R_T| = 171072 and 103680: a lattice of relations, not a listing
    F, S, T = QuadField(120), ["inf", 2, 3, 5, 7], [19, 23]
    rc = ray_class(F, S, T)
    assert (*_order_factors(F, S, T), rc.order()) == (1, 2, 2)
    assert ray_class(QuadField(97), ["inf", 97], [17, 19]).order() == 1


def from_exponents(structure, vec):
    """The element prod g_i^a_i of a `GroupStructure` over its leaders g_i."""
    out = structure.identity
    for g, a in zip(structure.leaders, vec):
        for _ in range(a % structure.order):
            out = structure.op(out, g)
    return out


def _ray_class_order_oracle(F, S, T):
    """h_S * |R_T / im O_S^x|, from subgroup closures instead of the
    relation matrix `ray_class` diagonalises."""
    cg = ClassGroup(F.D)
    s_classes = [from_exponents(cg.structure, cg.class_of(w.ideal.as_form()))
                 for q in S if q != "inf" for w in F.places(q)]
    span = GroupStructure(cg.structure.identity, cg.structure.op, s_classes)
    res = ResidueSystem(F, T)
    units = list(s_unit_lattice(F, S, T).gens) + [F.torsion_generator()[0]]
    image = GroupStructure(*_residue_closure(res),
                           [res.reduce(u) for u in units])
    return cg.structure.order // span.order * (res.size // image.order)


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True),
       st.integers(0, 3), st.booleans())
@settings(max_examples=40, deadline=None)
@example(D=-187, extra=[], t_index=2, two=False)
def test_ray_class_order_is_h_s_times_unit_quotient(D, extra, t_index, two):
    F = QuadField(D)
    S = ["inf"] + sorted(set(F.ramified_primes()) | set(extra))
    odd = [q for q in sympy.primerange(3, 60) if q not in S and D % q]
    T = [odd[t_index]] + ([odd[t_index + 1]] if two else [])
    # |R_T| bounded, so that the closures stay quick
    assume(math.prod(q * q - 1 if F.splitting(q) == "inert" else
                     (q - 1) ** 2 for q in T) <= 3000)
    rc = ray_class(F, S, T)
    assert rc.order() == _ray_class_order_oracle(F, S, T)


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
@example(D=-56, extra=[3, 11])          # split and inert, h = 4
@example(D=-84, extra=[5, 13, 19])      # (Z/2)^2 class group
@example(D=60, extra=[7])
def test_ray_class_without_t_is_cl_s_with_sigma_as_minus_one(D, extra):
    # with T empty Cl_{K,S,T} is Cl_K / <classes of the S-places>, read
    # here off the class group's own relations, and sigma acts as x -> -x,
    # because I sigma(I) = (N I) is principal
    F = QuadField(D)
    S = ["inf"] + sorted(set(F.ramified_primes()) | set(extra))
    m = ray_class(F, S, [])
    cg = ClassGroup(D)
    s_classes = [list(cg.class_of(w.ideal.as_form()))
                 for q in S[1:] for w in F.places(q)]
    orders, _, _ = diagonalize_relations(
        list(cg.structure.relation_rows) + s_classes,
        len(cg.structure.leaders))
    assert m.orders == orders
    assert m.action == [[[-(i == j) % d for j, d in enumerate(m.orders)]
                         for i in range(len(m.orders))]]


@pytest.mark.parametrize("call", [ray_class, s_unit_lattice],
                         ids=["ray_class", "s_unit_lattice"])
@pytest.mark.parametrize("spec, S, T", [(SPEC_Q, [2], [5]),
                                       (SPEC_Q5, [5], [3])],
                         ids=["Q", "Q(sqrt5)"])
def test_s_without_the_infinite_place_is_a_datum_error(call, spec, S, T):
    # the datum refuses S, before the lattice or the ray class is built
    with pytest.raises(InputError, match="infinite place"):
        _on_datum(call, spec)(S, T)


def test_ray_class_with_large_residue_group_is_quick():
    # R_T has 3.5 million elements; its 7 x 4 relation matrix once took
    # minutes to diagonalise
    t0 = time.perf_counter()
    rc = ray_class(QuadField(-4), ["inf", 2], [37, 53])
    assert time.perf_counter() - t0 < 5.0
    assert rc.orders == [4, 468]


def _bernoulli_value(S, T):
    return bernoulli_value(DirichletChar.quadratic(-4), S, T)


# (call, S, T): each call succeeds on these places
PLACE_PARSERS = [
    (_on_datum(s_unit_lattice, SPEC_Q), ["inf", 5], [3]),
    (_on_datum(s_unit_lattice, SPEC_Q5), ["inf", 5], [3]),
    (_on_datum(ray_class, SPEC_Q5), ["inf", 5], [3]),
    (_bernoulli_value, ["inf", 2], [3]),
]


@pytest.mark.parametrize("bad", [1, 4, 9, -3])
@pytest.mark.parametrize("in_s", [True, False], ids=["S", "T"])
@pytest.mark.parametrize("call, S, T", PLACE_PARSERS,
                         ids=["s_unit_lattice-Q", "s_unit_lattice-Q(sqrt5)",
                              "ray_class", "bernoulli_value"])
def test_places_that_are_not_primes_are_an_input_error(call, S, T, in_s,
                                                       bad):
    call(S, T)
    with pytest.raises(InputError, match="must be primes"):
        call(S + [bad], T) if in_s else call(S, T + [bad])


def test_a_repeated_place_counts_once():
    lattice = _on_datum(s_unit_lattice, SPEC_Q5)
    ray = _on_datum(ray_class, SPEC_Q5)
    L = lattice(["inf", 5, 11], [3])
    assert lattice(["inf", 11, 5, "oo", 11], [3, 3]).valuations \
        == L.valuations
    assert ray(["inf", 5, 5, 11], [3, 3]).orders \
        == ray(["inf", 5, 11], [3]).orders
    assert _bernoulli_value(["inf", 2, 2], [3, 3]) \
        == _bernoulli_value(["inf", 2], [3])


VALUATION_GATE_UNDER_O = """
from starklab.ball import CertificationError
from starklab.numfld import QQ, QuadField, ord_at_place, s_unit_lattice

for F, S, T in [(QuadField(12), ["inf", 2, 3], [5]),
                (QuadField(-4), ["inf", 2, 5], [3]),
                (QQ, ["inf", 2, 3], [5])]:
    L = s_unit_lattice(F, S, T)
    v = L.valuations
    # x = g0 g1 has the valuations v0 + v1; with v0 replaced by them, the
    # row span is the same, so the solve succeeds with wrong coordinates
    x, vals = L.gens[0] * L.gens[1], [a + b for a, b in zip(v[0], v[1])]
    v[0] = vals
    try:
        L.express(x, vals)
    except CertificationError:
        continue
    raise SystemExit(f"{F}: express trusted corrupted valuations")

from starklab.grpring import AbelianGroup
from starklab.numfld import _module_from_relations

try:
    _module_from_relations(AbelianGroup(()), 2, [[3, 0]], [])
    raise SystemExit("relations of rank 1 < 2 gave a finite module")
except CertificationError:
    pass

for field in (QQ, QuadField(5)):
    L = s_unit_lattice(field, ["inf", 5], [3])
    L.gens[0] = L.gens[0] * 7      # 7 is not an S-unit
    try:
        L.log_matrix()
        raise SystemExit(f"{field}: corrupted generator passed the "
                         "product formula")
    except CertificationError:
        pass

from starklab import numfld

real_norm_rows = numfld._norm_rows


def corrupted(field, primes, fin):
    rows, cols = real_norm_rows(field, primes, fin)
    v, ell = rows[0]        # the class prime l_1's row: l_1 made l_1 + 1
    return [(v, ell + 1)] + rows[1:], cols


numfld._norm_rows = corrupted
try:
    s_unit_lattice(QuadField(-23), ["inf", 23], [5])
    raise SystemExit("a wrong class prime's norm-row generator passed")
except CertificationError:
    pass
finally:
    numfld._norm_rows = real_norm_rows

from starklab.hnf import IntLattice

try:
    IntLattice(2).add_vector([1])
    raise SystemExit("a vector of length 1 entered Z^2")
except ValueError:
    pass

from starklab.grpring import InputError
try:
    ord_at_place(3, QQ.places("inf")[0])
    raise SystemExit("a valuation at the real place")
except InputError:
    pass

F = QuadField(5)
w = F.places(11)[0]
w.omega_image = (w.omega_image + 1) % 11     # not a root of x^2 - x - 1
try:
    # omega = (1 + sqrt 5)/2 less its wrong image
    ord_at_place(F.element(1, 1) / 2 - w.omega_image, w)
    raise SystemExit("a valuation read through a wrong image of omega")
except CertificationError:
    pass
"""


def test_express_gates_hold_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c",
                           VALUATION_GATE_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_class_groups_match_genus_theory():
    # Gauss: the narrow class group of discriminant D has 2-rank
    # omega(D) - 1.  The wide group equals it for D < 0 and for N(eps) = -1;
    # otherwise it is the narrow group mod an element of order 2, of 2-rank
    # omega(D) - 2 or omega(D) - 1, and 2^(omega(D) - 1) divides h_plus
    fundamental = [D for D in range(-5000, 5001)
                   if D not in (0, 1) and is_fundamental_discriminant(D)]
    for D in random.Random(14).sample(fundamental, 400):
        cg = ClassGroup(D)
        law = cg.structure
        involutions = sum(law.op(c, c) == law.identity
                          for c in law.exponents)
        two_rank = involutions.bit_length() - 1
        assert involutions == 2 ** two_rank, D
        omega = len(sympy.primefactors(D))
        if D < 0 or unit_norm(D) == -1:
            assert two_rank == omega - 1, D
        else:
            assert two_rank in (omega - 2, omega - 1), D
            assert cg.h_plus % 2 ** (omega - 1) == 0, D
