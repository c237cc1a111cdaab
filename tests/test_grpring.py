import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab.ball import Ball
from starklab.cyclo import CycloField, cyclotomic_polynomial
from starklab.grpring import (AbelianGroup, Character, GroupRingElement,
                              InputError, Subgroup, affine_projection,
                              idempotent, norm_element)


def affine_inner_products(q):
    """<psi, Ind(chi)> for the affine group of F_q acting on its order-q
    normal subgroup: rows indexed by characters chi of the subgroup
    ("trivial" or "nontrivial"), columns by psi (("lin", j) or "nl").

    For q = 2 the table degenerates to the identity on two linear characters.
    """
    if q == 2:
        return {("trivial", ("lin", 0)): 1, ("trivial", "nl"): 0,
                ("nontrivial", ("lin", 0)): 0, ("nontrivial", "nl"): 1}
    table = {}
    for j in range(q - 1):
        table[("trivial", ("lin", j))] = 1 if j == 0 else 0
        table[("nontrivial", ("lin", j))] = 0
    table[("trivial", "nl")] = 0
    table[("nontrivial", "nl")] = 1
    return table


GROUPS = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3)]


def random_element(rng, group, ring="int"):
    if ring == "int":
        coeffs = [rng.randint(-5, 5) for _ in range(group.order)]
    else:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(group.order)]
    return GroupRingElement(group, ring, coeffs)


@given(st.sampled_from(GROUPS), st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(invf, seed):
    rng = random.Random(seed)
    g = AbelianGroup(invf)
    x, y, z = (random_element(rng, g) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y).aug() == x.aug() * y.aug()
    assert x.involution().involution() == x
    assert (x * y).involution() == x.involution() * y.involution()


def test_convolution_against_naive_oracle():
    rng = random.Random(11)
    g = AbelianGroup((4, 4))
    for _ in range(40):
        x = random_element(rng, g)
        y = random_element(rng, g)

        out = [0] * g.order
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                out[g.index[g.op(g.elements[i], g.elements[j])]] += a * b
        assert (x * y).coeffs == out


def test_norm_element_examples():
    g = AbelianGroup((2, 2))
    full = norm_element(g, Subgroup(g, g.elements))
    assert full.aug() == 4 and all(c == 1 for c in full.coeffs)
    assert norm_element(g, Subgroup(g, [(0, 0)])) == GroupRingElement.one(g)
    g3 = AbelianGroup((3,))
    n3 = norm_element(g3, Subgroup(g3, [(1,)]))
    assert n3.aug() == 3 and all(c == 1 for c in n3.coeffs)
    with pytest.raises(InputError):
        Subgroup(g, [(0, 5)])


def test_norm_element_projects():
    # N_H * sigma = N_H for sigma in H, exhaustively on small groups
    for invf in [(2, 2), (3, 3), (2, 4)]:
        g = AbelianGroup(invf)
        rng = random.Random(sum(invf))
        for _ in range(5):
            sub = Subgroup(g, [rng.choice(g.elements) for _ in range(2)])
            nh = norm_element(g, sub)
            for s in sub.elements():
                assert nh * GroupRingElement.from_element(g, s) == nh


def test_idempotents_exhaustive():
    for invf in [(2,), (3,), (2, 2), (4,), (3, 3)]:
        g = AbelianGroup(invf)
        es = [idempotent(c) for c in g.all_characters()]
        total = es[0]
        for e in es[1:]:
            total = total + e
        assert total == GroupRingElement.one(g)
        for i, ei in enumerate(es):
            assert ei * ei == ei
            for j in range(i + 1, len(es)):
                assert (ei * es[j]).is_zero()


def test_idempotent_examples():
    g = AbelianGroup((2, 2))
    e1 = idempotent(Character(g, g.identity()))
    assert e1 == norm_element(g, Subgroup(g, g.elements)).scale(Fraction(1, 4))
    g2 = AbelianGroup((2,))
    chi = Character(g2, (1,))
    assert idempotent(chi) == GroupRingElement(
        g2, "rat", [Fraction(1, 2), Fraction(-1, 2)])
    g3 = AbelianGroup((3,))
    chi3 = Character(g3, (1,))
    e = idempotent(chi3)
    F = CycloField(3)
    assert e.coeffs[0] == F.from_rational(Fraction(1, 3))
    # coefficient of sigma is zeta^{-1}/3
    assert e.coeffs[1] == F.zeta_power(2) * Fraction(1, 3)
    assert e * e == e


def test_characters_form_a_group():
    for invf in [(2, 2), (6,), (2, 4)]:
        g = AbelianGroup(invf)
        chars = g.all_characters()
        assert len(chars) == g.order
        labels = {c.exponents for c in chars}
        for c1 in chars:
            assert c1.inverse().exponents in labels
            for c2 in chars:
                assert (c1 * c2).exponents in labels
        # multiplicativity chi(s t) = chi(s) chi(t), exhaustively
        for c in chars:
            for s in g.elements:
                for t in g.elements:
                    assert (c.value_exponent(g.op(s, t))
                            == (c.value_exponent(s) + c.value_exponent(t))
                            % g.exponent)


def test_involution_examples():
    g2 = AbelianGroup((2,))
    x = GroupRingElement(g2, "int", [2, 3])
    assert x.involution() == x
    g3 = AbelianGroup((3,))
    s = GroupRingElement.from_element(g3, (1,))
    assert s.involution() == GroupRingElement.from_element(g3, (2,))
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(rng, AbelianGroup((3, 3)))
        assert (x * x.involution()).aug() == x.aug() ** 2


def test_ball_coefficient_ring():
    g = AbelianGroup((2,))
    x = GroupRingElement(g, "ball", [Ball(1), Ball(Fraction(1, 3))])
    y = x * x
    # (1 + t s)^2 = (1 + t^2) + 2 t s with t = 1/3
    assert y.coeffs[0].contains(Fraction(10, 9))
    assert y.coeffs[1].contains(Fraction(2, 3))
    with pytest.raises(InputError):
        x == x  # no decidable equality on ball elements


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    F = CycloField(12)
    z = F.zeta_power(1)
    assert (z ** 12) == F.one() and not (z ** 6) == F.one()
    z3 = F.zeta_power(4)
    assert (z3 * z3 + z3 + 1).is_zero()


def test_affine_inner_product_table_against_character_theory():
    # oracle: build the affine group of F_q explicitly and compute
    # <psi, Ind(chi)> by summing over the group in Q(zeta)
    from starklab.finite import GF

    for q in [2, 3, 4, 5]:
        gf = GF(*( (q, 1) if q in (2, 3, 5) else (2, 2) ))
        elements = [(a, b) for a in gf.all_elements() if a != gf.zero()
                    for b in gf.all_elements()]

        def op(x, y):
            # (a1, b1) o (a2, b2): t -> a1(a2 t + b2) + b1
            return (gf.mul(x[0], y[0]), gf.add(gf.mul(x[0], y[1]), x[1]))

        # linear characters factor through a ~ F_q^x (cyclic of order q-1)
        gen = gf.multiplicative_generator()
        dlog = {}
        acc = gf.one()
        for k in range(q - 1):
            dlog[acc] = k
            acc = gf.mul(acc, gen)
        e = (q - 1) * q if q % 2 else (q - 1) * q  # lcm big enough
        import math
        e = math.lcm(max(q - 1, 1), _additive_exponent(q))
        F = CycloField(e)

        def lin_char(j, x):
            return F.zeta_power(j * dlog[x[0]] * (e // (q - 1))) \
                if q > 2 else F.one()

        # Ind(chi)(g) for chi a character of the translation subgroup
        # equals q-1 at 1, -1 on nontrivial translations, 0 elsewhere
        # (computed here by the induction formula, not assumed)
        trans = [x for x in elements if x[0] == gf.one()]
        reps = [x for x in elements if x[1] == gf.zero()]
        psi_nontrivial = _additive_character(gf, F, e)

        def ind_chi(g):
            total = F.zero()
            for r in reps:
                conj = op(op(_inv(gf, r), g), r)
                if conj[0] == gf.one():
                    total = total + psi_nontrivial(conj[1])
            return total

        # inner products over the group
        n = len(elements)
        table = affine_inner_products(q)
        for j in range(q - 1):
            total = F.zero()
            for g in elements:
                total = total + lin_char(j, g) * ind_chi(g).conjugate()
            val = total * Fraction(1, n)
            assert val.is_rational()
            expected = table[("nontrivial", ("lin", j))] if q > 2 else \
                table[("nontrivial", ("lin", 0))]
            assert val.rational_value() == expected, (q, j)
        # <psi_nl, Ind chi> via psi_nl = Ind of any nontrivial chi
        total = F.zero()
        for g in elements:
            total = total + ind_chi(g) * ind_chi(g).conjugate()
        val = total * Fraction(1, n)
        assert val.is_rational()
        assert val.rational_value() == (table[("nontrivial", "nl")]
                                        if q > 2 else 1)


def _inv(gf, x):
    a, b = x
    ai = gf.inv(a)
    return (ai, gf.neg(gf.mul(ai, b)))


def _additive_exponent(q):
    # exponent of the additive group of F_q
    p = 2
    while q % p:
        p += 1
    return p


def _additive_character(gf, F, e):
    p = gf.p

    def psi(b):
        # componentwise standard character of (Z/p)^k
        t = sum(b) % p
        return F.zeta_power(t * (e // p))

    return psi


def test_affine_projection_shape():
    ap = affine_projection(3, {("lin", 0): 1, ("lin", 1): 1, "nl": 1})
    assert ap == GroupRingElement.one(AbelianGroup((3,)), "rat")
    a, b = Fraction(5), Fraction(-2)
    ap2 = affine_projection(3, {("lin", 0): a, ("lin", 1): Fraction(7, 2),
                                "nl": b})
    g = AbelianGroup((3,))
    e1 = norm_element(g, Subgroup(g, g.elements)).scale(Fraction(1, 3))
    expect = e1.scale(a) + (GroupRingElement.one(g, "rat") - e1).scale(b)
    assert ap2 == expect
    ap4 = affine_projection(4, {("lin", 0): 3, ("lin", 1): 99,
                                ("lin", 2): 77, "nl": 1})
    assert ap4.group.invariant_factors == (2, 2)
    # q = 2 degenerates to two linear characters
    apq2 = affine_projection(2, {("lin", 0): Fraction(4), "nl": Fraction(9)})
    g2 = AbelianGroup((2,))
    e12 = norm_element(g2, Subgroup(g2, g2.elements)).scale(Fraction(1, 2))
    assert apq2 == e12.scale(4) + (GroupRingElement.one(g2, "rat")
                                   - e12).scale(9)
    with pytest.raises(InputError):
        affine_projection(3, {("lin", 0): 1, "nl": 1})
    with pytest.raises(InputError):
        affine_projection(6, {})


def element_from_json(obj):
    """Decoder of `GroupRingElement.to_json` for "int" and "rat" rings."""
    dec = int if obj["ring"] == "int" else Fraction
    return GroupRingElement(AbelianGroup(tuple(obj["group"])), obj["ring"],
                            [dec(c) for c in obj["coeffs"]])


def test_serialization_roundtrip():
    g = AbelianGroup((2, 2))
    x = GroupRingElement(g, "rat", [Fraction(1, 2), 2, Fraction(-3, 4), 0])
    assert element_from_json(x.to_json()) == x
    y = GroupRingElement(g, "int", [1, -2, 3, 0])
    assert element_from_json(y.to_json()) == y


def test_desk_bound_names_the_factors_not_the_order():
    # the order 2^20000 has more decimal digits than Python will print
    start = time.perf_counter()
    with pytest.raises(InputError, match="20000 cyclic groups"):
        AbelianGroup((2,) * 20000)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(InputError, match="desk bound 729"):
        AbelianGroup((3, 3, 3, 3, 3, 3, 3))
