import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab.ball import Ball
from starklab.grpring import (AbelianGroup, GroupRingElement, InputError,
                              Subgroup, norm_element)


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
    assert sum((x * y).coeffs) == sum(x.coeffs) * sum(y.coeffs)


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
    assert sum(full.coeffs) == 4 and all(c == 1 for c in full.coeffs)
    assert norm_element(g, Subgroup(g, [(0, 0)])) == GroupRingElement.one(g)
    g3 = AbelianGroup((3,))
    n3 = norm_element(g3, Subgroup(g3, [(1,)]))
    assert sum(n3.coeffs) == 3 and all(c == 1 for c in n3.coeffs)
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


def test_characters_form_a_group():
    for invf in [(2, 2), (6,), (2, 4)]:
        g = AbelianGroup(invf)
        chars = g.all_characters()
        assert len(chars) == g.order
        labels = {c.exponents for c in chars}
        for c1 in chars:
            for c2 in chars:
                assert (c1 * c2).exponents in labels
        # multiplicativity chi(s t) = chi(s) chi(t), exhaustively
        for c in chars:
            for s in g.elements:
                for t in g.elements:
                    assert (c.value_exponent(g.op(s, t))
                            == (c.value_exponent(s) + c.value_exponent(t))
                            % g.exponent)


def test_ball_coefficient_ring():
    g = AbelianGroup((2,))
    x = GroupRingElement(g, "ball", [Ball(1), Ball(Fraction(1, 3))])
    y = x * x
    # (1 + t s)^2 = (1 + t^2) + 2 t s with t = 1/3
    assert y.coeffs[0].contains(Fraction(10, 9))
    assert y.coeffs[1].contains(Fraction(2, 3))
    with pytest.raises(InputError):
        x == x  # no decidable equality on ball elements


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
