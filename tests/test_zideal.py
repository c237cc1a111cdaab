import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab import hnf
from starklab.grpring import AbelianGroup, GroupRingElement
from starklab.zideal import (FiniteGModule, GIdealLattice, Presentation,
                             UnsupportedCaseError, _det_group_ring,
                             _unit_pivot_reduce, annihilator,
                             augmentation_ideal, augmentation_ideal_power,
                             fitting_from_extension, fitting_ideal,
                             ideal_from_generators)

G2 = AbelianGroup((2,))
G3 = AbelianGroup((3,))
ONE2 = GroupRingElement.one(G2)
SIGMA2 = GroupRingElement.from_element(G2, (1,))


def trivial_action(group, orders):
    """The module prod_i Z/d_i on which G acts trivially."""
    k = len(orders)
    return FiniteGModule(group, orders,
                         [hnf.identity_matrix(k)] * group.rank)


def sharp(ideal):
    """Image of an ideal under the # involution (coefficient permutation)."""
    g = ideal.group
    perm = [g.index[g.inv(e)] for e in g.elements]
    lat = hnf.IntLattice(ideal.group.order)
    for r in ideal.basis():
        moved = [0] * ideal.group.order
        for j, c in enumerate(r):
            moved[perm[j]] = c
        lat.add_vector(moved)
    return GIdealLattice(ideal.group, lat)


def _fitting_by_minors(pres, n=0):
    """Oracle: the ideal of the (g-n)-minors of the unreduced relation
    matrix, enumerated one minor at a time and expanded by cofactors."""
    g = pres.n_generators
    size = g - n
    if size <= 0:
        return GIdealLattice.unit(pres.group)
    if len(pres.relations) < size:
        return GIdealLattice.zero(pres.group)
    group = pres.group
    lat = hnf.IntLattice(group.order)
    unit = GIdealLattice.unit(group)
    acc = GIdealLattice(group, lat)
    table = group.multiplication_table()
    for cols in itertools.combinations(range(g), size):
        for rows in itertools.combinations(range(len(pres.relations)), size):
            sub = [[pres.relations[r][c] for c in cols] for r in rows]
            vec = _det_group_ring(sub).int_vector()
            if not any(vec) or acc.contains_vector(vec):
                continue
            for gi in range(group.order):
                moved = [0] * group.order
                for j, c in enumerate(vec):
                    if c:
                        moved[table[gi][j]] = c
                lat.add_vector(moved)
            acc = GIdealLattice(group, lat)
            if acc == unit:
                return acc
    return acc


def test_basic_ideals():
    assert ideal_from_generators([ONE2]) == GIdealLattice.unit(G2)
    ig = ideal_from_generators([SIGMA2 - ONE2])
    assert ig == augmentation_ideal(G2)
    j = ideal_from_generators([ONE2.scale(2), SIGMA2 - ONE2])
    assert j.lattice.index() == 2
    # (2, s-1)^2 = (4, 2(s-1))
    assert j.product(j) == ideal_from_generators(
        [ONE2.scale(4), (SIGMA2 - ONE2).scale(2)])
    assert sharp(ig) == ig
    rng = random.Random(0)
    for _ in range(10):
        a = ideal_from_generators([GroupRingElement(
            G2, "int", [rng.randint(-4, 4), rng.randint(-4, 4)])])
        assert a.product(GIdealLattice.unit(G2)) == a
        assert a.is_g_stable()


def test_aug_ideal_powers():
    assert augmentation_ideal_power(G2, 0) == GIdealLattice.unit(G2)
    u2 = augmentation_ideal_power(G2, 2)
    assert u2 == ideal_from_generators([(SIGMA2 - ONE2) * (SIGMA2 - ONE2)])
    assert u2 == augmentation_ideal(G2).scale(2)
    # I^p divisible by p inside I: (sigma-1)^p in p*I for G = Z/p
    for p in (2, 3, 5):
        g = AbelianGroup((p,))
        up = augmentation_ideal_power(g, p)
        assert augmentation_ideal(g).scale(p).contains(up)


def test_fitting_conventions():
    gt = AbelianGroup(())
    p = Presentation(gt, 1, [[GroupRingElement.one(gt).scale(5)]])
    assert fitting_ideal(p, 0).basis() == [[5]]
    assert fitting_ideal(p, 1) == GIdealLattice.unit(gt)  # g - n <= 0
    # n > g, documented convention
    assert fitting_ideal(p, 7) == GIdealLattice.unit(gt)
    s3 = GroupRingElement.from_element(G3, (1,))
    p2 = Presentation(G3, 2, [[s3 - 1, GroupRingElement.zero(G3)]])
    assert fitting_ideal(p2, 0).is_zero()  # too few relations


def test_fitting_examples():
    s3 = GroupRingElement.from_element(G3, (1,))
    pres = Presentation(G3, 1, [[s3 - GroupRingElement.one(G3)]])
    assert fitting_ideal(pres, 0) == augmentation_ideal(G3)
    # Fitt^0((Z/p)^s) inside prod (p Z[G] + I_G), p = 3, s = 2
    m = trivial_action(G3, [3, 3])
    fit = fitting_ideal(m.standard_presentation(), 0)
    bound = ideal_from_generators([GroupRingElement.one(G3).scale(3)]).sum(
        augmentation_ideal(G3))
    assert bound.product(bound).contains(fit)


PIVOT_GROUPS = [AbelianGroup((2,)), AbelianGroup((3,)), AbelianGroup((4,)),
                AbelianGroup((2, 2))]


@st.composite
def _presentations(draw):
    """(presentation, planted): random entries in {0, +-sigma, small Z[G]
    elements}; the first `planted` relations carry a trivial unit in their
    own column and zeros to its left, so the reduction runs at least that
    many steps."""
    group = draw(st.sampled_from(PIVOT_GROUPS))
    g = draw(st.integers(1, 6))
    nrel = draw(st.integers(0, g + 1))

    def unit():
        el = draw(st.sampled_from(group.elements))
        sign = draw(st.sampled_from([1, -1]))
        return GroupRingElement.from_element(group, el).scale(sign)

    def entry():
        kind = draw(st.sampled_from(["zero", "unit", "small", "small"]))
        if kind == "zero":
            return GroupRingElement.zero(group)
        if kind == "unit":
            return unit()
        return GroupRingElement(group, "int", draw(st.lists(
            st.integers(-2, 2), min_size=group.order, max_size=group.order)))

    rels = [[entry() for _ in range(g)] for _ in range(nrel)]
    planted = draw(st.integers(0, min(g, nrel)))
    for i in range(planted):
        rels[i][:i + 1] = [GroupRingElement.zero(group)] * i + [unit()]
    return Presentation(group, g, rels), planted


@given(_presentations())
@settings(max_examples=60, deadline=None)
def test_unit_pivot_reduction_matches_every_minor(case):
    pres, planted = case
    g, rels = _unit_pivot_reduce(pres.relations, pres.n_generators)
    assert g <= pres.n_generators - planted
    assert len(rels) <= len(pres.relations) - (pres.n_generators - g)
    for n in range(pres.n_generators + 1):
        assert fitting_ideal(pres, n) == _fitting_by_minors(pres, n), n


def test_unit_pivot_reduction_to_zero_generators():
    # a unitriangular presentation with one more relation presents 0
    s = GroupRingElement.from_element(G3, (1,))
    rng = random.Random(13)
    g = 4
    rels = []
    for i in range(g):
        row = [GroupRingElement.zero(G3)] * i + [s.scale(-1) if i % 2 else s]
        row += [GroupRingElement(G3, "int",
                                 [rng.randint(-2, 2) for _ in range(3)])
                for _ in range(g - i - 1)]
        rels.append(row)
    rels.append([s - 1] * g)
    pres = Presentation(G3, g, rels)
    assert _unit_pivot_reduce(pres.relations, g) == (0, [])
    for n in range(g + 1):
        assert fitting_ideal(pres, n) == GIdealLattice.unit(G3)
        assert _fitting_by_minors(pres, n) == GIdealLattice.unit(G3)


def test_trivial_action_fitting_closed_form():
    # Fitt^0 of a trivial-action module = prod_i (d_i Z[G] + I_G)
    rng = random.Random(7)
    for invf in [(2,), (3,), (2, 2)]:
        g = AbelianGroup(invf)
        ig = augmentation_ideal(g)
        for _ in range(7):
            orders = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 2))]
            m = trivial_action(g, orders)
            fit = fitting_ideal(m.standard_presentation(), 0)
            expect = GIdealLattice.unit(g)
            for d in orders:
                expect = expect.product(
                    ideal_from_generators(
                        [GroupRingElement.one(g).scale(d)]).sum(ig))
            assert fit == expect, (invf, orders)


def _obfuscate(pres, rng):
    """An equivalent presentation: mixed relations, redundancy, and one
    extra generator with a pivot relation."""
    g = pres.group
    rels = [row.copy() for row in pres.relations]
    # add random combinations of existing rows
    for _ in range(2):
        if rels:
            c = [rng.randint(-2, 2) for _ in rels]
            new = [GroupRingElement.zero(g) for _ in range(pres.n_generators)]
            for ci, row in zip(c, rels):
                if ci:
                    new = [a + b.scale(ci) for a, b in zip(new, row)]
            rels.append(new)
    rng.shuffle(rels)
    # extra generator z with z = (combo of old generators)
    combo = [GroupRingElement(g, "int",
                              [rng.randint(-1, 1) for _ in range(g.order)])
             for _ in range(pres.n_generators)]
    new_rels = []
    for row in rels:
        new_rels.append(row + [GroupRingElement.zero(g)])
    pivot = [c.scale(-1) for c in combo] + [GroupRingElement.one(g)]
    new_rels.append(pivot)
    return Presentation(g, pres.n_generators + 1, new_rels)


def test_presentation_independence():
    rng = random.Random(9)
    count = 0
    for invf in [(2,), (3,), (2, 2)]:
        g = AbelianGroup(invf)
        for _ in range(8):
            k = rng.randint(1, 2)
            orders = [rng.choice([2, 3, 4, 5]) for _ in range(k)]
            while True:
                mats = []
                ok = True
                for _ in range(g.rank):
                    mats.append([[rng.choice([1, -1]) if i == j else 0
                                  for j in range(k)] for i in range(k)])
                try:
                    m = FiniteGModule(g, orders, mats)
                    break
                except Exception:
                    continue
            pres = m.standard_presentation()
            obf = _obfuscate(pres, rng)
            for n in range(3):
                assert fitting_ideal(pres, n) == fitting_ideal(obf, n), \
                    (invf, orders, n)
            count += 1
    assert count >= 20


def test_fitting_inside_annihilator():
    rng = random.Random(10)
    for invf in [(2,), (3,)]:
        g = AbelianGroup(invf)
        for _ in range(8):
            k = rng.randint(1, 2)
            orders = [rng.choice([2, 3, 4]) for _ in range(k)]
            mat = [[rng.choice([1, -1]) if i == j else 0 for j in range(k)]
                   for i in range(k)]
            try:
                m = FiniteGModule(g, orders, [mat] * g.rank)
            except Exception:
                continue
            fit = fitting_ideal(m.standard_presentation(), 0)
            ann = annihilator(m)
            assert ann.contains(fit)


def test_fitting_multiplicative_on_direct_sums():
    rng = random.Random(11)
    g = AbelianGroup((2,))
    for _ in range(10):
        o1 = [rng.choice([2, 3, 4])]
        o2 = [rng.choice([2, 3, 5])]
        m1 = FiniteGModule(g, o1, [[[rng.choice([1, -1])]]])
        m2 = FiniteGModule(g, o2, [[[rng.choice([1, -1])]]])
        f1 = fitting_ideal(m1.standard_presentation(), 0)
        f2 = fitting_ideal(m2.standard_presentation(), 0)
        # direct sum presentation
        both = FiniteGModule(g, o1 + o2,
                             [[[m1.action[0][0][0], 0],
                               [0, m2.action[0][0][0]]]])
        f12 = fitting_ideal(both.standard_presentation(), 0)
        assert f12 == f1.product(f2)


def test_annihilator_examples():
    m1 = trivial_action(G2, [2])
    assert annihilator(m1) == ideal_from_generators(
        [ONE2.scale(2), SIGMA2 - ONE2])
    assert annihilator(trivial_action(G2, [])) == GIdealLattice.unit(G2)
    m2 = FiniteGModule(G2, [3], [[[-1]]])
    assert annihilator(m2) == ideal_from_generators(
        [ONE2.scale(3), SIGMA2 + ONE2])
    # exhaustive cross-check on a tiny module: x annihilates iff it kills
    # every element
    m = FiniteGModule(G2, [4], [[[-1]]])
    ann = annihilator(m)
    for vec in itertools.product(range(-4, 5), repeat=2):
        x = GroupRingElement(G2, "int", list(vec))
        kills = all(not any(m.act_group_ring(x, el))
                    for el in itertools.product(range(4)))
        assert kills == ann.contains_vector(list(vec)), vec


def test_fitting_from_extension():
    m0 = trivial_action(G2, [])
    assert fitting_from_extension(m0, 2) == augmentation_ideal(G2)
    assert fitting_from_extension(m0, 1) == GIdealLattice.unit(G2)
    mcl = trivial_action(G2, [2])
    expect = ideal_from_generators([ONE2.scale(2), SIGMA2 - ONE2]).product(
        augmentation_ideal(G2))
    assert fitting_from_extension(mcl, 2) == expect
    with pytest.raises(UnsupportedCaseError):
        fitting_from_extension(trivial_action(AbelianGroup((2, 2)), []), 2)
    # over the trivial group I_G = 0, so only d = 1 leaves Fitt^0(Cl)
    g1 = AbelianGroup(())
    six = trivial_action(g1, [2, 3])
    assert fitting_from_extension(six, 1) == \
        ideal_from_generators([GroupRingElement.one(g1).scale(6)])
    assert fitting_from_extension(six, 2) == GIdealLattice.zero(g1)
    assert fitting_from_extension(trivial_action(g1, []), 1) == \
        GIdealLattice.unit(g1)


def _planted_extension_presentation(cl, d, rng):
    """Presentation of an extension 0 -> cl -> M -> Z^{d-1}(trivial) -> 0
    with a random cocycle: (sigma - 1) y_j lands in ker(N_G) of cl."""
    g = cl.group
    k = len(cl.orders)
    base = cl.standard_presentation()
    total = k + (d - 1)
    one = GroupRingElement.one(g)
    n_g = GroupRingElement(g, "int", [1] * g.order)
    # candidate cocycle values: elements of cl killed by the norm
    candidates = [el for el in itertools.product(*map(range, cl.orders))
                  if not any(cl.act_group_ring(n_g, el))]
    rels = []
    for row in base.relations:
        rels.append(list(row) + [GroupRingElement.zero(g)] * (d - 1))
    gen = (1,)
    sigma = GroupRingElement.from_element(g, gen)
    for j in range(d - 1):
        w = rng.choice(candidates)
        row = [one.scale(-int(c)) for c in w]
        row += [GroupRingElement.zero(g)] * (d - 1)
        row[k + j] = row[k + j] + (sigma - one)
        rels.append(row)
    return Presentation(g, total, rels)


def test_planted_extensions_match_closed_form():
    # >= 20 planted extensions across p in {2, 3}
    rng = random.Random(12)
    count = 0
    for p in (2, 3):
        g = AbelianGroup((p,))
        units_of_order_p = {
            2: {2: [1], 3: [1, 2], 4: [1, 3], 8: [1, 3, 5, 7], 9: [1, 8]},
            3: {7: [2, 4], 9: [4, 7], 13: [3, 9], 2: [1], 3: [1]},
        }[p]
        for _ in range(12):
            n = rng.choice(list(units_of_order_p))
            u = rng.choice(units_of_order_p[n])
            cl = FiniteGModule(g, [n], [[[u]]])
            d = rng.randint(1, 4)
            pres = _planted_extension_presentation(cl, d, rng)
            direct = fitting_ideal(pres, 0)
            closed = fitting_from_extension(cl, d)
            assert direct == closed, (p, n, u, d)
            count += 1
    assert count >= 20


def test_divisibility_chain_containment():
    # sum_i p^i I^{s-i+d-1} inside p^{floor((s+d-2)/(p-1))} I, d >= 2
    for p in (2, 3):
        g = AbelianGroup((p,))
        ig = augmentation_ideal(g)
        for s in range(0, 5):
            for d in range(2, 5):
                lhs = GIdealLattice.zero(g)
                for i in range(s + 1):
                    term = augmentation_ideal_power(g, s - i + d - 1)
                    lhs = lhs.sum(term.scale(p ** i))
                rhs = ig.scale(p ** ((s + d - 2) // (p - 1)))
                assert rhs.contains(lhs), (p, s, d)
