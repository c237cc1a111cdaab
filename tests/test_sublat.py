import itertools

import pytest
from sympy import primerange

from starklab.grpring import (AbelianGroup, GroupRingElement, InputError,
                              Subgroup, norm_element)
from starklab.sublat import (CapacityError, HyperplaneSet,
                             enumerate_omega_star, norm_sum_identity)


def brute_force_index_p_subgroups(p, m):
    """Oracle: subgroups of index <= p found by closing generator tuples.

    Exhaustive over all (m-1)-tuples (plus the full group); only sensible
    for p^m <= 27.
    """
    if p ** m > 27:
        raise CapacityError("oracle restricted to p^m <= 27")
    g = AbelianGroup((p,) * m)
    found = {}
    target = p ** (m - 1)
    for gens in itertools.product(g.elements, repeat=max(m - 1, 1)):
        sub = Subgroup(g, list(gens))
        if sub.size == target:
            found[sub.mask] = sub
    subs = list(found.values())
    subs.append(Subgroup(g, g.elements))
    return subs


def from_members(group, members):
    """The Subgroup whose elements are `members`, without the closure that
    `Subgroup(group, generators)` runs over them."""
    sub = Subgroup(group, [])
    sub.generators = [tuple(m) for m in members]
    sub.mask = sum(1 << group.index[tuple(m)] for m in members)
    sub.size = len(members)
    return sub


def kernel(hs, normal):
    """Indices of the p^(m-1) members of ker(normal), for a normal whose
    first nonzero coordinate is 1, listed without a scan of the group.

    The listing oracle of the lane sum in `norm_sum_identity`: the
    coordinates before the pivot k are free and add whole blocks of
    p^(m-k) indices, the coordinates after k are free, and x_k is
    -(n.x over them) mod p."""
    p, m = hs.p, hs.m
    k = next(i for i, a in enumerate(normal) if a)
    # (partial dot product, index) of every suffix after the pivot
    suffix = [(0, 0)]
    for j in range(k + 1, m):
        c, w = normal[j], p ** (m - 1 - j)
        suffix = [(d + c * a, s + a * w) for d, s in suffix
                  for a in range(p)]
    w = p ** (m - 1 - k)
    base = [-d % p * w + s for d, s in suffix]
    return [off + b for off in range(0, p ** m, p * w) for b in base]


def all_subgroups(hs):
    """The proper hyperplanes, from the `kernel` listing, plus the group."""
    g, els = hs.group, hs.group.elements
    return [from_members(g, [els[i] for i in sorted(kernel(hs, n))])
            for n in hs.normals] + [from_members(g, els)]


def scanned_plane(hs, normal):
    """ker(normal) by its definition {x : normal.x = 0 (mod p)}."""
    members = [el for el in hs.group.elements
               if sum(a * b for a, b in zip(el, normal)) % hs.p == 0]
    return from_members(hs.group, members)


def desk_shapes(bound):
    return [(p, m) for p in primerange(2, bound + 1)
            for m in range(1, bound.bit_length()) if p ** m <= bound]


def test_omega_star_counts():
    assert enumerate_omega_star(2, 2).count_proper() == 3
    assert len(all_subgroups(enumerate_omega_star(2, 2))) == 4
    assert enumerate_omega_star(3, 2).count_proper() == 4
    assert enumerate_omega_star(2, 1).count_proper() == 1
    assert len(all_subgroups(enumerate_omega_star(2, 1))) == 2
    for p, m in [(2, 3), (3, 3), (5, 2)]:
        hs = enumerate_omega_star(p, m)
        assert hs.count_proper() == (p ** m - 1) // (p - 1)


def test_input_validation():
    with pytest.raises(InputError):
        enumerate_omega_star(4, 2)
    with pytest.raises(CapacityError):
        enumerate_omega_star(3, 7)
    with pytest.raises(InputError):
        HyperplaneSet(2, 2).count_avoiding((0, 0))
    with pytest.raises(InputError):
        HyperplaneSet(4, 2).count_avoiding((1, 0))
    with pytest.raises(CapacityError):
        HyperplaneSet(3, 7).count_avoiding((1,) + (0,) * 6)


def test_count_avoiding():
    assert HyperplaneSet(2, 2).count_avoiding((1, 0)) == (2, 1)
    assert HyperplaneSet(3, 2).count_avoiding((1, 2)) == (3, 1)
    assert HyperplaneSet(2, 3).count_avoiding((1, 1, 0)) == (4, 3)
    # every nonzero element avoids exactly p^{m-1} hyperplanes
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        hs = enumerate_omega_star(p, m)
        for el in hs.group.elements:
            if not any(el):
                continue
            av, cont = hs.count_avoiding(el)
            assert av == p ** (m - 1)
            assert cont == (p ** (m - 1) - 1) // (p - 1)


def test_norm_sum_identity_small():
    x = norm_sum_identity(enumerate_omega_star(2, 2))
    assert x.coefficient((0, 0)) == 2 and sum(x.coeffs) == 2
    assert norm_sum_identity(enumerate_omega_star(2, 1)) \
        .coefficient((0,)) == 1
    assert norm_sum_identity(enumerate_omega_star(3, 2)) \
        .coefficient((0, 0)) == 3


def test_brute_force_oracle_agreement():
    for p, m in [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]:
        oracle = {s.mask for s in brute_force_index_p_subgroups(p, m)}
        fast = {s.mask for s in all_subgroups(enumerate_omega_star(p, m))}
        assert oracle == fast


def test_parametrised_kernels_match_the_scan():
    for p, m in desk_shapes(729):
        hs = enumerate_omega_star(p, m)
        planes = all_subgroups(hs)[:-1]
        assert [s.mask for s in planes] == \
            [scanned_plane(hs, n).mask for n in hs.normals], (p, m)
        assert all(s.size == p ** (m - 1) for s in planes)


def test_norm_sum_identity_equals_the_dense_sum():
    # every desk shape, (2, 9) among them: its identity lane holds 511,
    # the largest count its 9-bit lanes can hold
    for p, m in desk_shapes(729):
        hs = enumerate_omega_star(p, m)
        g = hs.group
        total = GroupRingElement.zero(g, "int")
        for plane in all_subgroups(hs)[:-1]:
            total = total + norm_element(g, plane)
        coefficient = (p ** (m - 1) - 1) - sum(p ** i for i in range(m))
        whole = from_members(g, g.elements)
        total = total + norm_element(g, whole).scale(1 + coefficient)
        assert norm_sum_identity(hs) == total, (p, m)


def test_count_avoiding_rejects_an_element_of_another_rank():
    with pytest.raises(InputError):
        HyperplaneSet(2, 3).count_avoiding((1,))
    with pytest.raises(InputError):
        HyperplaneSet(2, 2).count_avoiding((1, 1, 1))
