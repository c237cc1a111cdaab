"""Index-p subgroups of (Z/p)^m and the norm-element identity they satisfy.

Proper index-p subgroups are hyperplanes, keyed by a projective normal
vector (lexicographically smallest nonzero representative).  The ambient
group itself is included when representing the full "index at most p"
family.
"""

from math import prod

from sympy import isprime

from .grpring import (AbelianGroup, GroupRingElement, InputError, Subgroup,
                      norm_element)

DESK_BOUND = 3 ** 6


class CapacityError(RuntimeError):
    """A desk-scale bound was exceeded."""


class HyperplaneSet:
    """All subgroups of (Z/p)^m of index at most p."""

    __slots__ = ("p", "m", "group", "normals", "planes", "includes_full")

    def __init__(self, p, m):
        _check_desk_shape(p, m)
        self.p = p
        self.m = m
        self.group = AbelianGroup((p,) * m)
        self.normals = projective_normals(p, m)
        self.planes = [self._plane_subgroup(v) for v in self.normals]
        self.includes_full = True

    def _plane_subgroup(self, normal):
        g = self.group
        members = [el for el in g.elements
                   if sum(a * b for a, b in zip(el, normal)) % self.p == 0]
        return Subgroup.from_members(g, members)

    def full_group(self):
        return Subgroup.from_members(self.group, self.group.elements)

    def all_subgroups(self):
        """Proper hyperplanes plus the group itself."""
        return self.planes + [self.full_group()]

    def count_proper(self):
        return len(self.planes)

    def __repr__(self):
        return f"HyperplaneSet(p={self.p}, m={self.m}, proper={len(self.planes)})"


def _check_desk_shape(p, m):
    """(Z/p)^m must have p prime, m >= 1 and at most DESK_BOUND elements."""
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    if m < 1:
        raise InputError("rank must be >= 1")
    if p ** m > DESK_BOUND:
        raise CapacityError(f"p^m = {p**m} exceeds desk bound {DESK_BOUND}")


def projective_normals(p, m):
    """Nonzero vectors of F_p^m up to scalar, smallest representative first."""
    normals = []
    seen = set()
    # lexicographic enumeration makes the smallest representative canonical
    def vectors():
        def rec(prefix):
            if len(prefix) == m:
                yield tuple(prefix)
                return
            for a in range(p):
                yield from rec(prefix + [a])
        yield from rec([])

    for v in vectors():
        if not any(v) or v in seen:
            continue
        normals.append(v)
        for s in range(1, p):
            seen.add(tuple(a * s % p for a in v))
    return normals


def enumerate_omega_star(p, m):
    """The family of subgroups of index <= p, with its counting facts."""
    hs = HyperplaneSet(p, m)
    expected = (p ** m - 1) // (p - 1)
    assert len(hs.normals) == expected, "projective count mismatch"
    return hs


def count_avoiding(p, m, v):
    """Number of proper hyperplanes not containing the nonzero vector v.

    Returns (avoiding, containing); avoiding = p^(m-1) always.
    """
    v = tuple(int(a) % p for a in v)
    if not any(v):
        raise InputError("element must be nonzero")
    _check_desk_shape(p, m)
    normals = projective_normals(p, m)
    containing = sum(
        1 for n in normals
        if sum(a * b for a, b in zip(n, v)) % p == 0)
    avoiding = len(normals) - containing
    return avoiding, containing


def norm_sum_identity(p, m):
    """The identity sum_H N_H + ((p^(m-1)-1) - sum_i p^i) N_G = p^(m-1).

    H ranges over all subgroups of index at most p.  Computes the left side
    exactly in Z[G], asserts it is the constant p^(m-1), and returns it.
    """
    hs = enumerate_omega_star(p, m)
    g = hs.group
    total = GroupRingElement.zero(g, "int")
    for sub in hs.all_subgroups():
        total = total + norm_element(g, sub)
    coefficient = (p ** (m - 1) - 1) - sum(p ** i for i in range(m))
    n_g = norm_element(g, hs.full_group())
    total = total + n_g.scale(coefficient)
    expected = GroupRingElement.one(g).scale(p ** (m - 1))
    if total != expected:
        raise AssertionError(
            f"norm-sum identity failed for p={p}, m={m}: {total!r}")
    return total


def brute_force_index_p_subgroups(p, m):
    """Oracle: subgroups of index <= p found by closing generator tuples.

    Exhaustive over all (m-1)-tuples (plus the full group); only sensible
    for p^m <= 27.
    """
    if p ** m > 27:
        raise CapacityError("oracle restricted to p^m <= 27")
    g = AbelianGroup((p,) * m)
    found = {}
    import itertools
    target = p ** (m - 1)
    for gens in itertools.product(g.elements, repeat=max(m - 1, 1)):
        sub = Subgroup(g, list(gens))
        if sub.size == target:
            found[sub.mask] = sub
    subs = list(found.values())
    subs.append(Subgroup(g, g.elements))
    return subs
