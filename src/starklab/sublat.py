"""Index-p subgroups of (Z/p)^m and the norm-element identity they satisfy.

The proper subgroups of index p are the hyperplanes ker(n) = {x : n.x = 0
(mod p)}, one for each projective normal n, keyed by the representative
whose first nonzero coordinate (the pivot k) is 1, which is also the
lexicographically smallest one.  The ambient group itself is included
when representing the full "index at most p" family.

The norm-sum identity holds each hyperplane as one integer with a W-bit
lane per group element, in the group's mixed-radix element order (lane i
at bit W*i, x_(m-1) the lowest digit), and a 1 in the lanes of its
members.  W is the bit length of the number of planes summed, and no lane
of the sum exceeds that number, so the planes add as integers without a
carry from one lane into the next.  A plane is built from its normal's
coordinates, never by listing its p^(m-1) members: for each residue v
the lanes of the suffix points x_(k+1..m-1) with n.x = v, one coordinate
at a time from the last, then x_k = -v placed above them, then the p^k
blocks of the free prefix tiled by one multiplication with a repunit.
The normals are walked in the order of their reversed coordinates, so
each one shares the suffix states of the coordinates it has in common
with the one before.
"""

from itertools import product

from .arith import CapacityError, isprime
from .ball import CertificationError
from .grpring import AbelianGroup, GroupRingElement, InputError

DESK_BOUND = 3 ** 6


class HyperplaneSet:
    """All subgroups of (Z/p)^m of index at most p.

    Holds the projective normals; no hyperplane's members are listed.
    """

    __slots__ = ("p", "m", "group", "normals")

    def __init__(self, p, m):
        _check_desk_shape(p, m)
        self.p = p
        self.m = m
        self.group = AbelianGroup((p,) * m)
        self.normals = projective_normals(p, m)

    def count_proper(self):
        return len(self.normals)

    def count_avoiding(self, v):
        """Number of proper hyperplanes not containing the nonzero vector v.

        Returns (avoiding, containing); avoiding = p^(m-1) always.
        """
        p = self.p
        v = tuple(int(a) % p for a in v)
        if len(v) != self.m:
            raise InputError(f"element {v} is not in (Z/{p})^{self.m}")
        if not any(v):
            raise InputError("element must be nonzero")
        containing = sum(
            1 for n in self.normals
            if sum(a * b for a, b in zip(n, v)) % p == 0)
        return len(self.normals) - containing, containing

    def __repr__(self):
        return (f"HyperplaneSet(p={self.p}, m={self.m}, "
                f"proper={len(self.normals)})")


def _check_desk_shape(p, m):
    """(Z/p)^m must have p prime, m >= 1 and at most DESK_BOUND elements.
    The size is checked first, so a huge p never reaches `isprime`."""
    if m < 1:
        raise InputError("rank must be >= 1")
    if p ** m > DESK_BOUND:
        raise CapacityError(f"{p}^{m} exceeds desk bound {DESK_BOUND}")
    if not isprime(p):
        raise InputError(f"{p} is not prime")


def projective_normals(p, m):
    """Nonzero vectors of F_p^m up to scalar, smallest representative first.

    The smallest representative has a 1 at its first nonzero coordinate k;
    a later pivot sorts first, so the list is in lexicographic order.
    """
    return [(0,) * k + (1,) + tail
            for k in reversed(range(m))
            for tail in product(range(p), repeat=m - 1 - k)]


def enumerate_omega_star(p, m):
    """The family of subgroups of index <= p, with its counting facts."""
    hs = HyperplaneSet(p, m)
    expected = (p ** m - 1) // (p - 1)
    if len(hs.normals) != expected:
        raise CertificationError(
            f"{len(hs.normals)} projective normals for p={p}, m={m}, "
            f"expected {expected}")
    return hs


def norm_sum_identity(p, m, hyperplanes=None):
    """The identity sum_H N_H + ((p^(m-1)-1) - sum_i p^i) N_G = p^(m-1).

    H ranges over all subgroups of index at most p.  Computes the left side
    exactly in Z[G], raises CertificationError unless it is the constant
    p^(m-1), and returns it.  hyperplanes: the HyperplaneSet(p, m) a caller
    already holds; one is built here without it.

    The proper planes are summed as lane integers (module docstring), in
    the order of the normals' reversed coordinates: one W-bit lane per
    element, W the bit length of the number of normals, so the count at
    any element, at most that number, stays in its lane.  The total is
    decoded once into one count per element.
    """
    hs = enumerate_omega_star(p, m) if hyperplanes is None else hyperplanes
    if (hs.p, hs.m) != (p, m):
        raise InputError(f"{hs!r} is not the hyperplane set of p={p}, m={m}")
    g = hs.group
    width = len(hs.normals).bit_length()
    total = sum(_plane_lanes(hs, width))
    lane = (1 << width) - 1
    # N_G enters once as a subgroup of index 1 and then with the coefficient
    full = 1 + (p ** (m - 1) - 1) - sum(p ** i for i in range(m))
    counts = [(total >> width * i & lane) + full for i in range(g.order)]
    expected = [0] * g.order
    expected[g.index[g.identity()]] = p ** (m - 1)
    if counts != expected:
        i = next(i for i, (c, e) in enumerate(zip(counts, expected)) if c != e)
        raise CertificationError(
            f"norm-sum identity failed for p={p}, m={m}: coefficient "
            f"{counts[i]} at {g.elements[i]}, expected {expected[i]}")
    return GroupRingElement(g, "int", counts)


def _plane_lanes(hs, width):
    """ker(n) as a lane integer of the given width, for each normal n of
    hs in the order of n's reversed coordinates.

    states[d][v] holds the lanes, at offsets within a block of p^d
    elements, of the points of the last d coordinates with n.x = v over
    them; keys[d] is the coordinate of n that states[d + 1] read, so a
    normal reuses the states of the suffix it shares with the one before.
    """
    p, m = hs.p, hs.m
    # repunits[k] holds a 1 at the start of each of the p^k blocks of
    # p^(m-k) lanes that the free prefix x_0..x_(k-1) selects
    span = (1 << width * p ** m) - 1
    repunits = [span // ((1 << width * p ** (m - k)) - 1) for k in range(m)]
    keys, states = [], [[1] + [0] * (p - 1)]
    for normal in sorted(hs.normals, key=lambda n: n[::-1]):
        k = next(i for i, a in enumerate(normal) if a)
        tail = normal[:k:-1]
        shared = 0
        for a, b in zip(keys, tail):
            if a != b:
                break
            shared += 1
        del keys[shared:], states[shared + 1:]
        for c in tail[shared:]:
            step, extended = width * p ** len(keys), [0] * p
            for u, lanes in enumerate(states[-1]):
                if lanes:
                    for a in range(p):
                        extended[(u + c * a) % p] |= lanes << a * step
            states.append(extended)
            keys.append(c)
        yield _kernel_lanes(states[-1], p, width * p ** len(keys),
                            repunits[k])


def _kernel_lanes(suffix, p, step, repunit):
    """The lanes of ker(n), n's pivot coordinate 1, from the residue states
    of n's suffix after the pivot: x_pivot = -v sits above suffix[v], step
    bits per unit, and the repunit tiles that block over the free prefix."""
    return sum(s << (-v % p) * step for v, s in enumerate(suffix)) * repunit
