"""Index-p subgroups of (Z/p)^m and the norm-element identity they satisfy.

The proper subgroups of index p are the hyperplanes ker(n) = {x : n.x = 0
(mod p)}, one for each projective normal n, keyed by the representative
whose first nonzero coordinate (the pivot k) is 1, which is also the
lexicographically smallest one.  Each kernel is generated directly as its
p^(m-1) indices in the group's mixed-radix element order, without a scan
of the group: the coordinates before k are free and add whole blocks of
p^(m-k) indices, the coordinates after k are free, and x_k is
-(n.x over them) mod p.  The ambient group itself is included when
representing the full "index at most p" family.  The norm-sum identity
adds the kernels into one integer count array, one plane at a time, and
builds a single group-ring element at the end.
"""

from itertools import product

from .arith import CapacityError, isprime
from .ball import CertificationError
from .grpring import AbelianGroup, GroupRingElement, InputError

DESK_BOUND = 3 ** 6


class HyperplaneSet:
    """All subgroups of (Z/p)^m of index at most p.

    Holds the projective normals; a hyperplane's members are listed by
    `kernel` only when asked for.
    """

    __slots__ = ("p", "m", "group", "normals")

    def __init__(self, p, m):
        _check_desk_shape(p, m)
        self.p = p
        self.m = m
        self.group = AbelianGroup((p,) * m)
        self.normals = projective_normals(p, m)

    def kernel(self, normal):
        """Indices of the p^(m-1) members of ker(normal), for a normal
        whose first nonzero coordinate is 1."""
        p, m = self.p, self.m
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
    """
    hs = enumerate_omega_star(p, m) if hyperplanes is None else hyperplanes
    if (hs.p, hs.m) != (p, m):
        raise InputError(f"{hs!r} is not the hyperplane set of p={p}, m={m}")
    g = hs.group
    counts = [0] * g.order
    for normal in hs.normals:
        for i in hs.kernel(normal):
            counts[i] += 1
    # N_G enters once as a subgroup of index 1 and then with the coefficient
    full = 1 + (p ** (m - 1) - 1) - sum(p ** i for i in range(m))
    counts = [c + full for c in counts]
    expected = [0] * g.order
    expected[g.index[g.identity()]] = p ** (m - 1)
    if counts != expected:
        i = next(i for i, (c, e) in enumerate(zip(counts, expected)) if c != e)
        raise CertificationError(
            f"norm-sum identity failed for p={p}, m={m}: coefficient "
            f"{counts[i]} at {g.elements[i]}, expected {expected[i]}")
    return GroupRingElement(g, "int", counts)
