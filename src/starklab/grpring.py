"""Group rings R[G] for finite abelian G over exact and ball coefficient rings.

G is given by invariant factors (d_1 | ... | d_m); elements are exponent
tuples enumerated in a fixed mixed-radix (lexicographic) order that every
other module reuses.  Coefficient rings: "int", "rat" and "ball" (real
certified enclosures at the working precision in force, see
`ball.working_precision`); a mixed operation runs in the larger of the
two.  Complex values stay per character, outside Z[G]: at |V| >= 1
`lfun` assembles certified complex leading terms into real coefficients,
and at |V| = 0 it builds rational ones with no character.
All values are immutable after construction and all operations are pure.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .ball import Ball, CBall

# dense representations stay comfortable well beyond the exhaustive-test
# sizes (<= 64); the hyperplane identity sweeps need (Z/3)^6 at most
MAX_GROUP_ORDER = 729


class InputError(ValueError):
    """Bad arguments at an operation boundary."""


class AbelianGroup:
    """Finite abelian group as a product of cyclic groups Z/d_i."""

    @lru_cache(maxsize=None)
    def __new__(cls, factors):
        if any(d < 2 for d in factors):
            raise InputError(f"invariant factors must be >= 2: {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise InputError(
                    f"invariant factors must form a chain: {factors}")
        inst = super().__new__(cls)
        inst.invariant_factors = factors
        inst.order = prod(factors) if factors else 1
        if inst.order > MAX_GROUP_ORDER:
            raise InputError(f"a product of {len(factors)} cyclic groups has "
                             f"order above the desk bound {MAX_GROUP_ORDER}")
        inst.exponent = factors[-1] if factors else 1
        inst.rank = len(factors)
        # fixed global element order: mixed-radix lexicographic
        elements = [()]
        for d in factors:
            elements = [e + (a,) for e in elements for a in range(d)]
        # lexicographic in tuple order
        elements.sort()
        inst.elements = elements
        inst.index = {e: i for i, e in enumerate(elements)}
        return inst

    def op(self, a, b):
        return tuple((x + y) % d for x, y, d in
                     zip(a, b, self.invariant_factors))

    def inv(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def identity(self):
        return (0,) * self.rank

    def all_characters(self):
        return [Character(self, t) for t in self.elements]

    @lru_cache(maxsize=None)
    def multiplication_table(self):
        n = self.order
        els = self.elements
        idx = self.index
        return [[idx[self.op(els[i], els[j])] for j in range(n)]
                for i in range(n)]

    def __repr__(self):
        return f"AbelianGroup{self.invariant_factors}"


class Subgroup:
    """Subgroup stored as an element bitmask over the fixed element order."""

    __slots__ = ("group", "generators", "mask", "size")

    def __init__(self, group, generators):
        self.group = group
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != group.rank or any(
                    not 0 <= x < d for x, d in zip(g, group.invariant_factors)):
                raise InputError(f"generator {g} out of range for {group}")
        self.generators = gens
        mask = 1 << group.index[group.identity()]
        frontier = [group.identity()]
        seen = {group.identity()}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = group.op(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    mask |= 1 << group.index[nxt]
                    frontier.append(nxt)
        self.mask = mask
        self.size = len(seen)

    def elements(self):
        g = self.group
        return [g.elements[i] for i in range(g.order) if self.mask >> i & 1]

    def __repr__(self):
        return f"Subgroup(order={self.size} of {self.group})"


# -- coefficient ring plumbing -------------------------------------------

# the coefficient rings by tag, Z < Q < R: a mixed operation runs in the
# larger (`_join`)
_RING_ORDER = {"int": 0, "rat": 1, "ball": 2}
_ZERO = {"int": 0, "rat": Fraction(0), "ball": Ball(0)}


def _coerce(ring, x):
    """x as a coefficient of the ring tagged `ring`."""
    if ring == "int":
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise InputError(f"cannot coerce {x!r} into Z")
    if ring == "rat":
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} into Q")
    if isinstance(x, Ball):
        return x
    if isinstance(x, (int, Fraction)):
        return Ball(x)
    raise InputError(f"cannot coerce {x!r} into a real ball")


def _join(r1, r2):
    """The smallest ring holding both: the ring of a mixed operation."""
    return r1 if _RING_ORDER[r1] >= _RING_ORDER[r2] else r2


class GroupRingElement:
    """Dense element of R[G], immutable by convention; `ring` is the tag
    of R: "int", "rat" or "ball"."""

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group, ring, coeffs):
        if ring not in _RING_ORDER:
            raise InputError(f"unknown ring tag {ring!r}")
        self.group = group
        self.ring = ring
        coeffs = [_coerce(ring, c) for c in coeffs]
        if len(coeffs) != group.order:
            raise InputError("coefficient vector length must equal |G|")
        self.coeffs = coeffs

    # construction helpers: integer coefficients, coerced into the ring
    @staticmethod
    def zero(group, ring="int"):
        return GroupRingElement(group, ring, [0] * group.order)

    @staticmethod
    def one(group, ring="int"):
        return GroupRingElement.from_element(group, group.identity(), ring)

    @staticmethod
    def from_element(group, element, ring="int"):
        c = [0] * group.order
        c[group.index[tuple(element)]] = 1
        return GroupRingElement(group, ring, c)

    def convert(self, ring):
        if ring == self.ring:
            return self
        return GroupRingElement(self.group, ring, self.coeffs)

    def _pair(self, other):
        if isinstance(other, GroupRingElement):
            if other.group is not self.group:
                raise InputError("mixed groups")
            ring = _join(self.ring, other.ring)
            return self.convert(ring), other.convert(ring)
        if isinstance(other, (int, Fraction, Ball)):
            ring = _join(self.ring, _scalar_ring(other))
            me = self.convert(ring)
            c = [_ZERO[ring]] * self.group.order
            c[self.group.index[self.group.identity()]] = _coerce(ring, other)
            return me, GroupRingElement(self.group, ring, c)
        raise InputError(f"cannot combine group ring element with {other!r}")

    def __add__(self, other):
        a, b = self._pair(other)
        return GroupRingElement(a.group, a.ring,
                                [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return GroupRingElement(a.group, a.ring,
                                [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def scale(self, scalar):
        ring = _join(self.ring, _scalar_ring(scalar))
        me = self.convert(ring)
        s = _coerce(ring, scalar)
        return GroupRingElement(me.group, ring, [s * c for c in me.coeffs])

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return self.scale(other)
        a, b = self._pair(other)
        table = self.group.multiplication_table()
        n = self.group.order
        out = [_ZERO[a.ring]] * n
        for i, ca in enumerate(a.coeffs):
            if _is_zero(ca):
                continue
            row = table[i]
            for j, cb in enumerate(b.coeffs):
                if _is_zero(cb):
                    continue
                k = row[j]
                out[k] = out[k] + ca * cb
        return GroupRingElement(a.group, a.ring, out)

    def coefficient(self, element):
        return self.coeffs[self.group.index[tuple(element)]]

    def is_zero(self):
        return all(_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            try:
                a, b = self._pair(other)
            except InputError:
                return NotImplemented
            return a == b
        if "ball" in (self.ring, other.ring):
            raise InputError("ball elements have no decidable equality; "
                             "use certified predicates")
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def int_vector(self):
        """Exact integer coefficient vector (raises if not integral)."""
        out = []
        for c in self.coeffs:
            if isinstance(c, int):
                out.append(c)
            elif isinstance(c, Fraction) and c.denominator == 1:
                out.append(int(c))
            else:
                raise InputError(f"non-integral coefficient {c!r}")
        return out

    def to_json(self):
        return {"group": list(self.group.invariant_factors),
                "ring": self.ring,
                "coeffs": [coeff_json(c) for c in self.coeffs]}

    def __repr__(self):
        terms = []
        for e, c in zip(self.group.elements, self.coeffs):
            if _is_zero(c):
                continue
            terms.append(f"({c})*g{list(e)}")
        return "GR[" + (" + ".join(terms) if terms else "0") + "]"


def _scalar_ring(x):
    if isinstance(x, int):
        return "int"
    if isinstance(x, Fraction):
        return "rat"
    if isinstance(x, Ball):
        return "ball"
    raise InputError(f"unsupported scalar {x!r}")


def _is_zero(c):
    """Is the coefficient exactly zero?  A ball counts only when its
    enclosure is exactly {0}, decided on its raw endpoints."""
    if isinstance(c, Ball):
        return c.is_zero()
    return c == 0


def coeff_json(c):
    """A coefficient as JSON: an int as itself, a rational as "n/d", a ball
    as its {mid, rad}, and a complex ball as {re, im} of those."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, Ball):
        return c.to_json()
    if isinstance(c, CBall):
        return {"re": c.re.to_json(), "im": c.im.to_json()}
    raise TypeError(type(c))


class Character:
    """Complex character of G, valued in powers of zeta_e (e = exponent)."""

    __slots__ = ("group", "exponents")

    def __init__(self, group, exponents):
        self.group = group
        t = tuple(exponents)
        if len(t) != group.rank or any(
                not 0 <= x < d for x, d in zip(t, group.invariant_factors)):
            raise InputError(f"character label {t} out of range")
        self.exponents = t

    def value_exponent(self, element):
        """k with chi(element) = zeta_e^k."""
        g = self.group
        e = g.exponent
        total = 0
        for t, a, d in zip(self.exponents, element, g.invariant_factors):
            total += t * a * (e // d)
        return total % e

    def order(self):
        e = self.group.exponent
        k = gcd(e, *(self.value_exponent(el) for el in self.group.elements))
        return e // k

    def __mul__(self, other):
        if other.group is not self.group:
            raise InputError("mixed groups")
        return Character(self.group, self.group.op(self.exponents,
                                                   other.exponents))

    def __repr__(self):
        return f"Character{self.exponents}"


# -- named operations -----------------------------------------------------

def norm_element(group, subgroup):
    """Sum of the elements of a subgroup, as an integral group-ring element."""
    if not isinstance(subgroup, Subgroup):
        subgroup = Subgroup(group, subgroup)
    if subgroup.group is not group:
        raise InputError("subgroup belongs to a different group")
    coeffs = [1 if subgroup.mask >> i & 1 else 0 for i in range(group.order)]
    return GroupRingElement(group, "int", coeffs)
