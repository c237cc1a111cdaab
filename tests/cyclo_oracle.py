"""Exact arithmetic in Q(zeta_e) for the character-route oracles of
`test_lfun`: elements are Fraction vectors reduced mod the e-th cyclotomic
polynomial, which sympy supplies.  `lfun` reads a complex character's
values as certified balls; the oracles sum the same L-values exactly here,
and `CycloElt.enclosure` turns an exact value into a ball to compare with.
pytest does not collect this file.
"""

from fractions import Fraction
from functools import lru_cache

import sympy

from starklab.ball import CBall


class CycloField:
    """Q(zeta_e) with dense Fraction-vector elements, one object per e."""

    @lru_cache(maxsize=None)
    def __new__(cls, e):
        inst = super().__new__(cls)
        inst.e = e
        # Phi_e, monic, with its integer coefficients lowest degree first
        phi = sympy.Poly(sympy.cyclotomic_poly(e, sympy.Symbol("x")))
        inst.modulus = [int(c) for c in reversed(phi.all_coeffs())]
        inst.degree = len(inst.modulus) - 1
        # x^k mod Phi_e for k up to 2 degree - 2, the products' degrees
        cur = [Fraction(1)] + [Fraction(0)] * (inst.degree - 1)
        inst._monomials = []
        for _ in range(2 * inst.degree - 1):
            inst._monomials.append(cur)
            cur = inst._shift_reduce(cur)
        return inst

    def _shift_reduce(self, vec):
        """x times vec, reduced mod the monic Phi_e."""
        lead = vec[-1]
        out = [Fraction(0)] + vec[:-1]
        return [c - lead * m for c, m in zip(out, self.modulus)]

    def element(self, coeffs):
        return CycloElt(self, [Fraction(c) for c in coeffs])

    def from_rational(self, q):
        return self.element([q] + [0] * (self.degree - 1))

    def zeta_power(self, k):
        """zeta_e^k as an element."""
        v = self.from_rational(1).vec
        for _ in range(k % self.e):
            v = self._shift_reduce(v)
        return CycloElt(self, v)


class CycloElt:
    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec

    def _coerce(self, other):
        if isinstance(other, CycloElt):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElt(self.field, [a + b for a, b in zip(self.vec, o.vec)])

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloElt(self.field, [-a for a in self.vec])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(o.vec):
                    if b:
                        prod[i + j] += a * b
        out = [Fraction(0)] * d
        for c, mono in zip(prod, self.field._monomials):
            if c:
                for i, m in enumerate(mono):
                    if m:
                        out[i] += c * m
        return CycloElt(self.field, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vec == o.vec

    def __hash__(self):
        return hash((self.field.e, tuple(self.vec)))

    def enclosure(self):
        """A certified complex ball around the element, from root-of-unity
        balls at the working precision."""
        out = CBall(0, 0)
        for k, c in enumerate(self.vec):
            if c:
                out = out + CBall.root_of_unity(k, self.field.e) * c
        return out
