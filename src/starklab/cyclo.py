"""Exact arithmetic in Q(zeta_e), elements reduced mod the e-th cyclotomic
polynomial.  Coefficients are Fractions; e stays small (group exponents at
desk scale), so no CRT/factored representation is used.
"""

from fractions import Fraction
from functools import lru_cache

from .ball import CBall, CertificationError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficient tuple of Phi_e, lowest degree first."""
    # Phi_e = (x^e - 1) / prod_{d | e, d < e} Phi_d, by exact division
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divexact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divexact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise CertificationError(
                f"division by {den} has a non-integral quotient")
        q = c // den[-1]
        out[i] = q
        for j, dc in enumerate(den):
            num[i + j] -= q * dc
    if any(num):
        raise CertificationError(f"division leaves the remainder {num}")
    return out


class CycloField:
    """Q(zeta_e) with dense Fraction-vector elements."""

    @lru_cache(maxsize=None)
    def __new__(cls, e):
        if e < 1:
            from .grpring import InputError  # grpring imports this module
            raise InputError(f"Q(zeta_e) needs e >= 1, got {e}")
        inst = super().__new__(cls)
        inst.e = e
        phi = cyclotomic_polynomial(e)
        inst.modulus = phi
        inst.degree = len(phi) - 1
        # x^k mod Phi_e for k up to 2*degree - 2 (products before reduction)
        pows = []
        cur = [Fraction(0)] * inst.degree
        if inst.degree > 0:
            cur[0] = Fraction(1)
        for k in range(2 * inst.degree):
            pows.append(cur.copy())
            cur = inst._shift_reduce(cur)
        inst._monomials = pows
        return inst

    def _shift_reduce(self, vec):
        # multiply by x, reduce mod Phi (monic)
        out = [Fraction(0)] + vec[:-1] if self.degree > 1 else [Fraction(0)]
        lead = vec[-1]
        if lead:
            for i in range(self.degree):
                out[i] -= lead * self.modulus[i]
        return out

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        if len(vec) < self.degree:
            vec += [Fraction(0)] * (self.degree - len(vec))
        if len(vec) != self.degree:
            from .grpring import InputError  # grpring imports this module
            raise InputError(f"{len(vec)} coefficients for Q(zeta_{self.e}) "
                             f"of degree {self.degree}")
        return CycloElt(self, vec)

    def from_rational(self, q):
        v = [Fraction(0)] * self.degree
        if self.degree:
            v[0] = Fraction(q)
        return CycloElt(self, v)

    def zeta_power(self, k):
        """zeta_e^k as an element."""
        k %= self.e
        if self.degree == 0:
            return CycloElt(self, [])
        # reduce x^k
        v = [Fraction(0)] * self.degree
        v[0] = Fraction(1)
        for _ in range(k):
            v = self._shift_reduce(v)
        return CycloElt(self, v)


class CycloElt:
    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec

    def _coerce(self, other):
        if isinstance(other, CycloElt):
            if other.field.e != self.field.e:
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
        prod = [Fraction(0)] * (2 * d - 1 if d else 0)
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(o.vec):
                    if b:
                        prod[i + j] += a * b
        out = [Fraction(0)] * d
        mon = self.field._monomials
        for k, c in enumerate(prod):
            if c:
                mk = mon[k]
                for i in range(d):
                    if mk[i]:
                        out[i] += c * mk[i]
        return CycloElt(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.field.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vec == o.vec

    def __hash__(self):
        return hash((self.field.e, tuple(self.vec)))

    def is_zero(self):
        return not any(self.vec)

    def to_cball(self):
        """Certified complex enclosure via root-of-unity balls."""
        out = CBall(0, 0)
        for k, c in enumerate(self.vec):
            if c:
                out = out + CBall.root_of_unity(k, self.field.e) * c
        return out

    def __repr__(self):
        e = self.field.e
        terms = [f"{c}*z{e}^{k}" if k else f"{c}"
                 for k, c in enumerate(self.vec) if c]
        return "Cyclo(" + (" + ".join(terms) or "0") + ")"
