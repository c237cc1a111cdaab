"""Small finite structures: multiplicative-group skeletons and tiny finite
fields GF(p^k), for desk-scale orders only.

Both enumerate.  `GroupStructure` lists every element of the group it
presents; it builds the class groups of quadratic fields (`numfld`) and the
quotient of a character realization (`lfun`), and it is the tests'
enumerating oracle.  Its relation rows go to `hnf.diagonalize_relations`
for the invariant factors.  `GF` searches its elements for square roots,
multiplicative generators and irreducible moduli.  The residue groups at T
are not listed: `numfld.ResidueSystem` presents them as products of cyclic
factors.
"""

import itertools
from functools import lru_cache

from .arith import factorint, isprime
from .grpring import InputError

# the desk bound on the relative order of a `GroupStructure` generator
MAX_ORDER = 2 ** 20


class GroupStructure:
    """Structure of a finite abelian group given by generators and an op.

    Elements must be hashable.  Builds a triangular polycyclic presentation:
    leaders g_1, ..., g_k with relative orders r_i such that every element
    has a unique normal form g_1^{a_1} ... g_k^{a_k} (0 <= a_i < r_i), plus
    the relation rows  r_i e_i - (expression of g_i^{r_i} in g_1..g_{i-1}).
    """

    def __init__(self, identity, op, generators):
        self.identity = identity
        self.op = op
        self.leaders = []
        self.rel_orders = []
        self.relation_rows = []
        self.exponents = {identity: ()}
        for g in generators:
            if g in self.exponents:
                continue
            self._extend(g)
        k = len(self.leaders)
        # pad earlier exponent tuples to full length
        self.exponents = {el: tuple(v) + (0,) * (k - len(v))
                          for el, v in self.exponents.items()}
        self.relation_rows = [row + [0] * (k - len(row))
                              for row in self.relation_rows]
        self.order = len(self.exponents)

    def _extend(self, g):
        # find relative order r = min{r >= 1 : g^r in current span}
        power = g
        r = 1
        while power not in self.exponents:
            power = self.op(power, g)
            r += 1
            if r > MAX_ORDER:
                raise RuntimeError("group order exceeds the desk bound")
        tail = list(self.exponents[power])
        k = len(self.leaders)
        self.leaders.append(g)
        self.rel_orders.append(r)
        row = [-c for c in tail] + [0] * (k - len(tail)) + [r]
        self.relation_rows.append(row)
        # extend the span: old elements times g^j, 1 <= j < r
        old = list(self.exponents.items())
        gpow = self.identity
        for j in range(1, r):
            gpow = self.op(gpow, g)
            for el, vec in old:
                self.exponents[self.op(el, gpow)] = tuple(vec) + (0,) * (
                    k - len(vec)) + (j,)

    def dlog(self, element):
        return self.exponents[element]


class GF:
    """GF(p^k) with elements as coefficient tuples over F_p."""

    def __new__(cls, p, k=1):
        # k is spelled out here, so GF(p) and GF(p, 1) share one cache key
        return cls._interned(p, k)

    @classmethod
    @lru_cache(maxsize=None)
    def _interned(cls, p, k):
        if not isprime(p):
            raise InputError(f"GF(p^k) needs a prime p, got {p}")
        if k < 1:
            raise InputError(f"GF(p^k) needs k >= 1, got {k}")
        inst = super().__new__(cls)
        inst.p = p
        inst.k = k
        inst.q = p ** k
        if k == 1:
            inst.modulus = None
        else:
            inst.modulus = _find_irreducible(p, k)
        return inst

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.k - 1)
        v = tuple(int(c) % self.p for c in coeffs)
        if len(v) != self.k:
            raise InputError(f"{coeffs} needs {self.k} coordinates")
        return v

    def zero(self):
        return (0,) * self.k

    def one(self):
        return self.element(1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce mod the monic modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j]
                                            - c * self.modulus[j]) % self.p
        return tuple(prod[:self.k])

    def pow(self, a, n):
        if a == self.zero():
            if n == 0:
                return self.one()
            if n < 0:
                raise ZeroDivisionError
            return self.zero()
        n %= self.q - 1
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def all_elements(self):
        return [tuple(v) for v in itertools.product(range(self.p),
                                                    repeat=self.k)]

    def multiplicative_generator(self):
        n = self.q - 1
        primes = list(factorint(n))
        for cand in self.all_elements():
            if cand == self.zero():
                continue
            if all(self.pow(cand, n // r) != self.one() for r in primes):
                return cand
        raise RuntimeError("no generator found")

    def sqrt(self, a):
        """Any square root of a, or None (brute force; tiny fields only)."""
        for cand in self.all_elements():
            if self.mul(cand, cand) == a:
                return cand
        return None

    def frobenius(self, a):
        return self.pow(a, self.p)

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


def _find_irreducible(p, k):
    """Monic irreducible degree-k coefficient tuple (lowest first)."""
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail)  # x^k + tail
        if _is_irreducible(poly, p, k):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")


def _is_irreducible(tail, p, k):
    # brute root/factor check: no roots for k<=3 is enough for k<=3;
    # for general k test divisibility by all monic polys of degree <= k//2
    def poly_mod(num, den):
        num = list(num)
        dk = len(den) - 1
        for i in range(len(num) - 1, dk - 1, -1):
            c = num[i]
            if c:
                num[i] = 0
                for j in range(dk):
                    num[i - dk + j] = (num[i - dk + j] - c * den[j]) % p
        return num[:dk]

    full = list(tail) + [1]
    for d in range(1, k // 2 + 1):
        for t in itertools.product(range(p), repeat=d):
            den = list(t) + [1]
            if not any(poly_mod(full, den)):
                return False
    return True
