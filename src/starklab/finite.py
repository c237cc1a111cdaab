"""Multiplicative-group skeletons for desk-scale orders.

`GroupStructure` lists every element of the group it presents; it builds
the class groups of quadratic fields (`numfld`) and the quotient of a
character realization (`lfun`), and it is the tests' enumerating oracle.
Its relation rows go to `hnf.diagonalize_relations` for the invariant
factors.  The residue groups at T are not listed: `numfld.ResidueSystem`
presents them as products of cyclic factors.
"""

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

