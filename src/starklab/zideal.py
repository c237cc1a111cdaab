"""Ideals of Z[G] as G-stable integer lattices in Hermite normal form,
Fitting ideals of finitely presented Z[G]-modules, and finite G-modules
with their standard presentations.  `annihilator` computes Ann(M) by an
independent kernel solve: the annihilation check asks whether it contains
im(epsilon), and the tests compare Fitting ideals against it
(Fitt <= Ann).

Every ideal is identified with its lattice of coefficient vectors inside
Z^{|G|}; equality and containment are decided on canonical HNF bases, so no
Groebner-style machinery is needed.

A Fitting ideal depends only on the module, not on its presentation
(Northcott, *Finite Free Resolutions*, 1976, ch. 3).  So `fitting_ideal`
first eliminates every generator that some relation solves for with a
trivial-unit coefficient +-sigma (a Tietze move), and only then takes the
minors of what is left: the number of minors falls with the number of
generators and relations removed, and a presentation left with fewer
relations than the minor size gives the zero ideal with no determinant.
"""

import itertools

from . import hnf
from .arith import isprime
from .ball import CertificationError
from .grpring import GroupRingElement, InputError


class UnsupportedCaseError(RuntimeError):
    """A case outside the supported desk-scale shapes."""


def _translates(table, vec):
    """The translates sigma * vec of a coefficient vector over Z[G], one
    for each row sigma of the group's multiplication table."""
    for row in table:
        moved = [0] * len(row)
        for j, c in enumerate(vec):
            if c:
                moved[row[j]] = c
        yield moved


class GIdealLattice:
    """A G-stable sublattice of Z[G] ~ Z^{|G|}, canonical HNF basis."""

    __slots__ = ("group", "lattice")

    def __init__(self, group, lattice):
        self.group = group
        self.lattice = lattice  # hnf.IntLattice

    @staticmethod
    def from_vectors(group, vectors):
        """The G-stable lattice spanned by the vectors and their translates
        (the zero ideal when there are none)."""
        lat = hnf.IntLattice(group.order)
        table = group.multiplication_table()
        for v in vectors:
            for moved in _translates(table, v):
                lat.add_vector(moved)
        return GIdealLattice(group, lat)

    @staticmethod
    def zero(group):
        return GIdealLattice(group, hnf.IntLattice(group.order))

    @staticmethod
    def unit(group):
        lat = hnf.IntLattice(group.order)
        for i in range(group.order):
            row = [0] * group.order
            row[i] = 1
            lat.add_vector(row)
        return GIdealLattice(group, lat)

    def basis(self):
        return self.lattice.canonical()

    @property
    def rank(self):
        return self.lattice.rank

    def is_zero(self):
        return self.rank == 0

    def is_g_stable(self):
        table = self.group.multiplication_table()
        return all(self.lattice.contains_vector(moved)
                   for row in self.basis()
                   for moved in _translates(table, row))

    def contains_vector(self, vec):
        return self.lattice.contains_vector(list(vec))

    def contains(self, other):
        """Ideal containment other <= self via HNF membership of basis rows."""
        return all(self.lattice.contains_vector(r) for r in other.basis())

    def __eq__(self, other):
        if not isinstance(other, GIdealLattice):
            return NotImplemented
        return self.group is other.group and self.basis() == other.basis()

    def product(self, other):
        if other.group is not self.group:
            raise InputError("mixed groups")
        if self.is_zero() or other.is_zero():
            return GIdealLattice.zero(self.group)
        table = self.group.multiplication_table()
        n = self.group.order
        lat = hnf.IntLattice(n)
        for a in self.basis():
            for b in other.basis():
                prod = [0] * n
                for i, ca in enumerate(a):
                    if ca:
                        row = table[i]
                        for j, cb in enumerate(b):
                            if cb:
                                prod[row[j]] += ca * cb
                lat.add_vector(prod)
        # products of G-stable lattices are G-stable already
        return GIdealLattice(self.group, lat)

    def sum(self, other):
        if other.group is not self.group:
            raise InputError("mixed groups")
        lat = hnf.IntLattice(self.group.order)
        for r in self.basis():
            lat.add_vector(list(r))
        for r in other.basis():
            lat.add_vector(list(r))
        return GIdealLattice(self.group, lat)

    def power(self, c):
        if c < 0:
            raise InputError("nonnegative powers only")
        out = GIdealLattice.unit(self.group)
        for _ in range(c):
            out = out.product(self)
        return out

    def scale(self, n):
        lat = hnf.IntLattice(self.group.order)
        for r in self.basis():
            lat.add_vector([n * c for c in r])
        return GIdealLattice(self.group, lat)

    def __repr__(self):
        if self.is_zero():
            return f"GIdeal(0 of {self.group})"
        if self == GIdealLattice.unit(self.group):
            return f"GIdeal(1 of {self.group})"
        return f"GIdeal(rank {self.rank} of {self.group})"


def ideal_from_generators(gens):
    """Smallest G-stable lattice containing the given elements of Z[G]."""
    if not gens:
        raise InputError("need at least one generator")
    group = gens[0].group
    vecs = []
    for g in gens:
        if g.group is not group:
            raise InputError("mixed groups")
        vecs.append(g.int_vector())
    return GIdealLattice.from_vectors(group, vecs)


def augmentation_ideal(group):
    """I_G, generated by sigma - 1 over the group generators."""
    one = GroupRingElement.one(group)
    gens = []
    for k in range(group.rank):
        el = tuple(1 if i == k else 0 for i in range(group.rank))
        gens.append(GroupRingElement.from_element(group, el) - one)
    if not gens:
        return GIdealLattice.zero(group)
    return ideal_from_generators(gens)


def augmentation_ideal_power(group, c):
    """The lattice of I_G^c inside Z^{|G|}; I_G^0 = Z[G]."""
    if c < 0:
        raise InputError("power must be nonnegative")
    return augmentation_ideal(group).power(c)


class Presentation:
    """Relations-by-generators matrix over Z[G] presenting a module."""

    __slots__ = ("group", "n_generators", "relations")

    def __init__(self, group, n_generators, relations):
        self.group = group
        self.n_generators = n_generators
        rels = []
        for row in relations:
            if len(row) != n_generators:
                raise InputError("relation width must match generator count")
            coerced = []
            for entry in row:
                if isinstance(entry, GroupRingElement):
                    if entry.group is not group:
                        raise InputError("mixed groups")
                    coerced.append(entry.convert("int"))
                else:
                    coerced.append(GroupRingElement.one(group).scale(int(entry)))
            rels.append(coerced)
        self.relations = rels

    def __repr__(self):
        return (f"Presentation({self.n_generators} generators, "
                f"{len(self.relations)} relations over {self.group})")


def fitting_ideal(pres, n=0):
    """n-th Fitting ideal: the ideal of (g-n)-minors of the relation matrix.

    The presentation is first Tietze-reduced at trivial-unit pivots
    (`_unit_pivot_reduce`), which drops one generator and one relation per
    pivot and presents the same module.  A Fitting ideal depends only on the
    module (Northcott, *Finite Free Resolutions*, 1976, ch. 3), so every
    Fitting ideal is unchanged.  Conventions, on the reduced presentation:
    size <= 0 gives the unit ideal (this covers n >= g); too few relations
    for the required size gives the zero ideal.
    """
    if n < 0:
        raise InputError("Fitting index must be nonnegative")
    g, relations = _unit_pivot_reduce(pres.relations, pres.n_generators)
    size = g - n
    if size <= 0:
        return GIdealLattice.unit(pres.group)
    if len(relations) < size:
        return GIdealLattice.zero(pres.group)
    group = pres.group
    lat = hnf.IntLattice(group.order)
    unit = GIdealLattice.unit(group)
    acc = GIdealLattice(group, lat)
    table = group.multiplication_table()
    for cols in itertools.combinations(range(g), size):
        for rows in itertools.combinations(range(len(relations)), size):
            sub = [[relations[r][c] for c in cols] for r in rows]
            det = _det_group_ring(sub)
            vec = det.int_vector()
            if not any(vec):
                continue
            if acc.contains_vector(vec):
                continue
            # G-stabilize the new generator into the accumulator
            for moved in _translates(table, vec):
                lat.add_vector(moved)
            acc = GIdealLattice(group, lat)
            if acc == unit:
                return acc
    return acc


def _unit_pivot_reduce(relations, g):
    """Tietze reduction of g-generator relation rows at trivial units.

    While some relation r has an entry u = +-sigma in column c, the relation
    solves e_c = -u^-1 (sum over j != c of r_j e_j); substituting that into
    every other relation r' subtracts (r'_c u^-1) r from it, clears column c,
    and leaves the pivot relation saying only what defines e_c.  So column
    c and the pivot relation go, with the module unchanged.  Relations that
    become zero are dropped: they add no nonzero minor.  Returns
    (generator count, relation rows).
    """
    rels = [row for row in relations if not all(x.is_zero() for x in row)]
    while True:
        pivot = next(((r, c, inv) for r, row in enumerate(rels)
                      for c, x in enumerate(row)
                      if (inv := _trivial_unit_inverse(x)) is not None), None)
        if pivot is None:
            return g, rels
        r, c, inv = pivot
        prow = rels.pop(r)
        reduced = []
        for row in rels:
            if not row[c].is_zero():
                f = row[c] * inv
                row = [x - f * y for x, y in zip(row, prow)]
            row = row[:c] + row[c + 1:]
            if not all(x.is_zero() for x in row):
                reduced.append(row)
        rels = reduced
        g -= 1


def _trivial_unit_inverse(x):
    """u^-1 when the Z[G]-element x is a trivial unit u = +-sigma, else None."""
    support = [i for i, c in enumerate(x.coeffs) if c]
    if len(support) != 1 or x.coeffs[support[0]] not in (1, -1):
        return None
    group = x.group
    sigma_inv = group.inv(group.elements[support[0]])
    return GroupRingElement.from_element(group, sigma_inv).scale(
        x.coeffs[support[0]])


def _det_group_ring(matrix):
    """Exact determinant over Z[G] by cofactor expansion."""
    k = len(matrix)
    if k == 0:
        raise InputError("empty determinant has no group context")
    group = matrix[0][0].group
    if k == 1:
        return matrix[0][0]

    def expand(rows, cols):
        if len(cols) == 1:
            return matrix[rows[0]][cols[0]]
        total = GroupRingElement.zero(group, "int")
        r0 = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            entry = matrix[r0][c]
            if entry.is_zero():
                continue
            minor = expand(rest, cols[:idx] + cols[idx + 1:])
            term = entry * minor
            total = total + term if idx % 2 == 0 else total - term
        return total

    return expand(tuple(range(k)), tuple(range(k)))


class FiniteGModule:
    """Finite abelian group with a G-action given by integer matrices.

    Coordinates: elements are rows (x_1, ..., x_k) with x_i taken mod the
    i-th diagonal order; `action[j]` gives the matrix of the j-th group
    generator acting by x -> x @ A_j.
    """

    __slots__ = ("group", "orders", "action")

    def __init__(self, group, orders, action):
        self.group = group
        self.orders = [int(d) for d in orders]
        if any(d < 1 for d in self.orders):
            raise InputError("orders must be positive (finite module)")
        self.action = [[list(map(int, row)) for row in mat] for mat in action]
        if len(self.action) != group.rank:
            raise InputError("need one action matrix per group generator")
        k = len(self.orders)
        for mat in self.action:
            if len(mat) != k or any(len(row) != k for row in mat):
                raise InputError("action matrix shape mismatch")
        self._validate()

    def _validate(self):
        k = len(self.orders)
        # well-defined: order_j * row_j of A must vanish mod orders
        for mat in self.action:
            for j in range(k):
                for i in range(k):
                    if (self.orders[j] * mat[j][i]) % self.orders[i] != 0:
                        raise InputError("action matrix not well defined "
                                         "modulo the coordinate orders")
        # commuting actions with correct orders, checked on the generators
        for a in range(self.group.rank):
            for b in range(a + 1, self.group.rank):
                ab = hnf.mat_mul(self.action[a], self.action[b])
                ba = hnf.mat_mul(self.action[b], self.action[a])
                if not self._mats_equal(ab, ba):
                    raise InputError("action matrices do not commute")
        for a, d in enumerate(self.group.invariant_factors):
            power = hnf.identity_matrix(len(self.orders))
            for _ in range(d):
                power = hnf.mat_mul(power, self.action[a])
            if not self._mats_equal(power, hnf.identity_matrix(len(self.orders))):
                raise InputError("action matrix order does not divide the "
                                 "group exponent")

    def _mats_equal(self, m1, m2):
        k = len(self.orders)
        return all((m1[i][j] - m2[i][j]) % self.orders[j] == 0
                   for i in range(k) for j in range(k))

    def order(self):
        out = 1
        for d in self.orders:
            out *= d
        return out

    def reduce(self, vec):
        return tuple(x % d for x, d in zip(vec, self.orders))

    def act_by_generator(self, j, vec):
        k = len(self.orders)
        out = [0] * k
        for i in range(k):
            if vec[i]:
                for l in range(k):
                    out[l] += vec[i] * self.action[j][i][l]
        return self.reduce(out)

    def act_by_element(self, element, vec):
        out = tuple(vec)
        for j, a in enumerate(element):
            for _ in range(a):
                out = self.act_by_generator(j, out)
        return out

    def element_action_matrix(self, element):
        k = len(self.orders)
        rows = []
        for i in range(k):
            e_i = tuple(1 if l == i else 0 for l in range(k))
            rows.append(list(self.act_by_element(element, e_i)))
        return rows

    def act_group_ring(self, x, vec):
        """Action of a Z[G]-element on a module element."""
        xs = x.int_vector()
        k = len(self.orders)
        out = [0] * k
        for idx, c in enumerate(xs):
            if c:
                moved = self.act_by_element(self.group.elements[idx], vec)
                for l in range(k):
                    out[l] += c * moved[l]
        return self.reduce(out)

    def standard_presentation(self):
        """Z[G]-presentation with one generator per coordinate.

        Relations: d_i * e_i, and (sigma_j - 1 twisted) rows g_j(e_i) - A_j
        image rows expressing the action.
        """
        group = self.group
        k = len(self.orders)
        rels = []
        one = GroupRingElement.one(group)
        for i in range(k):
            row = [GroupRingElement.zero(group) for _ in range(k)]
            row[i] = one.scale(self.orders[i])
            rels.append(row)
        for j in range(group.rank):
            gen = tuple(1 if l == j else 0 for l in range(group.rank))
            sigma = GroupRingElement.from_element(group, gen)
            for i in range(k):
                # sigma * e_i - sum_l A_j[i][l] e_l = 0
                row = [one.scale(-self.action[j][i][l]) for l in range(k)]
                row[i] = row[i] + sigma
                rels.append(row)
        return Presentation(group, k, rels)

    def __repr__(self):
        return (f"FiniteGModule(orders={self.orders} over {self.group})")


def annihilator(module):
    """Ann_{Z[G]}(M) as a G-stable lattice, by exact kernel computation."""
    group = module.group
    n = group.order
    k = len(module.orders)
    if k == 0 or module.order() == 1:
        return GIdealLattice.unit(group)
    # constraints: for each generator e_j and coordinate i:
    #   sum_sigma c_sigma (M_sigma)[j][i] == 0  mod orders[i]
    mats = [module.element_action_matrix(el) for el in group.elements]
    cols = []
    moduli = []
    for j in range(k):
        for i in range(k):
            cols.append([mats[s][j][i] for s in range(n)])
            moduli.append(module.orders[i])
    m = len(cols)
    # kernel of Z^n -> prod Z/moduli via [C | -D] kernel projection
    rows = []
    for s in range(n):
        rows.append([cols[t][s] for t in range(m)])
    for t in range(m):
        rows.append([moduli[t] if tt == t else 0 for tt in range(m)])
    ker = hnf.kernel(rows)
    lat = hnf.IntLattice(n)
    for row in ker:
        lat.add_vector(row[:n])
    out = GIdealLattice(group, lat)
    if not out.is_g_stable():
        raise CertificationError("annihilator lattice is not G-stable")
    return out


def fitting_from_extension(cl_module, d):
    """Fitt^0(Cl) * I_G^(d-1), for G trivial or of prime order: Fitt^r of
    Cl + Z^(d-1) + Z[G]^r, the transpose Selmer module at r = |V| when
    each of the d places outside V has one place of K above it.

    Z = Z[G]/I_G, so the Z^(d-1) summand adds the factor I_G^(d-1), which
    is 0 over the trivial group for d > 1.  At Cl = 1 this is Fitt^r of
    the place module X_{K,S} = Z^(d-1) + Z[G]^r, by the isomorphism that
    `verify.selmer_transpose_fitting` states.
    """
    group = cl_module.group
    if group.order > 1 and not isprime(group.order):
        raise UnsupportedCaseError("closed form requires G trivial or of "
                                   "prime order")
    if d < 1:
        raise InputError("d counts places outside V; it must be >= 1")
    if cl_module.order() == 1:
        fitt0 = GIdealLattice.unit(group)
    else:
        fitt0 = fitting_ideal(cl_module.standard_presentation(), 0)
    return fitt0.product(augmentation_ideal_power(group, d - 1))
