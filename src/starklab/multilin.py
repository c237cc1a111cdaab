"""Exterior-power machinery for G-lattices: wedge elements, the determinant
pairing of a wedge element against homomorphisms to Z[G], the integer
vectors of those pairings, and the residual of the subgroup-norm
decomposition of wedge elements.

Wedge elements live in the ambient coordinates Z^n of a G-lattice
M in Z^n: a degree-r element is a sparse map from r-subsets (sorted index
tuples) of range(n) to group-ring coefficients.  The wedge basis uses the
fixed lexicographic convention throughout.  They pair against the dual
basis of Hom_{Z[G]}(M, Z[G]) that `GLattice.dual_values` gives.
"""

import itertools
from fractions import Fraction
from math import lcm

from . import hnf
from .ball import Undecided
from .grpring import GroupRingElement, InputError
from .zideal import _det_group_ring


class NonIntegralError(ValueError):
    """A pairing landed outside Z[G] (exact witness attached)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GLattice:
    """G-stable sublattice of Z^n with explicit generator action matrices."""

    __slots__ = ("group", "ambient", "lattice", "action", "coord_action")

    def __init__(self, group, ambient, basis_rows, action):
        self.group = group
        self.ambient = ambient
        self.lattice = hnf.IntLattice(ambient, basis_rows)
        self.action = [[list(map(int, row)) for row in mat] for mat in action]
        if len(self.action) != group.rank:
            raise InputError("need one action matrix per group generator")
        self._validate()

    def _validate(self):
        # row i of coord_action[j] holds the M-coordinates of g_j . b_i
        self.coord_action = []
        for mat in self.action:
            rows = []
            for row in self.lattice.basis():
                co = self.lattice.coords(self._apply(mat, row))
                if co is None:
                    raise InputError("action does not preserve the lattice")
                rows.append(co)
            self.coord_action.append(rows)
        for j, d in enumerate(self.group.invariant_factors):
            power = hnf.identity_matrix(self.ambient)
            for _ in range(d):
                power = hnf.mat_mul(power, self.action[j])
            if power != hnf.identity_matrix(self.ambient):
                raise InputError("generator action has wrong order")
        for a in range(self.group.rank):
            for b in range(a + 1, self.group.rank):
                if hnf.mat_mul(self.action[a], self.action[b]) != \
                        hnf.mat_mul(self.action[b], self.action[a]):
                    raise InputError("action matrices do not commute")

    @staticmethod
    def _apply(mat, vec):
        out = [0] * len(mat[0])
        for i, v in enumerate(vec):
            if v:
                for j in range(len(mat[i])):
                    out[j] += v * mat[i][j]
        return out

    def act_element(self, element, vec):
        out = list(vec)
        for j, a in enumerate(element):
            for _ in range(a):
                out = self._apply(self.action[j], out)
        return out

    def basis(self):
        return self.lattice.basis()

    def dual_values(self, vectors):
        """The dual basis F_1, ..., F_t of Hom_{Z[G]}(M, Z[G]) on each of
        `vectors`: out[i][k] = F_i(vectors[k]), a rational Z[G]-element.

        F_i(m) = sum_g b_i*(g^-1 m) g, where b_i* is the Z-dual of the i-th
        HNF basis vector.  f -> (coefficient of 1 in f) maps
        Hom_{Z[G]}(M, Z[G]) onto Hom_Z(M, Z), and m -> F(m) is its inverse,
        so the F_i are a Z-basis.  Each vector's rational M-coordinates are
        found once, by back-substitution on the echelon basis, as integer
        numerators over one denominator; those of its G-orbit follow from
        the integer action matrices in M-coordinates.  A vector outside the
        Q-span of M raises InputError."""
        group = self.group
        basis = self.lattice.basis()
        inverse = [group.inv(g) for g in group.elements]
        out = [[] for _ in basis]
        for u in vectors:
            res = [Fraction(c) for c in u]
            co = []
            for row, j in zip(basis, self.lattice.pivots):
                q = res[j] / row[j]
                co.append(q)
                if q:
                    for jj in range(j, len(res)):
                        res[jj] -= q * row[jj]
            if any(res):
                raise InputError("vector outside Q-span of lattice")
            if not co:
                continue
            den = lcm(*(c.denominator for c in co))
            # numerators of the M-coordinates of h . u for every h; h is
            # reached from an earlier element by one generator step
            orbit = {group.identity(): [c.numerator * (den // c.denominator)
                                        for c in co]}
            for el in group.elements[1:]:
                gen = max(l for l, a in enumerate(el) if a)
                prev = el[:gen] + (el[gen] - 1,) + el[gen + 1:]
                orbit[el] = self._apply(self.coord_action[gen], orbit[prev])
            for i, values in enumerate(out):
                values.append(GroupRingElement(
                    group, "rat",
                    [Fraction(orbit[g][i], den) for g in inverse]))
        return out

    def __repr__(self):
        return (f"GLattice(rank {self.lattice.rank} in Z^{self.ambient} "
                f"over {self.group})")


class WedgeElement:
    """Element of Q (or R) tensor the r-th exterior power over Z[G] of the
    free module on the ambient coordinates."""

    __slots__ = ("group", "degree", "coeffs")

    def __init__(self, group, degree, coeffs):
        self.group = group
        self.degree = degree
        self.coeffs = {}
        for key, val in coeffs.items():
            key = tuple(sorted(key))
            if len(key) != degree or len(set(key)) != degree:
                raise InputError(f"bad wedge index {key}")
            self.coeffs[key] = val

    def scale(self, c):
        return WedgeElement(self.group, self.degree,
                            {k: v.scale(c) if not isinstance(c, GroupRingElement)
                             else v * c for k, v in self.coeffs.items()})

    def __add__(self, other):
        if other.degree != self.degree:
            raise InputError("degree mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return WedgeElement(self.group, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def coefficient(self, key):
        key = tuple(sorted(key))
        return self.coeffs.get(key)

    def __repr__(self):
        return (f"Wedge(degree {self.degree}, "
                f"{len(self.coeffs)} terms over {self.group})")


def det_pairing(a, fs):
    """The determinant pairing of a degree-r wedge element against r
    homomorphisms, each a list of its group-ring values on the ambient
    coordinates.

    Multilinear and alternating in both slots; the empty pairing of a
    degree-0 element returns its scalar.
    """
    r = a.degree
    if len(fs) != r:
        raise InputError(f"need exactly {r} homomorphisms, got {len(fs)}")
    if r == 0:
        return a.coeffs.get((), GroupRingElement.zero(a.group, "rat"))
    total = None
    for J, z in a.coeffs.items():
        sub = [[fs[i][j] for j in J] for i in range(r)]
        det = _det_group_ring(sub)
        term = z * det
        total = term if total is None else total + term
    if total is None:
        total = GroupRingElement.zero(a.group, "rat")
    return total


def pairing_vector(val, label):
    """The integer vector of the pairing `val`, named `label` in errors.

    Raises NonIntegralError when some coefficient is certifiably not an
    integer: an exact non-integer, or an enclosure that holds no integer.
    Raises Undecided when every enclosure holds an integer but one holds
    more than one.
    """
    if val.ring != "ball":
        try:
            return val.int_vector()
        except InputError:
            pass
    else:
        vec, undecided = [], None
        for c in val.coeffs:
            try:
                vec.append(c.only_integer(f"a coefficient of pairing {label}"))
            except Undecided as exc:
                undecided = exc
        if None not in vec:
            if undecided is not None:
                raise undecided
            return vec
    raise NonIntegralError(f"pairing {label} is not in Z[G]", witness=val)


def all_dual_pairings(eps, M):
    """[(index-tuple, pairing)] of eps, in M's ambient coordinates, against
    the r-subsets of the dual basis of M (`GLattice.dual_values`).  The
    basis has rank M elements, so a zero eps gives 0 on the r-subsets of
    range(rank M), which `RubinStarkData.pairings` builds without M."""
    duals = M.dual_values(hnf.identity_matrix(M.ambient))
    return [(F, det_pairing(eps, [duals[i] for i in F]))
            for F in itertools.combinations(range(len(duals)), eps.degree)]


def norm_decomposition_residual(eps_full, eps_parts, eps_base, p, m):
    """Residual of the subgroup-norm decomposition

        eps_full = p^{1-m} ( sum_parts + ((p^{m-1}-1) - sum_i p^i) eps_base )

    in common coordinates.  Returns (True, the largest radius) when every
    coefficient is 0 or a ball containing 0, else (False, its radius) at
    the first coefficient certified nonzero (radius 0 for an exact one).
    """
    coef = (p ** (m - 1) - 1) - sum(p ** i for i in range(m))
    combo = None
    for part in eps_parts:
        combo = part if combo is None else combo + part
    combo = combo + eps_base.scale(coef) if combo is not None \
        else eps_base.scale(coef)
    residual = eps_full.scale(p ** (m - 1)) - combo
    residual = residual.scale(Fraction(1, p ** (m - 1)))
    max_rad = Fraction(0)
    for val in residual.coeffs.values():
        for c in val.coeffs:
            if isinstance(c, (int, Fraction)):
                if c != 0:
                    return False, Fraction(0)
            else:
                if not c.contains_zero():
                    return False, c.rad()
                max_rad = max(max_rad, c.rad())
    return True, max_rad
