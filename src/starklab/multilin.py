"""Exterior-power machinery for G-lattices: wedge elements, the determinant
pairing of a wedge element against homomorphisms to Z[G], the integer
vectors of those pairings, and the residual of the subgroup-norm
decomposition of wedge elements.

Wedge elements live in coordinates of a designated cover: a list of module
generators u_1, ..., u_t whose Z[G]-span contains everything handled; a
degree-r element is a sparse map from r-subsets (sorted index tuples) to
group-ring coefficients.  The wedge basis uses the fixed lexicographic
convention throughout.
"""

import itertools
from fractions import Fraction
from math import lcm

from . import hnf
from .ball import CertificationError, Undecided
from .grpring import GroupRingElement, InputError
from .zideal import _det_group_ring


class NonIntegralError(ValueError):
    """A pairing landed outside Z[G] (exact witness attached)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GLattice:
    """G-stable sublattice of Z^n with explicit generator action matrices."""

    __slots__ = ("group", "ambient", "lattice", "action")

    def __init__(self, group, ambient, basis_rows, action, validate=True):
        self.group = group
        self.ambient = ambient
        self.lattice = hnf.IntLattice(ambient, basis_rows)
        self.action = [[list(map(int, row)) for row in mat] for mat in action]
        if len(self.action) != group.rank:
            raise InputError("need one action matrix per group generator")
        if validate:
            self._validate()

    def _validate(self):
        for mat in self.action:
            for row in self.lattice.basis():
                img = self._apply(mat, row)
                if not self.lattice.contains_vector(img):
                    raise InputError("action does not preserve the lattice")
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
        n = len(mat)
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

    def hom_generators(self):
        """Z-basis of Hom_{Z[G]}(M, Z[G]), each hom as a (rank x |G|) matrix
        of coefficients of f(b_i)."""
        group = self.group
        n = group.order
        basis = self.lattice.basis()
        t = len(basis)
        if t == 0:
            return []
        # unknowns x[(i, s)]; equivariance for each group generator g:
        #   f(g . b_i) = g . f(b_i)
        unknowns = t * n
        rows = []
        for j in range(group.rank):
            gen = tuple(1 if l == j else 0 for l in range(group.rank))
            # permutation: (g . y)_tau = y_{g^{-1} tau}
            perm = [group.index[group.op(group.inv(gen), el)]
                    for el in group.elements]
            coords_of_image = []
            for i in range(t):
                img = self.act_element(gen, basis[i])
                co = self.lattice.coords(img)
                if co is None:
                    raise CertificationError(
                        f"generator {gen} moves basis vector {i} out of "
                        "the lattice")
                coords_of_image.append(co)
            for i in range(t):
                for s in range(n):
                    # sum_k T[i][k] x[(k, s)] - x[(i, perm[s])] = 0
                    row = [0] * unknowns
                    for k in range(t):
                        if coords_of_image[i][k]:
                            row[k * n + s] += coords_of_image[i][k]
                    row[i * n + perm[s]] -= 1
                    rows.append(row)
        if not rows:
            ker = hnf.identity_matrix(unknowns)
        else:
            # kernel of the transpose system: unknown vector x with M x = 0;
            # as rows: x @ M^T = 0
            mt = [[rows[r][c] for r in range(len(rows))]
                  for c in range(unknowns)]
            ker = hnf.kernel(mt, ambient_dim=len(rows))
        homs = []
        for row in ker:
            homs.append([row[i * n:(i + 1) * n] for i in range(t)])
        return homs

    def pull_homs_to_cover(self, homs, cover):
        """The values f(u) on the cover generators u, for each hom f.  The
        rational coordinates of each cover generator are found once for all
        homs, by back-substitution on the echelon basis, and kept as integer
        numerators over their common denominator, so each value is summed in
        integers and divided once."""
        basis = self.lattice.basis()
        coords = []
        for u in cover:
            res = [Fraction(c) for c in u]
            co = []
            for row, j in zip(basis, self.lattice.pivots):
                q = res[j] / row[j]
                co.append(q)
                if q:
                    for jj in range(j, len(res)):
                        res[jj] -= q * row[jj]
            if any(res):
                raise InputError("cover generator outside Q-span of lattice")
            den = lcm(*(c.denominator for c in co))
            coords.append(([c.numerator * (den // c.denominator)
                            for c in co], den))
        n = self.group.order
        out = []
        for hom in homs:
            values = []
            for nums, den in coords:
                acc = [0] * n
                for k, c in enumerate(nums):
                    if c:
                        row = hom[k]
                        for s in range(n):
                            acc[s] += c * row[s]
                values.append(GroupRingElement(
                    self.group, "rat", [Fraction(v, den) for v in acc]))
            out.append(values)
        return out

    def __repr__(self):
        return (f"GLattice(rank {self.lattice.rank} in Z^{self.ambient} "
                f"over {self.group})")


class WedgeElement:
    """Element of Q (or R) tensor the r-th exterior power over Z[G] of the
    free module on the cover generators."""

    __slots__ = ("group", "degree", "cover", "coeffs")

    def __init__(self, group, degree, cover, coeffs):
        self.group = group
        self.degree = degree
        self.cover = cover  # list of ambient vectors (context only)
        self.coeffs = {}
        for key, val in coeffs.items():
            key = tuple(sorted(key))
            if len(key) != degree or len(set(key)) != degree:
                raise InputError(f"bad wedge index {key}")
            self.coeffs[key] = val

    def scale(self, c):
        return WedgeElement(self.group, self.degree, self.cover,
                            {k: v.scale(c) if not isinstance(c, GroupRingElement)
                             else v * c for k, v in self.coeffs.items()})

    def __add__(self, other):
        if other.degree != self.degree:
            raise InputError("degree mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return WedgeElement(self.group, self.degree, self.cover, out)

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
    cover-homomorphisms (each a list of group-ring values on the cover).

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


def all_dual_pairings(eps, M, homs=None):
    """[(index-tuple, pairing)] over r-subsets of the dual generating set.
    It has len(M.basis()) homs, so a zero eps gives 0 on the r-subsets of
    range(rank M), which `RubinStarkData.pairings` builds without M."""
    homs = M.hom_generators() if homs is None else homs
    pulled = M.pull_homs_to_cover(homs, eps.cover)
    out = []
    for F in itertools.combinations(range(len(pulled)), eps.degree):
        val = det_pairing(eps, [pulled[i] for i in F])
        out.append((F, val))
    return out


def norm_decomposition_residual(eps_full, eps_parts, eps_base, p, m):
    """Residual of the subgroup-norm decomposition

        eps_full = p^{1-m} ( sum_parts + ((p^{m-1}-1) - sum_i p^i) eps_base )

    on a common cover.  Returns (True, the largest radius) when every
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
