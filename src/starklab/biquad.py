"""Real biquadratic composita assembled from their three quadratic
subfields: exact quartic arithmetic on the basis (1, sqrt m1, sqrt m2,
sqrt m3), compositum places, and an S-unit lattice generated by subfield
S-units with exactly verified multiplicative relations.

Saturation inside the full unit group is not attempted (out of desk scope);
the lattice is the subgroup the subfields generate, which is all the
norm-decomposition identity needs, and its saturation index is unknown.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import hnf
from .ball import (Ball, CertificationError, ball_log, ball_log_int,
                   ball_sqrt, gauss_solve, precision, working_precision)
from .grpring import AbelianGroup, InputError
from .numfld import (QuadField, ord_at_place, places_over, s_unit_lattice,
                     squarefree_part)
from .zideal import UnsupportedCaseError


def _sqrt_exact(n):
    r = isqrt(n)
    if r * r != n:
        raise CertificationError(f"{n} is not a square")
    return r


class BiquadField:
    """Q(sqrt m1, sqrt m2) with the convention sqrt(m3) = sqrt m1 sqrt m2 / s."""

    @lru_cache(maxsize=None)
    def __new__(cls, D1, D2):
        inst = super().__new__(cls)
        k1, k2 = QuadField(D1), QuadField(D2)
        m1, m2 = k1.m, k2.m
        m3 = squarefree_part(m1 * m2)
        if m3 == 1:
            raise InputError("the two discriminants generate the same field")
        from .numfld import fundamental_discriminant
        D3 = fundamental_discriminant(m3)
        k3 = QuadField(D3)
        inst.subfields = [k1, k2, k3]
        inst.ms = [m1, m2, m3]
        inst.discs = [D1, D2, D3]
        inst.is_real = all(m > 0 for m in inst.ms)
        # sqrt(mi) sqrt(mj) = s_ij sqrt(mk)
        inst.s12 = _sqrt_exact(m1 * m2 // m3)
        inst.s13 = _sqrt_exact(m1 * m3 // m2)
        inst.s23 = _sqrt_exact(m2 * m3 // m1)
        inst.group = AbelianGroup((2, 2))
        return inst

    def element(self, a0=0, a1=0, a2=0, a3=0):
        return BiquadElt(self, Fraction(a0), Fraction(a1), Fraction(a2),
                         Fraction(a3))

    def from_subfield(self, idx, x):
        """Embed a QuadElt of the idx-th subfield."""
        coords = [Fraction(x.a), 0, 0, 0]
        coords[idx + 1] = Fraction(x.b)
        return BiquadElt(self, *coords)

    def signs_of(self, element):
        """The action signs (s1, s2, s3) of the group element (e1, e2)."""
        e1, e2 = element
        s1 = -1 if e1 else 1
        s2 = -1 if e2 else 1
        return (s1, s2, s1 * s2)

    def __repr__(self):
        return f"BiquadField(sqrt {self.ms[0]}, sqrt {self.ms[1]})"


class BiquadElt:
    __slots__ = ("field", "c")

    def __init__(self, field, a0, a1, a2, a3):
        self.field = field
        self.c = (Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3))

    def __add__(self, other):
        return BiquadElt(self.field, *(x + y for x, y in zip(self.c, other.c)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiquadElt(self.field, *(x * other for x in self.c))
        f = self.field
        a, b = self.c, other.c
        m1, m2, m3 = f.ms
        s12, s13, s23 = f.s12, f.s13, f.s23
        out0 = a[0]*b[0] + m1*a[1]*b[1] + m2*a[2]*b[2] + m3*a[3]*b[3]
        out1 = a[0]*b[1] + a[1]*b[0] + s23*(a[2]*b[3] + a[3]*b[2])
        out2 = a[0]*b[2] + a[2]*b[0] + s13*(a[1]*b[3] + a[3]*b[1])
        out3 = a[0]*b[3] + a[3]*b[0] + s12*(a[1]*b[2] + a[2]*b[1])
        return BiquadElt(f, out0, out1, out2, out3)

    __rmul__ = __mul__

    def galois(self, element):
        s = self.field.signs_of(element)
        return BiquadElt(self.field, self.c[0], s[0]*self.c[1],
                         s[1]*self.c[2], s[2]*self.c[3])

    def inverse(self):
        # multiply by the three conjugates over the rational norm
        f = self.field
        conjs = [self.galois(el) for el in f.group.elements
                 if el != (0, 0)]
        prod = conjs[0] * conjs[1] * conjs[2]
        n = (self * prod).c
        if n[1] or n[2] or n[3]:
            raise CertificationError(f"norm of {self} is not rational")
        if n[0] == 0:
            raise ZeroDivisionError
        return prod * (1 / n[0])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.element(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, BiquadElt) and self.c == other.c \
            and self.field is other.field

    def is_pm_one(self):
        return self.c in ((1, 0, 0, 0), (-1, 0, 0, 0))

    def embedding_ball(self, signs):
        f = self.field
        out = Ball(self.c[0])
        for i in range(3):
            if self.c[i + 1]:
                out = out + Ball(self.c[i + 1]) * signs[i] \
                    * ball_sqrt(Ball(f.ms[i]))
        return out

    def __repr__(self):
        return f"BiquadElt{self.c}"


class BiquadPlace:
    """A place of the compositum over a rational place."""

    __slots__ = ("field", "kind", "q", "e", "f", "signs", "e_sub", "label")

    def __init__(self, field, kind, q=None, e=1, f=1, signs=None,
                 e_sub=None, label=""):
        self.field = field
        self.kind = kind
        self.q = q
        self.e = e
        self.f = f
        self.signs = signs      # archimedean: (s1, s2, s3)
        self.e_sub = e_sub      # finite: ramification degree over each subfield
        self.label = label

    def nw(self):
        return self.q ** self.f

    def __repr__(self):
        return f"BiquadPlace({self.label})"


def biquad_places(field, v):
    """Places of the compositum over the rational place v.

    Finite places are supported only when there is a single place over v
    (no Galois orbit bookkeeping at split primes of the compositum); the
    spread cases raise UnsupportedCaseError.
    """
    if v == "inf":
        if not field.is_real:
            raise UnsupportedCaseError("complex composita not supported")
        out = []
        for s1, s2 in itertools.product((1, -1), repeat=2):
            out.append(BiquadPlace(field, "real", signs=(s1, s2, s1 * s2),
                                   label=f"inf{'+' if s1>0 else '-'}"
                                         f"{'+' if s2>0 else '-'}"))
        return out
    q = int(v)
    # character-theoretic splitting data: the three quadratic characters
    from .numfld import kronecker
    values = [kronecker(D, q) for D in field.discs]
    n_unram = 1 + sum(1 for vl in values if vl != 0)
    e = 4 // n_unram
    f_ord = 2 if any(vl == -1 for vl in values) else 1
    g = n_unram // f_ord
    if g != 1:
        raise UnsupportedCaseError(
            f"{q} has {g} places in the compositum; only single-place "
            "primes are supported at desk scale")
    e_sub = []
    for idx, k in enumerate(field.subfields):
        e_k = 2 if values[idx] == 0 else 1
        e_sub.append(e // e_k)
    return [BiquadPlace(field, "finite", q=q, e=e, f=f_ord, e_sub=e_sub,
                        label=f"{q}")]


class BiquadSUnitLattice:
    """S-unit sublattice of a real biquadratic compositum generated by the
    three subfields' S-units, with exact relations.

    It offers the place interface of numfld.SUnitLattice (place_indices,
    place_permutation, log_matrix).  Its saturation index is not known,
    and its T-unit sublattice is not built: `t_lattice_hnf` raises, so no
    check reads an action on its coordinates, and it builds none.  S is in
    a datum's normal form (`RubinDatum`), and each subfield's lattice reads
    it as it is, with T empty.
    """

    saturation_index = None

    def __init__(self, field, S):
        self.field = field
        self.S = S
        # the places first: biquad_places rejects what is out of scope
        # before any subfield lattice is built
        self.places = []
        self.place_ranges = {}
        for v in S:
            start = len(self.places)
            self.places.extend(biquad_places(field, v))
            self.place_ranges[v] = range(start, len(self.places))
        sub_lattices = [s_unit_lattice(k, S, ()) for k in field.subfields]
        self.sub_lattices = sub_lattices
        fin = [w for w in self.places if w.kind == "finite"]
        # generator pool: (subfield index, element)
        pool = []
        self.pool_owner = []
        for idx, sl in enumerate(sub_lattices):
            for g in sl.gens:
                pool.append(field.from_subfield(idx, g))
                self.pool_owner.append((idx, g))
        self.pool = pool
        # valuations of pool elements at the compositum places
        val_rows = []
        for (idx, g) in self.pool_owner:
            row = []
            for w in fin:
                sub_places = places_over(field.subfields[idx], w.q)
                if len(sub_places) != 1:
                    raise CertificationError(
                        f"{w.q} splits in subfield {idx} below a single "
                        "compositum place")
                o = ord_at_place(g, sub_places[0])
                row.append(o * w.e_sub[idx])
            val_rows.append(row)
        self.val_rows = val_rows
        # relation lattice: kernel vectors whose product is exactly +-1,
        # discovered through unit coordinates and verified exactly
        ker = hnf.kernel(val_rows, ambient_dim=len(fin))
        unit_idx = [i for i, (idx, g) in enumerate(self.pool_owner)
                    if all(v == 0 for v in val_rows[i])]
        eps_idx = unit_idx  # the three fundamental units
        if len(eps_idx) != 3:
            raise CertificationError(
                f"{len(eps_idx)} units among the subfield generators, not 3")
        # unit coordinates of each kernel combination, as rationals with
        # denominator dividing 8 (the classical bound on the unit index of
        # the subfield-unit subgroup in a real biquadratic field)
        with working_precision(precision() + 64):
            eps_logs = self._unit_log_matrix(eps_idx)
            coord_rows = [self._express_unit_combination(c, eps_logs)
                          for c in ker]
        scaled = [[int(d * 8) for d in row] for row in coord_rows]
        rel_rows = []
        for y in hnf.kernel(scaled, ambient_dim=3):
            row = [0] * len(pool)
            for yj, c in zip(y, ker):
                if yj:
                    for i, ci in enumerate(c):
                        row[i] += yj * ci
            u = self._pool_product(row)
            if not u.is_pm_one():
                raise CertificationError(
                    f"relation {row} of the subfield generators is {u}, "
                    "not +-1")
            rel_rows.append(row)
        factors, self._V, self._basis_pool_rows = \
            hnf.diagonalize_relations(rel_rows, len(pool))
        if any(factors):
            raise CertificationError(
                f"relation lattice has invariant factors {factors}, not 0")
        self.rank = len(factors)
        if self.rank != len(self.places) - 1:
            raise CertificationError(
                f"S-unit rank {self.rank}, expected |S_K| - 1 = "
                f"{len(self.places) - 1}")
        # basis elements as exact products of the pool
        self.basis_elements = [self._pool_product(row)
                               for row in self._basis_pool_rows]
        self._offsets = []
        off = 0
        for sl in sub_lattices:
            self._offsets.append(off)
            off += len(sl.gens)

    def _pool_product(self, exponents):
        out = self.field.element(1)
        for g, e in zip(self.pool, exponents):
            if e:
                out = out * (g ** e)
        return out

    def _unit_log_matrix(self, eps_idx):
        rows = []
        arch = [w for w in self.places if w.kind == "real"][:3]
        for i in eps_idx:
            rows.append([ball_log(abs(self.pool[i].embedding_ball(w.signs)))
                         for w in arch])
        return rows

    def _express_unit_combination(self, c, eps_logs):
        """Rational exponents d (denominator | 8) with
        prod pool^c = +- prod eps^d in log coordinates, certified."""
        u = self._pool_product(c)
        arch = [w for w in self.places if w.kind == "real"][:3]
        logs_u = [ball_log(abs(u.embedding_ball(w.signs))) for w in arch]
        A = [[eps_logs[i][k] for i in range(3)] for k in range(3)]
        out = []
        for s in gauss_solve(A, logs_u):
            n = (s * 8).only_integer("8 times a unit exponent")
            if n is None:
                raise CertificationError(
                    f"unit exponent {s!r} is not in (1/8)Z")
            out.append(Fraction(n, 8))
        return out

    def pool_coords_to_basis(self, coords):
        """Image of a pool-exponent vector in basis coordinates."""
        return [sum(c * row[j] for c, row in zip(coords, self._V))
                for j in range(self.rank)]

    def subfield_generator_coords(self, sub_idx, gen_idx):
        coords = [0] * len(self.pool)
        coords[self._offsets[sub_idx] + gen_idx] = 1
        return self.pool_coords_to_basis(coords)

    def place_indices(self, v):
        """Indices in `places` of the places above the rational place v,
        distinguished place first."""
        if v not in self.place_ranges:
            raise InputError(f"no place over {v}")
        return self.place_ranges[v]

    def place_permutation(self, element):
        """The permutation of `places` under a Galois group element: it
        moves the real places by its signs and fixes each finite place,
        the only place above its prime."""
        signs = self.field.signs_of(element)
        real = {w.signs: j for j, w in enumerate(self.places)
                if w.kind == "real"}
        return [real[tuple(a * b for a, b in zip(w.signs, signs))]
                if w.kind == "real" else i
                for i, w in enumerate(self.places)]

    def t_lattice_hnf(self):
        raise UnsupportedCaseError(
            "T-unit lattices of composita are out of desk scope")

    def log_matrix(self):
        out = []
        fin = [w for w in self.places if w.kind == "finite"]
        for h, hcoords in zip(self.basis_elements, self._basis_pool_rows):
            row = []
            for w in self.places:
                if w.kind == "real":
                    row.append(-ball_log(abs(h.embedding_ball(w.signs))))
                else:
                    # -log|h|_w = ord_w(h) * log(Nw)
                    o = self._basis_ord(hcoords, w, fin)
                    row.append(ball_log_int(w.nw()) * o)
            tot = row[0]
            for e in row[1:]:
                tot = tot + e
            if not tot.contains_zero():
                raise CertificationError(
                    f"product formula violated: the logs of {h} sum to {tot}")
            out.append(row)
        return out

    def _basis_ord(self, pool_coords, w, fin):
        widx = fin.index(w)
        return sum(c * self.val_rows[i][widx]
                   for i, c in enumerate(pool_coords) if c)
