"""Real biquadratic composita K = k1 k2 k3 read through their three
quadratic subfields: a field whose places (`BiquadField.places`) are
`numfld.Place`s, as Q's and a quadratic field's are, and whose S-unit
lattice (`BiquadField.s_unit_lattice`) is generated by the subfields'
S-units, its relations certified exactly by their norms to the subfields
and its logs read off the subfields' places.

Saturation inside the full unit group is not attempted (out of desk scope);
the lattice is the subgroup the subfields generate, which is all the
norm-decomposition identity needs, and its saturation index is unknown.
"""

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache

from . import hnf
from .ball import (CertificationError, ball_combination, gauss_solve,
                   precision, working_precision)
from .grpring import InputError
from .numfld import (Place, QuadField, _s_places, assembled_log_matrix,
                     certified_arch_logs, fundamental_discriminant,
                     kronecker, ord_at_place, squarefree_part)
from .zideal import UnsupportedCaseError


class BiquadField:
    """Q(sqrt m1, sqrt m2) and its three quadratic subfields k1, k2, k3,
    k3 = Q(sqrt m3) for m3 the squarefree part of m1 m2."""

    @lru_cache(maxsize=None)
    def __new__(cls, D1, D2):
        inst = super().__new__(cls)
        k1, k2 = QuadField(D1), QuadField(D2)
        m1, m2 = k1.m, k2.m
        m3 = squarefree_part(m1 * m2)
        if m3 == 1:
            raise InputError("the two discriminants generate the same field")
        D3 = fundamental_discriminant(m3)
        k3 = QuadField(D3)
        inst.subfields = [k1, k2, k3]
        inst.ms = [m1, m2, m3]
        inst.discs = [D1, D2, D3]
        inst.is_real = all(m > 0 for m in inst.ms)
        return inst

    def signs_of(self, element):
        """The action signs (s1, s2, s3) of the group element (e1, e2)."""
        e1, e2 = element
        s1 = -1 if e1 else 1
        s2 = -1 if e2 else 1
        return (s1, s2, s1 * s2)

    @lru_cache(maxsize=None)
    def places(self, v):
        """The places over the rational place v ('inf' or a prime), as a
        tuple built once: the four real places, each with its signs, or
        the one place over q, with its ramification over each subfield.

        Finite places are supported only when there is a single place over
        v (no Galois orbit bookkeeping at split primes of the compositum);
        the spread cases, and complex composita, raise
        UnsupportedCaseError.
        """
        if v == "inf":
            if not self.is_real:
                raise UnsupportedCaseError("complex composita not supported")
            return tuple(Place(self, "real", signs=(s1, s2, s1 * s2),
                               label=f"inf{'+' if s1>0 else '-'}"
                                     f"{'+' if s2>0 else '-'}")
                         for s1, s2 in itertools.product((1, -1), repeat=2))
        # character-theoretic splitting data: the three quadratic characters
        values = [kronecker(D, v) for D in self.discs]
        n_unram = 1 + sum(1 for vl in values if vl != 0)
        e = 4 // n_unram
        f_ord = 2 if any(vl == -1 for vl in values) else 1
        g = n_unram // f_ord
        if g != 1:
            raise UnsupportedCaseError(
                f"{v} has {g} places in the compositum; only single-place "
                "primes are supported at desk scale")
        # ramification over each subfield: over Q less that of the subfield
        e_sub = [e // 2 if vl == 0 else e for vl in values]
        return (Place(self, "finite", q=v, e=e, f=f_ord, e_sub=e_sub,
                      label=f"{v}"),)

    def s_unit_lattice(self, S, _T):
        return BiquadSUnitLattice(self, S)

    def __repr__(self):
        return f"BiquadField(sqrt {self.ms[0]}, sqrt {self.ms[1]})"


class BiquadSUnitLattice:
    """S-unit sublattice of a real biquadratic compositum K generated by
    the S-units of its three quadratic subfields k1, k2, k3, and read
    through them alone.

    The pool is the subfield lattices' generators, each an element of its
    own subfield.  A relation among them is found through unit coordinates
    in (1/8)Z and certified exactly by its norms to the subfields
    (`_norms_to_subfields`).  The log of a pool product at a real place w
    of K is the same integer combination of the generators' logs at the
    real places of their subfields below w, taken once, when the lattice
    is built.

    It offers the place and log interface of numfld.SUnitLattice
    (places, place_ranges, place_permutation, valuations, arch_logs,
    log_matrix), its places and their ranges laid out by
    `numfld._s_places`, as `s_unit_lattice` lays out its own.
    Its saturation index is not known, and its T-unit sublattice is not
    built: `t_lattice_hnf` raises, so no check reads an action on its
    coordinates, and it builds none.  S is in a datum's normal form
    (`RubinDatum`), and each subfield's lattice reads it as it is, with T
    empty.
    """

    saturation_index = None

    def __init__(self, field, S):
        self.field = field
        self.S = S
        # the places first: field.places rejects what is out of scope
        # before any subfield lattice is built
        self.places, self.place_ranges = _s_places(field, S)
        sub_lattices = [k.s_unit_lattice(S, ()) for k in field.subfields]
        self.sub_lattices = sub_lattices
        fin = [w for w in self.places if w.kind == "finite"]
        # generator pool: (subfield index, element of that subfield)
        self.pool_owner = [(idx, g) for idx, sl in enumerate(sub_lattices)
                           for g in sl.gens]
        # valuations of pool elements at the compositum places
        val_rows = []
        for (idx, g) in self.pool_owner:
            row = []
            for w in fin:
                sub_places = field.subfields[idx].places(w.q)
                if len(sub_places) != 1:
                    raise CertificationError(
                        f"{w.q} splits in subfield {idx} below a single "
                        "compositum place")
                o = ord_at_place(g, sub_places[0])
                row.append(o * w.e_sub[idx])
            val_rows.append(row)
        # relation lattice: kernel vectors whose product is exactly +-1,
        # discovered through unit coordinates and verified exactly
        ker = hnf.kernel(val_rows, ambient_dim=len(fin))
        # the three fundamental units
        eps_idx = [i for i, row in enumerate(val_rows) if not any(row)]
        if len(eps_idx) != 3:
            raise CertificationError(
                f"{len(eps_idx)} units among the subfield generators, not 3")
        # unit coordinates of each kernel combination, as rationals with
        # denominator dividing 8 (the classical bound on the unit index of
        # the subfield-unit subgroup in a real biquadratic field)
        with working_precision(precision() + 64):
            # log|g|_w at a real place w of K, for g in k_i, is log|g| at
            # the real place of k_i below w: the first when w sends sqrt m_i
            # to the positive root, else its conjugate (`arch_logs`: -log)
            below = [row for k, sl in zip(field.subfields, sub_lattices)
                     for row in k.arch_logs(sl.gens)]
            self._real_logs = {
                j: [-row[self.places[j].signs[i] < 0]
                    for (i, _g), row in zip(self.pool_owner, below)]
                for j in self.place_ranges["inf"]}
            arch = self.place_ranges["inf"][:3]
            eps_logs = [[self._real_logs[j][i] for j in arch]
                        for i in eps_idx]
            coord_rows = [self._express_unit_combination(c, eps_logs)
                          for c in ker]
        scaled = [[int(d * 8) for d in row] for row in coord_rows]
        rel_rows = []
        for y in hnf.kernel(scaled, ambient_dim=3):
            row = [sum(yj * c[i] for yj, c in zip(y, ker))
                   for i in range(len(self.pool_owner))]
            norms = self._norms_to_subfields(row)
            if any(n != 1 for n in norms):
                raise CertificationError(
                    f"relation {row} of the subfield generators is, by its "
                    f"norms {norms} to k1, k2, k3, not +-1")
            rel_rows.append(row)
        factors, self._V, self._basis_pool_rows = \
            hnf.diagonalize_relations(rel_rows, len(self.pool_owner))
        if any(factors):
            raise CertificationError(
                f"relation lattice has invariant factors {factors}, not 0")
        self.rank = len(factors)
        if self.rank != len(self.places) - 1:
            raise CertificationError(
                f"S-unit rank {self.rank}, expected |S_K| - 1 = "
                f"{len(self.places) - 1}")
        # ord_w of each basis element, from its pool coordinates
        self.valuations = hnf.mat_mul(self._basis_pool_rows, val_rows)

    def _norms_to_subfields(self, exponents):
        """[N_{K/k_i}(x) for i = 1, 2, 3], exactly, for x the pool product
        prod pool^exponents.

        N_{K/k_i}(x) is x times its image under the automorphism of K that
        fixes k_i, which conjugates the other two subfields: so a generator
        g of k_i has norm g^2, one of another subfield k_j the rational
        N_{k_j/Q}(g), and each norm is one product in k_i.

        They are all 1 exactly when x = +-1.  The product of the three norms
        is x^2 N_{K/Q}(x) (Kubota, Nagoya Math. J. 10 (1956)), and
        N_{K/Q}(x) = N_{k_i/Q}(N_{K/k_i}(x)).  So if all three are 1, then
        N_{K/Q}(x) = 1, x^2 = 1 and x = +-1; if x = +-1, each is (+-1)^2 = 1.
        """
        norms = []
        for i, k in enumerate(self.field.subfields):
            x = k.element(1)
            for (j, g), e in zip(self.pool_owner, exponents):
                if e:
                    x = x * (g ** (2 * e) if j == i else g.norm() ** e)
            norms.append(x)
        return norms

    def _express_unit_combination(self, c, eps_logs):
        """Rational exponents d (denominator | 8) with
        prod pool^c = +- prod eps^d in log coordinates, certified."""
        arch = self.place_ranges["inf"][:3]
        logs_u = [ball_combination(c, self._real_logs[j], 1, (0, 1))
                  for j in arch]
        A = [[eps_logs[i][k] for i in range(3)] for k in range(3)]
        out = []
        for s in gauss_solve(A, logs_u):
            n = (s * 8).only_integer("8 times a unit exponent")
            if n is None:
                raise CertificationError(
                    f"unit exponent {s!r} is not in (1/8)Z")
            out.append(Fraction(n, 8))
        return out

    def subfield_generator_coords(self, sub_idx, gen_idx):
        """Basis coordinates of the gen_idx-th generator of subfield
        sub_idx: its pool row of the Smith transform."""
        offset = sum(len(sl.gens) for sl in self.sub_lattices[:sub_idx])
        return list(self._V[offset + gen_idx])

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

    @cached_property
    def arch_logs(self):
        """-log|h|_w of each basis element h at the real places, combined
        from the pool's logs and rounded once, and certified against the
        product formula (`numfld.certified_arch_logs`) on first read."""
        arch = self.place_ranges["inf"]
        rows = [[ball_combination([-c for c in hcoords],
                                  self._real_logs[j], 1, (0, 1))
                 for j in arch] for hcoords in self._basis_pool_rows]
        return certified_arch_logs(rows, self.valuations,
                                   self.places[len(arch):])

    def log_matrix(self):
        """Rows: basis elements; columns: places; entries -log|h|_w
        (balls), assembled from the log data: at a finite place
        ord_w(h) log N(w)."""
        k = len(self.place_ranges["inf"])
        return assembled_log_matrix(self.arch_logs, self.valuations,
                                    self.places[k:])
