from fractions import Fraction

import pytest

from starklab.biquad import (BiquadField, BiquadSUnitLattice, biquad_places)
from starklab.grpring import InputError
from starklab.hnf import identity_matrix, mat_mul
from starklab.zideal import UnsupportedCaseError


def test_element_arithmetic():
    F = BiquadField(8, 12)
    assert F.ms == [2, 3, 6] and F.discs == [8, 12, 24]
    s2, s3, s6 = (F.element(0, 1, 0, 0), F.element(0, 0, 1, 0),
                  F.element(0, 0, 0, 1))
    assert s2 * s3 == s6
    assert s2 * s2 == F.element(2)
    assert s2 * s6 == F.element(0, 0, 2, 0)
    t = s2 + s3
    assert t * t == F.element(5, 0, 0, 2)  # (sqrt2+sqrt3)^2 = eps_24
    x = F.element(1, 1, 1, 0)
    assert (x * x.inverse()).is_one()
    assert s2.galois((1, 0)) == F.element(0, -1, 0, 0)
    assert s6.galois((1, 0)) == F.element(0, 0, 0, -1)
    assert s3.galois((1, 0)) == s3
    with pytest.raises(InputError):
        BiquadField(8, 8)


def test_places():
    F = BiquadField(8, 12)
    arch = biquad_places(F, "inf")
    assert len(arch) == 4
    w2 = biquad_places(F, 2)[0]
    assert w2.e == 4 and w2.f == 1 and w2.nw() == 2
    w3 = biquad_places(F, 3)[0]
    assert w3.e == 2 and w3.f == 2 and w3.nw() == 9
    # a compositum-split prime is out of desk scope
    with pytest.raises(UnsupportedCaseError):
        biquad_places(F, 23)


def test_s_unit_lattice():
    F = BiquadField(8, 12)
    L = BiquadSUnitLattice(F, ["inf", 2, 3])
    assert L.rank == 5  # |S_K| - 1 = 6 - 1
    L.log_matrix()  # product formula certified per row
    mats = {el: L.sigma_matrix(el) for el in F.group.elements}
    assert mats[(0, 0)] == identity_matrix(5)
    for el, m in mats.items():
        assert mat_mul(m, m) == identity_matrix(5)
    assert mat_mul(mats[(1, 0)], mats[(0, 1)]) == mats[(1, 1)]


def test_subfield_inclusions_exact():
    F = BiquadField(8, 12)
    L = BiquadSUnitLattice(F, ["inf", 2, 3])
    for si in range(3):
        sl = L.sub_lattices[si]
        for gi in range(len(sl.gens)):
            co = L.subfield_generator_coords(si, gi)
            prod = F.element(1)
            for c, h in zip(co, L.basis_elements):
                prod = prod * (h ** c)
            target = F.from_subfield(si, sl.gens[gi])
            assert (prod * target.inverse()).is_pm_one(), (si, gi)
