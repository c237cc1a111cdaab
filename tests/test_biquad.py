import os
import subprocess
import sys

import pytest
import sympy

from starklab import hnf
from starklab.ball import Ball
from starklab.biquad import BiquadField, BiquadSUnitLattice
from starklab.grpring import AbelianGroup, InputError
from starklab.numfld import QQ, QuadField, _s_places, s_unit_lattice
from starklab.zideal import UnsupportedCaseError


def test_field_data():
    F = BiquadField(8, 12)
    assert F.ms == [2, 3, 6] and F.discs == [8, 12, 24]
    with pytest.raises(InputError):
        BiquadField(8, 8)


def test_places():
    F = BiquadField(8, 12)
    arch = F.places("inf")
    assert len(arch) == 4
    w2 = F.places(2)[0]
    assert w2.e == 4 and w2.f == 1 and w2.nw() == 2
    w3 = F.places(3)[0]
    assert w3.e == 2 and w3.f == 2 and w3.nw() == 9
    # a compositum-split prime is out of desk scope
    with pytest.raises(UnsupportedCaseError):
        F.places(23)


def test_s_unit_lattice():
    F = BiquadField(8, 12)
    L = BiquadSUnitLattice(F, ["inf", 2, 3])
    assert L.rank == 5  # |S_K| - 1 = 6 - 1
    L.log_matrix()  # product formula certified per row


def _sympy_product(L, exponents):
    """prod pool^exponents as a sympy number, each generator a + b sqrt m_i
    at the positive square roots (a real embedding of the compositum)."""
    x = sympy.Integer(1)
    for (idx, g), e in zip(L.pool_owner, exponents):
        if e:
            x *= (sympy.Rational(g.a.numerator, g.a.denominator)
                  + sympy.Rational(g.b.numerator, g.b.denominator)
                  * sympy.sqrt(L.field.ms[idx])) ** e
    return x


def _is_pm_one(x):
    """x = +-1 exactly, by its minimal polynomial over Q."""
    X = sympy.Symbol("X")
    return sympy.minimal_polynomial(x, X) in (X - 1, X + 1)


# in-scope composita, with S = inf and the primes that ramify in them
COMPOSITA = [((5, 13), ["inf", 5, 13]), ((5, 8), ["inf", 2, 5]),
             ((8, 12), ["inf", 2, 3]), ((5, 12), ["inf", 2, 3, 5])]


@pytest.mark.parametrize("discs,S", COMPOSITA,
                         ids=[f"{a},{b}" for (a, b), _ in COMPOSITA])
def test_relation_gate_matches_the_minimal_polynomial(discs, S):
    # the norm gate accepts every relation among the pool (the kernel of
    # the pool-to-basis map) and rejects every basis element, as the
    # minimal polynomial of the exact product decides
    L = BiquadSUnitLattice(BiquadField(*discs), S)
    relations = hnf.kernel(L._V)
    assert len(relations) == len(L.pool_owner) - L.rank
    for row in relations:
        assert all(n == 1 for n in L._norms_to_subfields(row)), row
        assert _is_pm_one(_sympy_product(L, row)), row
    for row in L._basis_pool_rows:
        assert any(n != 1 for n in L._norms_to_subfields(row)), row
        assert not _is_pm_one(_sympy_product(L, row)), row


def test_subfield_inclusions_exact():
    # prod basis^coords is +- the generator, exactly: their quotient's
    # minimal polynomial is X -+ 1
    F = BiquadField(8, 12)
    L = BiquadSUnitLattice(F, ["inf", 2, 3])
    for si in range(3):
        sl = L.sub_lattices[si]
        for gi in range(len(sl.gens)):
            co = L.subfield_generator_coords(si, gi)
            row = [sum(c * b[i] for c, b in zip(co, L._basis_pool_rows))
                   for i in range(len(L.pool_owner))]
            row[L.pool_owner.index((si, sl.gens[gi]))] -= 1
            assert _is_pm_one(_sympy_product(L, row)), (si, gi)


# (lattice, group, permutation of the places under each group generator,
# sigma_matrices() as the lattice's own action matrices give them, or None
# for a compositum, whose lattice builds no action matrices)
def _q_lattice():
    L = s_unit_lattice(QQ, ["inf", 2, 3], [])
    return L, AbelianGroup(()), [], []


def _quad_lattice(D, S, perm):
    L = s_unit_lattice(QuadField(D), S, [])
    return L, AbelianGroup((2,)), [perm], [L.sigma_matrix]


def _biquad_lattice():
    L = BiquadSUnitLattice(BiquadField(5, 13), ["inf", 5, 13])
    # places inf++, inf+-, inf-+, inf--, 5, 13: the generator (1, 0)
    # flips the first sign, (0, 1) the second
    return L, AbelianGroup((2, 2)), [[2, 3, 0, 1, 4, 5], [1, 0, 3, 2, 4, 5]], \
        None


@pytest.mark.parametrize("build", [
    _q_lattice,
    # places inf+, inf-, 2, 3: the automorphism swaps the real places
    lambda: _quad_lattice(12, ["inf", 2, 3], [1, 0, 2, 3]),
    # places inf, 2, 5+, 5-: it swaps the two places above the split 5
    lambda: _quad_lattice(-4, ["inf", 2, 5], [0, 1, 3, 2]),
    _biquad_lattice,
], ids=["Q", "D=12", "D=-4", "discs=5,13"])
def test_lattice_place_and_galois_protocol(build):
    L, group, gen_perms, gen_mats = build()
    n = len(L.places)
    # place_ranges partitions the places by the rational place below
    seen = []
    for v in L.S:
        idx = list(L.place_ranges[v])
        assert idx and all(L.places[i].label.rstrip("+-") == str(v)
                           for i in idx)
        seen.extend(idx)
    assert seen == list(range(n))
    # place_permutation is a group action with the given generators
    perm = {el: L.place_permutation(el) for el in group.elements}
    assert perm[group.identity()] == list(range(n))
    for g in group.elements:
        assert sorted(perm[g]) == list(range(n))
        for h in group.elements:
            assert perm[group.op(g, h)] == [perm[g][perm[h][i]]
                                            for i in range(n)]
    gens = [tuple(int(i == j) for i in range(group.rank))
            for j in range(group.rank)]
    assert [perm[g] for g in gens] == gen_perms
    if gen_mats is None:
        return
    assert L.sigma_matrices() == gen_mats
    # the matrices and the permutations describe the same action: the
    # logs of sigma(g) are those of g at the permuted places
    lam = L.log_matrix()
    for M, p in zip(L.sigma_matrices(), gen_perms):
        for row, log_row in zip(M, lam):
            image = [sum((lam[j][w] * c for j, c in enumerate(row) if c),
                         start=Ball(0)) for w in range(n)]
            assert all((image[w] - log_row[p[w]]).contains_zero()
                       for w in range(n))


@pytest.mark.parametrize("field,S", [
    (QQ, ["inf", 2, 3]),
    (QuadField(5), ["inf", 5, 11]),
    (QuadField(-23), ["inf", 2, 23]),
    (BiquadField(5, 13), ["inf", 5, 13]),
], ids=["Q", "D=5", "D=-23", "discs=5,13"])
def test_every_field_answers_its_places_and_each_lattice_reads_them(field,
                                                                     S):
    # places(v) is a tuple built once per field and rational place
    for v in S:
        first = field.places(v)
        assert type(first) is tuple and field.places(v) is first
    # each field builds its lattice, and every lattice lays its places out
    # by the one helper
    L = field.s_unit_lattice(S, ())
    places, place_ranges = _s_places(field, S)
    assert L.places == places and L.place_ranges == place_ranges


def test_biquad_lattice_has_no_t_lattice_and_unknown_saturation():
    L = BiquadSUnitLattice(BiquadField(5, 13), ["inf", 5, 13])
    assert L.saturation_index is None
    with pytest.raises(UnsupportedCaseError):
        L.t_lattice_hnf()


RELATION_GATE_UNDER_O = """
from starklab.ball import CertificationError
from starklab.biquad import BiquadField, BiquadSUnitLattice

true_coords = BiquadSUnitLattice._express_unit_combination


def shifted_coords(self, c, eps_logs):
    # every combination claims one more third fundamental unit than it
    # holds, so relations found from these coordinates are not +-1
    out = true_coords(self, c, eps_logs)
    out[2] += 1
    return out


BiquadSUnitLattice._express_unit_combination = shifted_coords
try:
    BiquadSUnitLattice(BiquadField(8, 12), ["inf", 2, 3])
except CertificationError as exc:
    if "relation" not in str(exc):
        raise SystemExit(f"wrong gate: {exc}")
else:
    raise SystemExit("a corrupted relation was accepted")
"""


def test_relation_gate_holds_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", RELATION_GATE_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
