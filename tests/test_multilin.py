import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklab import hnf
from starklab.ball import Ball, Undecided, working_precision
from starklab.grpring import AbelianGroup, GroupRingElement, InputError
from starklab.hnf import IntLattice, identity_matrix
from starklab.multilin import (GLattice, NonIntegralError, WedgeElement,
                               all_dual_pairings, det_pairing,
                               norm_decomposition_residual, pairing_vector)
from starklab.zideal import GIdealLattice, ideal_from_generators

G2 = AbelianGroup((2,))
REG2 = [[[0, 1], [1, 0]]]  # regular representation of Z/2 on Z^2


def act_element(M, element, vec):
    """g . vec for g = prod_j g_j^(a_j), element = (a_j), through the
    generator matrices of the G-lattice M."""
    out = list(vec)
    for mat, a in zip(M.action, element):
        for _ in range(a):
            out = [sum(v * row[k] for v, row in zip(out, mat))
                   for k in range(M.ambient)]
    return out


def regular_lattice():
    return GLattice(G2, 2, identity_matrix(2), REG2)


def image(eps, M):
    """The G-stable lattice of the integer vectors of eps's dual pairings,
    as `RubinStarkData.im_lattice` builds it; NonIntegralError when some
    pairing is not in Z[G]."""
    return GIdealLattice.from_vectors(
        eps.group, [pairing_vector(val, F)
                    for F, val in all_dual_pairings(eps, M)])


def free_rank2_lattice():
    reg4 = [[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]]
    return GLattice(G2, 4, identity_matrix(4), reg4)


def test_det_pairing_degree_one_and_alternating():
    M = regular_lattice()
    duals = M.dual_values(identity_matrix(2))
    w = WedgeElement(G2, 1, {(0,): GroupRingElement.one(G2, "rat")})
    for h in duals:
        val = det_pairing(w, [h])
        assert val.ring != "ball"
    M2 = free_rank2_lattice()
    # e_0 and e_2 are the free generators of Z[G]^2 = Z^4
    w2 = WedgeElement(G2, 2, {(0, 2): GroupRingElement.one(G2, "rat")})
    duals2 = M2.dual_values(identity_matrix(4))
    assert det_pairing(w2, [duals2[0], duals2[0]]).is_zero()
    ints = [v.int_vector() for _f, v in all_dual_pairings(w2, M2)]
    assert [1, 0] in ints or [-1, 0] in ints


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 6)),
                min_size=9, max_size=9),
       st.integers(1, 3), st.sampled_from([53, 128]))
def test_a_ball_pairing_is_the_exact_pairing_rounded_once(parts, degree,
                                                          bits):
    # {x in Z^3 : x_0 + x_1 + x_2 = 0 mod 3} under the cyclic shift, whose
    # dual values have denominator 3: a wedge with exact dyadic points in
    # balls pairs, coefficient by coefficient, to its exact rational
    # pairing rounded once, each a `ball_combination` of the products
    G3 = AbelianGroup((3,))
    shift = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    M = GLattice(G3, 3, [[1, 0, 2], [0, 1, 2], [0, 0, 3]], [shift])
    q = [Fraction(n, 2 ** k) for n, k in parts]
    keys = list(itertools.combinations(range(3), degree))
    exact = WedgeElement(G3, degree, {
        J: GroupRingElement(G3, "rat", q[3 * i:3 * i + 3])
        for i, J in enumerate(keys)})
    with working_precision(bits):
        balls = WedgeElement(G3, degree, {J: z.convert("ball")
                                          for J, z in exact.coeffs.items()})
        for (F, e), (F2, b) in zip(all_dual_pairings(exact, M),
                                   all_dual_pairings(balls, M)):
            assert F == F2 and e.ring == "rat" and b.ring == "ball"
            assert [c._v for c in b.coeffs] == [Ball(c)._v for c in e.coeffs]


def test_image_lattice_is_principal_for_vectors():
    rng = random.Random(3)
    M = regular_lattice()
    for _ in range(15):
        vec = [rng.randint(-3, 3), rng.randint(-3, 3)]
        if vec == [0, 0]:
            continue
        # vec = v_0 u + v_1 sigma u on the free generator u
        w = WedgeElement(G2, 1, {(0,): GroupRingElement(G2, "rat", vec)})
        assert image(w, M) == ideal_from_generators(
            [GroupRingElement(G2, "int", vec)])


def test_half_norm_is_not_integral():
    M = regular_lattice()
    half_ng = WedgeElement(G2, 1, {
        (0,): GroupRingElement(G2, "rat", [Fraction(1, 2), Fraction(1, 2)])})
    with pytest.raises(NonIntegralError):
        image(half_ng, M)


HALF = Fraction(1, 2)


@pytest.mark.parametrize("ring,coeff", [
    ("rat", HALF),
    ("ball", Ball(HALF)),
    ("ball", Ball(HALF, Fraction(1, 2 ** 100))),
], ids=["exact", "radius-0", "radius-2^-100"])
def test_a_pairing_with_no_integer_in_its_enclosure_is_not_integral(ring,
                                                                     coeff):
    # no precision puts an integer into these enclosures, so the answer is
    # "not integral", never "raise the precision"
    val = GroupRingElement(G2, ring, [coeff, 0])
    with pytest.raises(NonIntegralError) as info:
        pairing_vector(val, (0,))
    assert info.value.witness is val


def test_a_pairing_whose_enclosure_holds_integers_is_integral_or_undecided():
    near_three = Ball(3, Fraction(1, 2 ** 100))
    assert pairing_vector(GroupRingElement(G2, "ball", [near_three, 0]),
                          (0,)) == [3, 0]
    # [-1/2, 3/2] holds 0 and 1: more bits may still single one out
    wide = Ball(HALF, 1)
    with pytest.raises(Undecided):
        pairing_vector(GroupRingElement(G2, "ball", [wide, 0]), (0,))


def test_no_integer_in_one_coefficient_outranks_two_in_another():
    # [-1/2, 3/2] holds two integers and [0.49, 0.51] none: no precision
    # makes the second integral, so the pairing is not in Z[G], whichever
    # coefficient comes first
    wide, none = Ball(HALF, 1), Ball(HALF, Fraction(1, 100))
    for coeffs in ([wide, none], [none, wide]):
        val = GroupRingElement(G2, "ball", coeffs)
        with pytest.raises(NonIntegralError) as info:
            pairing_vector(val, (0,))
        assert info.value.witness is val


def test_degree_zero_image_is_the_scalar_ideal():
    M = regular_lattice()
    theta = GroupRingElement(G2, "rat", [3, -3])
    w0 = WedgeElement(G2, 0, {(): theta})
    assert image(w0, M) == ideal_from_generators([theta.convert("int")])


def test_bidual_oracle_equivalence_small_rank():
    # random G-stable lattices of rank <= 3; random rational degree-1
    # elements in coordinates of the lattice's basis; pairings with the dual
    # basis decide membership exactly as dense random Z[G]-combinations of
    # the dual homs do
    rng = random.Random(4)
    trials = 0
    while trials < 12:
        amb = rng.choice([2, 4])
        action = REG2 if amb == 2 else [[[0, 1, 0, 0], [1, 0, 0, 0],
                                         [0, 0, 0, 1], [0, 0, 1, 0]]]
        lat = IntLattice(amb)
        for _ in range(amb):
            v = [rng.randint(-2, 2) for _ in range(amb)]
            lat.add_vector(v)
            # close under the action
            img = [sum(v[i] * action[0][i][j] for i in range(amb))
                   for j in range(amb)]
            lat.add_vector(img)
        if lat.rank == 0 or lat.rank > 3:
            continue
        M = GLattice(G2, amb, lat.canonical(), action)
        basis = M.basis()
        num = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
               for _ in basis]
        w = WedgeElement(G2, 1, {
            (i,): GroupRingElement.one(G2, "rat").scale(c)
            for i, c in enumerate(num) if c})
        if not w.coeffs:
            continue
        duals = M.dual_values(basis)
        try:
            for i, h in enumerate(duals):
                pairing_vector(det_pairing(w, [h]), (i,))
            member = True
        except NonIntegralError:
            member = False
        # dense oracle: many random Z[G]-combinations of the dual homs
        oracle = True
        for _ in range(25):
            combo = [GroupRingElement.zero(G2, "rat")] * len(basis)
            for h in duals:
                z = GroupRingElement(G2, "rat",
                                     [rng.randint(-2, 2), rng.randint(-2, 2)])
                combo = [a + z * b for a, b in zip(combo, h)]
            val = det_pairing(w, [combo])
            try:
                val.int_vector()
            except Exception:
                oracle = False
                break
        assert member == oracle
        trials += 1


def test_norm_decomposition_residual_trivial():
    z = WedgeElement(G2, 1, {(0,): GroupRingElement.zero(G2, "rat")})
    verdict, radius = norm_decomposition_residual(z, [z, z], z, 2, 1)
    assert verdict is True and radius == 0
    nz = WedgeElement(G2, 1, {(0,): GroupRingElement.one(G2, "rat")})
    verdict, _ = norm_decomposition_residual(nz, [z, z], z, 2, 1)
    assert verdict is False


def _hom_kernel(M):
    """Oracle: a Z-basis of Hom_{Z[G]}(M, Z[G]) as the integer kernel of
    the equivariance system f(g . b_i) = g . f(b_i), each hom a row of its
    values f(b_1), ..., f(b_t) on the HNF basis, |G| coefficients each."""
    group = M.group
    n = group.order
    basis = M.basis()
    t = len(basis)
    unknowns = t * n
    rows = []
    for j in range(group.rank):
        gen = tuple(1 if l == j else 0 for l in range(group.rank))
        # permutation: (g . y)_tau = y_{g^{-1} tau}
        perm = [group.index[group.op(group.inv(gen), el)]
                for el in group.elements]
        images = [M.lattice.coords(act_element(M, gen, b)) for b in basis]
        for i in range(t):
            for s in range(n):
                # sum_k T[i][k] x[(k, s)] - x[(i, perm[s])] = 0
                row = [0] * unknowns
                for k in range(t):
                    row[k * n + s] += images[i][k]
                row[i * n + perm[s]] -= 1
                rows.append(row)
    if not rows:
        return identity_matrix(unknowns)
    # the unknown vector x with rows @ x = 0 is the left kernel of the
    # transpose
    mt = [[rows[r][c] for r in range(len(rows))] for c in range(unknowns)]
    return hnf.kernel(mt, ambient_dim=len(rows))


def _dual_rows(M):
    """The dual basis of `GLattice.dual_values` on M's HNF basis, each hom
    a row in the layout of `_hom_kernel`; its values there are integral."""
    return [[c for val in hom for c in val.int_vector()]
            for hom in M.dual_values(M.basis())]


def assert_dual_basis_spans_the_hom_kernel(M):
    t, n = len(M.basis()), M.group.order
    dual = _dual_rows(M)
    assert len(dual) == t
    assert IntLattice(t * n, dual) == IntLattice(t * n, _hom_kernel(M))


def _duals_by_solve(M, vectors):
    """Oracle: `dual_values` with the action applied in the ambient and a
    full rational Gaussian solve for the coordinates of each g^-1 u."""
    group = M.group
    basis = [[Fraction(c) for c in b] for b in M.basis()]
    out = [[] for _ in basis]
    for u in vectors:
        coords = []
        for g in group.elements:
            co = hnf.rational_solve(basis, [Fraction(c) for c in
                                            act_element(M, group.inv(g), u)])
            if co is None:
                raise InputError("vector outside Q-span of lattice")
            coords.append(co)
        for i, values in enumerate(out):
            values.append(GroupRingElement(group, "rat",
                                           [co[i] for co in coords]))
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_values_match_a_rational_solve(data):
    """Back-substitution on the echelon basis gives the coordinates that a
    Gaussian solve gives, on full-rank and rank-deficient lattices, and a
    vector outside the Q-span raises InputError either way."""
    small = st.integers(-4, 4)
    amb = data.draw(st.integers(1, 6), label="ambient")
    rank = data.draw(st.integers(0, amb), label="rank")
    pivots = sorted(data.draw(st.sets(st.integers(0, amb - 1),
                                      min_size=rank, max_size=rank)))
    rows = []
    for p in pivots:
        lead = data.draw(st.integers(-3, 3).filter(bool))
        rows.append([0] * p + [lead] + data.draw(
            st.lists(small, min_size=amb - p - 1, max_size=amb - p - 1)))
    # the identity action preserves every lattice, so G2 acts validly
    M = GLattice(G2, amb, rows, [identity_matrix(amb)])
    assert M.lattice.rank == rank
    basis = M.basis()
    vectors = []
    for _ in range(data.draw(st.integers(1, 3))):
        combo = data.draw(st.lists(small, min_size=rank, max_size=rank))
        u = [sum(c * b[j] for c, b in zip(combo, basis)) for j in range(amb)]
        # divided by its content, u keeps to the Q-span but its
        # coordinates are no longer integers
        g = math.gcd(*u)
        vectors.append([x // g for x in u] if g > 1 else u)
    assert M.dual_values(vectors) == _duals_by_solve(M, vectors)
    if rank < amb:
        # a leading entry off the pivot columns puts a vector outside the
        # Q-span of an echelon basis
        j = data.draw(st.sampled_from(sorted(set(range(amb)) - set(pivots))))
        outside = [0] * j + [1] + data.draw(
            st.lists(small, min_size=amb - j - 1, max_size=amb - j - 1))
        with pytest.raises(InputError):
            M.dual_values(vectors + [outside])
        with pytest.raises(InputError):
            _duals_by_solve(M, vectors + [outside])


def test_the_dual_basis_of_every_pool_t_lattice_spans_the_hom_kernel():
    # Hom_{Z[G]}(M, Z[G]) -> Hom_Z(M, Z), f -> (coefficient of 1 in f), is
    # an isomorphism, so the Hom basis has rank_Z M elements: the index
    # tuples of a vacuous datum's zero pairings rest on it
    import pool_digest
    from starklab.ball import working_precision
    from starklab.numfld import QuadField, RationalField
    built = 0
    for data in pool_digest.rubin_data():
        if not isinstance(data.datum.field, (RationalField, QuadField)):
            continue
        with working_precision(128):
            M = data.t_glattice()
        assert_dual_basis_spans_the_hom_kernel(M)
        built += 1
    assert built == 54


def _summand(group, kind):
    """The action matrices of one generator each on a summand of a G-lattice
    Z^n: the regular representation, the trivial one, or ("sign", j), where
    generator j (of even order) acts by -1 and the others trivially."""
    if kind == "regular":
        return [[[int(group.op(gen, el) == other) for other in group.elements]
                 for el in group.elements]
                for gen in (tuple(int(i == j) for i in range(group.rank))
                            for j in range(group.rank))]
    if kind == "trivial":
        return [[[1]] for _ in range(group.rank)]
    return [[[-1 if i == kind[1] else 1]] for i in range(group.rank)]


@st.composite
def g_lattices(draw):
    """(M, drawn): M the Z-span of the G-orbits of the drawn vectors, in a
    direct sum of regular, trivial and sign summands."""
    group = AbelianGroup(draw(st.sampled_from([(2,), (3,), (4,), (2, 2)])))
    kinds = ["regular", "trivial"] + [
        ("sign", j) for j, d in enumerate(group.invariant_factors)
        if d % 2 == 0]
    blocks = [_summand(group, k) for k in draw(
        st.lists(st.sampled_from(kinds), min_size=1, max_size=3))]
    amb = sum(len(b[0]) for b in blocks)
    action = []
    for j in range(group.rank):
        mat, off = [[0] * amb for _ in range(amb)], 0
        for b in blocks:
            for i, row in enumerate(b[j]):
                mat[off + i][off:off + len(row)] = row
            off += len(b[j])
        action.append(mat)
    # the Z-span of the orbits of a few drawn vectors is G-stable
    M = GLattice(group, amb, [[0] * amb], action)
    lat = IntLattice(amb)
    drawn = draw(st.lists(st.lists(st.integers(-3, 3), min_size=amb,
                                   max_size=amb), min_size=1, max_size=3))
    for v in drawn:
        for el in group.elements:
            lat.add_vector(act_element(M, el, v))
    M = GLattice(group, amb, lat.canonical(), action)
    assert len(M.basis()) == lat.rank
    return M, drawn


@given(g_lattices())
@settings(max_examples=40, deadline=None)
def test_the_dual_basis_of_a_g_lattice_spans_the_hom_kernel(lattice):
    M, drawn = lattice
    assert_dual_basis_spans_the_hom_kernel(M)
    # each drawn vector over its content has rational coordinates, and the
    # action in M-coordinates moves them as the ambient action does
    vectors = [[x // math.gcd(*v) for x in v] for v in drawn if any(v)]
    assert M.dual_values(vectors) == _duals_by_solve(M, vectors)


@given(g_lattices())
@settings(max_examples=20, deadline=None)
def test_the_dual_values_have_the_z_dual_basis_at_one(lattice):
    # the coefficient of 1 in F_i(b_j) is b_i*(b_j): the dual basis is the
    # preimage of the Z-dual basis, whose r-subsets index the pairings of a
    # vacuous datum too
    M, _drawn = lattice
    one = M.group.index[M.group.identity()]
    duals = M.dual_values(M.basis())
    assert [[val.coeffs[one] for val in hom] for hom in duals] == \
        identity_matrix(len(M.basis()))


def test_dual_pairings_of_a_free_module_are_the_determinants():
    # Z[G]^2 = Z^4 on the free generators e_0 and e_2, with sigma e_0 = e_1
    # and sigma e_2 = e_3: F_i(e_k) is sigma when sigma^-1 e_k = e_i, so
    # F_0 and F_2 are the coordinate homs and F_1 and F_3 are sigma times
    # them, and e_0 ^ e_2 pairs with (F_i, F_j) to their 2 x 2 minor
    M = free_rank2_lattice()
    w = WedgeElement(G2, 2, {(0, 2): GroupRingElement.one(G2, "rat"),
                             (1, 2): GroupRingElement(G2, "rat",
                                                      [Fraction(1, 2), 3])})
    duals = M.dual_values(identity_matrix(4))
    pairings = all_dual_pairings(w, M)
    assert pairings == [(F, det_pairing(w, [duals[i] for i in F]))
                        for F in itertools.combinations(range(4), 2)]
    only_e0_e2 = WedgeElement(G2, 2, {(0, 2): GroupRingElement.one(G2,
                                                                   "rat")})
    assert [(F, val.int_vector())
            for F, val in all_dual_pairings(only_e0_e2, M)] == [
        ((0, 1), [0, 0]), ((0, 2), [1, 0]), ((0, 3), [0, 1]),
        ((1, 2), [0, 1]), ((1, 3), [1, 0]), ((2, 3), [0, 0])]


GATES_UNDER_O = """
from starklab.grpring import AbelianGroup, InputError
from starklab.multilin import GLattice

# the swap of coordinates does not preserve the lattice 2Z + Z
G2 = AbelianGroup((2,))
try:
    GLattice(G2, 2, [[2, 0], [0, 1]], [[[0, 1], [1, 0]]])
    raise SystemExit("GLattice accepted a non-stable lattice")
except InputError:
    pass
"""


def test_the_g_stability_gate_holds_under_python_O():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", GATES_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
