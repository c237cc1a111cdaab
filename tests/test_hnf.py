import itertools
import math
import random
import time
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starklab.hnf import (IntLattice, diagonalize_relations,
                          identity_matrix, kernel, mat_mul, rational_solve,
                          solve_in_rowspan, xgcd)


def test_xgcd():
    for a in range(-20, 20):
        for b in range(-20, 20):
            x, y, g = xgcd(a, b)
            assert x * a + y * b == g
            if (a, b) != (0, 0):
                assert g > 0 and a % g == 0 and b % g == 0


def test_canonical_form_is_generating_set_independent():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)]
                for _ in range(rng.randint(0, 6))]
        lat = IntLattice(n, rows)
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        extra = []
        for _ in range(3):
            if rows:
                c = [rng.randint(-3, 3) for _ in rows]
                extra.append([sum(ci * r[j] for ci, r in zip(c, rows))
                              for j in range(n)])
        lat2 = IntLattice(n, shuffled + extra)
        assert lat == lat2


def test_membership_and_coords():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        lat = IntLattice(n, rows)
        basis = lat.canonical()
        for r in rows:
            assert lat.contains_vector(r)
            co = lat.coords(r)
            rec = [sum(co[i] * basis[i][j] for i in range(len(basis)))
                   for j in range(n)]
            assert rec == r
        # a vector outside (offset by a unit bump in a zero column) fails
        if lat.rank < n:
            free_col = next(j for j in range(n) if j not in lat.pivots)
            probe = [0] * n
            probe[free_col] = 1
            assert not lat.contains_vector(probe)


def test_kernel_exactness():
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        K = kernel(A)
        for k in K:
            assert all(sum(k[i] * A[i][j] for i in range(m)) == 0
                       for j in range(n))
        assert len(K) == m - IntLattice(n, A).rank
        if K:
            # kernel lattices are saturated: random combinations stay inside
            klat = IntLattice(m, K)
            c = [rng.randint(-3, 3) for _ in K]
            v = [sum(ci * k[j] for ci, k in zip(c, K)) for j in range(m)]
            assert klat.contains_vector(v)


def test_solvers():
    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-5, 5) for _ in range(m)]
        v = [sum(x[i] * A[i][j] for i in range(m)) for j in range(n)]
        s = solve_in_rowspan(A, v)
        assert s is not None
        assert [sum(s[i] * A[i][j] for i in range(m)) for j in range(n)] == v
        xq = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(m)]
        vq = [sum(xq[i] * A[i][j] for i in range(m)) for j in range(n)]
        sq = rational_solve(A, vq)
        assert sq is not None
        assert [sum(sq[i] * A[i][j] for i in range(m))
                for j in range(n)] == vq


def _check_smith_form(R, n):
    """The Smith form of R presents the same group Z^n / rowspan(R)."""
    factors, V, Vinv = diagonalize_relations(R, n)
    k = len(factors)
    torsion = factors[:k - factors.count(0)]
    assert factors[len(torsion):] == [0] * (k - len(torsion))
    assert all(d > 1 for d in torsion)
    assert all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
    assert mat_mul(Vinv, V) == identity_matrix(k)
    diag_rows = [[d if i == j else 0 for j in range(k)]
                 for i, d in enumerate(factors)]
    assert IntLattice(k, mat_mul(R, V)) == IntLattice(k, diag_rows)
    return factors


def test_diagonalize_relations():
    rng = random.Random(5)
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        R = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        _check_smith_form(R, n)


def test_invariant_factors():
    def factors(diag):
        n = len(diag)
        rows = [[d if i == j else 0 for j in range(n)]
                for i, d in enumerate(diag)]
        return diagonalize_relations(rows, n)[0]

    assert factors([2, 3]) == [6]
    assert factors([2, 4]) == [2, 4]
    assert factors([6, 4]) == [2, 12]
    assert factors([1, 1, 5]) == [5]
    assert factors([0, 2]) == [2, 0]
    assert factors([1, 1]) == []


def _det(M):
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def test_smith_form_against_determinantal_divisors():
    # d_1 ... d_k is the gcd of the k x k minors, for every k
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        R = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors = _check_smith_form(R, n)
        rank = n - factors.count(0)
        chain = [1] * (rank - len(factors) + factors.count(0)) + factors
        for k in range(1, min(m, n) + 1):
            minors = [_det([[R[i][j] for j in cols] for i in rows])
                      for rows in itertools.combinations(range(m), k)
                      for cols in itertools.combinations(range(n), k)]
            assert math.prod(chain[:k]) == math.gcd(*minors), (R, k)


def test_smith_form_entries_stay_bounded():
    # elimination on the raw rows let entries grow past thousands of digits
    ray_class_rows = [[36, 0, 0, 0], [0, 36, 0, 0], [0, 0, 52, 0],
                      [0, 0, 0, 52], [23, 14, 7, 46], [9, 27, 13, 39],
                      [23, 14, 7, 46]]
    assert _check_smith_form(ray_class_rows, 4) == [4, 468]
    rng = random.Random(12)
    for _ in range(10):
        R = [[rng.randint(-9999, 9999) for _ in range(8)] for _ in range(10)]
        t0 = time.perf_counter()
        factors = _check_smith_form(R, 8)
        assert time.perf_counter() - t0 < 2.0
        assert 0 not in factors
        assert math.prod(factors) == IntLattice(8, R).index()


def _dense_product(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


@st.composite
def _factors(draw):
    """(A, B) of shapes m x n and n x p, entries in [-9, 9] and many of
    them 0, or B a permutation matrix."""
    m, n, p = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9)
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return A, [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    return A, [[draw(entry) for _ in range(p)] for _ in range(n)]


@given(_factors())
@settings(max_examples=100, deadline=None)
@example(([], [[1, 2]]))                      # 0 rows
@example(([[3, -4, 5]], [[1], [-2], [0]]))   # 1 x n times n x 1
@example(([[2], [-7]], [[-1, 6]]))           # n x 1 times 1 x n
@example(([[0, -2], [5, 0]], [[0, 1], [1, 0]]))
def test_mat_mul_is_the_dense_triple_sum(AB):
    A, B = AB
    assert mat_mul(A, B) == _dense_product(A, B)
