"""Exact integer lattice linear algebra: Hermite/Smith normal forms, kernels.

All vectors are row vectors (lists of python ints), so a matrix is a list of
rows and a linear map Z^n -> Z^m is applied as ``v @ A`` with A of shape n x m.
Arbitrary-precision ints throughout; nothing here ever overflows.

One echelon insertion, `IntLattice.add_vector`, builds every Hermite form,
kernel and solve.  One Smith form, `diagonalize_relations`, gives the
structure of every finitely generated abelian group presented by relation
rows: it eliminates on the Hermite form of the relations, so its entries
stay small, and returns the invariant-factor chain itself.
"""

import bisect
import math
from fractions import Fraction


def xgcd(a, b):
    # returns (x, y, g) with x*a + y*b == g = gcd(a, b), g >= 0 for (a,b) != (0,0)
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntLattice:
    """A sublattice of Z^n kept in row-echelon form with gcd pivots.

    Vectors can be added one at a time; the internal basis stays echelon
    (pivot columns strictly increasing).  `canonical()` returns the unique
    Hermite normal form: positive pivots, entries above a pivot reduced
    into [0, pivot).
    """

    __slots__ = ("n", "rows", "pivots", "_canon")

    def __init__(self, ambient_dim, rows=None):
        self.n = ambient_dim
        self.rows = []      # echelon rows
        self.pivots = []    # pivot column of each row, strictly increasing
        self._canon = None
        if rows is not None:
            for r in rows:
                self.add_vector(r)

    @property
    def rank(self):
        return len(self.rows)

    def add_vector(self, vec0, nlead=None):
        """Insert vec0, pivoting only in its first `nlead` columns (all n by
        default).

        Returns the reduced tail vec[nlead:] when those columns reduce to
        zero, and None when vec0 adds a new echelon row.
        """
        if len(vec0) != self.n:
            raise ValueError(f"vector of length {len(vec0)} in Z^{self.n}")
        if nlead is None:
            nlead = self.n
        self._canon = None
        vec = list(vec0)
        j = 0
        while True:
            # find leading nonzero column of vec
            while j < nlead and vec[j] == 0:
                j += 1
            if j == nlead:
                return vec[nlead:]
            k = bisect.bisect_left(self.pivots, j)
            if k == len(self.pivots) or self.pivots[k] != j:
                self.rows.insert(k, vec)
                self.pivots.insert(k, j)
                return None
            row = self.rows[k]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.n):
                    vec[jj] -= q * row[jj]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for jj in range(j, self.n):
                    aa, bb = row[jj], vec[jj]
                    row[jj] = x * aa + y * bb
                    vec[jj] = -bg * aa + ag * bb

    def reduce_vector(self, vec0):
        """Reduce vec0 against the basis using exact division only.

        Returns the residual; the zero vector means membership.
        """
        vec = list(vec0)
        for row, j in zip(self.rows, self.pivots):
            if vec[j] == 0:
                continue
            if vec[j] % row[j] != 0:
                return vec
            q = vec[j] // row[j]
            for jj in range(j, self.n):
                vec[jj] -= q * row[jj]
        return vec

    def contains_vector(self, vec):
        return not any(self.reduce_vector(vec))

    def basis(self):
        return self.canonical()

    def canonical(self):
        """Hermite normal form rows (unique canonical basis)."""
        if self._canon is not None:
            return self._canon
        rows = [r.copy() for r in self.rows]
        piv = self.pivots
        for k in range(len(rows)):
            if rows[k][piv[k]] < 0:
                rows[k] = [-x for x in rows[k]]
        # reduce entries above each pivot
        for k in range(len(rows)):
            p = rows[k][piv[k]]
            for i in range(k):
                c = rows[i][piv[k]]
                q = c // p  # floor: leaves remainder in [0, p)
                if q:
                    rows[i] = [u - q * v for u, v in zip(rows[i], rows[k])]
        self._canon = rows
        return rows

    def coords(self, vec):
        """Integer coordinates of vec in the canonical basis, or None."""
        basis = self.canonical()
        vec = list(vec)
        out = [0] * len(basis)
        for k, (row, j) in enumerate(zip(basis, self.pivots)):
            if vec[j] == 0:
                continue
            if vec[j] % row[j] != 0:
                return None
            q = vec[j] // row[j]
            out[k] = q
            for jj in range(j, self.n):
                vec[jj] -= q * row[jj]
        if any(vec):
            return None
        return out

    def index(self):
        """[Z^n : self], or None when self has rank < n."""
        if self.rank < self.n:
            return None
        return abs(math.prod(row[j] for row, j in zip(self.rows, self.pivots)))

    def __eq__(self, other):
        if not isinstance(other, IntLattice):
            return NotImplemented
        return self.n == other.n and self.canonical() == other.canonical()


def hnf(rows, ambient_dim=None):
    """Hermite normal form rows of the lattice spanned by `rows`."""
    if ambient_dim is None:
        rows = list(rows)
        if not rows:
            raise ValueError("need ambient_dim for empty row set")
        ambient_dim = len(rows[0])
    lat = IntLattice(ambient_dim, rows)
    return lat.canonical()


def kernel(rows, ambient_dim=None):
    """Basis of the left kernel {x : x @ rows == 0}, as rows of length len(rows).

    The returned rows span the kernel lattice exactly (they arise from a
    unimodular transform of the identity).
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    if ambient_dim is None:
        ambient_dim = len(rows[0]) if rows else 0
    n = ambient_dim
    # run echelon insertion on [row | e_i]; pivots restricted to lead block
    lat = IntLattice(n + m)
    harvested = []
    for i, r in enumerate(rows):
        aug = r + [0] * m
        aug[n + i] = 1
        tail = lat.add_vector(aug, n)
        if tail is not None:
            harvested.append(tail)
    return harvested


def solve_in_rowspan(rows, vec):
    """Integer x with x @ rows == vec, or None."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return [] if not any(vec) else None
    n = len(rows[0])
    lat = IntLattice(n + m)
    for i, r in enumerate(rows):
        aug = r + [0] * m
        aug[n + i] = 1
        lat.add_vector(aug, n)
    # reduce [vec | 0]; pivot block reduction mirrors into the tail
    aug = list(vec) + [0] * m
    for row, j in zip(lat.rows, lat.pivots):
        if aug[j] == 0:
            continue
        if aug[j] % row[j] != 0:
            return None
        q = aug[j] // row[j]
        for jj in range(len(aug)):
            aug[jj] -= q * row[jj]
    if any(aug[:n]):
        return None
    return [-c for c in aug[n:]]


def rational_solve(rows, vec):
    """Rational x with x @ rows == vec, or None if vec not in the Q-rowspan,
    by a full Gaussian solve: the reference that tests compare
    `GLattice.dual_values`'s back-substitution against."""
    m = len(rows)
    if m == 0:
        return [] if not any(vec) else None
    n = len(rows[0])
    # equations indexed by columns j: sum_i x_i rows[i][j] = vec[j]
    B = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(vec[j])]
         for j in range(n)]
    pivcols = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if B[i][c] != 0), None)
        if pr is None:
            continue
        B[r], B[pr] = B[pr], B[r]
        pv = B[r][c]
        B[r] = [x / pv for x in B[r]]
        for i in range(n):
            if i != r and B[i][c] != 0:
                f = B[i][c]
                B[i] = [x - f * y for x, y in zip(B[i], B[r])]
        pivcols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if B[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivcols):
        x[c] = B[i][m]
    return x


def mat_mul(A, B):
    """A B: each row of A adds a B[k] only for its nonzero entries a."""
    nb = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * nb
        for a, b in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append(acc)
    return out


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonalize_relations(rows, ncols):
    """Smith normal form of the group M = Z^ncols / rowspan(rows).

    Returns (factors, V, Vinv).  `factors` is the invariant-factor chain
    d_1 | d_2 | ... with every d_i > 1, then one 0 per free rank, so that
    M = Z/d_1 x Z/d_2 x ... (Z/0 = Z) and the empty list means M = 0.  V is
    ncols x len(factors): an element with coordinates x has new coordinates
    x @ V, the j-th taken mod factors[j].  Vinv[j] lists the old coordinates
    of the j-th new generator, and Vinv @ V is the identity.

    Row operations do not change M, so the elimination starts from the
    Hermite form of the rows, whose entries are reduced (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.4.14).  Each pivot is the
    smallest remaining entry; once its row and column are clear, a row with
    an entry the pivot does not divide is added to the pivot row, so the
    pivots come out as the divisibility chain in order.
    """
    A = IntLattice(ncols, rows).canonical()
    m, n = len(A), ncols
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def col_op(j1, j2, q):
        # col_{j2} -= q * col_{j1}
        for row in A:
            row[j2] -= q * row[j1]
        for row in V:
            row[j2] -= q * row[j1]
        Vinv[j1] = [a + q * b for a, b in zip(Vinv[j1], Vinv[j2])]

    def col_swap(j1, j2):
        for row in A:
            row[j1], row[j2] = row[j2], row[j1]
        for row in V:
            row[j1], row[j2] = row[j2], row[j1]
        Vinv[j1], Vinv[j2] = Vinv[j2], Vinv[j1]

    for t in range(m):
        _, pr, pc = min((abs(A[i][j]), i, j) for i in range(t, m)
                        for j in range(t, n) if A[i][j])
        A[t], A[pr] = A[pr], A[t]
        if pc != t:
            col_swap(t, pc)
        while True:
            # clear below/right of the pivot; remainder swaps shrink the pivot
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(t, j, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(a % A[t][t] for a in A[i][t + 1:])), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        if A[t][t] < 0:
            A[t][t] = -A[t][t]
            for row in V:
                row[t] = -row[t]
            Vinv[t] = [-a for a in Vinv[t]]
    # the chain starts with its unit factors; their coordinates are always 0
    units = sum(1 for t in range(m) if A[t][t] == 1)
    factors = [A[t][t] for t in range(units, m)] + [0] * (n - m)
    return factors, [row[units:] for row in V], Vinv[units:]
