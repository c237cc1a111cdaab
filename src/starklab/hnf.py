"""Exact integer lattice linear algebra: Hermite/Smith normal forms, kernels.

All vectors are row vectors (lists of python ints), so a matrix is a list of
rows and a linear map Z^n -> Z^m is applied as ``v @ A`` with A of shape n x m.
Arbitrary-precision ints throughout; nothing here ever overflows.
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

    def copy(self):
        other = IntLattice(self.n)
        other.rows = [r.copy() for r in self.rows]
        other.pivots = self.pivots.copy()
        return other

    @property
    def rank(self):
        return len(self.rows)

    def add_vector(self, vec0):
        """Insert vec0; returns the reduction tail (None once absorbed)."""
        assert len(vec0) == self.n, (len(vec0), self.n)
        self._canon = None
        vec = list(vec0)
        j = 0
        while True:
            # find leading nonzero column of vec
            while j < self.n and vec[j] == 0:
                j += 1
            if j == self.n:
                return
            k = bisect.bisect_left(self.pivots, j)
            if k == len(self.pivots) or self.pivots[k] != j:
                self.rows.insert(k, vec)
                self.pivots.insert(k, j)
                return
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

    def contains_lattice(self, other):
        return all(self.contains_vector(r) for r in other.basis())

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

    def __hash__(self):
        return hash((self.n, tuple(map(tuple, self.canonical()))))


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
        tail = _add_vector_lead(lat, aug, n)
        if tail is not None:
            harvested.append(tail)
    return harvested


def _add_vector_lead(lat, vec0, nlead):
    """Like IntLattice.add_vector but pivots only in the first nlead columns.

    Returns the tail (columns nlead:) when the lead block reduces to zero,
    else None.
    """
    vec = list(vec0)
    j = 0
    while True:
        while j < nlead and vec[j] == 0:
            j += 1
        if j == nlead:
            return vec[nlead:]
        k = bisect.bisect_left(lat.pivots, j)
        if k == len(lat.pivots) or lat.pivots[k] != j:
            lat.rows.insert(k, vec)
            lat.pivots.insert(k, j)
            return None
        row = lat.rows[k]
        a, b = row[j], vec[j]
        if b % a == 0:
            q = b // a
            for jj in range(j, lat.n):
                vec[jj] -= q * row[jj]
        else:
            x, y, g = xgcd(a, b)
            ag, bg = a // g, b // g
            for jj in range(j, lat.n):
                aa, bb = row[jj], vec[jj]
                row[jj] = x * aa + y * bb
                vec[jj] = -bg * aa + ag * bb


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
        _add_vector_lead(lat, aug, n)
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
    """Rational x with x @ rows == vec, or None if vec not in the Q-rowspan."""
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
    nb = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(nb)]
            for i in range(len(A))]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonalize_relations(mat, ncols=None):
    """Diagonalize a relation matrix by unimodular row and column operations.

    Returns (diag, V, Vinv) where U @ mat @ V is diagonal for some unimodular
    U and diag lists the n diagonal entries (>= 0, padded with zeros).  For a
    relation matrix R presenting M = Z^n / rowspan(R), element coordinates
    transform by x -> x @ V and the j-th new generator has old coordinates
    Vinv[j].  The diagonal entries are not sorted into a divisibility chain;
    callers needing invariant factors combine them afterwards.
    """
    A = [list(r) for r in mat]
    m = len(A)
    n = ncols if ncols is not None else (len(A[0]) if A else 0)
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

    def col_neg(j):
        for row in A:
            row[j] = -row[j]
        for row in V:
            row[j] = -row[j]
        Vinv[j] = [-a for a in Vinv[j]]

    t = 0
    while t < min(m, n):
        pr = pc = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if pr is None:
            break
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
            if not dirty:
                break
        if A[t][t] < 0:
            col_neg(t)
        t += 1
    diag = [A[i][i] if i < min(m, n) else 0 for i in range(n)]
    return diag, V, Vinv


def invariant_factors_from_diagonal(diag):
    """Combine diagonal entries into the invariant factor chain d1 | d2 | ...

    Zeros (free ranks) are returned as trailing zeros; ones are dropped.
    """
    from math import gcd
    ds = [d for d in diag if d not in (0, 1)]
    free = sum(1 for d in diag if d == 0)
    # repeatedly fix non-divisible pairs via (gcd, lcm)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                g = gcd(ds[i], ds[j])
                if ds[j] % ds[i] != 0:
                    l = ds[i] * ds[j] // g
                    ds[i], ds[j] = g, l
                    changed = True
        ds = [d for d in ds if d != 1]
    ds.sort()
    return ds + [0] * free
