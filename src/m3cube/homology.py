"""Exact integer linear algebra for first homology of Seifert blocks.

Everything here runs over Python's arbitrary-precision integers: Smith normal
form with recorded unimodular transforms, abelianized block presentations,
integer image membership, and the solution lattice of weighted fiber-class
sums used by the chargeless test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatchError, IndexOutOfRangeError
from .manifold import SeifertBlockData, Slope


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise DimensionMismatchError("ragged rows")
        return IntMatrix(tup)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else self

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatchError("determinant of a non-square matrix")
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + "]"


@dataclass(frozen=True)
class SNFDecomposition:
    """U * A * V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D[i, i] for i in range(min(self.D.nrows, self.D.ncols))
        )


def smith_normal_form(A: IntMatrix) -> SNFDecomposition:
    """Diagonalize A over the integers.

    Pivot choice is the entry of smallest nonzero absolute value in the
    remaining block, ties broken by lowest row and then lowest column, which
    makes the transforms deterministic. Diagonal entries come out
    non-negative and each divides the next.
    """
    m, n = A.nrows, A.ncols
    work = [list(r) for r in A.rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        work[i], work[j] = work[j], work[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in work:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, c):
        work[dst] = [x + c * y for x, y in zip(work[dst], work[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def col_add(dst, src, c):
        for r in work:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def row_negate(i):
        work[i] = [-x for x in work[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        bi = bj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = abs(work[i][j])
                if v and (best == 0 or v < best):
                    best, bi, bj = v, i, j
        if best == 0:
            break
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)

        while True:
            if work[t][t] < 0:
                row_negate(t)
            p = work[t][t]
            dirty = [i for i in range(t + 1, m) if work[i][t]]
            if dirty:
                for i in dirty:
                    row_add(i, t, -(work[i][t] // p))
                left = [i for i in range(t + 1, m) if work[i][t]]
                if left:
                    # positive remainders < p survive; promote the smallest
                    row_swap(t, min(left, key=lambda i: (work[i][t], i)))
                continue
            dirty = [j for j in range(t + 1, n) if work[t][j]]
            if dirty:
                for j in dirty:
                    col_add(j, t, -(work[t][j] // p))
                left = [j for j in range(t + 1, n) if work[t][j]]
                if left:
                    col_swap(t, min(left, key=lambda j: (work[t][j], j)))
                continue
            bad = None
            for i in range(t + 1, m):
                if any(work[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            # fold the offending row into the pivot row and keep reducing
            row_add(t, bad, 1)
        t += 1

    return SNFDecomposition(
        IntMatrix.from_rows(U), IntMatrix.from_rows(work), IntMatrix.from_rows(V)
    )


def abelian_invariants(R: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, torsion orders > 1) of Z^rows / column-span(R)."""
    diag = smith_normal_form(R).diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d > 1]
    return R.nrows - rank, torsion


def solve_column_image(R: IntMatrix, w: Sequence[int]) -> tuple[int, ...] | None:
    """An integer x with R*x = w, or None when w is outside the image."""
    if len(w) != R.nrows:
        raise DimensionMismatchError("target vector has wrong length")
    snf = smith_normal_form(R)
    c = snf.U.mul_vector(w)
    k = min(R.nrows, R.ncols)
    y = [0] * R.ncols
    for i in range(R.nrows):
        d = snf.D[i, i] if i < k else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            y[i] = c[i] // d
    return snf.V.mul_vector(y)


@dataclass(frozen=True)
class AbelianPresentation:
    """Abelianized presentation of H1 of a Seifert block.

    Generators are the surface classes x1, y1, ..., xg, yg, one class q_j per
    exceptional fiber, one class d_k per boundary torus, and the regular
    fiber h (always last). Relations are the columns of ``relations``.
    """

    generators: tuple[str, ...]
    relations: IntMatrix
    genus: int
    num_exceptional: int
    num_boundary: int

    @property
    def fiber_index(self) -> int:
        return len(self.generators) - 1

    def boundary_index(self, k: int) -> int:
        if not 0 <= k < self.num_boundary:
            raise IndexOutOfRangeError(f"no boundary generator {k}")
        return 2 * self.genus + self.num_exceptional + k

    def invariants(self) -> tuple[int, list[int]]:
        return abelian_invariants(self.relations)


def presentation_h1(b: SeifertBlockData) -> AbelianPresentation:
    """Abelianized H1 presentation from the Seifert invariants.

    Each exceptional fiber (a_j, b_j) gives the relation a_j q_j + b_j h = 0;
    the section gives q_1 + ... + q_m + d_1 + ... + d_p - b h = 0 where b is
    the section obstruction for a closed block and 0 otherwise. This sign
    matches e = -(b + sum b_j/a_j): a closed genus-0 block with e != 0 has
    finite H1 of order a_1 * ... * a_m * |e|.
    """
    g, mexc, p = b.genus, len(b.exceptional), b.num_boundary
    labels: list[str] = []
    for i in range(g):
        labels += [f"x{i + 1}", f"y{i + 1}"]
    labels += [f"q{j + 1}" for j in range(mexc)]
    labels += [f"d{k + 1}" for k in range(p)]
    labels.append("h")
    ngen = len(labels)
    h = ngen - 1

    cols: list[list[int]] = []
    for j, (a, bb) in enumerate(b.exceptional):
        col = [0] * ngen
        col[2 * g + j] = a
        col[h] = bb
        cols.append(col)
    section = [0] * ngen
    for j in range(mexc):
        section[2 * g + j] = 1
    for k in range(p):
        section[2 * g + mexc + k] = 1
    section[h] = -b.section_obstruction if p == 0 else 0
    cols.append(section)

    relations = IntMatrix.from_rows(list(map(list, zip(*cols))))
    return AbelianPresentation(tuple(labels), relations, g, mexc, p)


def class_in_h1(b: SeifertBlockData, boundary_index: int, s: Slope) -> tuple[int, ...]:
    """Presentation coordinates of the curve p*d_k + q*h on boundary torus k."""
    pres = presentation_h1(b)
    vec = [0] * len(pres.generators)
    vec[pres.boundary_index(boundary_index)] = s.p
    vec[pres.fiber_index] = s.q
    return tuple(vec)


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^dim, given by linearly independent rows in HNF."""

    dim: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)


def _row_hnf(vectors: list[list[int]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form; returns the nonzero rows."""
    work = [list(v) for v in vectors]
    m = len(work)
    r = 0
    for c in range(dim):
        while True:
            nz = [i for i in range(r, m) if work[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][c]), i))
            work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            done = True
            for i in range(r + 1, m):
                if work[i][c]:
                    q = work[i][c] // work[r][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c]:
                        done = False
            if done:
                break
        if r < m and work[r][c]:
            # reduce the rows above to make the form canonical
            for i in range(r):
                q = work[i][c] // work[r][c]
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
            r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in work[:r] if any(row))


def kernel_lattice(
    fiber_classes: Sequence[Sequence[int]], relations: IntMatrix
) -> LatticeBasis:
    """Weights n with sum(n_i * z_i) in the integer image of the relations.

    ``fiber_classes`` are the presentation-coordinate vectors z_i. The result
    is the full solution lattice L, computed from the integer kernel of the
    stacked matrix [z_1 ... z_k | R] projected to the weight coordinates.
    """
    k = len(fiber_classes)
    ngen = relations.nrows
    for z in fiber_classes:
        if len(z) != ngen:
            raise DimensionMismatchError(
                f"class vector of length {len(z)}, presentation has {ngen} generators"
            )
    if k == 0:
        return LatticeBasis(0, ())
    stacked_rows = [
        [fiber_classes[j][i] for j in range(k)] + list(relations.rows[i])
        for i in range(ngen)
    ]
    M = IntMatrix.from_rows(stacked_rows)
    snf = smith_normal_form(M)
    ncols = M.ncols
    nd = min(M.nrows, ncols)
    kernel_cols = [
        snf.V.column(j)
        for j in range(ncols)
        if j >= nd or snf.D[j, j] == 0
    ]
    projected = [list(col[:k]) for col in kernel_cols]
    basis = _row_hnf(projected, k) if projected else ()
    return LatticeBasis(k, basis)


def vanishing_coordinate(L: LatticeBasis) -> int | None:
    """Index of a coordinate that is zero on all of L, or None."""
    for i in range(L.dim):
        if all(v[i] == 0 for v in L.vectors):
            return i
    return None


def all_nonzero_vector(L: LatticeBasis) -> tuple[int, ...] | None:
    """A lattice vector with every coordinate nonzero, if one exists.

    None is returned exactly when some coordinate vanishes on the whole
    lattice. Otherwise v = sum_j t^j b_j works for some t <= k(r-1)+1: each
    coordinate of v is t times a nonzero polynomial of degree < r in t, so
    the bad values of t number at most k(r-1).
    """
    if L.dim == 0:
        return ()
    if vanishing_coordinate(L) is not None:
        return None
    r = len(L.vectors)
    bound = L.dim * (r - 1) + 1
    for t in range(1, bound + 1):
        v = [0] * L.dim
        scale = 1
        for b in L.vectors:
            scale *= t
            v = [x + scale * y for x, y in zip(v, b)]
        if all(v):
            return tuple(v)
    raise AssertionError("witness bound violated; lattice basis inconsistent")
