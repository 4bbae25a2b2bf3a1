"""Exact integer linear algebra for first homology of Seifert blocks.

Everything here runs over Python's arbitrary-precision integers: Smith normal
form with recorded unimodular transforms, abelianized block presentations,
and the container for the chargeless test's solution lattice, whose rows
carry the relation coefficients that certify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .manifold import SeifertBlockData


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise InputError("ragged rows")
        return IntMatrix(tup)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]


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
            bad = next(
                (i for i in range(t + 1, m) if any(work[i][j] % p for j in range(t + 1, n))), None
            )
            if bad is None:
                break
            # fold the offending row into the pivot row and keep reducing
            row_add(t, bad, 1)
        t += 1

    # the entries are ints and the rows rectangular already: skip from_rows
    return SNFDecomposition(
        IntMatrix(tuple(map(tuple, U))),
        IntMatrix(tuple(map(tuple, work))),
        IntMatrix(tuple(map(tuple, V))),
    )


def abelian_invariants(R: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, torsion orders > 1) of Z^rows / column-span(R)."""
    diag = smith_normal_form(R).diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d > 1]
    return R.nrows - rank, torsion


@dataclass(frozen=True)
class AbelianPresentation:
    """Abelianized presentation of H1 of a Seifert block.

    Generators are the surface classes x1, y1, ..., xg, yg, one class q_j per
    exceptional fiber, one class d_k per boundary torus, and the regular
    fiber h (always last). The surface classes are in no relation, so they
    are counted, not stored: ``relations`` has one row per generator after
    them, q_1 first, and its columns are the relations.
    """

    relations: IntMatrix
    genus: int
    num_exceptional: int
    num_boundary: int

    @property
    def generators(self) -> tuple[str, ...]:
        surface = [f"{c}{i}" for i in range(1, self.genus + 1) for c in "xy"]
        fibers = [f"q{j + 1}" for j in range(self.num_exceptional)]
        ends = [f"d{k + 1}" for k in range(self.num_boundary)]
        return (*surface, *fibers, *ends, "h")

    @property
    def fiber_index(self) -> int:
        return self.relations.nrows - 1

    def boundary_index(self, k: int) -> int:
        if not 0 <= k < self.num_boundary:
            raise InputError(f"no boundary generator {k}")
        return self.num_exceptional + k

    def invariants(self) -> tuple[int, list[int]]:
        """(free rank, torsion orders > 1) of H1.

        Rows d_1, ..., d_p are one row: a 1 in the section column and 0
        elsewhere. Subtracting d_1 from each of d_2, ..., d_p is a
        unimodular row operation that leaves p - 1 zero rows, each a free Z
        summand, so those are counted like the 2g surface classes, and the
        Smith normal form sees only the rows q_1, ..., q_m, d_1, h: at most
        (m + 2) x (m + 1) entries, whatever p is.
        """
        rows = self.relations.rows
        core = rows[: self.num_exceptional + min(self.num_boundary, 1)] + rows[-1:]
        rank, torsion = abelian_invariants(IntMatrix(core))
        return 2 * self.genus + max(self.num_boundary - 1, 0) + rank, torsion


def presentation_h1(b: SeifertBlockData) -> AbelianPresentation:
    """Abelianized H1 presentation from the Seifert invariants.

    Each exceptional fiber (a_j, b_j) gives the relation a_j q_j + b_j h = 0;
    the section gives q_1 + ... + q_m + d_1 + ... + d_p - b h = 0 where b is
    the section obstruction, whether or not the block is closed. This sign
    matches e = -(b + sum b_j/a_j): a closed genus-0 block with e != 0 has
    finite H1 of order a_1 * ... * a_m * |e|.
    """
    mexc, p = len(b.exceptional), b.num_boundary
    rows = [
        [a if i == j else 0 for j in range(mexc)] + [1]
        for i, (a, _) in enumerate(b.exceptional)
    ]
    rows += [[0] * mexc + [1] for _ in range(p)]
    rows.append([bb for _, bb in b.exceptional] + [-b.section_obstruction])
    return AbelianPresentation(IntMatrix.from_rows(rows), b.genus, mexc, p)


@dataclass(frozen=True)
class LatticeBasis:
    """The chargeless solution lattice of a block with ``dim`` ends.

    Each row is a whole solution: its first ``dim`` entries are the weights
    b, the rest are relation coefficients x with sum(b_i * z_i) + R*x = 0.
    """

    dim: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The rows cut to their first ``dim`` entries."""
        return tuple(r[: self.dim] for r in self.rows)
