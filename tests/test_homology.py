"""Integer linear algebra: SNF and presentations.

sympy is used here as an independent oracle only; the package itself never
imports it.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from m3cube.charge import euler_number
from m3cube.errors import InputError
from m3cube.homology import (
    IntMatrix,
    abelian_invariants,
    presentation_h1,
    smith_normal_form,
)
from m3cube.manifold import SeifertBlockData


def det(rows):
    return Matrix(rows).det()


def check_snf(A: IntMatrix):
    snf = smith_normal_form(A)
    U, D, V = snf.U, snf.D, snf.V
    assert Matrix(U.rows) * Matrix(A.rows) * Matrix(V.rows) == Matrix(D.rows)
    assert abs(det(U.rows)) == 1
    assert abs(det(V.rows)) == 1
    diag = snf.diagonal()
    # off-diagonal zero, non-negative diagonal, divisibility chain
    for i, row in enumerate(D.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # independent diagonal from sympy
    expected = sympy_snf(Matrix(list(A.rows)))
    n = min(A.nrows, A.ncols)
    assert [abs(expected[i, i]) for i in range(n)] == list(diag)
    return snf


def test_snf_golden_2x2():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(A).diagonal() == (2, 4)


def test_snf_zero_and_identity():
    assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])).diagonal() == (0, 0)
    assert smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]])).diagonal() == (1, 1)


def test_snf_rectangular():
    check_snf(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0], [1, 1]]))
    check_snf(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_snf_random_properties(n, m, rng):
    A = IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    )
    check_snf(A)


def test_snf_sparse_unit_and_nonunit_pivots():
    # 0/+-1/+-k entries, up to 8x8: unit pivots end the pivot search early
    # and skip the divisibility sweep, non-unit pivots go through both
    rng = random.Random(11)
    diagonals = []
    for _ in range(120):
        n, m, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(2, 6)
        entries = (0, 0, 0, 1, -1, k, -k)
        A = IntMatrix.from_rows([[rng.choice(entries) for _ in range(m)] for _ in range(n)])
        diagonals.append(check_snf(A).diagonal())
    assert sum(1 in d for d in diagonals) >= 30
    assert sum(any(x > 1 for x in d) for d in diagonals) >= 30


def test_abelian_invariants():
    # Z^3 / <(2,0,0),(0,3,0)> = Z/2 + Z/3 + Z ... invariant form Z + Z/6
    R = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    rank, torsion = abelian_invariants(R)
    assert (rank, torsion) == (1, [6])


def test_presentation_trefoil():
    b = SeifertBlockData(0, 1, exceptional=((2, 1), (3, 1)))
    pres = presentation_h1(b)
    assert pres.generators == ("q1", "q2", "d1", "h")
    assert pres.invariants() == (1, [])


def test_presentation_t2xi():
    pres = presentation_h1(SeifertBlockData(0, 2))
    assert pres.generators == ("d1", "d2", "h")
    assert pres.invariants() == (2, [])


def test_presentation_closed_uses_obstruction():
    # S^1-bundle over the torus with e = -b: H1 = Z^2 + Z/|b|
    pres = presentation_h1(SeifertBlockData(1, 0, section_obstruction=3))
    assert pres.invariants() == (2, [3])
    flat = presentation_h1(SeifertBlockData(1, 0, section_obstruction=0))
    assert flat.invariants() == (3, [])


def test_presentation_closed_exceptional_goldens():
    # hand-reduced determinants of the 4x4 relation matrix over S^2(2,3,5):
    # with section column (1,1,1,-b) the order is |30*b + 31| = 30*|e|
    sphere = SeifertBlockData(0, 0, exceptional=((2, 1), (3, 1), (5, 1)), section_obstruction=-1)
    assert presentation_h1(sphere).invariants() == (0, [])
    big = SeifertBlockData(0, 0, exceptional=((2, 1), (3, 1), (5, 1)), section_obstruction=1)
    assert presentation_h1(big).invariants() == (0, [61])


def test_closed_genus0_torsion_order_is_product_times_euler():
    # |H1| = a_1 * ... * a_m * |e| for a closed block over S^2 with e != 0
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        exceptional = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(2, 7)
            exceptional.append((a, rng.choice([bb for bb in range(1, a) if math.gcd(a, bb) == 1])))
        block = SeifertBlockData(
            0, 0, exceptional=tuple(exceptional), section_obstruction=rng.randint(-4, 4)
        )
        e = euler_number(block)
        if e == 0:
            continue
        pres = presentation_h1(block)
        diag = sympy_snf(Matrix(pres.relations.rows)).diagonal()
        order = math.prod(abs(d) for d in diag)
        assert order == math.prod(a for a, _ in exceptional) * abs(e)
        assert pres.invariants()[0] == 0
        checked += 1


def test_euler_number_requires_closed():
    from m3cube.charge import euler_number

    with pytest.raises(InputError, match="Euler number needs a closed Seifert block"):
        euler_number(SeifertBlockData(0, 1))


def test_invariants_agree_with_sympy_on_the_full_relation_matrix():
    # the boundary rows beyond d_1 are counted, not reduced: sympy reduces
    # the whole (m + p + 1) x (m + 1) matrix, written here from the
    # invariants and not read back from the presentation
    rng = random.Random(31)
    for i in range(200):
        # every fourth block is closed, so that b != 0 is drawn often
        genus, p = rng.randint(0, 3), rng.randint(0, 50) if i % 4 else 0
        exceptional = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(2, 7)
            exceptional.append((a, rng.choice([bb for bb in range(-a, a) if math.gcd(a, bb) == 1])))
        b = rng.randint(-3, 3) if p == 0 else 0
        block = SeifertBlockData(genus, p, exceptional=tuple(exceptional), section_obstruction=b)
        m = len(exceptional)
        full = [[a if i == j else 0 for j in range(m)] + [1] for i, (a, _) in enumerate(exceptional)]
        full += [[0] * m + [1] for _ in range(p)]
        full.append([bb for _, bb in exceptional] + [-b])
        diag = [abs(d) for d in sympy_snf(Matrix(full)).diagonal()]
        rank = len(full) - sum(1 for d in diag if d != 0)
        torsion = sorted(d for d in diag if d > 1)
        assert presentation_h1(block).invariants() == (2 * genus + rank, torsion), block
