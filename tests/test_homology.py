"""Integer linear algebra: SNF, presentations, kernel lattices.

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
from m3cube.errors import DimensionMismatchError, NotClosedError
from m3cube.homology import (
    IntMatrix,
    abelian_invariants,
    all_nonzero_vector,
    kernel_lattice,
    presentation_h1,
    smith_normal_form,
    solve_column_image,
    vanishing_coordinate,
)
from m3cube.manifold import SeifertBlockData, Slope


def det(rows):
    return Matrix(rows).det()


def check_snf(A: IntMatrix):
    snf = smith_normal_form(A)
    U, D, V = snf.U, snf.D, snf.V
    assert (U @ A @ V).rows == D.rows
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


def test_abelian_invariants():
    # Z^3 / <(2,0,0),(0,3,0)> = Z/2 + Z/3 + Z ... invariant form Z + Z/6
    R = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    rank, torsion = abelian_invariants(R)
    assert (rank, torsion) == (1, [6])


def test_solve_column_image():
    R = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_column_image(R, [4, 6]) == (2, 2)
    assert solve_column_image(R, [1, 0]) is None
    assert solve_column_image(R, [0, 0]) == (0, 0)
    with pytest.raises(DimensionMismatchError):
        solve_column_image(R, [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solve_column_image_round_trip(rng):
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    R = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
    x = [rng.randint(-4, 4) for _ in range(m)]
    w = [sum(R.rows[i][j] * x[j] for j in range(m)) for i in range(n)]
    y = solve_column_image(R, w)
    assert y is not None
    back = [sum(R.rows[i][j] * y[j] for j in range(m)) for i in range(n)]
    assert back == w


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


def test_kernel_lattice_and_witness():
    pres = presentation_h1(SeifertBlockData(0, 2))
    z1 = [1, 0, 0]  # d1
    z2 = [0, 1, 0]  # d2
    L = kernel_lattice([z1, z2], pres.relations)
    assert L.vectors == ((1, 1),)
    assert all_nonzero_vector(L) == (1, 1)
    assert vanishing_coordinate(L) is None

    # d2 + h cannot be matched: fiber coordinate kills the second weight
    L2 = kernel_lattice([z1, [0, 1, 1]], pres.relations)
    assert all_nonzero_vector(L2) is None
    assert vanishing_coordinate(L2) is not None


def test_all_nonzero_vector_needs_combination():
    # basis (1,0),(0,1): neither basis vector works alone but (1,1) does
    from m3cube.homology import LatticeBasis

    L = LatticeBasis(2, ((1, 0), (0, 1)))
    v = all_nonzero_vector(L)
    assert v is not None and 0 not in v

    L0 = LatticeBasis(3, ((1, 0, 0), (0, 0, 1)))
    assert all_nonzero_vector(L0) is None
    assert vanishing_coordinate(L0) == 1


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_all_nonzero_vector_is_sound_and_complete(rng):
    from m3cube.homology import LatticeBasis, _row_hnf

    k = rng.randint(1, 4)
    nvec = rng.randint(0, 3)
    vecs = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nvec)]
    basis = _row_hnf(vecs, k)
    L = LatticeBasis(k, basis)
    v = all_nonzero_vector(L)
    if v is None:
        # some coordinate must vanish on every basis vector
        i = vanishing_coordinate(L)
        assert i is not None
        assert all(b[i] == 0 for b in basis)
    else:
        assert 0 not in v
        # v must lie in the row span: solve against the HNF rows
        M = Matrix(list(basis)).T if basis else Matrix.zeros(k, 0)
        sol = M.gauss_jordan_solve(Matrix(list(v)))[0] if basis else None
        if basis:
            assert all(x.q == 1 for x in sol)


def test_euler_number_requires_closed():
    from m3cube.charge import euler_number

    with pytest.raises(NotClosedError):
        euler_number(SeifertBlockData(0, 1))
