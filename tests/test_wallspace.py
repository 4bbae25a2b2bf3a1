"""Wallspaces, crossing, Sageev duals, exact torus line arrangements."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from m3cube.cubecomplex import dimension
from m3cube.errors import BudgetExceededError, InputError
from m3cube.manifold import Slope
from m3cube.wallspace import (
    Wall,
    Wallspace,
    dual_cube_complex,
    torus_line_wallspace,
    validate_wallspace,
    walls_cross,
)


def test_validate_wallspace_problems():
    w = Wall("A", frozenset({1}), frozenset({2}))
    dup = Wallspace((1, 2), (w, Wall("A", frozenset({2}), frozenset({1}))))
    assert any("'A' redeclared" in p for p in validate_wallspace(dup).problems)

    assert any("at least one chamber" in p for p in validate_wallspace(Wallspace((), ())).problems)

    repeated = Wallspace((1, 1, 2), (w,))
    assert any("repeated chamber ids" in p for p in validate_wallspace(repeated).problems)

    unknown = Wallspace((1, 2), (Wall("A", frozenset({1, 7}), frozenset({2})),))
    assert any("chamber 7 out of range" in p for p in validate_wallspace(unknown).problems)

    uncovering = Wallspace((1, 2, 3), (Wall("A", frozenset({1}), frozenset({2})),))
    assert any("cover" in p for p in validate_wallspace(uncovering).problems)

    nested = Wallspace((1, 2), (Wall("A", frozenset({1, 2}), frozenset({2})),))
    assert any("contains" in p for p in validate_wallspace(nested).problems)

    assert validate_wallspace(
        Wallspace((1, 2), (Wall("A", frozenset({1}), frozenset({2})),))
    ).ok


def test_walls_cross_is_identity_based():
    w1 = Wall("1", frozenset({1, 2}), frozenset({3, 4}))
    w2 = Wall("2", frozenset({1, 3}), frozenset({2, 4}))
    assert walls_cross(w1, w2)
    assert not walls_cross(w1, w1)
    # same content, different identity: crossing is decided by the corners
    clone = Wall("1b", frozenset({1, 2}), frozenset({3, 4}))
    assert not walls_cross(w1, clone)
    # nested-ish pair: one empty corner kills the crossing
    w3 = Wall("3", frozenset({1}), frozenset({2, 3, 4}))
    assert not walls_cross(w1, w3)


def hypercube_walls(k):
    chambers = tuple(range(2 ** k))
    walls = tuple(
        Wall(
            f"w{i}",
            frozenset(c for c in chambers if not c >> i & 1),
            frozenset(c for c in chambers if c >> i & 1),
        )
        for i in range(k)
    )
    return Wallspace(chambers, walls)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pairwise_crossing_walls_give_one_k_cube(k):
    dual = dual_cube_complex(hypercube_walls(k))
    c = dual.complex
    assert len(c.vertices) == 2 ** k
    edges = [q for q in c.cubes if q.dim == 1]
    assert len(edges) == k * 2 ** (k - 1)
    assert len([q for q in c.cubes if q.dim == k]) == 1
    assert dimension(c) == k


def test_dual_orientations_match_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        chambers = tuple(range(n))
        walls = []
        for i in range(rng.randint(1, 5)):
            u = frozenset(
                c for c in chambers if rng.random() < 0.5
            ) or frozenset({0})
            if u == set(chambers):
                u = frozenset(set(chambers) - {n - 1})
            v = frozenset(set(chambers) - u)
            if rng.random() < 0.5 and len(u) >= 2:
                v |= {min(u)}
            walls.append(Wall(f"w{i}", u, frozenset(v)))
        ws = Wallspace(chambers, tuple(walls))
        if not validate_wallspace(ws).ok:
            continue
        dual = dual_cube_complex(ws)

        # brute force: an orientation picks one half per wall; it is consistent
        # when every two chosen halves intersect
        halves = [(w.half_u, w.half_v) for w in walls]
        expected = set()
        for assignment in itertools.product((0, 1), repeat=len(walls)):
            chosen = [halves[i][s] for i, s in enumerate(assignment)]
            if all(a & b for a, b in itertools.combinations(chosen, 2)):
                expected.add(assignment)
        assert set(dual.orientations) == expected


def test_dual_edges_flip_exactly_one_wall():
    ws = hypercube_walls(3)
    dual = dual_cube_complex(ws)
    ori = dual.orientations
    for q in dual.complex.cubes:
        if q.dim != 1:
            continue
        a, b = q.corners
        diff = [i for i, (x, y) in enumerate(zip(ori[a], ori[b])) if x != y]
        assert len(diff) == 1


def test_dual_budget():
    with pytest.raises(BudgetExceededError, match="more than 3 consistent orientations"):
        dual_cube_complex(hypercube_walls(4), budget=3)
    # 6 crossing walls: 64 vertices fit a budget of 100, 3^6 - 2^6 = 665 cubes do not
    with pytest.raises(BudgetExceededError, match="^more than 100 cubes$"):
        dual_cube_complex(hypercube_walls(6), budget=100)
    assert len(dual_cube_complex(hypercube_walls(6), budget=665).complex.cubes) == 665


def star_walls(n):
    chambers = tuple(range(n + 1))
    return Wallspace(
        chambers,
        tuple(Wall(f"s{i}", frozenset({i}), frozenset(chambers) - {i}) for i in range(n)),
    )


def test_dual_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        dual = dual_cube_complex(star_walls(400))
    finally:
        sys.setrecursionlimit(limit)
    assert len(dual.complex.vertices) == 401
    assert [q.dim for q in dual.complex.cubes] == [1] * 400


def random_overlapping_wallspace(rng):
    chambers = tuple(range(rng.randint(2, 7)))
    walls = []
    for i in range(rng.randint(1, 6)):
        u = frozenset(c for c in chambers if rng.random() < 0.5)
        v = frozenset(chambers) - u
        shared = frozenset(c for c in chambers if rng.random() < 0.25)
        if rng.random() < 0.5:
            u |= shared
        if rng.random() < 0.5:
            v |= shared
        walls.append(Wall(f"w{i}", u, v))
    return Wallspace(chambers, tuple(walls))


def brute_force_dual(ws):
    """The dual by its definition: the consistent orientations in the order
    of their 0/1 tuples, numbered 0, 1, ... in that order, and its cubes as
    (dim, corners) pairs, ordered by base vertex (corner 0) and then by the
    increasing tuple of the walls flipped, compared as tuples."""
    n = len(ws.walls)
    halves = [w.sides() for w in ws.walls]
    vertices = sorted(
        o
        for o in itertools.product((0, 1), repeat=n)
        if all(
            halves[i][o[i]] & halves[j][o[j]]
            for i, j in itertools.combinations(range(n), 2)
        )
    )
    number = {o: k for k, o in enumerate(vertices)}

    # a cube: a base vertex and walls on side 0 there, every one of whose
    # 2^d flips is a vertex; corner m flips coordinate b when bit b of m is
    # set
    cubes = []
    for base in vertices:
        zeros = [w for w in range(n) if not base[w]]
        at_base = []
        for d in range(1, len(zeros) + 1):
            for coords in itertools.combinations(zeros, d):
                corners = []
                for m in range(2 ** d):
                    o = list(base)
                    for b, w in enumerate(coords):
                        o[w] ^= m >> b & 1
                    if tuple(o) not in number:
                        break
                    corners.append(number[tuple(o)])
                else:
                    at_base.append((coords, (d, tuple(corners))))
        cubes += [cube for _coords, cube in sorted(at_base)]
    return vertices, cubes


def test_dual_cubes_match_brute_force():
    rng = random.Random(5)
    tested = overlapping = 0
    while tested < 300:
        ws = random_overlapping_wallspace(rng)
        if not validate_wallspace(ws).ok:
            continue
        tested += 1
        overlapping += any(w.half_u & w.half_v for w in ws.walls)
        vertices, expected = brute_force_dual(ws)
        dual = dual_cube_complex(ws)
        assert list(dual.orientations) == vertices
        assert list(dual.complex.cubes) == expected
    assert overlapping >= 100


def test_torus_wallspace_validation():
    with pytest.raises(InputError, match="need at least one slope"):
        torus_line_wallspace((), 1)
    with pytest.raises(InputError, match="repeated slopes"):
        torus_line_wallspace((Slope(1, 0), Slope(1, 0)), 1)
    with pytest.raises(InputError, match="window must be >= 0"):
        torus_line_wallspace((Slope(1, 0),), -1)


def test_torus_wallspace_single_slope():
    ws = torus_line_wallspace((Slope(1, 0),), 1)
    assert len(ws.walls) == 3
    assert len(ws.chambers) == 4
    assert [w.wall_id for w in ws.walls] == ["1/0@-1", "1/0@0", "1/0@1"]


def test_torus_wallspace_chamber_counts():
    two = torus_line_wallspace((Slope(1, 0), Slope(0, 1)), 1)
    assert (len(two.chambers), len(two.walls)) == (16, 6)
    three = torus_line_wallspace((Slope(1, 0), Slope(0, 1), Slope(1, 1)), 1)
    assert (len(three.chambers), len(three.walls)) == (30, 9)


def sample_sign_vectors(slopes, window):
    """Dense-grid oracle: distinct sign vectors over the line arrangement at
    the points (x/8, y/8) with |x|, |y| <= 64, which cover [-8, 8]^2 with
    step 1/8. Each line q*x - p*y = c is scaled by 8, so the signs are read
    in integers."""
    lines = [(s.q, -s.p, 8 * c) for s in slopes for c in range(-window, window + 1)]
    # far corners must reach every strip of every family, so the box has to
    # be generously larger than the window
    seen = set()
    for x in range(-64, 65):
        for y in range(-64, 65):
            sv = tuple((a * x + b * y > c) - (a * x + b * y < c) for a, b, c in lines)
            if 0 not in sv:
                seen.add(sv)
    return seen


@pytest.mark.parametrize(
    "slopes",
    [
        (Slope(1, 0),),
        (Slope(1, 0), Slope(0, 1)),
        (Slope(1, 0), Slope(0, 1), Slope(1, 1)),
        (Slope(1, 1), Slope(1, -1)),
        (Slope(2, 1), Slope(0, 1)),
    ],
)
def test_torus_chambers_match_grid_sampling(slopes):
    window = 1
    ws = torus_line_wallspace(slopes, window)
    sampled = sample_sign_vectors(slopes, window)

    # rebuild each chamber's sign vector from the wall memberships
    ids = [w.wall_id for w in ws.walls]
    expect_ids = [
        f"{s.p}/{s.q}@{c}" for s in slopes for c in range(-window, window + 1)
    ]
    assert ids == expect_ids
    rebuilt = set()
    for ch in ws.chambers:
        sv = []
        for w in ws.walls:
            if ch in w.half_u and ch in w.half_v:
                pytest.fail("chamber on both sides of a line wall")
            sv.append(1 if ch in w.half_v else -1)
        rebuilt.add(tuple(sv))
    assert rebuilt == sampled
    assert len(rebuilt) == len(ws.chambers)


def test_torus_dual_is_grid():
    ws = torus_line_wallspace((Slope(1, 0), Slope(0, 1)), 1)
    dual = dual_cube_complex(ws)
    c = dual.complex
    assert len(c.vertices) == 16
    assert len([q for q in c.cubes if q.dim == 1]) == 24
    assert len([q for q in c.cubes if q.dim == 2]) == 9
    assert dimension(c) == 2


def test_torus_concurrent_lines_make_six_chambers():
    # three lines through the origin; a sweep clipped to a box around the
    # crossings lost the two sectors that leave it through its top and bottom
    ws = torus_line_wallspace((Slope(1, 0), Slope(0, 1), Slope(1, 2)), 0)
    assert len(ws.chambers) == 6
    c = dual_cube_complex(ws).complex
    assert (len(c.vertices), dimension(c)) == (8, 3)


def arrangement_chambers(slopes, window):
    """1 + L + the sum over crossing points p of (m_p - 1), where m_p lines
    pass through p: the region count of L lines in the plane."""
    lines = [(s.q, -s.p, c) for s in slopes for c in range(-window, window + 1)]
    through = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
        det = a1 * b2 - a2 * b1
        if det:
            point = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
            through.setdefault(point, set()).update((i, j))
    return 1 + len(lines) + sum(len(m) - 1 for m in through.values())


def product_of_paths(n, window):
    """Vertices and d-cubes of the product of n paths with 2W+2 vertices:
    (2W+2)^n and C(n,d) (2W+1)^d (2W+2)^(n-d)."""
    k = 2 * window + 2
    return k ** n, {d: math.comb(n, d) * (k - 1) ** d * k ** (n - d) for d in range(1, n + 1)}


def seeded_slope_sets():
    primitive = [
        (p, q)
        for p in range(5)
        for q in range(-4, 5)
        if math.gcd(p, q) == 1 and (p > 0 or q == 1)
    ]
    rng = random.Random(26)
    cases = [([(1, 2), (2, -1), (1, 3)], 4)]  # 980 dual vertices under the clipped sweep
    while len(cases) < 41:
        cases.append((rng.sample(primitive, rng.randint(1, 3)), rng.randint(0, 2)))
    return cases


@pytest.mark.parametrize("pairs,window", seeded_slope_sets())
def test_torus_arrangement_matches_closed_forms(pairs, window):
    slopes = tuple(Slope(p, q) for p, q in pairs)
    ws = torus_line_wallspace(slopes, window)
    assert len(ws.chambers) == arrangement_chambers(slopes, window)
    c = dual_cube_complex(ws).complex
    by_dim = {}
    for q in c.cubes:
        by_dim[q.dim] = by_dim.get(q.dim, 0) + 1
    assert (len(c.vertices), by_dim) == product_of_paths(len(slopes), window)
