"""Cube complexes: hyperplanes, pathology detection, NPC checks."""

import functools
import itertools
import random
import time
from math import comb

import networkx as nx
import pytest

from m3cube.cubecomplex import (
    Cube,
    CubeComplex,
    _faces,
    check_npc,
    derived_edges,
    derived_squares,
    dimension,
    hyperplanes,
    specialness_report,
    validate_complex,
)
from m3cube.errors import InputError
from m3cube.manifold import Slope
from m3cube.wallspace import Wall, Wallspace, dual_cube_complex, torus_line_wallspace


def complex_from_cubes(cube_specs):
    """Vertices are collected from the corner lists, in order of first use."""
    cubes = tuple(Cube(d, tuple(corners)) for d, corners in cube_specs)
    return CubeComplex(tuple(dict.fromkeys(v for cube in cubes for v in cube.corners)), cubes)


def k_cube(k, prefix="v"):
    corners = tuple(
        prefix + "".join(str(m >> j & 1) for j in range(k)) for m in range(2 ** k)
    )
    return complex_from_cubes([(k, corners)])


def grid_3x3():
    squares = []
    for i in range(3):
        for j in range(3):
            squares.append(
                (2, (f"g{i}{j}", f"g{i + 1}{j}", f"g{i}{j + 1}", f"g{i + 1}{j + 1}"))
            )
    return complex_from_cubes(squares)


def from_squares(squares):
    return complex_from_cubes([(2, tuple(c)) for c in squares])


MOEBIUS_SQUARE = [("a", "b", "b", "a")]
MOEBIUS_BAND = [
    ("x0", "x1", "y0", "y1"),
    ("x1", "x2", "y1", "y2"),
    ("x2", "y0", "y2", "x0"),
]
FOLDED_SQUARE = [("a", "b", "b", "c")]
WRAPPED_ANNULUS = [
    ("x0", "x1", "Y", "Q"),
    ("x1", "x2", "Q", "S"),
    ("x2", "x3", "S", "Y"),
    ("x3", "x4", "Y", "Q"),
    ("x4", "x5", "Q", "S"),
    ("x5", "x0", "S", "Y"),
]
PINCER = [
    ("a", "b", "c", "d"),
    ("c", "d", "e", "f"),
    ("b", "f", "d", "h"),
]
TRIPOD = [
    ("o", "x", "y", "xy"),
    ("o", "x", "z", "xz"),
    ("o", "y", "z", "yz"),
]
FOLDED_CUBE3 = [(3, ("A", "B", "B", "C", "D", "E", "E", "F"))]


def mark_set(report):
    """All pathology marks present anywhere in a report."""
    out = set()
    for f in report.flags:
        if f.one_sided:
            out.add("one-sided")
        if f.self_intersecting:
            out.add("self-intersecting")
        if f.self_osculating:
            out.add("self-osculating")
    return out


def test_cube_constructor_rejects_bad_shapes():
    # Cube is permissive; the validator names each bad shape without ever
    # building 2^dim for a dimension its corners cannot match
    for d, corners, message in [
        (2, ("a", "b", "c"), "2-cube needs 4 corners, got 3"),
        (0, ("a",), "cube dimension must be >= 1"),
        (-1, (), "cube dimension must be >= 1"),
        (10 ** 7, ("a",), "10000000-cube needs 2^10000000 corners, got 1"),
    ]:
        c = CubeComplex(("a", "b", "c"), (Cube(d, corners),))
        t0 = time.perf_counter()
        (problem,) = validate_complex(c).problems
        assert time.perf_counter() - t0 < 1
        assert problem == f"cube 0: {message}"
        with pytest.raises(InputError):
            c.index


def test_validate_complex():
    c = CubeComplex(("a",), (Cube(1, ("a", "b")),))
    assert any("unknown vertex" in p for p in validate_complex(c).problems)
    loop = CubeComplex(("a",), (Cube(1, ("a", "a")),))
    assert any("degenerate edge" in p for p in validate_complex(loop).problems)
    dup = CubeComplex(("a", "a", "b"), (Cube(1, ("a", "b")),))
    assert any("'a' redeclared" in p for p in validate_complex(dup).problems)
    ok = CubeComplex(("a", "b"), (Cube(1, ("a", "b")),))
    assert validate_complex(ok).ok


@pytest.mark.parametrize("d", range(6))
def test_faces_are_every_subcube_in_binary_counter_order(d):
    for k in range(d + 1):
        faces = _faces(d, k)
        # brute force: the corners m with m & ~free == base, per free set of k bits
        subcubes = {
            frozenset(m for m in range(2**d) if m & ~free == base)
            for free in range(2**d)
            if free.bit_count() == k
            for base in range(2**d)
            if not base & free
        }
        assert len(faces) == len(subcubes) == comb(d, k) * 2 ** (d - k)
        assert {frozenset(f) for f in faces} == subcubes
        assert [f[0] for f in faces] == sorted(f[0] for f in faces)
        for f in faces:
            axes = [f[1 << s] ^ f[0] for s in range(k)]
            assert axes == sorted(axes) and all(a.bit_count() == 1 for a in axes)
            for t in range(2**k):
                assert f[t] == f[0] | sum(a for s, a in enumerate(axes) if t >> s & 1)


def test_complex_from_cubes_collects_vertices():
    c = from_squares([("a", "b", "c", "d")])
    assert set(c.vertices) == {"a", "b", "c", "d"}
    assert dimension(c) == 2


def test_derived_faces_of_3_cube():
    c = k_cube(3)
    faces = derived_squares(c)
    assert len(faces) == 6
    assert all(len(f) == 4 for f in faces)
    assert len(derived_edges(c)) == 12


def test_derived_squares_deduplicates_shared_faces():
    # two 3-cubes sharing a square face
    a = tuple(f"a{m:03b}" for m in range(8))
    b = tuple(f"b{m:03b}" for m in range(8))
    # glue: cube b's bottom face equals cube a's top face
    b = a[4:] + b[4:]
    c = complex_from_cubes([(3, a), (3, b)])
    assert len(derived_squares(c)) == 11
    assert len(derived_edges(c)) == 20


def test_single_cube_hyperplane_count():
    for k in range(1, 8):
        c = k_cube(k)
        planes = hyperplanes(c)
        assert len(planes) == k
        # each hyperplane of a k-cube crosses 2^(k-1) parallel edges
        assert sorted(len(p.edges) for p in planes) == [2 ** (k - 1)] * k
        # C(k,2) coordinate pairs, each with 2^(k-2) parallel squares
        assert len(derived_squares(c)) == comb(k, 2) * 2 ** k // 4


def test_grid_hyperplanes():
    planes = hyperplanes(grid_3x3())
    assert len(planes) == 6
    assert sorted(len(p.edges) for p in planes) == [4] * 6


def oracle_faces(c):
    """Independent route: every edge, and every 2-face as (v00, v10, v01, v11),
    enumerated by coordinate pairs with the other coordinates fixed."""
    edges = set()
    squares = []
    for cube in c.cubes:
        d, corners = cube.dim, cube.corners
        for idx in range(2 ** d):
            for j in range(d):
                if not idx >> j & 1:
                    edges.add(frozenset((corners[idx], corners[idx | 1 << j])))
        for j1 in range(d):
            for j2 in range(j1 + 1, d):
                rest = [j for j in range(d) if j not in (j1, j2)]
                for bits in itertools.product((0, 1), repeat=len(rest)):
                    base = 0
                    for j, bit in zip(rest, bits):
                        base |= bit << j
                    squares.append((
                        corners[base],
                        corners[base | 1 << j1],
                        corners[base | 1 << j2],
                        corners[base | 1 << j1 | 1 << j2],
                    ))
    return edges, squares


def oracle_parallel_classes(c):
    """Independent route: merge dicts over the oracle's faces."""
    edges, squares = oracle_faces(c)
    rels = []
    for q in squares:
        rels.append((frozenset((q[0], q[1])), frozenset((q[2], q[3]))))
        rels.append((frozenset((q[0], q[2])), frozenset((q[1], q[3]))))
    classes = {e: {e} for e in edges}
    changed = True
    while changed:
        changed = False
        for e1, e2 in rels:
            if classes[e1] is not classes[e2]:
                merged = classes[e1] | classes[e2]
                for e in merged:
                    classes[e] = merged
                changed = True
    return {frozenset(v) for v in classes.values()}


def random_quotient(seed):
    """A valid complex of one to four cubes, mostly squares, on at most six
    vertices: letters for even seeds, ints for odd ones, whose int order is
    not their str order."""
    rng = random.Random(seed)
    names = list("abcdef") if seed % 2 == 0 else [1, 2, 3, 10, 11, 20]
    names = names[: rng.randint(4, 6)]
    cubes = []
    for _ in range(rng.randint(1, 4)):
        d = rng.choice((1, 2, 2, 2, 3))
        while True:
            cs = [rng.choice(names) for _ in range(2 ** d)]
            edges = [(m, m | 1 << j) for m in range(2 ** d) for j in range(d) if not m >> j & 1]
            if all(cs[a] != cs[b] for a, b in edges):
                break
        cubes.append((d, cs))
    return complex_from_cubes(cubes)


QUOTIENT_SEEDS = range(200)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: k_cube(2),
        lambda: k_cube(3),
        grid_3x3,
        lambda: from_squares(MOEBIUS_BAND),
        lambda: from_squares(WRAPPED_ANNULUS),
        lambda: from_squares(PINCER),
        lambda: complex_from_cubes(FOLDED_CUBE3),
    ]
    + [
        pytest.param(functools.partial(random_quotient, seed), id=f"quotient{seed}")
        for seed in QUOTIENT_SEEDS
    ],
)
def test_hyperplane_partition_matches_oracle(builder):
    c = builder()
    got = {frozenset(p.edges) for p in hyperplanes(c)}
    assert got == oracle_parallel_classes(c)


# the dihedral group of a square, acting on (v00, v10, v01, v11)
SQUARE_SYMMETRIES = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
    (0, 2, 1, 3),
    (2, 0, 3, 1),
    (1, 3, 0, 2),
    (3, 1, 2, 0),
)


def symmetric_minimum_squares(c):
    """Each 2-face once, as the least of its eight symmetric corner listings
    in the vertices' own order; the faces sorted by their str corners."""
    seen = {
        min(tuple(q[i] for i in perm) for perm in SQUARE_SYMMETRIES)
        for q in oracle_faces(c)[1]
    }
    return tuple(sorted(seen, key=lambda q: tuple(map(str, q))))


def crossing_walls(k):
    """k pairwise-crossing walls on 2^k chambers: the dual is the k-cube."""
    chambers = frozenset(range(2 ** k))
    return Wallspace(
        tuple(sorted(chambers)),
        tuple(
            Wall(f"w{i}", frozenset(x for x in chambers if x >> i & 1),
                 frozenset(x for x in chambers if not x >> i & 1))
            for i in range(k)
        ),
    )


def test_derived_squares_match_symmetric_minimum():
    duals = [dual_cube_complex(crossing_walls(k)).complex for k in (4, 5)]
    duals.append(
        dual_cube_complex(torus_line_wallspace((Slope(1, 0), Slope(0, 1)), 2)).complex
    )
    for c in duals:
        # int vertices past 9, so "10" < "2" and the two orders differ
        assert sorted(c.vertices, key=str) != sorted(c.vertices)
    for c in duals + [random_quotient(seed) for seed in QUOTIENT_SEEDS]:
        assert derived_squares(c) == symmetric_minimum_squares(c)


def flags_oracle(c):
    """Pathologies by brute force, with networkx components for the classes.

    Darts are ordered vertex pairs; a square joins each pair of equally
    directed opposite sides. Hyperplanes are components of the undirected
    edges, numbered by their least edge in str order.
    """
    edges, squares = oracle_faces(c)
    darts, parallel = nx.Graph(), nx.Graph()
    darts.add_nodes_from(d for e in edges for d in itertools.permutations(e))
    parallel.add_nodes_from(edges)
    for a, b, p, q in squares:
        for (u, v), (x, y) in (((a, b), (p, q)), ((a, p), (b, q))):
            darts.add_edge((u, v), (x, y))
            darts.add_edge((v, u), (y, x))
            parallel.add_edge(frozenset((u, v)), frozenset((x, y)))
    dart_class = {d: i for i, comp in enumerate(nx.connected_components(darts)) for d in comp}
    component = {e: i for i, comp in enumerate(nx.connected_components(parallel)) for e in comp}
    number = {}
    for e in sorted(edges, key=lambda e: sorted(map(str, e))):
        number.setdefault(component[e], len(number))
    plane = {e: number[component[e]] for e in edges}

    one_sided = {
        plane[e] for e in edges if len({dart_class[d] for d in itertools.permutations(e)}) == 1
    }
    self_int, crossing = set(), set()
    for a, b, p, q in squares:
        h1, h2 = plane[frozenset((a, b))], plane[frozenset((a, p))]
        if h1 == h2:
            self_int.add(h1)
        else:
            crossing.add((min(h1, h2), max(h1, h2)))
    square_sides = [
        {frozenset(s) for s in ((a, b), (p, q), (a, p), (b, q))} for a, b, p, q in squares
    ]
    direct, indirect, contacts = set(), set(), set()
    for e1, e2 in itertools.permutations(edges, 2):
        for x in e1 & e2:
            if any(e1 in sides and e2 in sides for sides in square_sides):
                continue
            (y1,) = e1 - {x}
            (y2,) = e2 - {x}
            h1, h2 = plane[e1], plane[e2]
            if h1 != h2:
                contacts.add((min(h1, h2), max(h1, h2)))
            elif dart_class[x, y1] == dart_class[x, y2]:
                direct.add(h1)
            elif dart_class[x, y1] == dart_class[y2, x]:
                indirect.add(h1)
    flags = [
        (h, h in one_sided, h in self_int, h in direct, h in indirect)
        for h in range(len(number))
    ]
    return flags, tuple(sorted(crossing & contacts))


def test_specialness_matches_brute_force_oracle():
    verdicts, marks = [], set()
    for seed in QUOTIENT_SEEDS:
        c = random_quotient(seed)
        rep = specialness_report(c)
        flags = [
            (f.index, f.one_sided, f.self_intersecting, f.self_osculating, f.indirect_osculation)
            for f in rep.flags
        ]
        assert (flags, rep.inter_osculating) == flags_oracle(c), seed
        verdicts.append(rep.special)
        marks |= {i for f in flags for i in range(1, 5) if f[i]}
        marks |= {5} if rep.inter_osculating else set()
    assert True in verdicts and False in verdicts
    assert marks == {1, 2, 3, 4, 5}  # every pathology occurs in the sample


def test_square_and_cubes_are_special():
    for c in (k_cube(2), k_cube(3), grid_3x3()):
        rep = specialness_report(c)
        assert rep.special
        assert mark_set(rep) == set()
        assert not rep.inter_osculating
        assert rep.render().rstrip().endswith("special")


def test_moebius_band_is_one_sided_only():
    rep = specialness_report(from_squares(MOEBIUS_BAND))
    assert mark_set(rep) == {"one-sided"}
    assert sum(f.one_sided for f in rep.flags) == 1
    assert not rep.inter_osculating
    assert not rep.special
    assert "not special" in rep.render()


def test_moebius_square_doubles_up():
    rep = specialness_report(from_squares(MOEBIUS_SQUARE))
    assert mark_set(rep) == {"one-sided", "self-intersecting"}
    assert not rep.special


def test_folded_square_is_self_intersecting_only():
    rep = specialness_report(from_squares(FOLDED_SQUARE))
    assert mark_set(rep) == {"self-intersecting"}
    assert not rep.inter_osculating


def test_wrapped_annulus_is_self_osculating_only():
    rep = specialness_report(from_squares(WRAPPED_ANNULUS))
    assert mark_set(rep) == {"self-osculating"}
    assert sum(f.self_osculating for f in rep.flags) == 1
    assert not rep.inter_osculating


def test_pincer_is_inter_osculating_only():
    rep = specialness_report(from_squares(PINCER))
    assert mark_set(rep) == set()
    assert rep.inter_osculating == ((0, 1),)
    assert not rep.special
    assert "hyperplanes 0 and 1: inter-osculating" in rep.render()


def test_indirect_osculation_is_informational():
    # vertical class chains (a0,b0) -> (a1,b1) -> (a2,a0): at a0 the dart
    # out to b0 and the dart in from a2 land in the same directed class,
    # which is an indirect self-contact, not a direct one
    squares = [
        ("a0", "a1", "b0", "b1"),
        ("a1", "a2", "b1", "a0"),
    ]
    rep = specialness_report(from_squares(squares))
    vertical = rep.flags[1]
    assert vertical.indirect_osculation
    assert not vertical.self_osculating
    assert not vertical.one_sided
    assert vertical.clean
    assert all(f.clean for f in rep.flags)
    # this gadget still fails specialness, but only through inter-osculation
    assert rep.inter_osculating == ((0, 1), (1, 2))
    assert not rep.special
    assert "indirect-osculation" in rep.render()


def test_render_names_each_hyperplane():
    rep = specialness_report(from_squares(FOLDED_SQUARE))
    text = rep.render()
    assert "hyperplane 0 (2 edges): self-intersecting" in text
    assert text.endswith("not special\n")


def test_render_uses_singular_edge():
    rep = specialness_report(complex_from_cubes([(1, ("a", "b"))]))
    assert "hyperplane 0 (1 edge): clean" in rep.render()
    assert rep.special


def test_specialness_requires_valid_complex():
    with pytest.raises(InputError):
        specialness_report(CubeComplex(("a",), (Cube(1, ("a", "z")),)))


def test_npc_grid_and_cube():
    for c in (k_cube(2), k_cube(3), k_cube(4), grid_3x3()):
        rep = check_npc(c)
        assert rep.npc, rep.problems


def test_npc_tripod_fails_flagness():
    rep = check_npc(from_squares(TRIPOD))
    assert not rep.npc
    assert any("3-clique" in p for p in rep.problems)


def test_npc_folded_shapes_fail():
    assert not check_npc(from_squares(FOLDED_SQUARE)).npc
    assert not check_npc(complex_from_cubes(FOLDED_CUBE3)).npc
    assert not check_npc(from_squares(MOEBIUS_SQUARE)).npc


def test_npc_pathologies_can_still_be_npc():
    assert check_npc(from_squares(MOEBIUS_BAND)).npc
    assert check_npc(from_squares(WRAPPED_ANNULUS)).npc
    assert check_npc(from_squares(PINCER)).npc


def test_npc_has_no_dimension_cap():
    for k in (5, 6, 7):
        rep = check_npc(k_cube(k))
        assert rep.npc, rep.problems


def test_npc_boundary_of_6_cube_is_not_flag():
    # the twelve 5-faces of a 6-cube: every vertex link is the boundary
    # of a 5-simplex, six pairwise adjacent germs spanning no simplex
    name = lambda m: "v" + "".join(str(m >> j & 1) for j in range(6))
    faces = [
        (5, tuple(name(m) for m in range(64) if m >> k & 1 == s))
        for k in range(6)
        for s in (0, 1)
    ]
    rep = check_npc(complex_from_cubes(faces))
    assert not rep.npc
    assert all("empty 6-clique" in p for p in rep.problems)


def test_npc_problems_name_their_vertex():
    # a folded square meets edge ab twice at a, and its two corners at b
    # span the same link edge
    assert check_npc(from_squares(FOLDED_SQUARE)).problems == (
        "vertex a: a square corner repeats an edge (link loop)",
        "vertex b: two corners span the same link simplex (doubled)",
        "vertex c: a square corner repeats an edge (link loop)",
    )
    # the symmetry m -> 7 - m fixes this cube's corner map, so each pair
    # of opposite corners has one germ; no two of its squares share a
    # corner and both its edges
    symmetric = complex_from_cubes([(3, "x p q r r q p x".split())])
    assert sorted(check_npc(symmetric).problems) == [
        f"vertex {v}: two corners span the same link simplex (doubled)" for v in "pqrx"
    ]
    assert check_npc(from_squares(TRIPOD)).problems == (
        "vertex o: empty 3-clique in link (not flag)",
    )


def random_grid_complex(rng):
    """A few subcubes of the grid {0,1,2}^n, n <= 4, with some vertices glued."""
    n = rng.randint(2, 4)
    cubes = []
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(1, n)
        axes = rng.sample(range(n), k)
        base = [rng.randint(0, 1) for _ in range(n)]
        corners = []
        for m in range(2 ** k):
            p = list(base)
            for j, a in enumerate(axes):
                p[a] += m >> j & 1
            corners.append("".join(map(str, p)))
        cubes.append((k, corners))
    used = sorted({v for _, cs in cubes for v in cs})
    glue = {}
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(used, 2)
        glue[a] = glue.get(b, b)
    return complex_from_cubes([(k, [glue.get(v, v) for v in cs]) for k, cs in cubes])


@functools.cache
def cube_symmetries(k):
    """The 2^k * k! symmetries of a k-cube, as position maps: a permutation
    of the coordinates, then a flip of some of them."""
    return [
        tuple(flip ^ sum(1 << perm[j] for j in range(k) if i >> j & 1) for i in range(2 ** k))
        for perm in itertools.permutations(range(k))
        for flip in range(2 ** k)
    ]


def all_faces(corners):
    """Every face of dimension >= 1 of a cube, its corners in binary-counter
    order: choose the free coordinates, fix the others to a base."""
    d = len(corners).bit_length() - 1
    for k in range(1, d + 1):
        for axes in itertools.combinations(range(d), k):
            for base in range(2 ** d):
                if not any(base >> j & 1 for j in axes):
                    yield tuple(
                        corners[base | sum(1 << a for b, a in enumerate(axes) if m >> b & 1)]
                        for m in range(2 ** k)
                    )


def npc_oracle(c):
    """Gromov's link condition by brute force over the distinct cells.

    The cells are the faces of every listed cube, each named by the least
    of its 2^k * k! readings. Every (cell, corner position) gives a germ:
    no germ may meet one edge twice (a link loop), no two germs of size 2
    or more at a vertex may be equal (a doubled simplex), and every maximal
    clique of the link graph must lie in one germ (flag)."""
    cells = {
        min(tuple(f[i] for i in sym) for sym in cube_symmetries(len(f).bit_length() - 1))
        for cube in c.cubes
        for f in all_faces(cube.corners)
    }
    germs = {}
    for f in cells:
        for i, v in enumerate(f):
            germ = [frozenset((v, f[i ^ 1 << j])) for j in range(len(f).bit_length() - 1)]
            if len(set(germ)) < len(germ):
                return False
            germs.setdefault(v, []).append(frozenset(germ))
    for gs in germs.values():
        big = [g for g in gs if len(g) >= 2]
        if len(big) != len(set(big)):
            return False
        link = nx.Graph()
        for g in gs:
            link.add_nodes_from(g)
            link.add_edges_from(itertools.combinations(g, 2))
        for clique in nx.find_cliques(link):
            if not any(set(clique) <= g for g in gs):
                return False
    return True


def relisted(c, rng):
    """The same cells listed another way: some records relisted under a
    random symmetry, some repeated, some faces added, then all shuffled."""
    cubes = []
    for cube in c.cubes:
        q = cube.corners
        if rng.random() < 0.3:
            q = tuple(q[i] for i in rng.choice(cube_symmetries(cube.dim)))
        cubes.append(q)
        if rng.random() < 0.2:
            cubes.append(q)
        if cube.dim >= 2 and rng.random() < 0.4:
            cubes.append(rng.choice([f for f in all_faces(q) if len(f) < len(q)]))
    rng.shuffle(cubes)
    return complex_from_cubes([(len(q).bit_length() - 1, q) for q in cubes])


@pytest.mark.parametrize("seed", range(4))
def test_npc_matches_clique_oracle(seed):
    rng = random.Random(seed)
    verdicts = []
    for i in range(180):
        c = random_grid_complex(rng) if i % 7 else random_quotient(rng.randrange(10 ** 6))
        if not validate_complex(c).ok:
            continue
        want = npc_oracle(c)
        assert check_npc(c).npc == want, c
        other = relisted(c, rng)
        assert npc_oracle(other) == want, other
        assert check_npc(other).npc == want, other
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_folded_cube3_profile():
    rep = specialness_report(complex_from_cubes(FOLDED_CUBE3))
    assert "self-intersecting" in mark_set(rep)


def test_random_quotients_report_without_crashing():
    rng = random.Random(5)
    names = ["a", "b", "c", "d", "e", "f"]
    for _ in range(40):
        squares = []
        for _ in range(rng.randint(1, 4)):
            corners = tuple(rng.choice(names) for _ in range(4))
            squares.append((2, corners))
        c = complex_from_cubes(squares)
        if not validate_complex(c).ok:
            continue
        rep = specialness_report(c)
        clean = not mark_set(rep) and not rep.inter_osculating
        assert rep.special == clean
        text = rep.render()
        assert text.rstrip().rsplit("\n", 1)[-1] in ("special", "not special")


def test_a_cube_is_the_pair_it_names():
    corners = ("a", "b", "c", "d")
    q = Cube(2, corners)
    assert (q.dim, q.corners) == tuple(q) == (2, corners)
    assert q == (2, corners) and hash(q) == hash((2, corners))
    assert {q, (2, corners)} == {q}
