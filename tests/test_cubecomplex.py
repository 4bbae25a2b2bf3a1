"""Cube complexes: hyperplanes, pathology detection, NPC checks."""

import itertools
import random
from math import comb

import networkx as nx
import pytest

from m3cube.cubecomplex import (
    Cube,
    CubeComplex,
    check_npc,
    complex_from_cubes,
    derived_edges,
    derived_squares,
    dimension,
    hyperplanes,
    specialness_report,
    validate_complex,
)
from m3cube.errors import InputError


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
    with pytest.raises(InputError):
        Cube(2, ("a", "b", "c"))
    with pytest.raises(InputError):
        Cube(0, ("a",))
    with pytest.raises(InputError):
        Cube(-1, ())


def test_validate_complex():
    c = CubeComplex(("a",), (Cube(1, ("a", "b")),))
    assert any("unknown vertex" in p for p in validate_complex(c))
    loop = CubeComplex(("a",), (Cube(1, ("a", "a")),))
    assert any("degenerate edge" in p for p in validate_complex(loop))
    dup = CubeComplex(("a", "a", "b"), (Cube(1, ("a", "b")),))
    assert any("repeated vertex ids" in p for p in validate_complex(dup))
    ok = CubeComplex(("a", "b"), (Cube(1, ("a", "b")),))
    assert validate_complex(ok) == []


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


def oracle_parallel_classes(c):
    """Independent route: enumerate faces by coordinate pairs, merge dicts."""
    edges = set()
    rels = []
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
                    q = [
                        corners[base],
                        corners[base | 1 << j1],
                        corners[base | 1 << j2],
                        corners[base | 1 << j1 | 1 << j2],
                    ]
                    rels.append(
                        (frozenset((q[0], q[1])), frozenset((q[2], q[3])))
                    )
                    rels.append(
                        (frozenset((q[0], q[2])), frozenset((q[1], q[3])))
                    )
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
    ],
)
def test_hyperplane_partition_matches_oracle(builder):
    c = builder()
    got = {frozenset(p.edges) for p in hyperplanes(c)}
    assert got == oracle_parallel_classes(c)


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


def npc_oracle(c):
    """No link loop, no doubled simplex, every maximal link clique in a germ."""
    germs = {}
    for cube in c.cubes:
        for idx, v in enumerate(cube.corners):
            germs.setdefault(v, []).append(
                [frozenset((v, cube.corners[idx ^ 1 << j])) for j in range(cube.dim)]
            )
    for gs in germs.values():
        if any(len(set(g)) < len(g) for g in gs):
            return False
        big = [frozenset(g) for g in gs if len(g) >= 2]
        if len(big) != len(set(big)):
            return False
        link = nx.Graph()
        for g in gs:
            link.add_nodes_from(g)
            link.add_edges_from(itertools.combinations(g, 2))
        for clique in nx.find_cliques(link):
            if not any(set(clique) <= set(g) for g in gs):
                return False
    return True


@pytest.mark.parametrize("seed", range(4))
def test_npc_matches_clique_oracle(seed):
    rng = random.Random(seed)
    verdicts = []
    for _ in range(100):
        c = random_grid_complex(rng)
        if validate_complex(c):
            continue
        npc = check_npc(c).npc
        assert npc == npc_oracle(c), c
        verdicts.append(npc)
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
        if validate_complex(c):
            continue
        rep = specialness_report(c)
        clean = not mark_set(rep) and not rep.inter_osculating
        assert rep.special == clean
        text = rep.render()
        assert text.rstrip().rsplit("\n", 1)[-1] in ("special", "not special")
