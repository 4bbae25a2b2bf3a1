"""The complex index against an oracle that enumerates every face of every
listed cube, on catalog, dual and random quotient complexes, each also with
its records shuffled, its non-maximal cubes deleted, a facet relisted under
another corner order and a record duplicated."""

import functools
import itertools
import random

import pytest

from m3cube import cli, cubecomplex
from m3cube.cubecomplex import ComplexIndex
from m3cube.fileformats import parse_complex
from m3cube.manifold import Slope
from m3cube.wallspace import Wall, Wallspace, dual_cube_complex, torus_line_wallspace


@functools.cache
def face_positions(d, k):
    """Corner positions of every k-face of a d-cube, in binary-counter
    order: choose k free coordinates and fix the others to a base."""
    return [
        [base | sum(1 << j for b, j in enumerate(free) if m >> b & 1) for m in range(2 ** k)]
        for free in itertools.combinations(range(d), k)
        for base in range(2 ** d)
        if not any(base >> j & 1 for j in free)
    ]


def faces(corners, k):
    d = len(corners).bit_length() - 1
    return [tuple(corners[i] for i in pos) for pos in face_positions(d, k)]


def least_reading(q):
    """The least of a square's eight readings (x, p, q, y): a corner, its
    two neighbours, the opposite corner."""
    a, b, c, d = q  # corners 00, 10, 01, 11
    return min(
        (a, b, c, d), (a, c, b, d), (b, a, d, c), (b, d, a, c),
        (c, a, d, b), (c, d, a, b), (d, b, c, a), (d, c, b, a),
    )


def oracle_index(c):
    rank = {v: r for r, v in enumerate(sorted(c.vertices, key=str))}
    edges, squares = set(), set()
    for cube in c.cubes:
        rs = tuple(rank[v] for v in cube.corners)
        edges.update(faces(rs, 1))
        squares.update(faces(rs, 2) if cube.dim >= 2 else ())
    edges = sorted({tuple(sorted(e)) for e in edges})
    squares = sorted(set(map(least_reading, squares)))
    eid = {e: k for k, e in enumerate(edges)}

    def dart(u, v):
        return 2 * eid[u, v] if u < v else 2 * eid[v, u] + 1

    # a class's root is fixed by the union order alone: squares in sorted
    # order, each pair linking the second dart's root under the first's
    parent = list(range(2 * len(edges)))

    def root(d):
        while parent[d] != d:
            d = parent[d]
        return d

    sides = []
    for x, p, q, y in squares:
        xp, qy, xq, py = dart(x, p), dart(q, y), dart(x, q), dart(p, y)
        for a, b in ((xp, qy), (xp ^ 1, qy ^ 1), (xq, py), (xq ^ 1, py ^ 1)):
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[rb] = ra
        sides.append((xp >> 1, qy >> 1, xq >> 1, py >> 1))
    dart_class = tuple(root(d) for d in range(len(parent)))

    number = {}
    plane = tuple(
        number.setdefault(frozenset(dart_class[2 * k: 2 * k + 2]), len(number))
        for k in range(len(edges))
    )
    incident = tuple(
        tuple(k for k, e in enumerate(edges) if r in e) for r in range(len(rank))
    )
    listed = {tuple(rank[v] for v in cube.corners) for cube in c.cubes}
    facets = {f for q in listed if len(q) >= 4 for f in faces(q, len(q).bit_length() - 2)}
    cells = tuple(sorted(listed - facets))
    return ComplexIndex(
        tuple(rank), tuple(edges), tuple(squares), tuple(sides), dart_class, plane, incident, cells
    )


def cc_text(vertices, cubes):
    """A .cc file with exactly these records, in this order."""
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"cube {len(q).bit_length() - 1} " + " ".join(q) for q in cubes]
    return "\n".join(lines) + "\n"


def maximal(cubes):
    """The cubes that are no face of another, larger listed cube."""
    below = {f for q in cubes for k in range(1, len(q).bit_length() - 1) for f in faces(q, k)}
    return [q for q in cubes if q not in below]


def variants(vertices, cubes, rng):
    """The input shuffled, reduced to its maximal cubes, with one facet
    relisted with coordinate 0 reversed, and with one record duplicated."""
    yield "shuffled", rng.sample(cubes, len(cubes))
    yield "maximal only", maximal(cubes)
    big = [q for q in cubes if len(q) >= 4]
    if big:
        q = rng.choice(big)
        facet = rng.choice(faces(q, len(q).bit_length() - 2))
        yield "facet relisted", cubes + [tuple(facet[m ^ 1] for m in range(len(facet)))]
    yield "duplicated", cubes + [rng.choice(cubes)]


def special_check(path, capsys):
    code = cli.main(["special-check", str(path)])
    return code, capsys.readouterr().out


def check_against_oracle(vertices, cubes, tmp_path, capsys, monkeypatch):
    text = cc_text(vertices, cubes)
    c = parse_complex(text)
    assert c.index == oracle_index(c)
    path = tmp_path / "input.cc"
    path.write_text(text)
    got = special_check(path, capsys)
    with monkeypatch.context() as m:
        m.setattr(cubecomplex, "_build_index", oracle_index)
        assert special_check(path, capsys) == got
    return c.index


def hypercube_walls(k):
    chambers = tuple(range(2 ** k))
    return Wallspace(
        chambers,
        tuple(
            Wall(
                f"w{i}",
                frozenset(c for c in chambers if not c >> i & 1),
                frozenset(c for c in chambers if c >> i & 1),
            )
            for i in range(k)
        ),
    )


def star_walls(n):
    chambers = tuple(range(n + 1))
    return Wallspace(
        chambers,
        tuple(Wall(f"s{i}", frozenset({i}), frozenset(chambers) - {i}) for i in range(n)),
    )


def dual_inputs():
    spaces = [(f"crossing-{k}", hypercube_walls(k)) for k in range(2, 8)]
    spaces += [(f"star-{n}", star_walls(n)) for n in (1, 5, 30)]
    for slopes in ("1/0,0/1", "1/0,0/1,1/1", "1/0,0/1,1/2"):
        pairs = [tuple(map(int, s.split("/"))) for s in slopes.split(",")]
        for w in range(3):
            ws = torus_line_wallspace(tuple(Slope(p, q) for p, q in pairs), w)
            spaces.append((f"torus {slopes} W={w}", ws))
    return spaces


@pytest.mark.parametrize("name,ws", dual_inputs(), ids=[n for n, _ in dual_inputs()])
def test_dual_index_matches_oracle(name, ws, tmp_path, capsys, monkeypatch):
    cx = dual_cube_complex(ws).complex
    vertices = [str(v) for v in cx.vertices]
    cubes = [tuple(map(str, q.corners)) for q in cx.cubes]
    full = check_against_oracle(vertices, cubes, tmp_path, capsys, monkeypatch)
    for label, listed in variants(vertices, cubes, random.Random(name)):
        index = check_against_oracle(vertices, listed, tmp_path, capsys, monkeypatch)
        if label == "maximal only":
            # a dual is face-closed: deleting its faces loses no edge or square
            assert len(listed) < len(cubes) or name.startswith("star")
            assert index == full


def test_catalog_index_matches_oracle(catalog, tmp_path, capsys, monkeypatch):
    paths = sorted(catalog.glob("*.cc"))
    assert len(paths) == 9
    for path in paths:
        c = parse_complex(path.read_text())
        vertices = list(c.vertices)
        cubes = [q.corners for q in c.cubes]
        check_against_oracle(vertices, cubes, tmp_path, capsys, monkeypatch)
        for _label, listed in variants(vertices, cubes, random.Random(path.name)):
            check_against_oracle(vertices, listed, tmp_path, capsys, monkeypatch)


def random_quotient(rng):
    """A few cubes of dimension 1-3 on at most 5 vertices, so corners fold
    and repeat; each corner differs from its lower neighbours, so no edge
    is degenerate. Some faces are listed too, some with coordinate 0
    reversed, and some records twice."""
    vertices = [f"v{i}" for i in range(rng.randint(4, 5))]
    cubes = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 3)
        corners = []
        for m in range(2 ** d):
            below = {corners[m ^ 1 << j] for j in range(d) if m >> j & 1}
            corners.append(rng.choice([v for v in vertices if v not in below]))
        cubes.append(tuple(corners))
    for q in list(cubes):
        for k in range(1, len(q).bit_length() - 1):
            for f in faces(q, k):
                if rng.random() < 0.3:
                    flipped = tuple(f[m ^ 1] for m in range(len(f)))
                    cubes.append(f if rng.random() < 0.7 else flipped)
    cubes += [rng.choice(cubes) for _ in range(rng.randint(0, 2))]
    rng.shuffle(cubes)
    return vertices, cubes


def test_random_quotients_match_oracle(tmp_path, capsys, monkeypatch):
    rng = random.Random(2026)
    folded = 0
    for _ in range(400):
        vertices, cubes = random_quotient(rng)
        folded += any(len(set(q)) < len(q) for q in cubes)
        check_against_oracle(vertices, cubes, tmp_path, capsys, monkeypatch)
    assert folded >= 200
