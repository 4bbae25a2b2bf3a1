"""Finite cube complexes with quotient identifications.

A complex is a vertex set plus explicit cubes; each cube is a corner map
from {0,1}^d to vertices, listed in binary-counter order (bit j of the
corner index is coordinate j). A ``Cube`` is a record that costs one
tuple: it is the pair ``(dim, corners)``, compares and hashes equal to it,
and names its two fields. Edges and squares are implicit: they are
the 1- and 2-faces of the listed cubes that are not a facet of another
listed cube (compared corner for corner); a listed facet adds no face its
cube lacks. Every scan reads a cube's k-faces from one table, ``_faces``.
Identifications are expressed by corner maps hitting repeated vertices, so
an edge is determined by its endpoint pair (no parallel 1-cells).

Constructors are permissive: ``validate_complex`` alone decides validity,
and a complex's ``report`` holds its verdict, computed once on first use.
Two more such attributes hold everything derived. ``rank`` gives each
vertex its position in ``str`` order, the one vertex order of the package
(``.cc`` output follows it too). ``index`` numbers the edges 0, 1, ... in
rank order; edge k has darts 2k (low rank to high) and 2k+1 (the reverse).
It keeps each square once, one union-find over darts (equally directed
opposite sides of a square are parallel) and each vertex's incidence list
of edge ids.

A hyperplane is the union of the dart classes of 2k and 2k+1, numbered by
its least edge. The pathology scan follows the usual conventions: it is
one-sided when those two classes coincide; a cube self-intersects it when
two of its coordinates land in it; two of its edges at a vertex that lie
in no common square osculate, directly when their darts out of that vertex
share a class; two hyperplanes inter-osculate when they cross in some
square and osculate elsewhere.

A cell is a corner map up to the cube's symmetries, so repeating a record,
listing a face or relisting a cube in another orientation adds no cell.
Nonpositive curvature is decided in every dimension by Gromov's link
condition on the distinct cells (see ``check_npc``): simpliciality from the
index's squares, flagness from the corners of its ``cells``, the listed
cubes that are no facet of another listed cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError
from .manifold import Problem, ValidationReport


class Cube(NamedTuple):
    dim: int
    corners: tuple


@dataclass(frozen=True)
class ComplexIndex:
    """Edges, squares and dart classes of a valid complex, in ranks.

    ``vertices[r]`` is the vertex of rank r. ``edges[k]`` is the rank pair
    (low, high) of edge k, in sorted order. ``squares`` holds each square
    once, sorted, as corner ranks (x, p, q, y): x its least corner, p < q
    the neighbours of x, y the corner opposite x; ``sides`` gives each
    square's edge ids (xp, qy, xq, py), two parallel pairs. ``dart_class``
    maps a dart to its union-find root and ``plane`` an edge to its
    hyperplane. ``incident[r]`` lists the edges at rank r, ascending.
    ``cells`` holds, sorted and each once, the corner ranks of the listed
    cubes that are no facet of another listed cube; every cell of the
    complex is a face of one of them.
    """

    vertices: tuple
    edges: tuple[tuple[int, int], ...]
    squares: tuple[tuple[int, int, int, int], ...]
    sides: tuple[tuple[int, int, int, int], ...]
    dart_class: tuple[int, ...]
    plane: tuple[int, ...]
    incident: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CubeComplex:
    vertices: tuple
    cubes: tuple[Cube, ...] = ()

    @cached_property
    def rank(self) -> dict:
        return {v: r for r, v in enumerate(sorted(self.vertices, key=str))}

    @cached_property
    def report(self) -> ValidationReport:
        return validate_complex(self)

    @cached_property
    def index(self) -> ComplexIndex:
        if not self.report.ok:
            raise InputError("invalid cube complex: " + "; ".join(self.report.problems))
        return _build_index(self)


def validate_complex(c: CubeComplex) -> ValidationReport:
    """Every violation, at ``("vertex", j)`` or ``("cube", i)``. A cube's shape
    is checked before its edges, and 2^dim is never built for a huge dim."""
    problems: list[Problem] = []
    vs = set()
    for j, v in enumerate(c.vertices):
        if v in vs:
            problems.append(Problem(("vertex", j), None, f"vertex {v!r} redeclared"))
        vs.add(v)
    for i, cube in enumerate(c.cubes):
        d, corners = cube.dim, cube.corners
        n = len(corners)
        if d < 1:
            bad = ["cube dimension must be >= 1"]
        elif d != n.bit_length() - 1 or n != 1 << d:
            bad = [f"{d}-cube needs {2 ** d if d < 64 else f'2^{d}'} corners, got {n}"]
        else:
            bad = [f"unknown vertex {v}" for v in corners if v not in vs]
            bad += [
                f"degenerate edge at vertex {corners[a]}"
                for a, b in _faces(d, 1)
                if corners[a] == corners[b]
            ]
        for message in bad:
            problems.append(Problem(("cube", i), f"cube {i}", message))
    return ValidationReport(tuple(problems))


def dimension(c: CubeComplex) -> int:
    return max((cube.dim for cube in c.cubes), default=0)


@cache
def _faces(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Corner positions of every k-face of a d-cube, base corner first, then
    coordinates. A face lists its corners in binary-counter order over its own
    coordinates, so corner t's neighbour along coordinate s is ``t ^ 1 << s``."""
    faces = []
    for base in range(2**d):
        for axes in combinations([j for j in range(d) if not base >> j & 1], k):
            corners = [base]
            for j in axes:
                corners += [m | 1 << j for m in corners]
            faces.append(tuple(corners))
    return tuple(faces)


def _least_first(q) -> tuple:
    """A square (v00, v10, v01, v11) read from its least corner: that corner,
    its two neighbours in order, the opposite corner. As adjacent corners
    differ, this is the least of the square's eight symmetric readings."""
    i = q.index(min(q))
    a, b = q[i ^ 1], q[i ^ 2]
    return (q[i], a, b, q[i ^ 3]) if a < b else (q[i], b, a, q[i ^ 3])


def _build_index(c: CubeComplex) -> ComplexIndex:
    rank = c.rank
    # a cube listed as a facet of another, corner for corner, has only faces
    # of that one; by induction on dimension the rest hold every face. The
    # set keeps the listed corner tuples, not the facets read to find them.
    listed = {cube.corners: cube.corners for cube in c.cubes}
    getters = {d: [itemgetter(*f) for f in _faces(d, d - 1)] for d in range(2, dimension(c) + 1)}
    facets = {
        listed.get(f(cube.corners)) for cube in c.cubes if cube.dim > 1 for f in getters[cube.dim]
    }
    cells = tuple(
        sorted({itemgetter(*corners)(rank) for corners in listed if corners not in facets})
    )
    edge_set, square_set = set(), set()
    for rs in cells:
        d = len(rs).bit_length() - 1
        for a, b in _faces(d, 1):
            a, b = rs[a], rs[b]
            edge_set.add((a, b) if a < b else (b, a))
        for q in _faces(d, 2):
            square_set.add(_least_first([rs[i] for i in q]))
    edges = tuple(sorted(edge_set))
    squares = tuple(sorted(square_set))
    eid = {e: k for k, e in enumerate(edges)}

    def dart(u, v):
        return 2 * eid[u, v] if u < v else 2 * eid[v, u] + 1

    parent = list(range(2 * len(edges)))

    def find(d):
        while parent[d] != d:
            parent[d] = d = parent[parent[d]]
        return d

    sides = []
    for x, p, q, y in squares:
        xp, qy, xq, py = dart(x, p), dart(q, y), dart(x, q), dart(p, y)
        for d, e in ((xp, qy), (xp ^ 1, qy ^ 1), (xq, py), (xq ^ 1, py ^ 1)):
            parent[find(e)] = find(d)
        sides.append((xp >> 1, qy >> 1, xq >> 1, py >> 1))
    root = tuple(find(d) for d in range(len(parent)))

    number: dict = {}  # a hyperplane's lesser dart root -> its index
    plane = tuple(
        number.setdefault(min(root[2 * k], root[2 * k + 1]), len(number))
        for k in range(len(edges))
    )
    incident = [[] for _ in rank]
    for k, (lo, hi) in enumerate(edges):
        incident[lo].append(k)
        incident[hi].append(k)
    return ComplexIndex(
        tuple(rank),
        edges,
        squares,
        tuple(sides),
        root,
        plane,
        tuple(map(tuple, incident)),
        cells,
    )


def derived_squares(c: CubeComplex) -> tuple[tuple, ...]:
    """All 2-faces of all cubes, each once, read from its least vertex."""
    idx, rank = c.index, c.rank
    squares = (_least_first([idx.vertices[r] for r in sq]) for sq in idx.squares)
    return tuple(sorted(squares, key=lambda sq: [rank[v] for v in sq]))


def derived_edges(c: CubeComplex) -> tuple[frozenset, ...]:
    idx = c.index
    return tuple(frozenset((idx.vertices[a], idx.vertices[b])) for a, b in idx.edges)


@dataclass(frozen=True)
class Hyperplane:
    """One parallelism class: its dual edges."""

    index: int
    edges: frozenset


def hyperplanes(c: CubeComplex) -> tuple[Hyperplane, ...]:
    idx = c.index
    groups: dict = {}
    for (a, b), h in zip(idx.edges, idx.plane):
        groups.setdefault(h, []).append(frozenset((idx.vertices[a], idx.vertices[b])))
    return tuple(Hyperplane(h, frozenset(es)) for h, es in groups.items())


@dataclass(frozen=True)
class HyperplaneFlags:
    index: int
    one_sided: bool
    self_intersecting: bool
    self_osculating: bool  # direct
    indirect_osculation: bool  # informational only

    @property
    def clean(self) -> bool:
        return not (self.one_sided or self.self_intersecting or self.self_osculating)


@dataclass(frozen=True)
class PathologyReport:
    planes: tuple[Hyperplane, ...]
    flags: tuple[HyperplaneFlags, ...]
    inter_osculating: tuple[tuple[int, int], ...]

    @property
    def special(self) -> bool:
        return all(f.clean for f in self.flags) and not self.inter_osculating

    def render(self) -> str:
        lines = []
        for f in self.flags:
            marks = []
            if f.one_sided:
                marks.append("one-sided")
            if f.self_intersecting:
                marks.append("self-intersecting")
            if f.self_osculating:
                marks.append("self-osculating")
            if f.indirect_osculation:
                marks.append("indirect-osculation")
            n = len(self.planes[f.index].edges)
            lines.append(
                f"hyperplane {f.index} ({n} edge{'s' if n != 1 else ''}): "
                + (", ".join(marks) if marks else "clean")
            )
        for i, j in self.inter_osculating:
            lines.append(f"hyperplanes {i} and {j}: inter-osculating")
        lines.append("special" if self.special else "not special")
        return "\n".join(lines) + "\n"


def specialness_report(c: CubeComplex) -> PathologyReport:
    idx = c.index
    planes = hyperplanes(c)
    plane, root = idx.plane, idx.dart_class

    crossing: set[tuple[int, int]] = set()
    self_int = set()
    spanning = set()  # edge id pairs (k1 < k2) that lie in a common square
    for s in idx.sides:
        h1, h2 = plane[s[0]], plane[s[2]]
        if h1 == h2:
            self_int.add(h1)
        else:
            crossing.add((min(h1, h2), max(h1, h2)))
        spanning.update(combinations(sorted(set(s)), 2))

    one_sided = {plane[k] for k in range(len(plane)) if root[2 * k] == root[2 * k + 1]}

    direct_osc = set()
    indirect_osc = set()
    contacts: set[tuple[int, int]] = set()  # plane pairs that osculate somewhere
    for r, inc in enumerate(idx.incident):
        out = [2 * k + (idx.edges[k][1] == r) for k in inc]  # darts leaving r
        for (k1, d1), (k2, d2) in combinations(zip(inc, out), 2):
            if (k1, k2) in spanning:
                continue
            h1, h2 = plane[k1], plane[k2]
            if h1 != h2:
                contacts.add((min(h1, h2), max(h1, h2)))
            elif root[d1] == root[d2]:
                direct_osc.add(h1)
            elif root[d1] == root[d2 ^ 1]:
                indirect_osc.add(h1)

    inter = tuple(sorted(crossing & contacts))
    flags = tuple(
        HyperplaneFlags(
            h.index,
            h.index in one_sided,
            h.index in self_int,
            h.index in direct_osc,
            h.index in indirect_osc,
        )
        for h in planes
    )
    return PathologyReport(planes, flags, inter)


@dataclass(frozen=True)
class NPCReport:
    npc: bool
    problems: tuple[str, ...]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DOUBLED = "two corners span the same link simplex (doubled)"


def check_npc(c: CubeComplex) -> NPCReport:
    """Gromov's criterion: every vertex link simplicial and flag.

    The link at v has a vertex per edge at v and a simplex per corner at v
    of each distinct cell, faces of listed cubes included; a corner's germ
    is the set of its cell's edges there.

    Simplicial is read from the index's squares: no square corner meets one
    edge twice (a link loop), and no two (square, corner) pairs at a vertex
    meet the same two edges (a doubled simplex). Where two distinct cells
    have the same germ at a vertex, two distinct squares of theirs always
    share a corner and both its edges; so a doubled simplex of any
    dimension shows on squares, unless it comes from one cell whose corner
    map is fixed by a symmetry that moves a corner. That needs repeated
    corners, so only the cells with repeated corners have their faces of
    dimension 3 and up checked for two corners at one vertex with equal
    germs.

    Flag is read from the germs of the index's ``cells``, as masks over the
    vertex's incidence list; the link's simplices are their subsets. It is
    flag exactly when, for every germ F and link vertex u outside F with
    s = F & N(u) of size at least 2, s + u lies in some germ: a clique then
    spans a simplex, by induction on its size.
    """
    idx = c.index
    name = idx.vertices
    problems: list[str] = []

    pairs = set()  # (rank, edge, edge) of each square corner, edges ascending
    for (x, p, q, y), (xp, qy, xq, py) in zip(idx.squares, idx.sides):
        for r, e, f in ((x, xp, xq), (p, xp, py), (q, xq, qy), (y, qy, py)):
            key = (r, e, f) if e < f else (r, f, e)
            if e == f:
                problems.append(f"vertex {name[r]}: a square corner repeats an edge (link loop)")
            elif key in pairs:
                problems.append(f"vertex {name[r]}: {_DOUBLED}")
            pairs.add(key)

    for cell in idx.cells:
        if len(set(cell)) == len(cell):
            continue
        d = len(cell).bit_length() - 1
        for k in range(3, d + 1):
            for face in _faces(d, k):
                seen = set()  # (rank, germ) of each corner of the face
                for t, m in enumerate(face):
                    germ = (cell[m], frozenset([cell[face[t ^ 1 << s]] for s in range(k)]))
                    if germ in seen:
                        problems.append(f"vertex {name[cell[m]]}: {_DOUBLED}")
                    seen.add(germ)

    slot = []  # per rank: the other end of each incident edge -> its position
    for r, inc in enumerate(idx.incident):
        slot.append({a + b - r: i for i, (a, b) in enumerate(idx.edges[k] for k in inc)})
    germs_at: list[set[int]] = [set() for _ in slot]
    for cell in idx.cells:
        d = len(cell).bit_length() - 1
        for i, r in enumerate(cell):
            at, mask = slot[r], 0
            for j in range(d):
                mask |= 1 << at[cell[i ^ 1 << j]]
            germs_at[r].add(mask)

    for r, germs in enumerate(germs_at):
        nbrs = [0] * len(slot[r])  # link vertex -> the link vertices it is joined to
        holding: list[list[int]] = [[] for _ in nbrs]  # link vertex -> germs holding it
        for g in germs:
            for u in _bits(g):
                nbrs[u] |= g
                holding[u].append(g)
        sizes = set()
        for g in germs:
            reach = 0
            for w in _bits(g):
                reach |= nbrs[w]
            for u in _bits(reach & ~g):
                s = g & nbrs[u]
                t = s | 1 << u
                if s.bit_count() >= 2 and not any(t & h == t for h in holding[u]):
                    sizes.add(s.bit_count() + 1)
        for size in sorted(sizes):
            problems.append(f"vertex {name[r]}: empty {size}-clique in link (not flag)")

    return NPCReport(not problems, tuple(dict.fromkeys(problems)))
