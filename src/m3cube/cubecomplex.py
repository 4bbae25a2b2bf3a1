"""Finite cube complexes with quotient identifications.

A complex is a vertex set plus explicit cubes; each cube is a corner map
from {0,1}^d to vertices, listed in binary-counter order (bit j of the
corner index is coordinate j). Edges and squares are implicit: each cube's
1- and 2-faces are enumerated from its coordinates. Identifications are
expressed by corner maps hitting repeated vertices, so an edge is
determined by its endpoint pair (no parallel 1-cells).

Hyperplanes are parallelism classes of edges under the opposite-edge-in-a-
square relation. The pathology scan follows the usual conventions: a class
is one-sided when a directed edge is parallel to its own reverse; a cube
self-intersects a class when two of its coordinates land in it; two dual
edges sharing a vertex without spanning a square osculate, directly when
they are equally oriented; two classes inter-osculate when they cross in
some square and osculate elsewhere.

Nonpositive curvature is decided in every dimension by Gromov's link
condition (see ``check_npc``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Cube:
    dim: int
    corners: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("explicit cubes have dimension >= 1")
        if len(self.corners) != 2 ** self.dim:
            raise InputError(
                f"{self.dim}-cube needs {2 ** self.dim} corners, got {len(self.corners)}"
            )


@dataclass(frozen=True)
class CubeComplex:
    vertices: tuple
    cubes: tuple[Cube, ...] = ()


def validate_complex(c: CubeComplex) -> list[str]:
    problems = []
    vs = set(c.vertices)
    if len(vs) != len(c.vertices):
        problems.append("repeated vertex ids")
    for idx, cube in enumerate(c.cubes):
        for v in cube.corners:
            if v not in vs:
                problems.append(f"cube {idx}: unknown vertex {v}")
        for a, b in _cube_edges(cube.dim, cube.corners):
            if a == b:
                problems.append(f"cube {idx}: degenerate edge at vertex {a}")
    return problems


def dimension(c: CubeComplex) -> int:
    return max((cube.dim for cube in c.cubes), default=0)


def _cube_edges(d: int, corners: tuple) -> list[tuple]:
    """All 1-faces as ordered pairs (corner at 0-side, corner at 1-side)."""
    out = []
    for idx in range(2 ** d):
        for j in range(d):
            if not idx & (1 << j):
                out.append((corners[idx], corners[idx | (1 << j)]))
    return out


def _cube_squares(d: int, corners: tuple):
    """All 2-faces as (v00, v10, v01, v11), one per coordinate pair and base."""
    for i in range(d):
        for j in range(i + 1, d):
            bi, bj = 1 << i, 1 << j
            for base in range(2 ** d):
                if not base & (bi | bj):
                    yield (
                        corners[base],
                        corners[base | bi],
                        corners[base | bj],
                        corners[base | bi | bj],
                    )


_SQUARE_SYMMETRIES = (
    (0, 1, 2, 3),  # identity
    (1, 0, 3, 2),  # flip coordinate 0
    (2, 3, 0, 1),  # flip coordinate 1
    (3, 2, 1, 0),  # flip both
    (0, 2, 1, 3),  # swap coordinates
    (2, 0, 3, 1),
    (1, 3, 0, 2),
    (3, 1, 2, 0),
)


def _canonical_square(sq: tuple) -> tuple:
    return min(tuple(sq[i] for i in perm) for perm in _SQUARE_SYMMETRIES)


def derived_squares(c: CubeComplex) -> tuple[tuple, ...]:
    """All 2-faces of all cubes, deduplicated up to square symmetry."""
    seen = {
        _canonical_square(sq)
        for cube in c.cubes
        for sq in _cube_squares(cube.dim, cube.corners)
    }
    return tuple(sorted(seen, key=_sort_key))


def _sort_key(obj):
    return tuple(str(x) for x in obj) if isinstance(obj, tuple) else str(obj)


def derived_edges(c: CubeComplex) -> tuple[frozenset, ...]:
    out = set()
    for cube in c.cubes:
        for a, b in _cube_edges(cube.dim, cube.corners):
            out.add(frozenset((a, b)))
    return tuple(sorted(out, key=lambda e: sorted(map(str, e))))


def _require_valid(c: CubeComplex) -> None:
    problems = validate_complex(c)
    if problems:
        raise InputError("invalid cube complex: " + "; ".join(problems))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = x
        while (p := parent.setdefault(root, root)) != root:
            root = p
        while x != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


@dataclass(frozen=True)
class Hyperplane:
    """One parallelism class: its dual edges."""

    index: int
    edges: frozenset


def _edge_classes(c: CubeComplex):
    """Union-find partition of the derived edges, plus the derived squares."""
    edges = derived_edges(c)
    squares = derived_squares(c)
    uf = _UnionFind()
    for e in edges:
        uf.find(e)
    for v00, v10, v01, v11 in squares:
        uf.union(frozenset((v00, v10)), frozenset((v01, v11)))
        uf.union(frozenset((v00, v01)), frozenset((v10, v11)))
    return edges, squares, uf


def _planes(edges, uf: _UnionFind) -> tuple[Hyperplane, ...]:
    """Classes numbered by their least edge; ``edges`` is already sorted."""
    groups: dict = {}
    for e in edges:
        groups.setdefault(uf.find(e), []).append(e)
    return tuple(Hyperplane(i, frozenset(es)) for i, es in enumerate(groups.values()))


def hyperplanes(c: CubeComplex) -> tuple[Hyperplane, ...]:
    _require_valid(c)
    edges, _squares, uf = _edge_classes(c)
    return _planes(edges, uf)


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
    _require_valid(c)
    edges, squares, uf = _edge_classes(c)
    planes = _planes(edges, uf)
    class_of = {e: h.index for h in planes for e in h.edges}

    duf = _UnionFind()
    for v00, v10, v01, v11 in squares:
        duf.union((v00, v10), (v01, v11))
        duf.union((v10, v00), (v11, v01))
        duf.union((v00, v01), (v10, v11))
        duf.union((v01, v00), (v11, v10))

    edge_to_squares: dict = {}
    for si, (v00, v10, v01, v11) in enumerate(squares):
        for e in (
            frozenset((v00, v10)),
            frozenset((v01, v11)),
            frozenset((v00, v01)),
            frozenset((v10, v11)),
        ):
            edge_to_squares.setdefault(e, set()).add(si)

    def span_square(e1, e2) -> bool:
        return bool(edge_to_squares.get(e1, set()) & edge_to_squares.get(e2, set()))

    crossing: set[tuple[int, int]] = set()
    self_int = set()
    for v00, v10, v01, v11 in squares:
        c0 = class_of[frozenset((v00, v10))]
        c1 = class_of[frozenset((v00, v01))]
        if c0 == c1:
            self_int.add(c0)
        else:
            crossing.add((min(c0, c1), max(c0, c1)))

    one_sided = set()
    for h in planes:
        for e in h.edges:
            u, v = tuple(e)
            if duf.find((u, v)) == duf.find((v, u)):
                one_sided.add(h.index)
                break

    incident: dict = {}
    for e in edges:
        for x in e:
            incident.setdefault(x, []).append(e)

    direct_osc = set()
    indirect_osc = set()
    contacts: set[tuple[int, int]] = set()  # class pairs that osculate somewhere
    for x, es in incident.items():
        for e1, e2 in combinations(es, 2):
            if span_square(e1, e2):
                continue
            h1, h2 = class_of[e1], class_of[e2]
            if h1 == h2:
                (y1,) = tuple(e1 - {x})
                (y2,) = tuple(e2 - {x})
                if duf.find((x, y1)) == duf.find((x, y2)):
                    direct_osc.add(h1)
                elif duf.find((x, y1)) == duf.find((y2, x)):
                    indirect_osc.add(h1)
            else:
                contacts.add((min(h1, h2), max(h1, h2)))

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


def _empty_clique_sizes(germs) -> list[int]:
    """Sizes of the empty cliques found in the link spanned by ``germs``.

    Link vertices are edge germs, numbered as bits; the simplices are the
    nonempty subsets of the corner germs. The link is flag exactly when
    every simplex s extends by every link vertex adjacent to all of s:
    any clique is then a simplex, by induction on its size.
    """
    index: dict = {}
    masks = []
    for germ in germs:
        mask = 0
        for e in germ:
            mask |= 1 << index.setdefault(e, len(index))
        masks.append(mask)
    nbrs = [0] * len(index)
    simplices = set()
    for mask in masks:
        for u in _bits(mask):
            nbrs[u] |= mask
        sub = mask
        while sub:
            simplices.add(sub)
            sub = (sub - 1) & mask
    sizes = set()
    for s in simplices:
        common = -1
        for u in _bits(s):
            common &= nbrs[u]
        for u in _bits(common & ~s):
            if s | 1 << u not in simplices:
                sizes.add(s.bit_count() + 1)
    return sorted(sizes)


def check_npc(c: CubeComplex) -> NPCReport:
    """Gromov's criterion: every vertex link simplicial and flag.

    Simplicial means no corner repeats an edge (a link loop) and no two
    corners span the same link simplex; flag is tested by simplex
    extension, in any dimension and in time polynomial in the size of the
    complex (each corner of a d-cube adds at most 2^d link simplices).
    """
    _require_valid(c)

    # corner simplices per vertex: the set of edge-germs at each cube corner
    corners_at: dict = {}
    problems: list[str] = []
    for ci, cube in enumerate(c.cubes):
        for idx, v in enumerate(cube.corners):
            germ = frozenset(
                frozenset((v, cube.corners[idx ^ (1 << j)])) for j in range(cube.dim)
            )
            if len(germ) != cube.dim:
                problems.append(
                    f"vertex {v}: cube {ci} corner {idx} repeats an edge (link loop)"
                )
            corners_at.setdefault(v, []).append((germ, ci, idx))

    for v, germs in sorted(corners_at.items(), key=lambda kv: str(kv[0])):
        seen: dict = {}
        for gset, ci, idx in germs:
            if len(gset) < 2:
                continue
            if gset in seen and seen[gset] != (ci, idx):
                problems.append(
                    f"vertex {v}: two corners span the same link simplex (doubled)"
                )
            seen.setdefault(gset, (ci, idx))

        for size in _empty_clique_sizes(gset for gset, _, _ in germs):
            problems.append(f"vertex {v}: empty {size}-clique in link (not flag)")

    return NPCReport(not problems, tuple(dict.fromkeys(problems)))


def complex_from_cubes(cube_specs: Iterable[tuple[int, Sequence]]) -> CubeComplex:
    """Convenience builder: vertices are collected from the corner lists."""
    cubes = tuple(Cube(d, tuple(corners)) for d, corners in cube_specs)
    verts = sorted({v for cube in cubes for v in cube.corners}, key=str)
    return CubeComplex(tuple(verts), cubes)
