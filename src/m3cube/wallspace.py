"""Finite wallspaces and their dual cube complexes.

A wallspace is a finite chamber set with walls; each wall is an ordered
pair of half-spaces (U, V) covering the chambers. The halves may overlap,
but neither may contain the other: such a wall separates nothing. Nor may
two walls have the same halves: the halfspaces of a pocset are distinct.
``validate_wallspace`` alone decides validity, and a wallspace's
``report`` holds its verdict, computed once on first use.

The dual complex has one vertex per consistent orientation (a choice of
half per wall, all pairwise intersecting), an edge when two orientations
differ on exactly one wall, and a d-cube filled in whenever all 2^d
orientations obtained by flipping d walls from a common base are present.

Cubes grow from one fact: if pairwise crossing walls can each be flipped
alone at a vertex v, flipping any subset of them at v gives a vertex
(flipped halves meet as their walls cross; a flipped half meets the other
halves as its single flip is a vertex). So each corner of a cube is one
flip away from a corner of the face it extends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import lcm
from operator import itemgetter, or_
from typing import Sequence

from .cubecomplex import Cube, CubeComplex
from .errors import BudgetExceededError, InputError
from .manifold import Problem, Slope, ValidationReport


@dataclass(frozen=True)
class Wall:
    wall_id: str
    half_u: frozenset
    half_v: frozenset

    def sides(self) -> tuple[frozenset, frozenset]:
        return (self.half_u, self.half_v)


@dataclass(frozen=True)
class Wallspace:
    chambers: tuple
    walls: tuple[Wall, ...]

    @cached_property
    def report(self) -> ValidationReport:
        return validate_wallspace(self)


def validate_wallspace(ws: Wallspace) -> ValidationReport:
    """Every violation, located at ``("chambers",)``, ``("wall", i)`` or a
    wall's field ``("wall", i, "id"|"U"|"V")``. Repeated halves are
    reported at the later wall."""
    problems: list[Problem] = []
    chambers = set(ws.chambers)
    if len(chambers) != len(ws.chambers):
        problems.append(Problem(("chambers",), None, "repeated chamber ids"))
    if not chambers:
        problems.append(Problem(("chambers",), None, "need at least one chamber"))
    ids = set()
    first_with: dict[frozenset, int] = {}  # a pair of halves -> its first wall
    for i, w in enumerate(ws.walls):

        def add(message: str, *field: str) -> None:
            problems.append(Problem(("wall", i, *field), f"wall {w.wall_id}", message))

        if w.wall_id in ids:
            problems.append(Problem(("wall", i, "id"), None, f"wall {w.wall_id!r} redeclared"))
        ids.add(w.wall_id)
        halves = w.half_u | w.half_v
        if halves - chambers:
            for field, half in zip("UV", w.sides()):
                if half - chambers:
                    extra = ", ".join(sorted(map(str, half - chambers)))
                    add(f"chamber {extra} out of range", field)
        elif halves != chambers:
            add("halves do not cover the chambers")
        if not w.half_u or not w.half_v:
            add("empty half", "U" if not w.half_u else "V")
        elif w.half_u <= w.half_v or w.half_v <= w.half_u:
            add("one half contains the other")
        first = first_with.setdefault(frozenset(w.sides()), i)
        if first != i:
            add(f"same halves as wall {ws.walls[first].wall_id}")
    return ValidationReport(tuple(problems))


def walls_cross(w1: Wall, w2: Wall) -> bool:
    """Four-corner test. A wall never crosses itself (object identity)."""
    if w1 is w2:
        return False
    for a in w1.sides():
        for b in w2.sides():
            if not (a & b):
                return False
    return True


@dataclass(frozen=True)
class DualComplex:
    complex: CubeComplex
    wall_ids: tuple[str, ...]
    orientations: tuple[tuple[int, ...], ...]  # per vertex, side index per wall


def dual_cube_complex(ws: Wallspace, budget: int = 10 ** 6) -> DualComplex:
    if budget < 1:
        raise InputError("budget must be >= 1")
    if not ws.report.ok:
        raise InputError("invalid wallspace: " + "; ".join(ws.report.problems))

    walls = ws.walls
    n = len(walls)
    # half 2*i + s is side s of wall i; holders[c] has bit h set when
    # chamber c lies in half h
    halves = [side for w in walls for side in w.sides()]
    holders = dict.fromkeys(ws.chambers, 0)
    for h, side in enumerate(halves):
        for c in side:
            holders[c] |= 1 << h
    # meets[h] has bit g set when halves h and g share a chamber
    meets = [reduce(or_, map(holders.__getitem__, side), 0) for side in halves]
    # cross[i] has bit 2*j set when walls i and j cross: both halves of
    # wall i meet both halves of wall j, i.e. bits 2*j and 2*j+1 of both[i]
    both = [meets[2 * i] & meets[2 * i + 1] for i in range(n)]
    evens = (4 ** n - 1) // 3
    cross = [b & b >> 1 & evens & ~(1 << 2 * i) for i, b in enumerate(both)]

    # Depth-first over walls, side 0 first (it is pushed last); wall i is
    # bit n-1-i of an orientation, so they come out in the order of their
    # 0/1 tuples. Each entry carries the halves meeting every chosen half.
    found: list[int] = []
    stack = [(0, 0, (1 << 2 * n) - 1)]
    while stack:
        i, o, ok = stack.pop()
        if i == n:
            found.append(o)
            if len(found) > budget:
                raise BudgetExceededError(budget)
            continue
        for s in (1, 0):
            if ok >> 2 * i + s & 1:
                stack.append((i + 1, o << 1 | s, ok & meets[2 * i + s]))
    index = {o: k for k, o in enumerate(found)}

    # The flip tables: up[w][v] is the vertex reached by flipping wall w
    # from side 0 at v (None where the flip is no vertex), and free[v] lists
    # those walls at v in increasing order. Like the orientations, they
    # hold one entry per wall and vertex.
    up = [[None] * len(found) for _ in range(n)]
    free: list[list[int]] = [[] for _ in found]
    for w in range(n):
        f, row = 1 << n - 1 - w, up[w]
        for v, o in enumerate(found):
            if not o & f and (t := index.get(o ^ f)) is not None:
                row[v] = t
                free[v].append(w)

    # The cubes at base v flip pairwise crossing walls that each flip alone
    # at v; they grow depth first, adding walls in increasing order. A
    # cube's corners are its face's, then their flips across the new wall.
    cubes: list[Cube] = []
    for v in range(len(found)):
        stack = [(0, (v,), free[v])]
        while stack:
            d, corners, walls_left = stack.pop()
            if d:
                cubes.append(Cube(d, corners))
                if len(cubes) > budget:
                    raise BudgetExceededError(budget, "cubes")
            # the corners' flips across one wall, read from its table as a tuple
            flip = itemgetter(*corners) if d else lambda row: (row[v],)
            for j in reversed(range(len(walls_left))):
                w = walls_left[j]
                later = [x for x in walls_left[j + 1:] if cross[w] >> 2 * x & 1]
                stack.append((d + 1, corners + flip(up[w]), later))

    orientations = tuple(tuple(o >> n - 1 - i & 1 for i in range(n)) for o in found)
    cx = CubeComplex(tuple(range(len(found))), tuple(cubes))
    return DualComplex(cx, tuple(w.wall_id for w in walls), orientations)


def torus_line_wallspace(slopes: Sequence[Slope], window: int) -> Wallspace:
    """Chambers and walls cut out of the plane by the lines q*x - p*y = c.

    One line per slope (p, q) and each integer c with |c| <= window;
    chambers are the complementary regions, computed exactly.

    The sweep cuts the x-axis at every crossing and every vertical line, so
    no two lines meet inside a slab between consecutive cuts, nor outside
    the outermost ones. In a slab the other lines keep one bottom-to-top
    order, read once from their heights at one x inside it. The slab's
    cells are the gaps of that order: the lowest lies below every line and
    each next one lies above one more line, so a cell's sign vector is the
    lowest one's with the lines below it flipped. A chamber is open, so it
    meets some slab in one of its cells, and it is its sign vector, however
    many slabs it spans.
    """
    if not slopes:
        raise InputError("need at least one slope")
    if len(set(slopes)) != len(slopes):
        raise InputError("repeated slopes")
    if window < 0:
        raise InputError("window must be >= 0")

    # line k: a*x + b*y = c with (a, b) = (q, -p), labelled by its slope and c
    labels = [(s, c) for s in slopes for c in range(-window, window + 1)]
    lines = [(s.q, -s.p, c) for s, c in labels]
    cuts = {Fraction(c, a) for a, b, c in lines if not b}
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            cuts.add(Fraction(c1 * b2 - c2 * b1, det))
    cuts = sorted(cuts)
    bounds = [cuts[0] - 2, *cuts, cuts[-1] + 2] if cuts else [Fraction(-1), Fraction(1)]

    # At x = n/d (d > 0) a line with b != 0 has height (c*d - a*n) / (b*d);
    # times d*m > 0, with m the lcm of those |b|, it is an integer.
    m = lcm(*(abs(b) for _a, b, _c in lines if b))
    sloped = [(k, a, c, m // b) for k, (a, b, c) in enumerate(lines) if b]
    signs = set()
    for x0, x1 in zip(bounds, bounds[1:]):
        x = (x0 + x1) / 2
        n, d = x.numerator, x.denominator
        # the lowest cell: b*y outweighs the rest of every sloped line there
        sv = [(b < 0) - (b > 0) if b else (a * n > c * d) - (a * n < c * d) for a, b, c in lines]
        signs.add(tuple(sv))
        for k, _a, _c, _s in sorted(sloped, key=lambda t: (t[2] * d - t[1] * n) * t[3]):
            sv[k] = -sv[k]
            signs.add(tuple(sv))

    ordered = sorted(signs)
    walls = []
    for k, (s, c) in enumerate(labels):
        neg = frozenset(i for i, sv in enumerate(ordered) if sv[k] < 0)
        pos = frozenset(i for i, sv in enumerate(ordered) if sv[k] > 0)
        walls.append(Wall(f"{s.p}/{s.q}@{c}", neg, pos))
    return Wallspace(tuple(range(len(ordered))), tuple(walls))
