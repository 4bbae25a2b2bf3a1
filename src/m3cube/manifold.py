"""Block graphs for compact aspherical 3-manifolds.

A manifold is described by its geometric decomposition: Seifert fibered and
hyperbolic blocks glued along torus ends. Curves on a torus are recorded as
slopes (primitive integer pairs) in the basis of one side; the gluing matrix
of an edge converts coordinates from the ``end_a`` side to the ``end_b`` side.

Value types here are immutable. Constructors stay permissive so that broken
graphs can be represented and reported; ``validate`` is the gatekeeper and
the only place that decides whether a graph is valid. It lists every
violation it finds with the record it concerns, which the parser turns
into a line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError

GOOD_GEOMETRIES = frozenset({"H3", "E3", "H2xR", "S2xR", "S3", "SFS-with-boundary"})
BAD_GEOMETRIES = frozenset({"Sol", "Nil", "SL2R"})
GEOMETRY_LABELS = GOOD_GEOMETRIES | BAD_GEOMETRIES


@dataclass(frozen=True, order=True)
class Slope:
    """A primitive curve class on a torus: coprime (p, q), p > 0 or (0, 1)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise InputError("slope (0, 0) is not a curve")
        if math.gcd(self.p, self.q) != 1:
            raise InputError(f"slope ({self.p}, {self.q}) is not primitive")
        if self.p < 0 or (self.p == 0 and self.q != 1):
            raise InputError(f"slope ({self.p}, {self.q}) is not in normal form")

    def __str__(self):
        return f"({self.p},{self.q})"


def slope_normalize(p: int, q: int) -> Slope:
    """Reduce an integer pair to the unique normal form of its ray.

    Divides out the gcd and fixes the sign so that p > 0, or (p, q) = (0, 1).
    Raises InputError on (0, 0).
    """
    if p == 0 and q == 0:
        raise InputError("cannot normalize (0, 0)")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return Slope(p, q)


@dataclass(frozen=True)
class GluingMatrix:
    """Integer 2x2 change of basis between the two sides of a torus.

    Rows are [[a, b], [c, d]]; a valid gluing has determinant +1 or -1.
    The determinant is not enforced here so that invalid graphs can be
    loaded and reported by ``validate``.
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: int, q: int) -> tuple[int, int]:
        return (self.a * p + self.b * q, self.c * p + self.d * q)

    def inverse(self) -> "GluingMatrix":
        det = self.det
        if det not in (1, -1):
            raise InputError(f"gluing with det {det} is not invertible over Z")
        # det is its own reciprocal when it is +-1
        return GluingMatrix(det * self.d, -det * self.b, -det * self.c, det * self.a)


IDENTITY_GLUING = GluingMatrix(1, 0, 0, 1)


def transport_slope(s: Slope, g: GluingMatrix) -> Slope:
    """Express a slope in the basis on the far side of a gluing."""
    p, q = g.apply(s.p, s.q)
    return slope_normalize(p, q)


@dataclass(frozen=True)
class SeifertBlockData:
    """Seifert invariants of one block.

    genus is the genus of the (orientable) base surface, exceptional fibers
    are (a_j, b_j) pairs with a_j >= 2, and section_obstruction is the integer
    Euler term b. A block with boundary tori has no section obstruction, so
    ``validate`` rejects a nonzero b there. The ``.m3`` fields are
    ``genus=``, ``boundaries=``, ``exceptional=`` and ``b=``.
    """

    genus: int
    num_boundary: int
    exceptional: tuple[tuple[int, int], ...] = ()
    section_obstruction: int = 0


@dataclass(frozen=True)
class HyperbolicBlockData:
    """A finite-volume hyperbolic block with num_boundary cusp tori.

    No verdict reads coordinates on a cusp: a hyperbolic block only makes
    its Seifert neighbors not interior.
    """

    num_boundary: int


BlockData = SeifertBlockData | HyperbolicBlockData


@dataclass(frozen=True, order=True)
class TorusEnd:
    """One boundary torus of one block: (block id, boundary index)."""

    block_id: str
    boundary_index: int

    def __str__(self):
        return f"{self.block_id}.{self.boundary_index}"


@dataclass(frozen=True)
class TorusEdge:
    """A JSJ torus: two ends identified through a gluing matrix.

    ``glue`` maps curve coordinates in the ``end_a`` basis to the ``end_b``
    basis.
    """

    torus_id: str
    end_a: TorusEnd
    end_b: TorusEnd
    glue: GluingMatrix


@dataclass(frozen=True)
class BlockIndex:
    """Adjacency of a block graph, derived once from its tori.

    ``ends`` maps a block to its JSJ ends as (edge, 'a'|'b') pairs sorted by
    (torus id, side); a self-gluing contributes both of its ends.
    ``boundary_blocks`` holds the blocks that carry a manifold-boundary
    torus.
    """

    ends: dict[str, tuple[tuple[TorusEdge, str], ...]]
    boundary_blocks: frozenset[str]


@dataclass(frozen=True)
class ManifoldGraph:
    """Blocks plus the tori that join them.

    ``boundary_tori`` lists the ends that stay on the manifold boundary.
    ``geometry_label`` is trusted input for manifolds with no JSJ tori.

    ``index`` is built from ``jsj_tori`` and ``boundary_tori`` on first use
    and kept for the life of the graph, so ``ends_of`` and ``neighbors``
    cost O(degree) rather than a scan of every torus.
    ``blocks`` is not indexed: it is a plain dict, read directly.
    """

    blocks: dict[str, BlockData]
    jsj_tori: tuple[TorusEdge, ...] = ()
    boundary_tori: tuple[TorusEnd, ...] = ()
    geometry_label: str | None = None

    @cached_property
    def index(self) -> BlockIndex:
        ends: dict[str, list[tuple[TorusEdge, str]]] = {}
        for t in self.jsj_tori:
            ends.setdefault(t.end_a.block_id, []).append((t, "a"))
            ends.setdefault(t.end_b.block_id, []).append((t, "b"))
        for pairs in ends.values():
            pairs.sort(key=lambda ts: (ts[0].torus_id, ts[1]))
        return BlockIndex(
            {b: tuple(pairs) for b, pairs in ends.items()},
            frozenset(end.block_id for end in self.boundary_tori),
        )

    def block_ids(self) -> list[str]:
        return sorted(self.blocks)

    def torus(self, torus_id: str) -> TorusEdge:
        """The first JSJ torus with this id; KeyError when there is none."""
        for t in self.jsj_tori:
            if t.torus_id == torus_id:
                return t
        raise KeyError(torus_id)

    def ends_of(self, block_id: str) -> list[tuple[TorusEdge, str]]:
        """All JSJ ends on a block, as (edge, 'a'|'b') pairs, sorted."""
        return list(self.index.ends.get(block_id, ()))

    def neighbors(self, block_id: str) -> list[str]:
        return sorted(
            {
                (t.end_b if side == "a" else t.end_a).block_id
                for t, side in self.index.ends.get(block_id, ())
            }
        )


def fiber_slope(b: SeifertBlockData, boundary_index: int) -> Slope:
    """The regular fiber on a boundary torus, in the (section, fiber) basis."""
    if not 0 <= boundary_index < b.num_boundary:
        raise InputError(
            f"boundary index {boundary_index} out of range (block has {b.num_boundary})"
        )
    return Slope(0, 1)


@dataclass(frozen=True)
class Problem:
    """One violation found by a validator.

    ``where`` names the record at fault and, when one field is, that field.
    ``validate`` uses ``("block", id)``, ``("torus", i, f)`` for f in id,
    a, b, glue, ``("boundary", j, "end")``, ``("geometry",)`` or
    ``("geometry", "label")``, and ``()`` for whole-graph problems;
    ``validate_wallspace`` uses ``("chambers",)``, ``("wall", i)`` and
    ``("wall", i, f)`` for f in id, U, V; ``validate_complex`` uses
    ``("vertex", j)`` and ``("cube", i)``, i being the record's place in its
    tuple. Only a failed report is located, by one re-scan of the text.
    """

    where: tuple
    owner: str | None
    message: str

    def __str__(self):
        return f"{self.owner}: {self.message}" if self.owner else self.message


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Problem, ...] = ()

    @property
    def problems(self) -> tuple[str, ...]:
        return tuple(map(str, self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations


def _block_problems(block_id: str, data: BlockData) -> list[Problem]:
    out: list[Problem] = []

    def add(message: str) -> None:
        out.append(Problem(("block", block_id), f"block {block_id}", message))

    if isinstance(data, SeifertBlockData):
        if data.genus < 0:
            add(f"negative genus {data.genus}")
        if data.num_boundary < 0:
            add("negative boundary count")
        for a, b in data.exceptional:
            if a < 2:
                add(f"exceptional fiber ({a},{b}) needs a >= 2")
        if data.section_obstruction and data.num_boundary > 0:
            add(f"section obstruction b={data.section_obstruction} needs a closed block")
    elif isinstance(data, HyperbolicBlockData):
        if data.num_boundary < 1:
            add("hyperbolic block needs at least one torus end")
    else:
        add(f"unknown block data {type(data).__name__}")
    return out


def reachable(start, step) -> set:
    """``start`` and every node reached from it, ``step(v)`` being the
    neighbors of v."""
    reached = {start}
    stack = [start]
    while stack:
        new = set(step(stack.pop())) - reached
        reached |= new
        stack += new
    return reached


def validate(m: ManifoldGraph) -> ValidationReport:
    """Check every structural invariant; the report lists all violations.

    An end is reported as already used at each use after its first, with
    tori taken before boundary ends. Unused ends are reported once per
    block, at the lowest unused index with a count of the others, so the
    cost follows the ends in use and not the boundary count.
    """
    problems: list[Problem] = []

    def add(where: tuple, owner: str | None, message: str) -> None:
        problems.append(Problem(where, owner, message))

    for block_id in sorted(m.blocks):
        problems.extend(_block_problems(block_id, m.blocks[block_id]))

    seen_tori: set[str] = set()
    used: set[TorusEnd] = set()

    def check_end(end: TorusEnd, where: tuple, owner: str) -> None:
        if end.block_id not in m.blocks:
            add(where, owner, f"unknown block {end.block_id!r}")
            return
        n = m.blocks[end.block_id].num_boundary
        if not 0 <= end.boundary_index < n:
            add(
                where, owner,
                f"boundary index {end.boundary_index} out of range"
                f" (block {end.block_id} has {n})",
            )
        elif end in used:
            add(where, owner, f"end {end} already used")
        used.add(end)

    for i, t in enumerate(m.jsj_tori):
        owner = f"torus {t.torus_id}"
        if t.torus_id in seen_tori:
            add(("torus", i, "id"), owner, "duplicate torus id")
        seen_tori.add(t.torus_id)
        check_end(t.end_a, ("torus", i, "a"), owner)
        check_end(t.end_b, ("torus", i, "b"), owner)
        if t.glue.det not in (1, -1):
            add(("torus", i, "glue"), owner, f"glue determinant {t.glue.det}, need +1 or -1")

    for j, end in enumerate(m.boundary_tori):
        check_end(end, ("boundary", j, "end"), f"boundary {end}")

    taken: dict[str, set[int]] = {}
    for end in used:
        taken.setdefault(end.block_id, set()).add(end.boundary_index)
    for block_id in sorted(m.blocks):
        n = m.blocks[block_id].num_boundary
        mine = sorted(i for i in taken.get(block_id, ()) if 0 <= i < n)
        if len(mine) < n:
            first = next((i for i, j in enumerate(mine) if i != j), len(mine))
            more = n - len(mine) - 1
            message = "not glued and not declared as boundary"
            if more:
                message += f" (and {more} more on block {block_id})"
            add((), f"end {TorusEnd(block_id, first)}", message)

    if m.geometry_label is not None:
        if m.geometry_label not in GEOMETRY_LABELS:
            add(("geometry", "label"), None, f"unknown geometry label {m.geometry_label!r}")
        if m.jsj_tori:
            add(("geometry",), None, "geometry label given although JSJ tori are present")
        if len(m.blocks) > 1:
            add(("geometry",), None, "geometry label requires a single block")

    if not m.blocks:
        add((), None, "manifold needs at least one block")
    elif len(m.blocks) > 1:
        missing = sorted(m.blocks.keys() - reachable(min(m.blocks), m.neighbors))
        if missing:
            add((), None, f"graph not connected: unreachable blocks {', '.join(missing)}")

    return ValidationReport(tuple(problems))
