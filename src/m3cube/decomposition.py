"""Block graph surgery and the combinatorics behind surface assembly.

The modified decomposition inserts thin T^2 x I blocks wherever a torus
touches no Seifert block, so that afterwards every torus has a Seifert side.
Cutting along the tori that touch a hyperbolic block then splits the graph
into hyperbolic blocks and graph-manifold clusters, a bipartite picture.

Also here: the Helly step for subtrees of a tree and the lcm bookkeeping
that balances cap counts when parallel surface pieces are assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyInputError,
    InputError,
    NotATreeError,
    NotModifiedError,
)
from .manifold import (
    IDENTITY_GLUING,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    TorusEdge,
    TorusEnd,
)


THIN_BLOCK = SeifertBlockData(genus=0, num_boundary=2, is_thin=True)


def _fresh_id(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}~{k}"
        k += 1
    taken.add(name)
    return name


def modify_jsj(m: ManifoldGraph) -> ManifoldGraph:
    """Insert thin blocks so every torus lies in a Seifert block.

    A torus whose two sides are both hyperbolic is split in two with a thin
    block between them; a manifold-boundary torus on a hyperbolic block gets
    a thin collar appended. The composite identifications are unchanged: the
    new edge on the ``end_a`` side is the identity and the thin block's two
    ends carry the same product basis. Idempotent. A geometry label survives
    only if the result still has no tori.
    """
    blocks: dict = dict(m.blocks)
    taken = set(blocks)
    edges: list[TorusEdge] = []
    boundary: list[TorusEnd] = []

    def is_hyp(end: TorusEnd) -> bool:
        return isinstance(m.blocks[end.block_id], HyperbolicBlockData)

    for t in m.jsj_tori:
        if is_hyp(t.end_a) and is_hyp(t.end_b):
            thin_id = _fresh_id(f"thin:{t.torus_id}", taken)
            blocks[thin_id] = THIN_BLOCK
            edges.append(
                TorusEdge(f"{t.torus_id}.a", t.end_a, TorusEnd(thin_id, 0), IDENTITY_GLUING)
            )
            edges.append(
                TorusEdge(f"{t.torus_id}.b", TorusEnd(thin_id, 1), t.end_b, t.glue)
            )
        else:
            edges.append(t)

    for end in m.boundary_tori:
        if is_hyp(end):
            thin_id = _fresh_id(f"thin:{end.block_id}.{end.boundary_index}", taken)
            blocks[thin_id] = THIN_BLOCK
            edges.append(
                TorusEdge(
                    f"collar:{end.block_id}.{end.boundary_index}",
                    end,
                    TorusEnd(thin_id, 0),
                    IDENTITY_GLUING,
                )
            )
            boundary.append(TorusEnd(thin_id, 1))
        else:
            boundary.append(end)

    label = m.geometry_label if not edges else None
    return ManifoldGraph(blocks, tuple(edges), tuple(boundary), label)


@dataclass(frozen=True)
class Cluster:
    """A piece of the transitional decomposition.

    ``thin`` marks a graph cluster that is a single thin block.
    """

    kind: str  # "hyperbolic" or "graph"
    blocks: tuple[str, ...]
    thin: bool = False


@dataclass(frozen=True)
class ClusterPartition:
    clusters: tuple[Cluster, ...]
    transitional_tori: tuple[str, ...]


def clusters(m: ManifoldGraph) -> ClusterPartition:
    """Cut along the tori that touch a hyperbolic block.

    Requires the modified graph: a torus with two hyperbolic sides raises
    NotModifiedError. Components of what remains are single hyperbolic
    blocks or graph-manifold clusters; every transitional torus joins one of
    each, so the partition is bipartite.
    """
    def is_hyp(block_id: str) -> bool:
        return isinstance(m.blocks[block_id], HyperbolicBlockData)

    transitional: list[str] = []
    internal: list[TorusEdge] = []
    for t in m.jsj_tori:
        hyp_sides = is_hyp(t.end_a.block_id) + is_hyp(t.end_b.block_id)
        if hyp_sides == 2:
            raise NotModifiedError(
                f"torus {t.torus_id} has two hyperbolic sides; run modify_jsj first"
            )
        if hyp_sides == 1:
            transitional.append(t.torus_id)
        else:
            internal.append(t)

    adj: dict[str, set[str]] = {b: set() for b in m.blocks}
    for t in internal:
        adj[t.end_a.block_id].add(t.end_b.block_id)
        adj[t.end_b.block_id].add(t.end_a.block_id)

    seen: set[str] = set()
    out: list[Cluster] = []
    for start in sorted(m.blocks):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        ids = tuple(sorted(comp))
        if any(is_hyp(b) for b in ids):
            if len(ids) != 1:
                raise AssertionError(f"hyperbolic block clustered with others: {ids}")
            out.append(Cluster("hyperbolic", ids))
        else:
            thin = len(ids) == 1 and getattr(m.blocks[ids[0]], "is_thin", False)
            out.append(Cluster("graph", ids, thin))

    # bipartite sanity: each transitional torus joins a hyperbolic block to a
    # Seifert cluster
    for tid in transitional:
        t = m.torus(tid)
        kinds = {is_hyp(t.end_a.block_id), is_hyp(t.end_b.block_id)}
        if kinds != {True, False}:
            raise AssertionError(f"transitional torus {tid} is not bipartite")

    return ClusterPartition(tuple(out), tuple(sorted(transitional)))


def interior_blocks(m: ManifoldGraph) -> tuple[str, ...]:
    """Seifert blocks with no manifold boundary and no hyperbolic neighbor."""
    boundary_blocks = {end.block_id for end in m.boundary_tori}
    out = []
    for block_id in m.block_ids():
        data = m.blocks[block_id]
        if not isinstance(data, SeifertBlockData):
            continue
        if block_id in boundary_blocks:
            continue
        if any(
            isinstance(m.blocks[n], HyperbolicBlockData)
            for n in m.neighbors(block_id)
        ):
            continue
        out.append(block_id)
    return tuple(out)


@dataclass(frozen=True)
class Tree:
    """A finite tree given by explicit vertices and undirected edges."""

    vertices: tuple
    edges: tuple[tuple, ...]

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def _check_tree(tree: Tree) -> dict:
    vs = set(tree.vertices)
    if not vs:
        raise NotATreeError("empty vertex set")
    seen_edges = set()
    for a, b in tree.edges:
        if a not in vs or b not in vs:
            raise NotATreeError(f"edge ({a}, {b}) uses unknown vertices")
        if a == b:
            raise NotATreeError(f"loop at {a}")
        key = frozenset((a, b))
        if key in seen_edges:
            raise NotATreeError(f"duplicate edge ({a}, {b})")
        seen_edges.add(key)
    if len(tree.edges) != len(vs) - 1:
        raise NotATreeError(
            f"{len(vs)} vertices need {len(vs) - 1} edges, found {len(tree.edges)}"
        )
    adj = tree.adjacency()
    reached = set()
    stack = [tree.vertices[0]]
    while stack:
        v = stack.pop()
        if v in reached:
            continue
        reached.add(v)
        stack.extend(adj[v] - reached)
    if reached != vs:
        raise NotATreeError("graph is disconnected")
    return adj


def helly_intersection(
    tree: Tree, subtrees: Sequence[Iterable]
) -> tuple[object | None, tuple[int, int] | None]:
    """A vertex in every subtree, or a witness pair of disjoint subtrees.

    Subtrees of a tree have the Helly property: if they pairwise intersect,
    they all share a vertex. Returns (vertex, None) in that case (smallest
    vertex, for determinism) and (None, (i, j)) when subtrees i and j are
    disjoint. Each subtree must induce a connected nonempty subgraph.
    """
    adj = _check_tree(tree)
    sets = [frozenset(s) for s in subtrees]
    vs = set(tree.vertices)
    for idx, s in enumerate(sets):
        if not s:
            raise EmptyInputError(f"subtree {idx} is empty")
        if not s <= vs:
            raise InputError(f"subtree {idx} uses unknown vertices")
        reached = set()
        stack = [next(iter(s))]
        while stack:
            v = stack.pop()
            if v in reached:
                continue
            reached.add(v)
            stack.extend((adj[v] & s) - reached)
        if reached != s:
            raise InputError(f"subtree {idx} is not connected")

    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not sets[i] & sets[j]:
                return None, (i, j)

    common = vs if not sets else frozenset.intersection(*sets)
    if not common:
        raise AssertionError("pairwise intersecting subtrees with empty total intersection")
    return min(common), None


@dataclass(frozen=True)
class AssemblyPlan:
    """How many parallel copies make the cap counts match.

    ``core_copies`` is the common scale (the lcm), ``caps`` maps each torus
    to its (alpha, beta) cap counts.
    """

    core_copies: int
    caps: dict[str, tuple[int, int]]


def plan_surface_assembly(
    counts: Mapping[str, tuple[int, int, int, int]]
) -> AssemblyPlan:
    """Balance cap counts: scale = lcm of the nonzero values among all
    (r, s, a, b), caps per torus are (r*scale/a, s*scale/b).

    r and s may be zero (that side contributes no caps); a and b are the
    positive cap denominators, so the quotients are exact integers.
    """
    if not counts:
        raise EmptyInputError("no tori to plan for")
    values: list[int] = []
    for tid in sorted(counts):
        r, s, a, b = counts[tid]
        if a < 1 or b < 1:
            raise InputError(f"torus {tid}: cap denominators must be >= 1")
        if r < 0 or s < 0:
            raise InputError(f"torus {tid}: negative surface counts")
        values.extend(v for v in (r, s, a, b) if v != 0)
    scale = math.lcm(*values)
    caps = {
        tid: (r * scale // a, s * scale // b)
        for tid, (r, s, a, b) in sorted(counts.items())
    }
    return AssemblyPlan(scale, caps)
