"""Block graph surgery and the Helly property of subtrees.

The modified decomposition inserts a thin block, a copy of T^2 x I, wherever
a torus touches no Seifert block, so that afterwards every torus has a
Seifert side. A thin block is a plain ``SeifertBlockData`` of genus 0 with
two boundary tori and no exceptional fibers; only its ``thin:`` id marks it.

Also here: the Helly step for subtrees of a tree, which acceptance
criterion 8 tests; no subcommand runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .manifold import (
    IDENTITY_GLUING,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    TorusEdge,
    TorusEnd,
    reachable,
)


THIN_BLOCK = SeifertBlockData(genus=0, num_boundary=2)


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


def is_interior(m: ManifoldGraph, block_id: str) -> bool:
    """Seifert, with no manifold boundary and no hyperbolic neighbor.

    Reads the graph's adjacency index, so it costs O(degree).
    """
    return (
        isinstance(m.blocks[block_id], SeifertBlockData)
        and block_id not in m.index.boundary_blocks
        and not any(
            isinstance(m.blocks[n], HyperbolicBlockData)
            for n in m.neighbors(block_id)
        )
    )


def interior_blocks(m: ManifoldGraph) -> tuple[str, ...]:
    """Seifert blocks with no manifold boundary and no hyperbolic neighbor."""
    return tuple(b for b in m.block_ids() if is_interior(m, b))


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
        raise InputError("empty vertex set")
    seen_edges = set()
    for a, b in tree.edges:
        if a not in vs or b not in vs:
            raise InputError(f"edge ({a}, {b}) uses unknown vertices")
        if a == b:
            raise InputError(f"loop at {a}")
        key = frozenset((a, b))
        if key in seen_edges:
            raise InputError(f"duplicate edge ({a}, {b})")
        seen_edges.add(key)
    if len(tree.edges) != len(vs) - 1:
        raise InputError(f"{len(vs)} vertices need {len(vs) - 1} edges, found {len(tree.edges)}")
    adj = tree.adjacency()
    if reachable(tree.vertices[0], adj.__getitem__) != vs:
        raise InputError("graph is disconnected")
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
            raise InputError(f"subtree {idx} is empty")
        if not s <= vs:
            raise InputError(f"subtree {idx} uses unknown vertices")
        if reachable(next(iter(s)), lambda v: adj[v] & s) != s:
            raise InputError(f"subtree {idx} is not connected")

    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not sets[i] & sets[j]:
                return None, (i, j)

    common = vs if not sets else frozenset.intersection(*sets)
    if not common:
        raise AssertionError("pairwise intersecting subtrees with empty total intersection")
    return min(common), None
