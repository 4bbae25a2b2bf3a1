"""Block graph surgery: thin insertion, clusters, trees, assembly plans."""

import random

import pytest

from m3cube.decomposition import (
    Tree,
    clusters,
    helly_intersection,
    interior_blocks,
    modify_jsj,
    plan_surface_assembly,
)
from m3cube.errors import (
    EmptyInputError,
    InputError,
    NotATreeError,
    NotModifiedError,
)
from m3cube.manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    TorusEdge,
    TorusEnd,
    transport_slope,
    validate,
)

SWAP = GluingMatrix(0, 1, 1, 0)


def hyp_pair():
    return ManifoldGraph(
        {"H1": HyperbolicBlockData(1), "H2": HyperbolicBlockData(1)},
        (TorusEdge("T", TorusEnd("H1", 0), TorusEnd("H2", 0), SWAP),),
    )


def test_modify_inserts_thin_between_hyperbolic():
    m = modify_jsj(hyp_pair())
    assert validate(m).ok
    thin = [b for b, d in m.blocks.items() if getattr(d, "is_thin", False)]
    assert len(thin) == 1
    tid = thin[0]
    assert m.blocks[tid] == SeifertBlockData(0, 2, is_thin=True)
    # no torus joins two hyperbolic blocks any more
    for t in m.jsj_tori:
        kinds = {
            isinstance(m.blocks[t.end_a.block_id], HyperbolicBlockData),
            isinstance(m.blocks[t.end_b.block_id], HyperbolicBlockData),
        }
        assert kinds != {True}


def test_modify_preserves_composite_identification():
    m = hyp_pair()
    modified = modify_jsj(m)
    (a_edge,) = [t for t in modified.jsj_tori if t.end_a.block_id == "H1"]
    (b_edge,) = [t for t in modified.jsj_tori if t.end_b.block_id == "H2"]
    # walk a slope across the thin block: identity then the original gluing
    from m3cube.manifold import Slope

    for s in (Slope(1, 0), Slope(0, 1), Slope(2, 1)):
        step1 = transport_slope(s, a_edge.glue)
        step2 = transport_slope(step1, b_edge.glue)
        assert step2 == transport_slope(s, SWAP)


def test_modify_collars_hyperbolic_boundary():
    m = ManifoldGraph(
        {"H": HyperbolicBlockData(1)},
        boundary_tori=(TorusEnd("H", 0),),
    )
    out = modify_jsj(m)
    assert validate(out).ok
    assert len(out.blocks) == 2
    assert len(out.jsj_tori) == 1
    (end,) = out.boundary_tori
    assert getattr(out.blocks[end.block_id], "is_thin", False)


def test_modify_idempotent():
    once = modify_jsj(hyp_pair())
    twice = modify_jsj(once)
    assert twice == once


def test_modify_keeps_seifert_graphs_alone():
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 1), "B": SeifertBlockData(1, 1)},
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("B", 0), SWAP),),
    )
    assert modify_jsj(m) == m


def test_clusters_requires_modified_graph():
    with pytest.raises(NotModifiedError):
        clusters(hyp_pair())


def test_clusters_bipartite_partition():
    m = modify_jsj(hyp_pair())
    part = clusters(m)
    kinds = sorted(c.kind for c in part.clusters)
    assert kinds == ["graph", "hyperbolic", "hyperbolic"]
    (graph_cluster,) = [c for c in part.clusters if c.kind == "graph"]
    assert graph_cluster.thin
    assert len(part.transitional_tori) == 2


def test_clusters_groups_seifert_blocks():
    m = ManifoldGraph(
        {
            "H": HyperbolicBlockData(1),
            "S1": SeifertBlockData(1, 2),
            "S2": SeifertBlockData(1, 1),
        },
        (
            TorusEdge("T1", TorusEnd("H", 0), TorusEnd("S1", 0), SWAP),
            TorusEdge("T2", TorusEnd("S1", 1), TorusEnd("S2", 0), SWAP),
        ),
    )
    part = clusters(m)
    by_kind = {c.kind: c for c in part.clusters}
    assert by_kind["graph"].blocks == ("S1", "S2")
    assert not by_kind["graph"].thin
    assert part.transitional_tori == ("T1",)


def test_interior_blocks():
    m = ManifoldGraph(
        {
            "H": HyperbolicBlockData(1),
            "S1": SeifertBlockData(1, 2),
            "B": SeifertBlockData(0, 2),
            "S2": SeifertBlockData(1, 2, exceptional=((2, 1),)),
        },
        (
            TorusEdge("T1", TorusEnd("H", 0), TorusEnd("S1", 0), SWAP),
            TorusEdge("T2", TorusEnd("S1", 1), TorusEnd("B", 0), SWAP),
            TorusEdge("T3", TorusEnd("B", 1), TorusEnd("S2", 0), SWAP),
        ),
        (TorusEnd("S2", 1),),
    )
    # S1 touches the hyperbolic block, S2 touches the manifold boundary
    assert interior_blocks(m) == ("B",)


def test_helly_golden_path():
    # path 0-1-2-3-4 with three pairwise-meeting intervals
    t = Tree((0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4)))
    v, witness = helly_intersection(t, [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}])
    assert witness is None
    assert v == 2


def test_helly_disjoint_witness():
    t = Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    v, witness = helly_intersection(t, [{0}, {2, 3}, {1, 2}])
    assert v is None
    assert witness == (0, 1)


def test_helly_rejects_bad_inputs():
    t = Tree((0, 1, 2), ((0, 1), (1, 2)))
    with pytest.raises(EmptyInputError):
        helly_intersection(t, [set()])
    with pytest.raises(InputError):
        helly_intersection(t, [{0, 2}])  # not connected in the path
    with pytest.raises(NotATreeError):
        helly_intersection(Tree((0, 1, 2), ((0, 1), (1, 2), (2, 0))), [{0}])
    with pytest.raises(NotATreeError):
        helly_intersection(Tree((0, 1, 2), ((0, 1),)), [{0}])


def test_helly_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(2, 16)
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        tree = Tree(tuple(range(n)), edges)
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        hub = rng.randrange(n)
        subtrees = []
        for _ in range(rng.randint(1, 5)):
            blob = {hub}
            for _ in range(rng.randint(0, n)):
                v = rng.choice(sorted(blob))
                nxt = sorted(adj[v] - blob)
                if nxt:
                    blob.add(rng.choice(nxt))
            subtrees.append(frozenset(blob))
        v, witness = helly_intersection(tree, subtrees)
        assert witness is None
        assert all(v in s for s in subtrees)


def test_assembly_plan_golden():
    plan = plan_surface_assembly({"T": (2, 0, 4, 3)})
    assert plan.core_copies == 12
    assert plan.caps == {"T": (6, 0)}


def test_assembly_plan_two_tori():
    plan = plan_surface_assembly(
        {"T1": (2, 3, 2, 3), "T2": (4, 0, 4, 5)}
    )
    assert plan.core_copies == 60
    assert plan.caps == {"T1": (60, 60), "T2": (60, 0)}


def test_assembly_plan_rejects_bad_counts():
    with pytest.raises(EmptyInputError):
        plan_surface_assembly({})
    with pytest.raises(InputError):
        plan_surface_assembly({"T": (1, 1, 0, 1)})
    with pytest.raises(InputError):
        plan_surface_assembly({"T": (-1, 1, 1, 1)})
