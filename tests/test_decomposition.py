"""Block graph surgery: thin insertion, interior blocks, trees."""

import random
from collections import Counter

import networkx as nx
import pytest

from m3cube.decomposition import (
    Tree,
    helly_intersection,
    interior_blocks,
    is_interior,
    modify_jsj,
)
from m3cube.errors import InputError
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
    thin = [b for b in m.blocks if b.startswith("thin:")]
    assert len(thin) == 1
    tid = thin[0]
    assert m.blocks[tid] == SeifertBlockData(0, 2)
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
    assert end.block_id.startswith("thin:")
    assert out.blocks[end.block_id] == SeifertBlockData(0, 2)


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


def random_block_graph(rng):
    """A block graph whose tori pair up random free ends.

    Small block counts make self-gluings and parallel tori common; other
    ends go to the manifold boundary or stay unused. Block names and torus
    ids are random, so their sorted order is not the record order.
    """
    names = rng.sample([f"b{i:02d}" for i in range(40)], rng.randint(1, 8))
    blocks = {}
    for name in names:
        k = rng.randint(1, 5)
        if rng.random() < 0.3:
            blocks[name] = HyperbolicBlockData(k)
        else:
            blocks[name] = SeifertBlockData(rng.randint(0, 2), k)
    free = [TorusEnd(b, i) for b in names for i in range(blocks[b].num_boundary)]
    rng.shuffle(free)
    ids = iter(rng.sample(range(1000), len(free)))
    tori, boundary = [], []
    while free:
        roll = rng.random()
        if roll < 0.6 and len(free) >= 2:
            glue = rng.choice((SWAP, GluingMatrix(1, 0, 0, 1), GluingMatrix(1, -1, 0, 1)))
            tori.append(TorusEdge(f"t{next(ids)}", free.pop(), free.pop(), glue))
        elif roll < 0.9:
            boundary.append(free.pop())
        else:
            free.pop()
    return ManifoldGraph(blocks, tuple(tori), tuple(boundary))


def test_block_index_matches_networkx_oracle():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(300):
        m = random_block_graph(rng)
        G = nx.MultiGraph()
        G.add_nodes_from(m.blocks)
        for t in m.jsj_tori:
            G.add_edge(t.end_a.block_id, t.end_b.block_id, key=t.torus_id, torus=t)
        on_boundary = {end.block_id for end in m.boundary_tori}

        def hyperbolic(b):
            return isinstance(m.blocks[b], HyperbolicBlockData)

        for u, v, key, data in G.edges(keys=True, data=True):
            assert m.torus(key) == data["torus"]
            seen["self-gluing"] += u == v
            seen["parallel"] += u != v and G.number_of_edges(u, v) > 1
        with pytest.raises(KeyError):
            m.torus("no-such-torus")

        expected_interior = []
        for b in sorted(G):
            incident = {d["torus"].torus_id: d["torus"] for _u, _v, d in G.edges(b, data=True)}
            ends = [
                (t, side)
                for t in incident.values()
                for side, end in (("a", t.end_a), ("b", t.end_b))
                if end.block_id == b
            ]
            ends.sort(key=lambda ts: (ts[0].torus_id, ts[1]))
            assert m.ends_of(b) == ends
            assert m.neighbors(b) == sorted(G.neighbors(b))
            interior = (
                not hyperbolic(b)
                and b not in on_boundary
                and not any(hyperbolic(n) for n in G.neighbors(b))
            )
            assert is_interior(m, b) == interior
            if interior:
                expected_interior.append(b)
        assert interior_blocks(m) == tuple(expected_interior)
        seen["boundary"] += bool(m.boundary_tori)
        seen["hyperbolic"] += any(map(hyperbolic, m.blocks))
        seen["interior"] += bool(expected_interior)
    assert min(seen[k] for k in ("self-gluing", "parallel", "boundary", "hyperbolic", "interior")) >= 20


def test_ends_of_returns_a_fresh_list():
    m = ManifoldGraph(
        {"A": SeifertBlockData(0, 1), "B": SeifertBlockData(0, 1)},
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("B", 0), SWAP),),
    )
    ends = m.ends_of("A")
    ends.clear()
    assert len(m.ends_of("A")) == 1
    assert m.ends_of("missing") == [] and m.neighbors("missing") == []


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
    with pytest.raises(InputError, match="subtree 0 is empty"):
        helly_intersection(t, [set()])
    with pytest.raises(InputError, match="subtree 0 is not connected"):
        helly_intersection(t, [{0, 2}])
    with pytest.raises(InputError, match="3 vertices need 2 edges, found 3"):
        helly_intersection(Tree((0, 1, 2), ((0, 1), (1, 2), (2, 0))), [{0}])
    with pytest.raises(InputError, match="3 vertices need 2 edges, found 1"):
        helly_intersection(Tree((0, 1, 2), ((0, 1),)), [{0}])


@pytest.mark.parametrize(
    "tree,subtrees,message",
    [
        (Tree((), ()), [], "empty vertex set"),
        (Tree((0, 1), ((0, 5),)), [{0}], r"edge \(0, 5\) uses unknown vertices"),
        (Tree((0, 1), ((0, 0),)), [{0}], "loop at 0"),
        (Tree((0, 1, 2), ((0, 1), (1, 0))), [{0}], r"duplicate edge \(1, 0\)"),
        # a triangle plus an isolated vertex has n - 1 edges
        (Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 0))), [{0}], "graph is disconnected"),
        (Tree((0, 1), ((0, 1),)), [{0, 9}], "subtree 0 uses unknown vertices"),
    ],
    ids=["empty", "unknown-vertex", "loop", "duplicate-edge", "disconnected", "subtree-vertex"],
)
def test_helly_rejects_each_bad_tree(tree, subtrees, message):
    with pytest.raises(InputError, match=message):
        helly_intersection(tree, subtrees)


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
