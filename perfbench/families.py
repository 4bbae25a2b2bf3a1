"""Seeded input families for the benchmark.

Each generator takes a size and a ``random.Random`` and returns the input
text together with the facts its output must show. The seed moves labels,
record order, the positions of hyperbolic blocks and of the twisted torus,
and the choice of exceptional fibers; it never changes a size or a count
that the checker relies on. Every expected verdict follows from the
construction, as the docstrings explain, and never from running m3cube.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

# Gluings, written a,b,c,d for the matrix [[a,b],[c,d]] that maps the end_a
# basis to the end_b basis.
SWAP = "0,1,1,0"  # fiber of each side lands on the other side's (1,0)
TWIST = "1,-1,0,1"  # the two sides see the neighbor fiber as (1,1) and (1,-1)
SHEAR = "0,1,1,-1"  # end_a side sees (1,0), end_b side sees (1,-1)
FLIP = "0,-1,1,0"  # both sides see (1,0)
IDENTITY = "1,0,0,1"


def _labels(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct labels of one width, whose sorted order the seed decides."""
    width = len(str(10 * n - 1))
    return [f"{prefix}{x:0{width}d}" for x in rng.sample(range(10 * n), n)]


@dataclass(frozen=True)
class ManifoldCase:
    text: str
    blocks: int  # blocks in the file
    tori: int
    interior: tuple[str, ...]  # interior blocks of the modified graph
    charged: tuple[str, ...]  # the interior blocks that must test charged
    hubs: tuple[str, ...] = ()
    h1_rank: int = 0  # rank of H1 of each hub
    h1_torsion_order: int = 1  # product of the torsion orders of H1 of each hub
    h1_generators: int = 0

    @property
    def vcs(self) -> bool:
        return not self.charged


def ring(n: int, rng: random.Random, twisted: bool) -> ManifoldCase:
    """A closed ring of n blocks, about one in seven hyperbolic.

    Seifert blocks have genus 0 and two ends. Hyperbolic blocks sit alone or
    in adjacent pairs; each such cluster is followed by at least three
    Seifert blocks, so every cluster has two distinct Seifert neighbors and
    the number of interior blocks is n - H - 2C for H hyperbolic blocks in C
    clusters, whatever the seed. An adjacent hyperbolic pair makes
    ``modify_jsj`` insert a thin block, which has hyperbolic neighbors and
    so is not interior.

    Tori between Seifert blocks use SWAP, so every interior end sees the
    neighbor fiber as (1,0) and weights (1,1) kill d1 + d2, the section
    relation: the ring is chargeless. With ``twisted``, one torus between
    two interior blocks uses TWIST instead. Each of its endpoints then sees
    (1,0) on one end and (1,+-1) on the other, so any vanishing weighted
    sum has a zero weight on the twisted end: exactly those two blocks are
    charged.
    """
    hyperbolic = n // 7
    pairs = max(1, n // 50)
    clusters = hyperbolic - pairs
    seifert = n - hyperbolic
    if seifert < 3 * clusters + 1:
        raise ValueError(f"ring-{n} is too small for its clusters")

    gaps = [3] * clusters
    wide = rng.randrange(clusters)
    gaps[wide] = 4  # room for an interior pair to carry the twist
    for _ in range(seifert - sum(gaps)):
        gaps[rng.randrange(clusters)] += 1
    sizes = [2] * pairs + [1] * (clusters - pairs)
    rng.shuffle(sizes)

    kinds: list[str] = []  # "H" or "S", in ring order
    twist_at = None  # ring index of the first block of the twisted torus
    for size, gap in zip(sizes, gaps):
        start = len(kinds) + size
        kinds += ["H"] * size + ["S"] * gap
        if twisted and twist_at is None and gap >= 4:
            twist_at = start + 1 + rng.randrange(gap - 3)
    shift = rng.randrange(n)
    kinds = kinds[shift:] + kinds[:shift]
    if twist_at is not None:
        twist_at = (twist_at - shift) % n

    names = _labels("b", n, rng)
    tids = _labels("t", n, rng)
    lines = []
    for i, kind in enumerate(kinds):
        if kind == "S":
            lines.append(f"block {names[i]} seifert genus=0 boundaries=2 b=0")
        else:
            lines.append(f"block {names[i]} hyperbolic boundaries=2")
    tori = []
    for i in range(n):
        j = (i + 1) % n
        if i == twist_at:
            glue = TWIST
        elif kinds[i] == "S" and kinds[j] == "S":
            glue = SWAP
        elif kinds[i] == "H" and kinds[j] == "H":
            glue = SWAP
        else:
            glue = IDENTITY
        tori.append(f"torus {tids[i]} {names[i]}.1 {names[j]}.0 glue={glue}")
    rng.shuffle(lines)
    rng.shuffle(tori)

    interior = tuple(
        sorted(
            names[i]
            for i in range(n)
            if kinds[i] == "S" and kinds[i - 1] == "S" and kinds[(i + 1) % n] == "S"
        )
    )
    assert len(interior) == seifert - 2 * clusters
    charged = ()
    if twist_at is not None:
        charged = tuple(sorted((names[twist_at], names[(twist_at + 1) % n])))
        assert set(charged) <= set(interior)
    return ManifoldCase("\n".join(lines + tori) + "\n", n, n, interior, charged)


def dipole(k: int, rng: random.Random, sheared: bool) -> ManifoldCase:
    """Two hub blocks P and Q joined by k parallel tori.

    Both hubs are Seifert with genus 3, k ends and two exceptional pairs
    (a1,1)(a1,-1)(a2,1)(a2,-1). P is always the end_a side. With the
    uniform SWAP gluing every end of both hubs sees (1,0); weights equal to
    lcm(a1, a2) make the sum of the d_i a multiple of the section relation
    minus the exceptional ones, because the b_j / a_j cancel in pairs, so
    both hubs are chargeless and the verdict is yes. With ``sheared`` a
    third of the tori use SHEAR and a third FLIP, in seeded positions: P
    still sees (1,0) everywhere and stays chargeless, while Q sees (1,-1) on
    a sheared end, whose h term nothing else can cancel, so Q is charged.

    H1 of a hub is Z^6 (the surface) plus the quotient of Z<q1..q4, d1..dk,
    h> by five independent relations, so its rank is k + 6. Eliminating d1
    and h leaves a 4x3 matrix whose maximal minors have gcd
    a1 * a2 * gcd(a1, a2), which is the order of the torsion.
    """
    a1, a2 = rng.sample((2, 3, 4, 5, 6, 7), 2)
    fibers = [(a1, 1), (a1, -1), (a2, 1), (a2, -1)]
    rng.shuffle(fibers)
    exc = "".join(f"({a},{b})" for a, b in fibers)
    p, q = _labels("hub", 2, rng)
    lines = [
        f"block {hub} seifert genus=3 boundaries={k} exceptional={exc} b=0"
        for hub in (p, q)
    ]
    glues = [SWAP] * k
    if sheared:
        third = max(1, k // 3)
        glues = [SHEAR] * third + [FLIP] * third + [SWAP] * (k - 2 * third)
        rng.shuffle(glues)
    q_ends = list(range(k))
    rng.shuffle(q_ends)
    tids = _labels("t", k, rng)
    tori = [
        f"torus {tids[i]} {p}.{i} {q}.{q_ends[i]} glue={glues[i]}" for i in range(k)
    ]
    rng.shuffle(lines)
    rng.shuffle(tori)
    return ManifoldCase(
        "\n".join(lines + tori) + "\n",
        2,
        k,
        tuple(sorted((p, q))),
        (q,) if sheared else (),
        hubs=(p, q),
        h1_rank=k + 6,
        h1_torsion_order=a1 * a2 * gcd(a1, a2),
        h1_generators=6 + 4 + k + 1,
    )


@dataclass(frozen=True)
class DualCase:
    """Closed-form shape of a Sageev dual: counts by dimension."""

    vertices: int
    cubes_by_dim: dict[int, int]

    @property
    def cubes(self) -> int:
        return sum(self.cubes_by_dim.values())


def crossing_dual(k: int) -> DualCase:
    """k pairwise-crossing walls: the dual is the k-cube, 2^k vertices and
    C(k,d) 2^(k-d) faces of dimension d, 3^k - 2^k cubes in all."""
    return DualCase(2 ** k, {d: comb(k, d) * 2 ** (k - d) for d in range(1, k + 1)})


def torus_dual(window: int, families: int = 3) -> DualCase:
    """Lines of `families` distinct slopes, 2W+1 parallel lines each.

    Lines of different slopes always cross and parallel half-planes are
    nested, so a consistent orientation picks one threshold per family:
    (2W+2)^f vertices. The dual is the product of f paths with 2W+2
    vertices: (4W+3)^f - (2W+2)^f cubes.
    """
    n = 2 * window + 2
    return DualCase(
        n ** families,
        {d: comb(families, d) * (n - 1) ** d * n ** (families - d) for d in range(1, families + 1)},
    )


def star_dual(n: int) -> DualCase:
    """n walls that each cut one chamber off: no two cross and at most one
    can point at its lone chamber, so the dual is a star, a tree with n + 1
    vertices and n edges."""
    return DualCase(n + 1, {1: n})


def _wallspace_text(chambers: int, walls: list[frozenset], rng: random.Random) -> str:
    """Serialize walls given by one half each, relabelling everything."""
    perm = list(range(chambers))
    rng.shuffle(perm)
    ids = _labels("w", len(walls), rng)
    everything = frozenset(range(chambers))
    lines = []
    for wid, half in zip(ids, walls):
        u = sorted(perm[c] for c in half)
        v = sorted(perm[c] for c in everything - half)
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"wall {wid} U={','.join(map(str, u))} V={','.join(map(str, v))}")
    rng.shuffle(lines)
    return "\n".join([f"chambers {chambers}"] + lines) + "\n"


def crossing_wallspace(k: int, rng: random.Random) -> str:
    """Chambers are the 2^k bit strings; wall i splits them by bit i."""
    walls = [frozenset(c for c in range(2 ** k) if c >> i & 1) for i in range(k)]
    return _wallspace_text(2 ** k, walls, rng)


def star_wallspace(n: int, rng: random.Random) -> str:
    """Chambers 0..n; wall i cuts off chamber i."""
    return _wallspace_text(n + 1, [frozenset({i}) for i in range(n)], rng)


TORUS_SLOPES = ("1/0", "0/1", "1/1")


def torus_slopes(rng: random.Random) -> str:
    """The three slopes of the torus grid, in an order the seed chooses."""
    slopes = list(TORUS_SLOPES)
    rng.shuffle(slopes)
    return ",".join(slopes)
