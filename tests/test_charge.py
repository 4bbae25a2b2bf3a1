"""Chargeless verdicts, Dehn filling, Euler numbers, classification."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy

from m3cube import charge, homology
from m3cube.charge import (
    adjacent_fiber_slopes,
    classify_vcs,
    euler_number,
    fill_along_slopes,
    is_chargeless_block,
    is_chargeless_manifold,
    render_charge_report,
)
from m3cube.errors import InputError
from m3cube.decomposition import modify_jsj
from m3cube.fileformats import parse_manifold
from m3cube.manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    TorusEdge,
    TorusEnd,
    validate,
)

SWAP = GluingMatrix(0, 1, 1, 0)
SHEAR = GluingMatrix(1, -1, 0, 1)


def ring(middle_glue=SWAP):
    """H - S1 - B - S2 - H cycle with B the only interior block."""
    return ManifoldGraph(
        {
            "H": HyperbolicBlockData(2),
            "S1": SeifertBlockData(1, 2),
            "S2": SeifertBlockData(1, 2),
            "B": SeifertBlockData(0, 2),
        },
        (
            TorusEdge("T1", TorusEnd("H", 0), TorusEnd("S1", 0), GluingMatrix(1, 0, 0, 1)),
            TorusEdge("T2", TorusEnd("S1", 1), TorusEnd("B", 0), SWAP),
            TorusEdge("T3", TorusEnd("B", 1), TorusEnd("S2", 0), middle_glue),
            TorusEdge("T4", TorusEnd("S2", 1), TorusEnd("H", 1), GluingMatrix(1, 0, 0, 1)),
        ),
    )


def long_ring(n, hyperbolic, twisted):
    """Blocks B000.. in a closed ring, torus T<i> joining B<i>.1 to B<i+1>.0.

    Seifert blocks have genus 0 and two ends; blocks listed in
    ``hyperbolic`` are hyperbolic. Every torus is SWAP, so each interior
    block sees (1,0) on both ends and is chargeless, except that torus
    T<twisted> is SHEAR, which makes its two endpoints charged.
    """
    names = [f"B{i:03d}" for i in range(n)]
    blocks = {
        b: HyperbolicBlockData(2) if i in hyperbolic else SeifertBlockData(0, 2)
        for i, b in enumerate(names)
    }
    tori = tuple(
        TorusEdge(
            f"T{i:03d}",
            TorusEnd(names[i], 1),
            TorusEnd(names[(i + 1) % n], 0),
            SHEAR if i == twisted else SWAP,
        )
        for i in range(n)
    )
    return ManifoldGraph(blocks, tori)


def test_classify_work_counts(monkeypatch):
    # 200 blocks, 4 hyperbolic (one adjacent pair); the 6 Seifert neighbors
    # of the hyperbolic blocks are not interior
    hyperbolic = {10, 50, 51, 120}
    m = long_ring(200, hyperbolic, twisted=150)
    interior = 200 - len(hyperbolic) - 6
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(charge, "interior_blocks")
    counting(charge, "presentation_h1")
    counting(homology, "smith_normal_form")

    verdict = classify_vcs(m)
    assert len(verdict.block_verdicts) == interior
    assert verdict.failing_blocks == ("B150", "B151")
    assert calls["interior_blocks"] == 1
    # the verdict is closed-form: only a witness needs the presentation, for
    # its substitution check, and no block needs a Smith normal form
    assert calls["presentation_h1"] == interior - 2
    assert calls["smith_normal_form"] == 0

    # a closed interior block has no ends: chargeless vacuously, checked too
    calls.clear()
    closed = is_chargeless_manifold(ManifoldGraph({"M": SeifertBlockData(2, 0)}))
    assert [v.witness for v in closed] == [()]
    assert calls["presentation_h1"] == 1
    assert calls["smith_normal_form"] == 0


def test_adjacent_fibers_transported():
    ends = adjacent_fiber_slopes(ring(), "B")
    assert [str(e.slope) for e in ends] == ["(1,0)", "(1,0)"]
    ends2 = adjacent_fiber_slopes(ring(SHEAR), "B")
    assert [str(e.slope) for e in ends2] == ["(1,0)", "(1,1)"]


def test_adjacent_fibers_self_gluing_counts_twice():
    m = ManifoldGraph(
        {"B": SeifertBlockData(1, 2)},
        (TorusEdge("T", TorusEnd("B", 0), TorusEnd("B", 1), SWAP),),
    )
    ends = adjacent_fiber_slopes(m, "B")
    assert len(ends) == 2
    assert {e.side for e in ends} == {"a", "b"}


def test_chargeless_block_witness():
    v = is_chargeless_block(ring(), "B")
    assert v.chargeless
    assert v.witness == (1, 1)
    assert v.euler_diagnostic == Fraction(0)


def test_charged_block_obstruction():
    v = is_chargeless_block(ring(SHEAR), "B")
    assert not v.chargeless
    assert v.witness is None
    assert v.obstruction_index is not None
    end = v.ends[v.obstruction_index]
    assert end.torus_id in ("T2", "T3")


def test_chargeless_rejects_wrong_blocks():
    m = ring()
    with pytest.raises(InputError, match="block H is not Seifert fibered"):
        is_chargeless_block(m, "H")
    with pytest.raises(InputError, match="block S1 is not interior"):
        is_chargeless_block(m, "S1")
    with pytest.raises(InputError, match="unknown block nope"):
        is_chargeless_block(m, "nope")


def test_chargeless_manifold_collects_interior_verdicts():
    verdicts = is_chargeless_manifold(ring())
    assert [v.block_id for v in verdicts] == ["B"]
    report = render_charge_report(verdicts)
    assert "block B: chargeless, witness (1,1)" in report
    assert render_charge_report(()) == "no interior blocks; chargeless vacuously\n"


def test_fill_along_slopes():
    b = SeifertBlockData(0, 2)
    filled = fill_along_slopes(b, [Slope(1, 0), Slope(1, 0)])
    assert filled.num_boundary == 0
    assert filled.exceptional == ()
    assert euler_number(filled) == 0

    filled2 = fill_along_slopes(b, [Slope(2, 1), Slope(3, -1)])
    assert filled2.exceptional == ((2, 1), (3, -1))
    assert euler_number(filled2) == -(Fraction(1, 2) - Fraction(1, 3))

    with pytest.raises(InputError, match="at boundary 0 is the fiber"):
        fill_along_slopes(b, [Slope(0, 1), Slope(1, 0)])
    with pytest.raises(InputError, match="2 boundary tori but 1 filling slopes"):
        fill_along_slopes(b, [Slope(1, 0)])


def test_fill_keeps_integer_slopes():
    # (1, q) fillings shift the obstruction instead of adding a fiber
    b = SeifertBlockData(0, 1)
    filled = fill_along_slopes(b, [Slope(1, 3)])
    assert filled.num_boundary == 0
    assert euler_number(filled) == -3


def test_euler_number_golden():
    spherical = SeifertBlockData(
        0, 0, exceptional=((2, 1), (3, 1), (5, 1)), section_obstruction=-1
    )
    assert euler_number(spherical) == Fraction(-1, 30)
    assert euler_number(SeifertBlockData(1, 0)) == 0
    assert euler_number(SeifertBlockData(1, 0, section_obstruction=3)) == -3


GOOD = ("H3", "E3", "H2xR", "S2xR", "S3", "SFS-with-boundary")
BAD = ("Sol", "Nil", "SL2R")


@pytest.mark.parametrize("label", GOOD)
def test_classify_good_geometries(label):
    m = ManifoldGraph({"M": SeifertBlockData(1, 0)}, geometry_label=label)
    v = classify_vcs(m)
    assert v.vcs and v.reason == "geometric-good"
    assert v.geometry_label == label


@pytest.mark.parametrize("label", BAD)
def test_classify_bad_geometries(label):
    m = ManifoldGraph({"M": SeifertBlockData(1, 0)}, geometry_label=label)
    v = classify_vcs(m)
    assert not v.vcs and v.reason == "geometric-bad"


def test_classify_requires_label_without_tori():
    with pytest.raises(InputError, match="no JSJ tori and no geometry label"):
        classify_vcs(ManifoldGraph({"M": SeifertBlockData(1, 0)}))


def test_classify_nongeometric():
    yes = classify_vcs(ring())
    assert yes.vcs and yes.reason == "nongeometric-chargeless"
    assert yes.failing_blocks == ()
    no = classify_vcs(ring(SHEAR))
    assert not no.vcs and no.reason == "nongeometric-charged"
    assert no.failing_blocks == ("B",)


def test_classify_runs_thin_modification(catalog):
    m = parse_manifold((catalog / "mixed_two_hyp.m3").read_text())
    v = classify_vcs(m)
    assert v.vcs and v.reason == "nongeometric-chargeless"
    assert v.block_verdicts == ()


def test_catalog_round_verdicts(catalog):
    yes = classify_vcs(parse_manifold((catalog / "chargeless_mixed.m3").read_text()))
    assert yes.vcs and [v.witness for v in yes.block_verdicts] == [(1, 1)]
    no = classify_vcs(parse_manifold((catalog / "charged_mixed.m3").read_text()))
    assert not no.vcs and no.failing_blocks == ("B",)


def test_euler_diagnostic_matches_direct_filling():
    m = ring()
    v = is_chargeless_block(m, "B")
    ends = adjacent_fiber_slopes(m, "B")
    by_index = sorted(ends, key=lambda e: e.boundary_index)
    refilled = fill_along_slopes(
        m.blocks["B"], [e.slope for e in by_index]
    )
    assert euler_number(refilled) == v.euler_diagnostic


def _unimodular(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c in (1, -1):
            return GluingMatrix(a, b, c, d)


def _fiber_preserving(rng):
    # [[s, 0], [c, t]] sends the fiber (0,1) to the fiber: p = 0 on the far side
    return GluingMatrix(rng.choice((1, -1)), 0, rng.randint(-3, 3), rng.choice((1, -1)))


def _coprime_fiber(rng):
    a = rng.randint(2, 5)
    return a, rng.choice([b for b in range(-5, 6) if gcd(a, b) == 1])


def _my_slopes(tori):
    """Neighbor fiber (0,1) in C's basis per boundary index, by my own math.

    A glue [[a,b],[c,d]] maps end_a coordinates to end_b coordinates, so the
    end_b fiber seen from end_a is the inverse applied to (0,1), which at
    determinant e is e*(-b, a); the end_a fiber seen from end_b is (b, d).
    """
    slopes = {}
    for t in tori:
        g = t.glue
        e = g.a * g.d - g.b * g.c
        for here, p, q in ((t.end_a, -e * g.b, e * g.a), (t.end_b, g.b, g.d)):
            if here.block_id == "C":
                if p < 0 or (p == 0 and q < 0):
                    p, q = -p, -q
                slopes[here.boundary_index] = (p, q)
    return slopes


def _random_hub(rng, b=0):
    """Hub C with 1-7 ends; some ends glued to each other, the rest to N<i>.

    Generic gluings make C charged almost always, so most hubs use matched
    fibers (fiber-preserving shears) on all or some ends, or get exceptional
    fibers that cancel the relative Euler number of their slopes. ``b`` is
    C's section obstruction, which ``validate`` refuses on a bounded block.
    """
    k = rng.randint(1, 7)
    style = rng.choice(("generic", "matched", "mixed", "resonant", "resonant"))
    indices = list(range(k))
    rng.shuffle(indices)
    pairs = rng.randint(0, k // 2) if rng.random() < 0.4 else 0
    blocks = {}
    tori = []
    for i in range(k - pairs):
        if style == "matched" or (style == "mixed" and rng.random() < 0.5):
            glue = _fiber_preserving(rng)
        else:
            glue = _unimodular(rng)
        if i < pairs:
            ours, theirs = TorusEnd("C", indices[2 * i]), TorusEnd("C", indices[2 * i + 1])
        else:
            ours, theirs = TorusEnd("C", indices[pairs + i]), TorusEnd(f"N{i}", 0)
            blocks[f"N{i}"] = SeifertBlockData(0, 1)
        if rng.random() < 0.5:
            ours, theirs = theirs, ours
        tori.append(TorusEdge(f"T{i}", ours, theirs, glue))

    fibers = [_coprime_fiber(rng) for _ in range(rng.randint(0, 2))]
    slopes = _my_slopes(tori)
    if style == "resonant" and all(p for p, _ in slopes.values()):
        fibers += _cancelling(b, fibers, slopes.values())
    blocks["C"] = SeifertBlockData(rng.randint(0, 1), k, tuple(fibers), b)
    return ManifoldGraph(blocks, tuple(tori)), slopes


def _cancelling(b, fibers, slopes):
    """Exceptional fibers that bring b + sum(b_j/a_j) + sum(q/p) to 0."""
    total = b + sum(Fraction(bb, a) for a, bb in fibers) + sum(
        Fraction(q, p) for p, q in slopes
    )
    r, s = total.numerator, total.denominator
    if s > 1:
        return [(s, -r)]
    return [(2, 1), (2, -1 - 2 * r)] if r else []


def _check_with_sympy(v, block, slopes):
    """Expected values from sympy ranks of [Z | R], with Z and R built here
    over q_1..q_m, d_1..d_k, h (genus generators are in no relation and no
    class, so they are left out); R's section column carries -b at h."""
    k, fibers = len(slopes), block.exceptional
    assert {e.boundary_index: (e.slope.p, e.slope.q) for e in v.ends} == slopes

    size = len(fibers) + k + 1
    Z = sympy.zeros(size, k)
    for i, e in enumerate(v.ends):
        p, q = slopes[e.boundary_index]
        Z[len(fibers) + e.boundary_index, i], Z[size - 1, i] = p, q
    R = sympy.zeros(size, len(fibers) + 1)
    for j, (a, b) in enumerate(fibers):
        R[j, j], R[size - 1, j] = a, b
    for g in range(size - 1):
        R[g, len(fibers)] = 1
    R[size - 1, len(fibers)] = -block.section_obstruction
    M = Z.row_join(R)
    rank = M.rank()
    forced = [i for i in range(k) if M[:, [c for c in range(M.cols) if c != i]].rank() < rank]

    assert v.chargeless == (not forced)
    assert v.obstruction_index == (forced[0] if forced else None)
    # the rows must span the whole kernel: one row per dimension of it
    assert len(v.lattice.rows) == M.cols - rank
    for row in v.lattice.rows:
        assert M * sympy.Matrix(row) == sympy.zeros(size, 1)
    if v.chargeless:
        assert 0 not in v.witness
    if v.witness:
        w = sympy.Matrix(v.witness)
        # the one x with R*x = -Z*w must be integral
        x = (R.T * R).solve(-R.T * Z * w)
        assert R * x == -Z * w and all(c.is_integer for c in x)
    if all(p for p, _ in slopes.values()):
        relative = block.section_obstruction + sum(Fraction(b, a) for a, b in fibers) + sum(
            Fraction(q, p) for p, q in slopes.values()
        )
        assert v.euler_diagnostic == -relative
        filled = fill_along_slopes(block, [Slope(*slopes[i]) for i in range(k)])
        assert v.euler_diagnostic == euler_number(filled)
    else:
        assert v.euler_diagnostic is None


def test_hub_verdicts_agree_with_sympy_ranks():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(300):
        m, slopes = _random_hub(rng)
        v = is_chargeless_block(m, "C")
        _check_with_sympy(v, m.blocks["C"], slopes)
        fibers = m.blocks["C"].exceptional
        seen[v.chargeless, any(p == 0 for p, _ in slopes.values())] += 1
        seen["self-glued"] += any(t.end_a.block_id == t.end_b.block_id for t in m.jsj_tori)
        seen["exceptional"] += bool(fibers)
        seen[f"ends={len(slopes)}"] += 1
    assert min(seen[c, z] for c in (True, False) for z in (True, False)) >= 20
    assert min(seen["self-glued"], seen["exceptional"]) >= 50
    assert all(seen[f"ends={k}"] for k in range(1, 8))


def test_section_obstruction_agrees_with_sympy_ranks():
    # 200 blocks built without validate: closed blocks with e = 0 and e != 0,
    # and hubs whose section obstruction b is -1, 0 or 1 (validate refuses a
    # nonzero b on a bounded block; the closed form reads it all the same)
    rng = random.Random(30)
    seen = Counter()
    for i in range(200):
        if i % 2:
            m, slopes = _random_hub(rng, rng.choice((-1, 0, 1)))
        else:
            fibers = [_coprime_fiber(rng) for _ in range(rng.randint(0, 3))]
            b = rng.randint(-2, 2)
            if rng.random() < 0.5:
                fibers += _cancelling(b, fibers, ())
            block = SeifertBlockData(rng.randint(0, 1), 0, tuple(fibers), b)
            m, slopes = ManifoldGraph({"C": block}), {}
        block = m.blocks["C"]
        v = is_chargeless_block(m, "C")
        _check_with_sympy(v, block, slopes)
        if not slopes:
            seen["closed", euler_number(block) == 0] += 1
        elif block.section_obstruction and all(p for p, _ in slopes.values()):
            seen["b reads", v.chargeless] += 1
    assert min(seen["closed", True], seen["closed", False]) >= 30
    assert min(seen["b reads", True], seen["b reads", False]) >= 10
    # b = 1 against one neighbor fiber (1,-1): the relative Euler number is 0
    m = ManifoldGraph(
        {"C": SeifertBlockData(0, 1, (), 1), "N": SeifertBlockData(0, 1)},
        (TorusEdge("T", TorusEnd("C", 0), TorusEnd("N", 0), GluingMatrix(1, 1, 1, 0)),),
    )
    v = is_chargeless_block(m, "C")
    assert [str(e.slope) for e in v.ends] == ["(1,-1)"]
    assert v.chargeless and v.witness == (1,) and v.euler_diagnostic == 0


def test_block_with_an_unglued_index_is_rejected():
    # validate rejects such graphs; the charge test refuses them on its own
    m = ManifoldGraph(
        {"B": SeifertBlockData(0, 3), "N": SeifertBlockData(0, 2)},
        (
            TorusEdge("T1", TorusEnd("B", 0), TorusEnd("N", 0), SWAP),
            TorusEdge("T2", TorusEnd("B", 1), TorusEnd("N", 1), SWAP),
        ),
    )
    with pytest.raises(InputError, match="boundary index"):
        is_chargeless_block(m, "B")


def _random_graph(rng):
    """A connected valid graph of 2-9 blocks, about 40% hyperbolic."""
    n = rng.randint(2, 9)
    names = [f"B{i}" for i in range(n)]
    hyperbolic = [rng.random() < 0.4 for _ in range(n)]
    links = [(rng.randrange(v), v) for v in range(1, n)]
    links += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    boundary = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    used = Counter()

    def end(v):
        used[v] += 1
        return TorusEnd(names[v], used[v] - 1)

    glues = (SWAP, SHEAR, GluingMatrix(1, 0, 0, 1), GluingMatrix(0, -1, 1, 0))
    tori = tuple(
        TorusEdge(f"T{i}", end(u), end(v), rng.choice(glues + (_unimodular(rng),)))
        for i, (u, v) in enumerate(links)
    )
    ends = tuple(end(v) for v in boundary)
    blocks = {
        name: HyperbolicBlockData(used[v])
        if hyperbolic[v]
        else SeifertBlockData(
            rng.randint(0, 1), used[v], tuple(_coprime_fiber(rng) for _ in range(rng.randint(0, 1)))
        )
        for v, name in enumerate(names)
    }
    return ManifoldGraph(blocks, tori, ends)


def test_thin_block_modification_changes_no_verdict(catalog):
    # thin blocks always have a hyperbolic neighbor or a boundary torus, and
    # the modification leaves every Seifert block's ends alone
    graphs = [
        parse_manifold(path.read_text())
        for path in sorted(catalog.glob("*.m3"))
        if not path.name.startswith("bad_")
    ]
    rng = random.Random(515)
    graphs += [_random_graph(rng) for _ in range(400)]
    seen = Counter()
    for m in graphs:
        assert validate(m).ok
        verdicts = is_chargeless_manifold(m)
        assert verdicts == is_chargeless_manifold(modify_jsj(m))
        hyperbolic = {b for b, data in m.blocks.items() if isinstance(data, HyperbolicBlockData)}
        seen["pair"] += any({t.end_a.block_id, t.end_b.block_id} <= hyperbolic for t in m.jsj_tori)
        seen["collar"] += any(e.block_id in hyperbolic for e in m.boundary_tori)
        seen["interior"] += len(verdicts)
        seen["chargeless"] += sum(v.chargeless for v in verdicts)
    assert min(seen["pair"], seen["collar"], seen["chargeless"]) >= 50
    assert seen["interior"] >= 200
