"""Chargeless verdicts, Dehn filling, Euler numbers, classification."""

from collections import Counter
from fractions import Fraction

import pytest

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
from m3cube.errors import (
    FiberFillingError,
    InputError,
    MissingGeometryLabelError,
    NotInteriorError,
    NotSeifertError,
)
from m3cube.fileformats import parse_manifold
from m3cube.manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    TorusEdge,
    TorusEnd,
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
    # 200 blocks, 4 hyperbolic (one adjacent pair, which gets a thin block);
    # the 6 Seifert neighbors of the hyperbolic blocks are not interior
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
    assert calls["presentation_h1"] == interior
    # the kernel lattice's one SNF per block, charged or not: witnesses are
    # checked by multiplication, with no second solve
    assert calls["smith_normal_form"] == interior

    # a closed interior block has no ends, so no lattice and no SNF at all
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
    with pytest.raises(NotSeifertError):
        is_chargeless_block(m, "H")
    with pytest.raises(NotInteriorError):
        is_chargeless_block(m, "S1")
    with pytest.raises(InputError):
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

    with pytest.raises(FiberFillingError):
        fill_along_slopes(b, [Slope(0, 1), Slope(1, 0)])
    with pytest.raises(InputError):
        fill_along_slopes(b, [Slope(1, 0)])  # wrong count


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
    with pytest.raises(MissingGeometryLabelError):
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
