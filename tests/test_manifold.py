"""Slope arithmetic, gluing matrices, and graph validation."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from m3cube.errors import InputError
from m3cube.manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    TorusEdge,
    TorusEnd,
    fiber_slope,
    slope_normalize,
    transport_slope,
    validate,
)


def gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def test_slope_normalize_golden():
    assert slope_normalize(2, 4) == Slope(1, 2)
    assert slope_normalize(-1, 2) == Slope(1, -2)
    assert slope_normalize(0, -3) == Slope(0, 1)
    assert slope_normalize(-6, -4) == Slope(3, 2)
    with pytest.raises(InputError, match=r"cannot normalize \(0, 0\)"):
        slope_normalize(0, 0)


def test_slope_constructor_rejects_non_normal():
    with pytest.raises(InputError, match=r"\(2, 4\) is not primitive"):
        Slope(2, 4)
    with pytest.raises(InputError, match=r"\(-1, 2\) is not in normal form"):
        Slope(-1, 2)
    with pytest.raises(InputError, match=r"\(0, -1\) is not in normal form"):
        Slope(0, -1)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_slope_normalize_properties(p, q):
    if p == 0 and q == 0:
        return
    s = slope_normalize(p, q)
    assert gcd(s.p, s.q) == 1
    assert s.p > 0 or (s.p, s.q) == (0, 1)
    # parallel to the input
    assert p * s.q == q * s.p


# Every gluing with entries in [-3, 3] and determinant +-1 (232 of the 7^4),
# enumerated up front: a filter on random draws rejects about 90% of them
# and trips hypothesis' filter_too_much health check now and then.
UNIMODULAR = tuple(
    g
    for g in (GluingMatrix(*e) for e in itertools.product(range(-3, 4), repeat=4))
    if g.det in (1, -1)
)
unimodular = st.sampled_from(UNIMODULAR)


@given(unimodular)
def test_gluing_inverse_round_trip(g):
    inv = g.inverse()
    assert inv.det == g.det
    for p, q in [(1, 0), (0, 1), (3, -5)]:
        assert inv.apply(*g.apply(p, q)) == (p, q)


@given(unimodular, st.integers(-9, 9), st.integers(-9, 9))
def test_transport_preserves_primitivity(g, p, q):
    if p == 0 and q == 0:
        return
    s = slope_normalize(p, q)
    t = transport_slope(s, g)
    assert gcd(t.p, t.q) == 1
    assert transport_slope(t, g.inverse()) == s


def test_fiber_slope_and_range():
    b = SeifertBlockData(genus=0, num_boundary=2)
    assert fiber_slope(b, 0) == Slope(0, 1)
    assert fiber_slope(b, 1) == Slope(0, 1)
    with pytest.raises(InputError, match=r"boundary index 2 out of range \(block has 2\)"):
        fiber_slope(b, 2)


def two_block_graph(glue=GluingMatrix(0, 1, 1, 0)):
    return ManifoldGraph(
        {
            "A": SeifertBlockData(1, 1),
            "B": SeifertBlockData(1, 1),
        },
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("B", 0), glue),),
    )


def test_validate_clean_graph():
    assert validate(two_block_graph()).ok


def test_validate_names_shared_end():
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 2), "B": SeifertBlockData(1, 2)},
        (
            TorusEdge("T1", TorusEnd("A", 0), TorusEnd("B", 0), GluingMatrix(0, 1, 1, 0)),
            TorusEdge("T2", TorusEnd("A", 0), TorusEnd("B", 1), GluingMatrix(0, 1, 1, 0)),
        ),
        (TorusEnd("A", 1),),
    )
    report = validate(m)
    assert any("A.0" in p and "already used" in p for p in report.problems)


def test_validate_reports_unused_ends_once_per_block():
    # A uses ends 0, 2 and an out-of-range 9; B uses none of its three
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 5), "B": SeifertBlockData(1, 3), "C": SeifertBlockData(1, 1)},
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("C", 0), GluingMatrix(0, 1, 1, 0)),),
        (TorusEnd("A", 2), TorusEnd("A", 9)),
    )
    unused = [p for p in validate(m).problems if "not glued" in p]
    assert unused == [
        "end A.1: not glued and not declared as boundary (and 2 more on block A)",
        "end B.0: not glued and not declared as boundary (and 2 more on block B)",
    ]


def test_validate_names_bad_determinant():
    report = validate(two_block_graph(GluingMatrix(1, 0, 0, 2)))
    assert any("T" in p and "determinant 2" in p for p in report.problems)


def test_validate_geometry_with_tori():
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 1), "B": SeifertBlockData(1, 1)},
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("B", 0), GluingMatrix(0, 1, 1, 0)),),
        geometry_label="E3",
    )
    problems = validate(m).problems
    assert any("geometry" in p for p in problems)


def test_validate_disconnected():
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 0), "B": SeifertBlockData(1, 0)},
    )
    assert any("not connected" in p for p in validate(m).problems)


def test_ends_of_sorted_and_self_gluing_twice():
    g = GluingMatrix(0, 1, 1, 0)
    m = ManifoldGraph(
        {"A": SeifertBlockData(1, 2)},
        (TorusEdge("T", TorusEnd("A", 0), TorusEnd("A", 1), g),),
    )
    ends = m.ends_of("A")
    assert [(t.torus_id, side) for t, side in ends] == [("T", "a"), ("T", "b")]
    assert m.neighbors("A") == ["A"]
    assert validate(m).ok


def test_duplicate_torus_id_first_wins():
    first = TorusEdge("T", TorusEnd("A", 0), TorusEnd("B", 0), GluingMatrix(0, 1, 1, 0))
    second = TorusEdge("T", TorusEnd("A", 1), TorusEnd("B", 1), GluingMatrix(1, 0, 0, 1))
    m = ManifoldGraph(
        {"A": SeifertBlockData(0, 2), "B": SeifertBlockData(0, 2)}, (first, second)
    )
    assert m.torus("T") is first
    assert m.ends_of("A") == [(first, "a"), (second, "a")]
    assert m.ends_of("B") == [(first, "b"), (second, "b")]
    assert m.neighbors("B") == ["A"]
    assert any("duplicate torus id" in p for p in validate(m).problems)


def test_problems_name_their_record_and_field():
    m = ManifoldGraph(
        {
            "A": SeifertBlockData(1, 2),
            "H": HyperbolicBlockData(1),
        },
        (
            TorusEdge("T", TorusEnd("A", 0), TorusEnd("Z", 0), GluingMatrix(1, 0, 0, 2)),
            TorusEdge("U", TorusEnd("A", 1), TorusEnd("H", 0), GluingMatrix(0, 1, 1, 0)),
        ),
        (TorusEnd("A", 1),),
        geometry_label="Spherical",
    )
    report = validate(m)
    assert [(p.where, str(p)) for p in report.violations] == [
        (("torus", 0, "b"), "torus T: unknown block 'Z'"),
        (("torus", 0, "glue"), "torus T: glue determinant 2, need +1 or -1"),
        (("boundary", 0, "end"), "boundary A.1: end A.1 already used"),
        (("geometry", "label"), "unknown geometry label 'Spherical'"),
        (("geometry",), "geometry label given although JSJ tori are present"),
        (("geometry",), "geometry label requires a single block"),
    ]
    assert report.problems == tuple(str(p) for p in report.violations)
