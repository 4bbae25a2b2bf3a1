"""Text formats: parsing, serialization, and error positions."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3cube.errors import ParseError
from m3cube.fileformats import (
    parse_complex,
    parse_manifold,
    parse_wallspace,
    serialize_complex,
    serialize_wallspace,
)
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
from m3cube.cubecomplex import Cube, CubeComplex, validate_complex
from m3cube.wallspace import (
    Wall,
    Wallspace,
    dual_cube_complex,
    torus_line_wallspace,
    validate_wallspace,
)

MIXED = """\
# two seifert pieces around a hyperbolic piece
block A seifert genus=0 boundaries=1 exceptional=(2,1)(3,1) b=0
block H hyperbolic boundaries=2
block B seifert genus=1 boundaries=1 b=0
torus T1 A.0 H.0 glue=0,1,1,0
torus T2 H.1 B.0 glue=1,0,0,1
"""


def err(fn, text):
    with pytest.raises(ParseError) as e:
        fn(text)
    return e.value


def test_parse_manifold_round_trip():
    m = parse_manifold(MIXED)
    assert set(m.blocks) == {"A", "H", "B"}
    assert m.blocks["A"].exceptional == ((2, 1), (3, 1))
    assert m.blocks["H"] == HyperbolicBlockData(2)


def test_manifold_comments_and_blanks_ignored():
    text = "\n\n# hello\nblock M seifert genus=1 boundaries=0 b=0  # tail\n"
    m = parse_manifold(text)
    assert m.blocks["M"].genus == 1


@pytest.mark.parametrize(
    "ch", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", ids=lambda ch: f"U+{ord(ch):04X}"
)
def test_only_newlines_end_a_line(ch):
    # str.splitlines() also breaks at these; a text-mode read does not
    text = f"block M seifert genus=1 boundaries=0 b=0 # note{ch} more\ngeometry E3\n"
    assert parse_manifold(text).geometry_label == "E3"
    e = err(parse_manifold, f"# a{ch}b\nblock M seifert genus=1 boundaries=0 b=0\nblok\n")
    assert (str(e), e.line, e.column) == ("line 3, column 1: unknown record 'blok'", 3, 1)
    # inside a record it separates tokens, as a space does, on the same line
    e = err(parse_manifold, f"block M seifert{ch}genus=x boundaries=0\n")
    assert (e.line, e.column) == (1, 23)


MANIFOLD_ERRORS = [
    ("blok X\n", "unknown record", 1, 1),
    ("block A seifert genus=0 boundaries=1 b=0\nblock A seifert genus=0 boundaries=1 b=0\n", "redeclared", 2, 7),
    ("block A shiny\n", "unknown block kind", 1, 9),
    ("block A seifert genus=0 b=0\n", "needs genus= and boundaries=", 1, None),
    ("block A seifert genus=x boundaries=1 b=0\n", "expected an integer", 1, 23),
    ("block A seifert genus=0 boundaries=2 exceptional=(1,1) b=0\n", "needs a >= 2", 1, None),
    # a hyperbolic block is its cusp count: no field but boundaries=
    ("block A hyperbolic boundaries=1 frame0=(1,0)|(0,1)\n", "unknown hyperbolic field", 1, 33),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A.0 A.1 glue=1,1,1,1\n", "determinant", 2, 17),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A.0 B.0 glue=0,1,1,0\n", "unknown block 'B'", 2, 13),
    ("block A seifert genus=0 boundaries=1 b=0\ntorus T A.0 A.3 glue=0,1,1,0\n", "out of range (block A has 1)", 2, 13),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A.0 A.0 glue=0,1,1,0\n", "already used", 2, 13),
    ("block A seifert genus=0 boundaries=1 b=0\ntorus T A.0 glue=0,1,1,0\n", "torus needs", 2, 1),
    ("block A seifert genus=0 boundaries=0 b=0\ngeometry Spherical\n", "unknown geometry label", 2, 10),
    ("boundary A.0 A.1\n", "boundary needs one", 1, 1),
    ("block A\n", "block needs an id and a kind", 1, 1),
    ("block H hyperbolic\n", "hyperbolic block needs boundaries=", 1, 1),
    ("block A seifert genus=0 boundaries=0 exceptional=(2,1)(3 b=0\n", "expected (p,q) pairs, got '(3'", 1, 55),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A B.0 glue=0,1,1,0\n", "expected <block>.<index>, got 'A'", 2, 9),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A.0 A.1 0,1,1,0\n", "expected glue=", 2, 17),
    ("block A seifert genus=0 boundaries=2 b=0\ntorus T A.0 A.1 glue=0,1,1\n", "glue needs four entries", 2, 17),
    ("block A seifert genus=0 boundaries=0 b=0\ngeometry\n", "geometry needs one label", 2, 1),
    ("block A seifert genus=0 boundaries=0 b=0\ngeometry S2xR\ngeometry S2xR\n", "geometry redeclared", 3, 10),
    # `thin` is not a seifert field
    ("block A seifert genus=1 boundaries=2 b=0 thin\nboundary A.0\nboundary A.1\n", "unknown seifert field 'thin'", 1, 42),
    # a syntax error anywhere beats a rule violation on an earlier line
    ("block A seifert genus=1 boundaries=2 b=0\ntorus T A.0 A.0 glue=1,0,0,2\nblok\n", "unknown record", 3, 1),
    # the earliest record wins, although validate lists tori first
    ("block A seifert genus=1 boundaries=2 b=0\nboundary Z.0\ntorus T A.0 A.1 glue=1,0,0,2\n", "unknown block 'Z'", 2, 10),
    # integers too long for int() to convert by default (Python >= 3.10.7)
    pytest.param(
        f"block A seifert genus=0 boundaries=0 exceptional=({'9' * 4400},1) b=0\n",
        "expected an integer", 1, 50, id="long-integer-in-pair",
    ),
]


@pytest.mark.parametrize("text,fragment,line,column", MANIFOLD_ERRORS)
def test_manifold_error_positions(text, fragment, line, column):
    e = err(parse_manifold, text)
    assert fragment in str(e)
    assert e.line == line
    if column is not None:
        assert e.column == column


def test_manifold_net_validation_reported_at_end():
    # structurally parseable but invalid as a graph: unglued end
    e = err(parse_manifold, "block A seifert genus=0 boundaries=1 b=0\n")
    assert "not glued" in str(e)
    assert e.line == 1


def end(name):
    block, _, index = name.partition(".")
    return TorusEnd(block, int(index))


def torus(tid, a, b, glue=(0, 1, 1, 0)):
    return TorusEdge(tid, end(a), end(b), GluingMatrix(*glue))


SFS = SeifertBlockData(1, 1)
B_AND_T = "block B seifert genus=1 boundaries=1 b=0\ntorus T A.0 B.0 glue=0,1,1,0\n"

# One case per rule of manifold.validate: the .m3 text breaks only that
# rule, the graph is the same input built directly, and (line, column) is
# where the parser must point. Whole-graph rules point at the last line.
RULE_CASES = [
    (
        "  block A seifert genus=-1 boundaries=1 b=0\n" + B_AND_T,
        ManifoldGraph({"A": SeifertBlockData(-1, 1), "B": SFS}, (torus("T", "A.0", "B.0"),)),
        "negative genus -1", 1, 3,
    ),
    (
        "block A seifert genus=1 boundaries=-1 b=0\ngeometry S3\n",
        ManifoldGraph({"A": SeifertBlockData(1, -1)}, geometry_label="S3"),
        "negative boundary count", 1, 1,
    ),
    (
        "block A seifert genus=0 boundaries=1 exceptional=(2,1)(0,1) b=0\n" + B_AND_T,
        ManifoldGraph(
            {"A": SeifertBlockData(0, 1, ((2, 1), (0, 1))), "B": SFS},
            (torus("T", "A.0", "B.0"),),
        ),
        "exceptional fiber (0,1) needs a >= 2", 1, 1,
    ),
    (
        B_AND_T + "  block A seifert genus=0 boundaries=1 b=5\n",
        ManifoldGraph(
            {"A": SeifertBlockData(0, 1, section_obstruction=5), "B": SFS},
            (torus("T", "A.0", "B.0"),),
        ),
        "section obstruction b=5 needs a closed block", 3, 3,
    ),
    (
        "block H hyperbolic boundaries=0\ngeometry H3\n",
        ManifoldGraph({"H": HyperbolicBlockData(0)}, geometry_label="H3"),
        "needs at least one torus end", 1, 1,
    ),
    (
        "block A seifert genus=1 boundaries=2 b=0\nblock B seifert genus=1 boundaries=2 b=0\n"
        "torus T A.0 B.0 glue=0,1,1,0\ntorus T A.1 B.1 glue=0,1,1,0\n",
        ManifoldGraph(
            {"A": SeifertBlockData(1, 2), "B": SeifertBlockData(1, 2)},
            (torus("T", "A.0", "B.0"), torus("T", "A.1", "B.1")),
        ),
        "duplicate torus id", 4, 7,
    ),
    (
        "torus T A.0 C.0 glue=0,1,1,0\nblock A seifert genus=1 boundaries=1 b=0\n",
        ManifoldGraph({"A": SFS}, (torus("T", "A.0", "C.0"),)),
        "unknown block 'C'", 1, 13,
    ),
    (
        "block A seifert genus=1 boundaries=1 b=0\nboundary A.3\nboundary A.0\n",
        ManifoldGraph({"A": SFS}, boundary_tori=(end("A.3"), end("A.0"))),
        "boundary index 3 out of range (block A has 1)", 2, 10,
    ),
    (
        "block A seifert genus=1 boundaries=2 b=0\nboundary  A.1\ntorus T A.0 A.1 glue=0,1,1,0\n",
        ManifoldGraph(
            {"A": SeifertBlockData(1, 2)}, (torus("T", "A.0", "A.1"),), (end("A.1"),)
        ),
        "end A.1 already used", 2, 11,
    ),
    (
        "block A seifert genus=1 boundaries=1 b=0\nblock B seifert genus=1 boundaries=1 b=0\n"
        "torus T A.0 B.0 glue=1,0,0,2\n# end\n",
        ManifoldGraph({"A": SFS, "B": SFS}, (torus("T", "A.0", "B.0", (1, 0, 0, 2)),)),
        "glue determinant 2, need +1 or -1", 3, 17,
    ),
    (
        "block A seifert genus=1 boundaries=2 b=0\nboundary A.0\n# tail\n",
        ManifoldGraph({"A": SeifertBlockData(1, 2)}, boundary_tori=(end("A.0"),)),
        "end A.1: not glued and not declared as boundary", 2, 1,
    ),
    (
        "geometry  Spherical\nblock A seifert genus=1 boundaries=0 b=0\n",
        ManifoldGraph({"A": SeifertBlockData(1, 0)}, geometry_label="Spherical"),
        "unknown geometry label 'Spherical'", 1, 11,
    ),
    (
        "geometry E3\nblock A seifert genus=0 boundaries=2 b=0\ntorus T A.0 A.1 glue=0,1,1,0\n",
        ManifoldGraph({"A": SeifertBlockData(0, 2)}, (torus("T", "A.0", "A.1"),), geometry_label="E3"),
        "JSJ tori are present", 1, 1,
    ),
    (
        "geometry E3\n",
        ManifoldGraph({}, geometry_label="E3"),
        "manifold needs at least one block", 1, 1,
    ),
    (
        "block A seifert genus=1 boundaries=0 b=0\nblock B seifert genus=1 boundaries=0 b=0\n"
        "block C seifert genus=1 boundaries=0 b=0\n",
        ManifoldGraph({b: SeifertBlockData(1, 0) for b in "ABC"}),
        "graph not connected: unreachable blocks B, C", 3, 1,
    ),
]


@pytest.mark.parametrize(
    "text,graph,fragment,line,column", RULE_CASES, ids=[c[2] for c in RULE_CASES]
)
def test_rule_violation_positions(text, graph, fragment, line, column):
    e = err(parse_manifold, text)
    assert fragment in str(e)
    assert (e.line, e.column) == (line, column)
    (problem,) = validate(graph).problems
    assert fragment in problem


# Token soup: every parser must reject malformed text with ParseError and
# nothing else. Records are drawn near-valid so that many files get past
# the syntax checks into validation. Counts stay small: this checks which
# exceptions escape, not how long a huge declared size takes.
JUNK = st.text(alphabet="AB01.,()|=-#x", min_size=1, max_size=5)


def _tok(words):
    """A token from words (letters, a list or a strategy); junk one time in 50."""
    if isinstance(words, (str, list)):
        words = st.sampled_from(words)
    return st.integers(0, 49).flatmap(lambda r: JUNK if r == 0 else words)


def _line(*parts):
    """A record line: each part is a token or a list of tokens."""

    def flat(ps):
        return " ".join(t for p in ps for t in ([p] if isinstance(p, str) else p))

    return st.tuples(*parts).map(flat)


def _soup(*records):
    """Up to eight lines of near-valid records, a junk line one time in fifty."""
    lines = _tok(st.one_of(*records))
    return st.lists(lines, max_size=8).map("\n".join)


BIG = "9" * 4400  # longer than int() converts by default on Python >= 3.10.7
ENDS = ["A.0", "A.1", "B.0", "B.1", "C.0", "A.5", "A.", "x.0"]
SEIFERT = [
    "b=0", "b=2", "thin", "exceptional=(2,1)", "exceptional=(2,1)(3,-1)",
    "exceptional=(0,1)", "exceptional=(1,1)(", f"exceptional=({BIG},1)",
]
BOUNDARIES = ["boundaries=0", "boundaries=1", "boundaries=2", "boundaries=-1"]
GLUES = ["glue=0,1,1,0", "glue=1,0,0,1", "glue=1,-1,0,1", "glue=1,0,0,2", "glue=1,2,3"]


def _half(side):
    return _tok(st.lists(st.integers(-1, 4), max_size=4).map(
        lambda xs: side + "=" + ",".join(map(str, xs))
    ))


FUZZ = {
    "m3": (parse_manifold, _soup(
        _line(st.just("block"), _tok("ABC"), st.just("seifert"),
              _tok(["genus=0", "genus=1", "genus=-1", f"genus={BIG}"]), _tok(BOUNDARIES),
              st.lists(_tok(SEIFERT), max_size=2)),
        _line(st.just("block"), _tok("ABC"), st.just("hyperbolic"), _tok(BOUNDARIES),
              st.lists(_tok(["frame0=(1,0)|(0,1)"]), max_size=1)),
        _line(st.just("torus"), _tok("TUV"), _tok(ENDS), _tok(ENDS), _tok(GLUES)),
        _line(st.just("boundary"), _tok(ENDS)),
        _tok(st.sampled_from(["geometry E3", "geometry Spherical"])),
    )),
    "ws": (parse_wallspace, _soup(
        _line(st.just("chambers"), _tok("01234")),
        _line(st.just("wall"), _tok("wxy"), _half("U"), _half("V")),
    )),
    "cc": (parse_complex, _soup(
        _line(st.just("vertex"), _tok("abcd")),
        _line(st.just("cube"), _tok(["0", "1", "2", "3", "20000", BIG]),
              st.lists(_tok("abcde"), max_size=8)),
    )),
}


@pytest.mark.parametrize("kind", sorted(FUZZ))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_token_soup_raises_only_parse_error(kind, data):
    parse, soup = FUZZ[kind]
    text = data.draw(soup)
    try:
        parse(text)
    except ParseError:
        pass


def test_parse_wallspace_round_trip():
    text = "chambers 3\nwall w U=0 V=1,2\nwall x U=0,1 V=2\n"
    ws = parse_wallspace(text)
    assert ws.chambers == (0, 1, 2)
    assert serialize_wallspace(ws) == text


WALLSPACE_ERRORS = [
    ("wall w U=0 V=1\n", "missing chambers record", 1),
    ("chambers 2\nchambers 2\n", "chambers redeclared", 2),
    ("chambers 0\n", "at least one chamber", 1),
    ("chambers 2\nwall w U=0 V=5\n", "out of range", 2),
    ("chambers 3\nwall w U=0 V=1,2\nwall w U=1 V=0,2\n", "redeclared", 3),
    ("chambers 2\nwall w V=1 U=0\n", "expected U=", 2),
    ("chambers 2\nwall w U=0,1 V=1\n", "contains", 2),
    ("chambers 4\nwall w U=0 V=1\n", "cover", 2),
    ("chambers two\n", "expected an integer", 1),
    ("chambers\n", "chambers needs a count", 1),
    ("chambers 2\nroom 1\n", "unknown record 'room'", 2),
    ("chambers 2\nwall w U=0\n", "wall needs", 2),
    ("chambers 2\nwall w U=0 W=1\n", "expected V=", 2),
    # reported at the last line that has a token, not the last line
    ("wall w U=0 V=1\n\n# end\n", "missing chambers record", 1),
]


@pytest.mark.parametrize("text,fragment,line", WALLSPACE_ERRORS)
def test_wallspace_error_positions(text, fragment, line):
    e = err(parse_wallspace, text)
    assert fragment in str(e)
    assert e.line == line


def test_wallspace_records_in_any_order():
    walls = "wall w U=0 V=1,2\nwall x U=0,1 V=2\n"
    assert parse_wallspace(walls + "chambers 3\n") == parse_wallspace("chambers 3\n" + walls)


def halves(u, v):
    return frozenset(u), frozenset(v)


# One case per rule of validate_wallspace that a file can break (chamber
# ids are 0..n-1, so never repeated): the .ws text breaks only that rule,
# the wallspace is the same input built directly, and the parser reports
# the validator's message at the record or field at fault.
WS_RULE_CASES = [
    ("chambers 0\n", Wallspace((), ()), "need at least one chamber", 1, 10),
    (
        "chambers 3\nwall w U=0 V=1,2\nwall  w U=1 V=0,2\n",
        Wallspace(
            (0, 1, 2), (Wall("w", *halves({0}, {1, 2})), Wall("w", *halves({1}, {0, 2})))
        ),
        "wall 'w' redeclared", 3, 7,
    ),
    (
        "chambers 3\nwall w U=0 V=1,2\nwall x U=1,2 V=0\n",
        Wallspace(
            (0, 1, 2), (Wall("w", *halves({0}, {1, 2})), Wall("x", *halves({1, 2}, {0})))
        ),
        "same halves as wall w", 3, 1,
    ),
    (
        "chambers 2\nwall w U=0,7 V=1\n",
        Wallspace((0, 1), (Wall("w", *halves({0, 7}, {1})),)),
        "chamber 7 out of range", 2, 8,
    ),
    (
        "chambers 2\nwall w U=0 V=1,5,6\n",
        Wallspace((0, 1), (Wall("w", *halves({0}, {1, 5, 6})),)),
        "chamber 5, 6 out of range", 2, 12,
    ),
    (
        "chambers 4\nwall a U=0,1 V=2,3\nwall b U=0 V=1,2\nwall c U=0,2 V=1,3\n",
        Wallspace(
            (0, 1, 2, 3),
            (
                Wall("a", *halves({0, 1}, {2, 3})),
                Wall("b", *halves({0}, {1, 2})),
                Wall("c", *halves({0, 2}, {1, 3})),
            ),
        ),
        "halves do not cover the chambers", 3, 1,
    ),
    (
        "chambers 2\nwall w U= V=0,1\n",
        Wallspace((0, 1), (Wall("w", *halves((), {0, 1})),)),
        "empty half", 2, 8,
    ),
    (
        "wall w U=0 V=0,1\n  chambers 2\n",
        Wallspace((0, 1), (Wall("w", *halves({0}, {0, 1})),)),
        "one half contains the other", 1, 1,
    ),
]


@pytest.mark.parametrize(
    "text,ws,message,line,column", WS_RULE_CASES, ids=[c[2] for c in WS_RULE_CASES]
)
def test_wallspace_rule_violation_positions(text, ws, message, line, column):
    e = err(parse_wallspace, text)
    assert str(e) == f"line {line}, column {column}: {message}"
    assert [p.message for p in validate_wallspace(ws).violations] == [message]


def test_torus_wallspace_survives_round_trip():
    ws = torus_line_wallspace((Slope(1, 0), Slope(1, 1)), 1)
    again = parse_wallspace(serialize_wallspace(ws))
    assert again == ws


def test_serialize_complex_orders_vertices_by_str():
    # the dual of 4 crossing walls has int vertices 0..15, so "10" < "2"
    lines = ["chambers 16"] + [
        f"wall w{i} U={','.join(str(x) for x in range(16) if x >> i & 1)}"
        f" V={','.join(str(x) for x in range(16) if not x >> i & 1)}"
        for i in range(4)
    ]
    c = dual_cube_complex(parse_wallspace("\n".join(lines) + "\n")).complex
    assert sorted(c.vertices) == list(range(16))
    expected = [f"vertex {v}" for v in sorted(c.vertices, key=str)] + [
        f"cube {k.dim} " + " ".join(map(str, k.corners))
        for k in sorted(c.cubes, key=lambda k: (k.dim, tuple(map(str, k.corners))))
    ]
    text = serialize_complex(c)
    assert text == "\n".join(expected) + "\n"
    assert text.index("vertex 10\n") < text.index("vertex 2\n")
    assert serialize_complex(parse_complex(text)) == text


def test_parse_complex_round_trip():
    text = "vertex a\nvertex b\nvertex c\nvertex d\ncube 2 a b c d\n"
    c = parse_complex(text)
    assert len(c.vertices) == 4
    assert serialize_complex(c) == text


def reference_cc(c):
    """The .cc writer's rule spelled out: vertices in str order, then cubes
    sorted by dimension and by the list of their corners' positions in it."""
    order = sorted(c.vertices, key=str)
    rank = {v: r for r, v in enumerate(order)}
    cubes = sorted(c.cubes, key=lambda k: (k.dim, [rank[v] for v in k.corners]))
    lines = [f"vertex {v}" for v in order]
    lines += [f"cube {k.dim} " + " ".join(str(v) for v in k.corners) for k in cubes]
    return "\n".join(lines) + "\n"


def random_cubes(vertices, rng):
    """Cubes of dimension 1-3 whose corners repeat but whose edges do not
    degenerate, some records listed twice, in random order."""
    cubes = []
    for _ in range(rng.randint(1, 12)):
        d = rng.randint(1, 3)
        corners = []
        for m in range(2 ** d):
            below = {corners[m ^ 1 << j] for j in range(d) if m >> j & 1}
            corners.append(rng.choice([v for v in vertices if v not in below]))
        cubes.append(Cube(d, tuple(corners)))
    cubes += [rng.choice(cubes) for _ in range(rng.randint(0, 3))]
    rng.shuffle(cubes)
    return CubeComplex(tuple(rng.sample(vertices, len(vertices))), tuple(cubes))


def writer_inputs():
    rng = random.Random(26)
    inputs = [random_cubes(list(range(14)), rng) for _ in range(40)]  # "10" < "2"
    names = ["a", "b", "a10", "a2", "Z", "z0", "_", "é", "10", "9"]
    inputs += [random_cubes(rng.sample(names, rng.randint(4, 10)), rng) for _ in range(40)]
    inputs.append(CubeComplex(("b", "a"), (Cube(2, ("a", "b", "b", "a")),) * 2))
    for k in range(2, 7):
        walls = tuple(
            Wall(
                f"w{i}",
                frozenset(c for c in range(2 ** k) if c >> i & 1),
                frozenset(c for c in range(2 ** k) if not c >> i & 1),
            )
            for i in range(k)
        )
        inputs.append(dual_cube_complex(Wallspace(tuple(range(2 ** k)), walls)).complex)
    for third in (Slope(1, 1), Slope(1, 2)):
        slopes = (Slope(1, 0), Slope(0, 1), third)
        for w in range(3):
            inputs.append(dual_cube_complex(torus_line_wallspace(slopes, w)).complex)
    inputs.append(CubeComplex(()))  # no records at all
    inputs.append(CubeComplex(("b", "10", "9", "a")))  # vertices only
    # 1- and 3-cubes with no 2-cube listed between them
    cube3 = ("10", "a", "2", "b", "c", "11", "d", "0")
    edges = [Cube(1, pair) for pair in (("e", "10"), ("0", "e"), ("b", "a"), ("2", "f"))]
    inputs.append(CubeComplex(cube3 + ("e", "f"), (Cube(3, cube3), *edges, Cube(3, cube3[::-1]))))
    return inputs


def test_serialize_complex_matches_reference_writer():
    inputs = writer_inputs()
    assert any(len(set(k.corners)) < len(k.corners) for c in inputs for k in c.cubes)
    assert any(len(set(c.cubes)) < len(c.cubes) for c in inputs)
    for c in inputs:
        assert validate_complex(c).ok
        assert serialize_complex(c) == reference_cc(c)


COMPLEX_ERRORS = [
    ("vertex a\nvertex a\n", "redeclared", 2),
    ("vertex a\ncube 0 a\n", "dimension must be >= 1", 2),
    ("vertex a\nvertex b\ncube 2 a b\n", "needs 4 corners", 3),
    ("vertex a\ncube 1 a z\n", "unknown vertex", 2),
    ("vertex a\ncube 1 a a\n", "degenerate edge", 2),
    ("vertex a\ncube 20000 a\n", "20000-cube needs 2^20000 corners", 2),
    ("simplex 1 a b\n", "unknown record", 1),
    ("vertex a b\n", "vertex needs one id", 1),
    ("vertex a\ncube\n", "cube needs a dimension", 2),
    # two degenerate edges, x-x and y-y: a cube's edges are scanned base
    # corner first, so x-x (base 0) is reported before y-y (base 4)
    (
        "vertex x\nvertex p\nvertex q\nvertex y\nvertex r\nvertex s\ncube 3 x p x q y y r s\n",
        "line 7, column 1: degenerate edge at vertex x",
        7,
    ),
]


@pytest.mark.parametrize("text,fragment,line", COMPLEX_ERRORS)
def test_complex_error_positions(text, fragment, line):
    e = err(parse_complex, text)
    assert fragment in str(e)
    assert e.line == line


# One case per rule of validate_complex, as for .ws above.
CC_RULE_CASES = [
    (
        "vertex a\nvertex  a\n",
        CubeComplex(("a", "a")),
        "vertex 'a' redeclared", 2, 9,
    ),
    (
        "vertex a\ncube 0 a\n",
        CubeComplex(("a",), (Cube(0, ("a",)),)),
        "cube dimension must be >= 1", 2, 1,
    ),
    (
        "vertex a\nvertex b\n  cube 2 a b\n",
        CubeComplex(("a", "b"), (Cube(2, ("a", "b")),)),
        "2-cube needs 4 corners, got 2", 3, 3,
    ),
    (
        "vertex a\ncube 70 a\n",
        CubeComplex(("a",), (Cube(70, ("a",)),)),
        "70-cube needs 2^70 corners, got 1", 2, 1,
    ),
    (
        "vertex a\nvertex b\ncube 1 a z\ncube 1 a b\n",
        CubeComplex(("a", "b"), (Cube(1, ("a", "z")), Cube(1, ("a", "b")))),
        "unknown vertex z", 3, 1,
    ),
    (
        "cube 1 a b\ncube 1 b b\nvertex a\nvertex b\n",
        CubeComplex(("a", "b"), (Cube(1, ("a", "b")), Cube(1, ("b", "b")))),
        "degenerate edge at vertex b", 2, 1,
    ),
]


@pytest.mark.parametrize(
    "text,c,message,line,column", CC_RULE_CASES, ids=[c[2] for c in CC_RULE_CASES]
)
def test_complex_rule_violation_positions(text, c, message, line, column):
    e = err(parse_complex, text)
    assert str(e) == f"line {line}, column {column}: {message}"
    assert [p.message for p in validate_complex(c).violations] == [message]


def test_many_problems_locate_the_first_at_once():
    # 20,000 cubes that each break a rule: positions are found by one
    # re-scan of the text per failed parse, not one per problem
    text = "vertex a\n" + "  cube 1 a z\n" * 20000
    t0 = time.perf_counter()
    e = err(parse_complex, text)
    assert time.perf_counter() - t0 < 1
    assert str(e) == "line 2, column 3: unknown vertex z"


def test_catalog_positive_files_parse(catalog):
    parsers = {".m3": parse_manifold, ".ws": parse_wallspace, ".cc": parse_complex}
    seen = 0
    for path in sorted(catalog.iterdir()):
        if path.suffix not in parsers or path.name.startswith("bad_"):
            continue
        parsers[path.suffix](path.read_text())
        seen += 1
    assert seen >= 18


def test_catalog_negative_files_fail(catalog):
    seen = 0
    for path in sorted(catalog.glob("bad_*.m3")):
        with pytest.raises(ParseError):
            parse_manifold(path.read_text())
        seen += 1
    assert seen >= 8


def test_catalog_serialization_is_a_fixed_point(catalog):
    for path in sorted(catalog.glob("*.ws")):
        out = serialize_wallspace(parse_wallspace(path.read_text()))
        assert serialize_wallspace(parse_wallspace(out)) == out
    for path in sorted(catalog.glob("*.cc")):
        c = parse_complex(path.read_text())
        out = serialize_complex(c)
        assert serialize_complex(parse_complex(out)) == out
