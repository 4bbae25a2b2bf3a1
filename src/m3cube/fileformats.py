"""Text formats for manifolds (.m3), wallspaces (.ws) and cube complexes
(.cc).

All three are line oriented UTF-8 with `#` comments. Parsing is exact:
unknown keys, missing fields and non-integer tokens raise ParseError with a
1-based line and column. A line's tokens are its ``str.split()`` and carry
no column: a failure names its line and token index, and the column is
computed only for the error that is reported, by re-scanning that line.

A .m3, .ws or .cc file is read whole before any rule is checked, so its
records may come in any order and a syntax error anywhere is reported
first. The reader itself rejects only what the parsed value cannot hold: a
block id declared twice, a second geometry or chambers record, and more
than ``CHAMBER_BUDGET`` chambers (a budget error, raised before any
chamber is built).
``manifold.validate``, ``validate_wallspace`` and ``validate_complex``
decide every other rule, and the problem in the earliest record is
reported at the line and column of that record or field; problems of no
one record (an unglued end, a disconnected graph) are reported against
the last line with a token. The parsers keep no positions: they are found
by one re-scan of the text, and only when a report fails.

.ws and .cc serialization is deterministic, one record per line, and
serialize(parse(text)) reparses to an equal value.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .cubecomplex import Cube, CubeComplex
from .errors import BudgetExceededError, ParseError
from .manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    Problem,
    SeifertBlockData,
    TorusEdge,
    TorusEnd,
    ValidationReport,
    validate,
)
from .wallspace import Wall, Wallspace

_TOKEN_RE = re.compile(r"\S+")  # the tokens str.split() finds: \s is str.isspace
CHAMBER_BUDGET = 10**6  # most chambers a .ws file may declare


class _Failure(Exception):
    """A parse failure: (message, line, token index or None, offset in the token)."""


def _fail(msg: str, line: int, token: int | None = None, offset: int = 0):
    raise _Failure(msg, line, token, offset)


def _split_lines(text: str) -> list[str]:
    """Lines end at \\n, \\r\\n or \\r, as in a text-mode read; no other
    character (form feed, \\x85, U+2028, ...) ends a line or a comment."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _lines(text: str):
    """Yield (lineno, tokens) for each line with a token, comments stripped;
    the tokens are the line's ``str.split()``."""
    for lineno, raw in enumerate(_split_lines(text), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _located(parse, text: str):
    """Run ``parse(text)``, raising its failure as a ParseError at its line
    and column. A failure names its token by index; the column is found only
    here, by re-scanning that one line (column 1 when no token is named)."""
    try:
        return parse(text)
    except _Failure as failure:
        message, line, token, offset = failure.args
        column = 1
        if token is not None:
            raw = _split_lines(text)[line - 1].split("#", 1)[0]
            column = [m.start() for m in _TOKEN_RE.finditer(raw)][token] + 1 + offset
        raise ParseError(message, line, column) from None


_FIELDS = {  # record kind -> its fields, at tokens 1, 2, ... of its line
    "torus": ("id", "a", "b", "glue"),
    "wall": ("id", "U", "V"),
    "boundary": ("end",),
    "geometry": ("label",),
}


def _raise_first(report: ValidationReport, text: str) -> None:
    """Fail at the earliest located problem of a failed report; problems of
    no one record are joined and reported at the last line with a token.
    Positions are found only here, by one re-scan of ``text``: the i-th
    record of a kind is entry i of its model's tuple, a block is named by its
    id, and a record points at its token 0 (a vertex or chambers record at
    token 1) and a field at its token in ``_FIELDS``."""
    if report.ok:
        return
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, token index)
    count: dict[str, int] = {}
    last_line = 1
    for last_line, tokens in _lines(text):
        kind = tokens[0]
        count[kind] = i = count.get(kind, -1) + 1
        if kind == "block":
            key = (kind, tokens[1])
        else:
            key = (kind,) if kind in ("geometry", "chambers") else (kind, i)
        where[key] = (last_line, int(kind in ("vertex", "chambers")))
        for token, field in enumerate(_FIELDS.get(kind, ()), start=1):
            where[key + (field,)] = (last_line, token)
    located = [(where[p.where], p.message) for p in report.violations if p.where in where]
    if located:
        (line, token), message = min(located, key=lambda pair: pair[0])
        _fail(message, line, token)
    _fail("; ".join(report.problems), last_line)


def _int(tok: str, line: int, token: int, offset: int = 0) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        _fail(f"expected an integer, got {tok!r}", line, token, offset)


_PAIR_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def _pairs(value: str, line: int, token: int, offset: int) -> tuple[tuple[int, int], ...]:
    """Parse a run of (a,b)(c,d)... with no separators."""
    out = []
    pos = 0
    while pos < len(value):
        m = _PAIR_RE.match(value, pos)
        if not m:
            _fail(f"expected (p,q) pairs, got {value[pos:]!r}", line, token, offset + pos)
        out.append(tuple(_int(g, line, token, offset + pos) for g in m.groups()))
        pos = m.end()
    return tuple(out)


def _end(tok: str, line: int, token: int) -> TorusEnd:
    block, dot, idx = tok.rpartition(".")
    if not dot or not block:
        _fail(f"expected <block>.<index>, got {tok!r}", line, token)
    return TorusEnd(block, _int(idx, line, token, len(block) + 1))


def parse_manifold(text: str) -> ManifoldGraph:
    return _located(_parse_manifold, text)


def _parse_manifold(text: str) -> ManifoldGraph:
    blocks: dict = {}
    tori: list[TorusEdge] = []
    boundary: list[TorusEnd] = []
    geometry = None

    for lineno, tokens in _lines(text):
        kind = tokens[0]

        if kind == "block":
            if len(tokens) < 3:
                _fail("block needs an id and a kind", lineno, 0)
            if tokens[1] in blocks:
                _fail(f"block {tokens[1]!r} redeclared", lineno, 1)
            blocks[tokens[1]] = _block(tokens, lineno)

        elif kind == "torus":
            if len(tokens) != 5:
                _fail("torus needs: <id> <endA> <endB> glue=...", lineno, 0)
            _, tid, atok, btok, gtok = tokens
            end_a = _end(atok, lineno, 2)
            end_b = _end(btok, lineno, 3)
            if not gtok.startswith("glue="):
                _fail("expected glue=<m00>,<m01>,<m10>,<m11>", lineno, 4)
            parts = gtok[5:].split(",")
            if len(parts) != 4:
                _fail("glue needs four entries", lineno, 4)
            a, b, c, d = (_int(p, lineno, 4) for p in parts)
            tori.append(TorusEdge(tid, end_a, end_b, GluingMatrix(a, b, c, d)))

        elif kind == "boundary":
            if len(tokens) != 2:
                _fail("boundary needs one <block>.<index>", lineno, 0)
            boundary.append(_end(tokens[1], lineno, 1))

        elif kind == "geometry":
            if len(tokens) != 2:
                _fail("geometry needs one label", lineno, 0)
            if geometry is not None:
                _fail("geometry redeclared", lineno, 1)
            geometry = tokens[1]

        else:
            _fail(f"unknown record {kind!r}", lineno, 0)

    m = ManifoldGraph(blocks, tuple(tori), tuple(boundary), geometry)
    _raise_first(validate(m), text)
    return m


# block kind -> (a reader per field, the fields it needs, the block from its fields)
_BLOCKS = {
    "seifert": (
        {"genus": _int, "boundaries": _int, "exceptional": _pairs, "b": _int},
        ("genus", "boundaries"),
        lambda f: SeifertBlockData(
            f["genus"], f["boundaries"], f.get("exceptional", ()), f.get("b", 0)
        ),
    ),
    "hyperbolic": (
        {"boundaries": _int}, ("boundaries",), lambda f: HyperbolicBlockData(f["boundaries"])
    ),
}


def _block(tokens: list[str], lineno: int) -> SeifertBlockData | HyperbolicBlockData:
    """The block of a ``block <id> <kind> <field>=<value> ...`` line; when a
    field repeats, its last value wins."""
    kind = tokens[2]
    if kind not in _BLOCKS:
        _fail(f"unknown block kind {kind!r}", lineno, 2)
    readers, needs, build = _BLOCKS[kind]
    fields = {}
    for i in range(3, len(tokens)):
        key, eq, value = tokens[i].partition("=")
        if not eq or key not in readers:
            _fail(f"unknown {kind} field {tokens[i]!r}", lineno, i)
        fields[key] = readers[key](value, lineno, i, len(key) + 1)
    if not all(key in fields for key in needs):
        _fail(f"{kind} block needs " + " and ".join(key + "=" for key in needs), lineno)
    return build(fields)


def parse_wallspace(text: str) -> Wallspace:
    return _located(_parse_wallspace, text)


def _parse_wallspace(text: str) -> Wallspace:
    n = None
    walls: list[Wall] = []

    def idx_list(value: str, line: int, token: int) -> frozenset:
        if value == "":
            return frozenset()
        return frozenset(_int(part, line, token) for part in value.split(","))

    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "chambers":
            if n is not None:
                _fail("chambers redeclared", lineno, 0)
            if len(tokens) != 2:
                _fail("chambers needs a count", lineno, 0)
            n = _int(tokens[1], lineno, 1)
        elif kind == "wall":
            if len(tokens) != 4:
                _fail("wall needs: <id> U=<list> V=<list>", lineno, 0)
            _, wid, utok, vtok = tokens
            if not utok.startswith("U="):
                _fail("expected U=<idx list>", lineno, 2)
            if not vtok.startswith("V="):
                _fail("expected V=<idx list>", lineno, 3)
            walls.append(Wall(wid, idx_list(utok[2:], lineno, 2), idx_list(vtok[2:], lineno, 3)))
        else:
            _fail(f"unknown record {kind!r}", lineno, 0)

    if n is None:
        _raise_first(ValidationReport((Problem((), None, "missing chambers record"),)), text)
    if n > CHAMBER_BUDGET:  # refused before a chamber is built
        raise BudgetExceededError(CHAMBER_BUDGET, "chambers")
    ws = Wallspace(tuple(range(n)), tuple(walls))
    _raise_first(ws.report, text)
    return ws


def serialize_wallspace(ws: Wallspace) -> str:
    order = {c: i for i, c in enumerate(sorted(ws.chambers))}
    out = [f"chambers {len(ws.chambers)}"]
    for w in ws.walls:
        u = ",".join(str(i) for i in sorted(order[c] for c in w.half_u))
        v = ",".join(str(i) for i in sorted(order[c] for c in w.half_v))
        out.append(f"wall {w.wall_id} U={u} V={v}")
    return "\n".join(out) + "\n"


def parse_complex(text: str) -> CubeComplex:
    return _located(_parse_complex, text)


def _parse_complex(text: str) -> CubeComplex:
    vertices: list[str] = []
    cubes: list[Cube] = []
    for lineno, tokens in _lines(text):
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                _fail("vertex needs one id", lineno, 0)
            vertices.append(tokens[1])
        elif kind == "cube":
            if len(tokens) < 2:
                _fail("cube needs a dimension", lineno, 0)
            cubes.append(Cube(_int(tokens[1], lineno, 1), tuple(tokens[2:])))
        else:
            _fail(f"unknown record {kind!r}", lineno, 0)
    c = CubeComplex(tuple(vertices), tuple(cubes))
    _raise_first(c.report, text)
    return c


def serialize_complex(c: CubeComplex) -> str:
    """The vertices in the complex's vertex rank (``str``) order, then the
    cubes by dimension, and within one dimension by the tuple of their
    corners' ranks. Each dimension is sorted and written on its own, so the
    sort keys of only one dimension and the lines of only one are held at
    a time. An empty complex is one empty line."""
    rank = c.rank
    name = {v: str(v) for v in rank}  # each vertex formatted once
    groups: dict[int, list[tuple]] = {}
    for dim, corners in c.cubes:
        groups.setdefault(dim, []).append(corners)
    text = "".join(f"vertex {s}\n" for s in name.values())
    for dim, group in sorted(groups.items()):
        group.sort(key=lambda k: itemgetter(*k)(rank))
        head = f"cube {dim} "
        text += head + f"\n{head}".join([" ".join(itemgetter(*k)(name)) for k in group]) + "\n"
    return text or "\n"
