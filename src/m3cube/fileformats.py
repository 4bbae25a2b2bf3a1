"""Text formats for manifolds (.m3), wallspaces (.ws) and cube complexes
(.cc).

All three are line oriented UTF-8 with `#` comments. Parsing is exact:
unknown keys, missing fields and non-integer tokens raise ParseError with a
1-based line and column.

A .m3, .ws or .cc file is read whole before any rule is checked, so its
records may come in any order and a syntax error anywhere is reported
first. The reader itself rejects only what the parsed value cannot hold: a
block id declared twice, a second geometry or chambers record.
``manifold.validate``, ``validate_wallspace`` and ``validate_complex``
decide every other rule, and the problem in the earliest record is
reported at the line and column of that record or field; problems of no
one record (an unglued end, a disconnected graph) are reported against
the last line.

.ws and .cc serialization is deterministic, one record per line, and
serialize(parse(text)) reparses to an equal value.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .cubecomplex import Cube, CubeComplex
from .errors import ParseError
from .manifold import (
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    TorusEdge,
    TorusEnd,
    ValidationReport,
    validate,
)
from .wallspace import Wall, Wallspace

_TOKEN_RE = re.compile(r"\S+")


def _lines(text: str):
    """Yield (lineno, tokens) for each line with a token, comments stripped.

    Lines end at \\n, \\r\\n or \\r, as in a text-mode read; no other
    character (form feed, \\x85, U+2028, ...) ends a line or a comment.
    Tokens are (column, string) pairs, columns 1-based.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(line)]
        if tokens:
            yield lineno, tokens


def _fail(msg: str, line: int, col: int = 1):
    raise ParseError(msg, line, col)


def _raise_first(report: ValidationReport, where: dict, last_line: int) -> None:
    """Raise at the earliest located problem of a failed report; problems
    ``where`` cannot locate are joined and reported at the last line."""
    if report.ok:
        return
    located = [(where[p.where], p.message) for p in report.violations if p.where in where]
    if located:
        (line, col), message = min(located, key=lambda pair: pair[0])
        _fail(message, line, col)
    _fail("; ".join(report.problems), last_line)


def _int(tok: str, line: int, col: int) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        _fail(f"expected an integer, got {tok!r}", line, col)


_PAIR_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def _pairs(value: str, line: int, col: int) -> list[tuple[int, int]]:
    """Parse a run of (a,b)(c,d)... with no separators."""
    out = []
    pos = 0
    while pos < len(value):
        m = _PAIR_RE.match(value, pos)
        if not m:
            _fail(f"expected (p,q) pairs, got {value[pos:]!r}", line, col + pos)
        out.append(tuple(_int(g, line, col + pos) for g in m.groups()))
        pos = m.end()
    return out


def _end(tok: str, line: int, col: int) -> TorusEnd:
    block, dot, idx = tok.rpartition(".")
    if not dot or not block:
        _fail(f"expected <block>.<index>, got {tok!r}", line, col)
    return TorusEnd(block, _int(idx, line, col + len(block) + 1))


def parse_manifold(text: str) -> ManifoldGraph:
    blocks: dict = {}
    tori: list[TorusEdge] = []
    boundary: list[TorusEnd] = []
    geometry = None
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, column)
    last_line = 1

    for lineno, tokens in _lines(text):
        last_line = lineno
        (col0, kind) = tokens[0]
        rest = tokens[1:]

        if kind == "block":
            if len(rest) < 2:
                _fail("block needs an id and a kind", lineno, col0)
            (_, block_id), (kcol, bkind) = rest[0], rest[1]
            if block_id in blocks:
                _fail(f"block {block_id!r} redeclared", lineno, rest[0][0])
            where[("block", block_id)] = (lineno, col0)
            if bkind == "seifert":
                blocks[block_id] = _parse_seifert(rest[2:], lineno)
            elif bkind == "hyperbolic":
                blocks[block_id] = _parse_hyperbolic(rest[2:], lineno)
            else:
                _fail(f"unknown block kind {bkind!r}", lineno, kcol)

        elif kind == "torus":
            if len(rest) != 4:
                _fail("torus needs: <id> <endA> <endB> glue=...", lineno, col0)
            (_, tid), (acol, atok), (bcol, btok), (gcol, gtok) = rest
            end_a = _end(atok, lineno, acol)
            end_b = _end(btok, lineno, bcol)
            if not gtok.startswith("glue="):
                _fail("expected glue=<m00>,<m01>,<m10>,<m11>", lineno, gcol)
            parts = gtok[5:].split(",")
            if len(parts) != 4:
                _fail("glue needs four entries", lineno, gcol)
            a, b, c, d = (_int(p, lineno, gcol) for p in parts)
            for field, (col, _tok) in zip(("id", "a", "b", "glue"), rest):
                where[("torus", len(tori), field)] = (lineno, col)
            tori.append(TorusEdge(tid, end_a, end_b, GluingMatrix(a, b, c, d)))

        elif kind == "boundary":
            if len(rest) != 1:
                _fail("boundary needs one <block>.<index>", lineno, col0)
            (ecol, etok) = rest[0]
            where[("boundary", len(boundary), "end")] = (lineno, ecol)
            boundary.append(_end(etok, lineno, ecol))

        elif kind == "geometry":
            if len(rest) != 1:
                _fail("geometry needs one label", lineno, col0)
            (gcol, glabel) = rest[0]
            if geometry is not None:
                _fail("geometry redeclared", lineno, gcol)
            where[("geometry",)] = (lineno, col0)
            where[("geometry", "label")] = (lineno, gcol)
            geometry = glabel

        else:
            _fail(f"unknown record {kind!r}", lineno, col0)

    m = ManifoldGraph(blocks, tuple(tori), tuple(boundary), geometry)
    _raise_first(validate(m), where, last_line)
    return m


def _parse_seifert(tokens, lineno) -> SeifertBlockData:
    genus = boundaries = None
    exceptional: tuple = ()
    obstruction = 0
    for col, tok in tokens:
        if tok.startswith("genus="):
            genus = _int(tok[6:], lineno, col + 6)
        elif tok.startswith("boundaries="):
            boundaries = _int(tok[11:], lineno, col + 11)
        elif tok.startswith("exceptional="):
            exceptional = tuple(_pairs(tok[12:], lineno, col + 12))
        elif tok.startswith("b="):
            obstruction = _int(tok[2:], lineno, col + 2)
        else:
            _fail(f"unknown seifert field {tok!r}", lineno, col)
    if genus is None or boundaries is None:
        _fail("seifert block needs genus= and boundaries=", lineno)
    return SeifertBlockData(genus, boundaries, exceptional, obstruction)


def _parse_hyperbolic(tokens, lineno) -> HyperbolicBlockData:
    boundaries = None
    for col, tok in tokens:
        if tok.startswith("boundaries="):
            boundaries = _int(tok[11:], lineno, col + 11)
        else:
            _fail(f"unknown hyperbolic field {tok!r}", lineno, col)
    if boundaries is None:
        _fail("hyperbolic block needs boundaries=", lineno)
    return HyperbolicBlockData(boundaries)


def parse_wallspace(text: str) -> Wallspace:
    n = None
    walls: list[Wall] = []
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, column)
    last_line = 1

    def idx_list(value: str, line: int, col: int) -> frozenset:
        if value == "":
            return frozenset()
        return frozenset(_int(part, line, col) for part in value.split(","))

    for lineno, tokens in _lines(text):
        last_line = lineno
        (col0, kind) = tokens[0]
        rest = tokens[1:]
        if kind == "chambers":
            if n is not None:
                _fail("chambers redeclared", lineno, col0)
            if len(rest) != 1:
                _fail("chambers needs a count", lineno, col0)
            n = _int(rest[0][1], lineno, rest[0][0])
            where[("chambers",)] = (lineno, rest[0][0])
        elif kind == "wall":
            if len(rest) != 3:
                _fail("wall needs: <id> U=<list> V=<list>", lineno, col0)
            (_, wid), (ucol, utok), (vcol, vtok) = rest
            if not utok.startswith("U="):
                _fail("expected U=<idx list>", lineno, ucol)
            if not vtok.startswith("V="):
                _fail("expected V=<idx list>", lineno, vcol)
            where[("wall", len(walls))] = (lineno, col0)
            for field, (col, _tok) in zip(("id", "U", "V"), rest):
                where[("wall", len(walls), field)] = (lineno, col)
            walls.append(
                Wall(wid, idx_list(utok[2:], lineno, ucol), idx_list(vtok[2:], lineno, vcol))
            )
        else:
            _fail(f"unknown record {kind!r}", lineno, col0)

    if n is None:
        _fail("missing chambers record", last_line)
    ws = Wallspace(tuple(range(n)), tuple(walls))
    _raise_first(ws.report, where, last_line)
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
    vertices: list[str] = []
    cubes: list[Cube] = []
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, column)
    last_line = 1
    for lineno, tokens in _lines(text):
        last_line = lineno
        (col0, kind) = tokens[0]
        rest = tokens[1:]
        if kind == "vertex":
            if len(rest) != 1:
                _fail("vertex needs one id", lineno, col0)
            where[("vertex", len(vertices))] = (lineno, rest[0][0])
            vertices.append(rest[0][1])
        elif kind == "cube":
            if len(rest) < 1:
                _fail("cube needs a dimension", lineno, col0)
            d = _int(rest[0][1], lineno, rest[0][0])
            where[("cube", len(cubes))] = (lineno, col0)
            cubes.append(Cube(d, tuple(tok for _c, tok in rest[1:])))
        else:
            _fail(f"unknown record {kind!r}", lineno, col0)
    c = CubeComplex(tuple(vertices), tuple(cubes))
    _raise_first(c.report, where, last_line)
    return c


def serialize_complex(c: CubeComplex) -> str:
    """Vertices and cubes in the complex's vertex rank (``str``) order."""
    rank = c.rank
    name = {v: str(v) for v in rank}  # each vertex formatted once
    out = [f"vertex {s}" for s in name.values()]
    for cube in sorted(c.cubes, key=lambda k: (k.dim, itemgetter(*k.corners)(rank))):
        out.append(f"cube {cube.dim} " + " ".join(itemgetter(*cube.corners)(name)))
    return "\n".join(out) + "\n"
