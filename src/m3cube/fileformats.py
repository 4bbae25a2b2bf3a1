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

_TOKEN_RE = re.compile(r"\S+")  # the tokens str.split() finds: \s is str.isspace


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


def _raise_first(report: ValidationReport, where: dict, last_line: int) -> None:
    """Fail at the earliest located problem of a failed report; problems
    ``where`` cannot locate are joined and reported at the last line.
    ``where`` maps a ``Problem.where`` to (line, token index)."""
    if report.ok:
        return
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


def _pairs(value: str, line: int, token: int, offset: int) -> list[tuple[int, int]]:
    """Parse a run of (a,b)(c,d)... with no separators."""
    out = []
    pos = 0
    while pos < len(value):
        m = _PAIR_RE.match(value, pos)
        if not m:
            _fail(f"expected (p,q) pairs, got {value[pos:]!r}", line, token, offset + pos)
        out.append(tuple(_int(g, line, token, offset + pos) for g in m.groups()))
        pos = m.end()
    return out


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
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, token index)
    last_line = 1

    for lineno, tokens in _lines(text):
        last_line = lineno
        kind = tokens[0]

        if kind == "block":
            if len(tokens) < 3:
                _fail("block needs an id and a kind", lineno, 0)
            block_id, bkind = tokens[1], tokens[2]
            if block_id in blocks:
                _fail(f"block {block_id!r} redeclared", lineno, 1)
            where[("block", block_id)] = (lineno, 0)
            if bkind == "seifert":
                blocks[block_id] = _parse_seifert(tokens, lineno)
            elif bkind == "hyperbolic":
                blocks[block_id] = _parse_hyperbolic(tokens, lineno)
            else:
                _fail(f"unknown block kind {bkind!r}", lineno, 2)

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
            for token, field in enumerate(("id", "a", "b", "glue"), start=1):
                where[("torus", len(tori), field)] = (lineno, token)
            tori.append(TorusEdge(tid, end_a, end_b, GluingMatrix(a, b, c, d)))

        elif kind == "boundary":
            if len(tokens) != 2:
                _fail("boundary needs one <block>.<index>", lineno, 0)
            where[("boundary", len(boundary), "end")] = (lineno, 1)
            boundary.append(_end(tokens[1], lineno, 1))

        elif kind == "geometry":
            if len(tokens) != 2:
                _fail("geometry needs one label", lineno, 0)
            if geometry is not None:
                _fail("geometry redeclared", lineno, 1)
            where[("geometry",)] = (lineno, 0)
            where[("geometry", "label")] = (lineno, 1)
            geometry = tokens[1]

        else:
            _fail(f"unknown record {kind!r}", lineno, 0)

    m = ManifoldGraph(blocks, tuple(tori), tuple(boundary), geometry)
    _raise_first(validate(m), where, last_line)
    return m


def _parse_seifert(tokens, lineno) -> SeifertBlockData:
    """The fields of a ``block <id> seifert`` line, from token 3 on."""
    genus = boundaries = None
    exceptional: tuple = ()
    obstruction = 0
    for i in range(3, len(tokens)):
        tok = tokens[i]
        if tok.startswith("genus="):
            genus = _int(tok[6:], lineno, i, 6)
        elif tok.startswith("boundaries="):
            boundaries = _int(tok[11:], lineno, i, 11)
        elif tok.startswith("exceptional="):
            exceptional = tuple(_pairs(tok[12:], lineno, i, 12))
        elif tok.startswith("b="):
            obstruction = _int(tok[2:], lineno, i, 2)
        else:
            _fail(f"unknown seifert field {tok!r}", lineno, i)
    if genus is None or boundaries is None:
        _fail("seifert block needs genus= and boundaries=", lineno)
    return SeifertBlockData(genus, boundaries, exceptional, obstruction)


def _parse_hyperbolic(tokens, lineno) -> HyperbolicBlockData:
    """The fields of a ``block <id> hyperbolic`` line, from token 3 on."""
    boundaries = None
    for i in range(3, len(tokens)):
        tok = tokens[i]
        if tok.startswith("boundaries="):
            boundaries = _int(tok[11:], lineno, i, 11)
        else:
            _fail(f"unknown hyperbolic field {tok!r}", lineno, i)
    if boundaries is None:
        _fail("hyperbolic block needs boundaries=", lineno)
    return HyperbolicBlockData(boundaries)


def parse_wallspace(text: str) -> Wallspace:
    return _located(_parse_wallspace, text)


def _parse_wallspace(text: str) -> Wallspace:
    n = None
    walls: list[Wall] = []
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, token index)
    last_line = 1

    def idx_list(value: str, line: int, token: int) -> frozenset:
        if value == "":
            return frozenset()
        return frozenset(_int(part, line, token) for part in value.split(","))

    for lineno, tokens in _lines(text):
        last_line = lineno
        kind = tokens[0]
        if kind == "chambers":
            if n is not None:
                _fail("chambers redeclared", lineno, 0)
            if len(tokens) != 2:
                _fail("chambers needs a count", lineno, 0)
            n = _int(tokens[1], lineno, 1)
            where[("chambers",)] = (lineno, 1)
        elif kind == "wall":
            if len(tokens) != 4:
                _fail("wall needs: <id> U=<list> V=<list>", lineno, 0)
            _, wid, utok, vtok = tokens
            if not utok.startswith("U="):
                _fail("expected U=<idx list>", lineno, 2)
            if not vtok.startswith("V="):
                _fail("expected V=<idx list>", lineno, 3)
            where[("wall", len(walls))] = (lineno, 0)
            for token, field in enumerate(("id", "U", "V"), start=1):
                where[("wall", len(walls), field)] = (lineno, token)
            walls.append(Wall(wid, idx_list(utok[2:], lineno, 2), idx_list(vtok[2:], lineno, 3)))
        else:
            _fail(f"unknown record {kind!r}", lineno, 0)

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
    return _located(_parse_complex, text)


def _parse_complex(text: str) -> CubeComplex:
    vertices: list[str] = []
    cubes: list[Cube] = []
    where: dict[tuple, tuple[int, int]] = {}  # Problem.where -> (line, token index)
    last_line = 1
    for lineno, tokens in _lines(text):
        last_line = lineno
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                _fail("vertex needs one id", lineno, 0)
            where[("vertex", len(vertices))] = (lineno, 1)
            vertices.append(tokens[1])
        elif kind == "cube":
            if len(tokens) < 2:
                _fail("cube needs a dimension", lineno, 0)
            d = _int(tokens[1], lineno, 1)
            where[("cube", len(cubes))] = (lineno, 0)
            cubes.append(Cube(d, tuple(tokens[2:])))
        else:
            _fail(f"unknown record {kind!r}", lineno, 0)
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
