"""Output checks built from facts known by construction.

Every check reads m3cube's text output with its own small parser and
compares it with a count or verdict that the input's construction fixes
(see ``families``) or that the catalog files state. None of them calls
into m3cube. A check returns None when the output is right and a short
description of the first problem otherwise.
"""

from __future__ import annotations

import re
from math import prod

from families import DualCase, ManifoldCase

_H1_TERM = re.compile(r"Z(?:\^(\d+))?$|Z/(\d+)$")


def cc_shape(text: str) -> tuple[int, dict[int, int]]:
    """(vertex count, cube count by dimension) of .cc text."""
    vertices = 0
    by_dim: dict[int, int] = {}
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "vertex":
            vertices += 1
        elif tokens[0] == "cube":
            d = int(tokens[1])
            by_dim[d] = by_dim.get(d, 0) + 1
    return vertices, by_dim


def record_counts(text: str) -> dict[str, int]:
    """How many records of each kind a catalog file holds."""
    counts: dict[str, int] = {}
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            counts[tokens[0]] = counts.get(tokens[0], 0) + 1
    return counts


def dual(case: DualCase):
    def check(out: str) -> str | None:
        vertices, by_dim = cc_shape(out)
        if vertices != case.vertices:
            return f"{vertices} vertices, expected {case.vertices}"
        if by_dim != case.cubes_by_dim:
            return f"cubes by dimension {by_dim}, expected {case.cubes_by_dim}"
        return None

    return check


def sageev_special(out: str) -> str | None:
    """A Sageev dual is CAT(0), hence special and nonpositively curved."""
    lines = out.splitlines()
    if len(lines) < 2 or lines[-2] != "special":
        return "Sageev dual not reported special"
    if lines[-1] not in ("npc: yes", "npc: unchecked (dimension > 4)"):
        return f"Sageev dual reported {lines[-1]!r}"
    return None


def classify(case: ManifoldCase):
    """Verdict line plus one report line per interior block."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        head = (
            "VCS: yes (nongeometric, chargeless)"
            if case.vcs
            else "VCS: no (nongeometric, charged)"
        )
        if not lines or lines[0] != head:
            return f"verdict line {lines[:1]}, expected {head!r}"
        verdicts = {}
        for line in lines[1:]:
            m = re.match(r"block (\S+): (chargeless|charged),", line)
            if not m:
                return f"unexpected report line {line[:60]!r}"
            verdicts[m.group(1)] = m.group(2)
        if sorted(verdicts) != sorted(case.interior):
            return f"{len(verdicts)} blocks tested, expected {len(case.interior)} interior"
        charged = sorted(b for b, v in verdicts.items() if v == "charged")
        if charged != sorted(case.charged):
            return f"charged blocks {charged}, expected {sorted(case.charged)}"
        return None

    return check


def parse_h1(line: str) -> tuple[int, list[int]] | None:
    """(rank, torsion orders) from an 'H1: ...' line, None if malformed."""
    if not line.startswith("H1: "):
        return None
    body = line[4:]
    if body == "0":
        return 0, []
    rank, torsion = 0, []
    for term in body.split(" + "):
        m = _H1_TERM.match(term)
        if not m:
            return None
        if m.group(2):
            torsion.append(int(m.group(2)))
        else:
            rank += int(m.group(1) or 1)
    return rank, torsion


def hub_homology(case: ManifoldCase):
    def check(out: str) -> str | None:
        lines = out.splitlines()
        gens = lines[0].split(" generators ", 1)[-1].split() if lines else []
        if len(gens) != case.h1_generators:
            return f"{len(gens)} generators, expected {case.h1_generators}"
        h1 = parse_h1(lines[-1])
        if h1 is None:
            return f"malformed H1 line {lines[-1][:60]!r}"
        rank, torsion = h1
        if rank != case.h1_rank or prod(torsion) != case.h1_torsion_order:
            return (
                f"H1 rank {rank} torsion {torsion}, expected rank {case.h1_rank}"
                f" and torsion of order {case.h1_torsion_order}"
            )
        return None

    return check


def h1(rank: int, torsion: list[int] | None):
    """The H1 line: its rank, and its torsion orders unless torsion is None."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        got = parse_h1(lines[-1]) if lines else None
        if got is None or got[0] != rank or (torsion is not None and got[1] != torsion):
            return f"{lines[-1:]}, expected rank {rank} and torsion {torsion}"
        return None

    return check


def _line_matches(got: str | None, want: str) -> bool:
    if want.endswith("..."):
        return got is not None and got.startswith(want[:-3])
    return got == want


def lines_are(*expected: str):
    """The first lines of the output; a trailing '...' compares a prefix."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        for i, want in enumerate(expected):
            got = lines[i] if i < len(lines) else None
            if not _line_matches(got, want):
                return f"line {i + 1} is {got!r}, expected {want!r}"
        return None

    return check


def last_lines(*expected: str):
    """The last lines of the output; a trailing '...' compares a prefix."""

    def check(out: str) -> str | None:
        got = out.splitlines()[-len(expected):]
        if len(got) != len(expected) or not all(map(_line_matches, got, expected)):
            return f"last lines {got}, expected {list(expected)}"
        return None

    return check
