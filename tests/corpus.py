"""The CLI corpus: the runs that the reachability gate traces and that
``parity.py`` compares between two source trees.

``runs(workdir)`` copies the catalog into ``workdir/catalog``, writes every
other input into ``workdir`` and returns the runs as (argv, bad) pairs. A
bad run must exit 2; every other run exits 0, 1 or 2. The runs are:

- each catalog file under every subcommand that reads its kind, and
  ``homology`` and ``euler`` on each block of a good ``.m3``;
- the first good run of each subcommand again with ``--json``;
- the located bad inputs that ``test_fileformats.py`` pins, each under
  every subcommand that reads its kind;
- the inputs in ``INPUTS`` and the usage and budget errors below, each of
  which reaches a branch that nothing above does;
- ``special-check`` on each NPC probe of ``test_cli.py``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import m3cube
from test_cli import NPC_PROBES
from test_fileformats import (
    CC_RULE_CASES,
    COMPLEX_ERRORS,
    MANIFOLD_ERRORS,
    RULE_CASES,
    WALLSPACE_ERRORS,
    WS_RULE_CASES,
)

CATALOG = Path(m3cube.__file__).parent / "catalog"

INPUTS = {
    # a torus that matches the two fibres (p = 0 on both sides)
    "matched.m3": "block A seifert genus=1 boundaries=1\n"
    "block B seifert genus=1 boundaries=1\n"
    "torus T A.0 B.0 glue=-1,0,0,1\n",
    # a closed block with no geometry record: classify has no label to read
    "unlabelled.m3": "block M seifert genus=1 boundaries=0\n",
    # its Smith normal form needs the pivot repairs
    "pivots.m3": "block M seifert genus=0 boundaries=0 exceptional=(9,-1)(6,5)(4,9)(8,-7) b=2\n",
    # what `dual-cube crossing2.ws` writes: the square's edges are listed
    # as its facets too
    "dual.cc": "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
    "cube 1 0 1\ncube 1 0 2\ncube 1 1 3\ncube 1 2 3\ncube 2 0 2 1 3\n",
    # two squares whose vertical class osculates with itself indirectly
    "indirect.cc": "vertex a0\nvertex a1\nvertex a2\nvertex b0\nvertex b1\n"
    "cube 2 a0 a1 b0 b1\ncube 2 a1 a2 b1 a0\n",
    # 2*10**8 + 1 generators: more labels than `homology` spells
    "huge_genus.m3": "block A seifert genus=100000000 boundaries=0\n",
    # more chambers than a .ws file may declare
    "huge_chambers.ws": "chambers 100000000\n",
    # a good manifold under an extension that validate does not read
    "notes.txt": "block M seifert genus=1 boundaries=0\n",
    # written as latin-1, so \xff is one byte, and not UTF-8
    "latin1.m3": "block \xff seifert genus=0 boundaries=0\n",
}

SUBCOMMANDS = {
    ".m3": ("validate", "classify", "chargeless"),
    ".ws": ("validate", "dual-cube"),
    ".cc": ("validate", "special-check"),
}


def _blocks(text: str) -> list[str]:
    """The block ids declared in .m3 text, sorted."""
    ids = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["block"]:
            ids.append(tokens[1])
    return sorted(ids)


def _pinned() -> list[tuple[str, str]]:
    """(suffix, text) of each located bad input of test_fileformats.py."""
    out = []
    for suffix, cases in (
        (".m3", MANIFOLD_ERRORS + RULE_CASES),
        (".ws", WALLSPACE_ERRORS + WS_RULE_CASES),
        (".cc", COMPLEX_ERRORS + CC_RULE_CASES),
    ):
        for case in cases:
            values = getattr(case, "values", case)  # a pytest.param or a tuple
            out.append((suffix, values[0]))
    return out


def runs(workdir: Path) -> list[tuple[list[str], bool]]:
    catalog = workdir / "catalog"
    shutil.copytree(CATALOG, catalog)
    good: list[list[str]] = []
    bad: list[list[str]] = []
    for f in sorted(catalog.iterdir()):
        path = str(f)
        argvs = [[sub, path] for sub in SUBCOMMANDS[f.suffix]]
        if f.name.startswith("bad_"):
            bad += argvs
            continue
        good += argvs
        if f.suffix == ".m3":
            for block in _blocks(f.read_text()):
                good += [["homology", path, "--block", block], ["euler", path, "--block", block]]
    good += [
        ["torus-walls", "--slopes", "1/0,0/1"],
        ["torus-walls", "--slopes", "1/0,0/1,1/1", "--dual"],
        ["torus-walls", "--slopes=-1/2,0/1"],
    ]
    first: dict[str, list[str]] = {}
    for argv in good:
        first.setdefault(argv[0], argv)
    good += [argv + ["--json"] for argv in first.values()]

    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="latin-1")
    inp = {name: str(workdir / name) for name in INPUTS}
    crossing, mixed = str(catalog / "crossing2.ws"), str(catalog / "chargeless_mixed.m3")
    good += [
        ["classify", inp["matched.m3"]],
        ["chargeless", inp["matched.m3"]],
        ["homology", inp["pivots.m3"], "--block", "M"],
        ["special-check", inp["dual.cc"]],
        ["special-check", inp["indirect.cc"]],
    ]
    bad += [
        ["classify", inp["unlabelled.m3"]],
        ["validate", str(workdir / "missing.m3")],
        ["validate", inp["notes.txt"]],
        ["validate", inp["latin1.m3"]],
        ["dual-cube", crossing, "--budget", "4"],
        ["dual-cube", crossing, "--budget", "1"],
        ["dual-cube", crossing, "--budget", "0"],
        ["torus-walls", "--slopes", "1/0,0/1", "--dual", "--budget", "1"],
        ["torus-walls", "--slopes", "1/0,1/0"],
        ["torus-walls", "--slopes", "1/0", "--window", "-1"],
        ["torus-walls", "--slopes", "x"],
        ["torus-walls", "--slopes", "a/b"],
        ["torus-walls", "--slopes", "0/0"],
        ["homology", mixed, "--block", "nope"],
        ["homology", mixed, "--block", "H"],
        ["homology", inp["huge_genus.m3"], "--block", "A"],
        *([sub, inp["huge_chambers.ws"]] for sub in SUBCOMMANDS[".ws"]),
        ["euler", str(catalog / "sfs_boundary.m3"), "--block", "M"],
    ]
    for name, text, _tail in NPC_PROBES:
        (workdir / name).write_text(text)
        good.append(["special-check", str(workdir / name)])
    for i, (suffix, text) in enumerate(_pinned()):
        path = workdir / f"pinned_{i}{suffix}"
        path.write_text(text, encoding="utf-8")
        bad += [[sub, str(path)] for sub in SUBCOMMANDS[suffix]]
    return [(argv, False) for argv in good] + [(argv, True) for argv in bad]
