"""Reachability gate: every function in src is run by some CLI path.

The listing comes from the AST of each module under ``src/m3cube``: its
module-level functions and the methods of its classes (nested closures are
part of their enclosing function). The run calls ``cli.main`` in process
on every catalog file with each subcommand that reads its kind, once more
with ``--json`` per subcommand, and on bad inputs, with a ``sys.settrace``
hook that records each call and traces no lines. A listed function that
the run never calls fails the test unless ``ALLOWED`` names it with the
reason it stays. Error paths are never allowed: a bad input that reaches
them belongs in the run instead.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import m3cube
from m3cube import cli
from m3cube.fileformats import parse_manifold

PACKAGE = Path(m3cube.__file__).parent

ALLOWED = {
    "wallspace.walls_cross": "looked up by name in perfbench/spans.py (EXTRA)",
    "cubecomplex.derived_squares": "looked up by name in perfbench/spans.py (EXTRA)",
    "cubecomplex.derived_edges": "looked up by name in perfbench/spans.py (EXTRA)",
    "manifold.ManifoldGraph.torus": "looked up by name in perfbench/spans.py (SCAN_METHODS)",
    "decomposition.modify_jsj": "acceptance criterion 5 modifies the catalog graphs",
    "decomposition._fresh_id": "names the thin blocks of modify_jsj",
    "charge.fill_along_slopes": "acceptance criterion 5 fills along the witness slopes",
    "homology.LatticeBasis.vectors": "acceptance criterion 3 reads the lattice weights",
    "decomposition.helly_intersection": "acceptance criterion 8 tests the Helly property",
    "decomposition._check_tree": "acceptance criterion 8 tests the Helly property",
    "decomposition.Tree.adjacency": "acceptance criterion 8 tests the Helly property",
}

BAD_WS = "chambers 4\nwall a U=0,1 V=2,3\nwall b U=0 V=1,2\n"
BAD_CC = "vertex a\nvertex b\ncube 1 a z\n"


def _listed() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> 'module.Qual.name'."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "m3cube" if path.stem == "__init__" else f"m3cube.{path.stem}"
        filename = importlib.import_module(name).__file__
        stack = [(ast.parse(path.read_text()).body, path.stem)]
        while stack:
            body, prefix = stack.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    stack.append((node.body, f"{prefix}.{node.name}"))
                elif isinstance(node, ast.FunctionDef):
                    # a decorated function's code starts at its first decorator
                    line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out[filename, line] = f"{prefix}.{node.name}"
    return out


def _runs(catalog: Path, tmp_path: Path) -> tuple[list[list[str]], list[list[str]]]:
    """(runs on the catalog and good inputs, runs that must exit 2)."""
    runs = []
    for f in sorted(catalog.iterdir()):
        path = str(f)
        runs.append(["validate", path])
        if f.suffix == ".m3":
            runs += [["classify", path], ["chargeless", path]]
            try:
                blocks = sorted(parse_manifold(f.read_text()).blocks)
            except m3cube.ParseError:
                blocks = []
            for block in blocks:
                runs += [["homology", path, "--block", block], ["euler", path, "--block", block]]
        elif f.suffix == ".ws":
            runs.append(["dual-cube", path])
        elif f.suffix == ".cc":
            runs.append(["special-check", path])
    runs += [
        ["torus-walls", "--slopes", "1/0,0/1"],
        ["torus-walls", "--slopes", "1/0,0/1,1/1", "--dual"],
    ]
    first = {}
    for argv in runs:
        if not Path(argv[1]).name.startswith("bad_"):
            first.setdefault(argv[0], argv)
    runs += [argv + ["--json"] for argv in first.values()]

    bad_ws, bad_cc = tmp_path / "bad.ws", tmp_path / "bad.cc"
    bad_ws.write_text(BAD_WS)
    bad_cc.write_text(BAD_CC)
    mixed = str(catalog / "chargeless_mixed.m3")
    bad = [
        ["validate", str(bad_ws)],
        ["dual-cube", str(bad_ws)],
        ["validate", str(bad_cc)],
        ["special-check", str(bad_cc)],
        ["validate", str(tmp_path / "missing.m3")],
        ["dual-cube", str(catalog / "crossing2.ws"), "--budget", "1"],
        ["dual-cube", str(catalog / "crossing2.ws"), "--budget", "0"],
        ["torus-walls", "--slopes", "1/0,0/1", "--dual", "--budget", "1"],
        ["torus-walls", "--slopes", "1/0,1/0"],
        ["torus-walls", "--slopes", "1/0", "--window", "-1"],
        ["torus-walls", "--slopes", "x"],
        ["homology", mixed, "--block", "nope"],
        ["homology", mixed, "--block", "H"],
        ["euler", str(catalog / "sfs_boundary.m3"), "--block", "M"],
    ]
    bad += [argv for argv in runs if Path(argv[1]).name.startswith("bad_")]
    return runs, bad


def _reached(runs: list[list[str]]) -> tuple[set, dict]:
    """The (file, first line) of every code object the runs call, and each
    run's exit code."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("m3cube"):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):  # a cached call runs no code
                    obj.cache_clear()
    seen = set()
    add = seen.add
    codes = {}
    previous = sys.gettrace()
    # a global trace function sees each Python call; returning None skips
    # the lines inside it
    sys.settrace(lambda frame, event, arg: add(frame.f_code))
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[tuple(argv)] = cli.main(argv)
    finally:
        sys.settrace(previous)
    return {(c.co_filename, c.co_firstlineno) for c in seen}, codes


def test_every_function_is_reached(catalog, tmp_path):
    listed = _listed()
    runs, bad = _runs(catalog, tmp_path)
    reached, codes = _reached(runs + [argv for argv in bad if argv not in runs])

    assert {argv: code for argv, code in codes.items() if code not in (0, 1, 2)} == {}
    assert {tuple(argv): codes[tuple(argv)] for argv in bad} == {tuple(a): 2 for a in bad}

    names = {name: key for key, name in listed.items()}
    assert sorted(set(ALLOWED) - set(names)) == [], "allowed but not in src"
    assert sorted(n for n in ALLOWED if names[n] in reached) == [], "allowed but reached"
    unreached = sorted(name for key, name in listed.items() if key not in reached)
    assert [n for n in unreached if n not in ALLOWED] == []
