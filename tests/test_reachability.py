"""Reachability gate: every statement in a src function runs under the corpus.

The listing comes from the AST of each module under ``src/m3cube``: the
statements inside its module-level functions and class methods (nested
closures count as part of their enclosing function), docstrings left out.
The run calls ``cli.main`` in process on every run of ``corpus.py`` under
a ``sys.settrace`` hook that records the line events in src. A statement is
reached when a line event fires anywhere on its own lines: every line of a
simple statement, the header lines of a compound one. Python 3.10 and 3.11
may put that event on different lines of one statement, but both fire it.

A listed statement that no run reaches fails the test unless ``ALLOWED``
names its function, or the pair (function, statement text), with one of
the four reasons in ``REASONS``. The text is the statement's source with
whitespace collapsed, the header alone for a compound statement. An error
branch that some bad input reaches belongs in the corpus instead.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import m3cube
from m3cube import cli

from corpus import runs

PACKAGE = Path(m3cube.__file__).parent

CRITERION = "an acceptance criterion calls it"
PERFBENCH = "perfbench/spans.py looks it up by name"
SELF_CHECK = "a self-check that only a bug can fail"
GUARD = "a guard on input from a library caller"
REASONS = (CRITERION, PERFBENCH, SELF_CHECK, GUARD)

ALLOWED = {
    "wallspace.walls_cross": (PERFBENCH, "EXTRA"),
    "cubecomplex.derived_squares": (PERFBENCH, "EXTRA"),
    "cubecomplex.derived_edges": (PERFBENCH, "EXTRA"),
    "manifold.ManifoldGraph.torus": (PERFBENCH, "SCAN_METHODS"),
    "decomposition.modify_jsj": (CRITERION, "5 modifies the catalog graphs"),
    "decomposition._fresh_id": (CRITERION, "5, through modify_jsj"),
    "charge.fill_along_slopes": (CRITERION, "5 fills along the witness slopes"),
    "homology.LatticeBasis.vectors": (CRITERION, "3 reads the lattice weights"),
    "decomposition.helly_intersection": (CRITERION, "8 tests the Helly property"),
    "decomposition._check_tree": (CRITERION, "8, through helly_intersection"),
    "decomposition.Tree.adjacency": (CRITERION, "8, through helly_intersection"),
    ("cli.main", 'print("internal error:", file=sys.stderr)'): (SELF_CHECK, "exit 3"),
    ("cli.main", "traceback.print_exc()"): (SELF_CHECK, "exit 3"),
    ("cli.main", "return 3"): (SELF_CHECK, "exit 3"),
    (
        "charge.is_chargeless_block",
        'raise AssertionError( f"witness for {block_id} failed the substitution check" )',
    ): (SELF_CHECK, "the witness substitution"),
    # classify_vcs, adjacent_fiber_slopes and is_chargeless_block take any
    # graph: acceptance criterion 3 builds its graphs without the parser
    (
        "charge.adjacent_fiber_slopes",
        'raise InputError(f"block {block_id} has hyperbolic neighbor {there.block_id}")',
    ): (GUARD, "a block that is not interior"),
    ("charge.is_chargeless_block", 'raise InputError(f"unknown block {block_id}")'): (
        GUARD, "an id not in the graph",
    ),
    (
        "charge.is_chargeless_block",
        'raise InputError(f"block {block_id} is not Seifert fibered")',
    ): (GUARD, "a hyperbolic block"),
    ("charge.is_chargeless_block", 'raise InputError(f"block {block_id} is not interior")'): (
        GUARD, "a block with a boundary or a hyperbolic neighbor",
    ),
    (
        "charge.is_chargeless_block",
        'raise InputError(f"block {block_id} does not glue each boundary index once")',
    ): (GUARD, "a graph that skipped validate"),
    ("charge.classify_vcs", 'raise InputError(f"unknown geometry label {label!r}")'): (
        GUARD, "a graph that skipped validate",
    ),
    (
        "manifold._block_problems",
        'add(f"unknown block data {type(data).__name__}")',
    ): (GUARD, "block data of neither kind"),
    (
        "manifold.GluingMatrix.inverse",
        'raise InputError(f"gluing with det {det} is not invertible over Z")',
    ): (GUARD, "a matrix that skipped validate"),
    (
        "manifold.fiber_slope",
        'raise InputError( f"boundary index {boundary_index} out of range (block has {b.num_boundary})" )',
    ): (GUARD, "an end that skipped validate"),
    ("manifold.Slope.__post_init__", 'raise InputError("slope (0, 0) is not a curve")'): (
        GUARD, "the CLI builds slopes through slope_normalize",
    ),
    (
        "manifold.Slope.__post_init__",
        'raise InputError(f"slope ({self.p}, {self.q}) is not primitive")',
    ): (GUARD, "the CLI builds slopes through slope_normalize"),
    (
        "manifold.Slope.__post_init__",
        'raise InputError(f"slope ({self.p}, {self.q}) is not in normal form")',
    ): (GUARD, "the CLI builds slopes through slope_normalize"),
    ("homology.IntMatrix.from_rows", 'raise InputError("ragged rows")'): (GUARD, "ragged rows"),
    (
        "homology.AbelianPresentation.boundary_index",
        'raise InputError(f"no boundary generator {k}")',
    ): (GUARD, "an index past the block's boundary"),
    (
        "wallspace.validate_wallspace",
        'problems.append(Problem(("chambers",), None, "repeated chamber ids"))',
    ): (GUARD, "the parser numbers chambers 0 .. n-1"),
    (
        "wallspace.dual_cube_complex",
        'raise InputError("invalid wallspace: " + "; ".join(ws.report.problems))',
    ): (GUARD, "the parser rejects an invalid wallspace first"),
    ("wallspace.torus_line_wallspace", 'raise InputError("need at least one slope")'): (
        GUARD, "the CLI parses at least one slope",
    ),
    (
        "cubecomplex.CubeComplex.index",
        'raise InputError("invalid cube complex: " + "; ".join(self.report.problems))',
    ): (GUARD, "the parser rejects an invalid complex first"),
}


def _own_lines(node: ast.stmt) -> range:
    """A simple statement's lines, or a compound statement's header."""
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return range(node.lineno, node.end_lineno + 1)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, max(node.lineno, body[0].lineno - 1) + 1)


def _statements() -> list[tuple[str, range, str, str]]:
    """(file, own lines, 'module.Qual.name', text) of each statement inside
    a src function."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "m3cube" if path.stem == "__init__" else f"m3cube.{path.stem}"
        filename = importlib.import_module(name).__file__
        source = path.read_text()
        lines = source.splitlines()
        stack = [(ast.parse(source).body, path.stem)]
        while stack:
            body, prefix = stack.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    stack.append((node.body, f"{prefix}.{node.name}"))
                elif isinstance(node, ast.FunctionDef):
                    for stmt in ast.walk(node):
                        if stmt is node or not isinstance(stmt, ast.stmt):
                            continue
                        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                            continue  # a docstring runs no code
                        own = _own_lines(stmt)
                        text = " ".join(lines[own.start - 1][stmt.col_offset:].split())
                        for line in own[1:]:
                            text += " " + " ".join(lines[line - 1].split())
                        out.append((filename, own, f"{prefix}.{node.name}", text))
    return out


def _reached(argvs: list[list[str]], files: set[str]) -> tuple[set, dict]:
    """The (file, line) of every line event in ``files`` over the runs, and
    each run's exit code."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("m3cube"):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):  # a cached call runs no code
                    obj.cache_clear()
    seen = set()
    add = seen.add

    def local(frame, event, arg):
        add((frame.f_code.co_filename, frame.f_lineno))
        return local

    codes = {}
    previous = sys.gettrace()
    # a global trace function sees each Python call; only src frames get
    # the local function that sees their lines
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[tuple(argv)] = cli.main(argv)
    finally:
        sys.settrace(previous)
    return seen, codes


def test_every_statement_is_reached(tmp_path):
    statements = _statements()
    corpus = runs(tmp_path)
    reached, codes = _reached([argv for argv, _bad in corpus], {s[0] for s in statements})

    assert {argv: code for argv, code in codes.items() if code not in (0, 1, 2)} == {}
    bad = [tuple(argv) for argv, is_bad in corpus if is_bad]
    assert {argv: codes[argv] for argv in bad} == dict.fromkeys(bad, 2)

    assert sorted(k for k, (reason, _why) in ALLOWED.items() if reason not in REASONS) == []
    listed, entered, unreached = set(), set(), set()
    for filename, own, fn, text in statements:
        listed |= {fn, (fn, text)}
        if any((filename, line) in reached for line in own):
            entered.add(fn)
        else:
            unreached.add((fn, text))
    assert sorted(set(ALLOWED) - listed, key=str) == [], "allowed but not in src"
    # a whole function is allowed only while none of it runs
    stale = [k for k in ALLOWED if k in entered or (isinstance(k, tuple) and k not in unreached)]
    assert sorted(stale, key=str) == [], "allowed but reached"
    assert sorted(k for k in unreached if k[0] not in ALLOWED and k not in ALLOWED) == []
