"""Compare what two source trees print on the CLI corpus.

    python tests/parity.py <parent-src> <change-src>

Each argument is a directory that holds the ``m3cube`` package, such as a
checkout's ``src``. The corpus of ``corpus.py`` is written once into a
temporary directory, with the catalog of the change tree, so both trees
read the same files and the paths in their messages match. Each tree runs
the whole corpus in one child process, each run through ``cli.main`` in
process. Each child's address space is capped at 2 GB (``RLIMIT_AS``), so
an input that allocates without bound raises ``MemoryError`` inside its
run, which ``cli.main`` reports as exit 3, a difference like any other,
instead of taking the child and the report with it. The tool prints the
run count and, for every argv whose stdout, stderr or exit code differs,
the exit codes and a diff of each stream that differs. It exits 1 when
some run differs.
"""

from __future__ import annotations

import difflib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import contextlib, io, json, sys
import m3cube
from m3cube import cli
out = []
for argv in json.load(sys.stdin):
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        try:
            code = cli.main(argv)
        except SystemExit as x:
            code = x.code
    out.append([o.getvalue(), e.getvalue(), code])
json.dump({"package": m3cube.__file__, "runs": out}, sys.stdout)
"""


ADDRESS_SPACE = 2 * 1024**3  # bytes a child may map


def cap_address_space() -> None:
    """Cap this process's address space at ``ADDRESS_SPACE``, or at the hard
    limit if that is lower; the ``preexec_fn`` of every child."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def outputs(src: Path, argvs: list[list[str]], cwd: Path) -> list[tuple[str, str, int]]:
    """(stdout, stderr, exit code) of each argv under the m3cube in src."""
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, cwd=cwd,
        preexec_fn=cap_address_space,
    )
    if child.returncode:
        raise RuntimeError(f"the child for {src} exited {child.returncode}:\n{child.stderr}")
    result = json.loads(child.stdout)
    if not Path(result["package"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{src} has no m3cube package: {result['package']} ran instead")
    return [tuple(run) for run in result["runs"]]


def differences(parent: list, change: list) -> list[int]:
    """Indices of the runs whose stdout, stderr or exit code differ."""
    return [i for i, (a, b) in enumerate(zip(parent, change, strict=True)) if a != b]


def report(argv: list[str], parent: tuple, change: tuple, names: tuple[str, str]) -> str:
    lines = [" ".join(argv), f"  exit {parent[2]} | {change[2]}"]
    for stream, a, b in zip(("stdout", "stderr"), parent, change):
        if a != b:
            diff = difflib.unified_diff(
                a.splitlines(), b.splitlines(),
                f"{stream} {names[0]}", f"{stream} {names[1]}", lineterm="",
            )
            lines += ["  " + line for line in diff]
    return "\n".join(lines)


def main(args: list[str]) -> int:
    if len(args) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_src, change_src = args
    sys.path.insert(0, str(Path(change_src).resolve()))
    from corpus import runs

    with tempfile.TemporaryDirectory() as tmp:
        argvs = [argv for argv, _bad in runs(Path(tmp))]
        parent = outputs(Path(parent_src), argvs, Path(tmp))
        change = outputs(Path(change_src), argvs, Path(tmp))
    differ = differences(parent, change)
    print(f"{len(argvs)} runs, {len(differ)} differ")
    for i in differ:
        print(report(argvs[i], parent[i], change[i], (parent_src, change_src)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
