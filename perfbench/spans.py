"""Spans recorded around m3cube's layer boundaries, from outside the package.

``Tracer.install`` replaces functions with recording wrappers wherever a
module of the package refers to them, so a call through an imported name
and a call through the defining module's own globals are both seen. It
wraps:

- every function that ``cli``, ``charge``, ``fileformats`` and
  ``cubecomplex`` import from another m3cube module;
- the module-level helpers named in ``EXTRA``, which a module calls
  through its own globals;
- the ``ManifoldGraph`` scan methods in ``SCAN_METHODS``.

A span is (name, parent span, command id, start ns, end ns); spans and
the counters below stay in memory until the run reads them. Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

IMPORTERS = ("cli", "charge", "fileformats", "cubecomplex")
EXTRA = (
    ("homology", "smith_normal_form"),
    ("homology", "presentation_h1"),
    ("wallspace", "walls_cross"),
    ("wallspace", "validate_wallspace"),
    ("cubecomplex", "derived_squares"),
    ("cubecomplex", "derived_edges"),
    ("cubecomplex", "validate_complex"),
    ("cubecomplex", "hyperplanes"),
    ("charge", "is_chargeless_block"),
)
SCAN_METHODS = ("ends_of", "neighbors", "torus")
COMMAND = "cli.main"  # the span around one whole command


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, cmd, start, end]
        self.bytes_in = 0
        self.bytes_out = 0
        self.snf_cells = 0
        self.orientations = 0
        self.cubes = 0
        self.chargeless_blocks = 0
        self.cmd = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else None, self.cmd, 0, 0]
        self.spans.append(record)
        self._stack.append(index)
        record[3] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = perf_counter_ns()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name: str, args, result) -> None:
        if name.startswith("fileformats.parse_"):
            self.bytes_in += len(args[0].encode("utf-8"))
        elif name.startswith("fileformats.serialize_"):
            self.bytes_out += len(result.encode("utf-8"))
        elif name == "homology.smith_normal_form":
            self.snf_cells += args[0].nrows * args[0].ncols
        elif name == "wallspace.dual_cube_complex":
            self.orientations += len(result.orientations)
            self.cubes += len(result.complex.cubes)
        elif name == "charge.is_chargeless_block":
            self.chargeless_blocks += bool(result.chargeless)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap the boundary functions everywhere the package refers to them."""
        modules = {
            name[len("m3cube."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("m3cube.") and mod is not None
        }
        targets = set()
        for importer in IMPORTERS:
            for obj in vars(modules[importer]).values():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("m3cube.")
                    and obj.__module__ != f"m3cube.{importer}"
                ):
                    targets.add(obj)
        for mod_name, fn_name in EXTRA:
            targets.add(getattr(modules[mod_name], fn_name))
        wrappers = {
            fn: self._wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
            for fn in targets
        }
        for mod in list(modules.values()) + [sys.modules["m3cube"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        graph = modules["manifold"].ManifoldGraph
        for method in SCAN_METHODS:
            original = vars(graph)[method]
            self._undo.append((graph, method, original))
            setattr(graph, method, self._wrap(f"manifold.{method}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def self_times(self) -> list[tuple[str, object, int]]:
        """(name, command id, self time in ns) for every span."""
        child = defaultdict(int)
        for name, parent, _cmd, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (name, cmd, end - start - child[i])
            for i, (name, _parent, cmd, start, end) in enumerate(self.spans)
        ]
