"""m3cube benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload jsj_ring --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each command is one in-process call to ``m3cube.cli.main(argv)``
with stdout captured: a closed loop with one client, so the interpreter's
own start-up is left out. ``--trace 0`` repeats passes over the workload's
ladder, with its small-input set between passes, until ``--seconds`` have
passed, and prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes for the same time and prints the per-layer
metrics instead. Every command's exit code and output are checked; the
last line of stdout is the JSON result. README.md next to this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
SMALL_SAMPLES = 1000
COMMAND_CAP_S = 60.0  # a command slower than this counts as failed
LAYERS = (
    "cli", "fileformats", "manifold", "decomposition",
    "homology", "charge", "wallspace", "cubecomplex",
)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "large_cmd_s": "s",
    "small_cmd_ms_p50": "ms",
    "small_cmd_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.scaling_exp": "1",
    "fileformats.parse_s": "s",
    "fileformats.serialize_s": "s",
    "fileformats.bytes_in": "bytes",
    "fileformats.bytes_out": "bytes",
    "manifold.validate_s": "s",
    "manifold.scan_s": "s",
    "manifold.scan_calls": "count",
    "decomposition.modify_jsj_s": "s",
    "decomposition.interior_blocks_s": "s",
    "decomposition.interior_blocks_per_cmd": "count",
    "homology.snf_s": "s",
    "homology.snf_calls": "count",
    "homology.snf_cells": "count",
    "homology.presentations_per_block": "count",
    "homology.lattice_s": "s",
    "homology.witness_s": "s",
    "homology.solve_s": "s",
    "charge.self_s": "s",
    "charge.blocks_tested": "count",
    "charge.chargeless_blocks": "count",
    "wallspace.dual_s": "s",
    "wallspace.arrangement_s": "s",
    "wallspace.validate_s": "s",
    "wallspace.walls_cross_calls": "count",
    "wallspace.orientations": "count",
    "wallspace.cubes": "count",
    "wallspace.cubes_per_s": "1/s",
    "cubecomplex.validate_per_cmd": "count",
    "cubecomplex.squares_per_cmd": "count",
    "cubecomplex.squares_s": "s",
    "cubecomplex.edges_s": "s",
    "cubecomplex.hyperplanes_s": "s",
    "cubecomplex.special_s": "s",
    "cubecomplex.npc_s": "s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER.update({f"{layer}.share": "ratio" for layer in LAYERS})
PER_LAYER.update({f"{layer}.largest_share": "ratio" for layer in LAYERS})


class Runner:
    """Runs CLI commands in process, checks them and counts failures."""

    def __init__(self):
        self.cli = None
        self.attempted = 0
        self.failures: list[str] = []

    def load(self) -> None:
        """Import m3cube afresh from src/."""
        for name in [m for m in sys.modules if m == "m3cube" or m.startswith("m3cube.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("m3cube.cli")

    def run(self, cmd: workloads.Cmd, tracer: spans.Tracer | None = None, cmd_id=None) -> float:
        """Run one command; return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        problem = None
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(cmd.argv)
                else:
                    tracer.cmd = cmd_id
                    code = tracer.span(spans.COMMAND, self.cli.main, cmd.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is a failed command, not a failed run
                problem = f"raised {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if problem is None and code != cmd.code:
            problem = f"exit code {code}, expected {cmd.code}: {err.getvalue().strip()[:200]}"
        if problem is None and elapsed > COMMAND_CAP_S:
            problem = f"took {elapsed:.1f} s, over the {COMMAND_CAP_S} s cap"
        if problem is None and cmd.check is not None:
            try:
                problem = cmd.check(out.getvalue())
            except (ValueError, IndexError) as e:
                problem = f"unreadable output: {e!r}"
        if problem is None and cmd.save is not None:
            cmd.save.write_text(out.getvalue())
        if problem is not None:
            self.failures.append(f"{cmd.name}: {problem}")
        return elapsed

    def ladder_pass(self, ladder, tracer=None, small=None) -> dict[str, float]:
        """Time each ladder command. With `small`, a (commands, latencies)
        pair, run the small set after every ladder command and append its
        latencies in ms, so those samples spread over the whole run."""
        times = {}
        for i, cmd in enumerate(ladder):
            gc.collect()
            times[cmd.name] = self.run(cmd, tracer, i)
            if small is not None:
                commands, latencies = small
                latencies += [1000 * self.run(c) for c in commands]
        return times


def set_up(runner: Runner, name: str, seed: int, workdir: Path):
    """Import m3cube, generate the inputs and warm up; return (seconds, workload)."""
    start = time.perf_counter()
    runner.load()
    workload = workloads.build(name, ROOT, workdir, seed)
    for cmd in workload.prep:
        runner.run(cmd)
    for cmd in workload.small:
        runner.run(cmd)
    return time.perf_counter() - start, workload


def measure(runner: Runner, workload: workloads.Workload, seconds: float):
    deadline = time.perf_counter() + seconds
    passes, small = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(runner.ladder_pass(workload.ladder, small=(workload.small, small)))
    while len(small) < SMALL_SAMPLES:
        small += [1000 * runner.run(cmd) for cmd in workload.small]
    return passes, small


def end_to_end(setups, passes, small, largest) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)."""
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (statistics.median(sum(p.values()) for p in passes), len(passes)),
        "large_cmd_s": (statistics.median(p[largest] for p in passes), len(passes)),
        "small_cmd_ms_p50": (statistics.median(small), len(small)),
        "small_cmd_ms_p90": (statistics.quantiles(small, n=10)[-1], len(small)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def scaling_exponent(workload: workloads.Workload, passes) -> float:
    """Log-log slope of command time between the two largest series rungs."""
    series = sorted((c for c in workload.ladder if c.size is not None), key=lambda c: c.size)
    a, b = series[-2], series[-1]
    ta = statistics.median(p[a.name] for p in passes)
    tb = statistics.median(p[b.name] for p in passes)
    return math.log(tb / ta) / math.log(b.size / a.size)


def _last_count(counts_by_cmd, ladder_ids, name: str) -> tuple[int, object]:
    """Calls of `name` in the last ladder command that makes any, and its id."""
    for i in reversed(ladder_ids):
        if counts_by_cmd[i][name]:
            return counts_by_cmd[i][name], i
    return 0, None


def layer_metrics(tracer: spans.Tracer, workload: workloads.Workload) -> dict[str, float]:
    """Per-layer figures of one traced pass (ladder plus catalog sweep)."""
    ladder_ids = range(len(workload.ladder))
    largest_id = next(i for i, c in enumerate(workload.ladder) if c.name == workload.largest)
    self_s: dict[str, float] = defaultdict(float)
    ladder_layer: dict[str, float] = defaultdict(float)
    largest_layer: dict[str, float] = defaultdict(float)
    counts_by_cmd: dict[object, Counter] = defaultdict(Counter)
    for name, cmd, ns in tracer.self_times():
        seconds = ns / 1e9
        self_s[name] += seconds
        counts_by_cmd[cmd][name] += 1
        if cmd in ladder_ids:
            ladder_layer[spans.layer_of(name)] += seconds
            if cmd == largest_id:
                largest_layer[spans.layer_of(name)] += seconds
    dual_total = sum(
        (end - start) / 1e9
        for name, _p, _c, start, end in tracer.spans
        if name == "wallspace.dual_cube_complex"
    )

    def total(*names: str) -> float:
        return sum(self_s[n] for n in names)

    def prefixed(prefix: str) -> float:
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    calls = Counter(name for name, _p, _c, _s, _e in tracer.spans)
    interior_calls, _ = _last_count(counts_by_cmd, ladder_ids, "decomposition.interior_blocks")
    blocks, block_cmd = _last_count(counts_by_cmd, ladder_ids, "charge.is_chargeless_block")
    presentations = counts_by_cmd[block_cmd]["homology.presentation_h1"] if blocks else 0
    validations, _ = _last_count(counts_by_cmd, ladder_ids, "cubecomplex.validate_complex")
    squares, _ = _last_count(counts_by_cmd, ladder_ids, "cubecomplex.derived_squares")

    out = {
        "cli.self_s": total(spans.COMMAND),
        "fileformats.parse_s": prefixed("fileformats.parse_"),
        "fileformats.serialize_s": prefixed("fileformats.serialize_"),
        "fileformats.bytes_in": tracer.bytes_in,
        "fileformats.bytes_out": tracer.bytes_out,
        "manifold.validate_s": total("manifold.validate"),
        "manifold.scan_s": total(*(f"manifold.{m}" for m in spans.SCAN_METHODS)),
        "manifold.scan_calls": sum(calls[f"manifold.{m}"] for m in spans.SCAN_METHODS),
        "decomposition.modify_jsj_s": total("decomposition.modify_jsj"),
        "decomposition.interior_blocks_s": total("decomposition.interior_blocks"),
        "decomposition.interior_blocks_per_cmd": interior_calls,
        "homology.snf_s": total("homology.smith_normal_form"),
        "homology.snf_calls": calls["homology.smith_normal_form"],
        "homology.snf_cells": tracer.snf_cells,
        "homology.presentations_per_block": presentations / blocks if blocks else 0,
        "homology.lattice_s": total("homology.kernel_lattice"),
        "homology.witness_s": total("homology.all_nonzero_vector", "homology.vanishing_coordinate"),
        "homology.solve_s": total("homology.solve_column_image"),
        "charge.self_s": prefixed("charge."),
        "charge.blocks_tested": calls["charge.is_chargeless_block"],
        "charge.chargeless_blocks": tracer.chargeless_blocks,
        "wallspace.dual_s": total("wallspace.dual_cube_complex"),
        "wallspace.arrangement_s": total("wallspace.torus_line_wallspace"),
        "wallspace.validate_s": total("wallspace.validate_wallspace"),
        "wallspace.walls_cross_calls": calls["wallspace.walls_cross"],
        "wallspace.orientations": tracer.orientations,
        "wallspace.cubes": tracer.cubes,
        "wallspace.cubes_per_s": tracer.cubes / dual_total if dual_total else 0,
        "cubecomplex.validate_per_cmd": validations,
        "cubecomplex.squares_per_cmd": squares,
        "cubecomplex.squares_s": total("cubecomplex.derived_squares"),
        "cubecomplex.edges_s": total("cubecomplex.derived_edges"),
        "cubecomplex.hyperplanes_s": total("cubecomplex.hyperplanes"),
        "cubecomplex.special_s": total("cubecomplex.specialness_report"),
        "cubecomplex.npc_s": total("cubecomplex.check_npc"),
    }
    ladder_total = sum(ladder_layer.values())
    largest_total = sum(largest_layer.values())
    for layer in LAYERS:
        out[f"{layer}.share"] = ladder_layer[layer] / ladder_total
        out[f"{layer}.largest_share"] = largest_layer[layer] / largest_total
    return out


def trace(runner: Runner, workload: workloads.Workload, seconds: float) -> dict[str, tuple[float, int]]:
    sweep = workloads.catalog_sweep(ROOT)
    deadline = time.perf_counter() + seconds
    untraced, traced, figures = [], [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.ladder_pass(workload.ladder))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(runner.ladder_pass(workload.ladder, tracer))
            for j, cmd in enumerate(sweep):
                runner.run(cmd, tracer, ("sweep", j))
        finally:
            tracer.uninstall()
        figures.append(layer_metrics(tracer, workload))
    out = {
        name: (statistics.median(f[name] for f in figures), len(figures))
        for name in figures[0]
    }
    out["cli.scaling_exp"] = (scaling_exponent(workload, untraced), len(untraced))
    overhead = statistics.median(sum(p.values()) for p in traced) / statistics.median(
        sum(p.values()) for p in untraced
    ) - 1
    out["trace.overhead_frac"] = (overhead, len(traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "m3cube" / "cli.py").is_file():
        print(f"no m3cube sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner()
    passes = []
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting a file in place can
            # wait for the file system to flush the old contents
            inputs = workdir / f"setup-{i}"
            inputs.mkdir()
            seconds, workload = set_up(runner, args.workload, args.seed, inputs)
            setups.append(seconds)
        if args.trace:
            metrics = trace(runner, workload, args.seconds)
            units = PER_LAYER
        else:
            passes, small = measure(runner, workload, args.seconds)
            metrics = end_to_end(setups, passes, small, workload.largest)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(
        f"{args.workload} seed {args.seed}: {runner.attempted} commands,"
        f" {failed} failed (failed_frac {failed / runner.attempted:.4f})"
    )
    for name, (value, samples) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={samples}")
    for cmd in workload.ladder if passes else ():
        median = statistics.median(p[cmd.name] for p in passes)
        print(f"  ladder {cmd.name:33s} {median:14.6g} s      n={len(passes)}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
