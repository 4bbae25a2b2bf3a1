"""Self-tests of the benchmark: its inputs, its closed forms and its checker.

    python3 -m pytest perfbench

The brute-force recounts below read the generated text themselves and do
not import m3cube.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import families  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def cli(*argv: str) -> tuple[int, str]:
    from m3cube import cli as m3cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = m3cli.main(list(argv))
    return code, out.getvalue()


# --- brute force, without m3cube ---------------------------------------------


def parse_walls(text: str) -> tuple[int, list[tuple[frozenset, frozenset]]]:
    n, walls = 0, []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "chambers":
            n = int(tokens[1])
        else:
            u, v = (frozenset(map(int, t[2:].split(","))) for t in tokens[2:4])
            walls.append((u, v))
    return n, walls


def brute_dual(walls) -> families.DualCase:
    """Sageev dual by enumeration: vertices are the choices of one half per
    wall that pairwise intersect; a cube is a vertex plus a set of walls on
    its first half whose every combination of flips is again a vertex."""
    vertices = {
        o
        for o in itertools.product((0, 1), repeat=len(walls))
        if all(walls[i][o[i]] & walls[j][o[j]] for i, j in itertools.combinations(range(len(walls)), 2))
    }
    by_dim: dict[int, int] = {}
    for o in vertices:
        free = [w for w in range(len(walls)) if o[w] == 0]
        for d in range(1, len(free) + 1):
            for subset in itertools.combinations(free, d):
                corners = (
                    tuple(1 if w in flipped else o[w] for w in range(len(walls)))
                    for r in range(d + 1)
                    for flipped in itertools.combinations(subset, r)
                )
                if all(c in vertices for c in corners):
                    by_dim[d] = by_dim.get(d, 0) + 1
    return families.DualCase(len(vertices), by_dim)


def torus_walls(slopes, window: int):
    """Chambers of the lines q*x - p*y = c, |c| <= window, found by sampling
    a grid finer than the smallest chamber and offset from every line."""
    lines = [(q, -p, c) for p, q in slopes for c in range(-window, window + 1)]
    reach = 4 * (2 * window + 3)
    signs = set()
    for i in range(-reach, reach):
        for j in range(-reach, reach):
            x, y = Fraction(i, 4) + Fraction(1, 9), Fraction(j, 4) + Fraction(1, 11)
            signs.add(tuple(a * x + b * y > c for a, b, c in lines))
    chambers = sorted(signs)
    return [
        (
            frozenset(k for k, s in enumerate(chambers) if not s[w]),
            frozenset(k for k, s in enumerate(chambers) if s[w]),
        )
        for w in range(len(lines))
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_crossing_closed_form_matches_brute_force(k):
    for seed in SEEDS:
        _, walls = parse_walls(families.crossing_wallspace(k, random.Random(seed)))
        assert brute_dual(walls) == families.crossing_dual(k)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_star_closed_form_matches_brute_force(n):
    _, walls = parse_walls(families.star_wallspace(n, random.Random(n)))
    assert brute_dual(walls) == families.star_dual(n)


@pytest.mark.parametrize("window", [0, 1])
def test_torus_closed_form_matches_brute_force(window):
    slopes = [(1, 0), (0, 1), (1, 1)]
    assert brute_dual(torus_walls(slopes, window)) == families.torus_dual(window)
    assert brute_dual(torus_walls(slopes[:2], window)) == families.torus_dual(window, families=2)


# --- generated inputs are valid and get the verdicts they claim ---------------


def test_generated_manifolds_validate_and_classify(tmp_path):
    for seed in SEEDS:
        rng = random.Random(seed)
        cases = [
            families.ring(30, rng, twisted=False),
            families.ring(60, rng, twisted=True),
            families.dipole(5, rng, sheared=False),
            families.dipole(6, rng, sheared=True),
        ]
        for i, case in enumerate(cases):
            path = tmp_path / f"case{i}.m3"
            path.write_text(case.text)
            assert cli("validate", str(path)) == (
                0, f"ok: {case.blocks} blocks, {case.tori} tori, 0 boundary\n"
            )
            code, out = cli("classify", str(path))
            assert code == (0 if case.vcs else 1)
            assert verify.classify(case)(out) is None
            for hub in case.hubs:
                assert verify.hub_homology(case)(cli("homology", str(path), "--block", hub)[1]) is None


def test_generated_wallspaces_validate(tmp_path):
    rng = random.Random(3)
    for name, text, chambers, walls in (
        ("crossing.ws", families.crossing_wallspace(5, rng), 32, 5),
        ("star.ws", families.star_wallspace(7, rng), 8, 7),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert cli("validate", str(path)) == (0, f"ok: {chambers} chambers, {walls} walls\n")


def test_ring_interior_count_does_not_depend_on_the_seed():
    counts = {len(families.ring(200, random.Random(s), twisted=True).interior) for s in range(20)}
    assert len(counts) == 1


# --- the checker catches wrong output ----------------------------------------


def test_checker_flags_corrupted_outputs(tmp_path):
    rng = random.Random(5)
    ws = tmp_path / "crossing.ws"
    ws.write_text(families.crossing_wallspace(3, rng))
    code, out = cli("dual-cube", str(ws))
    check = verify.dual(families.crossing_dual(3))
    assert code == 0 and check(out) is None
    lines = out.splitlines(keepends=True)
    assert check("".join(lines[:-1])) is not None  # a cube lost
    assert check("".join(lines[1:])) is not None  # a vertex lost

    cc = tmp_path / "crossing.cc"
    cc.write_text(out)
    code, report = cli("special-check", str(cc))
    assert code == 0 and verify.sageev_special(report) is None
    assert verify.sageev_special(report.replace("\nspecial\n", "\nnot special\n")) is not None
    assert verify.sageev_special(report.replace("npc: yes", "npc: no")) is not None

    case = families.ring(40, rng, twisted=True)
    m3 = tmp_path / "ring.m3"
    m3.write_text(case.text)
    code, out = cli("classify", str(m3))
    check = verify.classify(case)
    assert code == 1 and check(out) is None
    assert check(out.replace(": charged,", ": chargeless,", 1)) is not None
    assert check(out.replace("VCS: no", "VCS: yes", 1)) is not None
    assert check("\n".join(out.splitlines()[:-1])) is not None  # a block untested

    hub = families.dipole(4, rng, sheared=False)
    m3.write_text(hub.text)
    _, out = cli("homology", str(m3), "--block", hub.hubs[0])
    check = verify.hub_homology(hub)
    assert check(out) is None
    head, last = out.rstrip("\n").rsplit("\n", 1)
    assert check(f"{head}\n{last} + Z/2\n") is not None


def test_runner_counts_wrong_exit_codes_and_crashes():
    runner = run.Runner()
    runner.load()
    bad = workloads.catalog_dir(ROOT) / "bad_det.m3"
    runner.run(workloads.Cmd("validate bad", ["validate", str(bad)], 2))
    assert runner.failures == []
    runner.run(workloads.Cmd("validate bad, wrong code", ["validate", str(bad)], 0))
    runner.run(workloads.Cmd("usage error", ["no-such-command"], 0))
    unreadable = workloads.Cmd("unreadable", ["validate", str(bad)], 2, check=lambda out: int(out))
    runner.run(unreadable)
    assert runner.attempted == 4 and len(runner.failures) == 3


def test_catalog_small_sets_pass():
    runner = run.Runner()
    runner.load()
    for cmd in workloads.catalog_sweep(ROOT):
        runner.run(cmd)
    assert runner.failures == []


# --- the benchmark's contract --------------------------------------------------


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_run_prints_every_declared_metric(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jsj_ring", "--seed", "1",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jsj_ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
