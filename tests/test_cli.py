"""Command line driver: output text, exit codes, JSON records."""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import m3cube
from m3cube import charge, cli, cubecomplex, homology, wallspace
from m3cube.cli import main
from m3cube.cubecomplex import Cube, CubeComplex
from m3cube.fileformats import parse_complex, parse_wallspace, serialize_wallspace
from m3cube.homology import LatticeBasis
from m3cube.manifold import Slope
from m3cube.wallspace import torus_line_wallspace, validate_wallspace
from parity import cap_address_space
from test_fileformats import reference_cc
from test_wallspace import brute_force_dual, hypercube_walls, random_overlapping_wallspace


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_classify_chargeless_mixed(capsys, catalog):
    code, out, err = run(capsys, "classify", str(catalog / "chargeless_mixed.m3"))
    assert code == 0
    assert out == (
        "VCS: yes (nongeometric, chargeless)\n"
        "block B: chargeless, witness (1,1) filled-euler 0\n"
    )
    assert err == ""


def test_classify_sol(capsys, catalog):
    code, out, _ = run(capsys, "classify", str(catalog / "sol.m3"))
    assert code == 1
    assert out == "VCS: no (geometric: Sol)\n"


def test_classify_charged(capsys, catalog):
    code, out, _ = run(capsys, "classify", str(catalog / "charged_mixed.m3"))
    assert code == 1
    assert "VCS: no (nongeometric, charged)" in out
    assert "block B: charged, forced zero weight on end T2[b]" in out


def test_classify_json_record(capsys, catalog):
    code, out, _ = run(capsys, "classify", "--json", str(catalog / "chargeless_mixed.m3"))
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "classify"
    assert rec["vcs"] is True
    assert rec["reason"] == "nongeometric-chargeless"
    assert rec["geometry"] is None
    assert rec["failing_blocks"] == []
    assert rec["blocks"][0]["block"] == "B"
    assert rec["blocks"][0]["witness"] == [1, 1]
    # keys are emitted sorted, so the record text is canonical
    assert out == json.dumps(rec, sort_keys=True) + "\n"


def test_classify_geometry_gold(capsys, catalog):
    for name, expect in [("h3.m3", 0), ("e3.m3", 0), ("nil.m3", 1), ("sl2r.m3", 1)]:
        code, out, _ = run(capsys, "classify", str(catalog / name))
        assert code == expect
        assert out.startswith("VCS: yes" if expect == 0 else "VCS: no")


def test_chargeless_command(capsys, catalog):
    code, out, _ = run(capsys, "chargeless", str(catalog / "chargeless_mixed.m3"))
    assert code == 0
    assert out.startswith("chargeless: yes\n")
    code, out, _ = run(capsys, "chargeless", str(catalog / "charged_mixed.m3"))
    assert code == 1
    assert out.startswith("chargeless: no\n")
    assert "forced zero weight" in out


def test_closed_block_filled_euler_keeps_the_section_obstruction(capsys, catalog):
    # a closed block has no ends to fill, so its filled Euler number is its
    # own e = -(b + sum b_j/a_j): s3.m3 has b = -1 over (2,1)(3,1)(5,1), and
    # nil.m3 and sl2r.m3 are circle bundles with b = 1
    for name, e in (("s3.m3", "-1/30"), ("nil.m3", "-1"), ("sl2r.m3", "-1")):
        code, out, err = run(capsys, "chargeless", str(catalog / name))
        assert (code, err) == (0, "")
        assert out == f"chargeless: yes\nblock M: chargeless, witness () filled-euler {e}\n"


def test_validate_text_and_json(capsys, catalog):
    code, out, _ = run(capsys, "validate", str(catalog / "h3.m3"))
    assert code == 0
    assert out == "ok: 1 blocks, 0 tori, 1 boundary, geometry H3\n"
    code, out, _ = run(capsys, "validate", "--json", str(catalog / "crossing2.ws"))
    assert code == 0
    assert json.loads(out) == {
        "chambers": 4,
        "command": "validate",
        "kind": "wallspace",
        "ok": True,
        "walls": 2,
    }


def test_validate_whole_catalog(capsys, catalog):
    for path in sorted(catalog.iterdir()):
        if path.suffix not in (".m3", ".ws", ".cc"):
            continue
        code, _, err = run(capsys, "validate", str(path))
        if path.name.startswith("bad_"):
            assert code == 2, path.name
            assert err.startswith(path.name.split("/")[-1][:0] + str(path) + ": ")
        else:
            assert code == 0, (path.name, err)


def test_validate_reports_position(capsys, catalog):
    path = str(catalog / "bad_det.m3")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert err == f"{path}: line 3, column 17: glue determinant 2, need +1 or -1\n"


def test_homology_text(capsys, catalog):
    code, out, _ = run(capsys, "homology", str(catalog / "sfs_boundary.m3"), "--block", "M")
    assert code == 0
    assert out == (
        "block M: generators q1 q2 d1 h\n"
        "relation: 2*q1 + 1*h = 0\n"
        "relation: 3*q2 + 1*h = 0\n"
        "relation: 1*q1 + 1*q2 + 1*d1 = 0\n"
        "H1: Z\n"
    )


def test_homology_t2xi(capsys, catalog):
    code, out, _ = run(capsys, "homology", str(catalog / "t2xi.m3"), "--block", "M")
    assert code == 0
    assert out.endswith("H1: Z^2\n")


@pytest.mark.parametrize("command", ["homology", "euler"])
def test_unknown_block(capsys, catalog, command):
    path = str(catalog / "h3.m3")
    assert run(capsys, command, path, "--block", "X") == (2, "", f"{path}: unknown block 'X'\n")
    assert run(capsys, command, "--json", path, "--block", "X") == (
        2, "", f"{path}: unknown block 'X'\n"
    )


def test_homology_errors(capsys, catalog):
    code, _, err = run(capsys, "homology", str(catalog / "h3.m3"), "--block", "M")
    assert code == 2
    assert "not Seifert fibered" in err


def test_euler_command(capsys, catalog):
    code, out, _ = run(capsys, "euler", str(catalog / "s3.m3"), "--block", "M")
    assert code == 0
    assert out == "block M: euler number -1/30\n"
    code, _, err = run(capsys, "euler", str(catalog / "sfs_boundary.m3"), "--block", "M")
    assert code == 2
    assert "closed Seifert block" in err


def test_special_check_moebius(capsys, catalog):
    code, out, _ = run(capsys, "special-check", str(catalog / "moebius_square.cc"))
    assert code == 1
    assert out == (
        "hyperplane 0 (1 edge): one-sided, self-intersecting\n"
        "not special\n"
        "npc: no\n"
    )


def test_special_check_clean(capsys, catalog):
    code, out, _ = run(capsys, "special-check", str(catalog / "square.cc"))
    assert code == 0
    assert "special" in out.splitlines()
    assert "npc: yes" in out


def test_special_check_long_strip(capsys, tmp_path):
    # vertex names fall along the strip, so the parallelism unions build
    # one parent chain 3000 links long
    n = 3000
    name = lambda side, k: f"{side}{n - k:04d}"
    lines = [f"vertex {name(side, k)}" for k in range(n + 1) for side in "ab"]
    lines += [
        f"cube 2 {name('a', k)} {name('a', k + 1)} {name('b', k)} {name('b', k + 1)}"
        for k in range(n)
    ]
    path = tmp_path / "strip.cc"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "special-check", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("\nspecial\nnpc: yes\n")
    assert out.count(": clean\n") == n + 1


def cc_text(*cubes):
    """A .cc file: each vertex in order of first use, then each cube."""
    corners = [cube.split() for cube in cubes]
    lines = [f"vertex {v}" for v in dict.fromkeys(v for cs in corners for v in cs)]
    lines += [f"cube {len(cs).bit_length() - 1} " + " ".join(cs) for cs in corners]
    return "\n".join(lines) + "\n"


TWO_CUBES = ("v a b c1 v1 a1 b1 d1", "v a b c2 v2 a2 b2 d2")

# (file name, text, last lines of special-check): each cell counts once,
# however many records list it, whether or not its faces are listed
NPC_PROBES = [
    # the squares v a b c1 and v a b c2 share corner v and both its edges
    ("two_cubes.cc", cc_text(*TWO_CUBES), "npc: no\n"),
    ("two_cubes_squares.cc", cc_text(*TWO_CUBES, "v a b c1", "v a b c2"), "npc: no\n"),
    ("square_twice.cc", cc_text("a b c d", "a b c d"), "special\nnpc: yes\n"),
    # a symmetry of the cube fixes its corner map and swaps corners 0 and 7
    ("symmetric_cube.cc", cc_text("x p q r r q p x"), "npc: no\n"),
    # the listed square and the cube's face 101 102 111 112 share corner 101
    # and both its edges
    (
        "square_on_cube.cc",
        cc_text("101 102 201 202 111 112 211 212", "102 110 101 111"),
        "npc: no\n",
    ),
]


@pytest.mark.parametrize("name,text,tail", NPC_PROBES, ids=[p[0] for p in NPC_PROBES])
def test_special_check_counts_each_cell_once(capsys, tmp_path, name, text, tail):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "special-check", str(path))
    assert err == ""
    assert out.endswith("\n" + tail)


def test_special_check_work_counts(capsys, catalog, monkeypatch, tmp_path):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(cubecomplex, "_build_index")
    counting(cubecomplex, "validate_complex")
    counting(wallspace, "validate_wallspace")

    # each input is validated once per command, by the parser or the
    # generator; the dual reads that verdict and its output is never checked
    for argv in (
        ["dual-cube", str(catalog / "crossing2.ws")],
        ["torus-walls", "--slopes", "1/0,0/1", "--window", "1", "--dual"],
    ):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"validate_wallspace": 1}, argv
    path = tmp_path / "crossing2.cc"
    path.write_text(run(capsys, "dual-cube", str(catalog / "crossing2.ws"))[1])

    calls.clear()
    code, out, _ = run(capsys, "special-check", str(path))
    assert (code, out.splitlines()[-2:]) == (0, ["special", "npc: yes"])
    # one index serves the pathology scan and the NPC check, and the
    # parser's validation serves the index
    assert calls["_build_index"] == 1
    assert calls["validate_complex"] == 1


def test_special_check_catalog_profiles(capsys, catalog):
    # pathology files carry exactly their designed defect
    expectations = {
        "moebius_band.cc": (1, "one-sided"),
        "folded_square.cc": (1, "self-intersecting"),
        "wrapped_annulus.cc": (1, "self-osculating"),
        "pincer.cc": (1, "inter-osculating"),
        "cube3.cc": (0, "special"),
    }
    for name, (expect_code, fragment) in expectations.items():
        code, out, _ = run(capsys, "special-check", str(catalog / name))
        assert code == expect_code, name
        assert fragment in out, name


def test_dual_cube_output_parses(capsys, catalog):
    code, out, _ = run(capsys, "dual-cube", str(catalog / "crossing2.ws"))
    assert code == 0
    c = parse_complex(out)
    assert len(c.vertices) == 4
    assert sorted(q.dim for q in c.cubes) == [1, 1, 1, 1, 2]
    # byte determinism
    code2, out2, _ = run(capsys, "dual-cube", str(catalog / "crossing2.ws"))
    assert (code2, out2) == (code, out)


def test_dual_cube_json(capsys, catalog):
    code, out, _ = run(capsys, "dual-cube", "--json", str(catalog / "crossing2.ws"))
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "dual-cube"
    assert rec["vertices"] == 4
    assert rec["dimension"] == 2


def test_dual_cube_budget(capsys, catalog, tmp_path):
    code, _, err = run(capsys, "dual-cube", "--budget", "2", str(catalog / "crossing2.ws"))
    assert code == 2
    assert err.startswith("budget exceeded:")
    # six crossing walls: 64 vertices and 3^6 - 2^6 = 665 cubes
    path = tmp_path / "crossing6.ws"
    path.write_text(
        "chambers 64\n"
        + "".join(
            f"wall w{i} U={','.join(str(c) for c in range(64) if not c >> i & 1)}"
            f" V={','.join(str(c) for c in range(64) if c >> i & 1)}\n"
            for i in range(6)
        )
    )
    code, out, err = run(capsys, "dual-cube", "--budget", "100", str(path))
    assert (code, out, err) == (2, "", "budget exceeded: more than 100 cubes\n")
    code, out, _ = run(capsys, "dual-cube", "--budget", "665", str(path))
    assert code == 0
    assert len([line for line in out.splitlines() if line.startswith("cube ")]) == 665


def oracle_cc(ws):
    """The .cc text of the brute-force dual of ws, by the writer's rule."""
    vertices, cubes = brute_force_dual(ws)
    return reference_cc(CubeComplex(tuple(range(len(vertices))), tuple(Cube(*k) for k in cubes)))


def test_dual_cube_stdout_matches_the_brute_force_dual(capsys, tmp_path):
    rng = random.Random(32)
    spaces = [hypercube_walls(k) for k in range(1, 7)]
    while len(spaces) < 46:
        ws = random_overlapping_wallspace(rng)
        if validate_wallspace(ws).ok:
            spaces.append(ws)
    path = tmp_path / "w.ws"
    for ws in spaces:
        path.write_text(serialize_wallspace(ws))
        assert run(capsys, "dual-cube", str(path)) == (0, oracle_cc(ws), "")


@pytest.mark.parametrize("slopes", ["1/0,0/1,1/1", "1/0,0/1,1/2", "1/0,0/1"])
def test_torus_walls_dual_stdout_matches_the_brute_force_dual(capsys, slopes):
    parsed = tuple(Slope(*map(int, s.split("/"))) for s in slopes.split(","))
    for window in range(3):
        expected = oracle_cc(torus_line_wallspace(parsed, window))
        argv = ("torus-walls", "--slopes", slopes, "--window", str(window), "--dual")
        assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("deep")])
def test_internal_error_exits_3(capsys, catalog, monkeypatch, error):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(catalog / "h3.m3"))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:\nTraceback (most recent call last):\n")
    assert err.endswith(f"{type(error).__name__}: {error}\n")


@pytest.mark.parametrize(
    "sub,text,block",
    [
        ("classify", None, "B"),  # catalog chargeless_mixed.m3
        # a closed block with e = 0 has the row (1, 1, -2), checked like any other
        ("chargeless", "block M seifert genus=0 boundaries=0 exceptional=(2,1)(2,-1) b=0\n", "M"),
    ],
    ids=["chargeless_mixed", "closed"],
)
def test_failed_witness_check_exits_3(capsys, catalog, tmp_path, monkeypatch, sub, text, block):
    # one corrupted relation coefficient is a bug, never a "charged" exit 1
    def corrupted(dim, rows):
        first = rows[0]
        return LatticeBasis(dim, ((*first[:-1], first[-1] + 1),) + rows[1:])

    path = catalog / "chargeless_mixed.m3"
    if text is not None:
        path = tmp_path / "closed.m3"
        path.write_text(text)
    monkeypatch.setattr(charge, "LatticeBasis", corrupted)
    code, out, err = run(capsys, sub, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("internal error:\nTraceback (most recent call last):\n")
    assert err.endswith(f"AssertionError: witness for {block} failed the substitution check\n")


def test_surface_genus_costs_no_snf_work(capsys, tmp_path):
    # the 2g surface generators are in no relation and must cost no SNF
    # work: a U over all 6003 generators of genus 3000 has 36 million entries;
    # classify and chargeless must not even list them
    def ring(genus):
        path = tmp_path / f"ring{genus}.m3"
        path.write_text(
            f"block A seifert genus={genus} boundaries=2\n"
            "block B seifert genus=0 boundaries=2\n"
            "torus T1 A.1 B.0 glue=0,1,1,0\n"
            "torus T2 B.1 A.0 glue=0,1,1,0\n"
        )
        return str(path)

    closed = tmp_path / "closed.m3"
    closed.write_text("block A seifert genus=2000 boundaries=0 b=3\n")
    for argv, last in (
        (("classify", ring(10**6)), "block B: chargeless, witness (1,1) filled-euler 0"),
        (("chargeless", ring(10**6)), "block B: chargeless, witness (1,1) filled-euler 0"),
        (("classify", ring(3000)), "block B: chargeless, witness (1,1) filled-euler 0"),
        (("homology", ring(3000), "--block", "A"), "H1: Z^6002"),
        (("chargeless", str(closed)), "block A: chargeless, witness () filled-euler -3"),
        (("homology", str(closed), "--block", "A"), "H1: Z^4000 + Z/3"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == last


def test_boundary_count_costs_no_snf_work(capsys, monkeypatch, tmp_path):
    # boundary generators d_2 ... d_p repeat the row of d_1 and are counted
    # like the surface ones: one SNF on the rows q_1, q_2, d_1, h, not a
    # 20003 x 3 matrix whose U transform has 400 million entries
    ends = 20000
    path = tmp_path / "ends.m3"
    path.write_text(
        f"block A seifert genus=1 boundaries={ends} exceptional=(2,1)(3,-1)\n"
        + "".join(f"boundary A.{k}\n" for k in range(ends))
    )
    shapes = []
    original = homology.smith_normal_form

    def counting(A):
        shapes.append((A.nrows, A.ncols))
        return original(A)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", str(path), "--block", "A")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    # Z^2 from the surface, Z^19999 from d_2 ... d_p, and the core
    # Z<q1, q2, d1, h> / (2q1 + h, 3q2 - h, q1 + q2 + d1) = Z
    assert out.splitlines()[-1] == "H1: Z^20002"
    assert len(shapes) == 1 and shapes[0][0] * shapes[0][1] <= (2 + 2) * (2 + 1)


def test_homology_refuses_more_labels_than_it_spells(capsys, tmp_path):
    # 2g + m + p + 1 labels are counted before any is built: no MemoryError
    path = tmp_path / "huge_genus.m3"
    path.write_text("block A seifert genus=100000000 boundaries=0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", str(path), "--block", "A")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "budget exceeded: more than 1000000 generators on block A\n"


def test_huge_chamber_count_is_refused_before_a_chamber_is_built(tmp_path):
    # 10**8 chambers would take gigabytes, more than the child's address space
    path = tmp_path / "huge.ws"
    path.write_text("chambers 100000000\n")
    for command in ("validate", "dual-cube"):
        child = subprocess.run(
            [sys.executable, "-m", "m3cube.cli", command, str(path)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
            env=dict(os.environ, PYTHONPATH=str(Path(m3cube.__file__).parent.parent)),
        )
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "budget exceeded: more than 1000000 chambers\n"


def test_huge_boundary_count_fails_fast(capsys, tmp_path):
    # unused ends are counted, never listed one by one
    for block, record in (
        ("S", "block S seifert genus=0 boundaries=1000000000\n"),
        ("H", "block H hyperbolic boundaries=1000000000\n"),
    ):
        path = tmp_path / "huge.m3"
        path.write_text(record)
        start = time.perf_counter()
        code, out, err = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        assert (
            f"end {block}.0: not glued and not declared as boundary"
            f" (and 999999999 more on block {block})"
        ) in err


def test_torus_walls_text(capsys):
    code, out, _ = run(capsys, "torus-walls", "--slopes", "1/0,0/1", "--window", "1")
    assert code == 0
    ws = parse_wallspace(out)
    assert len(ws.chambers) == 16
    assert [w.wall_id for w in ws.walls] == [
        "1/0@-1", "1/0@0", "1/0@1", "0/1@-1", "0/1@0", "0/1@1",
    ]


def test_torus_walls_dual(capsys):
    code, out, _ = run(capsys, "torus-walls", "--slopes", "1/0,0/1", "--dual")
    assert code == 0
    c = parse_complex(out)
    assert len(c.vertices) == 16
    assert len([q for q in c.cubes if q.dim == 2]) == 9


def test_torus_walls_json(capsys):
    code, out, _ = run(capsys, "torus-walls", "--json", "--slopes", "2/1")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "torus-walls"
    assert rec["chambers"] == 4
    assert rec["walls"] == 3


def test_torus_walls_bad_slopes(capsys):
    code, _, err = run(capsys, "torus-walls", "--slopes", "banana")
    assert code == 2
    assert "slope" in err
    code, _, err = run(capsys, "torus-walls", "--slopes", "0/0")
    assert code == 2


def test_torus_walls_budget(capsys):
    code, _, err = run(capsys, "torus-walls", "--slopes", "1/0,0/1", "--dual", "--budget", "2")
    assert code == 2
    assert err.startswith("budget exceeded:")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_exits_2(capsys, catalog, budget):
    for argv in (
        ("dual-cube", str(catalog / "crossing2.ws")),
        ("torus-walls", "--slopes", "1/0,0/1", "--dual"),
    ):
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert (code, out, err) == (2, "", "error: budget must be >= 1\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "nosuch.m3")
    assert code == 2
    assert "nosuch.m3" in err


def test_unknown_extension(tmp_path, capsys):
    p = tmp_path / "data.txt"
    p.write_text("x\n")
    want = (2, "", f"{p}: unknown extension (want .m3, .ws or .cc)\n")
    assert run(capsys, "validate", str(p)) == want
    assert run(capsys, "validate", "--json", str(p)) == want


def test_usage_errors():
    # the removed helly-demo and assembly-plan are unknown commands
    for argv in ([], ["frobnicate"], ["helly-demo"], ["assembly-plan", "x.plan"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


def test_help_lists_the_eight_subcommands(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert choices.split(",") == [
        "validate", "classify", "chargeless", "homology",
        "euler", "dual-cube", "special-check", "torus-walls",
    ]


@pytest.mark.parametrize(
    "command, name",
    [
        ("validate", "x.m3"),
        ("classify", "x.m3"),
        ("special-check", "x.cc"),
    ],
)
def test_non_utf8_input_exits_2(capsys, tmp_path, command, name):
    # the bad byte sits on the third line, after a CRLF and a lone CR
    path = tmp_path / name
    path.write_bytes(b"# one\r\n# two\rblock \xff seifert genus=0 boundaries=0\n")
    assert run(capsys, command, str(path)) == (2, "", f"{path}: line 3: not UTF-8 text\n")
    path.write_bytes(b"block \xff seifert genus=0 boundaries=0\n")
    assert run(capsys, command, str(path)) == (2, "", f"{path}: line 1: not UTF-8 text\n")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_other_line_endings_read_as_newlines(capsys, catalog, tmp_path, newline):
    for name, command in [
        ("chargeless_mixed.m3", "classify"),
        ("crossing2.ws", "dual-cube"),
        ("pincer.cc", "special-check"),
    ]:
        path = tmp_path / name
        path.write_bytes((catalog / name).read_bytes().replace(b"\n", newline))
        assert run(capsys, command, str(path)) == run(capsys, command, str(catalog / name))


@pytest.mark.parametrize("text", ["", "# nothing here\n\n"], ids=["empty", "comments"])
def test_manifold_with_no_blocks_exits_2(capsys, tmp_path, text):
    path = tmp_path / "none.m3"
    path.write_text(text)
    for command in ("validate", "classify", "chargeless"):
        assert run(capsys, command, str(path)) == (
            2, "", f"{path}: line 1, column 1: manifold needs at least one block\n"
        )


# One case per subcommand, and validate on each file kind. Each record is
# worked out from the catalog file by hand:
# - crossing2.ws: two crossing walls over four chambers; the dual is one
#   square (4 vertices, 4 edges and the square: 5 cubes).
# - t2xi.m3: T^2 x I has H1 = Z^2 on the generators d1, d2, h.
# - s3.m3: e = -(b + 1/2 + 1/3 + 1/5) with b = -1, so e = -1/30.
# - chargeless_mixed.m3 and charged_mixed.m3: both neighbours of B hand it
#   the slope (1,0), so weights (1,1) work; in the charged file T3 hands it
#   (1,1) and the first end is forced to weight zero.
# - moebius_square.cc: the square a b b a folds its one hyperplane onto
#   itself across a single edge.
# - torus slopes 1/0,0/1 at window 1: three lines of each slope cut the
#   torus into a 4 x 4 grid; 2/1 alone gives three parallel walls.
JSON_CASES = [
    (
        ["validate", "{cat}/h3.m3"],
        0,
        {
            "kind": "manifold",
            "ok": True,
            "blocks": 1,
            "tori": 0,
            "boundary": 1,
            "geometry": "H3",
        },
    ),
    (
        ["validate", "{cat}/crossing2.ws"],
        0,
        {"kind": "wallspace", "ok": True, "chambers": 4, "walls": 2},
    ),
    (
        ["validate", "{cat}/square.cc"],
        0,
        {"kind": "complex", "ok": True, "vertices": 4, "cubes": 1, "dimension": 2},
    ),
    (
        ["classify", "{cat}/chargeless_mixed.m3"],
        0,
        {
            "vcs": True,
            "reason": "nongeometric-chargeless",
            "geometry": None,
            "failing_blocks": [],
            "blocks": [
                {
                    "block": "B",
                    "chargeless": True,
                    "witness": [1, 1],
                    "obstruction": None,
                    "ends": ["T2[b]@0:(1,0)", "T3[a]@1:(1,0)"],
                }
            ],
        },
    ),
    (
        ["chargeless", "{cat}/charged_mixed.m3"],
        1,
        {
            "chargeless": False,
            "blocks": [
                {
                    "block": "B",
                    "chargeless": False,
                    "witness": None,
                    "obstruction": 0,
                    "ends": ["T2[b]@0:(1,0)", "T3[a]@1:(1,1)"],
                }
            ],
        },
    ),
    (
        ["homology", "{cat}/t2xi.m3", "--block", "M"],
        0,
        {"block": "M", "generators": ["d1", "d2", "h"], "rank": 2, "torsion": []},
    ),
    (
        ["euler", "{cat}/s3.m3", "--block", "M"],
        0,
        {"block": "M", "euler": "-1/30"},
    ),
    (
        ["dual-cube", "{cat}/crossing2.ws"],
        0,
        {"vertices": 4, "cubes": 5, "dimension": 2, "walls": ["a", "b"]},
    ),
    (
        ["special-check", "{cat}/moebius_square.cc"],
        1,
        {
            "special": False,
            "npc": False,
            "hyperplanes": [
                {
                    "index": 0,
                    "edges": 1,
                    "one_sided": True,
                    "self_intersecting": True,
                    "self_osculating": False,
                    "indirect_osculation": False,
                }
            ],
            "inter_osculating": [],
        },
    ),
    (
        ["torus-walls", "--slopes", "2/1"],
        0,
        {"slopes": ["(2,1)"], "window": 1, "chambers": 4, "walls": 3},
    ),
    (
        ["torus-walls", "--slopes", "1/0,0/1", "--dual"],
        0,
        {
            "slopes": ["(1,0)", "(0,1)"],
            "window": 1,
            "chambers": 16,
            "walls": 6,
            "dual_vertices": 16,
            "dimension": 2,
        },
    ),
]


@pytest.mark.parametrize(
    "argv, code, golden", JSON_CASES, ids=[" ".join(c[0]) for c in JSON_CASES]
)
def test_json_record(capsys, catalog, argv, code, golden):
    argv = [a.format(cat=catalog) for a in argv]
    text_code, text_out, _ = run(capsys, *argv)
    assert text_out
    json_code, out, err = run(capsys, *argv, "--json")
    rec = json.loads(out)
    assert out == json.dumps(rec, sort_keys=True) + "\n"
    assert rec.pop("command") == argv[0]
    assert rec == golden
    assert (json_code, err) == (text_code, "")
    assert json_code == code


def test_json_never_serializes(capsys, catalog, monkeypatch):
    def refuse(_):
        raise AssertionError("serialized under --json")

    monkeypatch.setattr(cli, "serialize_complex", refuse)
    monkeypatch.setattr(cli, "serialize_wallspace", refuse)
    for argv in (
        ["dual-cube", str(catalog / "crossing2.ws")],
        ["torus-walls", "--slopes", "1/0,0/1"],
        ["torus-walls", "--slopes", "1/0,0/1", "--dual"],
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["command"] == argv[0]
