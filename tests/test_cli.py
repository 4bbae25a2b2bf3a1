"""Command line driver: output text, exit codes, JSON records."""

import json

import pytest

from m3cube.cli import main
from m3cube.fileformats import parse_complex, parse_wallspace


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


def test_homology_errors(capsys, catalog):
    code, _, err = run(capsys, "homology", str(catalog / "h3.m3"), "--block", "X")
    assert code == 2
    assert "unknown block 'X'" in err
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


def test_dual_cube_budget(capsys, catalog):
    code, _, err = run(capsys, "dual-cube", "--budget", "2", str(catalog / "crossing2.ws"))
    assert code == 2
    assert err.startswith("budget exceeded:")


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


def test_helly_demo(capsys):
    code, out, _ = run(capsys, "helly-demo", "--seed", "7")
    assert code == 0
    assert out == "seed 7: tree with 10 vertices, 4 pairwise-intersecting subtrees, common vertex 1 (verified)\n"
    # other seeds still verify
    for seed in (1, 2, 3):
        code, out, _ = run(capsys, "helly-demo", "--seed", str(seed))
        assert code == 0
        assert out.endswith("(verified)\n")


def test_helly_demo_json(capsys):
    code, out, _ = run(capsys, "helly-demo", "--json", "--seed", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "helly-demo"
    assert rec["seed"] == 7
    assert rec["verified"] is True


def test_assembly_plan(capsys, catalog):
    code, out, _ = run(capsys, "assembly-plan", str(catalog / "caps_demo.plan"))
    assert code == 0
    assert out == "scale 60\ntorus T1: caps 30 40\ntorus T2: caps 30 0\n"


def test_assembly_plan_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "x.plan"
    bad.write_text("T1 1 2 2\n")
    code, _, err = run(capsys, "assembly-plan", str(bad))
    assert code == 2
    assert str(bad) in err
    assert "line 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "nosuch.m3")
    assert code == 2
    assert "nosuch.m3" in err


def test_unknown_extension(tmp_path, capsys):
    p = tmp_path / "data.txt"
    p.write_text("x\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "unknown extension" in err


def test_usage_errors():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
