"""The three workloads: a ladder of sizes plus a small-input set each.

``build`` writes a workload's generated inputs under ``workdir`` and
returns its commands. Each command carries the exit code and the output
check that the construction of its input fixes. Why each workload exists
is in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families
import verify

RING_SIZES = (100, 200, 400)
DIPOLE_SIZES = (100, 200, 400)
CROSSING_DUAL = (8, 9, 10)
TORUS_DUAL = (3, 6)
TORUS_SPECIAL = (2, 4)
CROSSING_SPECIAL = (6, 7)
STAR_SPECIAL = (30, 40)


@dataclass
class Cmd:
    name: str
    argv: list[str]
    code: int  # expected exit code
    check: Callable[[str], str | None] | None = None
    size: float | None = None  # position on the workload's scaling series
    save: Path | None = None  # where a set-up command's stdout goes


@dataclass
class Workload:
    prep: list[Cmd]  # set-up commands whose output later commands read
    ladder: list[Cmd]  # ordered by size within each family
    small: list[Cmd]
    largest: str  # the ladder command a user with a big input waits for


def catalog_dir(root: Path) -> Path:
    return root / "src" / "m3cube" / "catalog"


# --- catalog facts ----------------------------------------------------------

GOOD_GEOMETRIES = {"H3", "E3", "H2xR", "S2xR", "S3", "SFS-with-boundary"}
VACUOUS = "no interior blocks; chargeless vacuously"
# Graph manifolds of the catalog, as their header comments state:
# (the interior block, whether it is charged), or None for no interior block.
NONGEOMETRIC = {
    "chargeless_mixed.m3": ("B", False),
    "charged_mixed.m3": ("B", True),
    "mixed_two_hyp.m3": None,
}
# H1 of the catalog's Seifert blocks as (rank, torsion orders). A closed
# block over a genus-g surface with no exceptional fibers gives Z^(2g+1)
# when b = 0 and Z^(2g) when b = +-1, where the section relation kills the
# fiber; a block over a genus-g surface with p >= 1 boundary tori and no
# exceptional fibers is (surface) x S^1 with H1 = Z^(2g+p); the trefoil
# complement sfs_boundary.m3 has H1 = Z. For s3.m3 the catalog states only
# "finite H1", so its torsion (None) is not checked.
CATALOG_H1 = {
    ("e3.m3", "M"): (3, []),
    ("h2xr.m3", "M"): (5, []),
    ("nil.m3", "M"): (2, []),
    ("s2xr.m3", "M"): (1, []),
    ("s3.m3", "M"): (0, None),
    ("sl2r.m3", "M"): (4, []),
    ("sol.m3", "M"): (3, []),
    ("sfs_boundary.m3", "M"): (1, []),
    ("t2xi.m3", "M"): (2, []),
    ("chargeless_mixed.m3", "B"): (2, []),
    ("chargeless_mixed.m3", "S1"): (4, []),
    ("chargeless_mixed.m3", "S2"): (4, []),
    ("charged_mixed.m3", "B"): (2, []),
    ("charged_mixed.m3", "S1"): (4, []),
    ("charged_mixed.m3", "S2"): (4, []),
}
# e = -(b + sum b_j / a_j) for the closed blocks; a block with boundary has
# no Euler number and the command refuses it with exit code 2.
CATALOG_EULER = {
    "e3.m3": "0",
    "h2xr.m3": "0",
    "nil.m3": "-1",
    "s2xr.m3": "0",
    "s3.m3": "-1/30",
    "sl2r.m3": "-1",
    "sol.m3": "0",
}
CATALOG_DUALS = {"crossing2.ws": families.crossing_dual(2)}  # "a single square"
# special-check verdicts the header comments of the .cc files state; the
# npc line is checked where the comment states it.
CATALOG_SPECIAL = {
    "square.cc": ("special", "npc: yes"),
    "cube3.cc": ("special", "npc: yes"),
    "tripod.cc": ("not special", "npc: no"),
    "folded_cube3.cc": ("not special", "npc: no"),
    "folded_square.cc": ("not special", "npc: ..."),
    "moebius_band.cc": ("not special", "npc: ..."),
    "moebius_square.cc": ("not special", "npc: ..."),
    "wrapped_annulus.cc": ("not special", "npc: ..."),
    "pincer.cc": ("not special", "npc: ..."),
}


def _catalog(root: Path, suffix: str) -> list[Path]:
    return sorted(catalog_dir(root).glob(f"*{suffix}"))


def _geometry(text: str) -> str | None:
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["geometry"]:
            return tokens[1]
    return None


def _seifert_blocks(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["block"] and tokens[2] == "seifert":
            out.append(tokens[1])
    return out


def _catalog_manifolds(root: Path) -> list[Cmd]:
    """validate, classify and chargeless on every catalog .m3."""
    out = []
    for path in _catalog(root, ".m3"):
        name, text = path.name, path.read_text()
        argv = [str(path)]
        if name.startswith("bad_"):
            out += [Cmd(f"{c} {name}", [c] + argv, 2) for c in ("validate", "classify", "chargeless")]
            continue
        counts = verify.record_counts(text)
        label = _geometry(text)
        ok = (
            f"ok: {counts.get('block', 0)} blocks, {counts.get('torus', 0)} tori,"
            f" {counts.get('boundary', 0)} boundary"
        ) + (f", geometry {label}" if label else "")
        out.append(Cmd(f"validate {name}", ["validate"] + argv, 0, verify.lines_are(ok)))
        if label is not None:
            good = label in GOOD_GEOMETRIES
            yn = "yes" if good else "no"
            out.append(
                Cmd(
                    f"classify {name}", ["classify"] + argv, 0 if good else 1,
                    verify.lines_are(f"VCS: {yn} (geometric: {label})"),
                )
            )
            # A closed single Seifert block is interior with no torus ends,
            # so it is chargeless vacuously; any other lone block has a
            # boundary torus and no interior block remains.
            seifert = _seifert_blocks(text)
            closed = counts.get("block") == 1 and seifert and "boundary" not in counts
            report = f"block {seifert[0]}: chargeless..." if closed else VACUOUS
            out.append(
                Cmd(
                    f"chargeless {name}", ["chargeless"] + argv, 0,
                    verify.lines_are("chargeless: yes", report),
                )
            )
            continue
        interior = NONGEOMETRIC[name]
        if interior is None:
            verdict = ("VCS: yes (nongeometric, chargeless)", "chargeless: yes", VACUOUS)
            code = 0
        else:
            block, charged = interior
            word = "charged" if charged else "chargeless"
            yn = "no" if charged else "yes"
            verdict = (
                f"VCS: {yn} (nongeometric, {word})",
                f"chargeless: {yn}",
                f"block {block}: {word},...",
            )
            code = int(charged)
        out.append(
            Cmd(f"classify {name}", ["classify"] + argv, code, verify.lines_are(verdict[0], verdict[2]))
        )
        out.append(
            Cmd(f"chargeless {name}", ["chargeless"] + argv, code, verify.lines_are(verdict[1], verdict[2]))
        )
    return out


def _catalog_blocks(root: Path) -> list[Cmd]:
    """homology and euler on every Seifert block of the valid catalog files."""
    out = []
    for path in _catalog(root, ".m3"):
        if path.name.startswith("bad_"):
            continue
        for block in _seifert_blocks(path.read_text()):
            argv = [str(path), "--block", block]
            rank, torsion = CATALOG_H1[(path.name, block)]
            out.append(
                Cmd(f"homology {path.name} {block}", ["homology"] + argv, 0, verify.h1(rank, torsion))
            )
            euler = CATALOG_EULER.get(path.name)
            if euler is None:
                out.append(Cmd(f"euler {path.name} {block}", ["euler"] + argv, 2))
            else:
                out.append(
                    Cmd(
                        f"euler {path.name} {block}", ["euler"] + argv, 0,
                        verify.lines_are(f"block {block}: euler number {euler}"),
                    )
                )
    return out


def _catalog_cubes(root: Path) -> list[Cmd]:
    """validate, dual-cube and special-check on every catalog .ws and .cc."""
    out = []
    for path in _catalog(root, ".ws"):
        text = path.read_text()
        counts = verify.record_counts(text)
        chambers = next(int(line.split()[1]) for line in text.splitlines() if line.startswith("chambers"))
        out.append(
            Cmd(
                f"validate {path.name}", ["validate", str(path)], 0,
                verify.lines_are(f"ok: {chambers} chambers, {counts['wall']} walls"),
            )
        )
        out.append(
            Cmd(f"dual-cube {path.name}", ["dual-cube", str(path)], 0, verify.dual(CATALOG_DUALS[path.name]))
        )
    for path in _catalog(root, ".cc"):
        vertices, by_dim = verify.cc_shape(path.read_text())
        ok = (
            f"ok: {vertices} vertices, {sum(by_dim.values())} cubes,"
            f" dimension {max(by_dim, default=0)}"
        )
        out.append(Cmd(f"validate {path.name}", ["validate", str(path)], 0, verify.lines_are(ok)))
        verdict, npc = CATALOG_SPECIAL[path.name]
        out.append(
            Cmd(
                f"special-check {path.name}", ["special-check", str(path)],
                int(verdict != "special"), verify.last_lines(verdict, npc),
            )
        )
    return out


# --- generated ladders -------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def jsj_ring(root: Path, workdir: Path, rng: random.Random) -> Workload:
    ladder = []
    for n in RING_SIZES:
        case = families.ring(n, rng, twisted=n == RING_SIZES[1])
        path = _write(workdir / f"ring-{n}.m3", case.text)
        ladder.append(
            Cmd(f"classify ring-{n}", ["classify", path], int(not case.vcs), verify.classify(case), size=n)
        )
    return Workload([], ladder, _catalog_manifolds(root), f"classify ring-{RING_SIZES[-1]}")


def seifert_dipole(root: Path, workdir: Path, rng: random.Random) -> Workload:
    ladder = []
    for k in DIPOLE_SIZES:
        case = families.dipole(k, rng, sheared=k == DIPOLE_SIZES[1])
        path = _write(workdir / f"dipole-{k}.m3", case.text)
        ladder.append(
            Cmd(f"classify dipole-{k}", ["classify", path], int(not case.vcs), verify.classify(case), size=k)
        )
        ladder.append(
            Cmd(
                f"homology dipole-{k}", ["homology", path, "--block", case.hubs[0]], 0,
                verify.hub_homology(case),
            )
        )
    return Workload([], ladder, _catalog_blocks(root), f"classify dipole-{DIPOLE_SIZES[-1]}")


def cube_roundtrip(root: Path, workdir: Path, rng: random.Random) -> Workload:
    prep, ladder = [], []
    for k in CROSSING_DUAL:
        path = _write(workdir / f"crossing-{k}.ws", families.crossing_wallspace(k, rng))
        case = families.crossing_dual(k)
        ladder.append(Cmd(f"dual-cube crossing-{k}", ["dual-cube", path], 0, verify.dual(case), size=case.cubes))
    for w in TORUS_DUAL:
        argv = ["torus-walls", "--slopes", families.torus_slopes(rng), "--window", str(w), "--dual"]
        ladder.append(Cmd(f"torus-walls W={w}", argv, 0, verify.dual(families.torus_dual(w))))

    special = []
    for w in TORUS_SPECIAL:
        cc = workdir / f"torus-{w}.cc"
        argv = ["torus-walls", "--slopes", families.torus_slopes(rng), "--window", str(w), "--dual"]
        prep.append(Cmd(f"emit torus W={w}", argv, 0, verify.dual(families.torus_dual(w)), save=cc))
        special.append((f"torus W={w}", cc))
    for name, sizes, make, shape in (
        ("crossing", CROSSING_SPECIAL, families.crossing_wallspace, families.crossing_dual),
        ("star", STAR_SPECIAL, families.star_wallspace, families.star_dual),
    ):
        for n in sizes:
            ws = _write(workdir / f"{name}-{n}.ws", make(n, rng))
            cc = workdir / f"{name}-{n}.cc"
            prep.append(Cmd(f"emit {name}-{n}", ["dual-cube", ws], 0, verify.dual(shape(n)), save=cc))
            special.append((f"{name}-{n}", cc))
    for label, cc in special:
        ladder.append(Cmd(f"special-check {label}", ["special-check", str(cc)], 0, verify.sageev_special))
    largest = f"special-check crossing-{CROSSING_SPECIAL[-1]}"
    return Workload(prep, ladder, _catalog_cubes(root), largest)


WORKLOADS = {
    "jsj_ring": jsj_ring,
    "seifert_dipole": seifert_dipole,
    "cube_roundtrip": cube_roundtrip,
}


def build(name: str, root: Path, workdir: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, workdir, random.Random(f"{name}:{seed}"))


def catalog_sweep(root: Path) -> list[Cmd]:
    """Every small input of every workload, plus one torus arrangement, so a
    traced run enters every layer whatever its workload."""
    probe = ["torus-walls", "--slopes", "1/0,0/1", "--window", "1", "--dual"]
    return (
        _catalog_manifolds(root)
        + _catalog_blocks(root)
        + _catalog_cubes(root)
        + [Cmd("torus-walls probe", probe, 0, verify.dual(families.torus_dual(1, families=2)))]
    )
