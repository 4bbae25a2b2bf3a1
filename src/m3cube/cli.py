"""Command line front end.

Exit codes: 0 = computed, affirmative or neutral verdict; 1 = computed,
negative verdict (charged, not special, not virtually compact special);
2 = malformed input or usage error, message on stderr with line numbers
where available. Reports on stdout are byte deterministic for a fixed
input. `--json` replaces the report with one JSON object per run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .charge import classify_vcs, euler_number, is_chargeless_manifold, render_charge_report
from .cubecomplex import check_npc, dimension, specialness_report
from .decomposition import Tree, helly_intersection, modify_jsj, plan_surface_assembly
from .errors import (
    BudgetExceededError,
    M3CubeError,
    NotSeifertError,
    ParseError,
)
from .fileformats import (
    parse_complex,
    parse_manifold,
    parse_wallspace,
    serialize_complex,
    serialize_wallspace,
)
from .homology import presentation_h1
from .manifold import SeifertBlockData, slope_normalize
from .wallspace import dual_cube_complex, torus_line_wallspace


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _format_invariants(rank: int, torsion: list[int]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def _cmd_validate(args) -> int:
    text = _read(args.path)
    if args.path.endswith(".m3"):
        m = parse_manifold(text)
        record = {
            "command": "validate",
            "kind": "manifold",
            "ok": True,
            "blocks": len(m.blocks),
            "tori": len(m.jsj_tori),
            "boundary": len(m.boundary_tori),
            "geometry": m.geometry_label,
        }
        line = f"ok: {len(m.blocks)} blocks, {len(m.jsj_tori)} tori, {len(m.boundary_tori)} boundary"
        if m.geometry_label:
            line += f", geometry {m.geometry_label}"
    elif args.path.endswith(".ws"):
        ws = parse_wallspace(text)
        record = {
            "command": "validate",
            "kind": "wallspace",
            "ok": True,
            "chambers": len(ws.chambers),
            "walls": len(ws.walls),
        }
        line = f"ok: {len(ws.chambers)} chambers, {len(ws.walls)} walls"
    elif args.path.endswith(".cc"):
        c = parse_complex(text)
        record = {
            "command": "validate",
            "kind": "complex",
            "ok": True,
            "vertices": len(c.vertices),
            "cubes": len(c.cubes),
            "dimension": dimension(c),
        }
        line = (
            f"ok: {len(c.vertices)} vertices, {len(c.cubes)} cubes,"
            f" dimension {dimension(c)}"
        )
    else:
        print(f"{args.path}: unknown extension (want .m3, .ws or .cc)", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(record)
    else:
        print(line)
    return 0


def _cmd_classify(args) -> int:
    m = parse_manifold(_read(args.path))
    verdict = classify_vcs(m)
    if args.json:
        record = verdict.record()
        record["command"] = "classify"
        record["blocks"] = [v.record() for v in verdict.block_verdicts]
        _emit_json(record)
        return 0 if verdict.vcs else 1
    yn = "yes" if verdict.vcs else "no"
    if verdict.reason.startswith("geometric"):
        print(f"VCS: {yn} (geometric: {verdict.geometry_label})")
    else:
        kind = "chargeless" if verdict.vcs else "charged"
        print(f"VCS: {yn} (nongeometric, {kind})")
        sys.stdout.write(render_charge_report(verdict.block_verdicts))
    return 0 if verdict.vcs else 1


def _cmd_chargeless(args) -> int:
    m = parse_manifold(_read(args.path))
    verdicts = is_chargeless_manifold(modify_jsj(m))
    ok = all(v.chargeless for v in verdicts)
    if args.json:
        _emit_json(
            {
                "command": "chargeless",
                "chargeless": ok,
                "blocks": [v.record() for v in verdicts],
            }
        )
        return 0 if ok else 1
    print(f"chargeless: {'yes' if ok else 'no'}")
    sys.stdout.write(render_charge_report(verdicts))
    return 0 if ok else 1


def _cmd_homology(args) -> int:
    m = parse_manifold(_read(args.path))
    if args.block not in m.blocks:
        print(f"{args.path}: unknown block {args.block!r}", file=sys.stderr)
        return 2
    data = m.blocks[args.block]
    if not isinstance(data, SeifertBlockData):
        raise NotSeifertError(f"block {args.block} is not Seifert fibered")
    pres = presentation_h1(data)
    rank, torsion = pres.invariants()
    if args.json:
        _emit_json(
            {
                "command": "homology",
                "block": args.block,
                "generators": list(pres.generators),
                "rank": rank,
                "torsion": torsion,
            }
        )
        return 0
    print(f"block {args.block}: generators " + " ".join(pres.generators))
    for j in range(pres.relations.ncols):
        terms = [
            f"{pres.relations.rows[i][j]}*{pres.generators[i]}"
            for i in range(pres.relations.nrows)
            if pres.relations.rows[i][j] != 0
        ]
        print("relation: " + (" + ".join(terms) if terms else "0") + " = 0")
    print("H1: " + _format_invariants(rank, torsion))
    return 0


def _cmd_euler(args) -> int:
    m = parse_manifold(_read(args.path))
    if args.block not in m.blocks:
        print(f"{args.path}: unknown block {args.block!r}", file=sys.stderr)
        return 2
    data = m.blocks[args.block]
    if not isinstance(data, SeifertBlockData):
        raise NotSeifertError(f"block {args.block} is not Seifert fibered")
    e = euler_number(data)
    if args.json:
        _emit_json({"command": "euler", "block": args.block, "euler": str(e)})
    else:
        print(f"block {args.block}: euler number {e}")
    return 0


def _cmd_dual_cube(args) -> int:
    ws = parse_wallspace(_read(args.path))
    dual = dual_cube_complex(ws, budget=args.budget)
    c = dual.complex
    if args.json:
        _emit_json(
            {
                "command": "dual-cube",
                "vertices": len(c.vertices),
                "cubes": len(c.cubes),
                "dimension": dimension(c),
                "walls": list(dual.wall_ids),
            }
        )
        return 0
    sys.stdout.write(serialize_complex(c))
    return 0


def _cmd_special_check(args) -> int:
    c = parse_complex(_read(args.path))
    report = specialness_report(c)
    npc = check_npc(c).npc
    if args.json:
        _emit_json(
            {
                "command": "special-check",
                "special": report.special,
                "npc": npc,
                "hyperplanes": [
                    {
                        "index": f.index,
                        "edges": len(report.planes[f.index].edges),
                        "one_sided": f.one_sided,
                        "self_intersecting": f.self_intersecting,
                        "self_osculating": f.self_osculating,
                        "indirect_osculation": f.indirect_osculation,
                    }
                    for f in report.flags
                ],
                "inter_osculating": [list(p) for p in report.inter_osculating],
            }
        )
        return 0 if report.special else 1
    sys.stdout.write(report.render())
    print(f"npc: {'yes' if npc else 'no'}")
    return 0 if report.special else 1


def _parse_slopes(text: str):
    slopes = []
    for part in text.split(","):
        p, sep, q = part.strip().partition("/")
        if not sep:
            raise ParseError(f"slope {part!r} is not of the form p/q")
        try:
            slopes.append(slope_normalize(int(p), int(q)))
        except ValueError:
            raise ParseError(f"slope {part!r} is not of the form p/q") from None
    return slopes


def _cmd_torus_walls(args) -> int:
    slopes = _parse_slopes(args.slopes)
    ws = torus_line_wallspace(slopes, args.window)
    if args.dual:
        dual = dual_cube_complex(ws, budget=args.budget)
        if args.json:
            _emit_json(
                {
                    "command": "torus-walls",
                    "slopes": [str(s) for s in slopes],
                    "window": args.window,
                    "chambers": len(ws.chambers),
                    "walls": len(ws.walls),
                    "dual_vertices": len(dual.complex.vertices),
                    "dimension": dimension(dual.complex),
                }
            )
            return 0
        sys.stdout.write(serialize_complex(dual.complex))
        return 0
    if args.json:
        _emit_json(
            {
                "command": "torus-walls",
                "slopes": [str(s) for s in slopes],
                "window": args.window,
                "chambers": len(ws.chambers),
                "walls": len(ws.walls),
            }
        )
        return 0
    sys.stdout.write(serialize_wallspace(ws))
    return 0


def _random_helly_instance(rng: random.Random):
    """A random tree plus pairwise-intersecting connected subtrees."""
    n = rng.randint(5, 14)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    while True:
        subtrees = []
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, n)
            blob = {rng.randrange(n)}
            frontier = set(adj[next(iter(blob))])
            while len(blob) < size and frontier:
                v = rng.choice(sorted(frontier))
                blob.add(v)
                frontier = (frontier | adj[v]) - blob
            subtrees.append(frozenset(blob))
        if all(
            s & t
            for i, s in enumerate(subtrees)
            for t in subtrees[i + 1:]
        ):
            return Tree(tuple(range(n)), tuple(edges)), subtrees


def _cmd_helly_demo(args) -> int:
    rng = random.Random(args.seed)
    tree, subtrees = _random_helly_instance(rng)
    vertex, witness = helly_intersection(tree, subtrees)
    assert witness is None
    verified = all(vertex in s for s in subtrees)
    if args.json:
        _emit_json(
            {
                "command": "helly-demo",
                "seed": args.seed,
                "vertices": len(tree.vertices),
                "subtrees": len(subtrees),
                "common_vertex": vertex,
                "verified": verified,
            }
        )
        return 0 if verified else 1
    print(
        f"seed {args.seed}: tree with {len(tree.vertices)} vertices,"
        f" {len(subtrees)} pairwise-intersecting subtrees,"
        f" common vertex {vertex}"
        + (" (verified)" if verified else " (VERIFICATION FAILED)")
    )
    return 0 if verified else 1


def _cmd_assembly_plan(args) -> int:
    counts = {}
    for lineno, raw in enumerate(_read(args.path).splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise ParseError("expected: <torus id> <r> <s> <a> <b>", lineno)
        tid = tokens[0]
        if tid in counts:
            raise ParseError(f"torus {tid!r} repeated", lineno)
        try:
            counts[tid] = tuple(int(t, 10) for t in tokens[1:])
        except ValueError:
            raise ParseError("counts must be integers", lineno) from None
    plan = plan_surface_assembly(counts)
    if args.json:
        _emit_json(
            {
                "command": "assembly-plan",
                "scale": plan.core_copies,
                "caps": {tid: list(ab) for tid, ab in sorted(plan.caps.items())},
            }
        )
        return 0
    print(f"scale {plan.core_copies}")
    for tid in sorted(plan.caps):
        a, b = plan.caps[tid]
        print(f"torus {tid}: caps {a} {b}")
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one JSON record instead of text")

    top = argparse.ArgumentParser(prog="m3cube", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="parse and validate a .m3/.ws/.cc file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", parents=[common], help="virtually-compact-special verdict")
    p.add_argument("path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chargeless", parents=[common], help="chargeless test on interior blocks")
    p.add_argument("path")
    p.set_defaults(func=_cmd_chargeless)

    p = sub.add_parser("homology", parents=[common], help="H1 presentation of a Seifert block")
    p.add_argument("path")
    p.add_argument("--block", required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("euler", parents=[common], help="Euler number of a closed Seifert block")
    p.add_argument("path")
    p.add_argument("--block", required=True)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("dual-cube", parents=[common], help="Sageev dual of a wallspace, as .cc text")
    p.add_argument("path")
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_dual_cube)

    p = sub.add_parser("special-check", parents=[common], help="hyperplane pathology report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_special_check)

    p = sub.add_parser("torus-walls", parents=[common], help="line wallspace on the torus")
    p.add_argument("--slopes", required=True, help="comma-separated p/q list")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--dual", action="store_true", help="print the dual complex instead")
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_torus_walls)

    p = sub.add_parser("helly-demo", parents=[common], help="random pairwise-intersecting subtrees")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_helly_demo)

    p = sub.add_parser("assembly-plan", parents=[common], help="balance cap counts over tori")
    p.add_argument("path")
    p.set_defaults(func=_cmd_assembly_plan)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    path = getattr(args, "path", None)
    try:
        return args.func(args)
    except ParseError as e:
        where = f"{path}: " if path else ""
        print(f"{where}{e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except M3CubeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
