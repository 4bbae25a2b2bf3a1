"""Command line front end.

Exit codes: 0 = computed, affirmative or neutral verdict; 1 = computed,
negative verdict (charged, not special, not virtually compact special);
2 = malformed input, usage error or exceeded budget, message on stderr
with line numbers where available; 3 = internal error (a bug), with
`internal error:` and the traceback on stderr. Reports on stdout are byte
deterministic for a fixed input. `--json` replaces the report with one
JSON object per run.

Each `_cmd_*` function computes and returns `(code, record, text)`: the
exit code, the JSON record without its `command` key, and the text report.
It writes nothing and signals bad input by raising. `main` is the only code
that writes a command's output, and it maps every error to its exit code
and stderr message. This paragraph is left out of `--help`.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .charge import classify_vcs, euler_number, is_chargeless_manifold, render_charge_report
from .cubecomplex import check_npc, dimension, specialness_report
from .errors import BudgetExceededError, InputError, M3CubeError, ParseError
from .fileformats import (
    _split_lines,
    parse_complex,
    parse_manifold,
    parse_wallspace,
    serialize_complex,
    serialize_wallspace,
)
from .homology import presentation_h1
from .manifold import SeifertBlockData, slope_normalize
from .wallspace import dual_cube_complex, torus_line_wallspace

LABEL_BUDGET = 10**6  # most generator labels `homology` spells


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len(_split_lines(data[: e.start].decode("utf-8")))
        raise ParseError("not UTF-8 text", line=line) from None


def _format_invariants(rank: int, torsion: list[int]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def _cmd_validate(args) -> tuple[int, dict, str]:
    text = _read(args.path)
    if args.path.endswith(".m3"):
        m = parse_manifold(text)
        record = {
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
            "kind": "wallspace",
            "ok": True,
            "chambers": len(ws.chambers),
            "walls": len(ws.walls),
        }
        line = f"ok: {len(ws.chambers)} chambers, {len(ws.walls)} walls"
    elif args.path.endswith(".cc"):
        c = parse_complex(text)
        record = {
            "kind": "complex",
            "ok": True,
            "vertices": len(c.vertices),
            "cubes": len(c.cubes),
            "dimension": dimension(c),
        }
        line = (
            f"ok: {len(c.vertices)} vertices, {len(c.cubes)} cubes,"
            f" dimension {record['dimension']}"
        )
    else:
        raise ParseError("unknown extension (want .m3, .ws or .cc)")
    return 0, record, line + "\n"


def _cmd_classify(args) -> tuple[int, dict, str]:
    verdict = classify_vcs(parse_manifold(_read(args.path)))
    record = verdict.record()
    record["blocks"] = [v.record() for v in verdict.block_verdicts]
    yn = "yes" if verdict.vcs else "no"
    if verdict.reason.startswith("geometric"):
        text = f"VCS: {yn} (geometric: {verdict.geometry_label})\n"
    else:
        kind = "chargeless" if verdict.vcs else "charged"
        text = f"VCS: {yn} (nongeometric, {kind})\n" + render_charge_report(verdict.block_verdicts)
    return (0 if verdict.vcs else 1), record, text


def _cmd_chargeless(args) -> tuple[int, dict, str]:
    verdicts = is_chargeless_manifold(parse_manifold(_read(args.path)))
    ok = all(v.chargeless for v in verdicts)
    record = {
        "chargeless": ok,
        "blocks": [v.record() for v in verdicts],
    }
    text = f"chargeless: {'yes' if ok else 'no'}\n" + render_charge_report(verdicts)
    return (0 if ok else 1), record, text


def _seifert_block(args) -> SeifertBlockData:
    """The Seifert block `--block` of the manifold at `path`."""
    m = parse_manifold(_read(args.path))
    if args.block not in m.blocks:
        raise ParseError(f"unknown block {args.block!r}")
    data = m.blocks[args.block]
    if not isinstance(data, SeifertBlockData):
        raise InputError(f"block {args.block} is not Seifert fibered")
    return data


def _cmd_homology(args) -> tuple[int, dict, str]:
    data = _seifert_block(args)
    # the report spells one label per generator: refuse before building them
    labels = 2 * data.genus + len(data.exceptional) + data.num_boundary + 1
    if labels > LABEL_BUDGET:
        raise BudgetExceededError(LABEL_BUDGET, f"generators on block {args.block}")
    pres = presentation_h1(data)
    rank, torsion = pres.invariants()
    generators = pres.generators
    record = {
        "block": args.block,
        "generators": list(generators),
        "rank": rank,
        "torsion": torsion,
    }
    lines = [f"block {args.block}: generators " + " ".join(generators)]
    # the surface generators come first and are in no relation
    related = generators[2 * pres.genus:]
    for j in range(pres.relations.ncols):
        terms = [
            f"{row[j]}*{gen}"
            for row, gen in zip(pres.relations.rows, related)
            if row[j] != 0
        ]
        lines.append("relation: " + (" + ".join(terms) if terms else "0") + " = 0")
    lines.append("H1: " + _format_invariants(rank, torsion))
    return 0, record, "\n".join(lines) + "\n"


def _cmd_euler(args) -> tuple[int, dict, str]:
    e = euler_number(_seifert_block(args))
    return 0, {"block": args.block, "euler": str(e)}, f"block {args.block}: euler number {e}\n"


def _cmd_dual_cube(args) -> tuple[int, dict, str]:
    dual = dual_cube_complex(parse_wallspace(_read(args.path)), budget=args.budget)
    c = dual.complex
    record = {
        "vertices": len(c.vertices),
        "cubes": len(c.cubes),
        "dimension": dimension(c),
        "walls": list(dual.wall_ids),
    }
    return 0, record, "" if args.json else serialize_complex(c)


def _cmd_special_check(args) -> tuple[int, dict, str]:
    c = parse_complex(_read(args.path))
    report = specialness_report(c)
    npc = check_npc(c).npc
    record = {
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
    text = report.render() + f"npc: {'yes' if npc else 'no'}\n"
    return (0 if report.special else 1), record, text


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


def _cmd_torus_walls(args) -> tuple[int, dict, str]:
    slopes = _parse_slopes(args.slopes)
    ws = torus_line_wallspace(slopes, args.window)
    record = {
        "slopes": [str(s) for s in slopes],
        "window": args.window,
        "chambers": len(ws.chambers),
        "walls": len(ws.walls),
    }
    if not args.dual:
        return 0, record, "" if args.json else serialize_wallspace(ws)
    c = dual_cube_complex(ws, budget=args.budget).complex
    record.update(dual_vertices=len(c.vertices), dimension=dimension(c))
    return 0, record, "" if args.json else serialize_complex(c)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one JSON record instead of text")

    top = argparse.ArgumentParser(prog="m3cube", description=__doc__.rsplit("\n\n", 1)[0])
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

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    path = getattr(args, "path", None)
    try:
        code, record, text = args.func(args)
        if args.json:
            record["command"] = args.command
            print(json.dumps(record, sort_keys=True))
        else:
            sys.stdout.write(text)
        return code
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
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
