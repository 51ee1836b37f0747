"""Command-line surface: exact-integer reports over the text format.

Exit codes: 0 success, 1 domain error (invalid diagram, inapplicable
move, out-of-range parameters), 2 usage error.  A filename of ``-``
reads standard input.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .certify import (
    GenusCertificate,
    certify_tb_max,
    reducibility_report,
    report_text,
    surgery_coefficient,
)
from .errors import BudgetExhausted, FrontkitError
from .explore import SearchConfig, bfs_max_tb
from .front import FrontDiagram, rotation, thurston_bennequin, trefoil, unknot
from .gallery import (
    K_m_front,
    K_mn_cable_front,
    Z_m_handlebody,
    gallery_manifest,
    stein_rep_max,
    stein_rep_variant,
    step3_pipeline,
)
from .moves import cancel_pair, handle_slide
from .satellite import cable
from .standard import (
    SteinHandlebody,
    closure_to_sphere,
    homology_vector,
    stein_check,
    tb_standard,
)
from .textio import _strip, parse, parse_script, print_script, print_text, render


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit_invariants(obj, out) -> None:
    d = _strip(obj)
    if isinstance(d, FrontDiagram):
        if d.n_components == 1:
            print(
                f"tb={thurston_bennequin(d)} rot={rotation(d)} components=1",
                file=out,
            )
        else:
            print(f"components={d.n_components}", file=out)
            for c in d.components:
                print(
                    f"component {c}: tb={thurston_bennequin(d, c)}"
                    f" rot={rotation(d, c)}",
                    file=out,
                )
        return
    print(f"components={d.n_components}", file=out)
    for c in d.components:
        hom = ",".join(str(v) for v in homology_vector(d, c))
        print(
            f"component {c}: tb_standard={tb_standard(d, c)} homology=({hom})",
            file=out,
        )
    if isinstance(obj, SteinHandlebody):
        violations = stein_check(obj)
        print(f"stein_violations={len(violations)}", file=out)
        for v in violations:
            print(f"violation: {v}", file=out)


# Each gallery family: the function that makes it and the -m/-n flags it takes.
_GALLERY = {
    "K": (K_m_front, "m"),
    "cable": (K_mn_cable_front, "mn"),
    "Z": (Z_m_handlebody, "m"),
    "stein-max": (stein_rep_max, "mn"),
    "stein-variant": (stein_rep_variant, "mn"),
    "step3": (lambda m, n: step3_pipeline(m, n)[0], "mn"),
    "unknot": (unknot, ""),
    "trefoil": (trefoil, ""),
}


def _gallery_params(parser, args) -> None:
    """Give a gallery family the -m/-n defaults it takes, or exit with a
    usage error naming a flag that it does not take (``list`` takes
    none)."""
    takes = _GALLERY.get(args.name, (None, ""))[1]
    for flag, default in (("m", -1), ("n", 2)):
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in takes:
            parser.error(f"gallery {args.name} takes no -{flag}")
    if args.name == "list" and args.render:
        parser.error("gallery list takes no --render")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="frontkit", description="Legendrian front diagram calculus"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", help="classical invariants of a diagram")
    sp.add_argument("file")

    sp = sub.add_parser("apply", help="replay a move script")
    sp.add_argument("file")
    sp.add_argument("script")

    sp = sub.add_parser("cable", help="replace a knot by its (n,q)-cable")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-q", type=int, required=True)

    sp = sub.add_parser("slide", help="slide a component over a 2-handle")
    sp.add_argument("file")
    sp.add_argument("--component", type=int, required=True)
    sp.add_argument("--site", type=int, default=0)

    sp = sub.add_parser("cancel", help="cancel a 1-handle/2-handle pair")
    sp.add_argument("file")
    sp.add_argument("--handle", required=True)

    sp = sub.add_parser("closure", help="close a strip into a sphere front")
    sp.add_argument("file")
    sp.add_argument("--component", type=int, default=0)

    sp = sub.add_parser("certify", help="compare tb against a genus bound")
    sp.add_argument("file")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--component", type=int, default=0)

    sp = sub.add_parser("search", help="breadth-first search for higher tb")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--budget", type=int, default=10_000)

    sp = sub.add_parser("gallery", help="emit a named example diagram")
    sp.add_argument("name", choices=sorted(_GALLERY) + ["list"])
    sp.add_argument("-m", type=int)
    sp.add_argument("-n", type=int)
    sp.add_argument("--render", choices=["ascii", "svg"])

    sp = sub.add_parser("report", help="reducible-surgery arithmetic ledger")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    return p


def _run(args, out) -> int:
    cmd = args.command
    if cmd == "invariants":
        _emit_invariants(parse(_read(args.file)), out)
    elif cmd == "apply":
        obj = parse(_read(args.file))
        script = parse_script(_read(args.script))
        result = script.replay(obj)
        out.write(print_text(result))
    elif cmd == "cable":
        d = _strip(parse(_read(args.file)))
        out.write(print_text(cable(d, args.n, args.q)))
    elif cmd == "slide":
        h = parse(_read(args.file))
        if not isinstance(h, SteinHandlebody):
            raise FrontkitError("slide needs a document with attach lines")
        out.write(
            print_text(
                handle_slide(h, args.component, h.attachments[0], args.site)
            )
        )
    elif cmd == "cancel":
        h = parse(_read(args.file))
        if not isinstance(h, SteinHandlebody):
            raise FrontkitError("cancel needs a document with attach lines")
        out.write(print_text(cancel_pair(h, args.handle, h.attachments[0])))
    elif cmd == "closure":
        d = _strip(parse(_read(args.file)))
        closed, alpha = closure_to_sphere(d, args.component)
        print(f"alpha={alpha}", file=out)
        out.write(print_text(closed))
    elif cmd == "certify":
        d = _strip(parse(_read(args.file)))
        cert = certify_tb_max(
            d, args.component, GenusCertificate(args.component, args.genus)
        )
        print(
            f"tb={cert.tb} bound={cert.upper_bound} verdict={cert.verdict}"
            f" coefficient={surgery_coefficient(d, args.component)}",
            file=out,
        )
    elif cmd == "search":
        d = _strip(parse(_read(args.file)))
        cfg = SearchConfig(max_depth=args.depth, budget=args.budget)
        try:
            res = bfs_max_tb(d, cfg)
        except BudgetExhausted as exc:
            res = exc.partial
        flag = " (budget exhausted)" if res.exhausted else ""
        print(
            f"best_tb={res.best_tb} nodes={res.nodes_expanded}{flag}", file=out
        )
        out.write(print_script(res.witness))
    elif cmd == "gallery":
        if args.name == "list":
            for e in gallery_manifest():
                inv = " ".join(f"{k}={v}" for k, v in sorted(e.invariants.items()))
                print(f"{e.name} {e.parameters} {inv}", file=out)
            return 0
        build, takes = _GALLERY[args.name]
        obj = build(*(getattr(args, flag) for flag in takes))
        if args.render:
            out.write(render(obj, args.render))
        else:
            out.write(print_text(obj))
    elif cmd == "report":
        out.write(report_text(reducibility_report(args.m, args.n)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gallery":
            _gallery_params(parser, args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args, sys.stdout)
    except FrontkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
