"""Command-line interface.

Subcommands: build-hermitian, build-figueroa, validate, translations,
omega, classify, subunital, onan, isomorphic, check-lemmas.  Reports are
JSON with sorted keys and stable witness selection, so re-running a command
on the same input — with any ``--threads`` value — produces byte-identical
output.  Exit codes: 0 success, 1 a checked assertion was refuted (invalid
design, failed lemma, missing isomorphism, exhausted search budget),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .incidence import Unital


def _load_input(args) -> tuple[Unital, dict]:
    """The unital named by --in (a file) or --q (reference hermitian).
    Only ``validate`` takes both: there --q is the order to check against."""
    path = args.infile
    if path:
        if len(path) != 1:
            raise ValueError("expected exactly one --in path here")
        if args.q is not None and args.command != "validate":
            raise ValueError(f"{args.command} takes --in or --q, not both")
        from .incidence import read_unital
        u = read_unital(path[0])
        return u, {"in": path[0]}
    q = args.q
    if q is not None:
        from .plane import hermitian_unital
        return hermitian_unital(q), {"q": q}
    raise ValueError("one of --in or --q is required")


_PIECE = 1 << 16  # characters gathered before each write


def _write_json(fh, doc) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` to ``fh``,
    the one serialization of every document a command writes.  A report
    NamedTuple is written as an object of its fields, then ``ok`` when its
    class defines that as a property.  json encodes in pure Python when
    ``indent`` is set; here str keys and strings go through its C string
    encoder, an array of plain ints (a permutation) is one join, and every
    other scalar goes through ``json.dumps``.  The text is written
    ``_PIECE`` characters or more at a time, never held whole."""
    pieces: list[str] = []
    held = 0

    def put(text: str) -> None:
        nonlocal held
        pieces.append(text)
        held += len(text)
        if held >= _PIECE:
            fh.write("".join(pieces))
            pieces.clear()
            held = 0

    def value(x, nl: str) -> None:  # nl: a newline and the indent of x's line
        inner = nl + "  "
        if type(x) is str:
            put(_json_string(x))
        elif isinstance(x, dict):
            sep = "{" + inner
            for key in sorted(x):
                put(sep + _json_string(key) + ": ")
                value(x[key], inner)
                sep = "," + inner
            put(nl + "}" if x else "{}")
        elif hasattr(x, "_fields"):  # a report, and a tuple too: test it before the arrays
            fields = dict(zip(x._fields, x))
            if isinstance(getattr(type(x), "ok", None), property):
                fields["ok"] = x.ok
            value(fields, nl)
        elif isinstance(x, (list, tuple)) and x and all(type(y) is int for y in x):
            # bool is an int that prints as true/false, so it takes the next branch
            put("[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]")
        elif isinstance(x, (list, tuple)):
            sep = "[" + inner
            for y in x:
                put(sep)
                value(y, inner)
                sep = "," + inner
            put(nl + "]" if x else "[]")
        else:
            put(json.dumps(x))

    value(doc, "\n")
    pieces.append("\n")
    fh.write("".join(pieces))


def _emit(out, command: str, input_desc: dict, payload) -> None:
    """Write the report envelope to the file ``out``, or to stdout."""
    doc = {
        "version": __version__,
        "command": command,
        "input": input_desc,
        "payload": payload,
    }
    if out:
        with open(out, "w") as fh:
            _write_json(fh, doc)
    else:
        _write_json(sys.stdout, doc)


def _atlas_summary(atlas) -> dict:
    return {
        "omega": {
            str(n): sorted(centers)
            for n, centers in atlas.centers_by_order.items()
        },
        "mho": sorted(atlas.trivial_centers),
        "K": sorted(atlas.least_primes),
    }


# -- subcommands ----------------------------------------------------------------
# Each handler imports what it runs, so a command loads only those modules.


def _cmd_build_hermitian(args) -> int:
    from .incidence import format_unital
    from .plane import hermitian_unital

    U = hermitian_unital(args.q)
    text = format_unital(U)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_build_figueroa(args) -> int:
    from .figueroa import figueroa_bundle, verify_figueroa_theorems
    from .incidence import format_unital
    from .plane import triple
    from .translations import build_atlas

    if not args.out:
        raise ValueError("build-figueroa requires --out (unital file; a .json sidecar is written next to it)")
    bundle = figueroa_bundle(args.q)
    Path(args.out).write_text(format_unital(bundle.unital))

    F = bundle.plane.classical.field
    sidecar = {
        "field": {
            "characteristic": F.p,
            "degree": F.e,
            "modulus": list(F.modulus),
        },
        "points": [
            {
                "index": i,
                "coordinates": list(triple(F.order, pid)),
                "type": bundle.point_types[i],
            }
            for i, pid in enumerate(bundle.plane_points)
        ],
        "block_plane_lines": list(bundle.block_lines),
    }
    with open(str(args.out) + ".json", "w") as fh:
        _write_json(fh, sidecar)

    atlas = build_atlas(bundle.unital)
    report = verify_figueroa_theorems(bundle, atlas)
    # --out names the unital file here, so the report goes to stdout
    _emit(None, "build-figueroa", {"q": args.q}, report)
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    from .incidence import validate_unital

    U, desc = _load_input(args)
    q = args.q if args.q is not None and args.infile else U.q
    report = validate_unital(U, q)
    _emit(args.out, "validate", desc, report)
    return 0 if report.valid else 1


def _center_doc(c: int, group) -> dict:
    """A center's ``translations`` entry from its (translation, order) pairs, identity left out."""
    return {
        "center": c,
        "group_order": len(group) + 1,
        "translations": [{"order": n, "image": p} for p, n in group],
    }


def _cmd_translations(args) -> int:
    from .translations import build_atlas, translations_at

    U, desc = _load_input(args)
    if args.center is not None:
        group = translations_at(U, args.center)
        desc = dict(desc, center=args.center)
        _emit(args.out, "translations", desc, _center_doc(args.center, group))
        return 0
    atlas = build_atlas(U)
    centers = [_center_doc(c, atlas.group(c)) for c in range(U.v)]
    payload = dict(_atlas_summary(atlas), centers=centers)
    _emit(args.out, "translations", desc, payload)
    return 0


def _cmd_omega(args) -> int:
    from .translations import build_atlas

    U, desc = _load_input(args)
    atlas = build_atlas(U)
    _emit(args.out, "omega", desc, _atlas_summary(atlas))
    return 0


def _cmd_classify(args) -> int:
    from .analysis import classify

    U, desc = _load_input(args)
    report = classify(U)
    _emit(args.out, "classify", desc, report)
    return 0


def _cmd_subunital(args) -> int:
    from .analysis import constant_intersection_check, subunital_analysis
    from .translations import build_atlas

    if args.p is None:
        raise ValueError("subunital requires --p")
    U, desc = _load_input(args)
    atlas = build_atlas(U)
    report = subunital_analysis(U, atlas, args.p)
    constant = None if report.contained_in_block else constant_intersection_check(U, atlas, args.p)
    desc = dict(desc, p=args.p)
    _emit(args.out, "subunital", desc,
          {"subunital": report, "constant_intersection": constant})
    return 0


def _cmd_onan(args) -> int:
    from .incidence import onan_search

    U, desc = _load_input(args)

    def searched_translations():  # verified automorphisms, for the orbit certificate
        from .translations import build_atlas
        return [p for _, p, _ in build_atlas(U).searched]

    result = onan_search(U, budget=args.budget, automorphisms=searched_translations)
    desc = dict(desc, budget=args.budget)
    _emit(args.out, "onan", desc, result)
    return 0 if result.status != "budget-exhausted" else 1


def _cmd_isomorphic(args) -> int:
    from .incidence import isomorphism_search, read_unital

    paths = args.infile or []
    if len(paths) == 2 and args.q is None:
        A = read_unital(paths[0])
        B = read_unital(paths[1])
        desc = {"in": paths[0], "in2": paths[1]}
    elif len(paths) == 1 and args.q is not None:
        from .plane import hermitian_unital

        A = read_unital(paths[0])
        B = hermitian_unital(args.q)
        desc = {"in": paths[0], "q": args.q}
    else:
        raise ValueError("isomorphic needs two --in paths, or one --in path and --q")
    iso = isomorphism_search(A, B)
    payload = {
        "isomorphic": iso is not None,
        "isomorphism": iso,
    }
    _emit(args.out, "isomorphic", desc, payload)
    return 0 if iso is not None else 1


def _cmd_check_lemmas(args) -> int:
    from .analysis import lemma_battery
    from .translations import build_atlas

    U, desc = _load_input(args)
    payload = lemma_battery(U, build_atlas(U))
    _emit(args.out, "check-lemmas", desc, payload)
    return 0 if payload["ok"] else 1


# -- parser ----------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return parse


def _add_common(sp, *, q=False, infile=False, out=False, p=False, center=False,
                threads=False, budget=False):
    if q:
        sp.add_argument("--q", type=int, help="order parameter (reference hermitian unital)")
    if infile:
        sp.add_argument("--in", dest="infile", nargs="+", metavar="PATH",
                        help="unital file in the canonical text format")
    if out:
        sp.add_argument("--out", help="output path (default: stdout)")
    if p:
        sp.add_argument("--p", type=int, help="translation order (a prime)")
    if center:
        sp.add_argument("--center", type=int, help="restrict to one center")
    if threads:
        sp.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="accepted for compatibility (at least 1); the search runs in one process")
    if budget:
        sp.add_argument("--budget", type=_int_at_least(0), default=0,
                        help="search node cap; 0 = exhaustive")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unitals",
        description="Build unitals, enumerate their translations, and check "
                    "the structural facts that follow.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-hermitian", help="write a hermitian unital file")
    _add_common(sp, q=True, out=True)
    sp.set_defaults(func=_cmd_build_hermitian)
    sp = sub.add_parser("build-figueroa",
                        help="build the Figueroa polar unital, write it with a "
                             "JSON sidecar, and verify its translation structure")
    _add_common(sp, q=True, out=True, threads=True)
    sp.set_defaults(func=_cmd_build_figueroa, q=2)
    sp = sub.add_parser("validate", help="check the 2-design axioms")
    _add_common(sp, q=True, infile=True, out=True)
    sp.set_defaults(func=_cmd_validate)
    sp = sub.add_parser("translations", help="enumerate translations per center")
    _add_common(sp, q=True, infile=True, out=True, center=True, threads=True)
    sp.set_defaults(func=_cmd_translations)
    sp = sub.add_parser("omega", help="center sets by order, trivial points, minimal primes")
    _add_common(sp, q=True, infile=True, out=True, threads=True)
    sp.set_defaults(func=_cmd_omega)
    sp = sub.add_parser("classify", help="hermitian recognition from translations")
    _add_common(sp, q=True, infile=True, out=True, threads=True)
    sp.set_defaults(func=_cmd_classify)
    sp = sub.add_parser("subunital", help="structure induced on a center set")
    _add_common(sp, q=True, infile=True, out=True, p=True, threads=True)
    sp.set_defaults(func=_cmd_subunital)
    sp = sub.add_parser("onan", help="search for a four-block six-point configuration")
    _add_common(sp, q=True, infile=True, out=True, budget=True)
    sp.set_defaults(func=_cmd_onan)
    sp = sub.add_parser("isomorphic", help="explicit isomorphism between two unitals")
    _add_common(sp, q=True, infile=True, out=True)
    sp.set_defaults(func=_cmd_isomorphic)
    sp = sub.add_parser("check-lemmas", help="run every structural check the input supports")
    _add_common(sp, q=True, infile=True, out=True, threads=True)
    sp.set_defaults(func=_cmd_check_lemmas)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
