"""Replay one benchmark session in this interpreter, optionally traced.

    python3 perfbench/replay.py --workload hermitian --seed 1 --dir DIR --trace 1 --out FILE

Runs the session's `unitals` commands in the CLI's order through
`unitals.cli.main`, each with its stdout in DIR.  Before each command the
library's lru caches are cleared, so every command starts as cold as a fresh
`unitals` process.  With `--trace 1`, each public function listed in TRACED
runs inside a span (id, parent, name, start, end, attrs); spans are kept in
memory and written to FILE at the end with the exit codes and the session's
wall time.  Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from workloads import COMMANDS, designs, relabel

import unitals.analysis
import unitals.cli
import unitals.figueroa
import unitals.gf
import unitals.incidence
import unitals.permgroup
import unitals.plane
import unitals.translations

# (module, function, attrs taken from the call and its result)
TRACED = [
    (unitals.gf, "make_field", None),
    (unitals.plane, "projective_plane", None),
    (unitals.plane, "hermitian_unital", None),
    (unitals.figueroa, "build_figueroa_plane", None),
    (unitals.figueroa, "build_fig_polarity", None),
    (unitals.figueroa, "figueroa_bundle", None),
    (unitals.figueroa, "verify_figueroa_theorems", None),
    (unitals.incidence, "read_unital", None),
    (unitals.incidence, "validate_unital", None),
    (unitals.incidence, "onan_search", lambda a, k, r: {"nodes": r.nodes}),
    (unitals.incidence, "isomorphism_search", None),
    (unitals.translations, "translations_at", lambda a, k, r: {"center": a[1]}),
    (unitals.translations, "is_translation", None),
    (unitals.translations, "build_atlas",
     lambda a, k, r: {"threads": k.get("threads", a[1] if len(a) > 1 else 1)}),
    (unitals.translations, "orbit_congruence_check", None),
    (unitals.translations, "translation_transitivity_check", None),
    (unitals.permgroup, "generalized_dihedral_check", None),
    (unitals.analysis, "subunital_analysis", None),
    (unitals.analysis, "constant_intersection_check", None),
    (unitals.analysis, "sharply_transitive_suite", None),
    (unitals.analysis, "classify", None),
]
CACHED = [unitals.gf.make_field, unitals.plane.projective_plane, unitals.figueroa.figueroa_bundle]


class Tracer:
    """Nested spans of one single-threaded session, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            extra = attrs(args, kwargs, result) if attrs and result is not None else {}
            self.spans[sid] = [sid, parent, name, start, end, extra]

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def install(self) -> None:
        """Swap each traced function for a spanning wrapper in every
        `unitals` module that imported it, and in TranslationAtlas."""
        modules = [m for n, m in sys.modules.items() if n == "unitals" or n.startswith("unitals.")]
        for module, attr, attrs in TRACED:
            original = getattr(module, attr)
            layer = module.__name__.split(".")[1]
            wrapper = self.wrap(f"{layer}.{attr}", original, attrs)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        atlas = unitals.translations.TranslationAtlas
        atlas.group_for = self.wrap("permgroup.group_for", atlas.group_for)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("hermitian", "figueroa", "figueroa-build"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    args.dir.mkdir(parents=True)
    build_only = args.workload == "figueroa-build"
    session = designs("figueroa" if build_only else args.workload, args.dir)
    codes = {}

    def command(key: str, argv: list[str]) -> None:
        for fn in CACHED:
            fn.cache_clear()
        with open(args.dir / f"{key}.out", "w") as fh, contextlib.redirect_stdout(fh):
            if args.trace:
                codes[key] = tracer.call(f"cli.{argv[0]}", unitals.cli.main, (argv,))
            else:
                codes[key] = unitals.cli.main(argv)

    start = time.perf_counter()
    for d in session:
        command(f"{d.name}.build", d.build_argv)
        relabel(d, args.seed)
    for d in [] if build_only else session:
        for cmd in COMMANDS:
            command(f"{d.name}.{cmd}", d.argv(cmd))
    session_s = time.perf_counter() - start

    # Cost of one span around a no-op, so the tracing overhead can be told
    # apart from the machine's drift between the traced and untraced replays.
    noop, n = Tracer().wrap("probe", int), 20000
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    span_cost_s = (time.perf_counter() - t0) / n
    args.out.write_text(json.dumps({"spans": tracer.spans, "codes": codes,
                                    "session_s": session_s, "span_cost_s": span_cost_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
