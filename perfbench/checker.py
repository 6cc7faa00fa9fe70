"""Independent output checks for the `unitals` commands the benchmark runs.

Everything here is recomputed from the design files with the standard
library; nothing is compared against stored copies of earlier output.

    python3 perfbench/checker.py     # self-test: the checks reject bad input
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from workloads import Design, read_design


class CheckError(Exception):
    """A command's output contradicts the mathematics it reports on."""


class DesignView:
    """A design file's blocks with the lookups the checks need."""

    def __init__(self, v: int, k: int, blocks: list[tuple[int, ...]]):
        self.v, self.k, self.blocks = v, k, blocks
        self.block_set = set(blocks)
        self.pencils: list[list[int]] = [[] for _ in range(v)]
        for bid, blk in enumerate(blocks):
            for x in blk:
                if 0 <= x < v:
                    self.pencils[x].append(bid)

    @classmethod
    def load(cls, path: Path) -> "DesignView":
        return cls(*read_design(path))


def check_design(d: DesignView, q: int) -> None:
    """The 2-(q^3+1, q+1, 1) axioms, with this module's own pair count."""
    v, k = q**3 + 1, q + 1
    if d.v != v or d.k != k:
        raise CheckError(f"header v={d.v} k={d.k}, expected v={v} k={k}")
    if len(d.blocks) != q * q * (q * q - q + 1):
        raise CheckError(f"{len(d.blocks)} blocks, expected {q * q * (q * q - q + 1)}")
    covered = bytearray(v * v)
    for blk in d.blocks:
        if len(set(blk)) != k or not all(0 <= x < v for x in blk):
            raise CheckError(f"block {blk} is not {k} distinct points of 0..{v - 1}")
        for x, y in combinations(blk, 2):
            i = x * v + y if x < y else y * v + x
            if covered[i]:
                raise CheckError(f"pair {x},{y} lies on two blocks")
            covered[i] = 1
    if sum(covered) != v * (v - 1) // 2:
        raise CheckError("some pair of points lies on no block")


def check_translation(d: DesignView, perm: list[int], c: int) -> None:
    """Raw definition: a bijection fixing c that maps blocks to blocks and
    fixes every block through c setwise."""
    if sorted(perm) != list(range(d.v)):
        raise CheckError(f"center {c}: image is not a bijection")
    if perm[c] != c:
        raise CheckError(f"center {c}: translation moves its center")
    for blk in d.blocks:
        if tuple(sorted(perm[x] for x in blk)) not in d.block_set:
            raise CheckError(f"center {c}: block {blk} is not mapped to a block")
    for bid in d.pencils[c]:
        blk = d.blocks[bid]
        if set(perm[x] for x in blk) != set(blk):
            raise CheckError(f"center {c}: block {blk} through the center moves")


def perm_order(p: tuple[int, ...]) -> int:
    ident, n, cur = tuple(range(len(p))), 1, p
    while cur != ident:
        cur = tuple(p[x] for x in cur)
        n += 1
    return n


def check_closed(perms: list[tuple[int, ...]], c: int) -> None:
    group = set(perms) | {tuple(range(len(perms[0])))} if perms else set()
    for a in group:
        for b in group:
            if tuple(a[x] for x in b) not in group:
                raise CheckError(f"center {c}: translations are not closed under composition")


def check_subdesign_2_9_3_1(d: DesignView, centers: set[int]) -> None:
    """The centers carry a 2-(9,3,1) design cut out by the blocks."""
    lines = set()
    for blk in d.blocks:
        inside = tuple(x for x in blk if x in centers)
        if len(inside) >= 2:
            if len(inside) != 3:
                raise CheckError(f"block {blk} meets the center set in {len(inside)} points")
            lines.add(inside)
    pairs = [p for line in lines for p in combinations(line, 2)]
    if len(lines) != 12 or len(pairs) != len(set(pairs)) or len(set(pairs)) != 36:
        raise CheckError("the centers do not carry a 2-(9,3,1) design")


def report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())["payload"]
    except (ValueError, KeyError) as exc:
        raise CheckError(f"{path.name}: not a unitals report ({exc})") from None


class DesignChecker:
    """Checks every command run on one design.  Commands are checked in the
    session's order: `atlas_t2` and `classify` use what `atlas_t1` showed."""

    def __init__(self, design: Design, perm: list[int]):
        self.design = design
        self.perm = perm
        self.canonical = DesignView.load(design.canonical)
        self.relabelled = DesignView.load(design.relabelled)
        self.t1_bytes: bytes | None = None
        self.centers: set[int] | None = None

    def check_build(self, stdout: Path) -> None:
        """The build command (which exited 0) wrote a valid design."""
        check_design(self.canonical, self.design.q)
        if self.design.name == "fig":
            rep = report(stdout)
            if not rep.get("ok") or rep.get("center_count") != 9:
                raise CheckError("build-figueroa verification did not pass")

    def check(self, command: str, code: int, stdout: Path) -> bool:
        """True if the operation succeeded, False if it failed (nonzero
        exit); raises CheckError if a successful command's output is wrong."""
        if code != 0:
            return False
        try:
            getattr(self, "_" + command)(stdout)
        except (KeyError, IndexError, TypeError) as exc:
            raise CheckError(f"{command}: malformed report ({exc!r})") from None
        return True

    def _validate(self, out: Path) -> None:
        check_design(self.relabelled, self.design.q)
        rep = report(out)
        if rep.get("valid") is not True or rep.get("v") != self.relabelled.v:
            raise CheckError("validate rejects a valid unital")

    def _atlas_t1(self, out: Path) -> None:
        d, q = self.relabelled, self.design.q
        self.t1_bytes = out.read_bytes()
        rep = report(out)
        entries = rep["centers"]
        if [e["center"] for e in entries] != list(range(d.v)):
            raise CheckError("translations does not list every point once")
        centers = set()
        for e in entries:
            c, perms = e["center"], [tuple(t["image"]) for t in e["translations"]]
            for t, p in zip(e["translations"], perms):
                check_translation(d, list(p), c)
                if t["order"] != perm_order(p):
                    raise CheckError(f"center {c}: wrong order {t['order']}")
            if len(set(perms)) != len(perms) or e["group_order"] != len(perms) + 1:
                raise CheckError(f"center {c}: group order does not match its listing")
            check_closed(perms, c)
            if perms:
                centers.add(c)
            if self.design.name != "fig" and e["group_order"] != q:
                raise CheckError(f"center {c} of H({q}) has group order {e['group_order']}")
        if sorted(rep["mho"]) != sorted(set(range(d.v)) - centers):
            raise CheckError("mho is not the set of points without translations")
        if self.design.name == "fig":
            if len(centers) != 9:
                raise CheckError(f"Figueroa has {len(centers)} centers, expected 9")
            check_subdesign_2_9_3_1(d, centers)
        self.centers = centers

    def _atlas_t2(self, out: Path) -> None:
        if self.t1_bytes is None or out.read_bytes() != self.t1_bytes:
            raise CheckError("translations --threads 2 differs from --threads 1")

    def _lemmas(self, out: Path) -> None:
        if report(out).get("ok") is not True:
            raise CheckError("check-lemmas exits 0 without reporting ok")

    def _classify(self, out: Path) -> None:
        rep, q = report(out), self.design.q
        if self.design.name == "fig":
            w = rep.get("witness") or {}
            if (rep["conclusion"] != "hypothesis-failed"
                    or w.get("kind") != "point-without-translation"
                    or self.centers is None or w.get("point") in self.centers):
                raise CheckError("classify on Figueroa must name a point without translations")
        elif q % 2:
            if (rep["conclusion"] != "hypothesis-failed"
                    or (rep.get("witness") or {}).get("kind") != "no-involutory-translation"):
                raise CheckError(f"classify on H({q}) must fail on the involution hypothesis")
        else:
            iso = rep.get("isomorphism")
            if rep["conclusion"] != "verified-hermitian" or iso is None:
                raise CheckError(f"classify does not recognise H({q})")
            # iso maps relabelled points onto the canonical design, so
            # iso . relabelling must be an automorphism of the canonical one.
            sigma = [iso[self.perm[x]] for x in range(self.canonical.v)]
            if sorted(sigma) != list(range(self.canonical.v)) or any(
                tuple(sorted(sigma[x] for x in blk)) not in self.canonical.block_set
                for blk in self.canonical.blocks
            ):
                raise CheckError(f"classify's isomorphism for H({q}) is not one")

    def _onan(self, out: Path) -> None:
        rep, d = report(out), self.relabelled
        if self.design.name != "fig":
            if rep.get("status") != "none":
                raise CheckError("onan finds a configuration in a hermitian unital")
            return
        if rep.get("status") != "witness":
            raise CheckError("onan finds no configuration in the Figueroa unital")
        blocks = [set(d.blocks[b]) for b in rep["blocks"]]
        meets = []
        for a, b in combinations(blocks, 2):
            common = a & b
            if len(common) != 1:
                raise CheckError("onan witness blocks do not meet in single points")
            meets.extend(common)
        if len(blocks) != 4 or len(set(meets)) != 6 or sorted(meets) != rep["points"]:
            raise CheckError("onan witness is not four blocks on six distinct points")


def self_test() -> None:
    """The checks must reject a corrupted design and a non-translation."""
    pts = {(x, y): 3 * x + y for x in range(3) for y in range(3)}
    lines = [sorted(pts[(x, (m * x + b) % 3)] for x in range(3))
             for m in range(3) for b in range(3)]
    lines += [sorted(pts[(c, y)] for y in range(3)) for c in range(3)]
    ag = DesignView(9, 3, sorted(tuple(ln) for ln in lines))  # AG(2,3) = H(2)
    check_design(ag, 2)
    reflection = [pts[((-x) % 3, (-y) % 3)] for (x, y) in sorted(pts, key=pts.get)]
    check_translation(ag, reflection, 0)
    check_closed([tuple(reflection)], 0)

    bad = list(ag.blocks)
    bad[0] = (bad[0][0], bad[0][1], bad[1][2])
    swapped = list(reflection)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    shift = [pts[((x + 1) % 3, y)] for (x, y) in sorted(pts, key=pts.get)]
    for what, probe in (
        ("a corrupted design", lambda: check_design(DesignView(9, 3, bad), 2)),
        ("a non-automorphism", lambda: check_translation(ag, swapped, 0)),
        ("a map moving the center", lambda: check_translation(ag, shift, 0)),
        ("a set not closed", lambda: check_closed([tuple(reflection), tuple(shift)], 0)),
    ):
        try:
            probe()
        except CheckError:
            continue
        raise AssertionError(f"checker accepted {what}")


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")
