"""The two benchmark sessions: which designs are built, how their points are
relabelled from the seed, and which `unitals` commands run on them.

Shared by `run.py` (one subprocess per command) and `replay.py` (the same
commands as in-process calls, for the traced run).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("hermitian", "figueroa")

# Command key -> end-to-end metric it is summed into.
COMMANDS = {
    "validate": "validate_s",
    "atlas_t1": "atlas_t1_s",
    "atlas_t2": "atlas_t2_s",
    "lemmas": "lemmas_s",
    "classify": "classify_s",
    "onan": "onan_s",
}

# Sub-second commands are timed twice per round and their median kept: a
# single short sample swings by a third on a shared machine, and by a tenth
# after the speed probe's correction.
REPEATS = {
    "hermitian": {"validate": 2},
    "figueroa": {"validate": 2, "onan": 2},
}

# CPUs a command is pinned to: its worker processes, or one.
THREADS = {"atlas_t2": 2}

# Set-ups per run; setup_s is their median.  A figueroa set-up takes 7-11 s
# of wall time; a third one would lengthen runs that take 44-64 s already.
SETUPS = {"hermitian": 3, "figueroa": 2}


@dataclass(frozen=True)
class Design:
    name: str  # h2 .. h5, fig
    q: int  # the unital's order: blocks have q+1 points
    canonical: Path  # file written by the build command
    relabelled: Path  # the same design after the seeded point permutation

    @property
    def build_argv(self) -> list[str]:
        if self.name == "fig":
            return ["build-figueroa", "--q", "2", "--out", str(self.canonical)]
        return ["build-hermitian", "--q", str(self.q), "--out", str(self.canonical)]

    @property
    def lemmas_input(self) -> Path:
        # check-lemmas reads the canonical H(q) files.  Its failure on H(4)
        # must not depend on the seed, and on a relabelled H(5) its
        # isomorphism search runs from 11 s to over 50 s depending on the
        # relabelling, which no run length can keep steady.
        return self.canonical if self.name != "fig" else self.relabelled

    def argv(self, command: str) -> list[str]:
        r = str(self.relabelled)
        return {
            "validate": ["validate", "--in", r],
            "atlas_t1": ["translations", "--threads", "1", "--in", r],
            "atlas_t2": ["translations", "--threads", "2", "--in", r],
            "lemmas": ["check-lemmas", "--in", str(self.lemmas_input)],
            "classify": ["classify", "--in", r],
            "onan": ["onan", "--in", r],
        }[command]


def designs(workload: str, directory: Path) -> list[Design]:
    if workload == "hermitian":
        named = [(f"h{q}", q) for q in (2, 3, 4, 5)]
    elif workload == "figueroa":
        named = [("fig", 8)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Design(n, q, directory / f"{n}.txt", directory / f"{n}.relabelled.txt")
            for n, q in named]


def point_permutation(seed: int, design: str, v: int) -> list[int]:
    """Seeded relabelling: canonical point x becomes point perm[x]."""
    perm = list(range(v))
    random.Random(f"{seed}/{design}").shuffle(perm)
    return perm


def read_design(path: Path) -> tuple[int, int, list[tuple[int, ...]]]:
    """(v, k, blocks) of a design file; no validation beyond the header."""
    lines = [ln.split("#", 1)[0].split() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0]
    if len(head) != 3 or head[0] != "unital":
        raise ValueError(f"{path}: bad header {head}")
    v, k = int(head[1][2:]), int(head[2][2:])
    return v, k, [tuple(int(x) for x in ln) for ln in lines[1:]]


def relabel(design: Design, seed: int) -> list[int]:
    """Write the relabelled file for `design` and return the permutation."""
    v, k, blocks = read_design(design.canonical)
    perm = point_permutation(seed, design.name, v)
    moved = sorted(tuple(sorted(perm[x] for x in blk)) for blk in blocks)
    text = [f"unital v={v} k={k}\n"]
    text.extend(" ".join(map(str, blk)) + "\n" for blk in moved)
    design.relabelled.write_text("".join(text))
    return perm
