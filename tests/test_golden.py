"""Golden CLI reports: stdout bytes and exit code pinned for fixed inputs.

Small reports are compared byte for byte with ``golden/<name>.out``; large
ones by the sha256 digest of their stdout.  A case listed in ``WRITES`` also
pins the sha256 of each file it writes.  Exit codes and digests are kept in
``golden/manifest.json``.  Every command runs in-process through ``main``
in one temporary working directory that holds the input files, so the file
names inside the reports are stable and the cached Figueroa bundle is
reused.  The cases run in list order: the Figueroa file cases read the file
that ``build-figueroa`` writes.

After an intended change to a report, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from helpers import DOUBLE_TXT, ISO_A_TXT, ISO_B_TXT, MISSING_TXT, PG3_TXT, relabel
from unitals.cli import main
from unitals.incidence import format_unital
from unitals.plane import hermitian_unital

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"


def h4_relabelled() -> str:
    """H(4) with its points shuffled by a fixed seed, as a design file."""
    H = hermitian_unital(4)
    perm = list(range(H.v))
    random.Random(2022).shuffle(perm)
    return format_unital(relabel(H, perm))


FILES = {
    "double.txt": DOUBLE_TXT,
    "missing.txt": MISSING_TXT,
    "iso_a.txt": ISO_A_TXT,
    "iso_b.txt": ISO_B_TXT,
    "h4r.txt": h4_relabelled(),
    "pg3.txt": PG3_TXT,
}

# (name, argv, compare by digest)
CASES = [
    ("validate-q3", ["validate", "--q", "3"], False),
    ("validate-double", ["validate", "--in", "double.txt"], False),
    ("validate-missing", ["validate", "--in", "missing.txt"], False),
    *(
        (f"{cmd}-q{q}", [cmd, "--q", str(q), *extra], False)
        for q in (2, 3)
        for cmd, extra in (
            ("translations", []),
            ("omega", []),
            ("classify", []),
            ("subunital", ["--p", "2"]),
            ("check-lemmas", []),
            ("onan", []),
        )
    ),
    ("onan-q3-budget5000", ["onan", "--q", "3", "--budget", "5000"], False),
    ("onan-q4", ["onan", "--q", "4"], True),
    ("onan-q5", ["onan", "--q", "5"], True),
    ("isomorphic-two-files", ["isomorphic", "--in", "iso_a.txt", "iso_b.txt"], False),
    ("check-lemmas-q4", ["check-lemmas", "--q", "4"], True),
    ("classify-q4", ["classify", "--q", "4"], True),
    # both orbit checks and the H(5)-against-H(5) isomorphism search
    ("check-lemmas-q5", ["check-lemmas", "--q", "5"], True),
    ("isomorphic-h4-relabelled", ["isomorphic", "--in", "h4r.txt", "--q", "4"], True),
    ("classify-h4-relabelled", ["classify", "--in", "h4r.txt"], True),
    # the isomorphism subunital_analysis reports on a relabelled input
    ("check-lemmas-h4-relabelled", ["check-lemmas", "--in", "h4r.txt"], True),
    # orders mixed within each center's group, and the congruence failures
    ("translations-pg3", ["translations", "--in", "pg3.txt"], True),
    ("check-lemmas-pg3", ["check-lemmas", "--in", "pg3.txt"], True),
    *(
        (f"build-hermitian-q{q}", ["build-hermitian", "--q", str(q)], True)
        for q in (2, 3, 4, 5, 7, 8)
    ),
    # at scale: 16,512 transported translations, and the H(8) atlas
    ("translations-q7", ["translations", "--q", "7"], True),
    ("omega-q8", ["omega", "--q", "8"], True),
    ("classify-q7", ["classify", "--q", "7"], True),
    ("check-lemmas-q7", ["check-lemmas", "--q", "7"], True),
    # T[2] ≅ PSU(3, 8) has order 5,515,776; the dihedral suite is not applicable
    ("check-lemmas-q8", ["check-lemmas", "--q", "8"], True),
    ("classify-q8", ["classify", "--q", "8"], True),
    ("build-figueroa-q2", ["build-figueroa", "--q", "2", "--out", "fig.txt"], True),
    ("classify-fig", ["classify", "--in", "fig.txt"], True),
    ("check-lemmas-fig", ["check-lemmas", "--in", "fig.txt"], True),
    # the canonical file's first witness is node 648
    ("onan-fig", ["onan", "--in", "fig.txt"], False),
    ("onan-fig-budget647", ["onan", "--in", "fig.txt", "--budget", "647"], False),
    ("onan-fig-budget648", ["onan", "--in", "fig.txt", "--budget", "648"], False),
]

# name -> the files the case writes, pinned by digest
WRITES = {"build-figueroa-q2": ("fig.txt", "fig.txt.json")}


def run_cases() -> dict:
    """name -> (exit code, stdout, {written file: sha256}) for every case,
    in one working directory."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in FILES.items():
            Path(tmp, fname).write_text(text)
        os.chdir(tmp)
        try:
            for name, argv, _ in CASES:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                written = {f: sha256(Path(f).read_bytes()) for f in WRITES.get(name, ())}
                out[name] = (code, buf.getvalue(), written)
        finally:
            os.chdir(cwd)
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def reports():
    return run_cases()


@pytest.mark.parametrize("name,digest", [(n, d) for n, _, d in CASES])
def test_report_matches_golden(reports, name, digest):
    expected = json.loads(MANIFEST.read_text())[name]
    code, stdout, written = reports[name]
    assert code == expected["exit"]
    assert written == expected.get("files", {})
    if digest:
        assert sha256(stdout.encode()) == expected["sha256"]
    else:
        assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for (name, _, digest), (code, stdout, written) in zip(CASES, run_cases().values()):
        manifest[name] = {"exit": code}
        if written:
            manifest[name]["files"] = written
        if digest:
            manifest[name]["sha256"] = sha256(stdout.encode())
        else:
            (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
