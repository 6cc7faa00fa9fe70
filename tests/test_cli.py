import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import unitals
from helpers import (DOUBLE_TXT, MISSING_TXT, PG3_TXT, ag23_doubled, onan_search_raw, relabel,
                     report_doc_raw)
from unitals.analysis import SharpTransitivityReport, sharply_transitive_suite
from unitals.cli import _write_json, main
from unitals.incidence import format_unital, read_unital
from unitals.permgroup import PermGroup, perm_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def h2_file(tmp_path):
    path = tmp_path / "h2.txt"
    assert main(["build-hermitian", "--q", "2", "--out", str(path)]) == 0
    return path


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_build_then_validate_roundtrip(capsys, tmp_path, h2_file):
    code, out, _ = run(capsys, "validate", "--in", str(h2_file))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["valid"] and payload["v"] == 9

    U = read_unital(h2_file)
    assert (U.q, U.v, len(U.blocks)) == (2, 9, 12)


def test_envelope_shape(capsys):
    code, out, _ = run(capsys, "omega", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "command", "input", "payload"}
    assert doc["command"] == "omega"
    assert doc["input"] == {"q": 2}
    assert doc["payload"] == {
        "K": [2],
        "mho": [],
        "omega": {"2": list(range(9))},
    }


def test_malformed_file_reports_line(capsys, tmp_path, h2_file):
    lines = h2_file.read_text().splitlines()
    lines[3] = "0 1 oops"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "validate", "--in", str(bad))
    assert code == 2
    assert f"{bad}:4:" in err


def test_wellformed_non_design_is_refuted_not_crashed(capsys, tmp_path, h2_file):
    lines = h2_file.read_text().splitlines()
    trimmed = tmp_path / "trimmed.txt"
    trimmed.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "validate", "--in", str(trimmed))
    assert code == 1
    payload = json.loads(out)["payload"]
    assert not payload["valid"]
    assert payload["checks"]["pair_coverage"] is False
    assert "pair_coverage" in payload["violations"]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--q", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["conclusion"] == "verified-hermitian"
    assert payload["omega2_full"] is True
    assert sorted(payload["isomorphism"]) == list(range(9))


def test_translations_single_center_schema(capsys):
    code, out, _ = run(capsys, "translations", "--q", "2", "--center", "0")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["center"] == 0 and payload["group_order"] == 2
    for entry in payload["translations"]:
        image = entry["image"]
        assert sorted(image) == list(range(9))
        assert perm_order(tuple(image)) == entry["order"] == 2


def test_translations_atlas_summary(capsys):
    code, out, _ = run(capsys, "translations", "--q", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["centers"]) == 9
    assert payload["K"] == [2] and payload["mho"] == []
    assert payload["omega"] == {"2": list(range(9))}


@pytest.mark.parametrize("command,digest", [
    ("omega", "eb4f97feaa562e2f31bafab2e96d7cb55c3da2cbfb012605e342ccdfd0801476"),
    ("classify", "b18b4ddf0d3fb448c1d7af5be425d6a49016fa4529c8f364e01802c8e56b196c"),
])
def test_omega_and_classify_transport_no_translation(capsys, monkeypatch, command, digest):
    """Both read the orders the atlas carries, never a transported
    permutation, so no translation is conjugated; the reports on H(5) keep
    their bytes."""
    import unitals.permgroup
    import unitals.translations

    def refuse(p, by):
        raise AssertionError("a translation was transported")

    monkeypatch.setattr(unitals.permgroup, "conjugate", refuse)
    monkeypatch.setattr(unitals.translations, "conjugate", refuse)
    code, out, _ = run(capsys, command, "--q", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_lemmas_transports_one_block_at_most(capsys, monkeypatch):
    """On H(7) the battery builds the translations at the centers of one
    block, the representative of T[7]'s one orbit on blocks, and no others."""
    import unitals.translations

    calls = []
    real = unitals.translations.conjugate
    monkeypatch.setattr(unitals.translations, "conjugate",
                        lambda p, by: calls.append(p) or real(p, by))
    code, _, _ = run(capsys, "check-lemmas", "--q", "7")
    assert code == 0
    assert 0 < len(calls) <= 8 * 6


def test_translations_report_conjugates_each_transported_translation_once(capsys, monkeypatch,
                                                                           atlas5):
    """The report reads every center's group once, so each translation at
    a center with a forest edge is conjugated exactly once: by its edge's
    generator, from its parent's translation of the same order."""
    import unitals.translations

    expected = [(sigma, g) for x, g in atlas5.edges.values() for sigma, _ in atlas5.group(x)]
    assert len(expected) == 4 * len(atlas5.edges) > 0
    calls = []
    real = unitals.translations.conjugate
    monkeypatch.setattr(unitals.translations, "conjugate",
                        lambda p, by: calls.append((p, by)) or real(p, by))
    code, _, _ = run(capsys, "translations", "--q", "5")
    assert code == 0
    assert sorted(calls) == sorted(expected)


@pytest.mark.parametrize("design", ["q2", "q3", "pg3", "h4_relabelled", "fig"])
def test_single_center_report_is_the_atlas_entry(capsys, monkeypatch, tmp_path, h4, design,
                                                 request):
    """``translations --center c`` writes the entry that the atlas report
    writes for c, at every center; PG(2, 3) mixes orders 2 and 3, and the
    Figueroa unital has centers transported from a searched one and
    centers with no translation.  A file is parsed once and its unital
    reused, so each of the 513 Figueroa runs costs only its search."""
    import unitals.incidence

    if design.startswith("q"):
        source = ["--q", design[1:]]
    else:
        monkeypatch.setattr(unitals.incidence, "read_unital",
                            functools.lru_cache(maxsize=None)(unitals.incidence.read_unital))
        if design == "pg3":
            text = PG3_TXT
        elif design == "fig":
            text = format_unital(request.getfixturevalue("fig").unital)
        else:
            perm = list(range(h4.v))
            random.Random(2022).shuffle(perm)
            text = format_unital(relabel(h4, perm))
        path = tmp_path / f"{design}.txt"
        path.write_text(text)
        source = ["--in", str(path)]
    code, out, _ = run(capsys, "translations", *source)
    assert code == 0
    centers = json.loads(out)["payload"]["centers"]
    for c, entry in enumerate(centers):
        code, out, _ = run(capsys, "translations", *source, "--center", str(c))
        assert code == 0 and json.loads(out)["payload"] == entry


def test_subunital_requires_p(capsys):
    code, _, _ = run(capsys, "subunital", "--q", "2")
    assert code == 2
    code, out, _ = run(capsys, "subunital", "--q", "2", "--p", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["subunital"]["isomorphic_to_hermitian"] is True
    assert payload["constant_intersection"]["constant_value"] == 3


def test_subunital_without_p_fails_before_loading_the_design(capsys, monkeypatch):
    import unitals.plane

    def refuse(q):
        raise AssertionError("the design was built")

    monkeypatch.setattr(unitals.plane, "hermitian_unital", refuse)
    code, out, err = run(capsys, "subunital", "--q", "16")
    assert (code, out, err) == (2, "", "error: subunital requires --p\n")


def test_onan_exit_codes(capsys):
    code, out, _ = run(capsys, "onan", "--q", "2")
    assert code == 0
    assert json.loads(out)["payload"]["status"] == "none"
    assert json.loads(out)["payload"]["nodes"] == 213

    code, out, _ = run(capsys, "onan", "--q", "2", "--budget", "1")
    assert code == 1
    assert json.loads(out)["payload"]["status"] == "budget-exhausted"


@pytest.mark.parametrize("budget", ["-1", "-5", "x"])
def test_onan_budget_below_zero_is_a_usage_error(capsys, budget):
    code, out, err = run(capsys, "onan", "--q", "2", "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_onan_budget_zero_is_exhaustive(capsys):
    code, out, _ = run(capsys, "onan", "--q", "3", "--budget", "0")
    assert code == 0
    assert json.loads(out)["payload"]["status"] == "none"


def test_onan_blocks_sharing_two_points_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "double.txt"
    path.write_text(DOUBLE_TXT)
    code, out, err = run(capsys, "onan", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: blocks 0 and 3 share more than one point\n"


def test_onan_on_disjoint_blocks_matches_the_raw_search(capsys, tmp_path):
    path = tmp_path / "missing.txt"
    path.write_text(MISSING_TXT)
    code, out, _ = run(capsys, "onan", "--in", str(path))
    assert code == 0
    expected = onan_search_raw(read_unital(path))
    assert json.loads(out)["payload"] == report_doc_raw(expected)


def test_isomorphic_exit_codes(capsys, tmp_path, h2_file):
    h3 = tmp_path / "h3.txt"
    assert main(["build-hermitian", "--q", "3", "--out", str(h3)]) == 0

    code, out, _ = run(capsys, "isomorphic", "--in", str(h2_file), "--q", "2")
    assert code == 0 and json.loads(out)["payload"]["isomorphic"]

    code, out, _ = run(capsys, "isomorphic", "--in", str(h2_file), str(h3))
    assert code == 1 and not json.loads(out)["payload"]["isomorphic"]

    code, _, err = run(capsys, "isomorphic", "--in", str(h2_file))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["translations"], ["omega"], ["classify"], ["subunital", "--p", "2"], ["onan"],
    ["check-lemmas"],
])
def test_in_and_q_together_is_a_usage_error(capsys, h2_file, argv):
    code, out, err = run(capsys, *argv, "--in", str(h2_file), "--q", "7")
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]} takes --in or --q, not both\n"


def test_isomorphic_two_files_and_q_is_a_usage_error(capsys, h2_file):
    code, out, err = run(capsys, "isomorphic", "--in", str(h2_file), str(h2_file), "--q", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_validate_checks_a_file_against_q(capsys, h2_file):
    code, out, _ = run(capsys, "validate", "--in", str(h2_file), "--q", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["input"] == {"in": str(h2_file)}
    assert doc["payload"]["q"] == 3 and not doc["payload"]["valid"]


def test_missing_input_source(capsys):
    code, _, err = run(capsys, "translations")
    assert code == 2 and "error:" in err


def test_nonexistent_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--in", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


USAGE_ERRORS = [
    (["validate", "--in", "A", "A"], "expected exactly one --in path here"),
    (["onan", "--in", "A", "A"], "expected exactly one --in path here"),
    (["omega"], "one of --in or --q is required"),
    (["check-lemmas"], "one of --in or --q is required"),
    (["omega", "--in", "A", "--q", "2"], "omega takes --in or --q, not both"),
    (["build-figueroa"],
     "build-figueroa requires --out (unital file; a .json sidecar is written next to it)"),
    (["subunital", "--q", "2"], "subunital requires --p"),
    (["subunital", "--q", "2", "--p", "3"], "no translations of order 3"),
    (["isomorphic", "--in", "A"], "isomorphic needs two --in paths, or one --in path and --q"),
    (["isomorphic", "--in", "A", "A", "--q", "2"],
     "isomorphic needs two --in paths, or one --in path and --q"),
    (["translations", "--q", "2", "--center", "99"], "center 99 out of range"),
    (["validate", "--in", "missing"], "[Errno 2] No such file or directory: 'missing'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=["-".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_lines(capsys, monkeypatch, tmp_path, h2_file, argv, message):
    """Every usage or input error exits 2 with one exact stderr line and no stdout."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A").write_text(h2_file.read_text())
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_lemmas(capsys):
    code, out, _ = run(capsys, "check-lemmas", "--q", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert payload["congruence"]["2"]["ok"] is True
    assert payload["transitivity"]["2"]["ok"] is True
    assert payload["dihedral_suite"]["ok"] is True


def test_check_lemmas_reads_the_dihedral_hypothesis_off_the_order_table(capsys, monkeypatch):
    # every center of H(4) carries three involutions, so the dihedral suite
    # does not apply, and deciding that must not enumerate T[2] ≅ PSU(3, 4)
    def refuse(self):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    code, out, _ = run(capsys, "check-lemmas", "--q", "4")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert payload["dihedral_suite"] == {"not-applicable": (
        "center 0 carries 3 involutory translations in a translation group of "
        "order 4; the suite needs exactly one at every center of an involutory "
        "translation")}


@pytest.mark.parametrize("argv", [
    ("omega", "--q", "2"),
    ("translations", "--q", "2"),
    ("check-lemmas", "--q", "2"),
])
def test_output_bytes_do_not_depend_on_thread_count(tmp_path, argv):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main([*argv, "--threads", "1", "--out", str(one)]) == 0
    assert main([*argv, "--threads", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def written_json(doc) -> str:
    buf = io.StringIO()
    _write_json(buf, doc)
    return buf.getvalue()


# Strings that json escapes: quotes, backslashes, control characters, and
# characters outside ASCII, astral ones among them (a surrogate pair each).
STRINGS = st.text() | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "é", "\U0001F600"])
INTS = st.integers() | st.integers(min_value=2**63, max_value=2**80) | st.integers(max_value=-(2**63))


@st.composite
def int_list_with_one_bool(draw):
    ints = draw(st.lists(INTS))
    ints.insert(draw(st.integers(0, len(ints))), draw(st.booleans()))
    return ints


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | INTS | STRINGS | st.lists(INTS) | int_list_with_one_bool(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_DOCS)
@example([1, True, 2])  # not an int array: the bool prints as true
def test_writer_matches_json_dumps(doc):
    assert written_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_writer_matches_json_dumps_on_a_nested_report():
    s3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3)
    reports = [sharply_transitive_suite(s3, (0, 1, 2), (1, 0, 2)),
               SharpTransitivityReport(False, ("a \"quoted\" reason", "é"), 4)]
    for rep in reports:
        doc = report_doc_raw(rep)
        assert written_json(rep) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # reports nested in a command's payload are written as they are
    nested = {"suite": reports[0], "reports": tuple(reports), "none": None}
    doc = {"suite": report_doc_raw(reports[0]),
           "reports": [report_doc_raw(rep) for rep in reports], "none": None}
    assert written_json(nested) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_stdout_report_is_written_in_few_pieces(tmp_path):
    stream = CountingStream()
    with contextlib.redirect_stdout(stream):
        assert main(["translations", "--q", "4"]) == 0
    text = stream.getvalue()
    assert stream.writes <= math.ceil(len(text) / 65536) + 1
    out = tmp_path / "t4.json"
    assert main(["translations", "--q", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("command", ["translations", "omega", "classify", "check-lemmas"])
@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_thread_count_below_one_is_a_usage_error(capsys, command, threads):
    code, out, err = run(capsys, command, "--q", "2", "--threads", threads)
    assert code == 2
    assert out == ""
    assert "--threads" in err


def test_build_figueroa(capsys, tmp_path):
    out_path = tmp_path / "fig.txt"
    code, out, _ = run(capsys, "build-figueroa", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)["payload"]
    assert report["ok"] is True and report["t2_order_on_h"] == 18

    U = read_unital(out_path)
    assert (U.v, len(U.blocks)) == (513, 3648)

    sidecar = json.loads((tmp_path / "fig.txt.json").read_text())
    assert sidecar["field"]["characteristic"] == 2
    assert sidecar["field"]["degree"] == 6
    assert len(sidecar["points"]) == 513


def test_build_figueroa_requires_out(capsys):
    code, _, _ = run(capsys, "build-figueroa")
    assert code == 2


# 2^61 - 1 is prime: a trial-division factorization of it never ends
@pytest.mark.parametrize("q", [3, 2**61 - 1])
def test_build_figueroa_rejects_too_large_a_plane(capsys, tmp_path, q):
    out_path = tmp_path / "fig.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "build-figueroa", "--q", str(q), "--out", str(out_path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (f"error: the twisted plane for q = {q} has {q**12 + q**6 + 1} points; "
                   "at most 100000 can be built\n")
    assert list(tmp_path.iterdir()) == []


def test_file_with_too_many_points_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("unital v=4915 k=3\n0 1 2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}:1: header v=4915 k=3 out of range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q,points", [(19, 130683), (32, 1049601)])
def test_build_hermitian_rejects_too_large_a_plane(capsys, tmp_path, q, points):
    out_path = tmp_path / "h.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "build-hermitian", "--q", str(q), "--out", str(out_path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (f"error: the plane PG(2, q²) for q = {q} has {points} points; "
                   "at most 100000 can be built\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["validate"], ["translations"], ["translations", "--center", "0"], ["omega"],
    ["classify"], ["subunital", "--p", "2"], ["onan"], ["check-lemmas"],
])
def test_every_q_command_rejects_too_large_a_plane(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "19")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_isomorphic_rejects_too_large_a_plane(capsys, h2_file):
    code, out, err = run(capsys, "isomorphic", "--in", str(h2_file), "--q", "19")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "130683 points" in err


@pytest.mark.parametrize("text,lone", [(MISSING_TXT, 3), (DOUBLE_TXT, 4)])
@pytest.mark.parametrize("argv", [
    ["translations"],
    ["translations", "--center", "0"],
    ["omega"],
    ["subunital", "--p", "2"],
    ["check-lemmas"],
])
def test_point_sharing_no_block_with_a_center_is_an_input_error(
        capsys, tmp_path, text, lone, argv):
    path = tmp_path / "u.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: point {lone} shares no block with center 0\n"


@pytest.mark.parametrize("argv", [
    ["translations"],
    ["translations", "--center", "4"],
    ["omega"],
    ["subunital", "--p", "2"],
    ["check-lemmas"],
])
def test_pair_on_two_blocks_is_an_input_error(capsys, tmp_path, argv):
    """Every point shares a block with every center here, but the pair (1, 2)
    lies on two blocks, which the translation search cannot read off the
    pair table."""
    path = tmp_path / "u.txt"
    path.write_text(format_unital(ag23_doubled()))
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: pair (1, 2) lies on more than one block\n"


def _child_env() -> dict:
    """The environment of a child that imports the same package as this
    process, installed or not."""
    src = str(Path(unitals.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "unitals.cli", "omega", "--q", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["K"] == [2]


# Costly to import and used by no command: ``dataclasses`` pulls in
# ``inspect``, which pulls in ``ast``, ``dis`` and ``tokenize``.
SLOW_IMPORTS = ("dataclasses", "inspect")

# Runs ``python -m unitals.cli ARGS`` and then writes two lines to stderr,
# whatever the exit code: the loaded ``unitals`` modules, and the loaded
# modules of SLOW_IMPORTS.
FOOTPRINT = f"""
import runpy, sys
try:
    runpy.run_module("unitals.cli", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "unitals")),
          file=sys.stderr)
    print(*(m for m in {SLOW_IMPORTS!r} if m in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize("argv,modules", [
    (["--version"], []),
    (["validate", "--in"], ["incidence"]),
    # H(2) passes block 0's pairs, so onan reads the translations
    (["onan", "--in"], ["incidence", "permgroup", "translations"]),
    (["translations", "--in"], ["incidence", "permgroup", "translations"]),
    (["build-hermitian", "--q", "2"], ["gf", "incidence", "plane"]),
    (["classify", "--in"], ["analysis", "gf", "incidence", "permgroup", "plane", "translations"]),
    (["check-lemmas", "--in"], ["analysis", "gf", "incidence", "permgroup", "plane",
                                "translations"]),
    # PG(2, 3) has a witness through block 0: no atlas is built
    (["onan", "--in", "pg3"], ["incidence"]),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, h2_file, argv, modules):
    if argv[-1] == "--in":
        argv = [*argv, str(h2_file)]
    elif argv[-1] == "pg3":
        (tmp_path / "pg3.txt").write_text(PG3_TXT)
        argv = [*argv[:-1], str(tmp_path / "pg3.txt")]
    bare = subprocess.run(  # what the interpreter loads before any command
        [sys.executable, "-c", f"import sys; print(*(m for m in {SLOW_IMPORTS!r} if m in sys.modules))"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded, slow = proc.stderr.split("\n")[:2]
    assert loaded.split() == ["unitals", *(f"unitals.{m}" for m in modules)]
    assert slow.split() == bare.stdout.split()
