import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unitals
from helpers import DOUBLE_TXT, MISSING_TXT, onan_search_raw
from unitals.cli import main, report_json
from unitals.incidence import read_unital
from unitals.permgroup import perm_order


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


def test_subunital_requires_p(capsys):
    code, _, _ = run(capsys, "subunital", "--q", "2")
    assert code == 2
    code, out, _ = run(capsys, "subunital", "--q", "2", "--p", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["subunital"]["isomorphic_to_hermitian"] is True
    assert payload["constant_intersection"]["constant_value"] == 3


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
    assert json.loads(out)["payload"] == report_json(expected)


def test_isomorphic_exit_codes(capsys, tmp_path, h2_file):
    h3 = tmp_path / "h3.txt"
    assert main(["build-hermitian", "--q", "3", "--out", str(h3)]) == 0

    code, out, _ = run(capsys, "isomorphic", "--in", str(h2_file), "--q", "2")
    assert code == 0 and json.loads(out)["payload"]["isomorphic"]

    code, out, _ = run(capsys, "isomorphic", "--in", str(h2_file), str(h3))
    assert code == 1 and not json.loads(out)["payload"]["isomorphic"]

    code, _, err = run(capsys, "isomorphic", "--in", str(h2_file))
    assert code == 2 and "error:" in err


def test_missing_input_source(capsys):
    code, _, err = run(capsys, "translations")
    assert code == 2 and "error:" in err


def test_nonexistent_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--in", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


def test_check_lemmas(capsys):
    code, out, _ = run(capsys, "check-lemmas", "--q", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert payload["congruence"]["2"]["ok"] is True
    assert payload["transitivity"]["2"]["ok"] is True
    assert payload["dihedral_suite"]["ok"] is True


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


def test_module_execution():
    # the child imports the same package as this process, installed or not
    src = str(Path(unitals.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "unitals.cli", "omega", "--q", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["K"] == [2]
