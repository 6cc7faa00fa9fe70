"""The pinned CLI runs: each command must exit 0 within its timeout, peak
below its RSS bound and keep its report's sha256 or payload fields.

    PYTHONPATH=src python3 tests/pinned_runs.py

Every pin runs, in table order, each in its own child process; this
process reads the child's peak RSS from ``os.wait4``.  The script exits
nonzero at the first pin that fails.  Reports go to a temporary directory.
The times in the comments were measured on a shared 2-vCPU machine with
Python 3.11.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# (command after ``unitals.cli``, timeout in s, peak RSS bound in MB, the
# report's sha256 or None, payload fields the report must hold); ``{dir}``
# is the temporary directory, and each command gets ``--out {dir}/out.json``
PINS = [
    # the lemma battery reads the searched translations and one block per
    # orbit, and the atlas conjugates only what it reads: about 4 s, 90 MB
    (["check-lemmas", "--q", "11"], 30, 150,
     "49d704819ccb4fa5cb3b4b5eb96a0cedcd266f3569fbf1bac4a3fb748d721f38", {"ok": True}),
    # the battery at scale: about 30 s, 570 MB
    (["check-lemmas", "--q", "16"], 90, 700,
     "27a0ff3fd7cd7920dfcfc823db9f35b89a6acd9814645f1a93772be1fa5e728f", {"ok": True}),
    # omega reads the carried orders and transports nothing: about 5 s, 130 MB
    (["omega", "--q", "13"], 60, 250,
     "5eea1d74192d3bb32253009761fb5307eabafa6c6eae236e1a8d9c8295b3e7f2", {}),
    # past block 0's pairs the searched translations certify H(7), H(8) and
    # H(13) free of configurations, and the nodes are the exhaustive
    # search's, counted in closed form: about 0.3 s, 21 MB; 0.6 s, 26 MB;
    # and 10 s, 150 MB
    (["onan", "--q", "7"], 60, 30, None, {"status": "none", "nodes": 42676575}),
    (["onan", "--q", "8"], 60, 40, None, {"status": "none", "nodes": 158977896}),
    (["onan", "--q", "13"], 60, 200,
     "7cf23040aaaab51bcc6639fc199fc50e050f1565c95f12dc3c7d9fba72a12b18",
     {"status": "none", "nodes": 19231071039}),
    # one block and 4911 free points: one search level per point, more
    # levels than the recursion limit allows frames: about 8 s, 293 MB
    (["isomorphic", "--in", "{dir}/one-block.txt", "{dir}/one-block.txt"], 60, 400, None,
     {"isomorphic": True}),
    # the report is written in 64 KiB pieces: about 1 s, 39 MB
    (["translations", "--q", "8"], 30, 100,
     "24474f557c2a88f0f38d3c5f595e1e6bfbbd76a005a65aa8eae7d7a3ae8b44f2", {}),
    # 600 components joined only at point 0, one search level each: more
    # levels than the recursion limit allows frames: about 0.4 s, 128 MB
    (["translations", "--center", "0", "--in", "{dir}/rigid.txt"], 30, 200, None,
     {"group_order": 1}),
]


def run(argv: list[str], timeout: int) -> tuple[int, float, float]:
    """Exit status, seconds and peak RSS in MB of one child, killed at the timeout."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "unitals.cli", *argv])
    timer = threading.Timer(timeout, child.kill)
    timer.start()
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = status  # reaped here, so Popen must not wait for it
    return status, time.perf_counter() - start, usage.ru_maxrss / 1024


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "one-block.txt").write_text("unital v=4914 k=3\n0 1 2\n")
        # blocks {0, a, a+1}, {0, a+2, a+3}, {0, a+4, a+5}, {a, a+2, a+4}, a = 1, 7, 13, …
        rigid = [f"0 {a} {a + 1}\n0 {a + 2} {a + 3}\n0 {a + 4} {a + 5}\n{a} {a + 2} {a + 4}\n"
                 for a in range(1, 3601, 6)]
        Path(tmp, "rigid.txt").write_text("unital v=3601 k=3\n" + "".join(rigid))
        out = Path(tmp, "out.json")
        for command, timeout, max_mb, sha256, fields in PINS:
            argv = [a.format(dir=tmp) for a in command] + ["--out", str(out)]
            name = " ".join(command).replace("{dir}/", "")
            status, seconds, peak_mb = run(argv, timeout)
            assert seconds < timeout, f"{name}: killed after {timeout} s"
            assert status == 0, f"{name}: exit status {status}"
            assert peak_mb < max_mb, f"{name}: peak RSS {peak_mb:.1f} MB, bound {max_mb} MB"
            data = out.read_bytes()
            payload = json.loads(data)["payload"]
            for key, want in fields.items():
                got = payload[key]
                assert got == want and type(got) is type(want), f"{name}: {key} = {got!r}"
            digest = hashlib.sha256(data).hexdigest()
            assert sha256 is None or digest == sha256, f"{name}: sha256 {digest}"
            out.unlink()
            print(f"{name}: {seconds:.1f} s, peak RSS {peak_mb:.1f} MB, sha256 {digest}", flush=True)


if __name__ == "__main__":
    main()
