"""Session benchmark for the `unitals` command line, standard library only.

    python3 perfbench/run.py --workload hermitian --seed 1 --seconds 55 --trace 0

Run from the repository root.  `--trace 0` drives the real CLI, one
subprocess per command in a closed loop with one client, and prints the
end-to-end metrics.  `--trace 1` replays the same session in-process with
spans around the library's public functions and prints per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from checker import CheckError, DesignChecker, self_test
from workloads import COMMANDS, REPEATS, SETUPS, THREADS, WORKLOADS, designs, relabel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 150
STARTUP_PROBES = 5
# Speed probe: a thread on each CPU a command is pinned to times PROBE_LOOP
# additions every PROBE_EVERY_S while the command runs (about 2 % of a CPU).
PROBE_LOOP = 10_000
PROBE_EVERY_S = 0.02
# The probe's time on an uncontended vCPU of the machine the reference figures
# in perfbench/README.md come from.  End-to-end times are scaled to that speed.
PROBE_NOMINAL_S = 420e-6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return time.perf_counter() - t0


class SpeedProbe:
    """Measures the speed of the CPUs a command runs on, while it runs.

    The shared host slows each vCPU at times, a fixed loop by up to 40 %,
    independently of the other vCPU and over seconds to minutes, so the wall
    times of one command spread by a quarter.  A thread pinned to each of the command's CPUs
    times probe_loop every PROBE_EVERY_S; `scale()` is PROBE_NOMINAL_S over
    the mean of the per-CPU medians."""

    def __init__(self, cpus: list[int]):
        self.stop = threading.Event()
        self.samples: dict[int, list[float]] = {c: [] for c in cpus}
        self.threads = [threading.Thread(target=self._sample, args=(c,)) for c in cpus]
        for t in self.threads:
            t.start()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        samples = self.samples[cpu]
        while True:
            samples.append(probe_loop())
            if self.stop.wait(PROBE_EVERY_S):
                return

    def scale(self) -> float:
        """Stop and join the threads; the factor for the command's wall time."""
        self.stop.set()
        for t in self.threads:
            t.join()
        return PROBE_NOMINAL_S / statistics.mean(statistics.median(s) for s in self.samples.values())


class Sample(NamedTuple):
    wall: float  # seconds from start to exit
    time: float  # wall scaled to the nominal CPU speed, PROBE_NOMINAL_S / probe
    code: int
    rss_mb: float  # peak RSS of this child alone


def run_cli(argv: list[str], stdout: Path, threads: int = 1) -> Sample:
    """Run one `unitals` command pinned to its first `threads` CPUs.

    Peak RSS comes from wait4 on this child alone: RUSAGE_CHILDREN would
    report the largest child seen so far in this process."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:threads]
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        os.sched_setaffinity(0, cpus)  # this thread only; the child inherits it
        try:
            proc = subprocess.Popen([sys.executable, "-m", "unitals.cli", *argv],
                                    stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        finally:
            os.sched_setaffinity(0, allowed)
        probe = SpeedProbe(cpus)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            wall = time.perf_counter() - t0
            scale = probe.scale()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, wall * scale, proc.returncode, usage.ru_maxrss / 1024.0)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def build(workload: str, directory: Path, seed: int) -> tuple[float, float, float, list[DesignChecker]]:
    """One set-up: build every design with the CLI, check it, relabel it.
    Returns (build time, build wall seconds, largest peak RSS, checkers)."""
    directory.mkdir(parents=True)
    total, wall, rss, checkers = 0.0, 0.0, 0.0, []
    for d in designs(workload, directory):
        out = directory / f"{d.name}.build.out"
        sample = run_cli(d.build_argv, out)
        total += sample.time
        wall += sample.wall
        rss = max(rss, sample.rss_mb)
        if sample.code != 0:
            raise CheckError(f"{d.build_argv[0]} for {d.name} exited {sample.code}")
        checker = DesignChecker(d, relabel(d, seed))
        checker.check_build(out)
        checkers.append(checker)
    return total, wall, rss, checkers


def run_round(workload: str, checkers: list[DesignChecker],
              ok: dict[tuple[int, str], bool]) -> tuple[dict[str, float], float, float]:
    """The six commands on every design; (metric -> summed time, round wall
    seconds, peak RSS).

    One operation is one command on one design, and `ok` records whether
    each has passed its check in every sample so far.  A command with
    REPEATS runs again in later passes over the designs, so its samples are
    spread over the round; its time is the median of its samples."""
    repeats = REPEATS[workload]
    walls: dict[tuple[int, str], list[float]] = {}
    rss, wall = 0.0, 0.0
    for rep in range(max(repeats.values())):
        for i, checker in enumerate(checkers):
            d = checker.design
            for command in COMMANDS:
                if rep >= repeats.get(command, 1):
                    continue
                out = d.canonical.parent / f"{d.name}.{command}.out"
                sample = run_cli(d.argv(command), out, THREADS.get(command, 1))
                rss = max(rss, sample.rss_mb)
                wall += sample.wall
                walls.setdefault((i, command), []).append(sample.time)
                ok[i, command] = ok.get((i, command), True) and checker.check(command, sample.code, out)
    times = dict.fromkeys(COMMANDS.values(), 0.0)
    for (_, command), samples in walls.items():
        times[COMMANDS[command]] += statistics.median(samples)
    return times, wall, rss


def end_to_end(workload: str, seed: int, seconds: int, work: Path) -> dict:
    """Alternate set-ups and rounds, so that both sample the whole run.

    There are SETUPS set-ups and at least one round.  Another round starts
    only if it and the set-ups still to come, at their mean length so far,
    would end the run within `seconds` of its start.  So a run lasts about
    `seconds` however fast the shared machine runs: two or three rounds at
    its usual speed, one on a slow stretch.  An operation fails if any of
    its samples, in any round, fails."""
    setups, rounds, walls, rss, ok = [], [], [], 0.0, {}
    setup_spans, round_spans = [], []
    start = time.perf_counter()

    def another_round() -> bool:
        if not rounds:
            return True
        ahead = statistics.mean(round_spans)
        ahead += (SETUPS[workload] - len(setups)) * statistics.mean(setup_spans)
        return time.perf_counter() - start + ahead <= seconds

    while True:
        need_setup, want_round = len(setups) < SETUPS[workload], another_round()
        if not (need_setup or want_round):
            break
        t0 = time.perf_counter()
        if need_setup and (len(setups) <= len(rounds) or not want_round):
            setup, wall, peak, checkers = build(workload, work / f"setup{len(setups)}", seed)
            setups.append(setup)
            setup_spans.append(time.perf_counter() - t0)
        else:
            times, wall, peak = run_round(workload, checkers, ok)
            rounds.append(times)
            round_spans.append(time.perf_counter() - t0)
        walls.append(wall)
        rss = max(rss, peak)

    setup_s = statistics.median(setups)
    metrics = {"setup_s": (setup_s, "s")}
    for metric in COMMANDS.values():
        metrics[metric] = (statistics.median(r[metric] for r in rounds), "s")
    metrics["session_s"] = (setup_s + statistics.median(sum(r.values()) for r in rounds), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    print(f"# {workload} seed={seed}: {len(setups)} set-ups {[round(s, 3) for s in setups]}, "
          f"{len(rounds)} round(s) {[round(sum(r.values()), 3) for r in rounds]}; "
          f"wall s of each in turn {[round(w, 3) for w in walls]}; run {time.perf_counter() - start:.1f} s")
    return {"attempted": len(ok), "failed": sum(not good for good in ok.values()), "metrics": metrics}


def startup_s(work: Path) -> float:
    """`unitals --version` in a fresh interpreter, median of a few."""
    walls = []
    for _ in range(STARTUP_PROBES):
        sample = run_cli(["--version"], work / "version.out")
        if sample.code != 0:
            raise CheckError(f"unitals --version exited {sample.code}")
        walls.append(sample.wall)
    return statistics.median(walls)


def replay(workload: str, seed: int, directory: Path, trace: bool) -> dict:
    """Run replay.py in a fresh interpreter and return what it wrote."""
    out = directory.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "replay.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(directory), "--trace", str(int(trace)),
           "--out", str(out)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=170,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


LAYER_SELF = {  # per-layer metric -> span names whose self times it sums
    "gf.field_s": ["gf.make_field"],
    "plane.pg_s": ["plane.projective_plane"],
    "plane.hermitian_s": ["plane.hermitian_unital"],
    "figueroa.twist_s": ["figueroa.build_figueroa_plane"],
    "figueroa.polarity_s": ["figueroa.build_fig_polarity"],
    "figueroa.bundle_s": ["figueroa.figueroa_bundle"],
    "figueroa.verify_s": ["figueroa.verify_figueroa_theorems"],
    "incidence.parse_s": ["incidence.read_unital"],
    "incidence.validate_s": ["incidence.validate_unital"],
    "incidence.onan_s": ["incidence.onan_search"],
    "incidence.iso_s": ["incidence.isomorphism_search"],
    "translations.search_s": ["translations.translations_at"],
    "translations.reverify_s": ["translations.is_translation"],
    "translations.lemma_checks_s": ["translations.orbit_congruence_check",
                                    "translations.translation_transitivity_check"],
    "permgroup.chain_s": ["permgroup.group_for"],
    "permgroup.dihedral_s": ["permgroup.generalized_dihedral_check"],
    "analysis.subunital_s": ["analysis.subunital_analysis"],
    "analysis.constant_intersection_s": ["analysis.constant_intersection_check"],
    "analysis.sharp_suite_s": ["analysis.sharply_transitive_suite"],
    "analysis.classify_s": ["analysis.classify"],
}


def layer_metrics(spans: list[list]) -> dict:
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for span, t in zip(spans, own):
        by_name[span[2]] = by_name.get(span[2], 0.0) + t
    out = {m: (sum(by_name.get(n, 0.0) for n in names), "s") for m, names in LAYER_SELF.items()}
    whole = [(s[4] - s[3], s) for s in spans]
    out["translations.center_max_s"] = (
        max(t for t, s in whole if s[2] == "translations.translations_at"), "s")
    for threads in (1, 2):
        out[f"translations.atlas_t{threads}_s"] = (sum(
            t for t, s in whole
            if s[2] == "translations.build_atlas" and s[5].get("threads") == threads), "s")
    out["incidence.onan_nodes"] = (sum(
        s[5]["nodes"] for s in spans if s[2] == "incidence.onan_search"), "count")
    return out


def traced(workload: str, seed: int, work: Path) -> dict:
    work.mkdir(parents=True)
    startup = startup_s(work)
    result = replay(workload, seed, work / "traced", trace=True)
    plain = replay(workload, seed, work / "plain", trace=False)
    spans = result["spans"]
    metrics = layer_metrics(spans)
    metrics["cli.startup_s"] = (startup, "s")
    reference = None
    if workload == "hermitian":
        # The hermitian session never reaches the figueroa layer.  Replay
        # build-figueroa on its own and take only that layer's figures from it.
        reference = replay("figueroa-build", seed, work / "reference", trace=True)
        from_reference = layer_metrics(reference["spans"])
        metrics.update({m: v for m, v in from_reference.items() if m.startswith("figueroa.")})

    tally = Tally()
    for d in designs(workload, work / "traced"):
        if result["codes"][f"{d.name}.build"] != 0:
            raise CheckError(f"{d.build_argv[0]} for {d.name} failed in the replay")
        checker = DesignChecker(d, relabel(d, seed))
        checker.check_build(work / "traced" / f"{d.name}.build.out")
        for command in COMMANDS:
            out = work / "traced" / f"{d.name}.{command}.out"
            tally.count(checker.check(command, result["codes"][f"{d.name}.{command}"], out))

    overhead = result["session_s"] / plain["session_s"] - 1.0
    span_overhead_s = len(spans) * result["span_cost_s"]
    trace_dir = HERE / "out"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["id", "parent", "name", "start", "end", "attrs"],
        "spans": spans,
        "self_times": self_times(spans),
        "traced_session_s": result["session_s"],
        "untraced_session_s": plain["session_s"],
        "figueroa_reference": reference,
        "overhead": overhead,
        "span_cost_s": result["span_cost_s"],
        "span_overhead_s": span_overhead_s,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }))
    print(f"# traced {result['session_s']:.3f} s, untraced {plain['session_s']:.3f} s, "
          f"overhead {100 * overhead:+.2f}%; {len(spans)} spans at "
          f"{1e6 * result['span_cost_s']:.2f} us cost {span_overhead_s:.4f} s; "
          f"spans in {trace_file.relative_to(ROOT)}")
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "unitals" / "cli.py").is_file():
        print(f"error: {SRC / 'unitals'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    self_test()

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            res = traced(args.workload, args.seed, work)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, work)
        correct = True
    except CheckError as exc:
        print(f"# incorrect output: {exc}")
        res, correct = {"attempted": 1, "failed": 0, "metrics": {}}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
