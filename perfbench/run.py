"""Benchmark of the lahverify command-line interface.

    python3 perfbench/run.py --workload accept-all6 --seed 1 --seconds 30 --trace 0

Run from the repository root. The CLI runs from ``src`` as
``python3 -m lahverify``, one invocation at a time (a closed loop with a
single client). Workloads, and why each was chosen:

* ``accept-all6``: 2<=k<=15, 0<=n<=30 with r1..r6 named explicitly
  (``--routes all`` drops r6 on larger grids), JSON, one process. The
  symbolic route r6 does most of the work.
* ``large-r1r5``: 2<=k<=28, 0<=n<=56 with r1..r5, CSV, ``--jobs 2``. The
  work is in power series (r3) and binomials (r1, r4), spread over the
  process pool; nothing symbolic runs.
* ``tables``: ``table lah --format csv`` and ``table stirling1`` at
  ``--max-n 300`` (about 10 MB of output and 70 MB peak memory each):
  triangle recurrences and int-to-decimal rendering, no routes.

The verify grids keep the shape (n_max = 2 k_max) of the two grids the
roadmap names, 2<=k<=25, 0<=n<=50 and 2<=k<=60, 0<=n<=120, but are scaled
down, and each is timed as a few invocations over bands of k that take
at most about half a second each.

A shared host's speed drifts by tens of percent over seconds to minutes.
So before every invocation the benchmark times ``calibration_work``, a
fixed piece of exact arithmetic run by the benchmark itself, and scales each
round's times by CALIBRATION_REF_S over the round's mean calibration
time: ``wall_s``, ``cpu_s`` and ``setup_s`` are times at the host speed
under which the calibration takes CALIBRATION_REF_S. They are medians
over the rounds of a run. A change to lahverify moves them as it moves
the unscaled times, which the traced run reports as ``host.raw_wall_s``
and ``host.raw_cpu_s``, next to ``host.calibration_s``.

With ``--trace 0`` the run measures, for ``--seconds`` seconds, whole
rounds of the workload's timed commands (the bands of a verify grid, the
two table commands), and prints the end-to-end metrics. Each invocation's
stdout goes to a file; after the process exits, and outside the timed
window, its sha256 must equal the digest recorded in ``expected.json`` and
its content must agree with ``oracle.py``. CPU time and peak memory come
from ``os.wait4`` for each invocation, so they cover that invocation and
its pool workers only.

With ``--trace 1`` the run makes rounds of the timed commands (for
``pool_busy_frac``), then untraced rounds of the commands the traced run
makes (the whole grid as one ``--jobs 1`` invocation, or the two table
commands), each for at most REFERENCE_SECONDS, then runs those commands
once more in a fresh interpreter through ``traced.py`` and prints the
per-layer metrics. ``trace.total_s`` is the CPU time of the traced run,
and ``trace.untraced_cpu_s`` the median unscaled CPU time of the untraced
rounds, each less the CPU time of starting the CLI once per process;
``trace.overhead_s`` is their difference, and ``trace.residual_s`` is how
far the traced commands' total time (``trace.layers_s``) is from the
untraced CPU time. The layer split is trustworthy when the residual is
within the overhead.

``tables`` also runs, once per run and outside the timed window, the
smallest inputs known to break the exit contract (0 verified, 1 mismatch,
2 usage error). Those failures lower ``ok_frac`` but are not counted in
the ``attempted``/``failed`` totals of the timed work.

The metrics and their units are those listed in ``BENCHMARK.json``. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output was correct. Files go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# every process of a run is killed by then, so the run ends within 180 s
RUN_LIMIT_S = 165
MIN_SETUP_SAMPLES = 12
MAX_SETUP_SAMPLES = 24
SETUP_BURST = 2
# window of each set of untraced rounds in a traced run
REFERENCE_SECONDS = 15
SETUP_ARGV = ["lah", "--n", "1", "--k", "1"]
# seconds that calibration_work takes on a 2-vCPU Intel Xeon with Python 3.11.7
CALIBRATION_REF_S = 0.07
CALIBRATION_WARMUP = 3


def _verify(k_min: int, k_max: int, n_max: int, routes: str, fmt: str, jobs: int) -> list[str]:
    return ["verify", "--k-min", str(k_min), "--k-max", str(k_max), "--n-min", "0", "--n-max", str(n_max),
            "--routes", routes, "--format", fmt, "--jobs", str(jobs)]


def _grid(edges: list[int], n_max: int, routes: str, fmt: str, jobs: int) -> dict[str, list[list[str]]]:
    """The grid edges[0] <= k < edges[-1], 0 <= n <= n_max: timed as one
    command per band of k (band i is edges[i] <= k < edges[i+1]), traced
    as one ``--jobs 1`` command."""
    bands = [_verify(lo, hi - 1, n_max, routes, fmt, jobs) for lo, hi in zip(edges, edges[1:])]
    return {"timed": bands, "traced": [_verify(edges[0], edges[-1] - 1, n_max, routes, fmt, 1)]}


def _tables(max_n: int) -> dict[str, list[list[str]]]:
    commands = [["table", "lah", "--max-n", str(max_n), "--format", "csv"],
                ["table", "stirling1", "--max-n", str(max_n)]]
    return {"timed": commands, "traced": commands}


# The tiny scale exists for the smoke test only.
WORKLOADS = {
    "accept-all6": {
        "full": _grid([2, 6, 9, 11, 13, 15, 16], 30, "r1,r2,r3,r4,r5,r6", "json", 1),
        "tiny": _grid([2, 4, 5], 5, "r1,r2,r3,r4,r5,r6", "json", 1),
    },
    "large-r1r5": {
        "full": _grid([2, 12, 18, 22, 25, 27, 29], 56, "r1,r2,r3,r4,r5", "csv", 2),
        "tiny": _grid([2, 4, 6], 8, "r1,r2,r3,r4,r5", "csv", 2),
    },
    "tables": {"full": _tables(300), "tiny": _tables(20)},
}

# Smallest inputs known to end outside the exit contract: a RecursionError,
# and exit 2 at the 4300-digit int-to-str limit after a correct computation.
PROBES = [
    ["stirling1", "--n", "500", "--k", "1"],
    ["verify", "--k-min", "2", "--k-max", "2", "--n-min", "1600", "--n-max", "1600", "--routes", "r2",
     "--format", "json"],
    ["lah", "--n", "5000", "--k", "2500"],
]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], stdout_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run ``cmd`` from the repository root with its stdout in a file,
    killing it and its process group after ``timeout`` seconds.

    Returns (exit code, wall s, user+sys CPU s, peak RSS MB); the CPU time
    and peak RSS cover the process and the children it waited for.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(stdout_path, "wb") as out, open(OUT / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # a command that died leaves its pool workers behind in its group
    _kill_group(proc.pid)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Bench:
    """One benchmark run: invocations, their checks, and the problems found."""

    def __init__(self, seed: int, expected: dict[str, str]) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.seed = seed
        self.expected = expected
        self.checked: dict[str, tuple[int, list[str]]] = {}
        self.problems: list[str] = []

    def spawn(self, cmd: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
        """``spawn`` bounded so that the whole run ends within RUN_LIMIT_S."""
        return spawn(cmd, stdout_path, self.deadline - time.monotonic())

    def invoke(self, argv: list[str], pinned: bool = True) -> dict:
        """Run one CLI command and check its output. ``pinned`` outputs
        must also match their recorded digest."""
        path = OUT / "stdout.txt"
        code, wall, cpu, rss = self.spawn([sys.executable, "-m", "lahverify", *argv], path)
        record = {"argv": argv, "code": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                  "items": oracle.items(argv), "ok_items": 0}
        if code != 0:
            stderr = (OUT / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
            record["error"] = stderr.splitlines()[-1] if stderr else f"exit code {code}"
            return record
        digest = oracle.file_sha256(path)
        record["sha256"] = digest
        problems = []
        want = self.expected.get(" ".join(argv))
        if pinned and digest != want:
            problems.append(f"stdout sha256 {digest} differs from the recorded {want}")
        if digest not in self.checked:
            try:
                self.checked[digest] = oracle.check_output(argv, path, self.seed)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.checked[digest] = (0, [f"unreadable output: {exc!r}"])
        ok_items, oracle_problems = self.checked[digest]
        problems += oracle_problems
        record["ok_items"] = ok_items if not problems else 0
        self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return record

    def timed(self, argv: list[str]) -> dict:
        """A command of the workload itself: it must exit 0."""
        record = self.invoke(argv)
        if record["code"] != 0:
            self.problems.append(f"{' '.join(argv)}: {record['error']}")
        return record

    def fastest_wall(self, cmd: list[str], repeats: int) -> float:
        walls = []
        for _ in range(repeats):
            code, wall, _cpu, _rss = self.spawn(cmd, OUT / "stdout.txt")
            if code != 0:
                self.problems.append(f"{' '.join(cmd[1:])}: exit code {code}")
            walls.append(wall)
        return min(walls)


def ok_frac(records: list[dict]) -> float:
    """Mean over distinct commands of the share of their items that passed,
    so the value does not depend on how many rounds fit in a run."""
    by_command: dict[str, list[int]] = {}
    for r in records:
        tally = by_command.setdefault(" ".join(r["argv"]), [0, 0])
        tally[0] += r["ok_items"]
        tally[1] += r["items"]
    return statistics.fmean(ok / items for ok, items in by_command.values())


def calibration_work() -> None:
    """A fixed piece of exact arithmetic in the style of the package that
    shares no code with it: Fractions of factorials, integer counts in a
    dict, and a dict of Fraction sums keyed by exponent. The mix was chosen
    so that its time moves with the host's speed as the verify commands'
    time does (their ratio varies least); big-integer work alone slows less
    than the package under load, and dict work alone slows more."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(math.factorial(i % 60 + 1), i * i + 1)
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * i
    terms: dict[int, Fraction] = {}
    for i in range(1, 4500):
        b = i % 37
        terms[b] = terms.get(b, Fraction(0)) + Fraction(i, b + 1)


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of ``calibration_work`` in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    calibration_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def end_to_end(bench: Bench, commands: list[list[str]], seconds: float) -> tuple[dict, list[dict]]:
    """Run whole rounds of ``commands`` while the next round is expected to
    end inside the window.

    Other tenants of a shared host slow a CPU-bound process by up to half,
    for stretches of a second to many minutes. Two things keep the metrics
    steady. ``calibrate`` runs before every command of a round, and the
    round's times are scaled by CALIBRATION_REF_S over the mean calibration
    time of the round; that removes the drift of the host's speed, which
    the calibration shares. The metrics are then medians over the rounds,
    which removes the noise of single rounds. ``setup_s`` is the median of
    SETUP_BURST trivial commands per round, each after a calibration and
    scaled with the round, at least MIN_SETUP_SAMPLES and at most
    MAX_SETUP_SAMPLES of them. The unscaled medians and the calibration
    time are returned under ``raw_wall_s``, ``raw_cpu_s`` and
    ``calibration_s``.
    """
    bench.timed(SETUP_ARGV)  # writes the bytecode cache
    for _ in range(CALIBRATION_WARMUP):
        calibrate()
    setups: list[float] = []
    rounds: list[dict] = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        burst = SETUP_BURST if len(setups) < MAX_SETUP_SAMPLES else 0
        calibrations, records = [], []
        for argv in [SETUP_ARGV] * burst + commands:
            calibrations.append(calibrate())
            records.append({**bench.timed(argv), "calibration_s": calibrations[-1][0]})
        calibration = statistics.fmean(wall for wall, _ in calibrations)
        scale_wall = CALIBRATION_REF_S / calibration
        scale_cpu = CALIBRATION_REF_S / statistics.fmean(cpu for _, cpu in calibrations)
        setups += [r["wall_s"] * scale_wall for r in records[:burst]]
        records = records[burst:]
        wall = sum(r["wall_s"] for r in records)
        cpu = sum(r["cpu_s"] for r in records)
        rounds.append({"records": records, "wall_s": wall, "cpu_s": cpu, "calibration_s": calibration,
                       "scaled_wall_s": wall * scale_wall, "scaled_cpu_s": cpu * scale_cpu,
                       "elapsed_s": time.monotonic() - begun})
        next_end = time.monotonic() - started + statistics.median(rd["elapsed_s"] for rd in rounds)
        if next_end > seconds or time.monotonic() > bench.deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        scale_wall = CALIBRATION_REF_S / calibrate()[0]
        setups.append(bench.timed(SETUP_ARGV)["wall_s"] * scale_wall)
    timed = [r for rd in rounds for r in rd["records"]]

    def median(key: str) -> float:
        return statistics.median(rd[key] for rd in rounds)

    wall = median("scaled_wall_s")
    metrics = {
        "wall_s": wall,
        "items_per_s": sum(r["ok_items"] for r in timed) / len(rounds) / wall,
        "cpu_s": median("scaled_cpu_s"),
        "peak_rss_mb": max(r["rss_mb"] for r in timed),
        "setup_s": statistics.median(setups),
        "raw_wall_s": median("wall_s"),
        "raw_cpu_s": median("cpu_s"),
        "calibration_s": median("calibration_s"),
    }
    return metrics, timed


def per_layer(bench: Bench, workload: str, spec: dict, seconds: float, names) -> tuple[dict, list[dict]]:
    """Untraced rounds of the timed commands and of the commands the traced
    run makes, then the traced run in a fresh interpreter."""
    python = sys.executable
    interpreter = bench.fastest_wall([python, "-c", "pass"], MIN_SETUP_SAMPLES)
    imported = bench.fastest_wall([python, "-c", "import lahverify.cli"], MIN_SETUP_SAMPLES)
    # CPU time of starting the CLI, taken off both sides of the comparison
    # below: the untraced commands start it once each, the traced run once
    started = min(bench.timed(SETUP_ARGV)["cpu_s"] for _ in range(MIN_SETUP_SAMPLES))
    e2e, timed = end_to_end(bench, spec["timed"], min(seconds, REFERENCE_SECONDS))
    reference, reference_timed = end_to_end(bench, spec["traced"], min(seconds, REFERENCE_SECONDS))
    timed += reference_timed
    jobs = int(oracle.option(spec["timed"][0], "--jobs", "1"))

    traced_out = OUT / "traced.txt"
    spans = OUT / f"spans-{workload}.json"
    code, _wall, traced_cpu, _rss = bench.spawn(
        [python, str(BENCH / "traced.py"), "--commands", json.dumps(spec["traced"]), "--spans-out", str(spans),
         "--stdout-out", str(OUT / "traced-stdout.txt")],
        traced_out,
    )
    lines = traced_out.read_text(encoding="utf-8").splitlines()
    if code != 0 or not lines:
        bench.problems.append(f"traced run failed with exit code {code}")
        return {}, timed
    traced = json.loads(lines[-1])
    for argv, result in zip(spec["traced"], traced["commands"]):
        want = bench.expected.get(" ".join(argv))
        if result["code"] != 0 or result["sha256"] != want:
            bench.problems.append(f"traced {' '.join(argv)}: exit {result['code']}, sha256 {result['sha256']}")

    metrics = {name: value for name, value in traced["metrics"].items() if name in names}
    metrics["verify.pool_busy_frac"] = e2e["raw_cpu_s"] / (jobs * e2e["raw_wall_s"])
    metrics["host.calibration_s"] = e2e["calibration_s"]
    metrics["host.raw_wall_s"] = e2e["raw_wall_s"]
    metrics["host.raw_cpu_s"] = e2e["raw_cpu_s"]
    metrics["setup.interpreter_s"] = interpreter
    metrics["setup.import_s"] = imported - interpreter
    untraced = reference["raw_cpu_s"] - len(spec["traced"]) * started
    metrics["trace.total_s"] = traced_cpu - started
    metrics["trace.untraced_cpu_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - untraced
    metrics["trace.residual_s"] = abs(metrics["trace.layers_s"] - untraced)
    return metrics, timed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the lahverify CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "lahverify" / "cli.py").is_file():
        print(f"error: no lahverify sources under {SRC}", file=sys.stderr)
        return 2
    # a probe that starts to succeed prints integers of over 4300 digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    OUT.mkdir(exist_ok=True)
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    bench = Bench(args.seed, expected)
    spec = WORKLOADS[args.workload][args.scale]

    probes = [bench.invoke(argv, pinned=False) for argv in PROBES] if args.workload == "tables" else []
    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics, timed = per_layer(bench, args.workload, spec, args.seconds, units)
        metrics["failed_frac"] = 1 - ok_frac(timed + probes)
        metrics["probes.failed"] = sum(1 for p in probes if p["ok_items"] == 0)
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        metrics, timed = end_to_end(bench, spec["timed"], args.seconds)
        metrics["ok_frac"] = ok_frac(timed + probes)

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "scale": args.scale, "python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": cpu_model(), "git_sha": git_sha()}
    correct = not bench.problems and set(units) <= set(metrics)
    result = {
        "correct": correct,
        "attempted": sum(r["items"] for r in timed),
        "failed": sum(r["items"] - r["ok_items"] for r in timed),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {"environment": env, "result": result, "problems": bench.problems,
              "invocations": timed, "probes": probes}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for probe in probes:
        outcome = "ok" if probe["ok_items"] else probe.get("error", "wrong output")
        print(f"probe {' '.join(probe['argv'])}: {outcome}")
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 0):.6g} {unit}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
