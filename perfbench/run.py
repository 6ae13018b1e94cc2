"""Benchmark of the cfcgf command line: seeded job lists, checked answers.

    python3 perfbench/run.py --workload genfun|build|verify --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`,
nothing needs installing.  Load model: closed loop, one client.  Each job
is one `python -m cfcgf.cli` invocation in its own child process, under a
fixed address-space cap and wall-time limit; the next job starts when the
previous one has exited.  A job that crashes, runs out of memory or time,
exits with an unexpected code or gives a wrong answer counts as failed and
the run goes on; `correct` is false when a job fails in a way that
`workloads.KNOWN_FAILURES` does not record for it.  The job list runs in a fixed number of rounds, one per
ROUND_S seconds of --seconds (traced, one per 2 * ROUND_S), at least one;
how fast the code runs never changes that number.  A run that cannot
finish its rounds within RUN_DEADLINE_S stops without a result.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: in
each round every job then runs twice, plainly and under
`traced_cli.py`, and the difference is the tracing overhead.  The last
line of stdout is one JSON object; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MEMORY_CAP_MB = 256     # RLIMIT_AS of every job
JOB_TIME_LIMIT_S = 60   # wall time of one job before it is killed
RUN_DEADLINE_S = 150    # a run still measuring after this gives no result
ROUND_S = 20            # nominal round of the job list at the seed
WARM_UP = ("series", "--system", "A2", "--max-len", "3")
OUT = "{out}"

LAYERS = ("core", "cfc_automaton", "lexnf", "fsa", "genfun", "oracle", "cli")
LAYER_STATS = {"s": "s", "calls": "count", "errors": "count", "peak_mb": "MB"}
# function spans with their metrics beyond self time ("s")
FUNCTIONS = {
    "genfun.count_by_length": ("terms", "cells"),
    "genfun.find_recurrence": ("order",),
    "genfun.to_rational": (),
    "cfc_automaton.build": ("states",),
    "lexnf.build": ("states",),
    "fsa.intersect": ("states", "live_ratio"),
    "fsa.trim": ("states",),
    "fsa.minimize": ("states",),
    "fsa.to_json": (),
    "fsa.accepted_words": ("words", "peak_mb"),
    "oracle.count_elements": ("words",),
    "core.parse_system": (),
    "cli.import": (),
}
UNITS = {"s": "s", "peak_mb": "MB", "live_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": unit for layer in LAYERS
             for stat, unit in LAYER_STATS.items()}
    for name, extra in FUNCTIONS.items():
        for stat in ("s",) + extra:
            units[f"{name}.{stat}"] = UNITS.get(stat, "count")
    units["trace.overhead_s"] = "s"
    units["trace.uncovered_share"] = "ratio"
    return units


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    job: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    verdict: str           # "ok", or why the job failed
    spans: dict | None = None

    def unexpected(self) -> bool:
        """Failed, and not in the way KNOWN_FAILURES records for the job."""
        from workloads import KNOWN_FAILURES

        known = KNOWN_FAILURES.get(self.job)
        return self.verdict != "ok" and not (
            known and self.verdict.startswith(known))


class RunTooLong(Exception):
    """The rounds do not fit before RUN_DEADLINE_S."""


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC),
                    "PYTHONHASHSEED": "0"}

    def spawn(self, cmd: list[str], limit_s: float) -> tuple:
        """Run cmd under the memory cap and time limit.  Returns wall
        seconds, rusage, wait status, whether it timed out, stdout, stderr."""
        cap = MEMORY_CAP_MB << 20

        def limits():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = now_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, preexec_fn=limits)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], limit_s)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = (now_ns() - start) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage, proc.returncode, timed_out,
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def run_job(self, job, refs: dict, traced: bool) -> Outcome:
        """Run one job under the fixed time limit.  Raises RunTooLong when
        the run deadline comes first; no job is ever cut short by it."""
        from workloads import check_build, check_genfun, check_verify

        out_file = self.work / "out.json"
        spans_file = self.work / "spans.json"
        for f in (out_file, spans_file):
            f.unlink(missing_ok=True)
        argv = [str(out_file) if a == OUT else a for a in job.argv]
        limit = min(JOB_TIME_LIMIT_S, self.time_left())
        if limit <= 0:
            raise RunTooLong
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file),
                   str(now_ns()), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "cfcgf.cli", *argv]
        wall, usage, code, timed_out, stdout, stderr = self.spawn(cmd, limit)
        if timed_out and limit < JOB_TIME_LIMIT_S:
            raise RunTooLong
        outcome = Outcome(job.key, traced, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, "ok")
        if traced and spans_file.exists():
            outcome.spans = json.loads(spans_file.read_text())
        if timed_out:
            outcome.verdict = f"timed out after {JOB_TIME_LIMIT_S} s"
        elif code < 0:
            outcome.verdict = f"killed by signal {-code}"
        elif "MemoryError" in stderr:
            outcome.verdict = f"out of memory at the {MEMORY_CAP_MB} MB cap"
        elif "Traceback" in stderr:
            outcome.verdict = "crashed: " + stderr.strip().splitlines()[-1]
        elif job.max_len is None and code != 0:
            outcome.verdict = f"exit code {code}: {stderr.strip()[-200:]}"
        else:
            ref = refs[job.system]
            try:
                if self.workload == "verify":
                    reason = check_verify(job, ref, stdout, code)
                else:
                    text = out_file.read_text()
                    check = check_genfun if self.workload == "genfun" else check_build
                    reason = check(job, ref, stdout, text)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is not None:
                outcome.verdict = "wrong answer: " + reason
        return outcome

    def set_up(self):
        """Generate the seeded inputs, load the references, warm up once."""
        from workloads import load_references, make_jobs

        start = time.perf_counter()
        jobs = make_jobs(self.workload, self.seed)
        refs = load_references()
        missing = {job.system for job in jobs} - set(refs)
        if missing:
            raise SystemExit(f"references.json lacks {sorted(missing)}")
        _, _, code, _, _, stderr = self.spawn(
            [sys.executable, "-m", "cfcgf.cli", *WARM_UP],
            max(1.0, min(JOB_TIME_LIMIT_S, self.time_left())))
        if code != 0:
            raise SystemExit(f"warm-up invocation failed ({code}): {stderr[-500:]}")
        return time.perf_counter() - start, jobs, refs

    def measure(self, seconds: float, traced: bool) -> tuple[list, list[float]]:
        """A fixed number of rounds over the job list, set by --seconds
        alone, and the set-up times.  The set-up runs before the first job
        and again before every later one, so that its median samples the
        whole run rather than one moment of it.  Raises RunTooLong if the
        next round would not fit."""
        elapsed, jobs, refs = self.set_up()
        setup_times = [elapsed]
        count = max(1, int(seconds // (ROUND_S * (2 if traced else 1))))
        rounds: list[list[Outcome]] = []
        longest = 0.0
        while len(rounds) < count:
            if self.time_left() < longest:
                raise RunTooLong
            t = time.monotonic()
            outcomes = []
            for job in jobs:
                if rounds or outcomes:
                    setup_times.append(self.set_up()[0])
                outcomes.append(self.run_job(job, refs, traced=False))
                if traced:
                    outcomes.append(self.run_job(job, refs, traced=True))
            rounds.append(outcomes)
            longest = max(longest, time.monotonic() - t)
        return rounds, setup_times


def end_to_end(rounds, setup_times) -> dict:
    """wall_s: the job list's wall time, each job at its fastest round.
    peak_rss_mb: the largest child peak RSS.  ok_share: jobs that passed
    over jobs attempted.  setup_s: median set-up time."""
    per_job = defaultdict(list)
    for outcomes in rounds:
        for o in outcomes:
            per_job[o.job].append(o.wall_s)
    flat = [o for outcomes in rounds for o in outcomes]
    ok = sum(o.verdict == "ok" for o in flat)
    return {
        "wall_s": (sum(min(v) for v in per_job.values()), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in flat), "MB"),
        "ok_share": (ok / len(flat), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def covered_s(o: Outcome) -> float:
    """Wall time of a traced job covered by its top-level spans."""
    if o.spans is None:
        return 0.0
    return sum(s["end"] - s["start"] for s in o.spans["spans"]
               if s["parent"] is None) / 1e9


def span_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one round's traced jobs.  Self time is a span's
    duration minus its child spans' (calls are sequential, so they do not
    overlap)."""
    m: dict[str, float] = defaultdict(float)
    raw = live = 0
    traced_wall = covered = 0.0
    for o in outcomes:
        if not o.traced:
            continue
        traced_wall += o.wall_s
        covered += covered_s(o)
        if o.spans is None:
            continue
        spans = o.spans["spans"]
        inner = [0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                inner[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name = s["name"]
            layer = name.split(".")[0]
            self_s = (s["end"] - s["start"] - inner[i]) / 1e9
            peak = s["peak_kb"] / 1024
            m[f"{layer}.s"] += self_s
            m[f"{layer}.calls"] += 1
            m[f"{layer}.errors"] += s["error"] is not None
            m[f"{layer}.peak_mb"] = max(m[f"{layer}.peak_mb"], peak)
            if name in FUNCTIONS:
                m[f"{name}.s"] += self_s
                for stat in FUNCTIONS[name]:
                    if stat == "peak_mb":
                        m[f"{name}.peak_mb"] = max(m[f"{name}.peak_mb"], peak)
                    elif stat in s:
                        m[f"{name}.{stat}"] += s[stat]
        for a, b in o.spans["products"]:
            raw += a
            live += b
    m["fsa.intersect.live_ratio"] = live / raw if raw else 0.0
    plain = sum(o.wall_s for o in outcomes if not o.traced)
    m["trace.overhead_s"] = traced_wall - plain
    m["trace.uncovered_share"] = 1 - covered / traced_wall if traced_wall else 0.0
    return m


def per_layer(rounds) -> dict:
    units = per_layer_units()
    by_round = [span_metrics(outcomes) for outcomes in rounds]
    return {name: (statistics.median(r.get(name, 0.0) for r in by_round), unit)
            for name, unit in units.items()}


def report(rounds, metrics: dict) -> None:
    per_job = defaultdict(list)
    for outcomes in rounds:
        for o in outcomes:
            per_job[(o.job, o.traced)].append(o)
    for (job, traced), runs in per_job.items():
        walls = ", ".join(f"{o.wall_s:.2f}" for o in runs)
        cpus = ", ".join(f"{o.cpu_s:.2f}" for o in runs)
        verdicts = sorted({o.verdict + ("" if o.unexpected() or o.verdict == "ok"
                                        else " (known defect)") for o in runs})
        tag = ""
        if traced:
            tag = " traced (uncovered " + ", ".join(
                f"{1 - covered_s(o) / o.wall_s:.1%}" if o.wall_s else "-"
                for o in runs) + ")"
        print(f"  {job}{tag}: wall {walls} s, cpu {cpus} s, peak"
              f" {max(o.rss_mb for o in runs):.0f} MB, {'; '.join(verdicts)}")
    flat = [o for outcomes in rounds for o in outcomes]
    failed = sum(o.verdict != "ok" for o in flat)
    print(f"rounds {len(rounds)}, jobs attempted {len(flat)}, failed {failed}"
          f" (failed_share {failed / len(flat):.4f}), of them not known defects"
          f" {sum(o.unexpected() for o in flat)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("genfun", "build", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cfcgf" / "cli.py").is_file():
        print(f"error: no cfcgf sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(args.workload, args.seed, Path(tmp))
        try:
            rounds, setup_times = bench.measure(args.seconds, traced=bool(args.trace))
        except RunTooLong:
            print(f"error: the rounds do not fit into {RUN_DEADLINE_S} s; no result",
                  file=sys.stderr)
            return 1
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, setup_times)
    print(f"workload {args.workload}, seed {args.seed}, memory cap "
          f"{MEMORY_CAP_MB} MB, job time limit {JOB_TIME_LIMIT_S} s")
    report(rounds, metrics)
    flat = [o for outcomes in rounds for o in outcomes]
    print(json.dumps({
        "correct": not any(o.unexpected() for o in flat),
        "attempted": len(flat),
        "failed": sum(o.verdict != "ok" for o in flat),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
