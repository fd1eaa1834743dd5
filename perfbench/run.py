"""Benchmark of the full Plutus reproduction and of crash torture.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (reasons in BENCHMARK.json):

``repro-cold``
    ``python -m repro.harness`` (every experiment, every benchmark) at a
    reduced trace length, from an empty disk-cache directory.
``repro-warm``
    The same command on a disk cache filled during set-up.
``crash-torture``
    ``python -m repro.harness inject <victim> --campaign crash`` against
    a read-heavy (bfs) and a write-heavy (lbm) victim.

Each measured step is a child process (``child.py``) timed from here; one
run executes one step at a time. ``--seed`` is the trace seed, so the
same seed gives the same inputs. Timed repetitions continue until
``--seconds`` of measured time have passed (at least one). Every output
is checked against a reference; the last stdout line is the JSON result,
and a fuller record goes to ``.perfbench/results/``.

With ``--trace 1`` one repetition runs with the public layer functions
wrapped, and the per-layer metrics come from its spans. Its
``trace.overhead_s`` is taken against the median ``wall_s`` of the
untraced results recorded in this checkout (one untraced repetition is
run first when there are none).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"

DEFAULT_SEED = 2023
#: Seeds whose reference outputs are committed in reference.json; any
#: other seed computes its reference once per checkout.
REFERENCE_SEEDS = (DEFAULT_SEED, *range(50))
#: Trace length of the reproduction workloads. The process-pool start-up
#: of each of the 252 replays sets a floor of about 15 s per full run on
#: 2 cores whatever the length, so a short trace keeps a run near it
#: while trace build, L2 and the value study still do measurable work.
REPRO_LENGTH = 500
#: The crash job's trace length and victims, as CI runs them.
CRASH_LENGTH = 2000
CRASH_VICTIMS = ("bfs", "lbm")
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run must end within 180 s; children are killed past this.
RUN_DEADLINE_S = 170.0

#: (experiment, our summary key, paper reference key) behind paper_gap.
PAPER_PAIRS = (
    ("fig15", "mean", "mean"),
    ("fig15", "max", "max"),
    ("fig16", "mean", "mean_32B_all"),
    ("fig16", "max", "max_32B_all"),
    ("fig17", "mean", "mean_adaptive"),
    ("fig17", "max", "max_adaptive"),
    ("fig18", "mean", "mean_vs_pssm"),
    ("fig18", "max", "max_vs_pssm"),
    ("fig18", "mean_vs_cc", "mean_vs_common_counters"),
    ("fig19", "mean", "mean"),
    ("fig19", "max", "max"),
)

CELL = re.compile(r"(\d+)r/(\d+)t/(\d+)(?: (\d+) SILENT)?")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- child processes ---------------------------------------------------------

class Runner:
    """Starts one child at a time and measures it from outside."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.env = env

    def spawn(self, args, out_dir: Path, name: str) -> dict:
        """Run ``python *args`` to completion; return its measurements.

        The child leads its own session, so the resident set of its
        whole process tree (replay pool workers included) is sampled
        from /proc, and a child past the deadline is killed with its
        tree.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout = out_dir / f"{name}.out"
        with open(stdout, "wb") as out, \
                open(out_dir / f"{name}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)], cwd=ROOT, env=self.env,
                stdout=out, stderr=err, start_new_session=True)
            try:
                peak, status, usage = self._wait(proc.pid)
            except BaseException:
                kill_session(proc.pid)
                raise
            end = time.monotonic()
        if session_rss(proc.pid):
            kill_session(proc.pid)  # a worker outlived its parent
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "start": start,
            "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_bytes": max(peak, usage.ru_maxrss * 1024),
            "stdout": stdout.read_text(encoding="utf-8", errors="replace"),
        }

    def _wait(self, pid: int):
        peak = 0
        next_sample = 0.0
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return peak, status, usage
            now = time.monotonic()
            if now > self.deadline:
                raise BenchError("run exceeded its time limit")
            if now >= next_sample:
                peak = max(peak, sum(session_rss(pid).values()))
                next_sample = now + 0.1
            time.sleep(0.01)


def kill_session(session: int) -> None:
    """Kill a child's whole session and wait until none of it is left."""
    try:
        os.killpg(session, signal.SIGKILL)
        os.waitpid(session, 0)
    except (ProcessLookupError, ChildProcessError):
        pass
    give_up = time.monotonic() + 10.0
    while session_rss(session) and time.monotonic() < give_up:
        time.sleep(0.05)


PAGE = os.sysconf("SC_PAGE_SIZE")


def session_rss(session: int) -> dict:
    """Resident bytes of every live process in *session*, by pid."""
    rss = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command name: state ppid pgrp session ...
        # with the resident page count 22nd.
        if int(fields[3]) == session and fields[0] != b"Z":
            rss[int(entry.name)] = int(fields[21]) * PAGE
    return rss


# -- output checks -----------------------------------------------------------

def digest(text: str) -> str:
    """Short content digest (64 bits of SHA-256) of an output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def experiment_blocks(stdout: str) -> dict:
    """Rendered experiment blocks of a reproduction, keyed by id."""
    blocks = {}
    for block in re.split(r"(?m)^(?=== )", stdout):
        match = re.match(r"== (\S+): ", block)
        if match:
            blocks[match.group(1)] = block
    return blocks


def _pairs(line: str) -> dict:
    out = {}
    for item in line.split(", "):
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            continue
    return out


def paper_gap(blocks: dict) -> float:
    """Mean relative error of our summaries against the paper's."""
    errors = []
    for exp, ours_key, paper_key in PAPER_PAIRS:
        lines = blocks[exp].splitlines()
        ours = _pairs(next(ln[len("summary:"):] for ln in lines
                           if ln.startswith("summary:")))
        paper = _pairs(next(ln[len("paper:"):] for ln in lines
                            if ln.startswith("paper:")))
        errors.append(abs(ours[ours_key] - paper[paper_key])
                      / abs(paper[paper_key]))
    return sum(errors) / len(errors)


def crash_matrix(stdout: str) -> dict:
    """Recovered/torn/silent/trials totals and the verdict of a sweep."""
    totals = {"recovered": 0, "torn": 0, "silent": 0, "trials": 0}
    for match in CELL.finditer(stdout):
        totals["recovered"] += int(match.group(1))
        totals["torn"] += int(match.group(2))
        totals["trials"] += int(match.group(3))
        totals["silent"] += int(match.group(4) or 0)
    totals["pass"] = ("verdict: PASS" in stdout
                      and "(complete)" in stdout)
    return totals


class References:
    """Reference outputs, computed with ``--workers 1``.

    Digests for ``REFERENCE_SEEDS`` are committed in reference.json; for
    any other seed the reference is computed once and kept under
    ``.perfbench/refs``.
    """

    def __init__(self, runner: Runner, committed: dict) -> None:
        self.runner = runner
        self.committed = committed
        self.cache = WORK / "refs"

    def _computed(self, name: str, harness_argv) -> str:
        path = self.cache / f"{name}.json"
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        result = self.runner.spawn(
            ["-m", "repro.harness", *harness_argv, "--workers", "1"],
            self.cache, name)
        if result["rc"] != 0:
            raise BenchError(f"reference run {name} exited {result['rc']}")
        path.write_text(json.dumps(result["stdout"]), encoding="utf-8")
        return result["stdout"]

    def repro(self, seed: int) -> dict:
        """Digest of each experiment block for *seed*."""
        if self.committed.get("repro_length") == REPRO_LENGTH:
            blocks = self.committed["repro"].get(str(seed))
            if blocks is not None:
                return blocks
        stdout = self._computed(
            f"repro-L{REPRO_LENGTH}-s{seed}",
            ["--length", REPRO_LENGTH, "--seed", seed, "--cache-dir", ""])
        return {k: digest(v) for k, v in experiment_blocks(stdout).items()}

    def crash(self, victim: str, seed: int) -> str:
        """Digest of the crash report for *victim*'s workload at *seed*.

        The report is a function of the victim's op stream, so
        references are keyed by a digest of that stream.
        """
        ops = crash_ops_digest(victim, seed)
        known = self.committed.get("crash", {}).get(victim, {})
        if ops in known:
            return known[ops]
        return digest(self._computed(
            f"crash-{victim}-{ops}", crash_argv(victim, seed)))

    def write(self, path: Path) -> None:
        """Compute the references of ``REFERENCE_SEEDS`` and commit them."""
        data = {
            "how": "python3 perfbench/run.py --write-reference: outputs "
                   "of --workers 1 runs; per experiment block (repro) "
                   "and per victim op stream (crash)",
            "repro_length": REPRO_LENGTH,
            "repro": {str(s): self.repro(s) for s in REFERENCE_SEEDS},
            "crash": {v: {crash_ops_digest(v, s): self.crash(v, s)
                          for s in REFERENCE_SEEDS}
                      for v in CRASH_VICTIMS},
        }
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def crash_argv(victim: str, seed: int) -> list:
    return ["inject", victim, "--campaign", "crash", "--length",
            CRASH_LENGTH, "--seed", seed, "--cache-dir", ""]


def crash_ops_digest(victim: str, seed: int) -> str:
    """Digest of the op stream ``inject --campaign crash`` derives."""
    from repro.faults.crashpoints import (
        crash_campaign_spec,
        crash_ops_from_accesses,
    )
    from repro.faults.workload import ops_from_trace
    from repro.workloads.benchmarks import build_trace

    spec = crash_campaign_spec("crash")
    trace = build_trace(victim, length=CRASH_LENGTH, seed=seed)
    victim_ops = ops_from_trace(trace, spec.size_bytes, limit=spec.num_ops)
    ops = crash_ops_from_accesses(
        spec, [(op.address, op.write) for op in victim_ops])
    return digest(repr(ops))


# -- cache guards ------------------------------------------------------------

def cache_counters(cache_dir: Path) -> dict:
    """Lifetime counters the harness persists in its cache root."""
    try:
        payload = json.loads(
            (cache_dir / "counters.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        payload = {}
    return {k: int(payload.get(k, 0))
            for k in ("hits", "misses", "stores", "corrupt_entries")}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- workloads ---------------------------------------------------------------

class Workload:
    """Set-up, one timed repetition and its checks, for one workload."""

    def __init__(self, name: str, seed: int, runner: Runner,
                 refs: References, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.runner = runner
        self.refs = refs
        self.work = work
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self) -> list:
        """Seconds of each set-up repetition."""
        kind = "crash" if self.name == "crash-torture" else "repro"
        times = []
        for i in range(SETUP_REPEATS):
            if self.name == "repro-warm":
                self.cache = self.work / f"warm-cache-{i}"
                if i:
                    shutil.rmtree(self.work / f"warm-cache-{i - 1}",
                                  ignore_errors=True)
                args = [CHILD, "fill", "--length", REPRO_LENGTH, "--seed",
                        self.seed, "--cache-dir", self.cache]
            else:
                args = [CHILD, "setup", kind]
            result = self.runner.spawn(args, self.work, f"setup-{i}")
            if result["rc"] != 0:
                raise BenchError(f"set-up exited {result['rc']}")
            times.append(result["end"] - result["start"])
        return times

    def rep(self, trace: bool) -> dict:
        """One timed repetition: wall, CPU, RSS, checks, spans."""
        self.reps += 1
        tag = f"rep-{self.reps}"
        steps = []
        if self.name == "crash-torture":
            for victim in CRASH_VICTIMS:
                steps.append((f"{tag}-{victim}",
                              crash_argv(victim, self.seed), None, victim))
        else:
            if self.name == "repro-cold":
                cache = self.work / f"{tag}-cache"
            else:
                cache = self.cache
            argv = ["--length", REPRO_LENGTH, "--seed", self.seed,
                    "--cache-dir", cache]
            steps.append((tag, argv, cache, None))

        measured = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_bytes": 0,
                    "spans": []}
        for step, argv, cache, victim in steps:
            before = cache_counters(cache) if cache else None
            record = self.work / f"{step}.json"
            args = [CHILD, "run", "--record", record,
                    "--run-id", f"{self.name}-{self.seed}-{step}"]
            if trace:
                args.append("--trace")
            result = self.runner.spawn([*args, "--", *argv], self.work, step)
            child = (json.loads(record.read_text(encoding="utf-8"))
                     if record.exists() else {})
            if "t_ready" not in child:
                raise BenchError(f"{step} exited {result['rc']} "
                                 "before it started")
            measured["wall_s"] += result["end"] - child["t_ready"]
            measured["cpu_s"] += result["cpu_s"]
            measured["peak_rss_bytes"] = max(measured["peak_rss_bytes"],
                                             result["peak_rss_bytes"])
            # Span ids count from 0 in each child; keep them unique.
            offset = len(measured["spans"])
            for span in child.get("spans", ()):
                span[0] += offset
                if span[1] is not None:
                    span[1] += offset
                measured["spans"].append(span)
            if victim is None:
                self._check_repro(result, measured)
                self._check_cache(before, cache_counters(cache))
                measured["cache_bytes"] = dir_bytes(cache)
                if self.name == "repro-cold":
                    shutil.rmtree(cache)
            else:
                self._check_crash(result, victim, measured)
        return measured

    def _check_repro(self, result: dict, measured: dict) -> None:
        expected = self.refs.repro(self.seed)
        blocks = experiment_blocks(result["stdout"])
        bad = sorted(k for k in expected
                     if digest(blocks.get(k, "")) != expected[k])
        bad += sorted(set(blocks) - set(expected))
        self.attempted += len(expected)
        if result["rc"] != 0:
            self.failed += len(expected)
            self.problems.append(f"harness exited {result['rc']}")
            return
        self.failed += len(bad)
        if bad:
            self.problems.append(f"output differs from reference: {bad}")
        else:
            measured["paper_gap"] = paper_gap(blocks)

    def _check_cache(self, before: dict, after: dict) -> None:
        delta = {k: after[k] - before[k] for k in after}
        lookups = delta["hits"] + delta["misses"]
        if self.name == "repro-cold":
            ok = delta["hits"] == 0 and delta["misses"] > 0
        else:
            ok = delta["misses"] == 0 and delta["hits"] > 0
        if not ok or delta["corrupt_entries"]:
            self.problems.append(
                f"cache guard: {delta['hits']} hits of {lookups} lookups "
                f"on {self.name}")

    def _check_crash(self, result: dict, victim: str,
                     measured: dict) -> None:
        matrix = crash_matrix(result["stdout"])
        for key in ("recovered", "torn", "silent", "trials"):
            measured[key] = measured.get(key, 0) + matrix[key]
        trials = max(matrix["trials"], 1)
        self.attempted += trials
        ok = (result["rc"] == 0 and matrix["pass"]
              and digest(result["stdout"]) == self.refs.crash(victim,
                                                              self.seed))
        if ok:
            self.failed += matrix["silent"]
        else:
            self.failed += trials
            self.problems.append(
                f"{victim}: exit {result['rc']}, verdict or recovery "
                "matrix differs from reference")


# -- metrics -----------------------------------------------------------------

def layer_metrics(spans: list, traced_wall: float, untraced_wall: float,
                  rep: dict) -> dict:
    """Per-layer metrics from the traced repetition's spans."""
    from layers import aggregate

    metrics = aggregate(spans, traced_wall)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["harness.cache.bytes"] = rep.get("cache_bytes", 0)
    metrics["analysis.paper_gap"] = rep.get("paper_gap", 0.0)
    for key in ("recovered", "torn", "silent"):
        metrics[f"faults.{key}"] = rep.get(key, 0)
    return metrics


def untraced_walls(workload: str) -> list:
    """``wall_s`` of the untraced results this checkout has recorded."""
    return [json.loads(path.read_text(encoding="utf-8"))["metrics"]["wall_s"]
            for path in (WORK / "results").glob(f"{workload}-s*-t0.json")]


def measure(args, runner: Runner, refs: References) -> dict:
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(args.workload, args.seed, runner, refs, work)
    # A traced run compares against the untraced runs already recorded
    # (each workload's work is the same for every seed), and measures
    # one untraced repetition itself only when there are none.
    walls = untraced_walls(args.workload) if args.trace else []
    reps = []
    traced = None
    try:
        setup_times = workload.setup()
        if args.trace:
            if not walls:
                reps.append(workload.rep(trace=False))
            traced = workload.rep(trace=True)
        else:
            while not reps or sum(r["wall_s"] for r in reps) < args.seconds:
                reps.append(workload.rep(trace=False))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(walls or [r["wall_s"] for r in reps])
    metrics = {"wall_s": wall, "setup_s": statistics.median(setup_times)}
    if traced is None:
        metrics["peak_rss_mb"] = statistics.median(
            r["peak_rss_bytes"] for r in reps) / 2**20
        metrics["success_frac"] = 1 - workload.failed / workload.attempted
    else:
        metrics.update(layer_metrics(traced["spans"], traced["wall_s"], wall,
                                     traced))
        metrics["proc.cpu_s"] = traced["cpu_s"]
        metrics["proc.cpu_util"] = traced["cpu_s"] / traced["wall_s"]
    detail = {"untraced_reps": len(reps), "recorded_untraced": len(walls),
              "setup_times_s": setup_times,
              "wall_times_s": [r["wall_s"] for r in reps],
              "problems": workload.problems}
    return {"metrics": metrics, "detail": detail,
            "correct": not workload.problems and workload.failed == 0,
            "attempted": workload.attempted, "failed": workload.failed}


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"{path.name} not found at the checkout root")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Time the Plutus reproduction and crash torture.")
    parser.add_argument("--workload",
                        choices=("repro-cold", "repro-warm", "crash-torture"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json for the committed "
                             "seeds (after an intended output change)")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Children are killed with their sessions on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (ROOT / "src" / "repro" / "harness").is_dir():
            raise BenchError("no repro sources under src/; run from a "
                             "checkout of the repository")
        # Output checks and the result record use repro's public API.
        sys.path.insert(0, str(ROOT / "src"))
        reference = BENCH / "reference.json"
        if args.write_reference:
            shutil.rmtree(WORK / "refs", ignore_errors=True)
            References(Runner(float("inf")), {}).write(reference)
            return 0
        runner = Runner(deadline)
        contract = load_contract()
        result = measure(args, runner, References(
            runner, json.loads(reference.read_text(encoding="utf-8"))))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    from repro.harness.bench import calibrate, environment_fingerprint

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "metrics": result["metrics"],
        "detail": result["detail"],
        "environment": environment_fingerprint(),
        "calibration_s": calibrate(),
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["detail"]["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
