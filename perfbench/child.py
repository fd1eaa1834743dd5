"""One measured process of the benchmark.

``run.py`` starts this script once per measured step and times it from
outside. Modes:

``setup repro|crash``
    Interpreter start plus the imports (and, for ``repro``, the
    experiment-context construction) a run pays before doing work.
``fill --length L --seed S --cache-dir D``
    The warm workload's set-up: build every benchmark's trace and L2
    event log through the public ``ExperimentContext`` so they land in
    the disk cache at ``D``.
``run [--trace] [--run-id ID] -- ARGV...``
    ``python -m repro.harness ARGV...`` in this process. With
    ``--trace`` the public functions the harness looks up by name are
    wrapped first, and every call records a span.

``run`` writes a JSON record to ``--record``: the monotonic time the
imports finished (``t_ready``; ``CLOCK_MONOTONIC`` is system-wide, so
the parent subtracts its own spawn time), the harness exit code, and
for traced runs the spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time


class Tracer:
    """In-memory span recorder for one harness run.

    A span is ``[id, parent id, name, start, end, run id, attrs]``;
    nesting follows the call stack, which is single-threaded in the
    harness process (replay workers are separate processes and run
    inside the parent's ``replay_events`` span).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def traced(self, fn, name, attrs=None):
        """Span-recording wrapper of *fn*.

        *attrs* maps ``(args, result)`` to counts stored on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [len(tracer.spans), stack[-1][0] if stack else None,
                    name, time.perf_counter(), None, tracer.run_id, {}]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, result)
            return result

        return traced

    def wrap(self, owner, attr, name=None, attrs=None) -> None:
        """Replace ``owner.attr`` with its traced form."""
        setattr(owner, attr,
                self.traced(getattr(owner, attr), name or attr, attrs))


def install(tracer: Tracer, cli) -> None:
    """Wrap each layer's public entry points at their lookup sites."""
    from repro.faults import crashpoints
    from repro.harness import experiments, runner
    from repro.harness.diskcache import DiskCache

    def events_out(args, log):
        return {"events": len(log.events)}

    def events_in(args, result):
        return {"events": len(args[0].events)}

    def lookup(args, found):
        return {"hit": found is not None}

    tracer.wrap(runner, "build_trace")
    tracer.wrap(runner, "simulate_l2", attrs=events_out)
    tracer.wrap(runner, "replay_events", attrs=events_in)
    tracer.wrap(experiments, "study_trace_values")
    tracer.wrap(experiments, "run_forgery_experiment")
    for attr in ("load_trace", "load_event_log"):
        tracer.wrap(DiskCache, attr, f"DiskCache.{attr}", attrs=lookup)
    for attr in ("store_trace", "store_event_log"):
        tracer.wrap(DiskCache, attr, f"DiskCache.{attr}")
    tracer.wrap(runner.ExperimentContext, "run", "ExperimentContext.run",
                attrs=lambda args, result: {"design": args[2]})
    registry = experiments.EXPERIMENTS
    for key, fn in list(registry.items()):
        registry[key] = tracer.traced(fn, f"experiment:{key}")
    tracer.wrap(cli, "render_experiment")
    for attr in ("enumerate_barriers", "reference_digest", "run_crash_trial"):
        tracer.wrap(crashpoints, attr)


def _setup(kind: str) -> None:
    import repro.harness.__main__  # noqa: F401  (the CLI's import graph)

    if kind == "crash":
        import repro.faults.report  # noqa: F401
        import repro.harness.inject  # noqa: F401
    else:
        from repro.harness.runner import ExperimentContext

        ExperimentContext(cache_dir="")


def _fill(length: int, seed: int, cache_dir: str) -> None:
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(trace_length=length, seed=seed,
                            cache_dir=cache_dir)
    for benchmark in ctx.benchmarks:
        ctx.event_log(benchmark)


def main(argv) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    harness_argv = argv[split + 1:]
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("mode", choices=("setup", "fill", "run"))
    parser.add_argument("kind", nargs="?", default="repro",
                        choices=("repro", "crash"))
    parser.add_argument("--record")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--length", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cache-dir")
    args = parser.parse_args(argv[:split])

    if args.mode == "setup":
        _setup(args.kind)
        return 0
    if args.mode == "fill":
        _fill(args.length, args.seed, args.cache_dir)
        return 0
    import repro.harness.__main__ as cli

    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        install(tracer, cli)
    record = {"t_ready": time.monotonic()}
    record["rc"] = cli.main(harness_argv)
    sys.stdout.flush()
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
