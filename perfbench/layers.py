"""Per-layer metrics from the spans of one traced run.

Layers are named after the repository's modules. ``MOVES`` records, for
each per-layer metric, which end-to-end metric it should move and on
which workload; ``summarize.py`` prints it next to measured deltas.
"""

from __future__ import annotations

import math

#: The 18 design points of the default reproduction, as metric suffixes
#: (``:`` in a design key becomes ``.``).
DESIGNS = (
    "nosec", "pssm", "common-counters", "plutus", "plutus:value-only",
    "gran:128B", "gran:32B-leaf", "gran:32B-all",
    "compact:2bit", "compact:3bit", "compact:adaptive",
    "plutus:no-tree", "pssm:no-tree",
    "plutus:vcache-64", "plutus:vcache-128", "plutus:vcache-256",
    "plutus:vcache-512", "plutus:vcache-1024",
)

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "build_trace": ("workloads.build_trace_s", "workloads.build_trace_calls"),
    "study_trace_values": ("workloads.value_study_s", None),
    "simulate_l2": ("gpu.simulate_l2_s", "gpu.simulate_l2_calls"),
    "replay_events": ("gpu.replay_s", "gpu.replay_calls"),
    "DiskCache.load_trace": ("harness.cache.load_trace_s", None),
    "DiskCache.load_event_log": ("harness.cache.load_event_log_s", None),
    "DiskCache.store_trace": ("harness.cache.store_trace_s", None),
    "DiskCache.store_event_log": ("harness.cache.store_event_log_s", None),
    "ExperimentContext.run": ("harness.run_self_s", None),
    "render_experiment": ("harness.render_s", None),
    "run_forgery_experiment": ("analysis.forgery_s", None),
    "enumerate_barriers": ("faults.enumerate_barriers_s", None),
    "reference_digest": ("faults.reference_digest_s", None),
    "run_crash_trial": ("faults.trial_s", "faults.trial_calls"),
}
EXPERIMENT_METRIC = "harness.experiment_self_s"

_REPRO = "wall_s on repro-cold and repro-warm"
_COLD_SETUP = "wall_s on repro-cold, setup_s on repro-warm; nothing on " \
    "repro-warm wall_s"
_REPLAY = "wall_s on repro-warm (largest share) and repro-cold; nothing " \
    "on crash-torture"
_CRASH = "wall_s on crash-torture only"

MOVES = {
    "workloads.build_trace_s": _COLD_SETUP,
    "workloads.build_trace_calls": _COLD_SETUP,
    "workloads.value_study_s": _REPRO + " equally; nothing on crash-torture",
    "gpu.simulate_l2_s": _COLD_SETUP,
    "gpu.simulate_l2_calls": _COLD_SETUP,
    "gpu.dram_events": _COLD_SETUP,
    "gpu.replay_s": _REPLAY,
    "gpu.replay_calls": _REPLAY + "; design-point dedupe shows as a count",
    "gpu.replay_events_per_s": _REPLAY,
    **{f"gpu.replay_s.{d.replace(':', '.')}": _REPLAY for d in DESIGNS},
    "harness.cache.store_trace_s": "wall_s on repro-cold",
    "harness.cache.store_event_log_s": "wall_s on repro-cold",
    "harness.cache.load_trace_s": "wall_s on repro-warm",
    "harness.cache.load_event_log_s": "wall_s on repro-warm",
    "harness.cache.hit_ratio": "wall_s on repro-warm",
    "harness.cache.hits": "wall_s on repro-warm",
    "harness.cache.lookups": "wall_s on repro-warm",
    "harness.cache.bytes": "no end-to-end metric: the disk cost",
    "harness.run_memo_ratio": _REPRO,
    "harness.run_self_s": _REPRO,
    "harness.experiment_self_s": _REPRO,
    "harness.render_s": _REPRO,
    "analysis.forgery_s": _REPRO + ": a length-independent fixed cost",
    "analysis.paper_gap": "no timing: must stay exactly equal under any "
                          "change that only speeds up the simulator "
                          "(0 on crash-torture, which renders no figure)",
    "proc.cpu_s": _REPRO + " through parallelism",
    "proc.cpu_util": _REPRO + " through parallelism; per-worker copies "
                     "move peak_rss_mb",
    "faults.enumerate_barriers_s": _CRASH,
    "faults.reference_digest_s": _CRASH,
    "faults.trial_s": _CRASH,
    "faults.trial_calls": _CRASH,
    "faults.trial_p50_ms": _CRASH,
    "faults.trial_p98_ms": _CRASH,
    "faults.recovered": "success_frac on crash-torture via faults.silent",
    "faults.torn": "success_frac on crash-torture via faults.silent",
    "faults.silent": "success_frac on crash-torture: each one fails",
    "trace.unattributed_s": "none: time in no layer span; checks the "
                            "benchmark's coverage",
    "trace.overhead_s": "none: traced minus untraced wall; checks the "
                        "benchmark itself",
}


def _percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    return sorted_values[max(1, math.ceil(fraction * len(sorted_values))) - 1]


def aggregate(spans, traced_wall: float) -> dict:
    """Per-layer self times, counts and ratios of one traced run.

    A span's self time is its duration minus its children's. Spans of
    one thread nest, so the self times of all spans sum to the time the
    top-level spans cover; ``trace.unattributed_s`` is the rest of the
    traced wall time, so it and the layer self times add up to it.
    """
    metrics = {}
    for seconds, calls in SPAN_METRICS.values():
        metrics[seconds] = 0.0
        if calls:
            metrics[calls] = 0
    metrics[EXPERIMENT_METRIC] = 0.0
    for design in DESIGNS:
        metrics[f"gpu.replay_s.{design.replace(':', '.')}"] = 0.0

    by_id = {span[0]: span for span in spans}
    child_time = {}
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start

    counts = {"dram": 0, "replayed": 0, "hits": 0, "lookups": 0,
              "runs": 0, "memo": 0}
    trials = []
    total_self = 0.0
    for span_id, parent, name, start, end, _, attrs in spans:
        self_s = end - start - child_time.get(span_id, 0.0)
        total_self += self_s
        if name.startswith("experiment:"):
            metrics[EXPERIMENT_METRIC] += self_s
            continue
        seconds, calls = SPAN_METRICS[name]
        metrics[seconds] += self_s
        if calls:
            metrics[calls] += 1
        if name == "simulate_l2":
            counts["dram"] += attrs["events"]
        elif name == "replay_events":
            counts["replayed"] += attrs["events"]
            design = by_id[parent][6]["design"].replace(":", ".")
            metrics[f"gpu.replay_s.{design}"] += self_s
        elif name.startswith("DiskCache.load_"):
            counts["lookups"] += 1
            counts["hits"] += attrs["hit"]
        elif name == "ExperimentContext.run":
            counts["runs"] += 1
            counts["memo"] += span_id not in child_time
        elif name == "run_crash_trial":
            trials.append(end - start)

    trials.sort()
    metrics.update({
        "gpu.dram_events": counts["dram"],
        "gpu.replay_events_per_s": (
            counts["replayed"] / metrics["gpu.replay_s"]
            if metrics["gpu.replay_s"] else 0.0),
        "harness.cache.hits": counts["hits"],
        "harness.cache.lookups": counts["lookups"],
        "harness.cache.hit_ratio": (
            counts["hits"] / counts["lookups"] if counts["lookups"] else 0.0),
        "harness.run_memo_ratio": (
            counts["memo"] / counts["runs"] if counts["runs"] else 0.0),
        "faults.trial_p50_ms": (
            _percentile(trials, 0.50) * 1e3 if trials else 0.0),
        "faults.trial_p98_ms": (
            _percentile(trials, 0.98) * 1e3 if trials else 0.0),
        "trace.unattributed_s": traced_wall - total_self,
    })
    return metrics
