"""Where a run's time went, and what a change moved.

    python3 perfbench/summarize.py PARENT [CHANGE]

PARENT and CHANGE are result files written by ``run.py`` (under
``.perfbench/results/``) or directories of them. Results of one workload
are combined by taking each metric's median. For every workload the
summary prints each layer's self time as a share of ``wall_s`` (layer
rows come from traced runs), then every metric with its delta when a
CHANGE is given, next to the end-to-end metric the layer should move.
Rows that are zero on both sides are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from layers import EXPERIMENT_METRIC, MOVES, SPAN_METRICS

#: Layer self-time metrics; with trace.unattributed_s they sum to the
#: traced wall time, which is wall_s plus trace.overhead_s.
LAYERS = [seconds for seconds, _ in SPAN_METRICS.values()] + [
    EXPERIMENT_METRIC, "trace.unattributed_s", "trace.overhead_s"]


def load(spec: str) -> dict:
    """{workload: {metric: median value}} of the results at *spec*."""
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    samples = {}
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        metrics = samples.setdefault(result["workload"], {})
        for name, value in result["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return {workload: {name: statistics.median(values)
                       for name, values in metrics.items()}
            for workload, metrics in samples.items()}


def _share(metrics: dict, name: str) -> str:
    wall = metrics.get("wall_s")
    if name not in metrics or not wall:
        return "-"
    return f"{100 * metrics[name] / wall:.1f}%"


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def summarize(parent: dict, change: dict) -> str:
    lines = []
    for workload in sorted(set(parent) | set(change)):
        base = parent.get(workload, {})
        new = change.get(workload, {})
        lines.append(f"== {workload}: wall_s {_num(base.get('wall_s'))} s"
                     + (f" -> {_num(new.get('wall_s'))} s" if change else "")
                     + " ==")
        lines.append(f"{'layer self time':<34}{'parent':>12}{'share':>8}"
                     + (f"{'change':>12}{'share':>8}" if change else ""))
        for name in LAYERS:
            if not (base.get(name) or new.get(name)):
                continue
            row = f"{name:<34}{_num(base.get(name)):>12}" \
                  f"{_share(base, name):>8}"
            if change:
                row += f"{_num(new.get(name)):>12}{_share(new, name):>8}"
            lines.append(row)
        lines.append(f"{'metric':<34}{'parent':>12}"
                     + (f"{'change':>12}{'delta':>12}{'delta%':>9}"
                        if change else "") + "  should move")
        for name in sorted(set(base) | set(new)):
            old, cur = base.get(name), new.get(name)
            if not (old or cur):
                continue
            row = f"{name:<34}{_num(old):>12}"
            if change:
                delta = cur - old if None not in (old, cur) else None
                pct = (f"{100 * delta / old:+.1f}%"
                       if delta is not None and old else "-")
                row += f"{_num(cur):>12}{_num(delta):>12}{pct:>9}"
            lines.append(f"{row}  {MOVES.get(name, '')}".rstrip())
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/summarize.py")
    parser.add_argument("parent", help="result file or directory")
    parser.add_argument("change", nargs="?",
                        help="result file or directory to compare")
    args = parser.parse_args(argv)
    change = load(args.change) if args.change else {}
    print(summarize(load(args.parent), change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
