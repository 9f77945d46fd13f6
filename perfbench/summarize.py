"""Medians, quartiles and spreads over recorded benchmark runs.

Every run of ``perfbench/run.py`` appends its raw samples and provenance
to ``.perfbench_runs/samples.jsonl``. This script recomputes, per
workload, each end-to-end metric's median and quartiles across runs and
its spread (interquartile range over median, as ``statistics.quantiles``
gives them) against the bound in ``BENCHMARK.json``; it calls out the
within-run spreads of ``setup_s`` and ``warm_s``, and ranks the traced
runs' layers by time::

    python3 perfbench/summarize.py                 # every recorded run
    python3 perfbench/summarize.py --last 10       # last 10 per workload
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / ".perfbench_runs" / "samples.jsonl"

#: Per-layer times that are not a stage's self time, left out of the
#: ranking of stages.
NOT_SELF_TIME = ("lb.simulation_s", "lb.des_s", "exec.overhead_s",
                 "cli.import_s")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--last", type=int, default=None,
                        help="only the last N runs of each workload and mode")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    self_times = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "s" and m["name"] not in NOT_SELF_TIME]

    runs = defaultdict(list)
    for line in SAMPLES.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs[record["workload"], record["trace"]].append(record)
    if args.last is not None:
        runs = {key: records[-args.last:] for key, records in runs.items()}

    for (workload, trace), records in sorted(runs.items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        seeds = [r["seed"] for r in records]
        loads = [r["provenance"]["loadavg_start"][0] for r in records]
        print(f"== {workload} trace={trace}: {len(records)} runs, seeds "
              f"{seeds}, error_rate {failed}/{attempted}, 1-min load "
              f"{min(loads):.2f}..{max(loads):.2f}")
        for note in sorted({n for r in records for n in r["failures"]}):
            print(f"   FAILED {note}")
        if trace == 0:
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in records]
                q1, median, q3 = quartiles(values)
                share = spread(values)
                verdict = "ok" if share < bound / 3 else "WIDE"
                print(f"   {name:12s} median {median:10.5g}  q1 {q1:10.5g}  "
                      f"q3 {q3:10.5g}  spread {share:6.2%}  bound "
                      f"{bound:.0%}  {verdict}")
            for name in ("setup_s", "warm_s"):
                within = [spread(r["samples"][name]) for r in records
                          if len(r["samples"][name]) > 1]
                if within:
                    print(f"   within-run {name} spread: median "
                          f"{statistics.median(within):.2%} over "
                          f"{len(within)} runs "
                          f"({len(records[-1]['samples'][name])} samples "
                          "in the last run)")
            calib = [statistics.median(r["samples"]["calib_s"])
                     for r in records if r["samples"].get("calib_s")]
            if len(calib) == len(records):
                walls = [r["metrics"]["wall_s"]["value"] for r in records]
                steal = sum(r["provenance"].get("steal_s") or 0.0
                            for r in records)
                print(f"   machine speed: calibration loop spread "
                      f"{spread(calib):.2%}; wall_s / calibration spread "
                      f"{spread([w / c for w, c in zip(walls, calib)]):.2%}; "
                      f"steal {steal:.1f}s over the runs")
        else:
            walls = [r["samples"]["traced_wall_s"][0] + r["samples"]["warm_s"][0]
                     for r in records]
            wall = statistics.median(walls)
            layers = defaultdict(list)
            for r in records:
                for name, metric in r["metrics"].items():
                    layers[name].append(metric["value"])
            timed = sorted(
                ((statistics.median(layers[name]), name) for name in self_times),
                reverse=True,
            )
            print(f"   traced wall (cold + warm) median {wall:.3f}s; "
                  "top self-time stages:")
            for seconds, name in timed[:5]:
                print(f"     {name:30s} {seconds:9.4f}s  {seconds / wall:6.1%}")
            for name in ("trace.coverage", "trace.overhead",
                         "lb.serve_share", "games.escalation_rate",
                         "exec.cache_hit_rate"):
                print(f"     {name:30s} {statistics.median(layers[name]):9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
