"""Run the benchmark on several seeds per workload, in one or more sets, and
summarise each metric by its median, quartiles and spread, (Q3 - Q1) / median.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --seconds 25 --sets 2 --traced-seeds 1

Runs go one at a time, so they do not compete for the processor.  They are
interleaved: each seed runs every workload before the next seed starts, and
the order of the workloads turns with every seed and reverses with every
set.  A slowdown of the host that lasts minutes then touches a few seeds of
every workload instead of a block of seeds of one.  With two sets or more,
each metric's median of every later set is compared with that of the first.
Traced seeds run after the last set.  The JSON summary goes to stdout; one
line per run goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    began = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}")
    print(f"{workload} seed {seed} trace {trace} "
          f"({perf_counter() - began:.1f} s): " + ", ".join(
              f"{k}={v['value']:.4g}"
              for k, v in list(result["metrics"].items())[:5]),
          file=sys.stderr, flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def schedule(seed_list: list[int], set_index: int) -> list[tuple[str, int]]:
    """(workload, seed) in run order: seed by seed, with the workload order
    turned by one place per seed and reversed on odd sets."""
    order = list(WORKLOADS)[::-1] if set_index % 2 else list(WORKLOADS)
    runs = []
    for turn, seed in enumerate(seed_list):
        k = turn % len(order)
        runs += [(w, seed) for w in order[k:] + order[:k]]
    return runs


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced-seeds", type=seeds, default=[])
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    out = {"seconds": args.seconds, "seeds": args.seeds,
           "traced_seeds": args.traced_seeds,
           "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(),
                       "system": platform.platform()},
           "sets": []}
    for set_index in range(args.sets):
        rows: dict = {w: {} for w in WORKLOADS}
        for workload, seed in schedule(args.seeds, set_index):
            for name, value in one_run(workload, seed, args.seconds, 0).items():
                rows[workload].setdefault(name, []).append(value)
        out["sets"].append({w: {name: summary(values)
                                for name, values in metrics.items()}
                            for w, metrics in rows.items()})
    traced: dict = {w: {} for w in WORKLOADS}
    for seed in args.traced_seeds:
        for workload in WORKLOADS:
            for name, value in one_run(workload, seed, args.seconds, 1).items():
                traced[workload].setdefault(name, []).append(value)
    out["traced"] = {w: {name: summary(values) for name, values in m.items()}
                     for w, m in traced.items() if m}
    first = out["sets"][0]
    out["median_change"] = [
        {w: {name: later[w][name]["median"] / row["median"] - 1
             for name, row in metrics.items()}
         for w, metrics in first.items()}
        for later in out["sets"][1:]]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
