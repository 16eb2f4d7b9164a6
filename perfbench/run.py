"""ldbig benchmark: cost of a verdict on four seeded compose workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-small --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: one thread issues verdicts back to
back through the in-process CLI (``ldbig.cli.main``, stdout captured) or
``ldbig.is_isomorphic``.  Every verdict is checked against a reference the
benchmark computes from its own description of the inputs.

Each verdict is timed against a yardstick: a fixed pure-Python computation,
independent of ldbig, timed beside the verdicts throughout the loop.  A
verdict's cost is its time over the time the yardstick took around it, so a
host that slows both for a while leaves the cost as it was.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs whole
passes over the workload's verdicts, first untraced and then with spans
around the calls into each ldbig module, and reports per-layer totals per
pass.  The last line of output is one JSON object.  The exit status is 0 when
every verdict agreed with the reference, 1 when one did not, and 2 when the
ldbig sources are not in ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from reference import verdict_error
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 10
YARDSTICK_EVERY_S = 0.02
TAIL_BEYOND = 10
TIME_LIMIT_S = {"equivalence": 2.0}
DEFAULT_TIME_LIMIT_S = 60.0

END_TO_END = {
    "verdict.p50": "yardstick",
    "verdict.tail": "yardstick",
    "services_per_yardstick": "svc/yardstick",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "fraction",
}
# Printed for the reader, in wall-clock units, but not in the JSON line:
# on a shared host they move with the host's speed (see verdict_costs).
WALL_CLOCK = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "services_per_s": "services/s",
    "yardstick_s.p50": "s",
}
# failed_ratio is printed but not in the JSON line: that line carries
# attempted and failed, and a metric that reads 0 on every run has no median
# to bound.
REPORTED = [m for m in END_TO_END if m != "failed_ratio"]

SPAN_METRICS = [
    "cli.main.self_s",
    "composefile.parse_compose.s",
    "composefile.environment_bigraph.s",
    "composefile.container_stub.s",
    "composefile.container_stub.calls",
    "composefile.assemble.self_s",
    "containers.build_container.s",
    "algebra.tensor.s",
    "algebra.tensor.calls",
    "interfaces.juxtapose_with_renames.s",
    "algebra.compose.s",
    "bigraph.validate.s",
    "bigraph.Bigraph.children.s",
    "bigraph.Bigraph.children.calls",
    "analysis.check_links.s",
    "analysis.build_flow_graph.s",
    "analysis.transitive_closure.s",
    "analysis.find_leaks.s",
    "sorting.find_matches.s",
    "algebra.is_isomorphic.s",
    "algebra.place_order.s",
    "serialize.dumps.s",
    "serialize.to_dot.s",
    "serialize.patterns_from_json.s",
]
COUNT_METRICS = [
    "interfaces.check_name.calls",
    "analysis.FlowGraph.successors.calls",
    "sorting.verify_occurrence.calls",
]
PER_LAYER = SPAN_METRICS + COUNT_METRICS + [
    "analysis.leaks_per_pair",
    "sorting.occurrences_per_leaf",
    "trace.overhead_ratio",
    "trace.self_share",
]


class TimeLimit(BaseException):
    """Raised inside a verdict that outlives its time limit."""


class _Failure(str):
    """An outcome that is already a failure: an exception or a time-out."""


@dataclass
class Loop:
    """What a closed loop over a verdict list saw.

    Sample ``k`` ran verdict ``k % len(verdicts)``, so only its time is kept,
    eight bytes in an array, with the index of the yardstick timing that
    followed it, four bytes, and each verdict keeps its distinct outcomes
    with a count.
    The loop's own memory therefore hardly grows with the number of samples,
    and peak RSS stays the program's.
    """
    times: array
    outcomes: list[dict]  # per verdict: distinct outcome -> samples giving it
    wall: float
    yardsticks: array = field(default_factory=lambda: array("d"))
    paired: array = field(default_factory=lambda: array("I"))  # per sample

    def extend(self, other: "Loop") -> None:
        """Append another loop over the same verdicts; both end on a whole
        pass, so sample positions keep naming their verdicts."""
        assert len(self.times) % len(self.outcomes) == 0
        self.times.extend(other.times)
        offset = len(self.yardsticks)
        self.yardsticks.extend(other.yardsticks)
        self.paired.extend(i + offset for i in other.paired)
        for mine, theirs in zip(self.outcomes, other.outcomes):
            for outcome, count in theirs.items():
                mine[outcome] = mine.get(outcome, 0) + count
        self.wall += other.wall

    def services(self, verdicts) -> int:
        """Services covered by all samples."""
        n = len(verdicts)
        whole, rest = divmod(len(self.times), n)
        return (whole * sum(v.services for v in verdicts)
                + sum(v.services for v in verdicts[:rest]))


def load_ldbig():
    """Import ldbig from ``src/`` beside this directory, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ldbig" / "__init__.py").is_file():
        print(f"perfbench: no ldbig sources at {src}/ldbig", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ldbig
    import ldbig.cli
    if Path(ldbig.__file__).resolve().parent != (src / "ldbig").resolve():
        print(f"perfbench: imported ldbig from {ldbig.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return ldbig


def measure_setup(runs: int) -> list[float]:
    """Wall times of ``runs`` fresh ``python -m ldbig --version``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ldbig", "--version"],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"ldbig --version failed: {proc.stderr}")
    return times


def yardstick() -> int:
    """The fixed computation verdicts are measured against: the kind of work
    ldbig does (small dicts and lists built from strings, then sorted), in
    pure Python and independent of ldbig.  It takes about half a
    millisecond."""
    table = {}
    for i in range(600):
        table[f"k{i}"] = {"name": str(i), "links": [i, i + 1], "tags": ("a", "b")}
    ordered = sorted(table.values(), key=lambda row: row["name"])
    return sum(len(row["links"]) for row in ordered)


def time_yardstick() -> float:
    """One yardstick's wall time, with the collector off so that the heap
    ldbig leaves behind does not count against it."""
    gc.disable()
    try:
        began = perf_counter()
        yardstick()
        return perf_counter() - began
    finally:
        gc.enable()


def _run_verdict(ldbig, verdict):
    if verdict.command == "iso":
        return ldbig.is_isomorphic(*verdict.pair)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ldbig.cli.main(verdict.argv)
    return code, out.getvalue()


def closed_loop(ldbig, verdicts, limit: float, seconds: float) -> Loop:
    """Issue verdicts back to back, cycling through the list, until
    ``seconds`` have passed and at least one whole pass is done.  With
    ``seconds`` 0 that is exactly one pass.  After a verdict, the yardstick
    is timed once if YARDSTICK_EVERY_S has passed since its last timing;
    each sample records the index of the next timing."""
    armed = False

    def on_alarm(signum, frame):
        if armed:
            raise TimeLimit()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    n = len(verdicts)
    loop = Loop(array("d"), [{} for _ in verdicts], 0.0)
    times, outcomes = loop.times, loop.outcomes
    yardsticks, paired = loop.yardsticks, loop.paired
    start = last_yardstick = perf_counter()
    try:
        while len(times) < n or perf_counter() - start < seconds:
            index = len(times) % n
            began = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit)
            armed = True
            try:
                outcome = _run_verdict(ldbig, verdicts[index])
                armed = False
            except TimeLimit:
                outcome = _Failure(f"time limit of {limit} s exceeded")
            except (Exception, SystemExit):
                outcome = _Failure(traceback.format_exc())
            finally:
                armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            ended = perf_counter()
            times.append(ended - began)
            paired.append(len(yardsticks))
            seen = outcomes[index]
            seen[outcome] = seen.get(outcome, 0) + 1
            if ended - last_yardstick >= YARDSTICK_EVERY_S:
                yardsticks.append(time_yardstick())
                last_yardstick = perf_counter()
        if paired[-1] == len(yardsticks):
            yardsticks.append(time_yardstick())
    finally:
        signal.signal(signal.SIGALRM, previous)
    loop.wall = perf_counter() - start
    return loop


def check(ldbig, verdicts, loop: Loop) -> dict[int, tuple[str, int]]:
    """For each verdict that failed: a failure reason and how many of its
    samples failed.  Each distinct outcome of a verdict is checked once."""
    failures = {}
    for index, seen in enumerate(loop.outcomes):
        verdict = verdicts[index]
        for outcome, count in seen.items():
            if isinstance(outcome, _Failure):
                reason = outcome
            elif verdict.command == "iso":
                reason = None if outcome is verdict.expected else \
                    f"is_isomorphic gave {outcome}, expected {verdict.expected}"
            else:
                code, text = outcome
                reason = verdict_error(verdict.command, verdict.expected,
                                       code, text, ldbig)
            if reason:
                first, failed = failures.get(index, (reason, 0))
                failures[index] = (first, failed + count)
    return failures


def save_failures(verdicts, failures, directory: Path):
    """Copy each failing verdict's inputs beside a note on how to replay it."""
    for index, (reason, _) in failures.items():
        verdict = verdicts[index]
        target = directory / verdict.key.replace("/", "__")
        if target.exists():
            continue
        target.mkdir(parents=True)
        for f in verdict.files:
            shutil.copy(f, target / f.name)
        how = ("ldbig " + " ".join(verdict.argv) if verdict.argv else
               "is_isomorphic on the two assembled .yml files, expected "
               f"{verdict.expected}")
        (target / "replay.txt").write_text(f"{how}\n\n{reason}\n",
                                           encoding="utf-8")


def verdict_times(loop: Loop) -> list[float]:
    """One wall time per distinct verdict: the best of its repetitions.
    Printed beside the costs; it still moves with the host's speed whenever
    a run spends all its repetitions of a verdict in the slow mode."""
    n = len(loop.outcomes)
    return [min(loop.times[i::n]) for i in range(min(n, len(loop.times)))]


def verdict_costs(loop: Loop) -> list[float]:
    """One cost per distinct verdict, in yardsticks: the median, over its
    repetitions, of the verdict's time over the mean time of the yardsticks
    timed just before and just after it.

    On a shared host the speed of a pure-Python loop switches between a fast
    mode and a slow one, about 1.6 times slower, for a quarter of a second
    to minutes at a time, and whole runs can fall in the slow mode.  A
    verdict and the yardsticks timed around it mostly ran in the same mode,
    so their ratio does not depend on it; a verdict long enough to span a
    switch is measured against both sides of it.  Percentiles are taken over
    distinct verdicts, because repetitions of one verdict are not
    independent samples.
    """
    n, times, paired, ys = len(loop.outcomes), loop.times, loop.paired, loop.yardsticks

    def cost(k):
        j = paired[k]
        return times[k] / ((ys[max(j - 1, 0)] + ys[j]) / 2)

    return [statistics.median(cost(k) for k in range(i, len(times), n))
            for i in range(min(n, len(times)))]


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  With too few samples it is the
    maximum, with none beyond."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_BEYOND


def end_to_end(ldbig, verdicts, seconds, limit):
    # the first interpreter may compile bytecode, so it is not counted; the
    # rest run half before and half after the loop, so their median spans it
    measure_setup(1)
    setup = measure_setup(SETUP_RUNS // 2)
    loop = closed_loop(ldbig, verdicts, limit, seconds)
    # read before the samples are summarised, which allocates per sample
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    costs = verdict_costs(loop)
    cost_tail, pct, beyond = tail(costs)
    times = verdict_times(loop)
    time_tail = tail(times)[0]
    services = loop.services(verdicts)
    pass_services = sum(v.services for v in verdicts)
    reps = len(loop.times) / len(verdicts)
    metrics = {
        "verdict.p50": statistics.median(costs),
        "verdict.tail": cost_tail,
        "services_per_yardstick": pass_services / sum(costs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": time_tail,
        "services_per_s": services / loop.wall,
        "yardstick_s.p50": statistics.median(loop.yardsticks),
    }
    notes = {"verdict.p50": f"over {len(costs)} distinct verdicts, each the "
                            f"median of its {reps:.1f} repetitions",
             "verdict.tail": f"p{pct:.2f}, {beyond} of {len(costs)} beyond",
             "services_per_yardstick": f"one pass of {pass_services} "
                                       f"services over its verdicts' costs",
             "setup_s": f"median of {SETUP_RUNS} fresh interpreters, "
                        f"half before and half after the loop",
             "verdict_s.p50": "each verdict the best of its repetitions",
             "verdict_s.tail": f"p{pct:.2f} of the same",
             "services_per_s": f"{services} services in {loop.wall:.2f} s",
             "yardstick_s.p50": f"over {len(loop.yardsticks)} timings"}
    return loop, metrics, notes


def per_layer(ldbig, verdicts, seconds, limit, spans_path: Path):
    def passes(budget):
        """Whole passes over the verdicts, as many as fit in ``budget``."""
        loop = closed_loop(ldbig, verdicts, limit, 0)
        for _ in range(int(budget / loop.wall) - 1):
            loop.extend(closed_loop(ldbig, verdicts, limit, 0))
        return loop, len(loop.times) // len(verdicts)

    plain, plain_passes = passes(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_passes = passes(seconds / 2)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    layers = tracer.layers()
    per_pass = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        per_pass[name] = layers.get(span, {}).get(field, 0) / traced_passes
    for name in COUNT_METRICS:
        per_pass[name] = tracer.counts[name.rsplit(".", 1)[0]] / traced_passes
    counts = tracer.counts
    per_pass["analysis.leaks_per_pair"] = \
        counts["analysis.leaks"] / max(1, counts["analysis.pairs"])
    per_pass["sorting.occurrences_per_leaf"] = \
        counts["sorting.occurrences"] / max(1, counts["sorting.verify_occurrence"])
    per_pass["trace.overhead_ratio"] = \
        (traced.wall / traced_passes) / (plain.wall / plain_passes)
    per_pass["trace.self_share"] = \
        sum(row["self_s"] for row in layers.values()) / sum(traced.times)
    notes = {"trace.overhead_ratio":
             f"{traced_passes} traced pass(es) of {len(verdicts)} verdicts "
             f"against {plain_passes} untraced"}
    plain.extend(traced)
    return plain, per_pass, notes


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in WALL_CLOCK:
        return WALL_CLOCK[metric]
    kind = metric.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "calls": "count"}.get(kind, "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ldbig = load_ldbig()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run_name = f"{args.workload}-seed{args.seed}"
    inputs = OUT / "inputs" / run_name
    shutil.rmtree(inputs, ignore_errors=True)
    verdicts = workloads.build(args.workload, args.seed, inputs, ldbig)
    limit = TIME_LIMIT_S.get(args.workload, DEFAULT_TIME_LIMIT_S)

    # set-up garbage is collected now and kept out of later collections
    gc.collect()
    gc.freeze()
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        loop, metrics, notes = per_layer(
            ldbig, verdicts, args.seconds, limit,
            OUT / "spans" / f"{run_name}.csv")
    else:
        loop, metrics, notes = end_to_end(ldbig, verdicts, args.seconds, limit)

    failures = check(ldbig, verdicts, loop)
    if failures:
        save_failures(verdicts, failures, OUT / "failures" / run_name)
    attempted = len(loop.times)
    failed = sum(count for _, count in failures.values())
    print(f"workload {args.workload}, seed {args.seed}: {attempted} verdicts "
          f"({len(verdicts)} distinct), closed loop with one client")
    if not args.trace:
        metrics_shown = dict(metrics, failed_ratio=failed / attempted)
        notes["failed_ratio"] = f"{failed} of {attempted} verdicts"
    else:
        metrics_shown = metrics
    for name, value in metrics_shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {unit_of(name)}{note}")
    for index, (reason, _) in list(failures.items())[:5]:
        print(f"  FAILED {verdicts[index].key}: {reason.strip()}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in (PER_LAYER if args.trace else REPORTED)},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
