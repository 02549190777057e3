"""The nomres benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload learn-residual --seed 1 --seconds 30 --trace 0

Runs passes of the workload one after another, each in a fresh
interpreter (`worker.py`), until another pass would end more than half a
pass past `--seconds`, then prints each metric with its unit and, as the
last line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` each pass runs twice, untraced and traced, the traced one
must reproduce the untraced outputs exactly, and the metrics are the
per-layer ones.  Exits 1 when any output is wrong and 2 when the run
cannot be made at all.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
HARD_LIMIT_S = 170.0  # the whole run, its child processes included
MIN_SETUPS = 5  # set-ups per untraced run; set-up-only passes make up the rest
TAIL_BLOCK = 500  # member calls per tail estimate


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "member_ms_p50": "ms",
    "member_ms_tail": "ms",
    "member_per_s": "1/s",
}


class BenchError(Exception):
    pass


def spawn(args, pass_index, traced, deadline, setup_only=False, probe=None):
    """Run one pass, or one part of it, in a fresh interpreter and return
    its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for pass {pass_index}")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if probe is not None:
        cmd += ["--probe", str(probe)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                              timeout=remaining, env=dict(os.environ, **wl.PASS_ENV))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass {pass_index} printed no report:\n{proc.stderr[-3000:]}") from None


def run_pass(args, pass_index, traced, deadline):
    """The report of one pass.  A learn workload's pass is its member
    probes, before and after its learn runs, each in an interpreter of
    its own."""
    if args.workload not in wl.LEARN_WORKLOADS:
        return spawn(args, pass_index, traced, deadline)
    first = spawn(args, pass_index, traced, deadline, probe=0)
    report = spawn(args, pass_index, traced, deadline)
    report["member_ms"] = []
    for probe in (first, spawn(args, pass_index, traced, deadline, probe=1)):
        report["member_ms"] += probe["member_ms"]
        for key in ("attempted", "failed", "errors"):
            report[key] += probe[key]
        if traced:
            # layer by layer, the probe's share adds to the learn runs';
            # it makes no learn runs, so its ratios are all 0
            report["layers"] = {name: value + probe["layers"][name]
                                for name, value in report["layers"].items()}
    return report


def run_passes(args, start, deadline):
    """(untraced report, traced report or None) per pass, for --seconds."""
    passes = []
    while True:
        untraced = run_pass(args, len(passes), False, deadline)
        traced = run_pass(args, len(passes), True, deadline) if args.trace else None
        passes.append((untraced, traced))
        # another pass starts when it would end at most half a pass past
        # --seconds, so that runs last --seconds on average
        elapsed = time.monotonic() - start
        if elapsed * (1.0 + 0.5 / len(passes)) > args.seconds:
            return passes


def end_to_end(args, passes, deadline):
    reports = [u for u, _ in passes]
    setups = [u["setup_s"] for u in reports]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, len(setups), False, deadline, setup_only=True)["setup_s"])
    member = [ms for u in reports for ms in u["member_ms"]]
    # the tail is taken per block of calls and its median reported, so its
    # percentile does not depend on how many passes fit in the run
    tails = [wl.tail(u["member_ms"][i:i + TAIL_BLOCK])
             for u in reports for i in range(0, len(u["member_ms"]), TAIL_BLOCK)]
    _, percentile, samples = tails[0]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([u["wall_s"] for u in reports]),
        "cpu_s": statistics.median([u["cpu_s"] for u in reports]),
        "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in reports]),
        "member_ms_p50": statistics.median(member),
        "member_ms_tail": statistics.median([value for value, _, _ in tails]),
        "member_per_s": 1000.0 * len(member) / sum(member),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(reports)} passes",
        "member_ms_p50": f"{len(member)} member calls",
        "member_ms_tail": f"p{percentile:.1f} of {samples} calls, median of {len(tails)} blocks",
    }
    return metrics, notes


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_query"):
        return "ratio"
    return "count"


def per_layer(passes):
    traced = [t for _, t in passes]
    metrics = {
        name: (statistics.median([t["layers"][name] for t in traced]), layer_unit(name))
        for name in traced[0]["layers"]
    }
    overhead = statistics.median([t["compare_s"] / u["compare_s"] - 1.0 for u, t in passes])
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, {"trace.overhead_frac": f"median of {len(passes)} pass pairs"}


def replay_guard(passes):
    """The traced pass must reproduce the untraced outputs exactly."""
    return [f"pass {i}: traced outputs differ from untraced ones"
            for i, (u, t) in enumerate(passes) if t is not None and t["outputs"] != u["outputs"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not wl.sources_present():
        print(f"bench: no nomres sources under {wl.SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    try:
        passes = run_passes(args, start, deadline)
        if args.trace:
            metrics, notes = per_layer(passes)
        else:
            metrics, notes = end_to_end(args, passes, deadline)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    reports = [r for pair in passes for r in pair if r is not None]
    errors = [e for r in reports for e in r["errors"]]
    guard = replay_guard(passes)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports) + len(guard)
    for line in (errors + guard)[:20]:
        print(f"FAIL {line}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes in "
          f"{time.monotonic() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {value:12.6g} {unit}{note}")
    print(f"  {'failed_frac':30s} {failed / attempted:12.6g}  ({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
