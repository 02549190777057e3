"""One pass of a workload, in a fresh interpreter so that no cache carries over.

    python3 bench/worker.py --workload cli-batch --seed 1 --pass-index 0 \\
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

Sets the pass up, times its calls into nomres, checks every output and
prints one JSON report as the last line of stdout.  `--setup-only` stops
after set-up; `--probe N` makes, instead of a learn workload's learn
runs, part N of its `member` calls.  `run.py` starts these one at a time
and aggregates them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from time import perf_counter, process_time

import workloads as wl

wl.use_sources()

from nomres.cli import main as cli_main  # noqa: E402  (needs use_sources first)
from nomres.learner import LearnBudget, learn  # noqa: E402

import tracing  # noqa: E402  (imports nomres too)


def run_cli(argv):
    """(exit code, stdout, wall seconds, CPU seconds) of one `nomres` call
    in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cpu0, wall0 = process_time(), perf_counter()
        rc = cli_main(list(argv))
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    return rc, out.getvalue(), wall, cpu


def export_targets(workdir, names):
    for name in names:
        rc = run_cli(wl.export_argv(workdir, name))[0]
        if rc != 0:
            raise RuntimeError(f"corpus export {name} exited {rc}")


def run_calls(calls, tracer, counters):
    """Make each call; when traced, span it and replay it through the library.

    Returns the `run_cli` outcome of each call and the replay mismatches.
    """
    outcomes, mismatches = [], []
    for call in calls:
        if tracer is None:
            outcomes.append(run_cli(call.argv))
            continue
        if call.kind == "orbits":
            # before the call: the call would leave the enumeration cached
            count = tracing.replay_orbits(tracer, call.argv[-1], wl.ORBITS_MAX_LEN)
            counters["enumerate_words"] += count
            if count != call.expect_count:
                mismatches.append(f"orbits replay counted {count}")
        outcome = tracer.call("cli." + call.group, run_cli, call.argv)
        outcomes.append(outcome)
        if call.kind == "member":
            verdict = tracing.replay_member(tracer, call.argv[1], call.word)
            if (0 if verdict else 1) != outcome[0]:
                mismatches.append(f"member {call.target} {call.word!r}: replay disagrees")
    return outcomes, mismatches


def learn_pass(args, workdir, tracer, report):
    specs = list(wl.LEARN_WORKLOADS[args.workload])
    wl.pass_rng(args.seed, args.pass_index, "order").shuffle(specs)
    teachers = {s.name: wl.build_teacher(s) for s in specs}
    if tracer is None:
        # the replay sees each counterexample itself
        teachers = {name: wl.recording(t) for name, t in teachers.items()}
    budgets = {s.name: LearnBudget(max_equivalence=s.max_equivalence,
                                   max_length=s.max_length) for s in specs}
    report["setup_s"] = time.monotonic() - args.spawned_at
    if args.setup_only:
        return

    records, hypotheses = {}, {}
    counters = Counter()
    wall = cpu = 0.0
    if tracer is None:
        cpu0, wall0 = process_time(), perf_counter()
        results = [(s, learn(teachers[s.name], budgets[s.name])) for s in specs]
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        for s, result in results:
            st = result.stats
            records[s.name] = wl.learn_record(
                result.hypothesis, st.membership_queries, st.equivalence_queries,
                st.final_l, st.agreement_violations, teachers[s.name].equivalence.answers)
            hypotheses[s.name] = result.hypothesis
    else:
        for s in specs:
            teacher = teachers[s.name]
            replay = tracing.LearnReplay(tracer, teacher, budgets[s.name], counters)
            tracer.run = s.name
            cpu0, wall0 = process_time(), perf_counter()
            hyp = replay.run()
            wall += perf_counter() - wall0
            cpu += process_time() - cpu0
            records[s.name] = wl.learn_record(
                hyp, teacher.membership.query_count, len(replay.counterexamples),
                replay.table.length, replay.agreement_violations, replay.counterexamples)
            hypotheses[s.name] = hyp
            counters["membership_queries"] += teacher.membership.query_count
            tracer.run = "rows"
            tracing.probe_rows(tracer, replay.table, counters)
        covered = tracer.top_level_seconds({s.name for s in specs})
        counters["unattributed_s"] = wall - covered

    errors = []
    for s in specs:
        hyp = hypotheses[s.name]
        if hyp is not None:
            records[s.name]["disagreements"] = wl.predicate_disagreements(s.name, hyp.automaton)
        errors.append(wl.check_learn(s, records[s.name]))
    report["failed"] += sum(1 for e in errors if e)
    report["errors"] += [msg for e in errors for msg in e]
    report["attempted"] += len(specs)
    report.update(wall_s=wall, cpu_s=cpu, compare_s=wall, outputs=records)
    return counters


def probe_pass(args, workdir, tracer, report):
    """One part of the single `member` verdicts on a learn workload's own
    targets.

    Runs in a fresh interpreter of its own, not in the one that made the
    learn runs: there the verdicts would be timed on whatever heap the
    learner left, and their median moved by 15% from one learn order to
    the next.
    """
    names = sorted(s.name for s in wl.LEARN_WORKLOADS[args.workload])
    export_targets(workdir, names)
    calls = wl.member_calls(wl.pass_rng(args.seed, args.pass_index, f"probe-{args.probe}"),
                            workdir, names, wl.PROBE_CALLS)
    if tracer is not None:
        tracer.run = "probe"
    counters = Counter()
    outcomes, mismatches = run_calls(calls, tracer, counters)
    report["wall_s"] = sum(outcome[2] for outcome in outcomes)
    finish_calls(report, calls, outcomes, mismatches)
    return counters


def cli_pass(args, workdir, tracer, report):
    export_targets(workdir, wl.CORPUS_NAMES)
    calls = wl.cli_batch_calls(args.seed, args.pass_index, workdir)
    report["setup_s"] = time.monotonic() - args.spawned_at
    if args.setup_only:
        return
    if tracer is not None:
        tracer.run = "calls"
    counters = Counter()
    outcomes, mismatches = run_calls(calls, tracer, counters)
    report["wall_s"] = sum(outcome[2] for outcome in outcomes)
    report["cpu_s"] = sum(outcome[3] for outcome in outcomes)
    # the traced pass replays `orbits` before calling it, which leaves the
    # call itself warm; the overhead comparison leaves it out on both sides
    report["compare_s"] = sum(outcome[2] for call, outcome in zip(calls, outcomes)
                              if call.kind != "orbits")
    report["outputs"] = [outcome[0] for outcome in outcomes]
    finish_calls(report, calls, outcomes, mismatches)
    return counters


def finish_calls(report, calls, outcomes, mismatches):
    errors = [wl.check_cli(call, outcome[0], outcome[1]) for call, outcome in zip(calls, outcomes)]
    errors = [e for e in errors if e is not None]
    report["attempted"] += len(calls)
    report["failed"] += len(errors) + len(mismatches)
    report["errors"] += errors + mismatches
    # CPU time, which time slices lost to other processes on a shared
    # machine do not inflate
    report["member_ms"] = [1000.0 * outcome[3] for call, outcome in zip(calls, outcomes)
                           if call.kind == "member"]


def layer_metrics(tracer, counters, wall):
    """The per-layer numbers of one traced pass."""
    spans = tracer.self_times()

    def busy(name):
        return spans.get(name, (0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    m = {}
    for phase in ("fill", "closedness", "consistency", "hypothesis", "agreement"):
        m[f"learner.{phase}_s"] = busy(f"learner.{phase}")
        m[f"learner.{phase}_calls"] = calls(f"learner.{phase}")
    for size in ("s_labels", "ext_labels", "columns", "row_orbits", "final_l"):
        m[f"learner.{size}"] = counters[size]
    queries = counters["membership_queries"]
    m["learner.entries_per_query"] = counters["row_entries"] / queries if queries else 0.0
    m["rows.ji_probe_s"] = busy("rows.ji_probe")
    m["rows.ji_count"] = counters["ji_count"]
    m["rows.leq_probe_s"] = busy("rows.leq_probe")
    m["teacher.membership_queries"] = queries
    m["teacher.membership_s"] = busy("teacher.membership")
    m["teacher.equivalence_queries"] = calls("teacher.equivalence")
    m["teacher.equivalence_s"] = busy("teacher.equivalence")
    m["teacher.eq_words_checked"] = counters["eq_words"]
    m["automaton.accepts_calls"] = calls("automaton.accepts")
    m["automaton.accepts_s"] = busy("automaton.accepts")
    m["automaton.parse_s"] = busy("automaton.parse")
    m["orbits.enumerate_s"] = busy("orbits.enumerate")
    m["orbits.enumerate_words"] = counters["enumerate_words"]
    m["orbits.parse_word_s"] = busy("orbits.parse_word")
    m["orbits.count_s"] = busy("orbits.count")
    for group in ("member", "learn", "orbits", "other"):
        m[f"cli.{group}_s"] = busy(f"cli.{group}")
        m[f"cli.{group}_calls"] = calls(f"cli.{group}")
    m["trace.unattributed_frac"] = counters["unattributed_s"] / wall if wall else 0.0
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", type=int, choices=(0, 1),
                        help="a part of the member probe of a learn workload, "
                             "not its learn runs")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    report = {"attempted": 0, "failed": 0, "errors": []}
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=wl.WORK_DIR)
    try:
        if args.workload == "cli-batch":
            run_pass = cli_pass
        else:
            run_pass = learn_pass if args.probe is None else probe_pass
        counters = run_pass(args, workdir, tracer, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.setup_only:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["layers"] = layer_metrics(tracer, counters, report["wall_s"])
            part = "" if args.probe is None else f"-probe-{args.probe}"
            tracer.dump(os.path.join(
                wl.WORK_DIR, f"spans-{args.workload}-{args.pass_index}{part}.jsonl"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
