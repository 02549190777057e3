"""Spans around the benchmark's calls into each nomres layer, and the
traced replays that make those calls.

The traced run never patches nomres.  It makes, from outside, the same
public calls `learn()` and `EquivalenceOracle.equivalent` make, in the
same order, and records a span around each; the guard in `run.py` then
requires the replay to reproduce the untraced run's outputs exactly.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

from nomres.automaton import accepts, parse
from nomres.learner import ObservationTable, hypothesis_agreement_violations
from nomres.orbits import count_partial_permutations, enumerate_word_orbits, parse_word
from nomres.rows import is_join_irreducible, row_leq


class Tracer:
    """Spans kept in memory as (id, parent, run, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.run, name, start, end)

    def self_times(self):
        """{name: (self seconds, span count)}; self time is a span's
        duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, _, name, start, end in self.spans:
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[sid], count + 1)
        return out

    def top_level_seconds(self, runs):
        return sum(end - start for _, parent, run, _, start, end in self.spans
                   if parent is None and run in runs)

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, run, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run,
                                     "name": name, "start": start, "end": end}) + "\n")


class TracedMembership:
    """The teacher's membership oracle with a span on each query."""

    def __init__(self, tracer, oracle):
        self.tracer = tracer
        self.oracle = oracle

    def member(self, w):
        return self.tracer.call("teacher.membership", self.oracle.member, w)


class LearnReplay:
    """The loop of `learn()` (without a wall-time budget), one span per phase.

    The table gets no oracle of its own, so no step fills it implicitly;
    each fill `learn()` would trigger is made here, in the same place.
    """

    def __init__(self, tracer, teacher, budget, counters):
        self.tr = tracer
        self.teacher = teacher
        self.budget = budget
        self.counters = counters
        self.table = ObservationTable(teacher.alphabet)
        self.oracle = TracedMembership(tracer, teacher.membership)
        self.filled_at = None
        self.counterexamples = []
        self.agreement_violations = 0

    def _fill(self):
        table = self.table
        self.tr.call("learner.fill", table.fill, self.oracle)
        state = (table.length, table.columns.version)
        if state != self.filled_at:
            # every fill that rebuilds the rows reads every entry of them
            self.filled_at = state
            self.counters["row_entries"] += sum(
                len(table.row(label).entries) for label in table.all_labels()
            )

    def _closedness(self):
        defect = self.table.find_closedness_defect()
        if defect is not None and len(defect) <= self.budget.max_length:
            self.table.close_step(defect)
        return defect

    def _consistency(self):
        mismatch = self.table.find_consistency_defect()
        if mismatch is not None:
            self.table.consistency_step(mismatch)
        return mismatch

    def _equivalent(self, hypothesis):
        """`EquivalenceOracle.equivalent`, word by word."""
        oracle = self.teacher.equivalence
        target = oracle.target
        aut = hypothesis.automaton
        words = self.tr.call("orbits.enumerate", enumerate_word_orbits,
                             target.alphabet, oracle.depth)
        self.counters["enumerate_words"] += len(words)
        for w in words:
            self.counters["eq_words"] += 1
            self.counters["accepts"] += 1
            expected = self.tr.call("teacher.membership", target.evaluate, w)
            if expected != self.tr.call("automaton.accepts", accepts, aut, w):
                return w
        return None

    def run(self):
        """The accepted hypothesis, or None when a budget ran out."""
        tr, table = self.tr, self.table
        self._fill()
        while True:
            while True:
                progressed = False
                defect = tr.call("learner.closedness", self._closedness)
                if defect is not None:
                    if len(defect) > self.budget.max_length:
                        return None
                    self._fill()
                    progressed = True
                if tr.call("learner.consistency", self._consistency) is not None:
                    self._fill()
                    progressed = True
                if not progressed:
                    break
            hyp = tr.call("learner.hypothesis", table.build_hypothesis,
                          verify_preconditions=False)
            self.agreement_violations += len(
                tr.call("learner.agreement", hypothesis_agreement_violations, table, hyp)
            )
            if len(self.counterexamples) >= self.budget.max_equivalence:
                return None
            cex = tr.call("teacher.equivalence", self._equivalent, hyp)
            self.counterexamples.append(cex)
            if cex is None:
                return hyp
            tr.call("learner.counterexample", table.handle_counterexample, cex)
            self._fill()


# Join-irreducibility is probed on at most this many extension rows per
# table, evenly spaced in enumeration order: all 203 of Ln's take ~35 s.
JI_PROBE_ROWS = 24


def probe_rows(tracer, table, counters):
    """Time the row lattice on a final table: join-irreducibility of
    extension rows against Rows(T), and the order over S x S."""
    family = table.rows_family()
    extension = [l for l in table.all_labels() if len(l) > table.length]
    probed = extension[::max(1, math.ceil(len(extension) / JI_PROBE_ROWS))]
    labels = table.s_labels()

    def ji():
        return sum(is_join_irreducible(table.row(l), family) for l in probed)

    def leq():
        for s1 in labels:
            r1 = table.row_of(s1)
            for s2 in labels:
                row_leq(r1, table.row_of(s2))

    counters["ji_count"] += tracer.call("rows.ji_probe", ji)
    tracer.call("rows.leq_probe", leq)
    counters["s_labels"] += len(labels)
    counters["ext_labels"] += len(extension)
    counters["columns"] += len(table.columns)
    counters["row_orbits"] += len(family)
    counters["final_l"] += table.length


def replay_member(tracer, path, word_text):
    """`nomres member` as its three library calls, on a fresh automaton."""
    with open(path) as fh:
        text = fh.read()
    aut = tracer.call("automaton.parse", parse, text)
    word = tracer.call("orbits.parse_word", parse_word, word_text, aut.alphabet)
    return tracer.call("automaton.accepts", accepts, aut, word)


def replay_orbits(tracer, path, max_len):
    """`nomres orbits --alphabet`: the word-orbit count and the p(k) table."""
    with open(path) as fh:
        text = fh.read()
    alphabet = tracer.call("automaton.parse", parse, text).alphabet
    words = tracer.call("orbits.enumerate", enumerate_word_orbits, alphabet, max_len)
    tracer.call("orbits.count", lambda: [
        count_partial_permutations(k) for k in range(max_len * alphabet.dimension + 1)
    ])
    return len(words)

