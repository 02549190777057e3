"""Self-tests of the benchmark: its inputs, its statistics and its checks.

    python3 -m pytest bench
"""

import json
import os
import random
from collections import Counter

import pytest

import workloads as wl

wl.use_sources()

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from nomres import corpus  # noqa: E402
from nomres.learner import LearnBudget, learn  # noqa: E402
from nomres.orbits import AlphabetSpec, enumerate_word_orbits, parse_word  # noqa: E402


def test_cli_batch_calls_are_deterministic_per_seed_and_differ_across_seeds(tmp_path):
    calls = wl.cli_batch_calls(1, 0, str(tmp_path))
    assert calls == wl.cli_batch_calls(1, 0, str(tmp_path))
    assert calls != wl.cli_batch_calls(2, 0, str(tmp_path))
    assert calls != wl.cli_batch_calls(1, 1, str(tmp_path))
    kinds = Counter(call.kind for call in calls)
    assert kinds == {"member": wl.MEMBER_CALLS, "learn": 6, "orbits": 1,
                     "universal": 7, "anchor": 15}


def test_member_words_follow_the_mix(tmp_path):
    rng = random.Random(5)
    for call in wl.member_calls(rng, str(tmp_path), wl.CORPUS_NAMES, 300):
        alphabet = corpus.get(call.target).automaton.alphabet
        word = parse_word(call.word, alphabet)
        low, high = wl.MEMBER_LENGTHS
        assert low <= len(word) <= high
        assert max(word.atoms()) < max(1, len(word) // 2)


@pytest.mark.parametrize("n", [11, 12, 57, 1000])
def test_tail_leaves_ten_samples_beyond_and_reports_the_count(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    value, percentile, count = wl.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        wl.tail([1.0] * 10)


def test_bell_orbit_count_matches_enumeration():
    for alphabet in (AlphabetSpec([("a", 1)]), AlphabetSpec([("a", 1), ("anc", 1)]),
                     AlphabetSpec([("b", 2), ("c", 0)])):
        for depth in range(5):
            assert wl.bell_orbit_count(alphabet, depth) == len(
                enumerate_word_orbits(alphabet, depth))
    ak = corpus.get("Ak:3").automaton.alphabet
    assert wl.bell_orbit_count(ak, 7) == 127203


def test_a_flipped_verdict_is_a_failure(tmp_path):
    for call in wl.member_calls(random.Random(1), str(tmp_path), ["Ld", "Lngr"], 20):
        right = "accept\n" if call.expect_rc == 0 else "reject\n"
        wrong = "reject\n" if call.expect_rc == 0 else "accept\n"
        assert wl.check_cli(call, call.expect_rc, right) is None
        assert wl.check_cli(call, 1 - call.expect_rc, wrong) is not None
        assert wl.check_cli(call, call.expect_rc, wrong) is not None


def test_a_wrong_orbit_count_is_a_failure(tmp_path):
    (call,) = [c for c in wl.cli_batch_calls(1, 0, str(tmp_path)) if c.kind == "orbits"]
    assert wl.check_cli(call, 0, "127203\nk p(k)\n") is None
    assert wl.check_cli(call, 0, "127202\nk p(k)\n") is not None


def _good_record(spec):
    return {
        "fingerprint": list(spec.fingerprint),
        "diverged": not spec.residual,
        "state_orbits": corpus.get(spec.name).canonical_orbits if spec.residual else None,
        "agreement_violations": 0,
        "counterexamples": [None],
        "disagreements": 0,
    }


@pytest.mark.parametrize("spec", wl.RESIDUAL_RUNS + wl.DIVERGENT_RUNS, ids=lambda s: s.name)
def test_an_altered_learn_output_is_a_failure(spec):
    record = _good_record(spec)
    assert wl.check_learn(spec, record) == []
    mq, eq, final_l = spec.fingerprint
    altered = [
        {"fingerprint": [mq + 1, eq, final_l]},
        {"fingerprint": [mq, eq, final_l + 1]},
        {"diverged": spec.residual},
        {"agreement_violations": 1},
    ]
    if spec.residual:
        altered += [{"state_orbits": record["state_orbits"] + 1}, {"disagreements": 1}]
    for change in altered:
        assert wl.check_learn(spec, {**record, **change}), change


def test_the_replay_guard_counts_a_difference():
    same = {"outputs": {"Ld": {"fingerprint": [39, 2, 2]}}}
    other = {"outputs": {"Ld": {"fingerprint": [40, 2, 2]}}}
    assert run.replay_guard([(same, dict(same))]) == []
    assert len(run.replay_guard([(same, dict(same)), (same, other)])) == 1


@pytest.mark.parametrize("spec", wl.RESIDUAL_RUNS[:6], ids=lambda s: s.name)
def test_the_traced_replay_reproduces_learn(spec):
    budget = LearnBudget(max_equivalence=spec.max_equivalence, max_length=spec.max_length)
    teacher = wl.recording(wl.build_teacher(spec))
    result = learn(teacher, budget)
    st = result.stats
    expected = wl.learn_record(result.hypothesis, st.membership_queries,
                               st.equivalence_queries, st.final_l,
                               st.agreement_violations, teacher.equivalence.answers)

    teacher = wl.build_teacher(spec)
    replay = tracing.LearnReplay(tracing.Tracer(), teacher, budget, Counter())
    hyp = replay.run()
    got = wl.learn_record(hyp, teacher.membership.query_count, len(replay.counterexamples),
                          replay.table.length, replay.agreement_violations,
                          replay.counterexamples)
    assert got == expected
    assert wl.check_learn(spec, got) == []


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    layers = worker.layer_metrics(tracing.Tracer(), Counter(), 1.0)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: run.layer_unit(name)
                      for name in list(layers) + ["trace.overhead_frac"]}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
