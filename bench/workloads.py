"""What the benchmark runs, the inputs it generates, and how it checks outputs.

Everything here is shared by the orchestrator (`run.py`), the per-pass
worker (`worker.py`) and the self-tests.  Inputs depend only on the
workload seed and the pass index, never on time.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("learn-residual", "learn-divergent", "cli-batch")


def sources_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "nomres", "__init__.py"))


def use_sources():
    """Import nomres from the checkout being measured, never an installed copy."""
    if not sources_present():
        raise SystemExit(f"bench: no nomres package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pass_rng(seed: int, pass_index: int, stream: str) -> random.Random:
    """The generator for one input stream of one pass of a seeded run."""
    return random.Random(f"{seed}/{pass_index}/{stream}")


# String hashes decide the iteration order of some sets and dicts the
# learner searches, and with it how soon a search stops: Ln alone took
# from 16.5 s to 20 s across hash seeds.  Every pass runs with the same
# hash seed, so that passes differ only in the inputs drawn from the
# workload seed, however many of them fit in a run.
PASS_ENV = {"PYTHONHASHSEED": "0"}


# -- learn workloads -----------------------------------------------------------


@dataclass(frozen=True)
class LearnSpec:
    name: str
    eq_depth: int
    max_length: int
    max_equivalence: int
    residual: bool
    # membership queries / equivalence queries / final l
    fingerprint: tuple


# The acceptance settings of tests/test_acceptance.py (`learning_runs`), with
# one change: Ak:3 is checked to depth 6, not 7.  At depth 7 its single
# equivalence query alone takes about a minute, which no longer fits the
# time the benchmark may take; the fingerprint is the same at both depths.
RESIDUAL_RUNS = (
    LearnSpec("Ld", 6, 4, 40, True, (39, 2, 2)),
    LearnSpec("Lngr", 5, 4, 40, True, (39, 2, 2)),
    LearnSpec("Lr", 5, 4, 40, True, (291, 2, 2)),
    LearnSpec("Compress", 6, 4, 40, True, (24, 1, 2)),
    LearnSpec("Ak:1", 3, 3, 40, True, (171, 1, 2)),
    LearnSpec("Ak:2", 5, 4, 40, True, (467, 1, 2)),
    LearnSpec("Ak:3", 6, 5, 40, True, (3539, 1, 3)),
)

# `divergence_runs` settings, except that Lng stops at length 4: at length 5
# it takes about 90 s, all of it rows work at that one length.
DIVERGENT_RUNS = (
    LearnSpec("Ln", 6, 5, 20, False, (2033, 1, 5)),
    LearnSpec("Lng", 6, 4, 20, False, (2504, 1, 4)),
)

LEARN_WORKLOADS = {
    "learn-residual": RESIDUAL_RUNS,
    "learn-divergent": DIVERGENT_RUNS,
}

# residual hypotheses are compared with the corpus predicate up to this length
AGREEMENT_DEPTH = 5


def build_teacher(spec: LearnSpec):
    """The teacher the acceptance fixtures build."""
    from nomres import corpus
    from nomres.teacher import for_corpus, for_language

    if spec.residual:
        return for_corpus(spec.name, eq_depth=spec.eq_depth)
    entry = corpus.get(spec.name)
    return for_language(
        entry.automaton.alphabet,
        predicate=entry.predicate,
        eq_depth=spec.eq_depth,
        name=spec.name,
    )


def recording(teacher):
    """The same teacher, keeping every equivalence answer it gives."""
    from nomres.teacher import Teacher

    return Teacher(teacher.membership, RecordingEquivalence(teacher.equivalence))


class RecordingEquivalence:
    """Forwards equivalence queries and keeps every answer."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.answers = []

    def equivalent(self, hypothesis):
        cex = self.oracle.equivalent(hypothesis)
        self.answers.append(cex)
        return cex


def learn_record(hypothesis, membership_queries, equivalence_queries, final_l,
                 agreement_violations, counterexamples) -> dict:
    """What one learn run produced, in the form the checks compare."""
    return {
        "fingerprint": [membership_queries, equivalence_queries, final_l],
        "diverged": hypothesis is None,
        "state_orbits": None if hypothesis is None else hypothesis.state_orbit_count(),
        "agreement_violations": agreement_violations,
        "counterexamples": [None if w is None else w.render() for w in counterexamples],
    }


def predicate_disagreements(name: str, automaton, depth=AGREEMENT_DEPTH) -> int:
    """Word orbits up to `depth` on which the automaton and the corpus
    predicate of `name` give different verdicts."""
    from nomres import corpus
    from nomres.automaton import accepts
    from nomres.orbits import enumerate_word_orbits

    entry = corpus.get(name)
    return sum(
        accepts(automaton, w) != bool(entry.predicate(w))
        for w in enumerate_word_orbits(automaton.alphabet, depth)
    )


def check_learn(spec: LearnSpec, record: dict) -> list:
    """Why a learn run's output is wrong; empty when it is right."""
    from nomres import corpus

    errors = []
    if tuple(record["fingerprint"]) != spec.fingerprint:
        errors.append(f"fingerprint {record['fingerprint']} != {list(spec.fingerprint)}")
    if record["agreement_violations"]:
        errors.append(f"{record['agreement_violations']} agreement violations")
    if spec.residual:
        if record["diverged"]:
            errors.append("diverged on a residual target")
        else:
            expected = corpus.get(spec.name).canonical_orbits
            if record["state_orbits"] != expected:
                errors.append(f"{record['state_orbits']} state orbits != {expected}")
            if record.get("disagreements"):
                errors.append(
                    f"{record['disagreements']} orbits up to length "
                    f"{AGREEMENT_DEPTH} disagree with the predicate"
                )
    elif not record["diverged"]:
        errors.append("converged on a non-residual target")
    return [f"{spec.name}: {e}" for e in errors]


# -- CLI calls -----------------------------------------------------------------

CORPUS_NAMES = ("Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3")
MEMBER_CALLS = 1000  # per cli-batch pass
# Each learn pass also makes `member` calls on its own targets, in two
# probes, before and after its learn runs, so that they sample two
# stretches of the run rather than one.
PROBE_CALLS = 1000  # per probe
MEMBER_LENGTHS = (8, 40)
ORBITS_MAX_LEN = 7
ORBITS_ALPHABET_OF = "Ak:3"
UNIVERSAL_CHECK_DEPTH = 4


@dataclass(frozen=True)
class CliCall:
    kind: str  # member, learn, orbits, universal, anchor
    argv: tuple
    target: str
    expect_rc: int
    word: Optional[str] = None
    output: Optional[str] = None
    expect_count: Optional[int] = None  # orbits count, or learned state orbits

    @property
    def group(self) -> str:
        """The cli.* layer bucket the call is timed under."""
        return self.kind if self.kind in ("member", "learn", "orbits") else "other"


def work_file(workdir: str, name: str, suffix: str) -> str:
    return os.path.join(workdir, name.replace(":", "_") + suffix)


def target_file(workdir: str, name: str) -> str:
    return work_file(workdir, name, ".aut")


def export_argv(workdir: str, name: str) -> tuple:
    return ("corpus", "export", name, "-o", target_file(workdir, name))


def random_word(rng: random.Random, alphabet, n: int) -> str:
    """A word of length n, atoms drawn from a pool about half the length,
    tags uniform."""
    pool = max(1, n // 2)
    tags = alphabet.tags
    letters = []
    for _ in range(n):
        tag = rng.choice(tags)
        atoms = [str(rng.randrange(pool)) for _ in range(alphabet.arity(tag))]
        letters.append(f"{tag}({','.join(atoms)})" if atoms else tag)
    return " ".join(letters)


def member_calls(rng: random.Random, workdir: str, names, count: int) -> list:
    """`member` calls on random words, with the corpus predicate's verdict.

    Targets take turns and each target's word lengths are spread evenly
    over 8-40, so that which words are long does not vary with the seed;
    the atoms and tags are random.  The calls come in seeded order.
    """
    from nomres import corpus
    from nomres.orbits import parse_word

    low, high = MEMBER_LENGTHS
    last = max(1, -(-count // len(names)) - 1)  # index of a target's last call
    calls = []
    for i in range(count):
        name = names[i % len(names)]
        entry = corpus.get(name)
        length = low + (i // len(names)) * (high - low) // last
        word = random_word(rng, entry.automaton.alphabet, length)
        verdict = entry.predicate(parse_word(word, entry.automaton.alphabet))
        path = target_file(workdir, name)
        calls.append(CliCall("member", ("member", path, word), name,
                             0 if verdict else 1, word=word))
    rng.shuffle(calls)
    return calls


def bell_orbit_count(alphabet, max_len: int) -> int:
    """Word orbits up to `max_len`: sum over lengths and tag sequences of
    Bell(total arity), computed without enumerating a single word."""
    arities = [alphabet.arity(t) for t in alphabet.tags]
    bell = [1]
    row = [1]
    while len(bell) <= max_len * max(arities):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bell.append(row[0])
    # ways[s]: tag sequences of the current length whose arities sum to s
    ways = {0: 1}
    total = 1
    for _ in range(max_len):
        grown = {}
        for s, k in ways.items():
            for a in arities:
                grown[s + a] = grown.get(s + a, 0) + k
        ways = grown
        total += sum(k * bell[s] for s, k in ways.items())
    return total


def bounded_universal(name: str, depth=UNIVERSAL_CHECK_DEPTH) -> bool:
    """Does the corpus predicate accept every word orbit up to `depth`?"""
    from nomres import corpus
    from nomres.orbits import enumerate_word_orbits

    entry = corpus.get(name)
    return all(entry.predicate(w) for w in enumerate_word_orbits(entry.automaton.alphabet, depth))


def cli_batch_calls(seed: int, pass_index: int, workdir: str) -> list:
    """One pass of cli-batch: the seeded member calls plus one of each other
    command per target it applies to, in seeded order."""
    from nomres import corpus

    rng = pass_rng(seed, pass_index, "cli")
    calls = member_calls(rng, workdir, CORPUS_NAMES, MEMBER_CALLS)
    for spec in RESIDUAL_RUNS:
        if spec.name == "Ak:3":
            continue  # its depth-6 equivalence query alone would outweigh the batch
        out = work_file(workdir, spec.name, ".learned")
        calls.append(CliCall(
            "learn",
            ("learn", "--target", target_file(workdir, spec.name),
             "--eq-depth", str(spec.eq_depth), "--max-eq", str(spec.max_equivalence),
             "--max-l", str(spec.max_length), "-o", out),
            spec.name, 0, output=out,
            expect_count=corpus.get(spec.name).canonical_orbits,
        ))
    alphabet = corpus.get(ORBITS_ALPHABET_OF).automaton.alphabet
    calls.append(CliCall(
        "orbits",
        ("orbits", "--max-len", str(ORBITS_MAX_LEN),
         "--alphabet", target_file(workdir, ORBITS_ALPHABET_OF)),
        ORBITS_ALPHABET_OF, 0, expect_count=bell_orbit_count(alphabet, ORBITS_MAX_LEN),
    ))
    for name in CORPUS_NAMES:
        entry = corpus.get(name)
        path = target_file(workdir, name)
        if entry.residual:
            calls.append(CliCall("universal", ("universal", path, "--assume-residual"),
                                 name, 0 if bounded_universal(name) else 1))
        out = work_file(workdir, name, ".anchored")
        calls.append(CliCall("anchor", ("anchor", path, "-o", out), name, 0, output=out))
        if not name.startswith("Ak:"):
            # the Ak automata already have a state named `top`, which
            # `anchor --top` refuses as a collision (exit 2)
            out = work_file(workdir, name, ".top")
            calls.append(CliCall("anchor", ("anchor", path, "--top", "-o", out),
                                 name, 0, output=out))
    rng.shuffle(calls)
    return calls


def check_cli(call: CliCall, rc: int, stdout: str) -> Optional[str]:
    """Why a CLI call's output is wrong; None when it is right."""
    from nomres.automaton import AutomatonFormatError, parse

    where = f"{call.kind} {call.target}"
    if rc != call.expect_rc:
        return f"{where}: exit {rc}, expected {call.expect_rc}"
    first = stdout.split("\n", 1)[0].strip()
    if call.kind == "member" and first != ("accept" if rc == 0 else "reject"):
        return f"{where}: printed {first!r} with exit {rc}"
    if call.kind == "universal" and first.startswith("not") != (rc == 1):
        return f"{where}: printed {first!r} with exit {rc}"
    if call.kind == "orbits" and first != str(call.expect_count):
        return f"{where}: counted {first}, expected {call.expect_count}"
    if call.output is not None:
        try:
            with open(call.output) as fh:
                aut = parse(fh.read())
        except (OSError, AutomatonFormatError) as e:
            return f"{where}: unreadable output: {e}"
        if call.kind == "learn" and len(aut.states) != call.expect_count:
            return f"{where}: {len(aut.states)} state orbits, expected {call.expect_count}"
    return None


# -- statistics ----------------------------------------------------------------


def tail(samples):
    """(value, percentile, sample count) of the highest percentile that
    leaves at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    k = n - 11
    return sorted(samples)[k], 100.0 * (k + 1) / n, n
