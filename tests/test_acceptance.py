"""Acceptance suite: one test per criterion, at the stated tolerances.

Learning runs are shared through session fixtures (in conftest, where
the fingerprint tests read them too) because several criteria inspect
the same runs (success, query bound, table agreement).
A one-line PASS/FAIL report per criterion is printed by the hook in
conftest.
"""

import random
import time

from nomres.orbits import (
    AlphabetSpec,
    Letter,
    Word,
    enumerate_word_orbits,
    count_partial_permutations,
)
from nomres.automaton import (
    accepts,
    anchor,
    anchor_top,
    is_universal_residual,
    parse,
    run_frontier,
    universal_automaton,
)
from nomres.rows import is_generated_by, is_join_irreducible, join_below, row_eq
from nomres.rows import in_family_orbit
from nomres import corpus

from conftest import (
    LATTICE_UNIVERSE,
    SUCCESS_TARGETS,
    brute_generated,
    brute_join_irreducible,
    bounded_universal,
    concrete_columns,
    concretize_family,
    concretize_row,
    lattice_columns,
    random_automaton,
    random_family,
    random_row,
)

ALL_ENTRIES = ["Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3"]

PINNED_ORBITS = {"Compress": 2, "Ld": 3, "Ak:1": 2, "Ak:2": 2, "Ak:3": 2}


def test_criterion_1_corpus_agreement():
    """Automaton simulation and independent predicate agree on every
    word orbit up to length 5, for every corpus entry, in under 10 s."""
    start = time.monotonic()
    for name in ALL_ENTRIES:
        entry = corpus.get(name)
        patterns = enumerate_word_orbits(entry.automaton.alphabet, 5)
        if entry.automaton.alphabet == AlphabetSpec([("a", 1)]):
            assert len(patterns) == 76
        for w in patterns:
            assert accepts(entry.automaton, w) == entry.predicate(w), (
                name,
                w.render(),
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"corpus agreement took {elapsed:.1f}s"


def test_criterion_2_learning_success(learning_runs):
    """Residual targets are learned; hypotheses match the target on all
    orbits up to the stated depths, with the pinned state-orbit counts."""
    for name, depth, _ in SUCCESS_TARGETS:
        result, depth = learning_runs[name]
        assert not result.diverged, f"{name} diverged"
        entry = corpus.get(name)
        hyp = result.hypothesis
        for w in enumerate_word_orbits(entry.automaton.alphabet, depth):
            assert accepts(hyp.automaton, w) == entry.predicate(w), (
                name,
                w.render(),
            )
        if name in PINNED_ORBITS:
            assert hyp.state_orbit_count() == PINNED_ORBITS[name], name
        assert hyp.state_orbit_count() == entry.canonical_orbits, name


def test_criterion_3_learning_divergence(divergence_runs):
    """No residual automaton exists for Ln or Lng: with a budget of 20
    equivalence queries and l <= 5 the learner reports divergence."""
    for name, result in divergence_runs.items():
        assert result.diverged, f"{name} unexpectedly converged"
        assert result.stats.equivalence_queries <= 20
        assert result.stats.final_l <= 5


def test_criterion_4_query_bound(learning_runs):
    """Equivalence queries stay within l + |Sigma^<=l|^2 * p(d*l)."""
    for name, depth, _ in SUCCESS_TARGETS:
        result, _ = learning_runs[name]
        entry = corpus.get(name)
        alphabet = entry.automaton.alphabet
        l = result.stats.final_l
        sigma_leq_l = len(enumerate_word_orbits(alphabet, l))
        bound = l + sigma_leq_l**2 * count_partial_permutations(
            alphabet.dimension * l
        )
        assert result.stats.equivalence_queries <= bound, name


def test_criterion_5_hypothesis_table_agreement(learning_runs, divergence_runs):
    """Every hypothesis built in every run reproduced its table."""
    for name, (result, _) in learning_runs.items():
        assert result.stats.agreement_violations == 0, name
    for name, result in divergence_runs.items():
        assert result.stats.agreement_violations == 0, name


def test_criterion_6_universality():
    """Universality verdicts, with reasons, corroborated both ways."""
    # yes-instances agree with bounded brute-force universality
    alph1 = AlphabetSpec([("a", 1)])
    alph2 = AlphabetSpec([("a", 1), ("anc", 1)])
    for aut in (universal_automaton(alph1), universal_automaton(alph2)):
        verdict = is_universal_residual(aut)
        assert verdict.universal
        assert bounded_universal(aut, 4)

    # no-instances on residual automata come with a rejected word <= 6
    def rejected_word(aut, depth=6):
        for w in enumerate_word_orbits(aut.alphabet, depth):
            if not accepts(aut, w):
                return w
        return None

    for name in ("Ld", "Lngr"):
        entry = corpus.get(name)
        assert entry.residual
        verdict = is_universal_residual(entry.automaton)
        assert not verdict.universal
        assert verdict.reason == "non-final-state"
        assert rejected_word(entry.automaton) is not None

    eps_only = parse("alphabet a 1\nstate q 0\ninitial q\nfinal q\n")
    verdict = is_universal_residual(eps_only)
    assert verdict.reason == "missing-transition"
    assert rejected_word(eps_only) is not None

    empty = parse("alphabet a 1\n")
    verdict = is_universal_residual(empty)
    assert verdict.reason == "empty-initial"
    assert rejected_word(empty) is not None


def test_criterion_7_lattice_oracle_equivalence():
    """200 random finite families: join-irreducibility and generation
    match the exhaustive finite-universe oracle; the generation laws
    hold.  Zero violations."""
    rng = random.Random(413)
    cs = lattice_columns()
    cols = concrete_columns(cs, LATTICE_UNIVERSE)

    def concrete(row):
        return concretize_row(row, cols, LATTICE_UNIVERSE)[0]

    for trial in range(200):
        family = random_family(rng, cs, rng.randint(1, 4))
        closure = concretize_family(family, cols, LATTICE_UNIVERSE)

        # operations versus the brute-force oracle
        for r in family:
            assert is_join_irreducible(r, family) == brute_join_irreducible(
                concrete(r), closure
            )
        target = random_row(rng, cs)
        assert is_generated_by(target, family) == brute_generated(
            concrete(target), closure
        )

        ji_reps = [x for x in family if is_join_irreducible(x, family)]

        # every family element is the join of the irreducibles below it
        for a in family:
            joined = join_below(a, ji_reps, strict=False)
            assert row_eq(joined, a)

        # an orbit-finite generating subfamily contains every irreducible
        subfamily = [x for x in family if rng.random() < 0.7] or family
        if all(is_generated_by(x, subfamily) for x in family):
            for x in ji_reps:
                assert in_family_orbit(x, subfamily)

        # irreducibles are absolute: JI(Y) = JI(X) when X sits inside <JI(Y)>
        ji_sub = [x for x in subfamily if is_join_irreducible(x, subfamily)]
        if all(is_generated_by(x, ji_sub) for x in family):
            ji_full = [x for x in family if is_join_irreducible(x, family)]
            for x in ji_sub:
                assert in_family_orbit(x, ji_full)
            for x in ji_full:
                assert in_family_orbit(x, ji_sub)


def test_criterion_8_anchoring():
    """Construction of anchored twins on 10 random automata: original
    language preserved / everything accepted on the original alphabet,
    and every state has a verified anchor word."""
    rng = random.Random(77)
    for trial in range(10):
        aut = random_automaton(rng)
        anc = anchor(aut)
        top = anchor_top(aut)
        for w in enumerate_word_orbits(aut.alphabet, 3):
            assert accepts(anc, w) == accepts(aut, w), (trial, w.render())
            assert accepts(top, w), (trial, w.render())

        for variant in (anc, top):
            for q in aut.states:
                dim = q.dimension
                atoms = tuple(range(dim))
                markers = tuple(-1 - i for i in range(dim))
                # the anchor letter pins the anchor state...
                anchor_word = Word([Letter("uq_" + q.name, atoms)])
                assert run_frontier(variant, anchor_word) == frozenset(
                    {("uq_" + q.name, markers)}
                )
                # ...and the release letter pins the real state
                release_word = Word([Letter("q_" + q.name, atoms)])
                assert run_frontier(variant, release_word) == frozenset(
                    {(q.name, markers)}
                )
        # the top state is anchored by any original letter
        tag, arity = aut.alphabet.constructors[0]
        probe = Word([Letter(tag, tuple(range(arity)))])
        assert run_frontier(top, probe) == frozenset({("top", ())})


def test_criterion_9_combinatorial_tables():
    """Partial-permutation counts and cumulative word-orbit counts."""
    assert [count_partial_permutations(k) for k in range(5)] == [1, 2, 7, 34, 209]
    alphabet = AlphabetSpec([("a", 1)])
    bell = [1, 1, 2, 5, 15, 52]
    for l in range(6):
        assert len(enumerate_word_orbits(alphabet, l)) == sum(bell[: l + 1])
