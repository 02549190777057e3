import pytest
from hypothesis import given, settings, strategies as st

from nomres.orbits import (
    Letter,
    Word,
    enumerate_word_orbits,
    parse_word,
    word_orbit_tree,
)
from nomres.automaton import accepts, accepts_each, universal_automaton, parse
from nomres.teacher import (
    EquivalenceOracle,
    MembershipOracle,
    for_corpus,
    for_language,
)
from nomres import automaton, corpus


def perms(max_atom=5):
    return st.permutations(list(range(max_atom))).map(
        lambda img: dict(zip(range(len(img)), img))
    )


def words(max_len=4, max_atom=3):
    letter = st.builds(Letter, st.just("a"), st.tuples(st.integers(0, max_atom)))
    return st.lists(letter, max_size=max_len).map(Word)


class TestMembership:
    def test_requires_exactly_one_backing(self):
        alph = corpus.get("Ld").automaton.alphabet
        with pytest.raises(ValueError):
            MembershipOracle(alph)
        with pytest.raises(ValueError):
            MembershipOracle(
                alph, predicate=lambda w: True, automaton=corpus.get("Ld").automaton
            )

    def test_counts_queries(self):
        entry = corpus.get("Lngr")
        o = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        assert o.member(parse_word("a(1) a(2) a(1)"))
        assert not o.member(parse_word("a(1) a(2) a(3)"))
        assert o.query_count == 2
        o.evaluate(parse_word("eps"))
        assert o.query_count == 2  # internal evaluation is uncounted

    def test_automaton_backed_anchored_guess(self):
        # the anchored guess must match a final plain letter with the
        # same atom: Anc(a) a is accepted, Anc(b) a is not
        lr = corpus.get("Lr").automaton
        o = MembershipOracle(lr.alphabet, automaton=lr)
        assert o.member(parse_word("anc(1) a(1)"))
        assert not o.member(parse_word("anc(2) a(1)"))

    @settings(max_examples=40)
    @given(words(), perms())
    def test_equivariance(self, w, p):
        entry = corpus.get("Ld")
        o = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        assert o.member(w) == o.member(w.rename(p))

    @pytest.mark.parametrize("name", ["Ld", "Lngr", "Ln", "Lng", "Compress", "Lr"])
    def test_both_backings_agree(self, name):
        entry = corpus.get(name)
        by_pred = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        by_aut = MembershipOracle(entry.automaton.alphabet, automaton=entry.automaton)
        for w in enumerate_word_orbits(entry.automaton.alphabet, 4):
            assert by_pred.member(w) == by_aut.member(w)


class TestEquivalence:
    def test_target_against_itself(self):
        entry = corpus.get("Ld")
        o = MembershipOracle(entry.automaton.alphabet, automaton=entry.automaton)
        eq = EquivalenceOracle(o, depth=4)
        assert eq.equivalent(entry.automaton) is None
        assert eq.query_count == 1

    def test_empty_hypothesis_against_everything(self):
        alph = corpus.get("Ld").automaton.alphabet
        target = MembershipOracle(alph, predicate=lambda w: True)
        empty = parse("alphabet a 1\nstate q 0\n")
        assert EquivalenceOracle(target, 2).equivalent(empty) == parse_word("eps")

    def test_all_accepting_against_ld(self):
        entry = corpus.get("Ld")
        target = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        hyp = universal_automaton(entry.automaton.alphabet)
        # the all-accepting hypothesis already disagrees on the empty word
        assert EquivalenceOracle(target, 3).equivalent(hyp) == parse_word("eps")

    def test_counterexample_is_shortest(self):
        entry = corpus.get("Ld")
        target = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        empty = parse("alphabet a 1\nstate q 0\n")
        cex = EquivalenceOracle(target, 4).equivalent(empty)
        assert cex == parse_word("a(0) a(0)")
        # everything strictly shorter agrees
        for w in enumerate_word_orbits(entry.automaton.alphabet, len(cex) - 1):
            assert entry.predicate(w) == accepts(empty, w)

    def test_bounded_yes_is_bounded(self):
        # Ld and "first equals last, length exactly 2" agree up to depth 2
        entry = corpus.get("Ld")
        target = MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate)
        pair_only = parse(
            """
            alphabet a 1
            state q0 0
            state q1 1
            state q2 1
            initial q0
            final q2
            trans q0 a(x) q1(x)
            trans q1(x) a(x) q2(x)
            """
        )
        assert EquivalenceOracle(target, 2).equivalent(pair_only) is None
        assert EquivalenceOracle(target, 3).equivalent(pair_only) is not None


CORPUS_NAMES = ["Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3"]


class TestEquivalenceWalk:
    """The prefix-sharing oracle returns the word a plain scan returns:
    every corpus automaton as hypothesis against every corpus language
    over the same alphabet, with predicate- and automaton-backed
    targets."""

    @staticmethod
    def plain_scan(target, hyp, depth):
        for w in enumerate_word_orbits(target.alphabet, depth):
            if target.evaluate(w) != accepts(hyp, w):
                return w
        return None

    @pytest.mark.parametrize("backing", ["predicate", "automaton"])
    @pytest.mark.parametrize("target_name", CORPUS_NAMES)
    def test_same_counterexample_as_plain_scan(self, target_name, backing):
        entry = corpus.get(target_name)
        alphabet = entry.automaton.alphabet
        if backing == "predicate":
            target = MembershipOracle(alphabet, predicate=entry.predicate)
        else:
            target = MembershipOracle(alphabet, automaton=entry.automaton)
        for name in CORPUS_NAMES:
            hyp = corpus.get(name).automaton
            if hyp.alphabet != alphabet:
                continue
            got = EquivalenceOracle(target, 4).equivalent(hyp)
            assert got == self.plain_scan(target, hyp, 4), (name, target_name)


    def test_stops_at_the_first_disagreement(self, monkeypatch):
        """The walks are generators, so the query stops at its
        counterexample: a hypothesis wrong at length 1 makes fewer steps
        than its full walk to the oracle's depth."""
        entry = corpus.get("Ld")
        hyp = entry.automaton
        target = MembershipOracle(
            hyp.alphabet, predicate=lambda w: len(w) == 1 or entry.predicate(w)
        )
        steps = []
        step = automaton._step

        def spy(aut, *args):
            if aut is hyp:
                steps.append(args)
            return step(aut, *args)

        monkeypatch.setattr(automaton, "_step", spy)
        list(accepts_each(hyp, *word_orbit_tree(hyp.alphabet, 5)))
        full = len(steps)
        steps.clear()
        assert EquivalenceOracle(target, 5).equivalent(hyp) == parse_word("a(0)")
        assert len(steps) < full


class TestTeacherFactories:
    def test_for_corpus_default_depth(self):
        teacher = for_corpus("Ld")
        assert teacher.equivalence.depth == 5  # twice the known length, plus one

    def test_for_corpus_requires_depth_for_non_residual(self):
        with pytest.raises(ValueError):
            for_corpus("Ln")
        teacher = for_corpus("Ln", eq_depth=4)
        assert teacher.equivalence.depth == 4

    def test_for_language_with_automaton(self):
        entry = corpus.get("Ld")
        teacher = for_language(
            entry.automaton.alphabet, automaton=entry.automaton, eq_depth=3
        )
        assert teacher.membership.member(parse_word("a(1) a(1)"))
