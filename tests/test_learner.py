import pytest

from nomres.orbits import (
    AlphabetSpec,
    EMPTY_WORD,
    canonicalize,
    enumerate_word_orbits,
    parse_word,
)
from nomres.automaton import accepts
from nomres.learner import (
    LearnBudget,
    ObservationTable,
    TableNotClosed,
    TableNotConsistent,
    hypothesis_agreement_violations,
    learn,
)
from nomres.teacher import MembershipOracle, for_corpus, for_language
from nomres import corpus

A1 = AlphabetSpec([("a", 1)])


def oracle_for(name):
    entry = corpus.get(name)
    return MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate, name=name)


def table_for(name, length=0, columns=(), fill=True):
    entry = corpus.get(name)
    t = ObservationTable(entry.automaton.alphabet, oracle=oracle_for(name))
    for c in columns:
        t.columns.add(parse_word(c))
    t.length = length
    if fill:
        t.fill()
    return t


class TestFill:
    def test_initial_table_queries(self):
        t = table_for("Ld")
        # S u S.Sigma = {eps, a(0)}, E = {eps}: one orbit each
        assert t.answers == {
            EMPTY_WORD: False,
            parse_word("a(0)"): False,
        }
        assert t.oracle.query_count == 2

    def test_star_language(self):
        alph = A1
        t = ObservationTable(alph, oracle=MembershipOracle(alph, predicate=lambda w: True))
        t.fill()
        assert t.row(EMPTY_WORD).value(EMPTY_WORD)

    def test_refill_issues_no_new_queries(self):
        t = table_for("Ld")
        before = t.oracle.query_count
        t.fill()
        assert t.oracle.query_count == before

    def test_entry_lookup_for_concrete_pairs(self):
        t = table_for("Ld", length=1, columns=["a(0)"])
        assert t.entry(parse_word("a(7)"), parse_word("a(7)"))
        assert not t.entry(parse_word("a(7)"), parse_word("a(8)"))


class TestClosedness:
    def test_trivial_ld_table_has_no_defect(self):
        # with only the eps column, both rows are empty: the empty row is
        # not join-irreducible, so nothing demands closing yet
        t = table_for("Ld")
        assert t.find_closedness_defect() is None

    def test_defect_appears_once_columns_grow(self):
        t = table_for("Ld", columns=["a(0) a(0)"])
        assert t.find_closedness_defect() == parse_word("a(0)")

    def test_close_step_grows_length_and_is_idempotent(self):
        t = table_for("Ld", columns=["a(0) a(0)"])
        defect = t.find_closedness_defect()
        t.close_step(defect)
        assert t.length == 1
        t.close_step(defect)
        assert t.length == 1

    @pytest.mark.parametrize("name", ["Ld", "Lngr", "Compress"])
    def test_closed_at_characterising_length(self, name):
        # all characterising words for the target sit in S: join-closed
        t = table_for(name, length=corpus.get(name).char_length,
                      columns=["a(0) a(0)"])
        assert t.find_closedness_defect() is None

    def test_defect_is_minimal_in_enumeration_order(self):
        t = table_for("Lngr", columns=["a(0) a(0)"])
        d = t.find_closedness_defect()
        assert d is not None and len(d) == 1


class TestConsistency:
    def test_star_language_consistent(self):
        alph = A1
        t = ObservationTable(alph, oracle=MembershipOracle(alph, predicate=lambda w: True))
        t.length = 1
        t.fill()
        assert t.find_consistency_defect() is None

    def test_incomparable_rows_are_trivially_consistent(self):
        t = table_for("Ld", length=2, columns=["a(0) a(0)"])
        assert t.find_consistency_defect() is None

    def test_known_inconsistent_fixture(self):
        # join-closed yet join-inconsistent: reading the guessed atom
        # separates rows that the current columns cannot tell apart
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        assert t.find_closedness_defect() is None
        defect = t.find_consistency_defect()
        assert defect is not None
        s1, s2, letter, e = defect
        assert t.entry(s1 + letter, e) and not t.entry(s2 + letter, e)
        # the pair itself is ordered
        assert t._label_leq(s1, s2)

    def test_consistency_step_extends_columns_and_refines(self):
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        defect = t.find_consistency_defect()
        _, _, letter, e = defect
        before = t.consistency_preorder()
        n_before = len(t.columns)
        t.consistency_step(defect)
        assert len(t.columns) > n_before
        assert canonicalize(parse_word(letter.render()) + e) in t.columns
        after = t.consistency_preorder()
        # the preorder strictly refines, which is what bounds the loop
        assert after < before

    def test_columns_never_shrink(self):
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        cols = set(t.columns)
        t.consistency_step(t.find_consistency_defect())
        assert cols <= set(t.columns)


class TestCounterexamples:
    def test_epsilon_is_noop(self):
        t = table_for("Ld")
        n = len(t.columns)
        t.handle_counterexample(EMPTY_WORD)
        assert len(t.columns) == n

    def test_suffix_orbits_added(self):
        t = table_for("Ld")
        t.handle_counterexample(parse_word("a(1) a(2)"))
        assert parse_word("a(0) a(1)") in t.columns
        assert parse_word("a(0)") in t.columns

    def test_repeat_is_noop(self):
        t = table_for("Ld")
        t.handle_counterexample(parse_word("a(1) a(2)"))
        version = t.columns.version
        t.handle_counterexample(parse_word("a(3) a(4)"))
        assert t.columns.version == version


class TestBuildHypothesis:
    def test_star_language_hypothesis(self):
        alph = A1
        t = ObservationTable(alph, oracle=MembershipOracle(alph, predicate=lambda w: True))
        t.fill()
        hyp = t.build_hypothesis()
        aut = hyp.automaton
        assert len(aut.states) == 1
        assert aut.states[0].dimension == 0
        assert aut.initial and aut.final
        for w in enumerate_word_orbits(alph, 3):
            assert accepts(aut, w)

    def test_rejects_unclosed_table(self):
        t = table_for("Ld", columns=["a(0) a(0)"])
        with pytest.raises(TableNotClosed):
            t.build_hypothesis()

    def test_rejects_inconsistent_table(self):
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        with pytest.raises(TableNotConsistent):
            t.build_hypothesis()

    def test_ld_final_table_hypothesis(self):
        t = table_for("Ld", length=2, columns=["a(0) a(0)"])
        hyp = t.build_hypothesis()
        assert hyp.state_orbit_count() == 3
        entry = corpus.get("Ld")
        for w in enumerate_word_orbits(A1, 6):
            assert accepts(hyp.automaton, w) == entry.predicate(w)

    def test_agreement_with_table(self):
        t = table_for("Ld", length=2, columns=["a(0) a(0)"])
        hyp = t.build_hypothesis()
        assert hypothesis_agreement_violations(t, hyp) == []

    def test_provenance_covers_states(self):
        t = table_for("Ld", length=2, columns=["a(0) a(0)"])
        hyp = t.build_hypothesis()
        assert set(hyp.provenance) == {q.name for q in hyp.automaton.states}


class TestTableEquivariance:
    def test_renamed_oracle_fills_identically(self):
        """The filling function is equivariant: a target composed with a
        renaming produces byte-identical canonical answers."""
        entry = corpus.get("Lngr")
        perm = {0: 5, 1: 6, 2: 7, 5: 0, 6: 1, 7: 2}
        plain = ObservationTable(
            A1, oracle=MembershipOracle(A1, predicate=entry.predicate)
        )
        renamed = ObservationTable(
            A1,
            oracle=MembershipOracle(
                A1, predicate=lambda w: entry.predicate(w.rename(perm))
            ),
        )
        for t in (plain, renamed):
            t.columns.add(parse_word("a(0) a(1)"))
            t.length = 2
            t.fill()
        assert plain.answers == renamed.answers


class TestLearnLoop:
    def test_star_language_in_one_query(self):
        alph = A1
        teacher = for_language(alph, predicate=lambda w: True, eq_depth=3)
        result = learn(teacher, LearnBudget(max_equivalence=5, max_length=3))
        assert not result.diverged
        assert result.stats.equivalence_queries == 1

    def test_ld_learned_exactly(self):
        teacher = for_corpus("Ld", eq_depth=6)
        result = learn(teacher, LearnBudget(max_equivalence=20, max_length=4))
        assert not result.diverged
        assert result.hypothesis.state_orbit_count() == 3
        assert result.stats.agreement_violations == 0
        entry = corpus.get("Ld")
        for w in enumerate_word_orbits(A1, 6):
            assert accepts(result.hypothesis.automaton, w) == entry.predicate(w)

    def test_final_length_is_characterising_length(self):
        for name in ("Ld", "Lngr", "Compress"):
            teacher = for_corpus(name, eq_depth=6)
            result = learn(teacher, LearnBudget(max_equivalence=20, max_length=4))
            assert result.stats.final_l == corpus.get(name).char_length

    def test_divergence_on_ln(self):
        teacher = for_corpus("Ln", eq_depth=5)
        result = learn(teacher, LearnBudget(max_equivalence=10, max_length=3))
        assert result.diverged
        assert result.hypothesis is None
        assert result.stats.diverged

    def test_wall_time_budget(self):
        teacher = for_corpus("Lng", eq_depth=5)
        result = learn(
            teacher, LearnBudget(max_equivalence=50, max_length=8, wall_time=0.5)
        )
        assert result.diverged

    def test_stats_shape(self):
        teacher = for_corpus("Compress", eq_depth=5)
        result = learn(teacher, LearnBudget(max_equivalence=10, max_length=4))
        d = result.stats.to_dict()
        assert set(d) >= {
            "membership_queries",
            "equivalence_queries",
            "closedness_rounds",
            "consistency_rounds",
            "final_l",
            "diverged",
        }
