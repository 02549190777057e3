import hashlib
import random
import time
import weakref
from types import SimpleNamespace

import pytest

from nomres.orbits import (
    AlphabetSpec,
    EMPTY_WORD,
    Letter,
    Word,
    canonicalize,
    enumerate_word_orbits,
    fresh_atom,
    letter_patterns,
    parse_word,
    partial_injections,
    split_into_a_orbits,
    word_orbit_tree,
)
from nomres import automaton, learner, rows
from nomres.automaton import accepts, accepts_each
from nomres.learner import (
    LearnBudget,
    ObservationTable,
    OutOfTime,
    TableNotClosed,
    TableNotConsistent,
    hypothesis_agreement_violations,
    learn,
)
from nomres.rows import _realize, first_difference, landing, placed_leq, row_leq
from nomres.teacher import MembershipOracle, for_corpus, for_language
from nomres import corpus

from conftest import SUCCESS_TARGETS, admits, listed_below, renamed

A1 = AlphabetSpec([("a", 1)])


def oracle_for(name):
    entry = corpus.get(name)
    return MembershipOracle(entry.automaton.alphabet, predicate=entry.predicate, name=name)


def _answer(t, w, e):
    """The stored membership answer for a concrete label and column."""
    return t.answers[canonicalize(w + e)]


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
        assert _answer(t, parse_word("a(7)"), parse_word("a(7)"))
        assert not _answer(t, parse_word("a(7)"), parse_word("a(8)"))


def rows_of(table):
    return {l: (table.row(l).support, table.row(l).bits) for l in table.all_labels()}


class TestFillDeadline:
    """A fill past its deadline raises `OutOfTime` and commits no rows;
    the deadline is already over when the fill starts, so no timing is
    involved."""

    def test_fill_past_deadline_leaves_table_unfilled(self):
        t = table_for("Ld", length=2, columns=["a(0)"], fill=False)
        t.deadline = time.monotonic() - 1
        with pytest.raises(OutOfTime):
            t.fill()
        with pytest.raises(RuntimeError, match="not filled"):
            t.row(EMPTY_WORD)
        t.deadline = None
        t.fill()
        assert rows_of(t) == rows_of(table_for("Ld", length=2, columns=["a(0)"]))

    @pytest.mark.parametrize(
        "step, grown",
        [
            (lambda t: t.close_step(parse_word("a(0) a(1)")),
             dict(length=2)),
            (lambda t: t.consistency_step(
                (EMPTY_WORD, EMPTY_WORD, parse_word("a(0)")[0], EMPTY_WORD)),
             dict(columns=["a(0)"])),
            (lambda t: t.handle_counterexample(parse_word("a(0) a(1)")),
             dict(columns=["a(0) a(1)"])),
        ],
        ids=["close_step", "consistency_step", "handle_counterexample"],
    )
    def test_steps_pass_their_deadline_to_fill(self, step, grown):
        t = table_for("Ld")
        t.deadline = time.monotonic() - 1
        with pytest.raises(OutOfTime):
            step(t)
        with pytest.raises(RuntimeError, match="not filled"):
            t.row(EMPTY_WORD)
        t.deadline = None
        t.fill()
        assert rows_of(t) == rows_of(table_for("Ld", **grown))


class TestSearchDeadline:
    """Both searches of a filled table raise `OutOfTime` once the table's
    deadline is over.  Each search first runs without a deadline, so its
    join-irreducibility verdicts are cached and only the searches' own
    checks are left to stop them."""

    @pytest.mark.parametrize(
        "name,length,columns", [("Ld", 0, []), ("Ln", 4, ["a(0) a(0)"])]
    )
    def test_searches_past_deadline_raise(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        t.find_closedness_defect()
        t.find_consistency_defect()
        t.deadline = time.monotonic() - 1
        with pytest.raises(OutOfTime):
            t.find_closedness_defect()
        with pytest.raises(OutOfTime):
            t.find_consistency_defect()


class TestOrderedPairsDeadline:
    """`_ordered_pairs` checks the deadline before each label pair, and
    its search `rows.placed_below` before each placement of the pair that
    the atom tables admit, which it decides afresh.  A fake clock passes
    the deadline as soon as the first placement is decided (or, for a
    pair the tables reject outright, as soon as its tables are built),
    so each test stops at the one check it is about and would run on
    without it."""

    @staticmethod
    def walk_past_deadline(t, labels, monkeypatch, tick_on_rejection=False):
        """The placements decided, the tables built and the pairs yielded,
        each as (s1, s2 renamed by its placement), before `OutOfTime`."""
        for label in labels:
            # reducing a row decides placements of its own; do it first
            t.row(label).reduced()
        now = [0.0]
        monkeypatch.setattr(rows, "time", SimpleNamespace(monotonic=lambda: now[0]))
        decided, built = [], []
        placed_leq, atom_tables = rows.placed_leq, rows._atom_tables

        def spy_placed_leq(r1, r2, pattern):
            decided.append(pattern)
            if not tick_on_rejection:
                now[0] = 2.0
            return placed_leq(r1, r2, pattern)

        def spy_atom_tables(r1, r2):
            built.append(atom_tables(r1, r2))
            if tick_on_rejection and built[-1] is None:
                now[0] = 2.0
            return built[-1]

        monkeypatch.setattr(rows, "placed_leq", spy_placed_leq)
        monkeypatch.setattr(rows, "_atom_tables", spy_atom_tables)
        t.deadline = 1.0
        yielded = []
        with pytest.raises(OutOfTime):
            for s1, s2, placement in t._ordered_pairs(labels):
                yielded.append((s1, s2.rename(placement)))
        return decided, built, yielded

    def test_stops_before_the_next_landing_of_the_same_pair(self, monkeypatch):
        # row(a(0) a(1)) has support {0} and misses its column a(0) a(0):
        # of the seven placements of the pair (a(0) a(1), a(0) a(1)), the
        # tables admit the two that land atom 0 on atom 0
        t = table_for("Ld", length=2, columns=["a(0) a(0)"])
        label = parse_word("a(0) a(1)")
        r = t.row(label).reduced()
        tables = rows._atom_tables(r, r)
        placements = list(partial_injections(range(2), range(2)))
        admitted = [
            inj for inj in placements
            if admits(tables, landing([inj.get(b) for b in r.support], r.support))
        ]
        assert (len(placements), len(admitted)) == (7, 2)
        decided, _, _ = self.walk_past_deadline(t, [label], monkeypatch)
        assert len(decided) == 1

    def test_stops_before_the_next_pair(self, monkeypatch):
        # row(eps) has the empty support, so the pair (eps, eps) has one
        # placement and the next check is the one before the next pair
        t = table_for("Ld")
        labels = [EMPTY_WORD, parse_word("a(0)")]
        assert {
            (t.row(l).reduced().support, t.row(l).reduced().bits) for l in labels
        } == {((), 0)}
        decided, _, yielded = self.walk_past_deadline(t, labels, monkeypatch)
        assert len(decided) == 1
        assert yielded == [(EMPTY_WORD, EMPTY_WORD)]

    def test_stops_after_a_rejected_pair_before_the_next_pair(self, monkeypatch):
        # a(0) a(0) is in Ld and eps is not, so the tables reject the pair
        # (a(0) a(0), eps) on the eps column without deciding a placement
        t = table_for("Ld", length=1, columns=["a(0)"])
        labels = [parse_word("a(0) a(0)"), EMPTY_WORD]
        decided, built, yielded = self.walk_past_deadline(
            t, labels, monkeypatch, tick_on_rejection=True
        )
        assert len(built) == 2 and built[0] is not None and built[1] is None
        assert len(decided) == 1
        assert yielded == [(labels[0], labels[0])]


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


def _anc_pair_table(length):
    """A filled table of the words that end in two anc letters on one
    atom, over a and anc."""
    alphabet = AlphabetSpec([("a", 1), ("anc", 1)])
    oracle = MembershipOracle(alphabet, predicate=lambda w: (
        len(w) >= 2 and w[-2].tag == w[-1].tag == "anc" and w[-2].atoms == w[-1].atoms
    ))
    t = ObservationTable(alphabet, oracle=oracle)
    t.length = length
    return t.fill()


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
        assert _answer(t, s1 + letter, e) and not _answer(t, s2 + letter, e)
        # the pair itself is ordered
        assert row_leq(t.row_of(s1), t.row_of(s2))

    def test_consistency_step_extends_columns_and_refines(self):
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        defect = t.find_consistency_defect()
        _, _, letter, e = defect
        before = _reference_preorder(t)
        n_before = len(t.columns)
        t.consistency_step(defect)
        assert len(t.columns) > n_before
        assert canonicalize(parse_word(letter.render()) + e) in t.columns
        after = _reference_preorder(t)
        # the preorder strictly refines, which is what bounds the loop
        assert after < before

    def test_columns_never_shrink(self):
        t = table_for("Ak:2", length=2, columns=["a(0) a(0)"])
        cols = set(t.columns)
        t.consistency_step(t.find_consistency_defect())
        assert cols <= set(t.columns)

    # Ln's table has no defect; the others have one, so some of their
    # placements fail.  On the corpus tables no placement fails on an anc
    # letter alone; on the last one only anc(0) tells a(0) from anc(0)
    @pytest.mark.parametrize(
        "make,defect",
        [(lambda: table_for("Ln", 5, ["a(0) a(0)"]), False),
         (lambda: table_for("Lng", 4, ["a(0) a(0) a(0) a(1)"]), True),
         (lambda: table_for("Ak:2", 2, ["a(0) a(0)"]), True),
         (lambda: table_for("Ak:3", 3), True),
         (lambda: _anc_pair_table(1), True)],
        ids=["Ln", "Lng", "Ak:2", "Ak:3", "anc-pair"],
    )
    def test_extension_rows_decide_like_letters(self, make, defect):
        # the one X-row comparison per placement against the letter loop,
        # on every placement the search visits
        t = make()
        first = {}
        for s in t.s_labels():
            first.setdefault(t._extension_class(s), s)
        verdicts = []
        for s1, s2, placement in t._ordered_pairs(first.values()):
            by_letters = _verdict(t, s1, s2.rename(placement)) == -1
            assert t._extensions_below(s1, s2, placement) == by_letters, (
                s1.render(), s2.render(), placement
            )
            verdicts.append(by_letters)
        assert True in verdicts
        assert (False in verdicts) == defect == (t.find_consistency_defect() is not None)

    @pytest.mark.parametrize(
        "name,length,columns",
        [("Ln", 4, ["a(0) a(0)"]), ("Ak:2", 2, ["a(0) a(0)"]),
         ("Lng", 4, ["a(0) a(0) a(0) a(1)"])],
        ids=["Ln", "Ak:2", "Lng"],
    )
    def test_extension_rows_ask_no_query(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        asked = dict(t.answers)

        def refuse(w):
            raise AssertionError(f"membership query {w.render()}")

        t.oracle = SimpleNamespace(member=refuse)
        t.find_consistency_defect()
        assert t.answers == asked

    def test_learn_searches_each_table_once(self, monkeypatch):
        # a search that found no defect is not repeated on the same
        # (length, column version), e.g. after a closedness check that
        # found nothing
        searched = []
        search = ObservationTable.find_consistency_defect

        def spy(self):
            searched.append((self.length, self.columns.version))
            return search(self)

        monkeypatch.setattr(ObservationTable, "find_consistency_defect", spy)
        for name, depth, max_l in SUCCESS_TARGETS:
            searched.clear()
            teacher = for_corpus(name, eq_depth=depth)
            result = learn(teacher, LearnBudget(max_equivalence=40, max_length=max_l))
            assert not result.diverged, name
            assert searched and len(set(searched)) == len(searched), (name, searched)


_ROWS = weakref.WeakKeyDictionary()  # table -> {(l, column version, word): row}


def _row_of(t, w):
    """``t.row_of(w)``, kept per table and table state: the reference
    searches below ask for one concrete row many times over."""
    rows = _ROWS.setdefault(t, {})
    key = (t.length, t.columns.version, w)
    if key not in rows:
        rows[key] = t.row_of(w)
    return rows[key]


def _reference_leq(t, w1, w2):
    """row(w1) <= row(w2) twice over, from concrete renamed rows: once
    through row_of + row_leq, once straight off the membership answers
    on every column instance over the atoms of both words."""
    by_rows = row_leq(_row_of(t, w1), _row_of(t, w2))
    joint = frozenset(w1.atoms()) | frozenset(w2.atoms())
    by_answers = all(
        not _answer(t, w1, e) or _answer(t, w2, e)
        for e in t.columns.instances(joint)
    )
    assert by_rows == by_answers, (w1.render(), w2.render())
    return by_rows


def _placed_pairs(t):
    """Every (s1, s2c) of S x S placements, in search order."""
    labels = t.s_labels()
    for s1 in labels:
        sup1 = sorted(frozenset(s1.atoms()))
        for s2 in labels:
            sup2 = sorted(frozenset(s2.atoms()))
            for inj in partial_injections(sup2, sup1):
                yield s1, s2.rename(_realize(inj, sup2, sup1))


def _reference_preorder(t):
    """The row preorder on placed S x S pairs, from the reference."""
    return frozenset(
        (s1, s2c) for s1, s2c in _placed_pairs(t) if _reference_leq(t, s1, s2c)
    )


def _letters(t, joint):
    for tag in sorted(t.alphabet.tags):
        for base in letter_patterns(tag, t.alphabet.arity(tag)):
            for inst in split_into_a_orbits(Word([base]), joint):
                yield inst[0]


class TestPatternComparison:
    """The consistency search compares least-support rows through
    placement patterns; a brute-force reference on concrete rows must
    agree with it everywhere it looks."""

    TABLES = [
        ("Ln", 3, ["a(0) a(0)"]),
        ("Lng", 3, ["a(0) a(0) a(0) a(1)"]),
        ("Ak:2", 2, ["a(0) a(0)"]),
    ]

    @pytest.mark.parametrize("name,length,columns", TABLES)
    def test_agrees_with_concrete_rows(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        ordered = set()
        reference_defect = None
        checked = 0
        for s1, s2c in _placed_pairs(t):
            if not _reference_leq(t, s1, s2c):
                continue
            ordered.add((s1, s2c))
            if s2c == s1:
                continue
            joint = frozenset(s1.atoms()) | frozenset(s2c.atoms())
            for letter in _letters(t, joint):
                w1, w2 = s1 + letter, s2c + letter
                expected = _reference_leq(t, w1, w2)
                checked += 1
                if not expected and reference_defect is None:
                    r1, r2 = t.row_of(w1), t.row_of(w2)
                    e = next(
                        e
                        for e in t.columns.instances(
                            r1.support_set | r2.support_set
                        )
                        if _answer(t, w1, e) and not _answer(t, w2, e)
                    )
                    reference_defect = (s1, s2c, letter, e)
        assert checked
        assert frozenset(
            (s1, s2.rename(placement))
            for s1, s2, placement in t._ordered_pairs(t.s_labels())
        ) == frozenset(ordered)
        # Ak:2's table has a defect (test_known_inconsistent_fixture)
        assert t.find_consistency_defect() == reference_defect

    @pytest.mark.parametrize("name,length,columns", TABLES)
    def test_row_of_renamed_labels(self, name, length, columns):
        """The row of every label of S u S.Sigma, renamed into a wider
        atom range, holds the answer of each of its cells, sits on its
        least support and is in the orbit of the label's stored row."""
        t = table_for(name, length=length, columns=columns)
        rng = random.Random(53)
        for label in t.all_labels():
            atoms = sorted(frozenset(label.atoms()))
            image = rng.sample(range(3 * len(atoms) + 5), len(atoms))
            w = label.rename(dict(zip(atoms, image)))
            r, sup = t.row_of(w), frozenset(image)
            for e in {*t.columns.instances(r.support_set), *t.columns.instances(sup)}:
                assert r.value(e) == _answer(t, w, e), (w.render(), e.render())
            # an atom is in the least support iff swapping it with a
            # fresh atom changes some answer
            fresh = fresh_atom(sup)
            wide = t.columns.instances(sup | {fresh})
            least = tuple(a for a in sorted(sup) if any(
                _answer(t, w, e) != _answer(t, w, e.rename({a: fresh, fresh: a}))
                for e in wide
            ))
            assert r.support == least, w.render()
            assert r.orbit_key() == t.row(label).orbit_key(), w.render()


def _reference_defect(t):
    """The first consistency defect of a plain label-by-label search:
    every placed pair, every letter, rows compared by row_leq."""
    for s1, s2c in _placed_pairs(t):
        if s2c == s1 or not row_leq(_row_of(t, s1), _row_of(t, s2c)):
            continue
        for letter in _letters(t, frozenset(s1.atoms()) | frozenset(s2c.atoms())):
            r1, r2 = _row_of(t, s1 + letter), _row_of(t, s2c + letter)
            if not row_leq(r1, r2):
                return (s1, s2c, letter, first_difference(r1, r2))
    return None


def _verdict(t, s1, s2c):
    """None when row(s1) is not below row(s2c); otherwise the index of
    the first letter telling the extensions apart, or -1 for none."""
    if not row_leq(_row_of(t, s1), _row_of(t, s2c)):
        return None
    joint = frozenset(s1.atoms()) | frozenset(s2c.atoms())
    for i, letter in enumerate(_letters(t, joint)):
        if not row_leq(_row_of(t, s1 + letter), _row_of(t, s2c + letter)):
            return i
    return -1


def _reference_ordered_pairs(t, labels):
    """`_ordered_pairs` as the full listing: every placement of every
    label pair is decided by `placed_leq`, in `partial_injections` order."""
    for s1 in labels:
        sup1 = sorted(frozenset(s1.atoms()))
        r1 = t.row(s1).reduced()
        for s2 in labels:
            sup2 = sorted(frozenset(s2.atoms()))
            r2 = t.row(s2).reduced()
            for inj in partial_injections(sup2, sup1):
                land = landing([inj.get(b) for b in r2.support], r1.support)
                if placed_leq(r1, r2, tuple(sorted((i, j) for j, i in land))):
                    yield s1, s2, _realize(inj, sup2, sup1)


class TestAtomTablesInSearches:
    """Placements the atom tables reject are exactly placements
    `placed_leq` would reject: the searches find what the full listing
    finds, in the same order."""

    TABLES = [
        ("Ln", 4, ["a(0) a(0)"]),
        ("Ak:2", 2, ["a(0) a(0)"]),
        ("Lng", 4, ["a(0) a(0) a(0) a(1)"]),
    ]

    @pytest.mark.parametrize("name,length,columns", TABLES, ids=["Ln", "Ak:2", "Lng"])
    def test_ordered_pairs_match_full_listing(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        labels = t.s_labels()
        found = list(t._ordered_pairs(labels))
        assert found and found == list(_reference_ordered_pairs(t, labels))

    # Ln's table at l = 4 has no join-irreducible upper row
    @pytest.mark.parametrize(
        "name,length,columns",
        [TABLES[1], TABLES[2], ("Ld", 2, ["a(0) a(0)"]), ("Lr", 2, ["a(0) a(1) a(0)"])],
        ids=["Ak:2", "Lng", "Ld", "Lr"],
    )
    def test_hypothesis_matches_full_listing(self, name, length, columns, monkeypatch):
        t = table_for(name, length=length, columns=columns)
        hyp = t.build_hypothesis(verify_preconditions=False).automaton
        assert hyp.transitions
        # the full listing, every placement decided by `placed_leq`
        monkeypatch.setattr(learner, "placed_below", listed_below)
        full = t.build_hypothesis(verify_preconditions=False).automaton
        assert automaton.render(full) == automaton.render(hyp)


class TestExtensionClasses:
    """The consistency search skips a label pair whose extension-class
    pair was already searched without a defect; that is sound only if
    labels of one class give the same verdict for every placement."""

    # (target, l, E) -> (labels, classes); Ak:3's labels fall into 7
    # classes by their rows alone, so its extension rows tell 22 apart.
    # Ln's table has no defect and Ak:3's is its very first pair; Lng's,
    # (a(0) a(1), a(1) a(1) a(0) a(0), a(0), a(0)), lies past the first
    # class pair, so only there does the skip decide what is found
    TABLES = {
        ("Ln", 4, ("a(0) a(0)",)): (24, 8),
        ("Ak:3", 3, ()): (51, 22),
        ("Lng", 4, ("a(0) a(0) a(0) a(1)",)): (24, 23),
    }

    @pytest.mark.parametrize("name,length,columns", list(TABLES))
    def test_class_equal_labels_agree(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        labels = t.s_labels()
        classes = {s: t._extension_class(s) for s in labels}
        assert (len(labels), len(set(classes.values()))) == self.TABLES[
            name, length, columns
        ]
        verdicts = {}
        for s1 in labels:
            sup1 = sorted(frozenset(s1.atoms()))
            for s2 in labels:
                sup2 = sorted(frozenset(s2.atoms()))
                for n, inj in enumerate(partial_injections(sup2, sup1)):
                    s2c = s2.rename(_realize(inj, sup2, sup1))
                    key = (classes[s1], classes[s2], n)
                    verdict = _verdict(t, s1, s2c)
                    assert verdicts.setdefault(key, verdict) == verdict, (
                        s1.render(), s2.render(), n
                    )

    @pytest.mark.parametrize("name,length,columns", list(TABLES))
    def test_search_equals_reference(self, name, length, columns):
        t = table_for(name, length=length, columns=columns)
        assert t.find_consistency_defect() == _reference_defect(t)


def _reindexed_extension_class(t, s):
    """The extension class of a label of S spelled out letter by letter,
    with its atoms re-indexed: its least-support row and, per letter in
    `_letters` order, the least-support extension row, their supports
    written as positions in the label's sorted atoms followed by the
    letter's fresh atoms.  The table's key, the bits of X(s), must
    split S the same way."""
    atoms = sorted(frozenset(s.atoms()))
    r = t.row(s).reduced()
    key = [len(atoms), r.bits, tuple(map(atoms.index, r.support))]
    for letter in t._letters(frozenset(atoms)):
        joint = dict.fromkeys((*atoms, *letter.atoms))
        at = {a: i for i, a in enumerate(joint)}
        base = t.row_of(s + letter)
        key.append((base.bits, tuple(at[a] for a in base.support)))
    return tuple(key)


class TestCanonicalCells:
    """Every cell word ``label + e`` is canonical as built, so the table
    asks one membership query per new cell word and keys on atoms
    without re-indexing them."""

    @pytest.mark.parametrize(
        "name, length, columns",
        [("Ln", 4, ["a(0) a(0)"]), ("Ak:2", 2, ["a(0) a(0)"]),
         ("Lng", 4, ["a(0) a(0) a(0) a(1)"]), ("Ak:3", 3, [])],
    )
    def test_extension_class_matches_reindexed_key(self, name, length, columns):
        # the key is X(s)'s bits, the reference spells the same subset
        # out letter by letter: both must split S into the same classes
        t = table_for(name, length=length, columns=columns)
        labels = t.s_labels()
        keys = [t._extension_class(s) for s in labels]
        reference = [_reindexed_extension_class(t, s) for s in labels]
        # one partition: each class of the one is a class of the other
        classes = len(set(zip(keys, reference)))
        assert classes == len(set(keys)) == len(set(reference)) < len(labels)

    @pytest.mark.parametrize(
        "name, eq_depth", [("Ak:2", 5), ("Lng", 6)], ids=["Ak:2", "Lng"]
    )
    def test_fill_asks_canonical_words_once(self, name, eq_depth, monkeypatch):
        teacher = for_corpus(name, eq_depth=eq_depth)
        asked = []
        member = teacher.membership.member

        def recording(w):
            asked.append(w)
            return member(w)

        monkeypatch.setattr(teacher.membership, "member", recording)
        tables = []
        fill = ObservationTable.fill

        def spy(self, oracle=None):
            tables.append(self)
            return fill(self, oracle)

        monkeypatch.setattr(ObservationTable, "fill", spy)
        before = teacher.membership.query_count
        result = learn(teacher, LearnBudget(max_equivalence=20, max_length=4))
        (table,) = set(tables)
        assert table.length <= 4
        assert asked and all(canonicalize(w) == w for w in asked)
        assert (
            result.stats.membership_queries
            == len(table.answers)
            == teacher.membership.query_count - before
            == len(asked)
        )


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


def _reference_agreement_violations(table, hyp):
    """hypothesis_agreement_violations, simulating each cell's word alone."""
    bad = []
    for s in table.s_labels():
        for pattern in table.columns:
            for e in split_into_a_orbits(pattern, frozenset(s.atoms())):
                key = canonicalize(s + e)
                if accepts(hyp.automaton, key) != table.answers[key]:
                    bad.append((s, e))
    return bad


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
        assert _reference_agreement_violations(t, hyp) == []

    @pytest.mark.parametrize(
        "name,small,large",
        [
            ("Ld", dict(), dict(length=2, columns=["a(0) a(0)"])),
            ("Ak:2", dict(length=1), dict(length=2, columns=["a(0) a(0)"])),
            ("Lr", dict(length=1, columns=["a(0)"]),
             dict(length=2, columns=["a(0) a(1) a(0)"])),
        ],
        ids=["Ld", "Ak:2", "Lr"],
    )
    def test_agreement_matches_word_by_word_reference(self, name, small, large):
        """A hypothesis of a shorter table disagrees with a larger table of
        the same target; the one orbit walk lists its violations as the
        word-by-word reference does, order included."""
        hyp = table_for(name, **small).build_hypothesis(verify_preconditions=False)
        t = table_for(name, **large)
        expected = _reference_agreement_violations(t, hyp)
        assert expected
        assert hypothesis_agreement_violations(t, hyp) == expected


    @pytest.mark.parametrize(
        "name,length,columns",
        [("Lng", 4, ["a(0) a(0) a(0) a(1)"]), ("Ak:2", 2, ["a(0) a(0)"]),
         ("Lr", 2, ["a(0) a(1) a(0)"])],
        ids=["Lng", "Ak:2", "Lr"],
    )
    def test_lines_place_their_target_below(self, name, length, columns):
        """Read back as atoms, every transition line places its
        destination state's row below the row of its source's owner
        extended by its letter, compared value by value; guessed atoms
        are fresh."""
        t = table_for(name, length=length, columns=columns)
        uppers = (t.row(s) for s in t.s_labels())
        states = [r.reduced() for r in rows.dedup_by_orbit(filter(t._is_ji, uppers))]
        hyp = t.build_hypothesis(verify_preconditions=False).automaton
        assert hyp.transitions
        for line in hyp.transitions:
            src, dst = states[int(line.src[1:])], states[int(line.dst[1:])]
            atoms = dict(zip(line.src_vars, src.support))
            fresh = fresh_atom(src.owner.atoms())
            for v in line.letter_vars + line.dst_vars:
                if v not in atoms:
                    atoms[v] = fresh + len(atoms)
            letter = Letter(line.letter_tag, tuple(atoms[v] for v in line.letter_vars))
            placed = renamed(dst, {a: atoms[v] for a, v in zip(dst.support, line.dst_vars)})
            target = t.row_of(src.owner + letter)
            assert not any(
                placed.value(e) and not target.value(e)
                for e in t.columns.instances(placed.support_set | target.support_set)
            ), line.render()

    @pytest.mark.parametrize(
        "name, depth, max_l",
        [("Ld", 6, 4), ("Lngr", 5, 4), ("Lr", 5, 4), ("Compress", 6, 4),
         ("Ak:1", 3, 3), ("Ak:2", 5, 4)],
    )
    def test_each_transition_line_once(self, name, depth, max_l, monkeypatch):
        """Every hypothesis of a learning run lists each transition line
        once: one letter per orbit that fixes a state's registers."""
        built = []
        build = ObservationTable.build_hypothesis

        def recording(t, *args, **kwargs):
            built.append(build(t, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ObservationTable, "build_hypothesis", recording)
        learn(for_corpus(name, eq_depth=depth),
              LearnBudget(max_equivalence=40, max_length=max_l))
        assert built
        for hyp in built:
            lines = automaton.render(hyp.automaton).splitlines()
            assert len(lines) == len(set(lines))


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

    def test_stats_count_one_run_of_a_reused_teacher(self):
        # the teacher's oracles count over their lifetime; each run's
        # stats count only the queries that run made
        teacher = for_corpus("Ld", eq_depth=6)
        budget = LearnBudget(max_equivalence=20, max_length=4)
        fingerprints = []
        for _ in range(2):
            st = learn(teacher, budget).stats
            fingerprints.append(
                (st.membership_queries, st.equivalence_queries, st.final_l)
            )
        assert fingerprints == [(39, 2, 2)] * 2
        assert teacher.membership.query_count == 78

    def test_final_length_is_characterising_length(self):
        for name in ("Ld", "Lngr", "Compress"):
            teacher = for_corpus(name, eq_depth=6)
            result = learn(teacher, LearnBudget(max_equivalence=20, max_length=4))
            assert result.stats.final_l == corpus.get(name).char_length

    def test_ak4_guessing_hypothesis(self):
        """Ak:4 learns the largest guessing hypothesis of the corpus
        targets, 124 lines over 2 state orbits (the corpus automaton has
        9), and it agrees with the language on every orbit to depth 6."""
        result = learn(for_corpus("Ak:4", eq_depth=5),
                       LearnBudget(max_equivalence=40, max_length=6))
        st = result.stats
        assert (st.membership_queries, st.equivalence_queries, st.final_l) == (
            30019, 1, 4
        )
        assert st.agreement_violations == 0
        aut = result.hypothesis.automaton
        assert (len(aut.states), len(aut.transitions)) == (2, 124)
        digest = hashlib.sha256(automaton.render(aut).encode()).hexdigest()
        assert digest.startswith("31f6d9aabbd5265d")
        words, parents = word_orbit_tree(aut.alphabet, 6)
        assert len(words) == 14947
        predicate = corpus.get("Ak:4").predicate
        walked = accepts_each(aut, words, parents)
        assert all(got == bool(predicate(w)) for w, got in zip(words, walked))

    def test_divergence_on_ln(self):
        teacher = for_corpus("Ln", eq_depth=5)
        result = learn(teacher, LearnBudget(max_equivalence=10, max_length=3))
        assert result.diverged
        assert result.hypothesis is None
        assert result.stats.divergence_reason == "length"

    def test_wall_time_budget(self):
        teacher = for_corpus("Lng", eq_depth=5)
        result = learn(
            teacher, LearnBudget(max_equivalence=50, max_length=8, wall_time=0.5)
        )
        assert result.diverged

    def test_wall_time_deadline_inside_searches(self):
        """learn() hands its deadline to the table, whose closedness
        search checks it per label and per family row of a
        join-irreducibility test, and whose consistency search checks it
        per pair of class representatives and per new landing, so a
        0.5 s budget on Lng ends within 0.75 s of it."""
        teacher = for_corpus("Lng", eq_depth=5)
        start = time.monotonic()
        result = learn(
            teacher, LearnBudget(max_equivalence=50, max_length=8, wall_time=0.5)
        )
        elapsed = time.monotonic() - start
        assert result.diverged
        assert result.stats.divergence_reason == "wall_time"
        assert elapsed < 0.5 + 0.75

    def test_initial_fill_honours_the_deadline(self):
        # a deadline already over when learn() starts: the first fill stops
        # before its first query and the run reports the wall-time budget
        teacher = for_corpus("Ld", eq_depth=6)
        log = []
        result = learn(
            teacher,
            LearnBudget(max_equivalence=20, max_length=4, wall_time=-1.0),
            log=log.append,
        )
        assert result.diverged
        assert result.stats.divergence_reason == "wall_time"
        assert result.stats.membership_queries == 0
        assert log == ["diverged"]

    @pytest.mark.parametrize("name", ["Ld", "Compress"])
    def test_every_fill_gets_the_deadline(self, name, monkeypatch):
        # Ld's run folds in a counterexample and grows S; Compress's grows
        # S and E
        deadlines = []
        fill = ObservationTable.fill

        def spy(self, oracle=None):
            deadlines.append(self.deadline)
            return fill(self, oracle)

        monkeypatch.setattr(ObservationTable, "fill", spy)
        result = learn(
            for_corpus(name, eq_depth=6),
            LearnBudget(max_equivalence=20, max_length=4, wall_time=600.0),
        )
        assert not result.diverged
        assert len(deadlines) >= 3
        assert None not in deadlines and len(set(deadlines)) == 1

    def test_no_word_is_simulated_alone(self, monkeypatch):
        # a predicate-backed teacher: membership, the equivalence query and
        # the agreement check never run one word through the hypothesis
        def run(aut, w):
            raise AssertionError(f"simulated {w.render()} alone")

        monkeypatch.setattr(automaton, "_run", run)
        result = learn(for_corpus("Ak:2"), LearnBudget(max_length=5))
        assert not result.diverged
        assert result.stats.agreement_violations == 0

    def test_divergence_reason(self):
        def reason(name, **budget):
            result = learn(for_corpus(name, eq_depth=6), LearnBudget(**budget))
            assert result.diverged == (result.stats.divergence_reason is not None)
            return result.stats.divergence_reason

        assert reason("Ld", max_equivalence=20, max_length=4) is None
        assert reason("Ln", max_equivalence=20, max_length=3) == "length"
        # Ld needs two equivalence queries
        assert reason("Ld", max_equivalence=1, max_length=4) == "equivalence"

    def test_stats_shape(self):
        teacher = for_corpus("Compress", eq_depth=5)
        result = learn(teacher, LearnBudget(max_equivalence=10, max_length=4))
        d = result.stats.to_dict()
        assert set(d) == {
            "membership_queries",
            "equivalence_queries",
            "closedness_rounds",
            "consistency_rounds",
            "final_l",
            "divergence_reason",
            "wall_time",
            "agreement_violations",
        }
