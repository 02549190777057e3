"""Canonicity: the same language gives the same automaton, up to renaming.

Most perturbations of a run replay it exactly (the learner is
deterministic, and most targets need at most one counterexample), so an
`==` check on them would pass vacuously.  Renaming a tag does change the
run: the labels, the letters and the state numbering all follow
``sorted(tags)``.  The renamed run must still give an automaton
`isomorphic` to the original's.
"""

import pytest

from nomres import corpus
from nomres.automaton import SymbolicAutomaton, TransitionLine
from nomres.learner import LearnBudget, learn
from nomres.orbits import AlphabetSpec, Letter, Word
from nomres.teacher import for_language

from conftest import SUCCESS_TARGETS, isomorphic

# the acceptance targets over two tags, `a` and `anc`
TWO_TAG_TARGETS = ("Lr", "Ak:1", "Ak:2", "Ak:3")
RENAMED = {"a": "za"}
BACK = {new: old for old, new in RENAMED.items()}


def _rename_tags(aut, tags):
    """The automaton with each tag t written ``tags.get(t, t)``."""
    alphabet = AlphabetSpec(
        [(tags.get(t, t), arity) for t, arity in aut.alphabet.constructors]
    )
    lines = [
        TransitionLine(t.src, t.src_vars, tags.get(t.letter_tag, t.letter_tag),
                       t.letter_vars, t.dst, t.dst_vars)
        for t in aut.transitions
    ]
    return SymbolicAutomaton(alphabet, aut.states, aut.initial, aut.final, lines)


def _relabel(aut, names, perms, lines=None):
    """The automaton with state orbit p named ``names[p]`` and its
    register i moved to position ``perms[p][i]``, listed in the reverse
    order; ``lines`` (default: all) are the lines whose sources move."""
    lines = aut.transitions if lines is None else lines

    def move(q, vars_, moving=True):
        if not moving:
            return names[q], vars_
        moved = [None] * len(vars_)
        for i, v in enumerate(vars_):
            moved[perms[q][i]] = v
        return names[q], tuple(moved)

    transitions = []
    for t in aut.transitions:
        src, src_vars = move(t.src, t.src_vars, t in lines)
        dst, dst_vars = move(t.dst, t.dst_vars)
        transitions.append(
            TransitionLine(src, src_vars, t.letter_tag, t.letter_vars, dst, dst_vars)
        )
    states = [type(q)(names[q.name], q.dimension) for q in reversed(aut.states)]
    return SymbolicAutomaton(
        aut.alphabet, states, [names[q] for q in aut.initial],
        [names[q] for q in aut.final], reversed(transitions),
    )


def _reversing(aut):
    """Names and register permutations that reverse both orders."""
    names = {q.name: f"p{len(aut.states) - i}" for i, q in enumerate(aut.states)}
    perms = {q.name: tuple(reversed(range(q.dimension))) for q in aut.states}
    return names, perms


@pytest.fixture(scope="module")
def renamed_runs():
    """Each two-tag target learned at its acceptance settings with tag
    `a` written `za`, and the hypothesis written back in `a`."""
    runs = {}
    for name, depth, max_l in SUCCESS_TARGETS:
        if name not in TWO_TAG_TARGETS:
            continue
        entry = corpus.get(name)
        alphabet = _rename_tags(entry.automaton, RENAMED).alphabet

        def predicate(w, entry=entry):
            return entry.predicate(
                Word(Letter(BACK.get(l.tag, l.tag), l.atoms) for l in w)
            )

        teacher = for_language(alphabet, predicate=predicate, eq_depth=depth)
        result = learn(teacher, LearnBudget(max_equivalence=40, max_length=max_l))
        assert not result.diverged and result.stats.agreement_violations == 0
        runs[name] = _rename_tags(result.hypothesis.automaton, BACK)
    return runs


class TestRenamedTags:
    def test_the_two_tag_targets(self):
        two_tags = [
            name for name, _, _ in SUCCESS_TARGETS
            if len(corpus.get(name).automaton.alphabet.tags) == 2
        ]
        assert tuple(two_tags) == TWO_TAG_TARGETS

    @pytest.mark.parametrize("name", TWO_TAG_TARGETS)
    def test_renaming_reorders_the_tags(self, name):
        tags = corpus.get(name).automaton.alphabet.tags
        renamed = sorted(RENAMED.get(t, t) for t in tags)
        assert [BACK.get(t, t) for t in renamed] != sorted(tags)

    @pytest.mark.parametrize("name", TWO_TAG_TARGETS)
    def test_same_automaton_up_to_renaming(self, name, learning_runs, renamed_runs):
        original = learning_runs[name][0].hypothesis.automaton
        assert isomorphic(renamed_runs[name], original)
        assert isomorphic(original, renamed_runs[name])

    def test_some_run_is_not_equal(self, learning_runs, renamed_runs):
        # otherwise `==` would have done, and `isomorphic` was not tested
        differ = [
            name for name in TWO_TAG_TARGETS
            if renamed_runs[name] != learning_runs[name][0].hypothesis.automaton
        ]
        assert differ != []


def _automata(learning_runs):
    yield from (result.hypothesis.automaton for result, _ in learning_runs.values())
    yield corpus.get("Lng").automaton


class TestIsomorphic:
    def test_accepts_renamed_reordered_permuted_copies(self, learning_runs):
        for aut in _automata(learning_runs):
            copy = _relabel(aut, *_reversing(aut))
            assert copy != aut
            assert isomorphic(aut, copy) and isomorphic(copy, aut)

    def test_rejects_a_dropped_line(self, learning_runs):
        for aut in _automata(learning_runs):
            dropped = SymbolicAutomaton(
                aut.alphabet, aut.states, aut.initial, aut.final, aut.transitions[1:]
            )
            assert not isomorphic(aut, dropped) and not isomorphic(dropped, aut)

    def test_rejects_a_removed_final_state(self, learning_runs):
        for aut in _automata(learning_runs):
            final = sorted(aut.final)[1:]
            fewer = SymbolicAutomaton(
                aut.alphabet, aut.states, aut.initial, final, aut.transitions
            )
            assert not isomorphic(aut, fewer) and not isomorphic(fewer, aut)

    def test_rejects_registers_permuted_on_some_lines_only(self):
        # q2(x,y) a(x) q3(y) tells q2's two registers apart
        aut = corpus.get("Lng").automaton
        names, perms = _reversing(aut)
        leaving_q2 = [t for t in aut.transitions if t.src == "q2"]
        for t in leaving_q2:
            others = [u for u in aut.transitions if u.src != "q2" or u == t]
            assert not isomorphic(aut, _relabel(aut, names, perms, others))

    def test_rejects_the_corpus_automaton_of_ak2(self, learning_runs):
        learned = learning_runs["Ak:2"][0].hypothesis.automaton
        target = corpus.get("Ak:2").automaton
        assert (len(learned.transitions), len(target.transitions)) == (8, 5)
        assert not isomorphic(learned, target) and not isomorphic(target, learned)
