"""Simulated teacher: exact membership, bounded equivalence.

Membership is answered exactly, from an automaton simulation or a direct
predicate.  Equivalence is necessarily approximate (exact equivalence of
these automata is undecidable): the oracle walks word-orbit
representatives up to a depth and returns the first disagreement, which
is sound, and complete only for the words it looked at.  Checking one
representative per orbit suffices because both languages are
equivariant.

The walk shares prefixes: the enumeration is a prefix tree
(`word_orbit_tree`), and every automaton involved (the hypothesis, and
the target when it is an automaton) steps each word once from the
frontier of its parent's index, keeping every word's frontier until
the query ends, and makes each distinct (frontier, letter, atoms read)
step once per query (see `accepts_each`).  The words are still checked in
enumeration order, and the walks are generators, so the query stops at
the first disagreement: the counterexample is the same as a
word-by-word scan finds, the shortest disagreeing word, then the first
in enumeration order.
"""

from __future__ import annotations

from .orbits import AlphabetSpec, Word, word_orbit_tree
from .automaton import accepts, accepts_each
from . import corpus


class MembershipOracle:
    """Counts queries; answers from an automaton or a predicate."""

    def __init__(self, alphabet: AlphabetSpec, predicate=None, automaton=None,
                 name=None):
        if (predicate is None) == (automaton is None):
            raise ValueError("provide exactly one of predicate, automaton")
        self.alphabet = alphabet
        self.name = name
        self._predicate = predicate
        self._automaton = automaton
        self.query_count = 0

    def evaluate(self, w: Word) -> bool:
        """Uncounted evaluation (used internally by equivalence testing)."""
        if self._automaton is not None:
            return accepts(self._automaton, w)
        return bool(self._predicate(w))

    def evaluate_each(self, words, parents):
        """Uncounted evaluation of every word of a prefix tree of word
        orbits, in order (see `accepts_each`)."""
        if self._automaton is not None:
            return accepts_each(self._automaton, words, parents)
        return (bool(self._predicate(w)) for w in words)

    def member(self, w: Word) -> bool:
        self.query_count += 1
        return self.evaluate(w)


class EquivalenceOracle:
    """Bounded equivalence: sound counterexamples, depth-limited yes."""

    def __init__(self, target: MembershipOracle, depth: int):
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.target = target
        self.depth = depth
        self.query_count = 0

    def equivalent(self, hypothesis):
        """None when the automaton ``hypothesis`` agrees on every orbit up to
        the depth, else the shortest (then enumeration-first) disagreeing word."""
        self.query_count += 1
        words, parents = word_orbit_tree(self.target.alphabet, self.depth)
        expected = self.target.evaluate_each(words, parents)
        accepted = accepts_each(hypothesis, words, parents)
        for w, want, got in zip(words, expected, accepted):
            if want != got:
                return w
        return None


class Teacher:
    """A membership oracle and an equivalence oracle over one alphabet."""

    def __init__(self, membership: MembershipOracle, equivalence: EquivalenceOracle):
        self.membership = membership
        self.equivalence = equivalence

    @property
    def alphabet(self):
        return self.membership.alphabet


def for_language(alphabet, predicate=None, automaton=None, eq_depth=5,
                 name=None) -> Teacher:
    membership = MembershipOracle(
        alphabet, predicate=predicate, automaton=automaton, name=name
    )
    return Teacher(membership, EquivalenceOracle(membership, eq_depth))


def for_corpus(name: str, eq_depth=None) -> Teacher:
    """A teacher for a built-in language, backed by its predicate.

    Default depth is twice the known characterising length plus one, a
    heuristic with no completeness claim; non-residual entries have no
    such length and need an explicit depth.
    """
    entry = corpus.get(name)
    if eq_depth is None:
        if entry.char_length is None:
            raise ValueError(
                f"{name} has no characterising length; pass eq_depth explicitly"
            )
        eq_depth = 2 * entry.char_length + 1
    return for_language(
        entry.automaton.alphabet,
        predicate=entry.predicate,
        eq_depth=eq_depth,
        name=entry.name,
    )
