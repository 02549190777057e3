"""Atoms, and canonical orbit representatives for letters and words.

Atoms are plain non-negative ints used purely as names: only equality
between atoms is observable, and every public operation of this library
gives renaming-invariant results.  A renaming is a plain dict from atoms
to atoms, injective on the atoms it is applied to (``Word.rename``).
Letters and words are tuples: immutable, and compared and hashed as
tuples.

A word orbit (all renamings of a word) is represented by its canonical
form: atoms relabelled 0, 1, 2, ... in order of first occurrence, which
makes orbit equality a plain ``==``.  A-orbits (renamings that fix a
finite atom set A pointwise) keep the atoms of A and relabel the rest to
fresh indices above max(A).  Orbits of bounded-length words are
enumerated as a prefix tree: every representative of length n + 1 is a
representative of length n extended by one letter whose atoms continue
its restricted-growth labelling, and each word records its parent's
index.
"""

from __future__ import annotations

import itertools
import re
from math import comb, factorial
from typing import NamedTuple


def fresh_atom(avoid) -> int:
    """The least atom strictly greater than everything in ``avoid``."""
    avoid = list(avoid)
    return max(avoid) + 1 if avoid else 0


_TAG = r"[A-Za-z_][A-Za-z0-9_]*"  # a letter's tag, as `parse_word` reads it


class AlphabetSpec:
    """A finite list of letter constructors ``tag(atom, ..., atom)``."""

    __slots__ = ("constructors", "_arity")

    def __init__(self, constructors):
        ctors = tuple((str(t), int(a)) for t, a in constructors)
        if not ctors:
            raise ValueError("alphabet needs at least one constructor")
        if len({t for t, _ in ctors}) != len(ctors):
            raise ValueError("duplicate tag in alphabet")
        if any(a < 0 for _, a in ctors):
            raise ValueError("negative arity")
        for t, _ in ctors:  # `parse_word` reads eps as the empty word
            if t == "eps" or not re.fullmatch(_TAG, t):
                raise ValueError(f"tag {t!r} cannot be written in a word")
        self.constructors = ctors
        self._arity = dict(ctors)

    @property
    def tags(self):
        return tuple(t for t, _ in self.constructors)

    def arity(self, tag: str) -> int:
        try:
            return self._arity[tag]
        except KeyError:
            raise KeyError(f"unknown tag {tag!r}") from None

    def __contains__(self, tag):
        return tag in self._arity

    @property
    def dimension(self) -> int:
        """Atom-dimension: the largest arity of any constructor."""
        return max(a for _, a in self.constructors)

    def __eq__(self, other):
        return (
            isinstance(other, AlphabetSpec)
            and self.constructors == other.constructors
        )

    def __hash__(self):
        return hash(self.constructors)

    def __repr__(self):
        body = ", ".join(f"{t}/{a}" for t, a in self.constructors)
        return f"AlphabetSpec({body})"


DEFAULT_ALPHABET = AlphabetSpec([("a", 1)])


class Letter(NamedTuple):
    """One alphabet symbol: a tag plus a tuple of atoms."""

    tag: str
    atoms: tuple = ()

    def render(self) -> str:
        if not self.atoms:
            return self.tag
        return f"{self.tag}({','.join(str(a) for a in self.atoms)})"

    def __repr__(self):
        return f"Letter({self.render()!r})"


class Word(tuple):
    """A sequence of letters over one alphabet.

    A slice is a plain tuple: it hashes and compares like the Word of
    the same letters, but a slice plus a Letter adds the letter's fields.
    """

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, Letter):
            return Word((*self, other))
        return Word(tuple.__add__(self, other))

    def atoms(self):
        """All atom occurrences, in positional order."""
        for letter in self:
            yield from letter.atoms

    def rename(self, mapping):
        """Each atom a replaced by ``mapping.get(a, a)``."""
        return Word(tuple.__new__(Letter, (tag, tuple(mapping.get(a, a) for a in atoms)))
                    for tag, atoms in self)

    def suffixes(self):
        """All suffixes, longest first, ending with the empty word."""
        return [Word(self[i:]) for i in range(len(self) + 1)]

    def sort_key(self):
        return (len(self), self)

    def render(self) -> str:
        if not self:
            return "eps"
        return " ".join(l.render() for l in self)

    def __repr__(self):
        return f"Word({self.render()!r})"


EMPTY_WORD = Word()


# A letter token as `Letter.render` writes it: a tag, then its atoms, if
# any, in parentheses, each ASCII decimal digits without a leading zero
# (int() would also read 01, 1_0, +3 and other scripts' digits).
_ATOM = "(?:0|[1-9][0-9]*)"
_LETTER_RE = re.compile(rf"({_TAG})(?:\(({_ATOM}(?:,{_ATOM})*)\))?")


def _bad_letter(token):
    """The error for a token that `_LETTER_RE` does not match."""
    m = re.fullmatch(rf"({_TAG})(?:\(([^()]*)\))?", token)
    if m is None:
        return ValueError(f"bad letter {token!r}")
    if "-" in m[2] and re.fullmatch(r"-?[0-9]+(?:,-?[0-9]+)*", m[2]):
        return ValueError(f"negative atom in {token!r}")
    return ValueError(f"bad atom list in {token!r}")


def parse_word(text: str, alphabet: AlphabetSpec | None = None) -> Word:
    """Parse the shared word syntax: ``tag(n1,...,nk)`` tokens, ``eps`` empty."""
    text = text.strip()
    if text in ("", "eps"):
        return EMPTY_WORD
    arities = None if alphabet is None else alphabet._arity
    new = tuple.__new__  # a Letter without its Python-level __new__
    letters = {}  # each token's letter, read once per word
    word = []
    for token in text.split():
        letter = letters.get(token)
        if letter is None:
            m = _LETTER_RE.fullmatch(token)
            if m is None:
                raise _bad_letter(token)
            tag, body = m.groups()
            atoms = ()
            if body:
                try:
                    atoms = tuple(map(int, body.split(",")))
                except ValueError:  # more digits than int() reads
                    raise ValueError(f"bad atom list in {token!r}") from None
            if arities is not None:
                arity = arities.get(tag)
                if arity is None:
                    raise ValueError(f"unknown tag {tag!r}")
                if arity != len(atoms):
                    raise ValueError(f"tag {tag!r} takes {arity} atoms, got {len(atoms)}")
            letter = letters[token] = new(Letter, (tag, atoms))
        word.append(letter)
    return Word(word)


def canonicalize(w: Word) -> Word:
    """The orbit-canonical form: atoms become 0, 1, ... by first occurrence."""
    relabel = {}
    letters = []
    for tag, atoms in w:
        out = []
        for a in atoms:
            if a not in relabel:
                relabel[a] = len(relabel)
            out.append(relabel[a])
        letters.append(tuple.__new__(Letter, (tag, tuple(out))))
    return Word(letters)


def set_partition_labels(n: int, used: int = 0):
    """All canonical labelings of n slots, one per set partition.

    Yields restricted-growth tuples: each label at most the number of
    labels used so far, starting from ``used`` labels (0 .. used-1)
    already taken by what comes before.  Lexicographic order.
    """
    out = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(out)
            return
        for v in range(used + 1):
            out[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(0, used)


def partial_injections(src, tgt):
    """All partial injective maps from src into tgt, as dicts.

    Larger domains come first; within one domain size the order follows
    itertools, so the whole enumeration is deterministic.
    """
    src = tuple(src)
    tgt = tuple(tgt)
    for r in range(min(len(src), len(tgt)), -1, -1):
        for chosen in itertools.combinations(src, r):
            for images in itertools.permutations(tgt, r):
                yield dict(zip(chosen, images))


def count_partial_permutations(k: int) -> int:
    """p(k): the number of partial injective maps on a k-element set."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return sum(comb(k, i) ** 2 * factorial(i) for i in range(k + 1))


def enumerate_word_orbits(alphabet: AlphabetSpec, max_len: int):
    """One canonical representative per orbit of words of length <= max_len.

    Ordered by length, then tag sequence, then equality pattern; the
    order is fixed so that learner runs are reproducible.
    """
    return word_orbit_tree(alphabet, max_len)[0]


def word_orbit_tree(alphabet: AlphabetSpec, max_len: int):
    """``enumerate_word_orbits(alphabet, max_len)`` and each word's parent.

    The parents are a buffer of 4-byte ints (a memoryview of format
    ``'i'``), with ``words[parents[i]] == words[i][:-1]`` for every
    i > 0 and -1 for the empty word.  Every parent comes before its
    children.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    words = [EMPTY_WORD]
    size = count_word_orbits(alphabet, max_len)
    parents = memoryview(bytearray(4 * size)).cast("i")
    parents[0] = -1
    used = [0]  # atoms of each word of the last length: labels 0 .. used-1
    tags = sorted(alphabet.tags)
    # (tag, atoms used) -> (extension letters, atoms used after each)
    extensions = {}
    groups = [range(1)]  # the words of one tag sequence, of the last length
    for n in range(max_len):
        base = groups[0].start
        longer, longer_used = [], []
        for group in groups:
            for tag in tags:
                start = len(words)
                for i in group:
                    k = used[i - base]
                    if (tag, k) not in extensions:
                        labelings = list(set_partition_labels(alphabet.arity(tag), k))
                        extensions[tag, k] = (
                            [Letter(tag, labels) for labels in labelings],
                            [max(k, max(labels, default=-1) + 1)
                             for labels in labelings],
                        )
                    letters, after = extensions[tag, k]
                    w = words[i]
                    for letter in letters:
                        parents[len(words)] = i
                        words.append(Word((*w, letter)))
                    if n + 1 < max_len:  # the last length extends nothing
                        longer_used += after
                longer.append(range(start, len(words)))
        groups, used = longer, longer_used
    return tuple(words), parents


def count_word_orbits(alphabet: AlphabetSpec, max_len: int, stop_above=None) -> int:
    """``len(enumerate_word_orbits(alphabet, max_len))``, without the words.

    A tag sequence with total arity k has Bell(k) equality patterns, so
    the count is the sum of Bell(total arity) over tag sequences of
    length <= max_len.  With stop_above, counting ends at the first
    length that takes the count above it, and that partial count is
    returned: comparing against a bound costs little however large
    max_len is.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    # Bell numbers by the Bell triangle: each row starts with the last
    # entry of the row before, and row k starts with Bell(k)
    bell = [1]
    row = [1]
    # sequences[k]: tag sequences of the current length with total arity k
    sequences = {0: 1}
    total = 1
    for _ in range(max_len):
        if stop_above is not None and total > stop_above:
            break
        longer = {}
        for k, n in sequences.items():
            for _, arity in alphabet.constructors:
                longer[k + arity] = longer.get(k + arity, 0) + n
        sequences = longer
        while len(bell) <= max(sequences):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
            bell.append(row[0])
        total += sum(n * bell[k] for k, n in sequences.items())
    return total


def letter_patterns(tag: str, arity: int):
    """Canonical representatives of the letter orbits of one constructor."""
    return [Letter(tag, labels) for labels in set_partition_labels(arity)]


def split_into_a_orbits(pattern: Word, fixed):
    """One representative per A-orbit inside the orbit of ``pattern``.

    Representatives are produced by mapping the pattern's atom blocks
    into ``fixed`` by every partial injection; unmapped blocks become
    fresh pairwise-distinct atoms just above max(fixed).
    """
    fixed = frozenset(fixed)
    blocks = []
    for a in pattern.atoms():
        if a not in blocks:
            blocks.append(a)
    base = fresh_atom(fixed)
    out = []
    for inj in partial_injections(blocks, sorted(fixed)):
        assignment = {}
        nxt = base
        for b in blocks:
            if b in inj:
                assignment[b] = inj[b]
            else:
                assignment[b] = nxt
                nxt += 1
        out.append(pattern.rename(assignment))
    return out
