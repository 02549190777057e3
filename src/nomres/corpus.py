"""Built-in example languages, each as an automaton plus an independent predicate.

The predicates are direct word scans written without looking at the
automata, so the two encodings oracle each other: the test suite checks
they agree on every word orbit up to length 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .orbits import Word
from .automaton import (
    MAX_DIMENSION, StateOrbit, SymbolicAutomaton, TransitionLine, parse,
)
from .orbits import AlphabetSpec


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    automaton: SymbolicAutomaton
    predicate: Callable[[Word], bool]
    residual: bool
    # length of the longest shortest characterising word, when residual
    char_length: Optional[int] = None
    # state-orbit count of the canonical residual automaton, when known
    canonical_orbits: Optional[int] = None


# First symbol equals last symbol: { a w a }.
_LD = parse(
    """
    alphabet a 1
    state q0 0
    state q1 1
    state q2 1
    initial q0
    final q2
    trans q0 a(x) q1(x)
    trans q1(x) a(y) q1(x)
    trans q1(x) a(x) q2(x)
    trans q2(x) a(x) q2(x)
    trans q2(x) a(y) q1(x)
    """
)


def _ld_predicate(w: Word) -> bool:
    atoms = [l.atoms[0] for l in w]
    return len(atoms) >= 2 and atoms[0] == atoms[-1]


# Some atom occurs twice: { u a v a w }.
_LNGR = parse(
    """
    alphabet a 1
    state q0 0
    state q1 1
    state q2 0
    initial q0
    final q2
    trans q0 a(x) q0
    trans q0 a(x) q1(x)
    trans q1(x) a(y) q1(x)
    trans q1(x) a(x) q1(x)
    trans q1(x) a(x) q2
    trans q2 a(x) q2
    """
)


def _lngr_predicate(w: Word) -> bool:
    atoms = [l.atoms[0] for l in w]
    return len(set(atoms)) < len(atoms)


# Last letter is unique: { w a | a not in w } plus the empty word.
# The drawn automaton guesses the final letter up front; the unlabelled
# arrow into the accepting state is a second, 0-dimensional initial orbit.
_LN = parse(
    """
    alphabet a 1
    state q0 1
    state q1 0
    initial q0 q1
    final q1
    trans q0(x) a(y) q0(x)
    trans q0(x) a(x) q1
    """
)


def _ln_predicate(w: Word) -> bool:
    atoms = [l.atoms[0] for l in w]
    return len(atoms) == 0 or atoms[-1] not in atoms[:-1]


# Last letter is unique but anchored: the guessed atom can be pinned by
# reading Anc(a).  Language of the drawn automaton: the empty word, plus
# every w.a where a does not occur among the plain letters of w and every
# anchor letter of w carries exactly a.
_LR = parse(
    """
    alphabet a 1
    alphabet anc 1
    state q0 1
    state q1 0
    initial q0 q1
    final q1
    trans q0(x) a(y) q0(x)
    trans q0(x) a(x) q1
    trans q0(x) anc(x) q0(x)
    """
)


def _lr_predicate(w: Word) -> bool:
    if len(w) == 0:
        return True
    last = w[len(w) - 1]
    if last.tag != "a":
        return False
    a = last.atoms[0]
    for letter in w[: len(w) - 1]:
        if letter.tag == "a" and letter.atoms[0] == a:
            return False
        if letter.tag == "anc" and letter.atoms[0] != a:
            return False
    return True


# Repeated atom with different successor: words u a b v a c ending at c,
# with c distinct from b (a may equal b or c).  The drawn middle state
# holds the pair (a, b), so its symbolic form splits into the two-register
# orbit and the diagonal one-register orbit for b = a.
_LNG = parse(
    """
    alphabet a 1
    state q0 0
    state q1 1
    state q2 2
    state q2d 1
    state q3 1
    state q4 0
    initial q0
    final q4
    trans q0 a(x) q0
    trans q0 a(x) q1(x)
    trans q1(x) a(y) q2(x,y)
    trans q1(x) a(x) q2d(x)
    trans q2(x,y) a(z) q2(x,y)
    trans q2(x,y) a(x) q2(x,y)
    trans q2(x,y) a(y) q2(x,y)
    trans q2d(x) a(y) q2d(x)
    trans q2d(x) a(x) q2d(x)
    trans q2(x,y) a(x) q3(y)
    trans q2d(x) a(x) q3(x)
    trans q3(y) a(z) q4
    """
)


def _lng_predicate(w: Word) -> bool:
    atoms = [l.atoms[0] for l in w]
    if len(atoms) < 4:
        return False
    return any(
        atoms[p] == atoms[-2] and atoms[p + 1] != atoms[-1]
        for p in range(len(atoms) - 3)
    )


# Compression example: { a b b ... b | a != b }, zero b's allowed.  The
# corpus carries the minimal deterministic automaton (4 orbits); the
# canonical residual automaton, which the learner finds, has only 2.
_COMPRESS = parse(
    """
    alphabet a 1
    state d0 0
    state d1 1
    state d2 1
    state dead 0
    initial d0
    final d1 d2
    trans d0 a(x) d1(x)
    trans d1(x) a(y) d2(y)
    trans d1(x) a(x) dead
    trans d2(x) a(x) d2(x)
    trans d2(x) a(y) dead
    trans dead a(x) dead
    """
)


def _compress_predicate(w: Word) -> bool:
    atoms = [l.atoms[0] for l in w]
    if not atoms:
        return False
    return all(x == atoms[1] and x != atoms[0] for x in atoms[1:])


def _ak_automaton(k: int) -> SymbolicAutomaton:
    """Two state orbits, k registers, characterising words of length k.

    The register set holds k distinct guessed atoms; Anc letters must hit
    a register, plain letters loop while avoiding the set and jump to the
    accepting sink when they hit it.
    """
    alphabet = AlphabetSpec([("a", 1), ("anc", 1)])
    xs = tuple(f"x{i}" for i in range(k))
    lines = [TransitionLine("s", xs, "a", ("y",), "s", xs)]
    for i in range(k):
        lines.append(TransitionLine("s", xs, "anc", (xs[i],), "s", xs))
        lines.append(TransitionLine("s", xs, "a", (xs[i],), "top", ()))
    return SymbolicAutomaton(
        alphabet,
        [StateOrbit("s", k), StateOrbit("top", 0)],
        ["s"],
        ["top"],
        lines,
    )


def _ak_predicate(k: int):
    def pred(w: Word) -> bool:
        if len(w) == 0 or w[len(w) - 1].tag != "a":
            return False
        a = w[len(w) - 1].atoms[0]
        plains = {l.atoms[0] for l in w[: len(w) - 1] if l.tag == "a"}
        registers = {l.atoms[0] for l in w[: len(w) - 1] if l.tag == "anc"} | {a}
        return len(registers) <= k and not (registers & plains)

    return pred


_FIXED = {
    "Ld": CorpusEntry(
        "Ld", _LD, _ld_predicate,
        residual=True, char_length=2, canonical_orbits=3,
    ),
    "Lngr": CorpusEntry(
        "Lngr", _LNGR, _lngr_predicate,
        residual=True, char_length=2, canonical_orbits=3,
    ),
    "Ln": CorpusEntry(
        "Ln", _LN, _ln_predicate,
        residual=False,
    ),
    "Lr": CorpusEntry(
        "Lr", _LR, _lr_predicate,
        residual=True, char_length=2, canonical_orbits=2,
    ),
    "Lng": CorpusEntry(
        "Lng", _LNG, _lng_predicate,
        residual=False,
    ),
    "Compress": CorpusEntry(
        "Compress", _COMPRESS, _compress_predicate,
        residual=True, char_length=2, canonical_orbits=2,
    ),
}


def get(name: str) -> CorpusEntry:
    """Look up a corpus entry; 'Ak:3' selects the anchored family at k=3.

    k is at most MAX_DIMENSION, so that every entry exports to a file
    that `parse` reads back."""
    if name in _FIXED:
        return _FIXED[name]
    if name == "Ak" or name.startswith("Ak:"):
        parts = name.split(":")
        if len(parts) != 2:
            raise KeyError("Ak needs a parameter, e.g. 'Ak:2'")
        try:
            k = int(parts[1])
        except ValueError:
            raise KeyError(f"bad Ak parameter {parts[1]!r}") from None
        if not 1 <= k <= MAX_DIMENSION:
            raise KeyError(f"Ak requires 1 <= k <= {MAX_DIMENSION}")
        return CorpusEntry(
            name, _ak_automaton(k), _ak_predicate(k),
            residual=True, char_length=k, canonical_orbits=2,
        )
    raise KeyError(f"unknown corpus entry {name!r}")
