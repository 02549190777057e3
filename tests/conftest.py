"""Shared brute-force oracles and fixture builders.

Everything here is deliberately naive: these functions recompute, by
exhaustive enumeration over small finite universes, the quantities the
library computes symbolically, so that each side can check the other.
"""

import itertools
import random

import pytest

from nomres.orbits import (
    AlphabetSpec,
    Letter,
    Word,
    enumerate_word_orbits,
    partial_injections,
)
from nomres import corpus
from nomres.automaton import TransitionLine, accepts
from nomres.learner import LearnBudget, learn
from nomres.rows import ColumnSet, Row, placed_leq
from nomres.teacher import for_corpus, for_language


def all_concrete_words(alphabet, universe, length):
    """Every word of exactly `length` with atoms drawn from `universe`."""
    letters = [
        Letter(tag, atoms)
        for tag, arity in alphabet.constructors
        for atoms in itertools.product(universe, repeat=arity)
    ]
    return [Word(c) for c in itertools.product(letters, repeat=length)]


def brute_orbit_count(alphabet, length):
    """Count word orbits of exactly `length` by closing concrete words
    under all permutations of a big-enough finite universe."""
    slots = length * alphabet.dimension
    universe = list(range(max(slots, 1)))
    perms = [dict(zip(universe, p)) for p in itertools.permutations(universe)]
    seen = set()
    count = 0
    for w in all_concrete_words(alphabet, universe, length):
        key = tuple((l.tag, l.atoms) for l in w)
        if key in seen:
            continue
        count += 1
        for p in perms:
            img = tuple((l.tag, tuple(p[a] for a in l.atoms)) for l in w)
            seen.add(img)
    return count


def brute_partial_injection_count(k):
    """Count partial injective maps on {0..k-1} by listing them."""
    total = 0
    for r in range(k + 1):
        for src in itertools.combinations(range(k), r):
            for img in itertools.permutations(range(k), r):
                total += 1
    return total


def brute_partial_injections(src, tgt):
    out = []
    for r in range(min(len(src), len(tgt)) + 1):
        for chosen in itertools.combinations(src, r):
            for img in itertools.permutations(tgt, r):
                out.append(dict(zip(chosen, img)))
    return out


def admits(tables, pattern):
    """The reference filter: do the atom-free and one-atom blocks pass
    the placement ``pattern`` (pairs (i, j), atom i of r1 on atom j of
    r2), read off `rows._atom_tables(r1, r2)`?"""
    forbid, outside_ok, unhit_ok = tables
    landed = hit = 0
    for i, j in pattern:
        if forbid[i] >> j & 1:
            return False
        landed |= 1 << i
        hit |= 1 << j
    return (landed | outside_ok) == -1 and (hit | unhit_ok) == -1


def full_listing(src, tgt):
    """Every partial injection of ``src`` into ``tgt`` as (domain index,
    codomain index) pairs, in `partial_injections` order."""
    for inj in partial_injections(range(len(src)), range(len(tgt))):
        yield tuple(inj.items())


def named_pattern(src, tgt, inj):
    """The placement pattern of r1 into r2 that an injection of ``src``
    into ``tgt`` gives, the atoms named as `rows.placed_below` names
    them: i for r1's i-th atom, ~j for r2's j-th, None for neither."""
    pattern = []
    for d, c in inj:
        x, y = src[d], tgt[c]
        if x is not None and y is not None:
            pattern.append((x, ~y) if x >= 0 else (y, ~x))
    return tuple(sorted(pattern))


def admitted_listing(tables, src, tgt):
    """The injections `rows.placed_below` builds from the atom tables,
    as the full listing filtered by `admits`."""
    if tables is not None:
        for inj in full_listing(src, tgt):
            if admits(tables, named_pattern(src, tgt, inj)):
                yield inj


def listed_below(r1, r2, src, tgt, deadline=None):
    """`rows.placed_below` as the full listing: every injection is
    decided by `placed_leq`, with no atom tables."""
    for inj in full_listing(src, tgt):
        if placed_leq(r1, r2, named_pattern(src, tgt, inj)):
            yield inj


def language_disagreement(aut, predicate, depth):
    """First word orbit up to `depth` where automaton and predicate differ."""
    for w in enumerate_word_orbits(aut.alphabet, depth):
        if accepts(aut, w) != predicate(w):
            return w
    return None


def bounded_universal(aut, depth):
    """Does the automaton accept every word orbit up to `depth`?"""
    return all(accepts(aut, w) for w in enumerate_word_orbits(aut.alphabet, depth))


# -- finite-universe row lattice oracle --------------------------------------
#
# Families are kept faithful to the infinite-atom semantics by bounding
# supports to at most one atom and columns to single-atom patterns, so a
# three-atom universe realizes every placement any comparison can need.

ROW_ALPHABET = AlphabetSpec([("a", 1)])
LATTICE_UNIVERSE = (0, 1, 2)


def lattice_columns():
    cs = ColumnSet()
    cs.add(Word([Letter("a", (0,)), Letter("a", (0,))]))
    return cs


def basis_bits(columns, support, value_of):
    """The bit mask over ``columns.instances(support)`` of `value_of`."""
    return sum(
        1 << i for i, e in enumerate(columns.instances(support)) if value_of(e)
    )


def make_row(columns, support, bits):
    """A synthetic row: `bits` maps rendered basis columns to booleans."""
    owner = Word([Letter("a", (a,)) for a in sorted(support)])
    mask = basis_bits(columns, support, lambda e: bits.get(e.render(), False))
    return Row(owner, support, mask, columns)


def renamed_values(row, p):
    """The values of the row renamed by ``p``, a dict injective on its
    support, as a function of concrete columns: the renamed row holds e
    exactly when the row holds e renamed back, each atom of e off the
    image going to a distinct atom above everything in sight."""
    back = {p[a]: a for a in row.support}
    above = max([*row.support, *back], default=-1) + 1

    def value(e):
        q = dict(back)
        for a in e.atoms():
            if a not in q:
                q[a] = above + len(q)
        return row.value(e.rename(q))

    return value


def renamed(row, p):
    """The row renamed by ``p``, built value by value through `Row.value`
    on the basis of the image of its support."""
    image = [p[a] for a in row.support]
    bits = basis_bits(row.columns, image, renamed_values(row, p))
    return Row(row.owner.rename(p), image, bits, row.columns)


def random_row(rng, columns):
    support = frozenset() if rng.random() < 0.4 else frozenset((0,))
    basis = columns.instances(support)
    bits = {e.render(): rng.random() < 0.5 for e in basis}
    return make_row(columns, support, bits)


def random_family(rng, columns, size):
    return [random_row(rng, columns) for _ in range(size)]


def concrete_columns(columns, universe):
    out = []
    for pattern in columns:
        blocks = sorted(frozenset(pattern.atoms()))
        for assign in itertools.permutations(universe, len(blocks)):
            m = dict(zip(blocks, assign))
            w = Word(Letter(l.tag, tuple(m[a] for a in l.atoms)) for l in pattern)
            if w not in out:
                out.append(w)
    return out


def concretize_row(row, columns_concrete, universe):
    """All instantiations of the row's orbit inside the universe, each as
    a frozenset of concrete columns.

    A placement sends the least support onto ``img``; the row holds c
    exactly when it holds the preimage of c, in which every atom of c
    outside ``img`` goes to a distinct atom above everything in sight.
    """
    reduced = row.reduced()
    sup = sorted(reduced.support)
    above = max([*universe, *sup], default=-1) + 1
    out = []
    for img in itertools.permutations(universe, len(sup)):
        held = set()
        for c in columns_concrete:
            preimage = dict(zip(img, sup))
            for a in c.atoms():
                if a not in preimage:
                    preimage[a] = above + len(preimage)
            if reduced.value(c.rename(preimage)):
                held.add(c)
        out.append(frozenset(held))
    return out


def concretize_family(family, columns_concrete, universe):
    out = []
    for r in family:
        for s in concretize_row(r, columns_concrete, universe):
            if s not in out:
                out.append(s)
    return out


def brute_join_irreducible(target_set, concrete_family):
    if not target_set:
        return False
    below = [y for y in concrete_family if y < target_set]
    union = frozenset().union(*below) if below else frozenset()
    return union != target_set


def brute_generated(target_set, concrete_family):
    below = [y for y in concrete_family if y <= target_set]
    union = frozenset().union(*below) if below else frozenset()
    return union == target_set


@pytest.fixture
def rng():
    return random.Random(20240921)


# -- the acceptance learning runs ----------------------------------------

# (name, equivalence depth, length budget); depths per the criteria:
# at least 6 for Ld and Compress, at least 2k+1 for Ak(k)
SUCCESS_TARGETS = [
    ("Ld", 6, 4),
    ("Lngr", 5, 4),
    ("Lr", 5, 4),
    ("Compress", 6, 4),
    ("Ak:1", 3, 3),
    ("Ak:2", 5, 4),
    ("Ak:3", 7, 5),
]


@pytest.fixture(scope="session")
def learning_runs():
    runs = {}
    for name, depth, max_l in SUCCESS_TARGETS:
        teacher = for_corpus(name, eq_depth=depth)
        result = learn(teacher, LearnBudget(max_equivalence=40, max_length=max_l))
        runs[name] = (result, depth)
    return runs


@pytest.fixture(scope="session")
def divergence_runs():
    runs = {}
    for name in ("Ln", "Lng"):
        entry = corpus.get(name)
        teacher = for_language(
            entry.automaton.alphabet, predicate=entry.predicate, eq_depth=6, name=name
        )
        runs[name] = learn(teacher, LearnBudget(max_equivalence=20, max_length=5))
    return runs


# -- random symbolic automata --------------------------------------------

def random_automaton(rng):
    """A small random automaton: 1-3 state orbits, dimensions <= 2,
    a handful of valid transition lines, guessing allowed."""
    from nomres.automaton import StateOrbit, SymbolicAutomaton

    roll = rng.random()
    if roll < 0.25:
        alphabet = AlphabetSpec([("a", 1), ("c", 0)])
    elif roll < 0.45:
        alphabet = AlphabetSpec([("a", 1), ("b", 2)])
    else:
        alphabet = AlphabetSpec([("a", 1)])
    states = [
        StateOrbit(f"q{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))
    ]
    lines = []
    for src in states:
        src_vars = tuple(f"s{i}" for i in range(src.dimension))
        for tag, arity in alphabet.constructors:
            for _ in range(rng.randint(0, 2)):
                letter_vars = []
                for j in range(arity):
                    pool = list(src_vars) + [f"l{j}"] + list(letter_vars)
                    letter_vars.append(rng.choice(pool))
                dst = rng.choice(states)
                pool = list(dict.fromkeys(list(src_vars) + letter_vars))
                dst_vars = []
                for j in range(dst.dimension):
                    options = [v for v in pool if v not in dst_vars] + [f"g{j}"]
                    dst_vars.append(rng.choice(options))
                lines.append(
                    TransitionLine(
                        src.name, src_vars, tag, tuple(letter_vars),
                        dst.name, tuple(dst_vars),
                    )
                )
    names = [q.name for q in states]
    initial = [n for n in names if rng.random() < 0.6] or [names[0]]
    final = [n for n in names if rng.random() < 0.5]
    return SymbolicAutomaton(alphabet, states, initial, final, lines)


# -- automata up to renaming ---------------------------------------------

def _normal_line(line):
    """A transition line with its variables renamed by first occurrence."""
    names = {}
    for v in line.src_vars + line.letter_vars + line.dst_vars:
        names.setdefault(v, f"x{len(names)}")
    return (
        line.src, tuple(names[v] for v in line.src_vars),
        line.letter_tag, tuple(names[v] for v in line.letter_vars),
        line.dst, tuple(names[v] for v in line.dst_vars),
    )


def _state_signatures(aut):
    """Per state orbit, what every renaming keeps: dimension, initial and
    final flags, and the numbers of lines leaving and entering it."""
    return {
        q.name: (
            q.dimension, q.name in aut.initial, q.name in aut.final,
            sum(t.src == q.name for t in aut.transitions),
            sum(t.dst == q.name for t in aut.transitions),
        )
        for q in aut.states
    }


def isomorphic(a, b):
    """Is ``b`` the automaton ``a`` up to renaming?

    Brute force: every bijection of state orbits that keeps their
    signatures, and per state orbit every permutation of its registers.
    Under them the initial states, the final states and the transition
    lines (variables renamed by first occurrence) must map onto ``b``'s;
    the signatures carry the initial and final flags, so the bijection
    maps those states onto ``b``'s by construction.
    """
    if a.alphabet != b.alphabet:
        return False
    sig_a, sig_b = _state_signatures(a), _state_signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False
    lines_b = {_normal_line(t) for t in b.transitions}
    names = list(sig_a)
    for image in itertools.permutations(sig_b):
        if any(sig_a[p] != sig_b[q] for p, q in zip(names, image)):
            continue
        name = dict(zip(names, image))
        # register i of state orbit p becomes register perm[p][i] of name[p]
        for perms in itertools.product(
            *(itertools.permutations(range(sig_a[p][0])) for p in names)
        ):
            perm = dict(zip(names, perms))

            def move(q, vars_):
                moved = [None] * len(vars_)
                for i, v in enumerate(vars_):
                    moved[perm[q][i]] = v
                return name[q], tuple(moved)

            lines_a = set()
            for t in a.transitions:
                src, src_vars = move(t.src, t.src_vars)
                dst, dst_vars = move(t.dst, t.dst_vars)
                lines_a.add(_normal_line(TransitionLine(
                    src, src_vars, t.letter_tag, t.letter_vars, dst, dst_vars
                )))
            if lines_a == lines_b:
                return True
    return False


# -- acceptance reporting ------------------------------------------------

_acceptance_outcomes = []


def pytest_runtest_logreport(report):
    test_file = report.nodeid.split("::")[0]
    if report.when == "call" and test_file.endswith("tests/test_acceptance.py"):
        name = report.nodeid.split("::")[-1]
        _acceptance_outcomes.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if _acceptance_outcomes:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, outcome in _acceptance_outcomes:
            terminalreporter.write_line(f"  {name}: {outcome}")
