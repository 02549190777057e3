"""Observation table and the modified residual-automaton learner.

The row-label set S is always the set of all word orbits up to a length
bound (it starts at {eps} and, when the table is not join-closed, jumps
to include every word of the defect's length, which is what makes the
loop find all characterising words eventually).  The column set E grows
by orbits of suffixes, from consistency defects and counterexamples.

Cell words are canonical by construction: a label's atoms are 0..k-1,
and `split_into_a_orbits` numbers its columns' fresh atoms k, k+1, ...
by first occurrence, so ``label + e`` is its orbit's canonical word.
`answers` is keyed by it, and has one entry per membership query.

Join-consistency asks, for every placement pi with row(s1) <= pi.row(s2),
whether row(s1.a) <= pi.row(s2.a) for every letter a.  Each label s of S
has an extension row X(s) over a second column set, Sigma.E: the orbits
of a.e for every letter a and column e, and, suffix-closed, those of E.
Its cells s.a.e are cells of the extension labels s.a, so X(s) is read
off `answers`.  X(s1) <= pi.X(s2) is the letter-by-letter check itself,
so one comparison decides a placement; the letters are walked only at
the first placement that fails, comparing the rows of the concrete
words s1.a and pi(s2).a to name the letter and column of the defect.
Rows are equivariant, so the row of any renamed word of S u S.Sigma is
read off `answers` at its canonical cell words (`row_of`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict
from typing import Optional

from .orbits import (
    Word,
    EMPTY_WORD,
    canonicalize,
    count_word_orbits,
    enumerate_word_orbits,
    letter_patterns,
    split_into_a_orbits,
)
from .rows import (
    ColumnSet,
    OutOfTime,
    Row,
    dedup_by_orbit,
    first_difference,
    is_join_irreducible,
    placed_below,
    placed_leq,
    row_leq,
    _check_deadline,
    _realize,
)
from .automaton import (
    SymbolicAutomaton,
    StateOrbit,
    TransitionLine,
    accepts_each,
)


class TableNotClosed(RuntimeError):
    pass


class TableNotConsistent(RuntimeError):
    pass


class ObservationTable:
    """Membership observations over row labels S u S.Sigma and columns E.

    ``deadline``, a ``time.monotonic()`` value or None, bounds the
    table's work: every fill and every search of the table raises
    `OutOfTime` once it has passed.
    """

    def __init__(self, alphabet, oracle=None, deadline=None):
        self.alphabet = alphabet
        self.oracle = oracle
        self.deadline = deadline
        self.length = 0  # S is every word orbit of length <= this
        self.columns = ColumnSet()
        # Sigma.E, the orbits of a.e for every letter a and column e,
        # grown with E (`fill`); its block shapes stay for the table's life
        self._extended = ColumnSet()
        self.answers = {}
        self._rows = {}
        self._filled_at = None
        self._fill_caches()

    def _fill_caches(self):
        self._family = None
        self._ji_cache = {}
        self._extension_rows = {}

    # -- labels ---------------------------------------------------------

    def s_labels(self):
        return enumerate_word_orbits(self.alphabet, self.length)

    def all_labels(self):
        """S u S.Sigma; since S is length-bounded this is one length more."""
        return enumerate_word_orbits(self.alphabet, self.length + 1)

    # -- filling --------------------------------------------------------

    def _answer(self, oracle, w):
        if w not in self.answers:
            self.answers[w] = bool(oracle.member(w))
        return self.answers[w]

    def fill(self, oracle=None):
        """Build rows for every S u S.Sigma representative, querying once
        per new cell word, which is canonical by construction.  Raises
        `OutOfTime` once the deadline has passed, leaving it unfilled."""
        oracle = oracle or self.oracle
        if oracle is None:
            raise ValueError("no membership oracle")
        for letter in self._letters(frozenset()):
            for e in self.columns.instances(letter.atoms):
                self._extended.add(Word([letter]) + e)
        rows = {}
        for label in self.all_labels():
            _check_deadline(self.deadline)
            rows[label] = Row.build(
                label,
                self.columns,
                lambda e, label=label: self._answer(oracle, label + e),
            )
        self._rows = rows
        self._filled_at = (self.length, self.columns.version)
        self._fill_caches()
        return self

    def _require_filled(self):
        if self._filled_at != (self.length, self.columns.version):
            raise RuntimeError("table is not filled; call fill() first")

    def row(self, label) -> Row:
        self._require_filled()
        return self._rows[label]

    def row_of(self, w: Word) -> Row:
        """The row of any concrete word in the closure of S u S.Sigma,
        read off the answers at its canonical cell words and re-based on
        its least support (placements stay cheap that way)."""
        self._require_filled()
        return Row.build(
            w, self.columns, lambda e: self.answers[canonicalize(w + e)]
        ).reduced()

    # -- derived families -------------------------------------------------

    def rows_family(self):
        """Orbit representatives of Rows(T), deduplicated."""
        self._require_filled()
        if self._family is None:
            self._family = dedup_by_orbit(
                [self._rows[l] for l in self.all_labels()]
            )
        return self._family

    def _is_ji(self, r: Row) -> bool:
        """Join-irreducibility against the equivariant Rows(T) is the
        same for every row of an orbit, so it is cached per orbit."""
        key = r.orbit_key()
        cached = self._ji_cache.get(key)
        if cached is None:
            cached = is_join_irreducible(r, self.rows_family(), self.deadline)
            self._ji_cache[key] = cached
        return cached

    # -- closedness -------------------------------------------------------

    def find_closedness_defect(self) -> Optional[Word]:
        """The shortest extension label whose row is join-irreducible but
        not an upper row, in enumeration order; None when join-closed.
        Raises `OutOfTime` once the table's deadline has passed."""
        self._require_filled()
        labels = self.all_labels()  # by length: S, then S . Sigma \ S
        split = count_word_orbits(self.alphabet, self.length)
        uppers = {self._rows[s].orbit_key() for s in labels[:split]}
        for label in labels[split:]:
            _check_deadline(self.deadline)
            r = self._rows[label]
            if r.orbit_key() not in uppers and self._is_ji(r):
                return label
        return None

    def close_step(self, defect: Word):
        """Grow S to all word orbits up to the defect's length."""
        self.length = max(self.length, len(defect))
        if self.oracle is not None:
            self.fill()
        return self

    # -- consistency ------------------------------------------------------

    def _extension_row(self, s: Word) -> Row:
        """X(s), the row of a label of S over Sigma.E, on all its atoms.

        Each basis word c = a.e is canonical after s, so s + c is the
        cell word (s + a) + e of the extension label s + a, which the
        fill asked: X(s) asks no membership query.
        """
        x = self._extension_rows.get(s)
        if x is None:
            x = self._extension_rows[s] = Row.build(
                s, self._extended, lambda c: self.answers[s + c]
            )
        return x

    def _extension_class(self, s: Word) -> tuple:
        """The extension class of a label of S, as a key tuple: its atom
        count and the bits of X(s).

        Labels share a class when X(s) is one subset of Sigma.E on the
        same atoms, that is when row(s) and, letter by letter, row(s.a)
        are: Sigma.E holds E.  Labels and their letters are canonical,
        so atoms need no re-indexing, and every consistency verdict on a
        label pair depends only on the two classes and the placement.
        """
        x = self._extension_row(s)
        return len(x.support), x.bits

    def _ordered_pairs(self, labels):
        """Every (s1, s2, placement) with s1 and s2 in ``labels``,
        ``placement`` a renaming of s2's atoms relative to s1, and
        row(s1) <= row(s2.rename(placement)), in search order;
        placements cover overlapping supports.  Raises `OutOfTime`
        before a label pair (s1, s2), and before each placement of it
        that the atom tables admit, once the table's deadline has passed.

        row(s1) <= inj.row(s2) iff inj^-1.row(s1) <= row(s2): the atom
        tables of the least-support rows, read from s2's side, bound the
        injections of s2's atoms, their own positions, into s1's.
        """
        listed = []
        for s in labels:
            sup, r = sorted(frozenset(s.atoms())), self._rows[s].reduced()
            names = [r.support.index(a) if a in r.support_set else None for a in sup]
            listed.append((s, sup, r, names, [None if i is None else ~i for i in names]))
        for s1, sup1, r1, tgt, _ in listed:
            for s2, sup2, r2, _, src in listed:
                _check_deadline(self.deadline)
                for inj in placed_below(r1, r2, src, tgt, self.deadline):
                    yield s1, s2, _realize(inj, sup2, sup1)

    def _extensions_below(self, s1: Word, s2: Word, placement) -> bool:
        """Is row(s1.a) <= pi.row(s2.a) for every letter a, pi the
        placement of s2?  X(s).(a.e) is row(s.a).e, so this is X(s1) <=
        pi.X(s2): one comparison on the labels' full supports, whose
        atoms are their own positions, so the pattern is the placement."""
        x1, x2 = self._extension_row(s1), self._extension_row(s2)
        # pi^-1 places X(s1): atom pi(j) of s1 lands on atom j of s2
        pattern = tuple(sorted(
            (i, j) for j, i in placement.items() if i in x1.support_set
        ))
        return placed_leq(x1, x2, pattern)

    def find_consistency_defect(self):
        """A tuple (s1, s2, a, e) with row(s1) <= row(s2) yet a.e telling
        their extensions apart: the first in search order.  Raises
        `OutOfTime` once the table's deadline has passed.

        Each placement of a label pair is decided by one comparison of X
        rows (`_extensions_below`).  Only the first placement that fails
        is split letter by letter, one letter per joint orbit in search
        order: the defect's a.e is the orbit E gains, and so decides the
        rest of the run, and the first column where the X rows differ, in
        the order of Sigma.E, need not be the first letter's first column.

        Labels of one extension class give the same verdict for every
        placement, so only the first label of each class is paired up:
        the first pair of a class pair is always (first of the one class,
        first of the other), and a later pair of it has a defect only if
        that first pair has one.
        """
        self._require_filled()
        first = {}
        for s in self.s_labels():
            first.setdefault(self._extension_class(s), s)
        for s1, s2, placement in self._ordered_pairs(first.values()):
            if self._extensions_below(s1, s2, placement):
                continue
            s2c = s2.rename(placement)
            joint = frozenset(s1.atoms()) | frozenset(s2c.atoms())
            for letter in self._letters(joint):
                r1, r2 = self.row_of(s1 + letter), self.row_of(s2c + letter)
                if not row_leq(r1, r2):
                    return s1, s2c, letter, first_difference(r1, r2)
        return None

    def _letters(self, joint):
        """One letter per joint-orbit of letters, in search order."""
        return [
            inst[0]
            for tag in sorted(self.alphabet.tags)
            for base in letter_patterns(tag, self.alphabet.arity(tag))
            for inst in split_into_a_orbits(Word([base]), joint)
        ]

    def consistency_step(self, defect):
        """Add the orbit of a.e (and its suffixes, keeping E suffix-closed)."""
        _, _, letter, e = defect
        self.columns.add(Word([letter]) + e)
        if self.oracle is not None:
            self.fill()
        return self

    # -- counterexamples --------------------------------------------------

    def handle_counterexample(self, cex: Word):
        """Add the orbits of every suffix of the counterexample to E."""
        self.columns.add(cex)
        if self.oracle is not None:
            self.fill()
        return self

    # -- hypothesis -------------------------------------------------------

    def build_hypothesis(self, verify_preconditions=True) -> "Hypothesis":
        """The automaton of the table: states are the join-irreducible
        upper rows, transitions are all placements of a state below the
        extension row, guessing where the placement leaves the sources."""
        self._require_filled()
        if verify_preconditions:
            if self.find_closedness_defect() is not None:
                raise TableNotClosed("table is not join-closed")
            if self.find_consistency_defect() is not None:
                raise TableNotConsistent("table is not join-consistent")
        uppers = (self._rows[s] for s in self.s_labels())
        # reduced rows keep the label that owns them
        reduced = [r.reduced() for r in dedup_by_orbit(filter(self._is_ji, uppers))]

        states = []
        row_eps = self._rows[EMPTY_WORD]
        initial = []
        final = []
        transitions = []
        for i, r in enumerate(reduced):
            name = f"q{i}"
            regs = r.support
            states.append(StateOrbit(name, len(regs)))
            if row_leq(r, row_eps):
                initial.append(name)
            if r.value(EMPTY_WORD):
                final.append(name)
            owner_atoms = frozenset(r.owner.atoms())
            # one letter per orbit under renamings that fix the registers:
            # the owner's letters that read no owner atom the row forgot
            forgotten = owner_atoms.difference(regs)
            for letter in self._letters(owner_atoms):
                if forgotten.intersection(letter.atoms):
                    continue
                target = self.row_of(r.owner + letter)
                scope = sorted({*regs, *letter.atoms})
                # scope atoms off the target's support stay None
                at = {a: ~j for j, a in enumerate(target.support)}
                tgt = [at.get(a) for a in scope]
                for j, cand in enumerate(reduced):
                    sup = cand.support
                    for inj in placed_below(cand, target, range(len(sup)), tgt):
                        placement = _realize(((sup[d], scope[c]) for d, c in inj),
                                             sup, owner_atoms.union(scope))
                        transitions.append(self._line(
                            name, regs, letter, f"q{j}", tuple(placement[a] for a in sup)))
        automaton = SymbolicAutomaton(
            self.alphabet, states, initial, final, transitions
        )
        return Hypothesis(automaton)

    @staticmethod
    def _line(src, src_regs, letter, dst, dst_regs):
        names = {}
        for a in tuple(src_regs) + tuple(letter.atoms) + tuple(dst_regs):
            if a not in names:
                names[a] = f"x{len(names)}"
        return TransitionLine(
            src,
            tuple(names[a] for a in src_regs),
            letter.tag,
            tuple(names[a] for a in letter.atoms),
            dst,
            tuple(names[a] for a in dst_regs),
        )


@dataclass(frozen=True)
class Hypothesis:
    """A table-built automaton."""

    automaton: SymbolicAutomaton

    def state_orbit_count(self) -> int:
        return len(self.automaton.states)


def _prefix_closure(words):
    """The prefix closure of canonical words, and each word's parent
    index, as `accepts_each` takes them: prefixes in the order they are
    first seen, each after its parent."""
    index = {EMPTY_WORD: 0}  # prefix -> its place in the closure
    parents = [-1]
    for w in words:
        n = len(w)
        while w[:n] not in index:
            n -= 1  # the shorter prefixes are in already
        up = index[w[:n]]
        for n in range(n + 1, len(w) + 1):
            parents.append(up)
            up = index[w[:n]] = len(parents) - 1
    return list(index), parents


def hypothesis_agreement_violations(table: ObservationTable, hyp: Hypothesis):
    """Pairs (s, e) with s in S where simulating the hypothesis does not
    reproduce the table entry.  Empty for every hypothesis built from a
    join-closed, join-consistent table.

    Every prefix of a canonical word is canonical, so the hypothesis
    walks the prefix closure of the cells' canonical words in one
    `accepts_each` call."""
    cells = [
        (s, e, s + e)
        for s in table.s_labels()
        for e in table.columns.instances(s.atoms())
    ]
    words, parents = _prefix_closure(key for _, _, key in cells)
    accepted = dict(zip(words, accepts_each(hyp.automaton, words, parents)))
    return [(s, e) for s, e, key in cells if accepted[key] != table.answers[key]]


@dataclass
class LearnBudget:
    max_equivalence: int = 50
    max_length: int = 8
    wall_time: Optional[float] = None


@dataclass
class LearnStats:
    membership_queries: int = 0
    equivalence_queries: int = 0
    closedness_rounds: int = 0
    consistency_rounds: int = 0
    final_l: int = 0
    # which budget ran out: "length", "equivalence" or "wall_time";
    # None when the run converged
    divergence_reason: Optional[str] = None
    wall_time: float = 0.0
    agreement_violations: int = 0

    def to_dict(self):
        d = asdict(self)
        d["wall_time"] = round(d["wall_time"], 6)
        return d


@dataclass
class LearnResult:
    hypothesis: Optional[Hypothesis]
    stats: LearnStats

    @property
    def diverged(self) -> bool:
        return self.hypothesis is None


def learn(teacher, budget: LearnBudget = None, log=None) -> LearnResult:
    """Run the modified learning loop against a teacher.

    Repairs consistency and closedness, builds a hypothesis, asks an
    equivalence query, and folds counterexample suffixes into the
    columns; returns the accepted hypothesis, or a diverged result when
    any budget is exhausted (the expected outcome for languages no
    residual automaton accepts).  Every hypothesis is simulated against
    the table and its disagreements are counted in
    ``stats.agreement_violations``.  `log`, when given, receives one line
    per loop event.
    """
    budget = budget or LearnBudget()
    stats = LearnStats()
    start = time.monotonic()
    deadline = None if budget.wall_time is None else start + budget.wall_time
    emit = log if log is not None else (lambda line: None)
    table = ObservationTable(teacher.alphabet, teacher.membership, deadline)

    def finish(hyp, reason=None):
        stats.final_l = table.length
        stats.membership_queries = len(table.answers)  # one query per cell word
        stats.wall_time = time.monotonic() - start
        stats.divergence_reason = reason
        emit("diverged" if hyp is None else "accepted")
        return LearnResult(hyp, stats)

    consistent_at = None
    try:
        table.fill()
        while True:
            while True:
                _check_deadline(deadline)
                defect = table.find_closedness_defect()
                if defect is not None:
                    if len(defect) > budget.max_length:
                        emit(f"not-closed {defect.render()} exceeds length budget")
                        return finish(None, "length")
                    emit(
                        f"not-closed {defect.render()} "
                        f"row={table.row(defect).render()}; "
                        f"growing S to length {len(defect)}"
                    )
                    table.close_step(defect)
                    stats.closedness_rounds += 1
                # a search that found no defect holds until the table changes
                state = (table.length, table.columns.version)
                mismatch = None
                if state != consistent_at:
                    mismatch = table.find_consistency_defect()
                    if mismatch is None:
                        consistent_at = state
                if mismatch is not None:
                    s1, s2, letter, e = mismatch
                    emit(
                        f"not-consistent ({s1.render()}, {s2.render()}) "
                        f"split by {letter.render()}.{e.render()}; growing E"
                    )
                    table.consistency_step(mismatch)
                    stats.consistency_rounds += 1
                if defect is None and mismatch is None:
                    break
            hyp = table.build_hypothesis(verify_preconditions=False)
            emit(f"hypothesis with {hyp.state_orbit_count()} state orbits")
            stats.agreement_violations += len(
                hypothesis_agreement_violations(table, hyp)
            )
            if stats.equivalence_queries >= budget.max_equivalence:
                return finish(None, "equivalence")
            _check_deadline(deadline)
            stats.equivalence_queries += 1
            cex = teacher.equivalence.equivalent(hyp.automaton)
            if cex is None:
                return finish(hyp)
            emit(f"counterexample {cex.render()}")
            table.handle_counterexample(cex)
    except OutOfTime:
        return finish(None, "wall_time")
