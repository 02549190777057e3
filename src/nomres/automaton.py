"""Symbolic nondeterministic nominal automata over equality atoms.

States come in orbits: an orbit has a name and a register dimension, and
its elements are the name paired with a tuple of pairwise-distinct atoms.
The transition relation is a finite list of lines; within one line equal
variable names mean equal atoms and distinct names mean distinct atoms,
so each line denotes exactly one orbit of transition triples.  Guessing
(a destination variable bound nowhere else) is allowed.

Membership is decided by breadth-first exploration of configurations,
one letter at a time.  A register holds an atom already read (a
non-negative int) or a marker (a negative int) that stands for an atom
not read yet: initial states start with a marker in every register, and
a guess takes an atom already read or a new marker.  When a letter
brings an atom for the first time, the atom resolves the marker of the
register a transition line compares it with, or no marker at all.
Markers are renumbered -1, -2, ... in slot order, so each configuration
has one canonical form, and a frontier holds at most
|states| * (atoms read + 2) ** (largest dimension) configurations.
A step finds a letter's arity and its lines in one lookup of the
compiled table, and each compiled line builds its successors already
canonical.

A run along one word (`accepts`, `run_frontier`) also knows the rest of
the word: once a read atom's last occurrence has passed, it is demoted
to None, which no later letter matches and no later atom resolves.
`accepts_each` walks a prefix tree of word orbits instead, any list
that puts each word after its parent (as `word_orbit_tree` does):
each word steps once from the frontier of its parent's index, and
every word's frontier is kept until the walk ends.  It cannot see the
rest of a word, so it demotes nothing, and it makes each distinct
step, with its verdict, once per walk.
`accepts` keeps no such memo: a command-line membership query parses
its automaton afresh, so none of its steps repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import AlphabetSpec, Letter, Word, letter_patterns, split_into_a_orbits


class AutomatonFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AlphabetMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class StateOrbit:
    name: str
    dimension: int

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError("dimension must be non-negative")


@dataclass(frozen=True)
class TransitionLine:
    src: str
    src_vars: tuple
    letter_tag: str
    letter_vars: tuple
    dst: str
    dst_vars: tuple

    def render(self):
        def part(name, vars_):
            return f"{name}({','.join(vars_)})" if vars_ else name

        return (
            f"trans {part(self.src, self.src_vars)} "
            f"{part(self.letter_tag, self.letter_vars)} "
            f"{part(self.dst, self.dst_vars)}"
        )


class _CompiledLine:
    """A transition line pre-chewed for the simulator."""

    __slots__ = ("dst", "reg_ops", "new_pos", "dup_ops", "picks", "guess_count")

    def __init__(self, line: TransitionLine):
        self.dst = line.dst
        # each variable's index in regs + atoms + guesses, the one pool
        # that destination registers pick from
        pool = {v: i for i, v in enumerate(line.src_vars)}
        base = len(pool)
        reg_ops, new_pos, dup_ops = [], [], []
        for j, v in enumerate(line.letter_vars):
            i = pool.get(v)
            if i is None:
                pool[v] = base + j
                new_pos.append(j)
            elif i < base:
                reg_ops.append((j, i))
            else:
                dup_ops.append((j, i - base))
        self.reg_ops = tuple(reg_ops)
        self.new_pos = tuple(new_pos)
        self.dup_ops = tuple(dup_ops)
        base += len(line.letter_vars)
        picks = []
        guesses = 0
        for v in line.dst_vars:
            i = pool.get(v)
            if i is None:
                i = base + guesses
                guesses += 1
            picks.append(i)
        self.picks = tuple(picks)
        self.guess_count = guesses

    def fire(self, regs, atoms, fresh=()):
        """The source registers, with the markers this line resolves, when
        the line reads the letter atoms from them; None when it cannot.

        A letter atom in a register slot either equals the register or,
        when the atom occurs for the first time (is in fresh), resolves the
        unread marker held there.  Every other letter atom must differ from
        all registers and from the other letter variables.
        """
        for pos, slot in self.reg_ops:
            atom = atoms[pos]
            held = regs[slot]
            if held != atom:
                if held is None or held >= 0 or atom not in fresh or atom in regs:
                    return None
                regs = regs[:slot] + (atom,) + regs[slot + 1:]
        seen = ()
        for pos in self.new_pos:
            atom = atoms[pos]
            if atom in regs or atom in seen:
                return None
            seen += (atom,)
        for pos, first in self.dup_ops:
            if atoms[pos] != atoms[first]:
                return None
        return regs

    def successors(self, regs, atoms, keep):
        """All canonical destination configurations (dst, registers).

        A guess takes an atom of keep (read, and still of use) or a new
        marker.  As each register is picked, a marker is renumbered
        -1, -2, ... in slot order and a read atom outside keep is
        demoted to None.
        """
        pool = regs + atoms
        if self.guess_count:
            pools = _with_guesses(pool, keep, -1 - len(regs), self.guess_count)
        else:
            pools = (pool,)
        out = []
        for values in pools:
            dst = []
            marker = -1
            for p in self.picks:
                v = values[p]
                if v is not None:
                    if v < 0:
                        v = marker
                        marker -= 1
                    elif v not in keep:
                        v = None
                dst.append(v)
            out.append((self.dst, tuple(dst)))
        return out


def _with_guesses(pool, candidates, marker_base, n):
    """pool extended by n values, pairwise distinct and not in pool, from
    candidates plus new markers."""
    if n == 0:
        yield pool
        return
    for rest in _with_guesses(pool, candidates, marker_base - 1, n - 1):
        for c in candidates:
            if c not in rest:
                yield rest + (c,)
        yield rest + (marker_base,)


class SymbolicAutomaton:
    """An orbit-level description of a nondeterministic nominal automaton."""

    def __init__(self, alphabet, states, initial, final, transitions):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.transitions = tuple(transitions)
        self._validate()
        self._compiled = None

    def _validate(self):
        by_name = {q.name: q for q in self.states}
        if len(by_name) != len(self.states):
            raise AutomatonFormatError("duplicate state name")
        for group, label in ((self.initial, "initial"), (self.final, "final")):
            for name in group:
                if name not in by_name:
                    raise AutomatonFormatError(f"unknown {label} state {name!r}")
        for t in self.transitions:
            for name, vars_ in ((t.src, t.src_vars), (t.dst, t.dst_vars)):
                q = by_name.get(name)
                if q is None:
                    raise AutomatonFormatError(f"unknown state {name!r} in transition")
                if len(vars_) != q.dimension:
                    raise AutomatonFormatError(
                        f"state {name!r} has dimension {q.dimension}, got {len(vars_)} variables"
                    )
                if len(set(vars_)) != len(vars_):
                    raise AutomatonFormatError(
                        f"repeated register variable on state {name!r}"
                    )
            if t.letter_tag not in self.alphabet:
                raise AutomatonFormatError(f"unknown tag {t.letter_tag!r} in transition")
            if self.alphabet.arity(t.letter_tag) != len(t.letter_vars):
                raise AutomatonFormatError(
                    f"tag {t.letter_tag!r} has arity {self.alphabet.arity(t.letter_tag)}"
                )

    def compiled(self):
        """The compiled lines of every tag, as {tag: (arity, {source
        state: lines})}."""
        if self._compiled is None:
            table = {tag: (arity, {}) for tag, arity in self.alphabet.constructors}
            for t in self.transitions:
                table[t.letter_tag][1].setdefault(t.src, []).append(_CompiledLine(t))
            self._compiled = table
        return self._compiled

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicAutomaton)
            and self.alphabet == other.alphabet
            and set(self.states) == set(other.states)
            and self.initial == other.initial
            and self.final == other.final
            and set(self.transitions) == set(other.transitions)
        )

    def __repr__(self):
        return (
            f"SymbolicAutomaton({len(self.states)} state orbits, "
            f"{len(self.transitions)} transition lines)"
        )


# -- text format ------------------------------------------------------------

def _parse_spec(token, line_no):
    """name or name(v1,...,vk) -> (name, vars); no name may be empty,
    and name() has no vars."""
    name, paren, body = token.partition("(")
    vars_ = tuple(body[:-1].split(",")) if paren and body != ")" else ()
    if not name or paren and not body.endswith(")") or "" in vars_:
        raise AutomatonFormatError(f"malformed {token!r}", line_no)
    return name, vars_


# The largest state dimension and constructor arity a file may declare.
# Work grows with them much faster than with the file's length:
# `universal` and `anchor --top` list every letter orbit of a
# constructor, Bell(arity) of them (Bell(8) = 4,140; Bell(12) =
# 4,213,597), and a frontier may hold (atoms read + 2) ** dimension
# configurations per state orbit.  The paper's automata need at most 3.
MAX_DIMENSION = 8


def _dimension(token, what, line_no):
    """A declared state dimension or arity: an int from 0 to MAX_DIMENSION."""
    try:
        n = int(token)
    except ValueError:
        raise AutomatonFormatError(f"{what} must be an int", line_no) from None
    if not 0 <= n <= MAX_DIMENSION:
        raise AutomatonFormatError(
            f"{what} must be 0 to {MAX_DIMENSION}, got {n}", line_no
        )
    return n


def parse(text: str) -> SymbolicAutomaton:
    """Parse the line-based automaton format (see `render` for the shape)."""
    constructors = []
    states = []
    initial = []
    final = []
    transitions = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "alphabet":
            if len(args) != 2:
                raise AutomatonFormatError("alphabet takes: tag arity", line_no)
            constructors.append((args[0], _dimension(args[1], "arity", line_no)))
        elif kind == "state":
            if len(args) != 2:
                raise AutomatonFormatError("state takes: name dimension", line_no)
            states.append(
                StateOrbit(args[0], _dimension(args[1], "state dimension", line_no))
            )
        elif kind == "initial":
            initial.extend(args)
        elif kind == "final":
            final.extend(args)
        elif kind == "trans":
            if len(args) != 3:
                raise AutomatonFormatError("trans takes: src letter dst", line_no)
            src, src_vars = _parse_spec(args[0], line_no)
            tag, letter_vars = _parse_spec(args[1], line_no)
            dst, dst_vars = _parse_spec(args[2], line_no)
            transitions.append(
                TransitionLine(src, src_vars, tag, letter_vars, dst, dst_vars)
            )
        else:
            raise AutomatonFormatError(f"unknown directive {kind!r}", line_no)
    if not constructors:
        raise AutomatonFormatError("missing alphabet declaration")
    try:
        return SymbolicAutomaton(
            AlphabetSpec(constructors), states, initial, final, transitions
        )
    except ValueError as e:
        if isinstance(e, AutomatonFormatError):
            raise
        raise AutomatonFormatError(str(e)) from None


def render(aut: SymbolicAutomaton) -> str:
    out = []
    for tag, arity in aut.alphabet.constructors:
        out.append(f"alphabet {tag} {arity}")
    for q in aut.states:
        out.append(f"state {q.name} {q.dimension}")
    if aut.initial:
        out.append("initial " + " ".join(sorted(aut.initial)))
    if aut.final:
        out.append("final " + " ".join(sorted(aut.final)))
    for t in aut.transitions:
        out.append(t.render())
    return "\n".join(out) + "\n"


# -- simulation --------------------------------------------------------------

def _markers(dimension):
    return tuple(range(-1, -1 - dimension, -1))


def _step(aut, frontier, letter, fresh, keep):
    """The canonical configurations after reading one letter, as a
    frozenset.

    fresh lists the letter atoms read for the first time; keep holds the
    read atoms that may still be compared, and guesses draw from it.
    """
    try:
        arity, lines = aut.compiled()[letter.tag]
    except KeyError:
        raise AlphabetMismatchError(f"unknown tag {letter.tag!r}") from None
    atoms = letter.atoms
    if arity != len(atoms):
        raise AlphabetMismatchError(f"arity mismatch for {letter.tag!r}")
    nxt = set()
    for state, regs in frontier:
        for cl in lines.get(state, ()):
            src = cl.fire(regs, atoms, fresh)
            if src is not None:
                nxt.update(cl.successors(src, atoms, keep))
    return frozenset(nxt)


def _initial_frontier(aut):
    return frozenset(
        (q.name, _markers(q.dimension)) for q in aut.states if q.name in aut.initial
    )


def _run(aut, w):
    """The frontier after w.  Knowing where each atom occurs last, each
    step keeps only the read atoms that occur again."""
    last = {a: i for i, letter in enumerate(w) for a in letter.atoms}
    frontier = _initial_frontier(aut)
    live = set()  # the read atoms that occur again
    for i, letter in enumerate(w):
        # an atom read before and occurring here is still live
        fresh = [a for a in letter.atoms if a not in live]
        for a in letter.atoms:
            if last[a] == i:
                live.discard(a)
            else:
                live.add(a)
        frontier = _step(aut, frontier, letter, fresh, live)
    return frontier


def run_frontier(aut: SymbolicAutomaton, w: Word):
    """The set of configurations reachable on w.

    At the end of a word no atom can occur again, so every register
    holds a marker: -1, -2, ... in slot order.
    """
    return frozenset((state, _markers(len(regs))) for state, regs in _run(aut, w))


def accepts(aut: SymbolicAutomaton, w: Word) -> bool:
    """Does some run of the (possibly guessing) automaton accept w?"""
    return any(state in aut.final for state, _ in _run(aut, w))


def accepts_each(aut: SymbolicAutomaton, words, parents):
    """Yield accepts(aut, w) for each w of words, one step per word.

    words lists canonical word-orbit representatives, each after its
    parent: ``parents[i] < i`` and ``words[parents[i]] == words[i][:-1]``
    for every nonempty word i, as `word_orbit_tree` gives them.  Word i
    steps once from the node of word parents[i]; the empty word takes
    the initial node.  Every word's node is kept until the call ends.
    The rest of a word is unknown here, so no atom is demoted.

    Many words share a step: the prefix's frontier, the letter and the
    number of atoms the prefix read fix the fresh atoms and the kept
    ones, hence the next frontier and its verdict.  Each distinct step
    is made once per call, in a memo that ends with the call.
    """
    # (prefix frontier, letter, atoms the prefix read)
    #   -> (frontier, atoms read, accepted)
    steps = {}
    frontier = _initial_frontier(aut)
    root = (frontier, 0, any(state in aut.final for state, _ in frontier))
    nodes = []
    for i, w in enumerate(words):
        node = root
        if w:
            frontier, read, _ = nodes[parents[i]]
            letter = w[-1]
            key = (frontier, letter, read)
            node = steps.get(key)
            if node is None:
                # canonical atoms: the prefix read 0 .. read-1
                fresh = [a for a in letter.atoms if a >= read]
                read += len(set(fresh))
                frontier = _step(aut, frontier, letter, fresh, range(read))
                node = steps[key] = (
                    frontier, read, any(state in aut.final for state, _ in frontier)
                )
        nodes.append(node)
        yield node[2]


# -- structural checks and constructions -------------------------------------

@dataclass(frozen=True)
class UniversalityResult:
    universal: bool
    reason: str | None = None
    state: str | None = None
    letter: Letter | None = None

    def describe(self) -> str:
        if self.universal:
            return "universal"
        if self.reason == "empty-initial":
            return "not universal: no initial state"
        if self.reason == "non-final-state":
            return f"not universal: non-final state {self.state}"
        return (
            f"not universal: no transition from {self.state} "
            f"on {self.letter.render()}"
        )


def is_universal_residual(aut: SymbolicAutomaton) -> UniversalityResult:
    """Decide universality, assuming the input automaton is residual.

    Residuality itself is undecidable and is the caller's promise.  The
    answer is no when there is no initial state, some state orbit is not
    final, or some (state, letter) orbit has no outgoing transition;
    otherwise every state accepts everything and the answer is yes.
    """
    if not aut.initial:
        return UniversalityResult(False, "empty-initial")
    for q in aut.states:
        if q.name not in aut.final:
            return UniversalityResult(False, "non-final-state", state=q.name)
    compiled = aut.compiled()
    for q in aut.states:
        regs = tuple(range(q.dimension))
        for tag, arity in aut.alphabet.constructors:
            lines = compiled[tag][1].get(q.name, ())
            for base in letter_patterns(tag, arity):
                for inst in split_into_a_orbits(Word([base]), set(regs)):
                    letter = inst[0]
                    if all(cl.fire(regs, letter.atoms) is None for cl in lines):
                        return UniversalityResult(
                            False, "missing-transition", state=q.name, letter=letter
                        )
    return UniversalityResult(True)


def _unused_name(name, taken):
    """The first of name, name', name'', ... that is not taken."""
    while name in taken:
        name += "'"
    return name


def _pattern_loop_lines(state_name, alphabet):
    """Self-loops on every letter orbit of the given alphabet constructors."""
    lines = []
    for tag, arity in alphabet.constructors:
        for letter in letter_patterns(tag, arity):
            vars_ = tuple(f"x{a}" for a in letter.atoms)
            lines.append(TransitionLine(state_name, (), tag, vars_, state_name, ()))
    return lines


def _anchored_parts(aut: SymbolicAutomaton):
    anchor_tags = []
    release_tags = []
    for q in aut.states:
        for prefix, bag in (("uq_", anchor_tags), ("q_", release_tags)):
            tag = prefix + q.name
            if tag in aut.alphabet:
                raise ValueError(f"anchor tag {tag!r} collides with the alphabet")
            bag.append((tag, q.dimension))
    alphabet = AlphabetSpec(
        aut.alphabet.constructors + tuple(anchor_tags) + tuple(release_tags)
    )
    anchor_states = []
    lines = []
    for q in aut.states:
        anchor = "uq_" + q.name
        if anchor in {s.name for s in aut.states}:
            raise ValueError(f"anchor state {anchor!r} collides with a state name")
        anchor_states.append(StateOrbit(anchor, q.dimension))
        vars_ = tuple(f"x{i}" for i in range(q.dimension))
        lines.append(TransitionLine(anchor, vars_, "uq_" + q.name, vars_, anchor, vars_))
        lines.append(TransitionLine(anchor, vars_, "q_" + q.name, vars_, q.name, vars_))
    return alphabet, tuple(anchor_states), tuple(lines)


def anchor(aut: SymbolicAutomaton) -> SymbolicAutomaton:
    """Add an anchored twin for every state orbit.

    The alphabet gains one anchor letter uq_<name> and one release letter
    q_<name> per state orbit (arity = orbit dimension).  Anchor states
    are initial, loop on their own anchor letter and fall into the real
    state on the release letter, so every state becomes anchored while
    words over the original alphabet are accepted exactly as before.
    """
    alphabet, anchor_states, lines = _anchored_parts(aut)
    return SymbolicAutomaton(
        alphabet,
        aut.states + anchor_states,
        set(aut.initial) | {q.name for q in anchor_states},
        aut.final,
        aut.transitions + lines,
    )


def anchor_top(aut: SymbolicAutomaton) -> SymbolicAutomaton:
    """The anchored twin that is universal on the original alphabet.

    On top of `anchor`, a fresh 0-dimensional state `top` (primed until
    its name is unused) is initial and final and loops on every original
    letter orbit; the original initial states are dropped from the
    initial set.
    """
    alphabet, anchor_states, lines = _anchored_parts(aut)
    top = _unused_name("top", {q.name for q in aut.states + anchor_states})
    return SymbolicAutomaton(
        alphabet,
        aut.states + anchor_states + (StateOrbit(top, 0),),
        {q.name for q in anchor_states} | {top},
        set(aut.final) | {top},
        aut.transitions + lines + tuple(_pattern_loop_lines(top, aut.alphabet)),
    )


def universal_automaton(alphabet: AlphabetSpec) -> SymbolicAutomaton:
    """The one-state automaton accepting every word."""
    return SymbolicAutomaton(
        alphabet,
        [StateOrbit("q", 0)],
        ["q"],
        ["q"],
        _pattern_loop_lines("q", alphabet),
    )
