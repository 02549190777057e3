"""Symbolic nondeterministic nominal automata over equality atoms.

States come in orbits: an orbit has a name and a register dimension, and
its elements are the name paired with a tuple of pairwise-distinct atoms.
The transition relation is a finite list of lines; within one line equal
variable names mean equal atoms and distinct names mean distinct atoms,
so each line denotes exactly one orbit of transition triples.  Guessing
(a destination variable bound nowhere else) is allowed.

Membership is decided by breadth-first exploration of canonical
configurations.  A configuration maps registers to concrete word atoms
(non-negative ints) or to abstract fresh markers (negative ints,
renumbered -1, -2, ... in slot order); a marker stands for an atom that
does not occur in the remaining input, which is the only distinction the
rest of the run can observe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import (
    AlphabetSpec,
    Letter,
    Word,
    canonicalize,
    letter_patterns,
    split_into_a_orbits,
    enumerate_word_orbits,
)


class AutomatonFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AlphabetMismatchError(ValueError):
    pass


class SimulationLimitError(RuntimeError):
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

    __slots__ = ("line", "dst", "letter_ops", "dst_ops", "guess_count", "multi_new")

    def __init__(self, line: TransitionLine):
        self.line = line
        self.dst = line.dst
        src_pos = {v: i for i, v in enumerate(line.src_vars)}
        seen_letter = {}
        ops = []
        for j, v in enumerate(line.letter_vars):
            if v in src_pos:
                ops.append(("reg", src_pos[v]))
            elif v in seen_letter:
                ops.append(("dup", seen_letter[v]))
            else:
                seen_letter[v] = j
                ops.append(("new", j))
        self.letter_ops = tuple(ops)
        guesses = {}
        dst_ops = []
        for v in line.dst_vars:
            if v in src_pos:
                dst_ops.append(("reg", src_pos[v]))
            elif v in seen_letter:
                dst_ops.append(("let", seen_letter[v]))
            else:
                if v not in guesses:
                    guesses[v] = len(guesses)
                dst_ops.append(("guess", guesses[v]))
        self.dst_ops = tuple(dst_ops)
        self.guess_count = len(guesses)
        self.multi_new = sum(1 for k, _ in self.letter_ops if k == "new") > 1

    def match(self, regs, letter_atoms):
        """True when the line fires for this (configuration, letter) pair."""
        seen = None
        for i, (kind, arg) in enumerate(self.letter_ops):
            atom = letter_atoms[i]
            if kind == "reg":
                if regs[arg] != atom:
                    return False
            elif kind == "new":
                # bound to no register: must differ from every other value
                if atom in regs:
                    return False
                if self.multi_new:
                    if seen is not None and atom in seen:
                        return False
                    seen = (atom,) if seen is None else seen + (atom,)
            else:  # dup
                if letter_atoms[arg] != atom:
                    return False
        return True

    def successors(self, regs, letter_atoms, future_atoms):
        """All destination register tuples, enumerating guessed values.

        A guessed atom is either an atom of the remaining input or a new
        fresh marker; anything else behaves like a fresh marker for the
        rest of the run.
        """
        if self.guess_count == 0:
            yield tuple(
                [regs[a] if k == "reg" else letter_atoms[a] for k, a in self.dst_ops]
            )
            return
        used = set(regs)
        used.update(letter_atoms)
        candidates = [a for a in future_atoms if a not in used]
        marker = min((r for r in regs if r < 0), default=0) - 1
        for chosen in _distinct_choices(candidates, marker, self.guess_count):
            yield tuple(
                [
                    regs[a] if k == "reg" else letter_atoms[a] if k == "let" else chosen[a]
                    for k, a in self.dst_ops
                ]
            )


def _distinct_choices(candidates, marker_base, n):
    """Tuples of n pairwise-distinct values from candidates plus new markers."""
    if n == 0:
        yield ()
        return
    for rest in _distinct_choices(candidates, marker_base - 1, n - 1):
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
        self._by_name = {q.name: q for q in self.states}
        self._validate()
        self._compiled = None
        self._reversed = None
        self._accept_cache = {}

    def _validate(self):
        if len(self._by_name) != len(self.states):
            raise AutomatonFormatError("duplicate state name")
        for group, label in ((self.initial, "initial"), (self.final, "final")):
            for name in group:
                if name not in self._by_name:
                    raise AutomatonFormatError(f"unknown {label} state {name!r}")
        for t in self.transitions:
            for name, vars_ in ((t.src, t.src_vars), (t.dst, t.dst_vars)):
                q = self._by_name.get(name)
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

    def state(self, name) -> StateOrbit:
        return self._by_name[name]

    def compiled(self):
        if self._compiled is None:
            table = {}
            for t in self.transitions:
                table.setdefault((t.src, t.letter_tag), []).append(_CompiledLine(t))
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
    """name or name(v1,...,vk) -> (name, vars)."""
    if "(" in token:
        if not token.endswith(")"):
            raise AutomatonFormatError(f"malformed {token!r}", line_no)
        name, body = token[:-1].split("(", 1)
        vars_ = tuple(v.strip() for v in body.split(",")) if body.strip() else ()
    else:
        name, vars_ = token, ()
    if not name:
        raise AutomatonFormatError(f"malformed {token!r}", line_no)
    return name, vars_


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
            try:
                constructors.append((args[0], int(args[1])))
            except ValueError:
                raise AutomatonFormatError("arity must be an int", line_no) from None
        elif kind == "state":
            if len(args) != 2:
                raise AutomatonFormatError("state takes: name dimension", line_no)
            try:
                states.append(StateOrbit(args[0], int(args[1])))
            except ValueError:
                raise AutomatonFormatError("bad state dimension", line_no) from None
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

def _canon_config(state, values, future_atoms):
    """Canonical form of a configuration relative to the remaining input.

    Atoms that cannot occur again are indistinguishable from fresh
    markers, so they are demoted to markers; markers are renumbered
    -1, -2, ... in slot order.
    """
    for v in values:
        if v < 0 or v not in future_atoms:
            break
    else:
        return (state, values)
    relabel = {}
    out = []
    for v in values:
        if v >= 0 and v in future_atoms:
            out.append(v)
        else:
            if v not in relabel:
                relabel[v] = -1 - len(relabel)
            out.append(relabel[v])
    return (state, tuple(out))


def _initial_configs(aut, future_atoms):
    """Every canonical register filling for every initial orbit."""
    atoms = sorted(future_atoms)
    out = set()
    for name in sorted(aut.initial):
        k = aut.state(name).dimension

        def rec(filled, marker):
            if len(filled) == k:
                out.add((name, tuple(filled)))
                return
            for a in atoms:
                if a not in filled:
                    rec(filled + [a], marker)
            rec(filled + [marker], marker - 1)

        rec([], -1)
    return out


def _simulation_cost(aut, orbit_names, word_len):
    return sum(
        (word_len + aut.state(n).dimension) ** aut.state(n).dimension
        for n in orbit_names
    )


def _check_word(aut, w):
    for letter in w:
        if letter.tag not in aut.alphabet:
            raise AlphabetMismatchError(f"unknown tag {letter.tag!r}")
        if aut.alphabet.arity(letter.tag) != len(letter.atoms):
            raise AlphabetMismatchError(f"arity mismatch for {letter.tag!r}")


def _suffix_atom_sets(w):
    sets = [frozenset()] * (len(w) + 1)
    acc = frozenset()
    for i in range(len(w) - 1, -1, -1):
        acc = acc | frozenset(w[i].atoms)
        sets[i] = acc
    return sets


def _run_loop(aut, w, frontier, suffix_atoms):
    compiled = aut.compiled()
    max_dim = max((q.dimension for q in aut.states), default=0)
    distinct = len(suffix_atoms[0]) if suffix_atoms else 0
    guard = max(1, len(aut.states)) * (distinct + max_dim + 1) ** max_dim
    for i, letter in enumerate(w):
        future = suffix_atoms[i + 1]
        nxt = set()
        for state, regs in frontier:
            for cl in compiled.get((state, letter.tag), ()):
                if not cl.match(regs, letter.atoms):
                    continue
                for dst_regs in cl.successors(regs, letter.atoms, future):
                    nxt.add(_canon_config(cl.dst, dst_regs, future))
        frontier = nxt
        if not frontier:
            break
        if len(frontier) > guard:
            raise SimulationLimitError(
                f"configuration frontier exceeded {guard} entries"
            )
    return frozenset(frontier)


def run_frontier(aut: SymbolicAutomaton, w: Word):
    """The set of canonical configurations reachable on w.

    Registers hold word atoms or fresh markers (negative ints);
    configurations are canonical relative to the remaining input, so by
    the end registers holding atoms that no longer matter are markers.
    """
    _check_word(aut, w)
    suffix_atoms = _suffix_atom_sets(w)
    frontier = _initial_configs(aut, suffix_atoms[0])
    return _run_loop(aut, w, frontier, suffix_atoms)


def accepts_from(aut: SymbolicAutomaton, state_name: str, regs, w: Word) -> bool:
    """Acceptance starting from one concrete configuration."""
    _check_word(aut, w)
    suffix_atoms = _suffix_atom_sets(w)
    frontier = {_canon_config(state_name, tuple(regs), suffix_atoms[0])}
    final = _run_loop(aut, w, frontier, suffix_atoms)
    return any(state in aut.final for state, _ in final)


def accepts(aut: SymbolicAutomaton, w: Word, _allow_flip=True) -> bool:
    """Does some run of the (possibly guessing) automaton accept w?

    Acceptance is a property of the word's orbit, so results are cached
    per canonical form.  Simulation runs on the reversed automaton when
    the final orbits promise a smaller starting frontier.
    """
    _check_word(aut, w)
    key = canonicalize(w)
    cached = aut._accept_cache.get(key)
    if cached is not None:
        return cached
    if _allow_flip and len(w) > 0:
        fwd = _simulation_cost(aut, aut.initial, len(w))
        bwd = _simulation_cost(aut, aut.final, len(w))
        if bwd < fwd:
            if aut._reversed is None:
                aut._reversed = reverse(aut)
            result = accepts(aut._reversed, key.reversed(), _allow_flip=False)
            aut._accept_cache[key] = result
            return result
    frontier = run_frontier(aut, key)
    result = any(state in aut.final for state, _ in frontier)
    aut._accept_cache[key] = result
    return result


# -- structural checks and constructions -------------------------------------

def is_non_guessing(aut: SymbolicAutomaton) -> bool:
    """No stored atom that was not read: empty-support initial states and
    destination registers drawn from source registers and the letter."""
    for name in aut.initial:
        if aut.state(name).dimension != 0:
            return False
    for t in aut.transitions:
        known = set(t.src_vars) | set(t.letter_vars)
        if any(v not in known for v in t.dst_vars):
            return False
    return True


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
            lines = compiled.get((q.name, tag), ())
            for base in letter_patterns(tag, arity):
                for inst in split_into_a_orbits(Word([base]), set(regs)):
                    letter = inst[0]
                    if not any(cl.match(regs, letter.atoms) for cl in lines):
                        return UniversalityResult(
                            False, "missing-transition", state=q.name, letter=letter
                        )
    return UniversalityResult(True)


def bounded_residuality_witnesses(aut: SymbolicAutomaton, depth: int):
    """Diagnostic only: states with no characterising word of length <= depth.

    For the representative instance of each state orbit (registers
    0..d-1), search for a word w, placed in every position relative to
    the registers, whose derivative of L(aut) agrees with the instance's
    language on all probe words up to the same depth.  Residuality is
    undecidable, so a non-empty answer is inconclusive.
    """
    missing = []
    patterns = enumerate_word_orbits(aut.alphabet, depth)
    for q in aut.states:
        regs = tuple(range(q.dimension))
        probes = [
            u for pat in patterns for u in split_into_a_orbits(pat, set(regs))
        ]
        found = False
        for pat in patterns:
            for w in split_into_a_orbits(pat, set(regs)):
                if all(
                    accepts(aut, w + u) == accepts_from(aut, q.name, regs, u)
                    for u in probes
                ):
                    found = True
                    break
            if found:
                break
        if not found:
            missing.append(q.name)
    return missing


def union(a1: SymbolicAutomaton, a2: SymbolicAutomaton) -> SymbolicAutomaton:
    """Disjoint union: accepts L(a1) | L(a2).  Right states are renamed on clash."""
    if a1.alphabet != a2.alphabet:
        raise AlphabetMismatchError("union needs identical alphabets")
    taken = {q.name for q in a1.states}
    rename = {}
    for q in a2.states:
        name = _unused_name(q.name, taken)
        rename[q.name] = name
        taken.add(name)
    states = a1.states + tuple(StateOrbit(rename[q.name], q.dimension) for q in a2.states)
    transitions = a1.transitions + tuple(
        TransitionLine(
            rename[t.src], t.src_vars, t.letter_tag, t.letter_vars, rename[t.dst], t.dst_vars
        )
        for t in a2.transitions
    )
    return SymbolicAutomaton(
        a1.alphabet,
        states,
        set(a1.initial) | {rename[n] for n in a2.initial},
        set(a1.final) | {rename[n] for n in a2.final},
        transitions,
    )


def _unused_name(name, taken):
    """The first of name, name', name'', ... that is not taken."""
    while name in taken:
        name += "'"
    return name


def reverse(aut: SymbolicAutomaton) -> SymbolicAutomaton:
    """Accepts exactly the reversed words of L(aut)."""
    return SymbolicAutomaton(
        aut.alphabet,
        aut.states,
        aut.final,
        aut.initial,
        tuple(
            TransitionLine(t.dst, t.dst_vars, t.letter_tag, t.letter_vars, t.src, t.src_vars)
            for t in aut.transitions
        ),
    )


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
