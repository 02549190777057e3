import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nomres.orbits import (
    AlphabetSpec,
    Letter,
    Word,
    enumerate_word_orbits,
    parse_word,
    word_orbit_tree,
)
from nomres.automaton import (
    AlphabetMismatchError,
    AutomatonFormatError,
    StateOrbit,
    TransitionLine,
    accepts,
    accepts_each,
    anchor,
    anchor_top,
    is_universal_residual,
    parse,
    render,
    run_frontier,
    universal_automaton,
)
from nomres import automaton, corpus, learner

from conftest import random_automaton

LD = corpus.get("Ld").automaton
LN = corpus.get("Ln").automaton
LNGR = corpus.get("Lngr").automaton
CORPUS_NAMES = ["Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3"]


def perms(max_atom=6):
    return st.permutations(list(range(max_atom))).map(
        lambda img: dict(zip(range(len(img)), img))
    )


def words(max_len=5, max_atom=4):
    letter = st.builds(Letter, st.just("a"), st.tuples(st.integers(0, max_atom)))
    return st.lists(letter, max_size=max_len).map(Word)


class TestTextFormat:
    def test_render_parse_roundtrip(self):
        for aut in (LD, LN, LNGR, corpus.get("Ak:2").automaton):
            again = parse(render(aut))
            assert again == aut
            assert render(again) == render(aut)

    def test_render_of_universal_automaton_is_five_lines(self):
        text = render(universal_automaton(AlphabetSpec([("a", 1)])))
        assert len(text.strip().splitlines()) == 5

    def test_duplicate_source_variable_rejected(self):
        bad = """
        alphabet a 1
        state q 2
        initial q
        trans q(x,x) a(y) q(x,x)
        """
        with pytest.raises(AutomatonFormatError):
            parse(bad)

    @pytest.mark.parametrize("line", [
        "trans q a(x,) q", "trans q a(,x) q", "trans q(,) a(x) q", "trans q a(x) q(,)",
    ])
    def test_empty_variable_names_rejected(self, line):
        with pytest.raises(AutomatonFormatError, match="malformed"):
            parse(f"alphabet a 1\nstate q 0\n{line}\n")
        # q() is the zero-register spelling of q
        aut = parse("alphabet a 1\nstate q 0\ntrans q() a(x) q()\n")
        assert aut.transitions[0].src_vars == aut.transitions[0].dst_vars == ()

    def test_reports_line_numbers(self):
        with pytest.raises(AutomatonFormatError) as err:
            parse("alphabet a 1\nstate q zero\n")
        assert "line 2" in str(err.value)

    def test_unknown_state_and_tag(self):
        with pytest.raises(AutomatonFormatError):
            parse("alphabet a 1\nstate q 0\ninitial nope\n")
        with pytest.raises(AutomatonFormatError):
            parse("alphabet a 1\nstate q 0\ntrans q b(x) q\n")

    def test_arity_and_dimension_mismatches(self):
        with pytest.raises(AutomatonFormatError):
            parse("alphabet a 1\nstate q 0\ntrans q a(x,y) q\n")
        with pytest.raises(AutomatonFormatError):
            parse("alphabet a 1\nstate q 1\ntrans q a(x) q(x)\n")

    def test_dimension_and_arity_are_bounded(self):
        top = automaton.MAX_DIMENSION
        aut = parse(f"alphabet a {top}\nstate q {top}\ninitial q\n")
        assert aut.alphabet.dimension == aut.states[0].dimension == top
        for text in (f"alphabet a {top + 1}\nstate q 0\n",
                     f"alphabet a 1\nstate q {top + 1}\n",
                     "alphabet a 1\nstate q -1\n",
                     "alphabet a -1\nstate q 0\n"):
            with pytest.raises(AutomatonFormatError, match="must be 0 to"):
                parse(text)

    def test_corpus_and_anchored_automata_round_trip(self):
        names = ["Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3",
                 f"Ak:{automaton.MAX_DIMENSION}"]
        for name in names:
            aut = corpus.get(name).automaton
            for a in (aut, anchor(aut), anchor_top(aut)):
                assert parse(render(a)) == a

    def test_comments_and_blank_lines(self):
        aut = parse("# header\nalphabet a 1\n\nstate q 0  # trailing\ninitial q\n")
        assert aut.states == (StateOrbit("q", 0),)


class TestAcceptance:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a(1) a(2) a(1)", True),
            ("a(1) a(2)", False),
            ("a(0) a(1) a(2)", False),
            ("a(3) a(3)", True),
            ("eps", False),
        ],
    )
    def test_first_equals_last(self, text, expected):
        assert accepts(LD, parse_word(text)) is expected

    def test_guessing_automaton(self):
        assert accepts(LN, parse_word("a(1) a(2)"))
        assert not accepts(LN, parse_word("a(1) a(2) a(1)"))
        assert accepts(LN, parse_word("eps"))

    def test_guess_takes_a_read_atom(self):
        # the guess on c may take the atom read before it, and a marker
        # may take an atom read after it
        aut = parse(
            """
            alphabet a 1
            alphabet c 0
            state p 0
            state q 0
            state r 1
            state f 0
            initial p
            final f
            trans p a(x) q
            trans q c r(y)
            trans r(y) a(y) f
            """
        )
        for text in ("a(0) c a(0)", "a(0) c a(1)"):
            assert accepts(aut, parse_word(text))
        assert not accepts(aut, parse_word("a(0) c"))
        words, parents = word_orbit_tree(aut.alphabet, 3)
        walked = dict(zip(words, accepts_each(aut, words, parents)))
        assert walked[parse_word("a(0) c a(0)")] and walked[parse_word("a(0) c a(1)")]

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            accepts(LD, Word([Letter("anc", (1,))]))

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["tag", "arity"])
    def test_alphabet_mismatch_at_any_letter(self, kind, at):
        """Every driver refuses a letter outside the alphabet wherever it
        stands, also once the frontier is empty: `b` is the only letter
        the second automaton reads."""
        bad = Letter("anc", (at,)) if kind == "tag" else Letter("a", (at, at + 1))
        letters = [Letter("a", (i,)) for i in range(5)]
        letters[at] = bad
        w = Word(letters)
        prefixes = [Word(w[:i]) for i in range(len(w) + 1)]
        parents = range(-1, len(w))
        b_only = parse("alphabet a 1\nalphabet b 0\nstate q 0\ninitial q\ntrans q b q\n")
        for aut in (LD, b_only):
            for run in (accepts, run_frontier):
                with pytest.raises(AlphabetMismatchError):
                    run(aut, w)
            with pytest.raises(AlphabetMismatchError):
                list(accepts_each(aut, prefixes, parents))

    @settings(max_examples=60)
    @given(words(), perms())
    def test_equivariance(self, w, p):
        assert accepts(LD, w) == accepts(LD, w.rename(p))
        assert accepts(LN, w) == accepts(LN, w.rename(p))

    def test_accepts_from(self):
        # the release letter of the anchored twin starts a run in the
        # registered middle state of Ld, holding 5; acceptance needs the
        # stored atom to come back as the last letter
        anc = anchor(LD)
        assert accepts(anc, parse_word("q_q1(5) a(5)"))
        assert not accepts(anc, parse_word("q_q1(5) a(6)"))

    def test_run_frontier_is_canonical(self):
        frontier = run_frontier(LD, parse_word("a(1)"))
        assert frontier == frozenset({("q1", (-1,))})


class TestCompiledLine:
    def test_picks_index_regs_then_atoms_then_guesses(self):
        """A destination register reads a source register, a letter atom
        or a guess, through one index into regs + atoms + guesses, and
        each successor comes out canonical: markers -1, -2, ... in slot
        order, read atoms outside keep demoted to None."""
        line = automaton._CompiledLine(
            TransitionLine("p", ("x", "y"), "a", ("z",), "q", ("g", "x", "z", "h"))
        )
        assert line.picks == (3, 0, 2, 4)
        assert line.guess_count == 2
        regs, atoms = (5, -1), (7,)
        # with no atom to keep, each guess is a new marker, and 5 and 7
        # are demoted
        assert line.successors(regs, atoms, ()) == [("q", (-1, None, None, -2))]
        # 5 and 7 are in regs or atoms, so only 3 can be guessed
        assert line.successors(regs, atoms, (3, 5, 7)) == [
            ("q", (3, 5, 7, -1)),
            ("q", (-1, 5, 7, 3)),
            ("q", (-1, 5, 7, -2)),
        ]
        # without a guess: swapped markers are renumbered in slot order
        swap = automaton._CompiledLine(
            TransitionLine("p", ("x", "y"), "a", ("z",), "q", ("y", "z", "x"))
        )
        assert swap.guess_count == 0
        assert swap.successors((-1, -2), atoms, (7,)) == [("q", (-1, 7, -2))]
        assert swap.successors((-1, -2), atoms, ()) == [("q", (-1, None, -2))]


class TestWalk:
    """accepts_each steps every word once from its parent's frontier and
    demotes nothing; accepts runs each word alone and demotes the atoms
    that do not occur again.  Both must give the same verdicts."""

    @staticmethod
    def assert_walk_agrees(aut, words, parents):
        """The walk and the per-word runs agree, and no step of either
        makes a frontier larger than canonical form allows: each register
        holds a kept read atom, None or the marker its slot order fixes,
        so at most |states| * (kept atoms + 2) ** (largest dimension)
        entries."""
        max_dim = max((q.dimension for q in aut.states), default=0)
        step = automaton._step
        sizes = []

        def bounded(aut_, frontier, letter, fresh, keep):
            nxt = step(aut_, frontier, letter, fresh, keep)
            sizes.append(len(nxt))
            assert len(nxt) <= len(aut.states) * (len(keep) + 2) ** max_dim
            return nxt

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automaton, "_step", bounded)
            walked = list(accepts_each(aut, words, parents))
            assert len(walked) == len(words)
            for w, verdict in zip(words, walked):
                assert verdict == accepts(aut, w), w.render()
        assert sizes

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_to_length_five(self, name):
        aut = corpus.get(name).automaton
        self.assert_walk_agrees(aut, *word_orbit_tree(aut.alphabet, 5))

    def test_random_automata_to_length_four(self):
        rng = random.Random(4242)
        for _ in range(50):
            aut = random_automaton(rng)
            self.assert_walk_agrees(aut, *word_orbit_tree(aut.alphabet, 4))

    @pytest.mark.parametrize(
        "name, length, columns",
        [("Lr", 2, ["a(0) a(1) a(0)", "anc(0) a(0)"]),
         ("Ak:2", 2, ["a(0) a(0)", "a(0) a(1) a(2)"])],
        ids=["Lr", "Ak:2"],
    )
    def test_agreement_closure(self, name, length, columns):
        """The prefix closure of a table's cell words, as the agreement
        check builds it: not in enumeration order, but with each word
        after its parent.  Every corpus automaton over the alphabet
        walks it as it runs each word alone."""
        alphabet = corpus.get(name).automaton.alphabet
        table = learner.ObservationTable(alphabet)
        for c in columns:
            table.columns.add(parse_word(c))
        table.length = length
        keys = [
            s + e for s in table.s_labels() for e in table.columns.instances(s.atoms())
        ]
        words, parents = learner._prefix_closure(keys)
        assert set(keys) <= set(words) and len(set(words)) == len(words)
        assert words[0] == Word() and parents[0] == -1
        for i in range(1, len(words)):
            assert parents[i] < i and words[parents[i]] == words[i][:-1]
        depth = max(len(w) for w in words)
        rank = {w: i for i, w in enumerate(enumerate_word_orbits(alphabet, depth))}
        ranks = [rank[w] for w in words]
        assert ranks != sorted(ranks)
        walked = 0
        for aut in (corpus.get(n).automaton for n in CORPUS_NAMES):
            if aut.alphabet == alphabet:
                self.assert_walk_agrees(aut, words, parents)
                walked += 1
        assert walked

    @staticmethod
    def preorder(words, parents):
        """The same tree listed depth-first: each word, then all of its
        descendants, with the parents renumbered to match."""
        children = [[] for _ in words]
        for i in range(1, len(words)):
            children[parents[i]].append(i)
        order, todo = [], [0]
        while todo:
            i = todo.pop()
            order.append(i)
            todo.extend(reversed(children[i]))
        place = {i: n for n, i in enumerate(order)}
        return [words[i] for i in order], [-1] + [place[parents[i]] for i in order[1:]]

    def test_parents_first_in_any_order(self):
        """The walk needs only each parent before its children: a
        depth-first listing, which mixes lengths, walks as the per-word
        runs do."""
        corpus_auts = [corpus.get(name).automaton for name in CORPUS_NAMES]
        rng = random.Random(4242)
        random_auts = [random_automaton(rng) for _ in range(50)]
        for aut in corpus_auts + random_auts:
            words, parents = self.preorder(*word_orbit_tree(aut.alphabet, 4))
            lengths = [len(w) for w in words]
            assert lengths != sorted(lengths)
            self.assert_walk_agrees(aut, words, parents)

    def test_repointed_parent_is_caught(self):
        """The walk trusts the parents: one entry pointed at another word
        of the same length gives a verdict the per-word run does not."""
        aut = LNGR
        words, parents = word_orbit_tree(aut.alphabet, 3)
        self.assert_walk_agrees(aut, words, parents)
        bad = list(parents)
        bad[words.index(parse_word("a(0) a(1) a(2)"))] = words.index(
            parse_word("a(0) a(0)")
        )
        with pytest.raises(AssertionError, match=r"a\(0\) a\(1\) a\(2\)"):
            self.assert_walk_agrees(aut, words, bad)

    def test_one_step_per_distinct_key(self, monkeypatch):
        """The prefix's frontier, the letter and the atoms the prefix read
        fix a step; one walk makes each distinct step once."""
        keys = []
        step = automaton._step

        def spy(aut, frontier, letter, fresh, keep):
            keys.append((frontier, letter, len(keep) - len(set(fresh))))
            return step(aut, frontier, letter, fresh, keep)

        monkeypatch.setattr(automaton, "_step", spy)
        aut = corpus.get("Ak:3").automaton
        words, parents = word_orbit_tree(aut.alphabet, 5)
        list(accepts_each(aut, words, parents))
        # one word is empty, so a walk without the memo makes 1,954 steps
        assert len(words) == 1955
        assert len(keys) == len(set(keys)) == 342


def suffix_set_run(aut, w):
    """The frontier after w, keeping one set of the atoms of each suffix
    of w to tell which read atoms occur again."""
    rest = [frozenset()] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        rest[i] = rest[i + 1] | frozenset(w[i].atoms)
    frontier = automaton._initial_frontier(aut)
    read = set()
    for i, letter in enumerate(w):
        fresh = [a for a in letter.atoms if a not in read]
        read.update(fresh)
        frontier = automaton._step(aut, frontier, letter, fresh, read & rest[i + 1])
    return frontier


def random_word(rng, alphabet, n):
    """n letters, tags uniform, atoms drawn from about n / 2 atoms."""
    pool = max(1, n // 2)
    return Word(
        Letter(tag, tuple(rng.randrange(pool) for _ in range(alphabet.arity(tag))))
        for tag in (rng.choice(alphabet.tags) for _ in range(n))
    )


class TestSingleWordRun:
    """`_run` demotes each atom after its last occurrence."""

    def test_memory_is_linear_in_the_word(self):
        """A word of 2,000 distinct atoms: no set of atoms per position."""
        w = Word(Letter("a", (i,)) for i in range(2000))
        tracemalloc.start()
        try:
            assert not accepts(LD, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_long_words_match_suffix_sets(self, name):
        """Seeded words of length 8 to 40: the same frontiers as the
        suffix-set run, and the verdicts of the corpus predicate."""
        entry = corpus.get(name)
        aut = entry.automaton
        rng = random.Random(f"long-words/{name}")
        for n in range(8, 41):
            w = random_word(rng, aut.alphabet, n)
            frontier = suffix_set_run(aut, w)
            assert automaton._run(aut, w) == frontier, w.render()
            verdict = any(state in aut.final for state, _ in frontier)
            assert accepts(aut, w) == verdict == bool(entry.predicate(w)), w.render()
            assert run_frontier(aut, w) == frozenset(
                (state, automaton._markers(len(regs))) for state, regs in frontier
            )

    def test_random_automata_match_suffix_sets(self):
        """Seeded random automata, with guesses, markers, arity-0 and
        arity-2 tags and several initial states: words of length 8 to 40
        give the frontiers of the suffix-set run."""
        rng = random.Random("long-words/random")
        reached = 0
        for _ in range(40):
            aut = random_automaton(rng)
            for n in range(8, 41, 4):
                w = random_word(rng, aut.alphabet, n)
                frontier = suffix_set_run(aut, w)
                assert automaton._run(aut, w) == frontier, (render(aut), w.render())
                assert accepts(aut, w) == any(state in aut.final for state, _ in frontier)
                reached += bool(frontier)
        assert reached


class TestStructuralChecks:
    def test_universal_automaton_is_universal(self):
        verdict = is_universal_residual(universal_automaton(AlphabetSpec([("a", 1)])))
        assert verdict.universal

    def test_non_final_state_reason(self):
        verdict = is_universal_residual(LD)
        assert not verdict.universal
        assert verdict.reason == "non-final-state"

    def test_empty_initial_reason(self):
        aut = parse("alphabet a 1\nstate q 0\nfinal q\n")
        assert is_universal_residual(aut).reason == "empty-initial"

    def test_missing_transition_reason(self):
        aut = parse("alphabet a 1\nstate q 0\ninitial q\nfinal q\n")
        verdict = is_universal_residual(aut)
        assert verdict.reason == "missing-transition"
        assert verdict.state == "q"
        assert verdict.letter == Letter("a", (0,))

    def test_missing_transition_sees_letter_overlap_patterns(self):
        # a 1-register state handling only the matching letter: the
        # fresh-letter orbit is missing
        aut = parse(
            """
            alphabet a 1
            state q 1
            initial q
            final q
            trans q(x) a(x) q(x)
            """
        )
        verdict = is_universal_residual(aut)
        assert verdict.reason == "missing-transition"
        assert verdict.letter == Letter("a", (1,))

    def test_missing_transition_covers_repeated_letter_slots(self):
        # handling only distinct-atom pairs misses the diagonal orbit
        aut = parse(
            """
            alphabet f 2
            state q 0
            initial q
            final q
            trans q f(x,y) q
            """
        )
        verdict = is_universal_residual(aut)
        assert verdict.reason == "missing-transition"
        assert verdict.letter == Letter("f", (0, 0))
        assert not accepts(aut, Word([Letter("f", (5, 5))]))
        assert accepts(aut, Word([Letter("f", (5, 6))]))
        full = universal_automaton(AlphabetSpec([("f", 2)]))
        assert is_universal_residual(full).universal
        assert accepts(full, Word([Letter("f", (5, 5))]))


class TestAnchoring:
    def test_anchor_of_one_orbit_automaton(self):
        aut = parse("alphabet a 1\nstate q 0\ninitial q\nfinal q\ntrans q a(x) q\n")
        anc = anchor(aut)
        assert len(anc.states) == 2

    def test_anchor_preserves_original_language(self):
        anc = anchor(LD)
        for w in enumerate_word_orbits(LD.alphabet, 3):
            assert accepts(anc, w) == accepts(LD, w)

    def test_anchor_top_is_universal_on_original_alphabet(self):
        top = anchor_top(LD)
        for w in enumerate_word_orbits(LD.alphabet, 3):
            assert accepts(top, w)

    def test_anchor_top_initial_states(self):
        top = anchor_top(LD)
        assert top.initial == frozenset({"top", "uq_q0", "uq_q1", "uq_q2"})

    def test_anchor_top_primes_a_taken_top(self):
        # Ak already has a state named top; the new one is primed
        ak = corpus.get("Ak:2").automaton
        top = anchor_top(ak)
        assert "top'" in top.initial and "top" not in top.initial
        for w in enumerate_word_orbits(ak.alphabet, 3):
            assert accepts(top, w)

    def test_anchor_words_lead_to_single_states(self):
        anc = anchor(LD)
        # the release word q_q1(0) pins the real state q1
        assert run_frontier(anc, parse_word("q_q1(0)")) == frozenset(
            {("q1", (-1,))}
        )
        # the anchor word uq_q2(0) pins the anchor state
        assert run_frontier(anc, parse_word("uq_q2(0)")) == frozenset(
            {("uq_q2", (-1,))}
        )

    def test_anchor_words_survive_their_own_loops(self):
        anc = anchor(LD)
        w = parse_word("uq_q1(4) uq_q1(4) q_q1(4) a(4)")
        # q1 holds 4; reading a(4) moves to the accepting q2
        assert accepts(anc, w)

    def test_tag_collision_rejected(self):
        aut = parse(
            "alphabet uq_q 1\nstate q 0\ninitial q\nfinal q\ntrans q uq_q(x) q\n"
        )
        with pytest.raises(ValueError):
            anchor(aut)
