import itertools
import random

import pytest
from hypothesis import given, strategies as st

from nomres.orbits import (
    AlphabetSpec,
    DEFAULT_ALPHABET,
    Letter,
    Word,
    EMPTY_WORD,
    canonicalize,
    count_partial_permutations,
    count_word_orbits,
    enumerate_word_orbits,
    letter_patterns,
    parse_word,
    set_partition_labels,
    split_into_a_orbits,
    word_orbit_tree,
)
from nomres import corpus
from conftest import (
    brute_orbit_count,
    brute_partial_injection_count,
    brute_partial_injections,
)

ANC = AlphabetSpec([("a", 1), ("anc", 1)])

BELL = [1, 1, 2, 5, 15, 52]


def words(max_len=4, max_atom=4):
    letter = st.builds(
        Letter, st.just("a"), st.tuples(st.integers(0, max_atom))
    )
    return st.lists(letter, max_size=max_len).map(Word)


def perms(max_atom=6):
    return st.permutations(list(range(max_atom))).map(
        lambda img: dict(zip(range(len(img)), img))
    )


def witness(pattern, w):
    """The renaming that sends the atoms of ``pattern`` onto those of w,
    position by position."""
    return dict(zip(pattern.atoms(), w.atoms()))


def reference_word_orbits(alphabet, max_len):
    """The orbit enumeration by its definition: for each length, each tag
    sequence in order, and each set partition of all its atom slots."""
    out = [EMPTY_WORD]
    tags = sorted(alphabet.tags)
    for n in range(1, max_len + 1):
        for tag_seq in itertools.product(tags, repeat=n):
            arities = [alphabet.arity(t) for t in tag_seq]
            for labels in set_partition_labels(sum(arities)):
                letters = []
                pos = 0
                for tag, ar in zip(tag_seq, arities):
                    letters.append(Letter(tag, labels[pos : pos + ar]))
                    pos += ar
                out.append(Word(letters))
    return tuple(out)


# the deepest enumeration the tests make of each target's alphabet:
# Ak:3's acceptance depth, the walk tests' 5 on the rest of the Ak
# alphabet, and 8, cheap, on the one-tag alphabet
REFERENCE_DEPTHS = {
    "Ld": 8, "Lngr": 8, "Ln": 8, "Lng": 8, "Compress": 8,
    "Lr": 5, "Ak:1": 5, "Ak:2": 5, "Ak:3": 7,
}


class TestWordBasics:
    def test_parse_render_roundtrip(self):
        for text in ["eps", "a(1)", "a(1) a(2) a(1)", "anc(3) a(7)"]:
            assert parse_word(text).render() == text

    def test_parse_validates_against_alphabet(self):
        """Each message in full, as the CLI prints it; the first bad
        letter decides.  Atoms are ASCII decimal digits, although int()
        also reads 1_0, +3 and other scripts' digits."""
        cases = [
            ("b(1)", "unknown tag 'b'"),
            ("a(1,2)", "tag 'a' takes 1 atoms, got 2"),
            ("a(x)", "bad atom list in 'a(x)'"),
            ("a(1_0)", "bad atom list in 'a(1_0)'"),
            ("a(+3)", "bad atom list in 'a(+3)'"),
            ("a(\u0663)", "bad atom list in 'a(\u0663)'"),
            ("a(-1)", "negative atom in 'a(-1)'"),
            ("a(01)", "bad atom list in 'a(01)'"),
            ("a(1,00)", "bad atom list in 'a(1,00)'"),
            ("a()", "bad atom list in 'a()'"),
            ("a(1", "bad letter 'a(1'"),
            ("a(1) a(2,3) b(1)", "tag 'a' takes 1 atoms, got 2"),
            ("a(1) b(1) a(x)", "unknown tag 'b'"),
        ]
        for text, message in cases:
            with pytest.raises(ValueError) as err:
                parse_word(text, DEFAULT_ALPHABET)
            assert str(err.value) == message, text
        with pytest.raises(ValueError, match="^bad atom list in 'a\\(x\\)'$"):
            parse_word("a(x)")

    def test_accepted_tokens_render_to_themselves(self):
        """Seeded: a token `parse_word` reads is the letter's one written
        form, so an arity-0 tag takes no parentheses and an atom no
        leading zero."""
        rng = random.Random(17)
        alphabet = AlphabetSpec([("a", 1), ("b", 2), ("c", 0)])
        accepted = 0
        for _ in range(20000):
            token = rng.choice("abc") + "".join(
                rng.choice("(),0123-x") for _ in range(rng.randrange(8))
            )
            for spec in (alphabet, None):
                try:
                    w = parse_word(token, spec)
                except ValueError:
                    continue
                accepted += 1
                assert w.render() == token
        assert accepted > 1000
        with pytest.raises(ValueError, match="^bad atom list in 'c\\(\\)'$"):
            parse_word("c()", alphabet)

    def test_support_is_occurrence_set(self):
        assert frozenset(parse_word("a(5) a(5)").atoms()) == frozenset((5,))
        assert frozenset(EMPTY_WORD.atoms()) == frozenset()
        assert frozenset(parse_word("anc(3) a(7)").atoms()) == frozenset((3, 7))

    def test_suffixes(self):
        w = parse_word("a(1) a(2)")
        assert [s.render() for s in w.suffixes()] == ["a(1) a(2)", "a(2)", "eps"]

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            AlphabetSpec([])
        with pytest.raises(ValueError):
            AlphabetSpec([("a", 1), ("a", 2)])
        assert ANC.dimension == 1

    @pytest.mark.parametrize("tag", ["eps", "a(1)", "uq_q-1", "", "1a", "a b"])
    def test_alphabet_refuses_tags_no_word_can_write(self, tag):
        with pytest.raises(ValueError, match="cannot be written"):
            AlphabetSpec([("a", 1), (tag, 1)])

    def test_every_tag_reads_back(self):
        alphabet = AlphabetSpec([("_", 0), ("uq_q0", 1), ("Eps", 2)])
        w = parse_word("_ uq_q0(3) Eps(3,4)", alphabet)
        assert parse_word(w.render(), alphabet) == w and len(w) == 3


class TestTupleTypes:
    def test_letters_and_words_are_immutable(self):
        letter = Letter("a", (0,))
        word = Word([letter])
        for obj, attr, value in [
            (letter, "tag", "b"),
            (letter, "atoms", (1,)),
            (word, "letters", ()),
        ]:
            with pytest.raises(AttributeError):
                setattr(obj, attr, value)
        assert letter == Letter("a", (0,)) and word == Word([letter])

    @given(words())
    def test_hashes_are_the_tuple_hashes(self, w):
        """Set and dict iteration orders, hence every fingerprint under a
        fixed hash seed, rest on these two identities."""
        w = w + Letter("c") + Letter("f", (0, 1))
        for letter in w:
            assert hash(letter) == hash((letter.tag, letter.atoms))
        assert hash(w) == hash(tuple(w))


class TestCanonicalize:
    def test_first_occurrence_relabelling(self):
        assert canonicalize(parse_word("a(7) a(3) a(9) a(7)")).render() == \
            "a(0) a(1) a(2) a(0)"
        assert canonicalize(EMPTY_WORD) == EMPTY_WORD
        assert canonicalize(parse_word("anc(4) a(4)")).render() == "anc(0) a(0)"

    @given(words())
    def test_idempotent(self, w):
        assert canonicalize(canonicalize(w)) == canonicalize(w)

    @given(words(), perms())
    def test_orbit_soundness(self, w, p):
        assert canonicalize(w) == canonicalize(w.rename(p))

    @given(words())
    def test_completeness_constructs_witness(self, w):
        pattern = canonicalize(w)
        assert pattern.rename(witness(pattern, w)) == w

    @given(words(), words())
    def test_equal_patterns_mean_same_orbit(self, w1, w2):
        pattern = canonicalize(w1)
        if pattern == canonicalize(w2):
            # build the witness permutation through the shared pattern
            q1, q2 = witness(pattern, w1), witness(pattern, w2)
            assert w1.rename({b: q2[a] for a, b in q1.items()}) == w2


class TestEnumeration:
    def test_small_alphabet_listing(self):
        got = [w.render() for w in enumerate_word_orbits(DEFAULT_ALPHABET, 2)]
        assert got == ["eps", "a(0)", "a(0) a(0)", "a(0) a(1)"]
        assert [w.render() for w in enumerate_word_orbits(DEFAULT_ALPHABET, 0)] == ["eps"]

    def test_bell_counts(self):
        for l in range(6):
            n = len(enumerate_word_orbits(DEFAULT_ALPHABET, l))
            assert n == sum(BELL[: l + 1])

    def test_counts_against_brute_force(self):
        for length in range(5):
            per_length = len(
                [w for w in enumerate_word_orbits(DEFAULT_ALPHABET, length)
                 if len(w) == length]
            )
            assert per_length == brute_orbit_count(DEFAULT_ALPHABET, length)
        for length in range(4):
            per_length = len(
                [w for w in enumerate_word_orbits(ANC, length) if len(w) == length]
            )
            assert per_length == brute_orbit_count(ANC, length)

    @pytest.mark.parametrize(
        "constructors",
        [[("a", 1)], [("a", 1), ("anc", 1)], [("a", 1), ("b", 2), ("c", 0)]],
        ids=["a1", "a1-anc1", "a1-b2-c0"],
    )
    def test_count_without_enumerating(self, constructors):
        alphabet = AlphabetSpec(constructors)
        for length in range(6):
            assert count_word_orbits(alphabet, length) == len(
                enumerate_word_orbits(alphabet, length)
            )
        with pytest.raises(ValueError):
            count_word_orbits(alphabet, -1)

    @pytest.mark.parametrize(
        "constructors", [[("a", 1), ("anc", 1)], [("c", 0)]], ids=["a1-anc1", "c0"]
    )
    def test_count_stops_above(self, constructors):
        # counting against a bound ends at the first length past it
        alphabet = AlphabetSpec(constructors)
        full = [count_word_orbits(alphabet, n) for n in range(12)]
        for bound in (0, 5, 10):
            first = next(n for n, count in enumerate(full) if count > bound)
            for max_len in (first, first + 1, 200):
                assert count_word_orbits(alphabet, max_len, bound) == full[first]
            if first:
                assert count_word_orbits(alphabet, first - 1, bound) == full[first - 1]

    @pytest.mark.parametrize(
        "alphabet, depth",
        [
            pytest.param(DEFAULT_ALPHABET, 8, id="default"),
            # nullary and binary tags
            pytest.param(
                AlphabetSpec([("a", 1), ("b", 2), ("c", 0)]), 4, id="a1-b2-c0"
            ),
        ]
        + [
            pytest.param(corpus.get(name).automaton.alphabet, depth, id=name)
            for name, depth in REFERENCE_DEPTHS.items()
        ],
    )
    def test_prefix_tree_matches_reference(self, alphabet, depth):
        """The prefix-extension enumeration lists the reference's words in
        the reference's order, and every word's parent is its prefix."""
        words, parents = word_orbit_tree(alphabet, depth)
        assert words == reference_word_orbits(alphabet, depth)
        assert enumerate_word_orbits(alphabet, depth) == words
        assert len(parents) == len(words) == count_word_orbits(alphabet, depth)
        assert parents[0] == -1
        assert all(words[parents[i]] == words[i][:-1] for i in range(1, len(words)))

    def test_each_representative_is_canonical_and_unique(self):
        seen = set()
        for w in enumerate_word_orbits(ANC, 3):
            assert canonicalize(w) == w
            assert w not in seen
            seen.add(w)

    def test_set_partition_labels(self):
        assert list(set_partition_labels(0)) == [()]
        assert list(set_partition_labels(2)) == [(0, 0), (0, 1)]
        assert len(list(set_partition_labels(4))) == 15
        # continuing a labelling that already uses labels 0 and 1
        assert list(set_partition_labels(1, 2)) == [(0,), (1,), (2,)]
        assert len(list(set_partition_labels(2, 1))) == 5

    def test_letter_patterns(self):
        pats = letter_patterns("f", 2)
        assert [p.render() for p in pats] == ["f(0,0)", "f(0,1)"]


class TestSplitIntoAOrbits:
    def test_single_slot(self):
        got = [w.render() for w in split_into_a_orbits(parse_word("a(0)"), {5})]
        assert got == ["a(5)", "a(6)"]

    def test_two_distinct_slots(self):
        got = split_into_a_orbits(parse_word("a(0) a(1)"), {5})
        # count check against the brute-force partial-injection oracle
        assert len(got) == len(brute_partial_injections((0, 1), (5,)))
        assert len(got) == 3

    def test_empty_word(self):
        assert split_into_a_orbits(EMPTY_WORD, {1, 2}) == [EMPTY_WORD]

    def test_counts_match_partial_injections(self):
        for pattern, fixed in [
            ("a(0) a(1) a(2)", {7, 9}),
            ("a(0) a(0) a(1)", {1, 2, 3}),
            ("a(0)", set()),
        ]:
            w = parse_word(pattern)
            blocks = sorted(frozenset(w.atoms()))
            got = split_into_a_orbits(w, fixed)
            assert len(got) == len(brute_partial_injections(blocks, tuple(fixed)))

    def test_partition_property(self):
        """Instantiating each representative over a bounded universe and
        closing under fixed-point permutations covers the whole orbit,
        with no overlaps."""
        import itertools

        fixed = (0,)
        universe = (0, 1, 2, 3)
        pattern = parse_word("a(0) a(1)")
        reps = split_into_a_orbits(pattern, set(fixed))
        non_fixed = [a for a in universe if a not in fixed]
        classes = []
        for rep in reps:
            bucket = set()
            blocks = sorted(frozenset(rep.atoms()) - set(fixed))
            for img in itertools.permutations(non_fixed, len(blocks)):
                m = dict(zip(blocks, img))
                bucket.add(
                    tuple(
                        (l.tag, tuple(m.get(a, a) for a in l.atoms)) for l in rep
                    )
                )
            classes.append(bucket)
        # the orbit of the pattern, restricted to the universe
        whole = set()
        for img in itertools.permutations(universe, 2):
            m = dict(zip((0, 1), img))
            whole.add(tuple((l.tag, tuple(m[a] for a in l.atoms)) for l in pattern))
        assert set().union(*classes) == whole
        for i, c1 in enumerate(classes):
            for c2 in classes[i + 1:]:
                assert not (c1 & c2)


class TestPartialPermutationCounts:
    def test_known_values(self):
        assert [count_partial_permutations(k) for k in range(5)] == [1, 2, 7, 34, 209]

    def test_against_brute_force(self):
        for k in range(6):
            assert count_partial_permutations(k) == brute_partial_injection_count(k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_partial_permutations(-1)


def prefix_leq(x, y):
    return len(x) <= len(y) and y[: len(x)] == x


class TestRigidity:
    def test_rigidity(self):
        """Comparable elements of one orbit are equal (pure-atom rigidity)."""
        w = parse_word("a(0) a(1)")
        p = {0: 1, 1: 0}
        assert not prefix_leq(w, w.rename(p)) or w == w.rename(p)
