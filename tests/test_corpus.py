import pytest

from nomres.orbits import Letter, Word, enumerate_word_orbits, parse_word
from nomres.automaton import MAX_DIMENSION, accepts, anchor, parse
from nomres import corpus

# { a w | a not in w } plus the empty word.
FIRST_LETTER_FRESH = parse(
    """
    alphabet a 1
    state r0 0
    state r1 1
    initial r0
    final r0 r1
    trans r0 a(x) r1(x)
    trans r1(x) a(y) r1(x)
    """
)

ALL_NAMES = ["Ld", "Lngr", "Ln", "Lr", "Lng", "Compress", "Ak:1", "Ak:2", "Ak:3"]


class TestLookup:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            corpus.get("nope")

    def test_ak_requires_parameter(self):
        with pytest.raises(KeyError):
            corpus.get("Ak")
        with pytest.raises(KeyError):
            corpus.get("Ak:0")
        with pytest.raises(KeyError):
            corpus.get("Ak:x")

    def test_ak_is_bounded_like_a_file(self):
        # every entry exports to a file that parse reads back
        with pytest.raises(KeyError):
            corpus.get(f"Ak:{MAX_DIMENSION + 1}")


class TestPredicates:
    def test_ld_examples(self):
        p = corpus.get("Ld").predicate
        assert p(parse_word("a(3) a(3)"))
        assert p(parse_word("a(1) a(2) a(1)"))
        assert not p(parse_word("a(1)"))
        assert not p(parse_word("eps"))

    def test_lngr_examples(self):
        p = corpus.get("Lngr").predicate
        assert p(parse_word("a(1) a(2) a(1)"))
        assert not p(parse_word("a(1) a(2) a(3)"))

    def test_lng_examples(self):
        p = corpus.get("Lng").predicate
        # u, v empty; the two successors differ
        assert p(parse_word("a(1) a(2) a(1) a(3)"))
        # equal successors after the repeated atom: not in the language
        assert not p(parse_word("a(1) a(2) a(1) a(2)"))
        # the repeated atom may equal its first successor
        assert p(parse_word("a(1) a(1) a(1) a(2)"))

    def test_ln_examples(self):
        p = corpus.get("Ln").predicate
        assert p(parse_word("eps"))
        assert p(parse_word("a(1) a(2)"))
        assert not p(parse_word("a(1) a(2) a(1)"))

    def test_lr_examples(self):
        p = corpus.get("Lr").predicate
        assert p(parse_word("eps"))
        assert p(parse_word("anc(1) a(1)"))
        assert not p(parse_word("anc(2) a(1)"))
        assert not p(parse_word("anc(1) anc(1)"))
        assert p(parse_word("a(2) anc(1) a(1)"))

    def test_compress_examples(self):
        p = corpus.get("Compress").predicate
        assert p(parse_word("a(1)"))
        assert p(parse_word("a(1) a(2) a(2) a(2)"))
        assert not p(parse_word("a(1) a(1)"))
        assert not p(parse_word("a(1) a(2) a(3)"))
        assert not p(parse_word("eps"))

    def test_ak_examples(self):
        p2 = corpus.get("Ak:2").predicate
        assert p2(parse_word("anc(1) anc(2) a(1)"))
        assert not p2(parse_word("anc(1) anc(2) a(3)"))
        assert not p2(parse_word("anc(1) anc(2) anc(3) a(1)"))
        assert p2(parse_word("a(3) anc(1) a(2)"))
        assert not p2(parse_word("a(1) a(1)"))


class TestAutomatonPredicateAgreement:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_agreement_to_length_four(self, name):
        entry = corpus.get(name)
        for w in enumerate_word_orbits(entry.automaton.alphabet, 4):
            assert accepts(entry.automaton, w) == entry.predicate(w), w.render()


class TestMetadata:
    def test_expected_flags(self):
        assert corpus.get("Ln").residual is False
        assert corpus.get("Lr").residual
        assert corpus.get("Ak:3").char_length == 3

    def test_reverse_closure_witness(self):
        # the first letter is fresh: a deterministic, so residual,
        # language whose reversal is Ln, which no residual automaton
        # accepts
        ln = corpus.get("Ln")
        for w in enumerate_word_orbits(FIRST_LETTER_FRESH.alphabet, 4):
            reversed_w = Word(reversed(w))
            assert accepts(FIRST_LETTER_FRESH, reversed_w) == ln.predicate(w)


# The release letter of Ak's anchored twin starts a run in the register
# state s holding 0 and 1.
RELEASE_S = Word([Letter("q_s", (0, 1))])


class TestAkCharacterisingWords:
    def test_anchoring_word_of_length_k_characterises_register_state(self):
        """For Ak(2): anc(0) anc(1) pins the register set {0, 1}, and the
        derivative of that word equals the state's language on probes."""
        entry = corpus.get("Ak:2")
        aut = entry.automaton
        anc = anchor(aut)
        anchor_word = parse_word("anc(0) anc(1)")
        probes = enumerate_word_orbits(aut.alphabet, 3)
        from nomres.orbits import split_into_a_orbits

        for pat in probes:
            for u in split_into_a_orbits(pat, {0, 1}):
                lhs = entry.predicate(anchor_word + u)
                rhs = accepts(anc, RELEASE_S + u)
                assert lhs == rhs, u.render()

    def test_no_shorter_word_characterises_it(self):
        entry = corpus.get("Ak:2")
        aut = entry.automaton
        anc = anchor(aut)
        probes = enumerate_word_orbits(aut.alphabet, 3)
        from nomres.orbits import split_into_a_orbits

        candidates = [
            w
            for pat in enumerate_word_orbits(aut.alphabet, 1)
            for w in split_into_a_orbits(pat, {0, 1})
        ]
        for w in candidates:
            mismatch = any(
                entry.predicate(w + u) != accepts(anc, RELEASE_S + u)
                for pat in probes
                for u in split_into_a_orbits(pat, {0, 1})
            )
            assert mismatch, f"{w.render()} should not characterise the state"
