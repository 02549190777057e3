from hypothesis import given, strategies as st

from nomres.orbits import Letter, Word, fresh_atom, parse_word


def perm_strategy(max_atom=6):
    """Random permutations of a small universe, as dicts."""
    return st.permutations(list(range(max_atom))).map(
        lambda img: dict(zip(range(len(img)), img))
    )


value_strategy = st.lists(
    st.builds(Letter, st.just("a"), st.tuples(st.integers(0, 5))), max_size=3
).map(Word)


def atom_set(w):
    return frozenset(w.atoms())


class TestApplySupport:
    def test_apply_atom_and_structures(self):
        swap = {1: 2, 2: 1}
        assert parse_word("a(1)").rename(swap) == parse_word("a(2)")
        assert parse_word("a(1) a(2) a(3)").rename(swap) == parse_word("a(2) a(1) a(3)")
        assert atom_set(parse_word("a(1) a(3)").rename(swap)) == frozenset((2, 3))

    @given(perm_strategy(), perm_strategy(), value_strategy)
    def test_group_action_laws(self, p, q, v):
        assert v.rename({}) == v
        assert v.rename(q).rename(p) == v.rename({a: p[q[a]] for a in q})

    @given(perm_strategy(), value_strategy)
    def test_support_equivariance(self, p, v):
        assert atom_set(v.rename(p)) == frozenset(p[a] for a in atom_set(v))

    @given(value_strategy)
    def test_fixing_support_fixes_value(self, v):
        sup = atom_set(v)
        a, b = max(sup, default=0) + 1, max(sup, default=0) + 2
        assert v.rename({a: b, b: a}) == v

    def test_support_basics(self):
        assert atom_set(parse_word("a(7)")) == frozenset((7,))
        assert atom_set(parse_word("eps")) == frozenset()
        assert atom_set(parse_word("a(3) a(7) a(3)")) == frozenset((3, 7))

    def test_fresh_atom(self):
        assert fresh_atom(()) == 0
        assert fresh_atom((5, 2)) == 6
