import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomres.orbits import EMPTY_WORD, canonicalize, parse_word, partial_injections
from nomres.rows import (
    ColumnError,
    ColumnSet,
    Row,
    _atom_classes,
    _atom_tables,
    _survivors,
    dedup_by_orbit,
    in_family_orbit,
    is_generated_by,
    is_join_irreducible,
    join_below,
    placed_below,
    placed_leq,
    row_eq,
    row_leq,
)
from nomres import corpus
from nomres import rows as rows_module
from nomres.learner import ObservationTable
from nomres.teacher import MembershipOracle
from conftest import (
    LATTICE_UNIVERSE,
    admits,
    admitted_listing,
    basis_bits,
    brute_generated,
    brute_join_irreducible,
    concrete_columns,
    concretize_family,
    concretize_row,
    full_listing,
    lattice_columns,
    make_row,
    random_family,
    random_row,
    renamed,
    renamed_values,
)


def columns_upto(*texts):
    cs = ColumnSet()
    for t in texts:
        cs.add(parse_word(t))
    return cs


def language_row(owner_text, columns, predicate):
    """The row of `owner` against a membership predicate."""
    owner = parse_word(owner_text)
    return Row.build(owner, columns, lambda e: predicate(owner + e))


LD = corpus.get("Ld").predicate
LNGR = corpus.get("Lngr").predicate


class TestColumnSet:
    def test_always_contains_epsilon(self):
        cs = ColumnSet()
        assert EMPTY_WORD in cs
        assert len(cs) == 1

    def test_suffix_closure(self):
        cs = ColumnSet()
        cs.add(parse_word("a(0) a(1)"))
        assert [p.render() for p in cs] == ["eps", "a(0)", "a(0) a(1)"]

    def test_add_reports_growth(self):
        cs = ColumnSet()
        assert cs.add(parse_word("a(0)"))
        assert not cs.add(parse_word("a(3)"))  # same orbit

    def test_membership_is_orbit_level(self):
        cs = columns_upto("a(0)")
        assert parse_word("a(9)") in cs
        assert parse_word("a(1) a(1)") not in cs

    # the column sets of the orbit-key tests' tables, and a wide one
    @pytest.mark.parametrize(
        "texts",
        [[], ["a(0) a(0)"], ["a(0) a(1) a(0)"]],
        ids=["eps", "a0-a0", "a0-a1-a0"],
    )
    def test_position_reads_the_basis(self, texts):
        cs = columns_upto(*texts)
        for support in [(), (4,), (1, 6), (0, 3, 7)]:
            basis = cs.instances(support)
            assert [cs.position(e, support) for e in basis] == list(
                range(len(basis))
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_value_invariant_under_fixing_renamings(self, seed, data):
        # a renaming that moves only atoms outside the row's support
        cs = columns_upto("a(0) a(1) a(0)")
        r = wide_random_row(random.Random(seed), cs)
        e = data.draw(st.sampled_from(cs.instances(r.support_set | {5, 6, 7})))
        outside = [a for a in range(12) if a not in r.support_set]
        p = dict(zip(outside, data.draw(st.permutations(outside))))
        p.update((a, a) for a in r.support)
        assert r.value(e) == r.value(e.rename(p))


class TestRowBasics:
    def test_value_through_canonical_form(self):
        cs = columns_upto("a(0)")
        r = make_row(cs, {1}, {"a(1)": True})
        # the two fresh columns canonicalize alike, so values agree
        assert r.value(parse_word("a(2)")) == r.value(parse_word("a(3)"))
        assert r.value(parse_word("a(1)"))

    def test_unknown_column_rejected(self):
        cs = columns_upto("a(0)")
        r = make_row(cs, set(), {})
        with pytest.raises(ColumnError):
            r.value(parse_word("a(0) a(0)"))

    def test_ld_table_entry(self):
        cs = columns_upto("a(0)")
        r = language_row("a(1)", cs, LD)
        assert r.value(parse_word("a(1)"))  # a(1) a(1) is in the language
        assert not r.value(parse_word("a(2)"))

    def test_all_false_row_reads_false(self):
        cs = columns_upto("a(0)")
        r = make_row(cs, set(), {})
        assert not r.value(parse_word("a(5)"))


class TestRowOrder:
    def test_reflexive(self):
        cs = columns_upto("a(0) a(0)")
        r = language_row("a(1)", cs, LD)
        assert row_leq(r, r)

    def test_bottom_below_everything(self):
        cs = columns_upto("a(0) a(0)")
        bottom = make_row(cs, set(), {})
        for owner in ("eps", "a(1)", "a(1) a(1)"):
            assert row_leq(bottom, language_row(owner, cs, LD))

    def test_ld_strict_inclusion(self):
        cs = columns_upto("a(0)")
        r_a = language_row("a(1)", cs, LD)
        r_aa = language_row("a(1) a(1)", cs, LD)
        assert row_leq(r_a, r_aa)
        assert not row_leq(r_aa, r_a)

    def test_rigidity(self):
        """Comparable renamings of one row are equal (pure-atom rigidity)."""
        cs = columns_upto("a(0) a(0)")
        rng = random.Random(7)
        for _ in range(30):
            r = random_row(rng, cs)
            img = rng.sample(range(4), len(r.support))
            pr = renamed(r, dict(zip(r.support, img)))
            if row_leq(r, pr):
                assert row_eq(r, pr)

    def test_row_built_before_columns_grew_is_refused(self):
        cs = columns_upto("a(0)")
        r = language_row("a(1)", cs, LD)
        cs.add(parse_word("a(0) a(0)"))
        with pytest.raises(ColumnError):
            row_leq(r, r)
        # its bits index the old basis, which positions no longer read
        with pytest.raises(ColumnError):
            r.value(parse_word("a(1)"))
        with pytest.raises(ColumnError):
            r.entries

    @pytest.mark.parametrize("compare", [row_leq, row_eq], ids=["leq", "eq"])
    def test_rows_over_different_column_sets_are_refused(self, compare):
        # both rows hold eps; r2's basis also has a(0) on a fresh atom,
        # which r1's lacks, so its bits cannot be read on r2's basis
        r1 = Row(EMPTY_WORD, (), 1, ColumnSet())
        r2 = Row(EMPTY_WORD, (), 0b01, columns_upto("a(0)"))
        with pytest.raises(ValueError, match="different column sets"):
            compare(r1, r2)

    def test_transitivity_on_random_rows(self):
        cs = lattice_columns()
        rng = random.Random(11)
        rows = [random_row(rng, cs) for _ in range(12)]
        for a in rows:
            for b in rows:
                for c in rows:
                    if row_leq(a, b) and row_leq(b, c):
                        assert row_leq(a, c)


class TestReduction:
    def test_all_false_row_reduces_to_empty_support(self):
        cs = columns_upto("a(0)")
        r = make_row(cs, {0}, {})
        assert r.reduced().support == ()

    def test_ld_spurious_support_dropped(self):
        # row("a0 a1") denotes the same subset as row("a0"): ends-with-0;
        # the second atom is support noise and must reduce away
        cs = columns_upto("a(0) a(0)")
        r = language_row("a(0) a(1)", cs, LD)
        assert r.reduced().support == (0,)
        assert r.orbit_key() == language_row("a(0)", cs, LD).orbit_key()

    def test_genuine_support_kept(self):
        cs = columns_upto("a(0)")
        r = language_row("a(1)", cs, LD)
        assert r.reduced().support == (1,)


def same_orbit(r1, r2):
    """Brute force: does some bijection of the reduced supports rename
    one row onto the other?  Both sides on the support of the second,
    compared value by value on its basis, up to the first difference."""
    a, b = r1.reduced(), r2.reduced()
    if len(a.support) != len(b.support):
        return False
    basis = b.columns.instances(b.support_set)
    for img in itertools.permutations(b.support):
        value = renamed_values(a, dict(zip(a.support, img)))
        if all(value(e) == b.value(e) for e in basis):
            return True
    return False


def reference_orbit_key(r):
    """The least bit mask of the reduced row over all n! bijections of
    its support, with the support size n."""
    r = r.reduced()
    n = len(r.support)
    return n, min(
        spread_bits(r.bits, r.columns.placement_map(n, n, tuple(enumerate(image)))[0])
        for image in itertools.permutations(range(n))
    )


def filled_table(name, length, columns):
    entry = corpus.get(name)
    oracle = MembershipOracle(
        entry.automaton.alphabet, predicate=entry.predicate, name=name
    )
    t = ObservationTable(entry.automaton.alphabet, oracle=oracle)
    for c in columns:
        t.columns.add(parse_word(c))
    t.length = length
    return t.fill()


# Ln's rows keep their supports once E holds a(0) a(0); at E = {eps}
# all but one of them reduce
FILLED_TABLES = [
    ("Ln", 3, ["a(0) a(0)"]),
    ("Ln", 3, []),
    ("Ak:2", 2, ["a(0) a(0)"]),
]
TABLE_IDS = ["Ln", "Ln-eps", "Ak:2"]


def wide_random_row(rng, columns):
    """A random row on up to three atoms, so that keys range over
    several bijections of the support."""
    support = frozenset(rng.sample(range(5), rng.randint(0, 3)))
    basis = columns.instances(support)
    bits = {e.render(): rng.random() < 0.5 for e in basis}
    return make_row(columns, support, bits)


class TestOrbitEquality:
    def test_renamed_rows_equal(self):
        cs = columns_upto("a(0) a(0)")
        r1 = language_row("a(1)", cs, LD)
        r2 = language_row("a(4)", cs, LD)
        assert r1.orbit_key() == r2.orbit_key()

    def test_different_rows_not_equal(self):
        cs = columns_upto("a(0) a(0)")
        assert (
            language_row("a(1)", cs, LD).orbit_key()
            != language_row("a(1) a(1)", cs, LD).orbit_key()
        )

    def test_dedup(self):
        cs = columns_upto("a(0) a(0)")
        rows = [
            language_row("a(1)", cs, LD),
            language_row("a(2)", cs, LD),
            language_row("a(1) a(1)", cs, LD),
        ]
        reps = dedup_by_orbit(rows)
        assert reps == [rows[0], rows[2]]
        assert in_family_orbit(language_row("a(9)", cs, LD), reps)


class TestOrbitKey:
    """Keys are equal exactly when a brute-force search finds a bijection
    of the reduced supports renaming one row onto the other."""

    @pytest.mark.parametrize(
        "columns",
        [lattice_columns, lambda: columns_upto("a(0) a(0)")],
        ids=["lattice", "a0-a0"],
    )
    def test_random_rows_match_reference(self, columns):
        cs = columns()
        rng = random.Random(31)
        rows = [random_row(rng, cs) for _ in range(30)]
        for a in rows:
            for b in rows:
                assert (a.orbit_key() == b.orbit_key()) == same_orbit(a, b)

    def test_wide_random_rows_match_reference(self):
        cs = columns_upto("a(0) a(1) a(0)")
        rng = random.Random(37)
        rows = [wide_random_row(rng, cs) for _ in range(40)]
        # renamed copies, so that equal keys are not all trivial
        rows += [
            renamed(r, dict(zip(r.support, rng.sample(range(8), len(r.support)))))
            for r in rows[:20]
        ]
        for a in rows:
            for b in rows:
                assert (a.orbit_key() == b.orbit_key()) == same_orbit(a, b)

    @pytest.mark.parametrize("name,length,columns", FILLED_TABLES, ids=TABLE_IDS)
    def test_table_rows_match_reference(self, name, length, columns):
        t = filled_table(name, length, columns)
        rows = [t.row(label) for label in t.all_labels()]
        for a in rows:
            for b in rows:
                assert (a.orbit_key() == b.orbit_key()) == same_orbit(a, b)

    @pytest.mark.parametrize(
        "name,length,columns,widest",
        [("Ln", 5, ["a(0) a(0)"], 6), ("Lng", 4, ["a(0) a(0) a(0) a(1)"], 5)],
        ids=["Ln", "Lng"],
    )
    def test_table_rows_split_as_reference_key(self, name, length, columns, widest):
        # Ln's rows have one class of fully interchangeable atoms; Lng's
        # split into classes, some of them not interchangeable
        t = filled_table(name, length, columns)
        rows = [t.row(label) for label in t.all_labels()]
        keys = {(r.orbit_key(), reference_orbit_key(r)) for r in rows}
        assert max(n for (n, _), _ in keys) == widest
        # equal keys exactly when equal reference keys
        news, refs = zip(*keys)
        assert len(set(news)) == len(keys) == len(set(refs))

    def test_invariant_under_renaming(self):
        rng = random.Random(41)
        cs = columns_upto("a(0) a(1) a(0)")
        rows = [wide_random_row(rng, cs) for _ in range(40)]
        for name, length, columns in FILLED_TABLES:
            t = filled_table(name, length, columns)
            rows += [t.row(label) for label in t.all_labels()]
        for r in rows:
            img = rng.sample(range(10), len(r.support))
            assert renamed(r, dict(zip(r.support, img))).orbit_key() == r.orbit_key()

    def test_stale_row_is_refused(self):
        cs = columns_upto("a(0)")
        r = language_row("a(1)", cs, LD)
        r.orbit_key()
        cs.add(parse_word("a(0) a(0)"))
        with pytest.raises(ColumnError):
            r.orbit_key()  # memoised, but for the old basis


def graph_row(columns, support, edges, marked=()):
    """A row holding the column a(x) a(y) for each edge (x, y) and a(x)
    for each marked x."""
    bits = {f"a({x}) a({y})": True for x, y in edges}
    bits.update({f"a({x})": True for x in marked})
    return make_row(columns, frozenset(support), bits)


class TestAtomClasses:
    """Rows read as directed graphs on their support, every atom with one
    edge out and one in, so that the signatures do not tell atoms apart
    that the row does: the key must search each such class."""

    # a 3-cycle on 0, 1, 2 and a 2-cycle on 3, 4
    CYCLES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
    GRAPHS = [
        (range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], ()),  # a 4-cycle
        (range(4), [(0, 1), (1, 0), (2, 3), (3, 2)], ()),  # two 2-cycles
        (range(5), CYCLES, (3, 4)),  # the 2-cycle marked: two classes
        (range(5), CYCLES, (0, 3)),  # one atom of each cycle marked
        (range(5), CYCLES, (0, 1)),
    ]

    def test_classes(self):
        cs = columns_upto("a(0) a(1)")
        classes = [_atom_classes(graph_row(cs, *g)) for g in self.GRAPHS]
        assert classes == [
            [((0, 1, 2, 3), False)],
            [((0, 1, 2, 3), False)],
            [((0, 1, 2), False), ((3, 4), True)],
            [((1, 2, 4), False), ((0, 3), False)],
            [((2, 3, 4), False), ((0, 1), False)],
        ]

    def test_keys_match_reference(self):
        cs = columns_upto("a(0) a(1)")
        rng = random.Random(61)
        rows = [graph_row(cs, *g) for g in self.GRAPHS]
        rows += [
            renamed(r, dict(zip(r.support, rng.sample(range(9), len(r.support)))))
            for r in rows * 2
        ]
        references = [reference_orbit_key(r) for r in rows]
        for a, ref_a in zip(rows, references):
            for b, ref_b in zip(rows, references):
                same = same_orbit(a, b)
                assert (a.orbit_key() == b.orbit_key()) == same, (a, b)
                assert (ref_a == ref_b) == same


class TestReducedReference:
    @pytest.mark.parametrize("name,length,columns", FILLED_TABLES, ids=TABLE_IDS)
    def test_reduced_matches_rebuilt_row(self, name, length, columns):
        """The spread bits equal the row rebuilt on its least support,
        with the least support found by swapping each atom for a fresh
        one."""
        t = filled_table(name, length, columns)
        for label in t.all_labels():
            r = t.row(label)
            fresh = max(r.support, default=-1) + 1
            least = [
                a for a in r.support
                if not row_eq(
                    renamed(r, {b: fresh if b == a else b for b in r.support}), r
                )
            ]
            rebuilt = Row(
                r.owner, least, basis_bits(r.columns, least, r.value), r.columns
            )
            assert r.reduced().support == rebuilt.support
            assert r.reduced().bits == rebuilt.bits


class TestJoins:
    def test_target_joins_itself(self):
        cs = lattice_columns()
        r = make_row(cs, {0}, {"a(0)": True})
        assert row_eq(join_below(r, [r], strict=False), r)

    def test_two_singletons_join_to_pair(self):
        cs = lattice_columns()
        x = make_row(cs, set(), {"eps": True})
        y = make_row(cs, set(), {"a(0)": True})
        xy = make_row(cs, set(), {"eps": True, "a(0)": True})
        joined = join_below(xy, [x, y], strict=True)
        assert row_eq(joined, xy)
        assert not is_join_irreducible(xy, [x, y, xy])

    def test_lngr_upper_row_is_join_irreducible(self):
        # the one-letter derivative of the repeated-atom language is not a
        # join of strictly smaller rows: the matching column is missing
        cs = columns_upto("a(0) a(0)")
        family = [
            language_row(t, cs, LNGR)
            for t in ("eps", "a(0)", "a(0) a(0)", "a(0) a(1)")
        ]
        target = language_row("a(0)", cs, LNGR)
        strict = join_below(target, family, strict=True)
        assert row_leq(strict, target) and not row_eq(strict, target)
        assert is_join_irreducible(target, family)

    def test_empty_row_never_irreducible(self):
        cs = lattice_columns()
        empty = make_row(cs, set(), {})
        family = [empty, make_row(cs, set(), {"eps": True})]
        assert not is_join_irreducible(empty, family)

    def test_early_exit_agrees_with_full_join(self):
        # the irreducibility test stops at the first placed copy that
        # completes the cover; on Lng's extension rows most tests stop so
        t = filled_table("Lng", 4, ["a(0) a(0) a(0) a(1)"])
        family = t.rows_family()
        verdicts = []
        for label in t.all_labels():
            if len(label) <= t.length:
                continue
            r = t.row(label)
            expected = r.bits != 0 and not row_eq(
                join_below(r, family, strict=True), r
            )
            assert is_join_irreducible(r, family) == expected, label.render()
            verdicts.append(expected)
        assert (len(verdicts), sum(verdicts)) == (52, 8)

    def test_generated_by(self):
        cs = lattice_columns()
        x = make_row(cs, set(), {"eps": True})
        y = make_row(cs, set(), {"a(0)": True})
        xy = make_row(cs, set(), {"eps": True, "a(0)": True})
        assert is_generated_by(xy, [x, y])
        assert is_generated_by(x, [x, y])
        assert is_generated_by(make_row(cs, set(), {}), [x, y])  # empty join
        assert not is_generated_by(xy, [x])


class TestBruteForceOracle:
    """The symbolic lattice operations against exhaustive enumeration
    over a three-atom universe (faithful for these supports/columns)."""

    def _concretize(self, row, cols):
        return concretize_row(row, cols, LATTICE_UNIVERSE)[0]

    def test_join_irreducibility_matches(self, rng):
        cs = lattice_columns()
        cols = concrete_columns(cs, LATTICE_UNIVERSE)
        for _ in range(60):
            family = random_family(rng, cs, rng.randint(1, 4))
            closure = concretize_family(family, cols, LATTICE_UNIVERSE)
            for r in family:
                expected = brute_join_irreducible(self._concretize(r, cols), closure)
                assert is_join_irreducible(r, family) == expected

    def test_generated_matches(self, rng):
        cs = lattice_columns()
        cols = concrete_columns(cs, LATTICE_UNIVERSE)
        for _ in range(60):
            family = random_family(rng, cs, rng.randint(1, 4))
            closure = concretize_family(family, cols, LATTICE_UNIVERSE)
            target = random_row(rng, cs)
            expected = brute_generated(self._concretize(target, cols), closure)
            assert is_generated_by(target, family) == expected


class TestBruteForceOracleTwoAtomColumns:
    """Same oracle game with a two-atom column orbit, so candidate rows
    can meet a column outside the target's support; a four-atom universe
    keeps the enumeration faithful."""

    UNIVERSE = (0, 1, 2, 3)

    def _columns(self):
        cs = ColumnSet()
        cs.add(parse_word("a(0) a(1)"))
        return cs

    def _random_row(self, rng, cs):
        support = frozenset() if rng.random() < 0.4 else frozenset((0,))
        basis = cs.instances(support)
        bits = {e.render(): rng.random() < 0.5 for e in basis}
        return make_row(cs, support, bits)

    def test_operations_match(self, rng):
        cs = self._columns()
        cols = concrete_columns(cs, self.UNIVERSE)
        for _ in range(40):
            family = [self._random_row(rng, cs) for _ in range(rng.randint(1, 4))]
            closure = concretize_family(family, cols, self.UNIVERSE)
            for r in family:
                expected = brute_join_irreducible(
                    concretize_row(r, cols, self.UNIVERSE)[0], closure
                )
                assert is_join_irreducible(r, family) == expected
            target = self._random_row(rng, cs)
            expected = brute_generated(
                concretize_row(target, cols, self.UNIVERSE)[0], closure
            )
            assert is_generated_by(target, family) == expected


def reference_shapes(cs, n):
    """(column orbit, shape) of each instance of the basis of range(n),
    in basis order: a shape gives each distinct atom, or -1 for one
    outside range(n)."""
    number = {pattern: p for p, pattern in enumerate(cs)}
    return [
        (number[canonicalize(e)],
         tuple(a if a < n else -1 for a in dict.fromkeys(e.atoms())))
        for e in cs.instances(range(n))
    ]


def reference_placement_map(cs, n1, n2, pattern, shapes=reference_shapes):
    """The placement map read off the whole basis of the joint support:
    each joint instance relates its placed and its target projection.
    ``shapes`` lists `reference_shapes`, possibly from a memo."""
    landing = dict(pattern)
    m = n2
    for i in range(n1):
        if i not in landing:
            landing[i] = m
            m += 1
    inv = {b: i for i, b in landing.items()}
    own = {s: k for k, s in enumerate(shapes(cs, n1))}
    index = {s: k for k, s in enumerate(shapes(cs, n2))}
    up = [0] * len(own)
    down = [0] * len(index)
    for p, shape in shapes(cs, m):
        i = own[(p, tuple(inv.get(x, -1) for x in shape))]
        j = index[(p, tuple(x if x < n2 else -1 for x in shape))]
        up[i] |= 1 << j
        down[j] |= 1 << i
    return tuple(up), tuple(down)


def spread_bits(bits, up):
    """The union of ``up[i]`` over the set bits i of ``bits``, reading
    only those entries, so that it takes a reference tuple as well as a
    placement map whose entries are built on first read."""
    out = 0
    for i in range(bits.bit_length()):
        if bits >> i & 1:
            out |= up[i]
    return out


def placed_pairs(rows):
    """Every (r1, r2, pattern, equal) over ``rows``, with its verdict
    read off the reference placement map."""
    cs = rows[0].columns
    references = {}
    for r1, r2 in itertools.product(rows, repeat=2):
        n1, n2 = len(r1.support), len(r2.support)
        for inj in partial_injections(range(n1), range(n2)):
            pattern = tuple(inj.items())
            key = (n1, n2, pattern)
            if key not in references:
                references[key] = reference_placement_map(cs, *key)
            up, down = references[key]
            below = not spread_bits(r1.bits, up) & ~r2.bits
            above = not spread_bits(r2.bits, down) & ~r1.bits
            yield r1, r2, pattern, False, below
            yield r1, r2, pattern, True, below and above


PLACEMENT_COLUMNS = [
    lattice_columns,
    lambda: columns_upto("a(0) a(1)"),
    lambda: columns_upto("a(0) a(1) a(0)"),
]
PLACEMENT_IDS = ["lattice", "a0-a1", "a0-a1-a0"]


class TestPlacementMaps:
    """Flat maps, built entry by entry as comparisons read them, and the
    verdicts read off them, against the joint-basis construction."""

    @pytest.mark.parametrize("columns", PLACEMENT_COLUMNS, ids=PLACEMENT_IDS)
    def test_assembled_maps_match_reference(self, columns):
        cs = columns()
        for n1, n2 in itertools.product(range(4), repeat=2):
            width1, width2 = len(cs.instances(range(n1))), len(cs.instances(range(n2)))
            for inj in partial_injections(range(n1), range(n2)):
                pattern = tuple(inj.items())
                up, down = cs.placement_map(n1, n2, pattern)
                ref_up, ref_down = reference_placement_map(cs, n1, n2, pattern)
                assert len(ref_up) == width1 and len(ref_down) == width2
                for i in range(width1):
                    assert up[i] == ref_up[i], (n1, n2, pattern, "up", i)
                for j in range(width2):
                    assert down[j] == ref_down[j], (n1, n2, pattern, "down", j)

    @pytest.mark.parametrize("columns", PLACEMENT_COLUMNS, ids=PLACEMENT_IDS)
    def test_placed_leq_matches_reference_cold_and_warm(self, columns):
        cs = columns()
        rng = random.Random(43)
        rows = [wide_random_row(rng, cs) for _ in range(14)]
        for r1, r2, pattern, equal, expected in placed_pairs(rows):
            cs._maps.clear()
            assert placed_leq(r1, r2, pattern, equal) == expected  # builds the map
            cs.placement_map(len(r1.support), len(r2.support), pattern)
            assert placed_leq(r1, r2, pattern, equal) == expected  # cached map

    @pytest.mark.parametrize("columns", PLACEMENT_COLUMNS, ids=PLACEMENT_IDS)
    def test_failing_check_builds_only_what_it_reads(self, columns):
        # a failing inclusion check reads up[i] for set bits i of r1 until
        # one meets a position outside r2, and never reads down
        cs = columns()
        rows = random_rows_any_density(random.Random(67), cs, 24)
        failed = 0
        for r1, r2, pattern, equal, expected in placed_pairs(rows):
            if equal or expected:
                continue
            cs._maps.clear()
            assert not placed_leq(r1, r2, pattern)
            up, down = cs.placement_map(len(r1.support), len(r2.support), pattern)
            assert not down, (r1, r2, pattern)
            assert 0 < len(up) <= r1.bits.bit_count(), (r1, r2, pattern)
            failed += 1
        assert failed

    def test_add_clears_flat_maps(self):
        cs = columns_upto("a(0) a(1)")
        rng = random.Random(47)
        rows = [wide_random_row(rng, cs) for _ in range(10)]
        for r1, r2 in itertools.product(rows, repeat=2):
            row_leq(r1, r2)
            row_eq(r1, r2)
        assert cs._maps and cs._layouts and cs._block_indices
        cs.add(parse_word("a(0) a(0) a(1)"))
        assert not cs._maps and not cs._layouts and not cs._block_indices
        rows = [wide_random_row(rng, cs) for _ in range(10)]
        for r1, r2, pattern, equal, expected in placed_pairs(rows):
            assert placed_leq(r1, r2, pattern, equal) == expected


def low_blocks_mask(cs, n):
    """The basis positions, on n atoms, of the column orbits with at most
    one atom."""
    ks = [len(set(pattern.atoms())) for pattern in cs]
    return sum(
        1 << i for i, (p, _) in enumerate(reference_shapes(cs, n)) if ks[p] <= 1
    )


def reference_survivors(t, family, strict):
    """`_survivors` as the full listing: every placement of every family
    row is decided by `placed_leq`."""
    positions = range(len(t.support))
    for y0 in family:
        y = y0.reduced()
        for tpat in partial_injections(range(len(y.support)), positions):
            pattern = tuple(tpat.items())
            if not placed_leq(y, t, pattern):
                continue
            if strict and placed_leq(y, t, pattern, equal=True):
                continue
            up, _ = t.columns.placement_map(len(y.support), len(t.support), pattern)
            yield spread_bits(y.bits, up)


def random_rows_any_density(rng, cs, count):
    """Random rows on up to three atoms whose bit density varies from
    row to row, so that all four kinds of table entry get exercised."""
    out = []
    for _ in range(count):
        support = frozenset(rng.sample(range(5), rng.randint(0, 3)))
        density = rng.choice((0.2, 0.5, 0.8, 0.95))
        bits = {e.render(): rng.random() < density for e in cs.instances(support)}
        out.append(make_row(cs, support, bits))
    return out


ATOM_TABLE_TABLES = [
    ("Ln", 4, ["a(0) a(0)"]),
    ("Ak:2", 2, ["a(0) a(0)"]),
    ("Lng", 4, ["a(0) a(0) a(0) a(1)"]),
]


class TestAtomTables:
    """The per-atom tables admit exactly the placements whose atom-free
    and one-atom column blocks pass, read off the joint-basis reference
    map; admitting first and then asking `placed_leq` keeps exactly the
    reference's true placements, in `partial_injections` order, and so
    does `placed_below`."""

    @staticmethod
    def check_rows(rows):
        cs = rows[0].columns
        shapes = functools.cache(reference_shapes)
        maps = functools.cache(
            lambda *key: reference_placement_map(cs, *key, shapes)
        )
        seen = {"none": 0, "admitted": 0, "rejected": 0}
        for r2 in rows:
            n2 = len(r2.support)
            tables = {id(r1): _atom_tables(r1, r2) for r1 in rows}
            seen["none"] += sum(tb is None for tb in tables.values())
            kept = {id(r1): [] for r1 in rows}
            expected = {id(r1): [] for r1 in rows}
            for n1 in sorted({len(r1.support) for r1 in rows}):
                low = low_blocks_mask(cs, n1)
                for inj in partial_injections(range(n1), range(n2)):
                    pattern = tuple(inj.items())
                    _, down = maps(n1, n2, pattern)
                    # the positions on n1 atoms whose joint columns r2 misses
                    bad = 0
                    for j, mask in enumerate(down):
                        if not r2.bits >> j & 1:
                            bad |= mask
                    for r1 in rows:
                        if len(r1.support) != n1:
                            continue
                        tb = tables[id(r1)]
                        passes = tb is not None and admits(tb, pattern)
                        assert passes == (not r1.bits & low & bad), (r1, r2, pattern)
                        seen["admitted" if passes else "rejected"] += 1
                        if passes and placed_leq(r1, r2, pattern):
                            kept[id(r1)].append(pattern)
                        if not r1.bits & bad:
                            expected[id(r1)].append(pattern)
            assert kept == expected, r2
            for r1 in rows:
                got = placed_below(r1, r2, range(len(r1.support)), [~j for j in range(n2)])
                assert list(got) == expected[id(r1)], (r1, r2)
        return seen

    @pytest.mark.parametrize("columns", PLACEMENT_COLUMNS, ids=PLACEMENT_IDS)
    def test_random_rows_match_reference(self, columns):
        cs = columns()
        rows = random_rows_any_density(random.Random(53), cs, 24)
        seen = self.check_rows(rows)
        assert all(seen.values()), seen

    def test_two_atom_column_orbit(self):
        # as in TestBruteForceOracleTwoAtomColumns: the one-atom block
        # a(1) is only there as a suffix of the two-atom orbit
        cs = ColumnSet()
        cs.add(parse_word("a(0) a(1)"))
        rows = random_rows_any_density(random.Random(59), cs, 24)
        seen = self.check_rows(rows)
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "name,length,columns", ATOM_TABLE_TABLES, ids=["Ln", "Ak:2", "Lng"]
    )
    def test_table_rows_match_reference(self, name, length, columns):
        t = filled_table(name, length, columns)
        rows = [r.reduced() for r in t.rows_family()]
        seen = self.check_rows(rows)
        assert seen["admitted"] and seen["rejected"], seen

    @pytest.mark.parametrize(
        "name,length,columns", ATOM_TABLE_TABLES, ids=["Ln", "Ak:2", "Lng"]
    )
    def test_survivors_match_full_listing(self, name, length, columns):
        t = filled_table(name, length, columns)
        family = t.rows_family()
        for r in family:
            target = r.reduced()
            for strict in (False, True):
                assert list(_survivors(target, family, strict)) == list(
                    reference_survivors(target, family, strict)
                ), (r, strict)


def search_shapes(rng, n1, n2):
    """(src, tgt) in `placed_below`'s naming for the three shapes its
    callers search, on rows with n1 and n2 atoms: least support into
    least support; r2's full support into r1's, with atoms outside the
    least supports (None); and r1's support into a codomain with atoms
    outside r2's support."""
    def padded(atoms):
        out = list(atoms)
        for _ in range(rng.randint(0, 1)):
            out.insert(rng.randint(0, len(out)), None)
        return out

    atoms2 = [~j for j in range(n2)]
    return [
        (range(n1), atoms2),
        (padded(atoms2), padded(range(n1))),
        (range(n1), padded(atoms2)),
    ]


class TestAdmittedSearch:
    """`placed_below` builds exactly the injections that the full listing
    keeps through the reference filter `admits`, in the same order, in
    each shape its callers search; `placed_leq` is stubbed to pass them
    all, so that only the atom tables decide."""

    @staticmethod
    def check_pairs(rows, seed, monkeypatch):
        monkeypatch.setattr(rows_module, "placed_leq", lambda r1, r2, pattern: True)
        rng = random.Random(seed)
        built = listed = 0
        for r1, r2 in itertools.product(rows, repeat=2):
            tables = _atom_tables(r1, r2)
            for src, tgt in search_shapes(rng, len(r1.support), len(r2.support)):
                got = list(placed_below(r1, r2, src, tgt))
                assert got == list(admitted_listing(tables, src, tgt)), (
                    r1, r2, src, tgt
                )
                built += len(got)
                listed += sum(math.comb(len(src), k) * math.perm(len(tgt), k)
                              for k in range(len(src) + 1))
        # the search builds some injections and leaves others out
        assert 0 < built < listed, (built, listed)

    @pytest.mark.parametrize("columns", PLACEMENT_COLUMNS, ids=PLACEMENT_IDS)
    def test_random_rows_match_reference(self, columns, monkeypatch):
        rows = random_rows_any_density(random.Random(71), columns(), 16)
        self.check_pairs(rows, 73, monkeypatch)

    # Lng's 4-atom rows would take a second more and add no new shape
    @pytest.mark.parametrize(
        "name,length,columns", ATOM_TABLE_TABLES[:2], ids=["Ln", "Ak:2"]
    )
    def test_table_rows_match_reference(self, name, length, columns, monkeypatch):
        t = filled_table(name, length, columns)
        self.check_pairs([r.reduced() for r in t.rows_family()], 79, monkeypatch)

    def test_free_tables_list_every_injection(self, monkeypatch):
        # tables that bind and forbid nothing admit the full listing
        cs = columns_upto("a(0) a(1)")
        rows = random_rows_any_density(random.Random(83), cs, 8)
        monkeypatch.setattr(rows_module, "placed_leq", lambda r1, r2, pattern: True)
        monkeypatch.setattr(
            rows_module, "_atom_tables", lambda r1, r2: ([0] * len(r1.support), -1, -1)
        )
        rng = random.Random(89)
        for r1, r2 in itertools.product(rows, repeat=2):
            for src, tgt in search_shapes(rng, len(r1.support), len(r2.support)):
                assert list(placed_below(r1, r2, src, tgt)) == list(full_listing(src, tgt))
