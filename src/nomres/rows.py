"""The nominal join-semilattice of finitely supported rows.

A row is a finitely supported subset of the (equivariant, orbit-finite)
column set E, stored as booleans over the supp-orbit representatives of
each column orbit: the value at any concrete column e is the stored bit
at the canonical form of e relative to the row's support.  Order is
pointwise implication, joins are pointwise disjunction, and everything
quantifying over "all renamings of a row" boils down to finitely many
placement patterns of its support.

A placement is a plain dict {own atom: placed atom}, injective and
defined on the whole support of the row it places; atoms the pattern
leaves unplaced go to fresh atoms (`_realize`).  The placed row is read
backwards through the inverse dict, which is defined exactly on the
placed support: every other atom of a column is outside it, so it is
relabelled fresh (`Row.value_mapped`).  Every order, equality and
witness check is one loop over joint column instances
(`first_difference`).
"""

from __future__ import annotations

import itertools
from bisect import insort

from .orbits import (
    Letter,
    Word,
    EMPTY_WORD,
    canonicalize,
    a_canonicalize,
    fresh_atom,
    partial_injections,
    split_into_a_orbits,
)


class ColumnError(KeyError):
    """A column outside the equivariant closure of the column set."""


class ColumnSet:
    """Orbit representatives of the column set E: suffix-closed, has eps."""

    def __init__(self, patterns=()):
        self._patterns = []
        self._seen = set()
        self._instances = {}
        self.version = 0
        self.add(EMPTY_WORD)
        for p in patterns:
            self.add(p)

    def add(self, word: Word) -> bool:
        """Add the orbit of a word and of all its suffixes; report growth."""
        changed = False
        for suffix in word.suffixes():
            pattern = canonicalize(suffix)
            if pattern not in self._seen:
                self._seen.add(pattern)
                insort(self._patterns, pattern, key=Word.sort_key)
                changed = True
        if changed:
            self.version += 1
            self._instances.clear()
        return changed

    def instances(self, fixed) -> tuple:
        """All fixed-orbit representatives of all column orbits, cached.

        These are the columns one must look at to compare rows whose
        supports sit inside ``fixed``.
        """
        fixed = frozenset(fixed)
        cached = self._instances.get(fixed)
        if cached is None:
            cached = tuple(
                e
                for pattern in self._patterns
                for e in split_into_a_orbits(pattern, fixed)
            )
            self._instances[fixed] = cached
        return cached

    def __iter__(self):
        return iter(self._patterns)

    def __len__(self):
        return len(self._patterns)

    def __contains__(self, word: Word) -> bool:
        return canonicalize(word) in self._seen

    def __repr__(self):
        return f"ColumnSet({[p.render() for p in self._patterns]})"


class Row:
    """A finitely supported subset of the columns, owned by a word label."""

    __slots__ = ("owner", "support", "support_set", "entries", "columns",
                 "_reduced", "_invariant", "_nonempty", "_vcache", "_fresh")

    def __init__(self, owner: Word, support, entries, columns: ColumnSet):
        self.owner = owner
        self.support = tuple(sorted(support))
        self.support_set = frozenset(self.support)
        self.entries = entries
        self.columns = columns
        self._reduced = None
        self._invariant = None
        self._nonempty = None
        self._vcache = {}
        self._fresh = fresh_atom(self.support_set)

    @classmethod
    def build(cls, owner: Word, columns: ColumnSet, value_of, support=None):
        """Fill a row by evaluating `value_of` on each basis column."""
        sup = frozenset(owner.atoms()) if support is None else frozenset(support)
        entries = {}
        for e in columns.instances(sup):
            entries[e] = bool(value_of(e))
        return cls(owner, sup, entries, columns)

    def value(self, e: Word) -> bool:
        """Membership of a concrete column, via its support-canonical form."""
        cached = self._vcache.get(e)
        if cached is not None:
            return cached
        key = a_canonicalize(e, self.support_set)
        try:
            v = self.entries[key]
        except KeyError:
            raise ColumnError(f"column {e.render()} is not in E") from None
        self._vcache[e] = v
        return v

    def value_mapped(self, inv, e: Word) -> bool:
        """The value of the placed row at e; ``inv`` is the inverse of the
        placement, a dict from the placed support onto this row's support.

        Builds the support-canonical key of inv(e) directly: atoms of the
        placed support read back through ``inv``, and every other atom,
        which any bijection extending the placement sends outside this
        row's support, becomes a fresh atom by first occurrence.
        """
        relabel = {}
        nxt = self._fresh
        letters = []
        for letter in e.letters:
            atoms = []
            for a in letter.atoms:
                b = inv.get(a)
                if b is None:
                    b = relabel.get(a)
                    if b is None:
                        relabel[a] = b = nxt
                        nxt += 1
                atoms.append(b)
            letters.append(Letter(letter.tag, tuple(atoms)))
        try:
            return self.entries[Word(letters)]
        except KeyError:
            raise ColumnError(f"column {e.render()} is not in E") from None

    def is_empty(self) -> bool:
        if self._nonempty is None:
            self._nonempty = any(self.entries.values())
        return not self._nonempty

    def apply_perm(self, p) -> "Row":
        """The row renamed by ``p``, a dict injective on the owner's atoms."""
        inv = {p[a]: a for a in self.support}
        return Row.build(
            self.owner.rename(p),
            self.columns,
            lambda e: self.value_mapped(inv, e),
            support=frozenset(inv),
        )

    def _removable(self, atom) -> bool:
        """Is the subset unchanged when this atom is swapped with a fresh one?"""
        swap = {a: a for a in self.support}
        swap[atom] = fresh_atom(self.support_set)
        return first_difference(self, self, swap, equal=True) is None

    def reduced(self) -> "Row":
        """The same subset re-based on its least support.

        An atom is redundant exactly when swapping it with a fresh atom
        leaves the subset unchanged; redundancy does not depend on the
        order of removal, so one pass suffices.
        """
        if self._reduced is not None:
            return self._reduced
        least = {a for a in self.support if not self._removable(a)}
        if least == set(self.support):
            self._reduced = self
        else:
            reduced = Row.build(self.owner, self.columns, self.value, support=least)
            reduced._reduced = reduced
            self._reduced = reduced
        return self._reduced

    def orbit_invariant(self):
        """A cheap renaming-invariant fingerprint of the row's orbit.

        Equal rows-up-to-renaming always agree on it; unequal rows may
        collide, so exact checks go through `orbit_equal`.
        """
        if self._invariant is None:
            r = self.reduced()
            sup = r.support_set
            shapes = []
            for e, v in r.entries.items():
                pattern = canonicalize(e)
                mask = tuple(a in sup for a in e.atoms())
                shapes.append((pattern.sort_key(), mask, v))
            self._invariant = (len(r.support), tuple(sorted(shapes)))
        return self._invariant

    def render(self) -> str:
        """The log form: a {column: 0/1} map over the row's basis."""
        body = ", ".join(
            f"{e.render()}: {int(v)}"
            for e, v in sorted(self.entries.items(), key=lambda kv: kv[0].sort_key())
        )
        return "{" + body + "}"

    def __repr__(self):
        return f"Row({self.owner.render()!r}: {self.render()})"


def first_difference(r1: Row, r2: Row, placement=None, equal=False):
    """The first joint column instance where r1 is true and r2 false (with
    ``equal``: where they differ), or None when there is none.

    With a ``placement`` of r1's support, r1 is read as its placed copy.
    The instances are those of the joint support, which are all the
    columns the two rows can disagree on.
    """
    if placement is None:
        inv = None
        placed = r1.support_set
    else:
        inv = {b: a for a, b in placement.items()}
        placed = frozenset(inv)
    for e in r2.columns.instances(placed | r2.support_set):
        v1 = r1.value(e) if inv is None else r1.value_mapped(inv, e)
        if (v1 or equal) and v1 != r2.value(e):
            return e
    return None


def row_leq(r1: Row, r2: Row) -> bool:
    """Pointwise inclusion, decided on joint-support representatives."""
    if r1.columns is not r2.columns and list(r1.columns) != list(r2.columns):
        raise ValueError("rows over different column sets")
    return first_difference(r1, r2) is None


def row_eq(r1: Row, r2: Row) -> bool:
    """Denotation equality, decided on joint-support representatives."""
    return first_difference(r1, r2, equal=True) is None


def _realize(mapping, own_support, avoid):
    """Complete a partial placement of a support into a placement.

    Unplaced atoms go to fresh atoms above everything in sight, so they
    collide with nothing that later comparisons can observe.
    """
    full = dict(mapping)
    nxt = fresh_atom(set(own_support) | set(avoid) | set(full.values()))
    for a in own_support:
        if a not in full:
            full[a] = nxt
            nxt += 1
    return full


def _survivors(t: Row, family, strict, uniform_support):
    """Placement patterns of family members that land (strictly) below t.

    Whether a placed copy sits below t only depends on which of its
    atoms land on which atoms of supp(t); the remaining atoms are fresh.
    """
    out = []
    t_sorted = tuple(sorted(t.support_set))
    for y0 in family:
        y = y0.reduced()
        for tpat in partial_injections(y.support, t_sorted):
            if uniform_support and len(tpat) != len(y.support):
                continue
            placement = _realize(tpat, y.support, t.support_set)
            if first_difference(y, t, placement) is not None:
                continue
            if strict and first_difference(y, t, placement, equal=True) is None:
                continue
            out.append((y, tpat))
    return out


def join_below(target: Row, family, strict=False, uniform_support=False) -> Row:
    """The join of every renamed family row below the target.

    Returns, as a row on the target's (least) support, the pointwise
    disjunction of all placed copies pi.y with pi.y <= target (< when strict;
    supp(pi.y) inside supp(target) when uniform_support).  For each
    column the placements extend over the column's own fresh atoms,
    since a copy may meet the column outside the target's support.
    """
    t = target.reduced()
    survivors = _survivors(t, family, strict, uniform_support)
    entries = {}
    for e in t.columns.instances(t.support_set):
        e_extra = sorted(frozenset(e.atoms()) - t.support_set)
        val = False
        for y, tpat in survivors:
            free = [a for a in y.support if a not in tpat]
            if uniform_support:
                extensions = ({},)
            else:
                extensions = partial_injections(free, e_extra)
            for ext in extensions:
                full = dict(tpat)
                full.update(ext)
                placed = _realize(
                    full, y.support, t.support_set | frozenset(e.atoms())
                )
                if y.value_mapped({b: a for a, b in placed.items()}, e):
                    val = True
                    break
            if val:
                break
        entries[e] = val
    return Row(target.owner, t.support_set, entries, target.columns)


def is_join_irreducible(r: Row, family, uniform_support=False) -> bool:
    """Is the row not the join of the strictly smaller family elements?

    In standard mode the empty row is never join-irreducible; the
    non-guessing variant drops that clause and restricts the joins to
    uniformly supported ones (the empty join still reproduces the empty
    row, so the empty row fails there too).
    """
    if not uniform_support and r.is_empty():
        return False
    jb = join_below(r, family, strict=True, uniform_support=uniform_support)
    return not row_eq(jb, r)


def is_generated_by(target: Row, family) -> bool:
    """Is the target the join of all family elements below it?"""
    jb = join_below(target, family, strict=False, uniform_support=False)
    return row_eq(jb, target)


def orbit_equal(r1: Row, r2: Row) -> bool:
    """Are two rows related by some atom renaming (as subsets of E)?"""
    a = r1.reduced()
    b = r2.reduced()
    if len(a.support) != len(b.support):
        return False
    if a.orbit_invariant() != b.orbit_invariant():
        return False
    return any(
        first_difference(a, b, dict(zip(a.support, image)), equal=True) is None
        for image in itertools.permutations(b.support)
    )


def dedup_by_orbit(rows):
    """One representative per row orbit, keeping first occurrences."""
    buckets = {}
    reps = []
    for r in rows:
        key = r.orbit_invariant()
        bucket = buckets.setdefault(key, [])
        if not any(orbit_equal(r, other) for other in bucket):
            bucket.append(r)
            reps.append(r)
    return reps


def in_family_orbit(r: Row, family) -> bool:
    return any(orbit_equal(r, other) for other in family)
