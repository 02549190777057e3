"""The nominal join-semilattice of finitely supported rows.

A row is a finitely supported subset of the (equivariant, orbit-finite)
column set E, stored as one int bit mask over its basis
``columns.instances(support)``: bit i is the value at the i-th
supp-orbit representative, and the value at any concrete column e is
the bit of the representative of its supp-orbit (`ColumnSet.position`).
Order is pointwise implication, joins are pointwise union, and
everything quantifying over "all renamings of a row" boils down to
finitely many placement patterns of its support.  Orbit identity is one
canonical key per row (`Row.orbit_key`): two rows are renamings of each
other exactly when their keys are equal.  The key is the least image of
the reduced row under the bijections of its support that list its atoms
by signature, per-atom bit counts that a renaming carries along with
each atom (`_atom_classes`), so every row of an orbit minimises over the
same images.  Only the atoms of equal signature are permuted, and a
class of them that the row cannot tell apart, because swapping any two
fixes the row, is listed in one order: the others give the same image.

A placement is a plain dict {own atom: placed atom}, injective on the
support of the row it places.  Whether a placed copy of r1 sits below
(or equals) r2 depends only on its pattern: which positions of r1's
support land on which positions of r2's support.  Every other atom
lands outside supp(r2), where any fresh atom does the same.

A basis is one block per column orbit (`ColumnSet`).  A check
(`placed_leq`) reads the flat map of its pattern, which the column set
caches for every later check and spread until the columns grow.  Each
entry of a flat map is computed from the shape of its own instance the
first time something reads it (`_Half`): a check stops at its first
failing bit, and only equality tests read the `down` half, so most
entries are never built.  No word is built; a concrete witness column
is found by one loop over joint column instances (`first_difference`).

The atom-free and one-atom blocks are decided per atom, once per row
pair (`_atom_tables`): in a one-atom block, placed atom i meets only
the atom j of supp(r2) it lands on, or r2's instance on a fresh atom
when it lands outside, and an atom j that nothing hits meets r1's fresh
instance.  So a placement passes them exactly when no pair (i, j) of it
is forbidden, every unlanded i may land outside and every unhit j may
stay unhit.  One search (`placed_below`) builds only such placements,
atom by atom, and decides each with `placed_leq`.

Joins below a row are built from the placed copies that sit below it,
one family row after another (`_survivors`).  The join-irreducibility
test stops at the first copy that makes them cover the row, and checks
the caller's deadline before each family row (`OutOfTime`).
"""

from __future__ import annotations

import itertools
import time

from .orbits import (
    Word,
    EMPTY_WORD,
    canonicalize,
    fresh_atom,
    partial_injections,
    split_into_a_orbits,
)


class ColumnError(KeyError):
    """A column outside the equivariant closure of the column set."""


class OutOfTime(RuntimeError):
    """A search passed its deadline (a ``time.monotonic()`` value)."""


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise OutOfTime("wall-time budget exhausted")


class ColumnSet:
    """Orbit representatives of the column set E: suffix-closed, has eps.

    The basis of a row on support A is ``instances(A)``: the A-orbits of
    each column orbit in turn, as `split_into_a_orbits` lists them.  A
    column orbit with k atoms has one block, whose shapes (`_block`)
    depend only on k and the support size, not on E, so they stay for
    the life of the column set.  Block offsets (`_layout`), each basis
    position's orbit and index in its block (`_block_index`), instances
    and flat maps (`placement_map`, built entry by entry) hold for the
    current version only: adding a column orbit clears them.
    """

    def __init__(self):
        self._patterns = []
        self._number = {}
        self._ks = ()
        self._instances = {}
        self._layouts = {}
        self._block_indices = {}
        self._maps = {}
        self._blocks = {}
        self.version = 0
        self.add(EMPTY_WORD)

    def add(self, word: Word) -> bool:
        """Add the orbit of a word and of all its suffixes; report growth."""
        new = {canonicalize(s) for s in word.suffixes()} - self._number.keys()
        if not new:
            return False
        self._patterns = sorted([*self._patterns, *new], key=Word.sort_key)
        self._number = {pattern: p for p, pattern in enumerate(self._patterns)}
        self._ks = tuple(len(set(pattern.atoms())) for pattern in self._patterns)
        self.version += 1
        self._instances.clear()
        self._layouts.clear()
        self._block_indices.clear()
        self._maps.clear()
        return True

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

    def _block(self, k: int, n: int) -> tuple:
        """The shapes of a k-atom column orbit's instances on n support
        atoms, in order, {shape: index}, and ``masks[p][i]``, the
        instances whose shape puts atom i at position p; -1 marks an
        atom outside."""
        cached = self._blocks.get((k, n))
        if cached is None:
            shapes = tuple(
                tuple(inj.get(b, -1) for b in range(k))
                for inj in partial_injections(range(k), range(n))
            )
            masks = [[0] * n for _ in range(k)]
            for s, shape in enumerate(shapes):
                for p, i in enumerate(shape):
                    if i >= 0:
                        masks[p][i] |= 1 << s
            cached = self._blocks[k, n] = (
                shapes, {s: i for i, s in enumerate(shapes)}, tuple(map(tuple, masks))
            )
        return cached

    def _layout(self, n: int) -> tuple:
        """Per column orbit: its k, and the offset and bit mask of its
        block in the basis of a support of n atoms."""
        cached = self._layouts.get(n)
        if cached is None:
            widths = [len(self._block(k, n)[0]) for k in self._ks]
            offsets = itertools.accumulate(widths, initial=0)
            cached = self._layouts[n] = tuple(
                (k, o, (1 << w) - 1) for k, o, w in zip(self._ks, offsets, widths)
            )
        return cached

    def position(self, e: Word, support) -> int:
        """The position of the instance of e's orbit in the basis of the
        sorted ``support``."""
        p = self._number.get(canonicalize(e))
        if p is None:
            raise ColumnError(f"column {e.render()} is not in E")
        at = {a: i for i, a in enumerate(support)}
        shape = tuple(at.get(a, -1) for a in dict.fromkeys(e.atoms()))
        n = len(support)
        return self._layout(n)[p][1] + self._block(len(shape), n)[1][shape]

    def _block_index(self, n: int) -> tuple:
        """Per basis position on n support atoms: its column orbit and
        its index in that orbit's block."""
        cached = self._block_indices.get(n)
        if cached is None:
            cached = self._block_indices[n] = tuple(
                (p, s)
                for p, (_, _, mask) in enumerate(self._layout(n))
                for s in range(mask.bit_length())
            )
        return cached

    def placement_map(self, n1: int, n2: int, pattern: tuple):
        """How a placed row on n1 atoms meets a row on n2 atoms, cached.

        ``pattern`` lists the pairs (i, j) where atom i of the placed
        support lands on atom j of the target support; the other placed
        atoms land outside it.  Returns ``(up, down)``: ``up[i]`` masks
        the target basis positions that share a joint column instance
        with placed basis position i, and ``down[j]`` the placed
        positions sharing one with target position j.  Each half is a
        dict whose entries are computed the first time they are read
        (`_Half`) and kept with the map.
        """
        key = (n1, n2, pattern)
        cached = self._maps.get(key)
        if cached is None:
            sent1, sent2 = [-1] * n1, [-1] * n2
            for i, j in pattern:
                sent1[i], sent2[j] = j, i
            cached = self._maps[key] = (
                _Half(self, n1, n2, sent1), _Half(self, n2, n1, sent2)
            )
        return cached

    def __iter__(self):
        return iter(self._patterns)

    def __len__(self):
        return len(self._patterns)

    def __contains__(self, word: Word) -> bool:
        return canonicalize(word) in self._number

    def __repr__(self):
        return f"ColumnSet({[p.render() for p in self._patterns]})"


class _Half(dict):
    """One half of a placement map, from a side on n atoms to a side on
    m atoms; each entry is computed the first time it is read.

    Atom a of the own support goes to atom ``sent[a]`` of the other
    support, or outside it where that is -1.  An atom outside the own
    support goes to a free atom, one of the other support that nothing
    is sent to, or stays fresh (-1).  Only the shapes whose atoms stay
    distinct are in the other side's block index.
    """

    __slots__ = ("_blocks", "_n", "_m", "_own", "_layout", "_sent", "_free")

    def __init__(self, columns: ColumnSet, n: int, m: int, sent: list):
        # the layouts hold every block on n and on m atoms; no reference
        # back to the column set, whose maps hold this half
        self._own, self._layout = columns._block_index(n), columns._layout(m)
        self._blocks, self._n, self._m, self._sent = columns._blocks, n, m, sent
        self._free = (-1, *(x for x in range(m) if x not in sent))

    def __missing__(self, i):
        p, s = self._own[i]
        k, offset, _ = self._layout[p]
        index = self._blocks[k, self._m][1]
        choices = [(self._sent[a],) if a >= 0 else self._free
                   for a in self._blocks[k, self._n][0][s]]
        targets = [t for t in itertools.product(*choices) if t in index]
        mask = self[i] = sum(1 << index[t] for t in targets) << offset
        return mask


def _spread(bits: int, up) -> int:
    """The union of ``up[i]`` over the set bits i of ``bits``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= up[low.bit_length() - 1]
        bits ^= low
    return out


class Row:
    """A finitely supported subset of the columns, owned by a word label.

    ``bits`` has bit i set when the row holds the i-th instance of its
    basis ``columns.instances(support)``, as it stood when the row was
    built (``version``).
    """

    __slots__ = ("owner", "support", "support_set", "bits", "columns",
                 "version", "_reduced", "_key")

    def __init__(self, owner: Word, support, bits: int, columns: ColumnSet):
        self.owner = owner
        self.support = tuple(sorted(support))
        self.support_set = frozenset(self.support)
        self.bits = bits
        self.columns = columns
        self.version = columns.version
        self._reduced = None
        self._key = None

    @classmethod
    def build(cls, owner: Word, columns: ColumnSet, value_of):
        """Fill a row by evaluating `value_of` on each basis column."""
        sup = frozenset(owner.atoms())
        bits = 0
        for i, e in enumerate(columns.instances(sup)):
            if value_of(e):
                bits |= 1 << i
        return cls(owner, sup, bits, columns)

    @property
    def entries(self) -> dict:
        """{basis column: value}, in basis order."""
        _check_current(self)
        return {
            e: bool(self.bits >> i & 1)
            for i, e in enumerate(self.columns.instances(self.support_set))
        }

    def value(self, e: Word) -> bool:
        """Membership of a concrete column: the bit of its basis instance."""
        _check_current(self)
        return bool(self.bits >> self.columns.position(e, self.support) & 1)

    def _removable(self, atom) -> bool:
        """Is the subset unchanged when this atom is swapped with a fresh one?"""
        pattern = tuple((i, i) for i, a in enumerate(self.support) if a != atom)
        return placed_leq(self, self, pattern, equal=True)

    def reduced(self) -> "Row":
        """The same subset re-based on its least support.

        An atom is redundant exactly when swapping it with a fresh atom
        leaves the subset unchanged; redundancy does not depend on the
        order of removal, so one pass suffices.  Every basis instance of
        the full support projects onto one instance of the least support,
        and all instances projecting onto it hold the same value, so the
        bits spread down through the placement map.
        """
        if self._reduced is not None:
            return self._reduced
        least = tuple(a for a in self.support if not self._removable(a))
        if len(least) == len(self.support):
            self._reduced = self
        else:
            _, down = self.columns.placement_map(
                len(least), len(self.support), landing(least, self.support)
            )
            reduced = Row(self.owner, least, _spread(self.bits, down), self.columns)
            reduced._reduced = reduced
            self._reduced = reduced
        return self._reduced

    def orbit_key(self) -> tuple:
        """The canonical identity of the row's orbit under renaming.

        The least bit mask of the reduced row over the bijections of its
        support onto itself that list its atoms in signature order
        (`_atom_classes`), with the support size.  Bases of equally
        large supports list their instances in the same order, and a
        renaming carries each atom's signature to its image, so every
        row of an orbit has the same set of such images and two reduced
        rows are renamings of each other exactly when their keys are
        equal.  The atoms of a class that the row does not tell apart
        are placed in one order only: its other orders give the same
        image.
        """
        _check_current(self)
        if self._key is None:
            r = self.reduced()
            n = len(r.support)
            choices = [
                [atoms] if fixed else itertools.permutations(atoms)
                for atoms, fixed in _atom_classes(r)
            ]
            # the s-th atom of a listing goes to atom s
            listings = (sum(orders, ()) for orders in itertools.product(*choices))
            ups = (
                self.columns.placement_map(n, n, tuple(sorted(zip(atoms, range(n)))))[0]
                for atoms in listings
            )
            self._key = (n, min(_spread(r.bits, up) for up in ups))
        return self._key

    def render(self) -> str:
        """The log form: a {column: 0/1} map over the row's basis."""
        body = ", ".join(
            f"{e.render()}: {int(v)}"
            for e, v in sorted(self.entries.items(), key=lambda kv: kv[0].sort_key())
        )
        return "{" + body + "}"

    def __repr__(self):
        return f"Row({self.owner.render()!r}: {self.render()})"


def _atom_classes(r: Row) -> list:
    """The atoms 0..n-1 of a reduced row's support in classes of equal
    signature, in signature order, each with whether the row is fixed by
    every permutation of the class.

    Atom i's signature counts, per column block and position p of its
    shapes, the row's set bits whose shape puts atom i at p; a renaming
    keeps each count and moves it to the image of i.  A class is
    interchangeable when the row is fixed by swapping the class's first
    atom with each of the others: those swaps generate every
    permutation of the class, and are generators of the row's
    stabiliser.
    """
    cs = r.columns
    n = len(r.support)
    signatures = [[] for _ in range(n)]
    for k, o, m in cs._layout(n):
        b = r.bits >> o & m
        for masks in cs._block(k, n)[2]:
            for i, mask in enumerate(masks):
                signatures[i].append((b & mask).bit_count())
    ranked = sorted(range(n), key=signatures.__getitem__)
    classes = []
    for _, group in itertools.groupby(ranked, key=signatures.__getitem__):
        atoms = tuple(group)
        fixed = all(
            _spread(r.bits, cs.placement_map(n, n, _swap(n, atoms[0], a))[0]) == r.bits
            for a in atoms[1:]
        )
        classes.append((atoms, fixed))
    return classes


def _swap(n: int, a: int, b: int) -> tuple:
    """The placement pattern of n atoms onto themselves that swaps a and b."""
    return tuple((i, b if i == a else a if i == b else i) for i in range(n))


def _check_current(*rows):
    """Bits index the basis a row was built on; placement maps index
    the current one."""
    for r in rows:
        if r.version != r.columns.version:
            raise ColumnError("row was built before its column set grew")


def landing(image, support) -> tuple:
    """The placement pattern of a support whose atoms go to ``image``, in
    order, relative to a row on ``support``: the pairs (i, j) with
    image[i] == support[j]."""
    at = {b: j for j, b in enumerate(support)}
    return tuple((i, at[b]) for i, b in enumerate(image) if b in at)


def placed_leq(r1: Row, r2: Row, pattern: tuple, equal=False) -> bool:
    """Does the copy of r1 placed by ``pattern`` sit below r2 (with
    ``equal``: coincide with it)?

    ``pattern`` pairs positions (i, j), increasing in i: atom i of r1's
    support lands on atom j of r2's support, and every other atom lands
    outside supp(r2).  Decided on the pattern's flat map, which stays
    cached for the spread that usually follows.
    """
    _check_current(r1, r2)
    up, down = r2.columns.placement_map(len(r1.support), len(r2.support), pattern)
    return _fits(r1.bits, r2.bits, up, down, equal)


def placed_below(r1: Row, r2: Row, src, tgt, deadline=None):
    """The injections of a domain into a codomain, as (domain index,
    codomain index) pairs in `partial_injections` order, that place r1
    below r2; raises `OutOfTime` before each once ``deadline`` passed.
    ``src`` and ``tgt`` name the atoms: i for r1's i-th, ~j for r2's
    j-th, None for one of neither.  An atom that may not stay off the
    other support (`_atom_tables`) is bound: in every domain, or hit by
    every injection.  Atoms of the two supports pair unless forbidden,
    others only if neither is bound, and no two take one image."""
    tables = _atom_tables(r1, r2)
    if tables is None:
        return
    forbid, outside_ok, unhit_ok = tables

    def bound(x):
        return x is not None and not (outside_ok >> x if x >= 0 else unhit_ok >> ~x) & 1

    need = sum(1 << c for c, y in enumerate(tgt) if bound(y))
    must, rest, allowed = [], [], []
    for d, x in enumerate(src):
        (must if bound(x) else rest).append(d)
        allowed.append(sum(1 << c for c, y in enumerate(tgt) if (
            not (bound(x) or need >> c & 1) if x is None or y is None
            else not (forbid[x] >> ~y if x >= 0 else forbid[y] >> ~x) & 1)))

    def place(domain, k, taken, pairs):
        # the atoms left must hit the bound ones unhit, all when just enough
        left, unhit = len(domain) - k, need & ~taken
        if unhit.bit_count() > left:
            return
        options = allowed[domain[k]] & ~taken & (unhit if unhit.bit_count() == left else -1)
        while options:
            low = options & -options
            placed = (*pairs, (domain[k], low.bit_length() - 1))
            if left > 1:
                yield from place(domain, k + 1, taken | low, placed)
            else:
                yield placed
            options ^= low

    for size in range(min(len(src), len(tgt)), max(len(must), need.bit_count()) - 1, -1):
        for extra in itertools.combinations(rest, size - len(must)):
            for inj in place(sorted(must + list(extra)), 0, 0, ()) if size else [()]:
                _check_deadline(deadline)
                pattern = []
                for d, c in inj:
                    x, y = src[d], tgt[c]
                    if x is not None and y is not None:
                        pattern.append((x, ~y) if x >= 0 else (y, ~x))
                if placed_leq(r1, r2, tuple(sorted(pattern))):
                    yield inj


def _atom_tables(r1: Row, r2: Row):
    """The atom-free and one-atom blocks of placing r1 into r2, as
    per-atom tables; None when they fail whatever the placement.

    ``forbid[i]`` masks the atoms of supp(r2) that atom i of r1 may not
    land on, ``outside_ok`` the atoms of r1 that may land outside
    supp(r2), and ``unhit_ok`` the atoms of r2 that may stay unhit; the
    last two have every bit past their support set.
    """
    _check_current(r1, r2)
    n1, n2 = len(r1.support), len(r2.support)
    own1, own2 = (1 << n1) - 1, (1 << n2) - 1
    forbid = [0] * n1
    outside_ok = unhit_ok = -1
    for (k, o1, m1), (_, o2, m2) in zip(r2.columns._layout(n1),
                                        r2.columns._layout(n2)):
        if k > 1:
            continue
        b1, b2 = r1.bits >> o1 & m1, r2.bits >> o2 & m2
        if not k:
            if b1 & ~b2:
                return None
            continue
        # bit n of a one-atom block is its column on a fresh atom
        fresh1, fresh2 = b1 >> n1 & 1, b2 >> n2 & 1
        if fresh1 and not fresh2:
            return None
        atoms1, missing2 = b1 & own1, ~b2 & own2
        if missing2:
            for i in range(n1):
                if atoms1 >> i & 1:
                    forbid[i] |= missing2
        if not fresh2:
            outside_ok &= ~atoms1
        if fresh1:
            unhit_ok &= b2 | ~own2
    return forbid, outside_ok, unhit_ok


def _fits(b1: int, b2: int, up, down, equal) -> bool:
    """Is b1 below b2 (with ``equal``: equal to it) through ``(up, down)``?"""
    return not _meets(b1, up, b2) and not (equal and _meets(b2, down, b1))


def _meets(b1: int, up, b2: int) -> bool:
    """Is some joint instance in b1 on one side and outside b2 on the
    other?"""
    missing = ~b2
    while b1:
        low = b1 & -b1
        if up[low.bit_length() - 1] & missing:
            return True
        b1 ^= low
    return False


def first_difference(r1: Row, r2: Row):
    """The first joint column instance where r1 is true and r2 false, or
    None when there is none.

    The instances are those of the joint support, which are all the
    columns the two rows can disagree on.
    """
    for e in r2.columns.instances(r1.support_set | r2.support_set):
        if r1.value(e) and not r2.value(e):
            return e
    return None


def _same_columns(r1: Row, r2: Row):
    """Rows are compared on r2's basis, so both must be over one column set."""
    if r1.columns is not r2.columns and list(r1.columns) != list(r2.columns):
        raise ValueError("rows over different column sets")


def row_leq(r1: Row, r2: Row) -> bool:
    """Pointwise inclusion, decided on joint-support representatives."""
    _same_columns(r1, r2)
    return placed_leq(r1, r2, landing(r1.support, r2.support))


def row_eq(r1: Row, r2: Row) -> bool:
    """Denotation equality, decided on joint-support representatives."""
    _same_columns(r1, r2)
    return placed_leq(r1, r2, landing(r1.support, r2.support), equal=True)


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


def _survivors(t: Row, family, strict, deadline=None):
    """The bits, spread onto t's basis, of every placed copy of a family
    row that lands (strictly) below t, one family row after another;
    raises `OutOfTime` before a family row once ``deadline`` has passed."""
    tgt = [~j for j in range(len(t.support))]
    for y0 in family:
        _check_deadline(deadline)
        y = y0.reduced()
        # y's atoms into t's: each injection is its own pattern
        for pattern in placed_below(y, t, range(len(y.support)), tgt):
            if strict and placed_leq(y, t, pattern, equal=True):
                continue
            up, _ = t.columns.placement_map(len(y.support), len(t.support), pattern)
            yield _spread(y.bits, up)


def join_below(target: Row, family, strict=False) -> Row:
    """The join of every renamed family row below the target.

    Returns, as a row on the target's (least) support, the pointwise
    union of all placed copies pi.y with pi.y <= target (< when
    strict).  A copy's unplaced atoms range over everything outside the
    target's support, so at a target basis column it counts wherever
    some joint instance over that column holds: its bits spread upwards
    through the placement map.
    """
    t = target.reduced()
    bits = 0
    for spread in _survivors(t, family, strict):
        bits |= spread
    return Row(target.owner, t.support_set, bits, target.columns)


def is_join_irreducible(r: Row, family, deadline=None) -> bool:
    """Is the row not the join of the strictly smaller family elements?

    Every strictly smaller placed copy sits inside the row, so the join
    equals it exactly when the copies cover its bits; the search stops
    at the first copy that completes the cover.  The empty row is never
    join-irreducible.  Raises `OutOfTime` before a family row once
    ``deadline`` has passed.
    """
    if not r.bits:
        return False
    t = r.reduced()
    covered = 0
    for spread in _survivors(t, family, True, deadline):
        covered |= spread
        if covered == t.bits:
            return False
    return True


def is_generated_by(target: Row, family) -> bool:
    """Is the target the join of all family elements below it?"""
    jb = join_below(target, family)
    return row_eq(jb, target)


def dedup_by_orbit(rows):
    """One representative per row orbit, keeping first occurrences."""
    reps = {}
    for r in rows:
        reps.setdefault(r.orbit_key(), r)
    return list(reps.values())


def in_family_orbit(r: Row, family) -> bool:
    """Is some family row a renaming of r?"""
    return r.orbit_key() in {other.orbit_key() for other in family}
