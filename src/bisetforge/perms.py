"""Permutations, permutation groups and their subgroup lattices.

A `PermGroup` materializes its elements, sorted by image tuple.  The closure
that builds them raises `CapacityError` as soon as it passes
SUBGROUP_CAPACITY elements, before any `Perm` or table exists, so an
oversized generating set (S7, S10) is refused in milliseconds.

Subgroup work runs on integer tables that a group builds on first use and
keeps for its own lifetime: element i is `elements[i]`, so index order is
element order and index 0 is the identity.  The closure composes each element
with each distinct generator once and keeps those compositions, as index
lists over the sorted elements, for the tables: the multiplication table is
built from these right-multiplication rows by gathers alone, with no further
composition, and a group that never builds its tables holds only these rows.
The multiplication table holds n^2 ints and the conjugation rows, one per
generator, |gens|*n more (about 50 MB at the capacity, 4 MB for S6).  A
subgroup is a Python int with bit i set for each element i it contains.

Subgroup classes come from the cyclic extension method (Neubueser 1960):
every subgroup is generated by its cyclic subgroups of prime-power order, so
joining one representative H of each known class with each such cyclic <z>
reaches every class.  A cyclic <z> is the powers of z along its table row.
Since <H, h z h^-1> = <H, z> for h in H, one join settles the cyclics of all
h z h^-1, and the rest are skipped.  A join closes coset by coset (Dimino),
each coset one gather of a table row; a new class is the orbit of its
representative under the generators.  A class stays member masks to the
output, the least the representative with greedy generators (`minimal_gens`);
no `PermGroup` is built per class, and more than SUBGROUP_COUNT_CAPACITY
subgroups raise `CapacityError`.  S6 (56 classes, 1455 subgroups) takes
about 0.19 s as a fresh process on a 2-vCPU VM (0.22 s before the tables were
built from the closure's rows, medians of 11 alternating runs).

    >>> a = Perm.from_cycle_string("(1,2)", 3)
    >>> b = Perm.from_cycle_string("(1,2,3)", 3)
    >>> (a * b).cycle_string()
    '(2,3)'
    >>> len(symmetric_group(3))
    6
    >>> len(symmetric_group(4).conjugacy_classes_of_subgroups())
    11
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress, count
from operator import itemgetter

__all__ = [
    "Perm",
    "PermGroup",
    "symmetric_group",
    "cyclic_group",
    "CapacityError",
    "spell_cycles",
]

# The multiplication table holds n^2 ints, about 50 MB at this order (|A7|),
# and twice that while it is built; S7 and larger are refused before any work.
SUBGROUP_CAPACITY = 2_520

# Just above A7's 3,786 subgroups (about 2 s): a group inside the order capacity
# may have tens of thousands (C2^7 29,212, 23 s), refused once its classes pass this.
SUBGROUP_COUNT_CAPACITY = 4_000

# The largest point a parsed permutation may move or name as its degree.  A
# permutation holds one int per point, so a label such as (1,99999999) would
# otherwise allocate hundreds of megabytes before any group work; every group
# the CLI advertises (S1..S6, C1..C30) has degree at most 30.
DEGREE_CAPACITY = 100


class CapacityError(Exception):
    pass


def spell_cycles(text):
    """Cycle notation text with its points separated by commas alone: a
    space between two points reads as a comma, other spaces go."""
    return re.sub(r"\s*([(),])\s*|\s+", lambda m: m.group(1) or ",", text.strip())


class Perm:
    """A permutation of {0, ..., n-1} stored as its image tuple.

    Composition is function composition: (p * q)(x) = p(q(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a bijection of 0..%d: %r" % (len(images) - 1, images))
        self.images = images

    @classmethod
    def _trusted(cls, images):
        """A Perm from an image tuple that is known to be a bijection."""
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree):
        """Build from 0-based cycles, e.g. [(0,1),(2,3)]."""
        # checked first: a point met twice would overwrite its image
        seen = [pt for cyc in cycles for pt in cyc]
        if len(seen) != len(set(seen)):
            raise ValueError("cycles are not disjoint: %r" % (cycles,))
        images = list(range(degree))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @classmethod
    def from_cycle_string(cls, text, degree=None):
        """Parse 1-based cycle notation like "(1,2)(3,4)" or "()".

        Points may be separated by commas or spaces.  If degree is omitted it
        is the largest point mentioned.
        """
        typed = text.strip()  # what each refusal quotes
        text = spell_cycles(typed)
        cycles, need = [], 0
        if text not in ("()", "", "1", "id"):
            if not (text.startswith("(") and text.endswith(")")):
                raise ValueError("bad cycle notation: %r" % (typed,))
            for part in text[1:-1].split(")("):
                try:
                    pts = [int(tok) for tok in part.split(",")]
                except ValueError:  # an empty point, or one that is not a number
                    pts = []
                if not pts:
                    raise ValueError("bad cycle notation: %r" % (typed,))
                if any(pt < 1 for pt in pts):
                    raise ValueError("cycle notation is 1-based: %r" % (typed,))
                cycles.append(tuple(pt - 1 for pt in pts))
            need = 1 + max(pt for cyc in cycles for pt in cyc)
        if degree is None:
            degree = need
        if degree > DEGREE_CAPACITY:
            raise CapacityError(
                "degree %d exceeds the capacity of %d points" % (degree, DEGREE_CAPACITY)
            )
        if degree < need:
            raise ValueError("degree %d too small for %r" % (degree, typed))
        try:
            return cls.from_cycles(cycles, degree)
        except ValueError:  # the points are in range: the cycles overlap
            raise ValueError("cycles are not disjoint: %r" % (typed,)) from None

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm._trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self):
        images = [0] * self.degree
        for x, y in enumerate(self.images):
            images[y] = x
        return Perm._trusted(tuple(images))

    def order(self):
        p, k = self, 1
        e = Perm.identity(self.degree)
        while p != e:
            p, k = p * self, k + 1
        return k

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen, out = set(), []
        for start in range(self.degree):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm%r" % (list(self.images),)


def _close(degree, generators):
    """(images, right, gens) for the group the perms generate: its image
    tuples sorted, for each distinct generator g other than the identity the
    right-multiplication row i -> index of images[i] * g, and the index of
    each generator.

    The walk, breadth first, composes every element with every such generator
    once, and those compositions are the rows.  Raises CapacityError as soon
    as the partial closure passes SUBGROUP_CAPACITY elements.
    """
    e = tuple(range(degree))
    distinct = [g for g in dict.fromkeys(g.images for g in generators) if g != e]
    # x * g is x gathered at g's images; g moves a point, so degree >= 2 and
    # the itemgetter returns a tuple
    steps = [(itemgetter(*g), []) for g in distinct]
    elems, found = [e], {e: 0}  # found: image tuple -> position in elems
    for x in elems:
        for times_g, row in steps:
            y = times_g(x)
            k = found.get(y)
            if k is None:
                k = found[y] = len(elems)
                elems.append(y)
                if k == SUBGROUP_CAPACITY:
                    raise CapacityError(
                        "group order exceeds the capacity of %d elements" % SUBGROUP_CAPACITY
                    )
            row.append(k)
    rows = [row for _, row in steps]
    order = sorted(range(len(elems)), key=elems.__getitem__)  # walk positions, sorted
    rank = sorted(range(len(elems)), key=order.__getitem__)  # its inverse
    right = [list(map(rank.__getitem__, map(row.__getitem__, order))) for row in rows]
    first = {g: row[0] for g, row in zip(distinct, right)}  # the identity times g is g
    return list(map(elems.__getitem__, order)), right, [first.get(g.images, 0) for g in generators]


_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BINARY_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(flags):
    """The int whose bit i is flags[i], for a bytearray of 0s and 1s."""
    return int(flags[::-1].translate(_BINARY_DIGITS), 2)


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY_FLAGS)))


def _is_prime_power(k):
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return k == 1


class _Tables:
    """Multiplication, inverse and conjugation over the indices of a group's
    sorted element tuple, with element orders.

    index[p.images] is the index of p, mul[i][j] that of elements[i] *
    elements[j], inv[i] that of the inverse of elements[i], gens those of the
    generators, and conj[g][i], for each g in gens only, that of g * elements[i] * g^-1.

    mul is the transpose of its columns: the identity's column is 0..n-1, and
    the column of e_j * g is that of e_j mapped through g's right-multiplication
    row.  Those rows come from the closure that found the elements, so the
    tables take no Python-level composition.
    """

    def __init__(self, elements, right, gens):
        self.elements = elements
        self.n = n = len(elements)
        self.gens = gens
        cols = [None] * n
        cols[0] = tuple(range(n))
        reached = [0]
        for j in reached:
            for row in right:
                k = row[j]
                if cols[k] is None:  # then k != j, so n >= 2 and the itemgetter returns a tuple
                    cols[k] = itemgetter(*cols[j])(row)
                    reached.append(k)
        assert len(reached) == n, "the generators do not generate the elements"
        self.mul = mul = list(zip(*cols))
        self.inv = inv = [row.index(0) for row in mul]
        self.conj = {g: list(map(cols[inv[g]].__getitem__, mul[g])) for g in gens}
        orders = [1] * n
        for i in range(1, n):
            x, row = i, mul[i]
            while x:
                x = row[x]
                orders[i] += 1
        self.orders = orders
        # rank[i]: the place of i when sorted by decreasing order, then index
        by_order = sorted(range(n), key=orders.__getitem__, reverse=True)  # stable
        self.rank = sorted(range(n), key=by_order.__getitem__)
        self.bit = [1 << i for i in range(n)]  # bit[i] is the mask of element i alone

    @cached_property
    def index(self):
        return {p.images: i for i, p in enumerate(self.elements)}

    def mask_of(self, elems):
        """Bitmask of an iterable of distinct element indices."""
        return sum(map(self.bit.__getitem__, elems))

    def join(self, elems, gens, x):
        """(elements, flags) of <H, x>, H the subgroup with element list
        elems and generators gens; flags[i] is 1 for each element.

        The result is H's left cosets r*H, found by closing the coset
        representatives under left multiplication by the generators.
        """
        mul = self.mul
        gens = [mul[s] for s in gens + [x]]
        # the coset t*H is row t of mul at H's elements; a one-item itemgetter
        # returns the item alone, and each coset of the trivial H is {t}
        take = itemgetter(*elems) if len(elems) > 1 else lambda row: (row[0],)
        flags = bytearray(self.n)
        for h in elems:
            flags[h] = 1
        out = list(elems)
        reps = [0]
        for r in reps:
            for row in gens:
                t = row[r]
                if not flags[t]:
                    coset = take(mul[t])
                    for y in coset:
                        flags[y] = 1
                    out += coset
                    reps.append(t)
        return out, flags

    def cyclic(self, x):
        """(elements, flags) of <x> as join gives them: its powers in order."""
        row, flags, out = self.mul[x], bytearray(self.n), [0]
        flags[0] = 1
        while x:
            flags[x] = 1
            out.append(x)
            x = row[x]
        return out, flags

    def generated(self, gens):
        """The element indices of the subgroup that the indices gens
        generate, joined in one generator at a time."""
        if not gens:
            return [0]
        elems = self.cyclic(gens[0])[0]
        for k in range(1, len(gens)):
            elems = self.join(elems, gens[:k], gens[k])[0]
        return elems

    def orbit(self, mask):
        """The conjugates of subgroup mask in the group, mask first."""
        orbit, seen = [mask], {mask}
        for m in orbit:
            elems = _bits(m)
            for row in self.conj.values():
                c = self.mask_of(map(row.__getitem__, elems))
                if c not in seen:
                    seen.add(c)
                    orbit.append(c)
        return orbit

    def minimal_gens(self, elems):
        """Generators of the subgroup elems, taken greedily by decreasing
        order, then index, skipping those already in the span."""
        gens, span, flags = [], [0], bytearray(self.n)
        flags[0] = 1
        for i in sorted(elems, key=self.rank.__getitem__):
            if flags[i]:
                continue
            span, flags = self.join(span, gens, i) if gens else self.cyclic(i)
            gens.append(i)
            if len(span) == len(elems):
                break
        return gens

    def subgroup_classes(self):
        """Conjugacy classes of subgroups, each a list of bitmasks in orbit
        order; past SUBGROUP_COUNT_CAPACITY subgroups, CapacityError."""
        mul, inv, orders = self.mul, self.inv, self.orders
        # cyclic_of[j]: the position in cyclics of <j>, for j of prime-power order
        cyclics, cyclic_of = [], [None] * self.n
        prime_power = {k: _is_prime_power(k) for k in set(orders[1:])}
        for i in range(1, self.n):
            if cyclic_of[i] is not None or not prime_power[orders[i]]:
                continue
            elems, flags = self.cyclic(i)
            for j in elems:
                if orders[j] == orders[i]:
                    cyclic_of[j] = len(cyclics)
            cyclics.append((i, _mask(flags), elems))

        classes, known, reps = [], set(), []

        def add(mask, elems, hgens):
            if mask in known:
                return
            orbit = self.orbit(mask)
            known.update(orbit)
            if len(known) > SUBGROUP_COUNT_CAPACITY:
                raise CapacityError(
                    "subgroup count exceeds the capacity of %d subgroups" % SUBGROUP_COUNT_CAPACITY
                )
            classes.append(orbit)
            reps.append((mask, elems, hgens))

        add(1, [0], [])
        for i, mask, elems in cyclics:
            add(mask, elems, [i])
        frontier = reps[1:]
        while frontier:
            start = len(reps)
            for hmask, helems, hgens in frontier:
                done = set()  # cyclics whose join with H is already made
                for c, (z, zmask, _) in enumerate(cyclics):
                    if c in done or zmask & hmask == zmask:
                        continue
                    kelems, flags = self.join(helems, hgens, z)
                    add(_mask(flags), kelems, hgens + [z])
                    done.update(cyclic_of[mul[mul[h][z]][inv[h]]] for h in helems)
            frontier = reps[start:]
        return classes


class PermGroup:
    """A concrete permutation group with a materialized element list."""

    def __init__(self, degree, generators):
        self.degree = degree
        self.generators = tuple(generators)
        if any(g.degree != degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        images, self._right, self._gens = _close(degree, self.generators)
        self.elements = tuple(map(Perm._trusted, images))
        self._tables = None

    @cached_property
    def element_set(self):
        """The elements as a frozenset, built on first use, so that building a
        group hashes no `Perm`."""
        return frozenset(self.elements)

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.element_set == other.element_set
        )

    def __hash__(self):
        return hash((self.degree, self.element_set))

    def _table(self):
        if self._tables is None:
            self._tables = _Tables(self.elements, self._right, self._gens)
        return self._tables

    def subgroup_generators(self, mask):
        """Generators of the subgroup mask, chosen greedily: highest order
        first, then least index, skipping elements in the span."""
        return [self.elements[g] for g in self._table().minimal_gens(_bits(mask))]

    def subgroup_mask(self, sub):
        """sub's bitmask here, or None when sub is not contained in this group."""
        tables = self._table()
        idx = [tables.index.get(p.images) for p in sub.elements]
        return None if None in idx else tables.mask_of(idx)

    def conjugacy_classes_of_subgroups(self):
        """The member bitmasks of each conjugacy class of subgroups.  Members
        are sorted by (order, element indices) and classes by their least
        member, the representative, so the output is deterministic."""
        # of two index lists of one length the lesser holds the least index of
        # their difference, so its bits read from bit 0 up are the greater string
        def key(m):
            return -m.bit_count(), bin(m)[:1:-1]

        classes = [sorted(cls, key=key, reverse=True) for cls in self._table().subgroup_classes()]
        return sorted(classes, key=lambda cls: key(cls[0]), reverse=True)


def symmetric_group(n):
    if n <= 1:
        return PermGroup(max(n, 1), [])
    gens = [Perm.from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(Perm.from_cycles([tuple(range(n))], n))
    return PermGroup(n, gens)


def cyclic_group(n):
    if n <= 1:
        return PermGroup(max(n, 1), [])
    return PermGroup(n, [Perm.from_cycles([tuple(range(n))], n)])
