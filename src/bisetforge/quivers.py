"""Quiver relations as plain term maps {path: coefficient}, normalized by
terms_in, rewriting, and their images in a corner of the block algebra, a
CornerAlgebra: its basis rows, independence and local lattices serve the
presentation checks and its span check alike.  Every rewriting function takes
the quiver and the ring; RELATION_BOUND, TERM_BOUND, LENGTH_BOUND and
MAX_STEPS bound the work.

A path p.q means first p, then q, matching the order in which the images of
the paths are multiplied in the block algebra.  Arrows are ordered by their
listing position; monomials compare by length first, then lexicographically
on arrow positions.  The unique largest term of a relation is its rewriting
head, so the listing order of the arrows decides the orientation of the
rewriting system.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import rings
from .blocks import COORD_NAMES, BlockElement
from .linalg import LocalLattice, det_bareiss, hnf_rows, rows_over_lcm


class PresentationError(Exception):
    pass


class RewriteDivergence(PresentationError):
    pass


MAX_STEPS = 100000  # the rewrites normal_form makes before RewriteDivergence
LENGTH_BOUND = 8  # the path length irreducible_paths refuses to reach
RELATION_BOUND = 64  # the relations Presentation.from_dict accepts: confluence is quadratic
TERM_BOUND = 4  # the terms element_from_terms accepts: rewriting sorts every term each step
_DEPENDENT = "claimed corner basis is not linearly independent"


class Quiver:
    """Named vertices and arrows (name, source, target); bad data raises
    ValueError naming the first bad entry, as vertices[i] or arrows[i]."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.vertex_index = {}
        for i, v in enumerate(self.vertices):
            if not isinstance(v, str) or v in self.vertex_index:
                raise ValueError("vertices[%d]: expected a new vertex name, got %r" % (i, v))
            self.vertex_index[v] = i
        self.arrows = tuple(tuple(a) if isinstance(a, (list, tuple)) else (a,) for a in arrows)
        self.arrow_index = {}
        self.src = {}
        self.tgt = {}
        for i, arrow in enumerate(self.arrows):
            ok = len(arrow) == 3 and all(isinstance(x, str) for x in arrow)
            name, s, t = arrow if ok else (None,) * 3
            if not ok or name in self.vertex_index or name in self.src or not (
                s in self.vertex_index and t in self.vertex_index
            ):
                raise ValueError(
                    "arrows[%d]: expected [new name, source vertex, target vertex], got %r"
                    % (i, list(arrow))
                )
            self.arrow_index[name] = i
            self.src[name] = s
            self.tgt[name] = t

    def path(self, src, arrows=()):
        if src not in self.vertex_index:
            raise ValueError("unknown vertex %r" % (src,))
        arrows = tuple(arrows)
        at = src
        for a in arrows:
            if a not in self.src:
                raise ValueError("unknown arrow %r" % (a,))
            if self.src[a] != at:
                raise ValueError("arrows do not compose at %s" % a)
            at = self.tgt[a]
        return (src, arrows)

    def path_tgt(self, path):
        src, arrows = path
        return self.tgt[arrows[-1]] if arrows else src

    # Injective on paths: the arrows determine the source unless trivial.
    def path_key(self, path):
        src, arrows = path
        return (
            len(arrows),
            tuple(self.arrow_index[a] for a in arrows),
            self.vertex_index[src],
        )

    def format_path(self, path):
        src, arrows = path
        return ".".join(arrows) if arrows else "(%s)" % src


def terms_in(ring, terms):
    """The term map {path: coefficient} with each coefficient in ring's normal
    form and the zero ones dropped; one outside ring raises ValueError, a
    float TypeError.  Relations, rule tails and normal forms are such maps."""
    out = {}
    for path, c in terms.items():
        c = rings.normalize(ring, c)
        if c != 0:
            out[path] = c
    return out


def canonical_terms(quiver, terms):
    return tuple((path, terms[path]) for path in sorted(terms, key=quiver.path_key))


def make_rules(quiver, ring, relations):
    """Orient relations into head -> tail rules; heads need unit coefficients."""
    rules = []
    for rel in relations:
        if not rel:
            raise PresentationError("zero relation cannot be oriented")
        srcs = {p[0] for p in rel}
        tgts = {quiver.path_tgt(p) for p in rel}
        if len(srcs) != 1 or len(tgts) != 1:
            raise PresentationError("relation terms are not parallel paths")
        head = max(rel, key=quiver.path_key)
        if not head[1]:
            raise PresentationError("leading term is a trivial path")
        c = rel[head]
        if not rings.is_unit(ring, c):
            raise PresentationError("leading coefficient %s is not a unit" % c)
        tail = terms_in(ring, {p: -x / c for p, x in rel.items() if p != head})
        rules.append((head, tail))
    return rules


def _find_redex(arrows, rules):
    for ri, (head, _) in enumerate(rules):
        h = head[1]
        n = len(h)
        if n == 0 or n > len(arrows):
            continue
        for pos in range(len(arrows) - n + 1):
            if arrows[pos : pos + n] == h:
                return ri, pos
    return None


def _rewrite(ring, terms, path, coeff, rule, pos):
    """One rewriting step: add coeff times path, with the head of rule at
    arrow pos replaced by the rule's tail, into the dict terms."""
    (src, arrows), (head, tail) = path, rule
    prefix, suffix = arrows[:pos], arrows[pos + len(head[1]) :]
    for (_, tarrows), tc in tail.items():
        key = (src, prefix + tarrows + suffix)
        c = rings.normalize(ring, terms.get(key, 0) + coeff * tc)
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)


def normal_form(quiver, ring, terms, rules):
    """The term map terms rewritten until no head divides any term; terminates
    since heads are strictly larger than their tails in the monomial order."""
    work = dict(terms)
    steps = 0
    while True:
        target = None
        for path in sorted(work, key=quiver.path_key, reverse=True):
            hit = _find_redex(path[1], rules)
            if hit is not None:
                target = (path, hit)
                break
        if target is None:
            return work
        steps += 1
        if steps > MAX_STEPS:
            raise RewriteDivergence("no normal form within %d steps" % MAX_STEPS)
        path, (ri, pos) = target
        _rewrite(ring, work, path, work.pop(path), rules[ri], pos)


def local_confluence_failures(quiver, ring, rules):
    """Expand every overlap ambiguity both ways; empty result plus
    termination makes the irreducible paths a basis of the quotient."""
    fails = []
    for i, (h1, _) in enumerate(rules):
        a1 = h1[1]
        for j, (h2, _) in enumerate(rules):
            a2 = h2[1]
            for k in range(1, min(len(a1), len(a2))):
                if a1[len(a1) - k :] == a2[:k]:
                    word = (h1[0], a1 + a2[k:])
                    if not _resolves(quiver, ring, rules, word, (i, 0), (j, len(a1) - k)):
                        fails.append(
                            "unresolved overlap of rules %d and %d on %s"
                            % (i, j, quiver.format_path(word))
                        )
            if i != j and len(a2) <= len(a1):
                for pos in range(len(a1) - len(a2) + 1):
                    if a1[pos : pos + len(a2)] == a2:
                        if not _resolves(quiver, ring, rules, h1, (i, 0), (j, pos)):
                            fails.append(
                                "unresolved inclusion of rule %d in rule %d" % (j, i)
                            )
    return fails


def _resolves(quiver, ring, rules, word, left, right):
    """Do the two rewrites (rule index, position) of word meet again?"""
    diff = {}
    for (ri, pos), sign in ((left, 1), (right, -1)):
        _rewrite(ring, diff, word, sign, rules[ri], pos)
    return not normal_form(quiver, ring, diff, rules)


def irreducible_paths(quiver, rules):
    """All paths with no head as a factor, provided none reaches the bound."""
    out = []
    frontier = [(v, ()) for v in quiver.vertices]
    length = 0
    while frontier:
        if length >= LENGTH_BOUND:
            raise PresentationError(
                "irreducible path of length %d reaches the bound %d" % (length, LENGTH_BOUND)
            )
        out.extend(frontier)
        nxt = []
        for src, arrows in frontier:
            at = quiver.path_tgt((src, arrows))
            for name, s, _ in quiver.arrows:
                if s != at:
                    continue
                cand = arrows + (name,)
                if _find_redex(cand, rules) is None:
                    nxt.append((src, cand))
        frontier = nxt
        length += 1
    return tuple(sorted(out, key=quiver.path_key))


class CornerAlgebra:
    """Named block elements, a basis of a corner order, multiplied in the
    block algebra.  The basis is kept as integer rows over their lcm
    denominator b, with the pivot columns P of their Hermite form, and is
    tested as a lattice: no coordinates are solved for.  A dependent basis
    is not refused: independent is False, and each check says so."""

    def __init__(self, named_basis):
        self.labels = tuple(name for name, _ in named_basis)
        self.elements = tuple(elem for _, elem in named_basis)
        self.by_label = dict(zip(self.labels, self.elements))
        if len(self.by_label) != len(self.labels):
            raise ValueError("repeated basis label")
        self._rows, self._b = rows_over_lcm(self.elements)
        echelon = hnf_rows(self._rows)
        self.independent = len(echelon) == len(self._rows)
        self._pivots = [next(j for j, x in enumerate(row) if x) for row in echelon]
        self._lattices = {}  # the LocalLattice of the rows at each prime

    def lattice(self, p):
        """The Z_(p)-span of the rows, b times that of the basis, built once."""
        if p not in self._lattices:
            self._lattices[p] = LocalLattice(self._rows, p)
        return self._lattices[p]

    def is_identity(self, f, ring):
        """Is f a two-sided identity over ring: do f.b - b and b.f - b vanish
        there for every basis element b?  In an order that contains f this
        says f is its unit; over F_p, the unit of A/pA."""
        return all(
            _vanishes(f * b - b, ring, self) and _vanishes(b * f - b, ring, self)
            for b in self.elements
        )

    def in_p_span(self, block, p):
        """Does block lie in p times the Z_(p)-span of the basis, that is, do
        its coordinates, unique when the basis is independent, lie in pZ_(p)?"""
        return self.lattice(p).contains([self._b * x for x in block.nums], p * block.den)

    def span_problems(self, p, named_gens, idempotents):
        """Check the basis spans f.L.f over the localization at p.

        The (name, element) pairs named_gens generate the order L over the
        localization; the sum f of the given idempotents cuts the corner.
        Projections of generators and the basis must span the same local
        lattice, and the basis must be independent.  A generator whose
        projection is not integral is named with its first non-integral
        coordinate.
        """
        problems = []
        f = sum(idempotents, BlockElement.zero())
        for name, elem in zip(self.labels, self.elements):
            if f * elem * f != elem:
                problems.append("basis element %s is not fixed by the corner" % name)
        projected = []  # (name, nums) of each generator with an integral projection
        for name, g in named_gens:
            pg = f * g * f
            if not pg.is_integral():
                k, c = next((k, c) for k, c in enumerate(pg.nums) if c % pg.den)
                problems.append(
                    "projection of generator %s is not integral: %s = %s"
                    % (name, COORD_NAMES[k], rings.format_fraction(c, pg.den))
                )
                continue
            projected.append((name, pg.nums))
        order = LocalLattice([nums for _, nums in projected], p)
        for name, row in zip(self.labels, self._rows):
            if not order.contains(row, self._b):
                problems.append("basis element %s is outside the projected order" % name)
        for name, nums in projected:
            if not self.lattice(p).contains([self._b * x for x in nums]):
                problems.append("projected generator %s escapes the claimed basis" % name)
        if not self.independent:
            problems.append(_DEPENDENT)
        return problems

    def change_of_basis_det(self, blocks):
        """det T for the len(labels) blocks of the span with blocks_k =
        sum_j T_kj basis_j, as det(blocks_P) / det(basis_P) on the pivot
        columns P, where blocks_P = T.basis_P."""
        rows, d = rows_over_lcm(blocks)
        P = self._pivots
        num, den = (det_bareiss([[r[j] for j in P] for r in m]) for m in (rows, self._rows))
        return Fraction(num * self._b ** len(rows), den * d ** len(rows))


class Presentation(
    namedtuple(
        "Presentation",
        "name ring quiver relations long_kernel vertex_images arrow_images mod_p",
        defaults=(None,),
    )
):
    """Quiver with relations, plus the map of its generators into a corner;
    mod_p is (p, relations over F_p) as recorded, or None."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, data, where="presentation", labels=None):
        """The presentation of a parsed fixture; a malformed one raises
        ValueError naming `where` (its file) and the JSON path of the problem.
        labels, if given, are the corner basis labels the images must name."""

        def get(key, kind):
            value = data.get(key)
            if not isinstance(value, kind):
                raise ValueError("%s:%s: expected %s" % (where, key, kind.__name__))
            return value

        def elements(key, ring, items):
            if not isinstance(items, list):
                raise ValueError("%s:%s: expected a list" % (where, key))
            return tuple(
                element_from_terms(quiver, ring, t, "%s:%s[%d]" % (where, key, i))
                for i, t in enumerate(items)
            )

        if not isinstance(data, dict):
            raise ValueError("%s: expected an object" % where)
        name = get("name", str)
        ring = data.get("ring")
        if ring not in rings.RINGS:
            raise ValueError("%s:ring: unknown ring %r" % (where, ring))
        vertices, arrows = get("vertices", list), get("arrows", list)
        try:
            quiver = Quiver(vertices, arrows)
        except ValueError as exc:
            raise ValueError("%s:%s" % (where, exc)) from None
        images = []
        for key, keys in (("vertex_images", quiver.vertices), ("arrow_images", quiver.src)):
            table = get(key, dict)
            for k in keys:
                got = table.get(k)
                if not isinstance(got, str) or (labels is not None and got not in labels):
                    raise ValueError(
                        "%s:%s[%r]: expected a label of the corner basis, got %r"
                        % (where, key, k, got)
                    )
            images.append(dict(table))
        mod_p = data.get("mod_p")
        if mod_p:
            p = mod_p.get("p") if isinstance(mod_p, dict) else None
            if type(p) is not int or p != rings.prime(ring):
                raise ValueError("%s:mod_p.p: expected the prime of ring %s" % (where, ring))
            mod_p = (p, elements("mod_p.relations", "F%d" % p, mod_p.get("relations")))
        relations = elements("relations", ring, data.get("relations"))
        if len(relations) > RELATION_BOUND:
            raise ValueError(
                "%s:relations: %d relations exceed the bound %d"
                % (where, len(relations), RELATION_BOUND)
            )
        long_kernel = elements("long_kernel", ring, data.get("long_kernel"))
        zero = next((i for i, e in enumerate(long_kernel) if not e), None)
        if zero is not None:
            raise ValueError("%s:long_kernel[%d]: zero lies in every kernel" % (where, zero))
        return cls(name, ring, quiver, relations, long_kernel, *images, mod_p or None)

    def rules(self):
        return make_rules(self.quiver, self.ring, self.relations)

    def reduce_mod(self, p):
        """The presentation over F_p, without the relations that vanish there."""
        fring = "F%d" % p

        def reduced(elems):
            return tuple(e for e in (terms_in(fring, e) for e in elems) if e)

        return self._replace(
            name="%s_mod%d" % (self.name, p), ring=fring, relations=reduced(self.relations),
            long_kernel=reduced(self.long_kernel), mod_p=None,
        )


def element_from_terms(quiver, ring, terms, where="terms"):
    """The term map of [[coefficient, source, [arrows]], ...], each coefficient
    a text or an int; more than TERM_BOUND terms, or a term that is
    malformed, whose coefficient is not in the ring or whose path is longer
    than LENGTH_BOUND, raise ValueError naming where or the JSON path of the
    term below it, before any rewriting."""
    if not isinstance(terms, list):
        raise ValueError("%s: expected a list of terms" % where)
    if len(terms) > TERM_BOUND:
        raise ValueError("%s: %d terms exceed the bound %d" % (where, len(terms), TERM_BOUND))
    out = {}
    for k, term in enumerate(terms):
        try:
            coeff, src, arrows = term
            c = rings.parse_fraction(coeff)
            path = quiver.path(src, arrows)
            if len(path[1]) > LENGTH_BOUND:
                raise ValueError(
                    "path of length %d exceeds the bound %d" % (len(path[1]), LENGTH_BOUND)
                )
            c = rings.normalize(ring, c)
        except (TypeError, ValueError) as exc:
            raise ValueError("%s[%d]: %s" % (where, k, exc)) from None
        out[path] = out.get(path, 0) + c
    return terms_in(ring, out)


def element_to_terms(quiver, terms):
    return [[str(c), path[0], list(path[1])] for path, c in canonical_terms(quiver, terms)]


def same_element_sets(quiver, elems_a, elems_b):
    def canonical(elems):
        return sorted(canonical_terms(quiver, e) for e in elems)

    return canonical(elems_a) == canonical(elems_b)


def element_image(terms, pres, corner):
    total = BlockElement.zero()
    for (src, arrows), c in terms.items():
        acc = corner.by_label[pres.vertex_images[src]]
        for a in arrows:
            acc = acc * corner.by_label[pres.arrow_images[a]]
        total = total + acc.scale(c)
    return total


def _vanishes(block, ring, corner):
    """Is block zero over ring: is it 0, or over F_p in p times the local span?"""
    return block.is_zero() or ring.startswith("F") and corner.in_p_span(block, rings.prime(ring))


def verify_presentation(pres, corner):
    """Mechanical check that the presentation describes the corner algebra.

    Returns (problems, n): n counts the irreducible paths, None when orienting
    or the length bound failed, and problems is empty when every check passed:
    idempotent orthogonal vertex images, arrow endpoint compatibility,
    vanishing relations, long kernel contained in the oriented ideal and
    vanishing, local confluence, matching rank, and a unit change of basis
    between the irreducible path images and the corner basis.
    """
    if not corner.independent:
        return [_DEPENDENT], None
    problems = []
    q = pres.quiver
    ring = pres.ring
    vimgs = {v: corner.by_label[pres.vertex_images[v]] for v in q.vertices}
    for v, ev in vimgs.items():
        if not _vanishes(ev * ev - ev, ring, corner):
            problems.append("vertex image %s is not idempotent" % v)
    for v in q.vertices:
        for w in q.vertices:
            if v != w and not _vanishes(vimgs[v] * vimgs[w], ring, corner):
                problems.append("vertex images %s,%s are not orthogonal" % (v, w))
    if not corner.is_identity(sum(vimgs.values(), BlockElement.zero()), ring):
        problems.append("vertex images do not sum to the corner unit")
    for name, s, t in q.arrows:
        img = corner.by_label[pres.arrow_images[name]]
        if not _vanishes(vimgs[s] * img * vimgs[t] - img, ring, corner):
            problems.append("arrow %s is not supported on %s->%s" % (name, s, t))
    for i, rel in enumerate(pres.relations):
        if not _vanishes(element_image(rel, pres, corner), ring, corner):
            problems.append("relation %d does not vanish in the corner" % i)
    try:
        rules = pres.rules()
    except PresentationError as exc:
        problems.append("orientation failed: %s" % exc)
        return problems, None
    problems.extend(local_confluence_failures(q, ring, rules))
    try:
        basis = irreducible_paths(q, rules)
    except PresentationError as exc:
        problems.append(str(exc))
        return problems, None
    if len(basis) != len(corner.labels):
        problems.append(
            "quotient rank %d differs from corner rank %d" % (len(basis), len(corner.labels))
        )
        return problems, len(basis)
    for i, elem in enumerate(pres.long_kernel):
        if normal_form(q, ring, elem, rules):
            problems.append("listed kernel element %d is outside the ideal" % i)
        if not _vanishes(element_image(elem, pres, corner), ring, corner):
            problems.append("listed kernel element %d does not vanish" % i)
    images = [element_image({b: 1}, pres, corner) for b in basis]
    d = corner.change_of_basis_det(images)
    if not rings.is_unit(ring, d):
        problems.append("change of basis determinant %s is not a unit" % d)
    return problems, len(basis)

