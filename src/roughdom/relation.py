"""Approximable relations between CF spaces.

A relation between the families of two spaces qualifies as a morphism
when five closure axioms hold; this module validates them, builds the
identity relation, composes relations, and moves back and forth between
relations and Scott-continuous maps of the closed-set posets.  The two
directions are mutually inverse, which the tests enumerate exhaustively
at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfspace import absorption_masks, cf_closed_sets, is_topological_cf, require_validated
from .errors import (
    InvalidRelation,
    NotTopological,
    PostconditionFailed,
    RelationNotValidated,
    SpaceMismatch,
)
from .ordering import bits, union_of
from .poset import MonotoneMap


class ApproximableRelation:
    """A set of (F, G) pairs between the families of two CF spaces.

    Stored as one tuple ``rows``: bit j of ``rows[i]`` is set when the
    relation holds (F_i, G_j), indexing the source and target families.
    ``pairs`` builds the same content as member pairs on each read.
    Validation runs on demand and its report is kept on the object.
    """

    __slots__ = ("source", "target", "rows", "_validation", "_hash")

    def __init__(self, source, target, pairs):
        findex, gindex = source._findex, target._findex
        rows = [0] * len(source.family)
        for F, G in pairs:
            F, G = frozenset(F), frozenset(G)
            if F not in findex:
                raise InvalidRelation(f"{set(F)!r} is not in the source family")
            if G not in gindex:
                raise InvalidRelation(f"{set(G)!r} is not in the target family")
            rows[findex[F]] |= 1 << gindex[G]
        self._fill(source, target, rows)

    @classmethod
    def _from_rows(cls, source, target, rows):
        """The relation with target-index bitmask ``rows[i]`` at source
        index i, unchecked: for builders whose rows are valid by construction."""
        rel = cls.__new__(cls)
        rel._fill(source, target, rows)
        return rel

    def _fill(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = tuple(rows)
        self._validation = None
        self._hash = None

    @property
    def pairs(self):
        fam1, fam2 = self.source.family, self.target.family
        return frozenset((fam1[i], fam2[j])
                         for i, row in enumerate(self.rows) for j in bits(row))

    def on(self, source, target):
        """The same relation on the equal spaces ``source`` and ``target``,
        whose families may list their members in another order."""
        if source is self.source and target is self.target:
            return self
        if source != self.source or target != self.target:
            raise SpaceMismatch("a relation moves only between equal spaces")
        gpos = [target._findex[G] for G in self.target.family]
        rows = [0] * len(source.family)
        for F, row in zip(self.source.family, self.rows):
            rows[source._findex[F]] = sum(1 << gpos[j] for j in bits(row))
        return ApproximableRelation._from_rows(source, target, rows)

    def __eq__(self, other):
        if not isinstance(other, ApproximableRelation):
            return NotImplemented
        if self.source is other.source and self.target is other.target:
            return self.rows == other.rows
        return (self.source == other.source and self.target == other.target
                and self.pairs == other.pairs)

    def __hash__(self):
        # row sizes by source member: alike for equal relations in any family order
        if self._hash is None:
            sizes = frozenset(zip(self.source.family, map(int.bit_count, self.rows)))
            self._hash = hash((self.source, self.target, sizes))
        return self._hash

    def __repr__(self):
        return f"ApproximableRelation({sum(map(int.bit_count, self.rows))} pairs)"

    def __contains__(self, pair):
        return (frozenset(pair[0]), frozenset(pair[1])) in self.pairs

    @property
    def is_validated(self):
        return validate_approximable(self).ok


@dataclass(frozen=True)
class ApproximabilityReport:
    """First failing axiom (1-5) with a counterexample, or a clean pass."""

    ok: bool
    failing: int | None = None
    counterexample: tuple | None = None
    conditions: tuple = (None,) * 5

    def __bool__(self):
        return self.ok


def validate_approximable(rel):
    """Check the five morphism axioms exhaustively, stopping at the first
    failure.  The report is kept on ``rel``, so each object is checked once."""
    if rel._validation is None:
        rel._validation = _validate(rel)
    return rel._validation


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _undirected(rows, up2, down2):
    """The first (i, j, j2), rows ascending, where G_j and G_j2 have no
    common bound among the targets of i (``up2[j]`` holds the j3 with G_j
    inside upper(G_j3)); None when every row is directed.  A row inside
    ``down2[t]`` for one of its own members t is directed, t bounding
    every pair, so only the other rows are scanned pair by pair."""
    for i, row in enumerate(rows):
        if any(row & ~down2[t] == 0 for t in bits(row)):
            continue
        js = list(bits(row))
        for a, j in enumerate(js):
            bounds = up2[j] & row
            for j2 in js[a:]:
                if not bounds & up2[j2]:
                    return i, j, j2
    return None


def _validate(rel):
    """The five axioms on the row bitmasks ``rel.rows``.  Rows are checked
    in ascending order and a counterexample names the lowest missing index."""
    src, tgt = rel.source, rel.target
    rows = rel.rows
    conds = [None] * 5

    def fail(k, counter):
        conds[k - 1] = False
        return ApproximabilityReport(False, k, counter, tuple(conds))

    # (1) every source member relates to something
    for i, row in enumerate(rows):
        if not row:
            return fail(1, (src.family[i],))
    conds[0] = True

    up1, down1 = absorption_masks(src)
    up2, down2 = absorption_masks(tgt)

    # (2) left absorption: F inside upper(F') propagates the pair to F'
    for i, row in enumerate(rows):
        for i2 in bits(up1[i]):
            missing = row & ~rows[i2]
            if missing:
                return fail(2, (src.family[i], src.family[i2], tgt.family[_lowest(missing)]))
    conds[1] = True

    # (3) right absorption: G' inside upper(G) propagates the pair to G'
    for i, row in enumerate(rows):
        for j in bits(row):
            missing = down2[j] & ~row
            if missing:
                return fail(3, (src.family[i], tgt.family[j], tgt.family[_lowest(missing)]))
    conds[2] = True

    # (4) interpolation: each pair factors through a smaller F' and larger G'
    for i, row in enumerate(rows):
        below = union_of(rows, down1[i])
        for j in bits(row):
            if not below & up2[j]:
                return fail(4, (src.family[i], tgt.family[j]))
    conds[3] = True

    # (5) right directedness: paired targets admit a common bound
    bad = _undirected(rows, up2, down2)
    if bad:
        i, j, j2 = bad
        return fail(5, (src.family[i], tgt.family[j], tgt.family[j2]))
    conds[4] = True

    return ApproximabilityReport(True, None, None, tuple(conds))


def require_relation_validated(rel):
    if not validate_approximable(rel).ok:
        raise RelationNotValidated("the relation fails the morphism axioms")


def identity_relation(space):
    """Pairs (F, G) with G inside the upper approximation of F."""
    require_validated(space)
    return ApproximableRelation._from_rows(space, space, absorption_masks(space)[1])


def compose(second, first):
    """Relational composition (apply ``first``, then ``second``).

    The composite is not validated here.  Valid relations are closed
    under composition, which ``check_functor_laws`` tests by finding each
    composite in the independently enumerated hom-set; ``to_map`` refuses
    a composite that fails the axioms.
    """
    if first.target is not second.source and first.target != second.source:
        raise SpaceMismatch("inner spaces differ; relations do not compose")
    # an equal middle space may list its family in another order
    mid = second.on(first.target, second.target).rows
    rows = [union_of(mid, row) for row in first.rows]
    return ApproximableRelation._from_rows(first.source, second.target, rows)


@dataclass(frozen=True)
class FourForms:
    """The four equivalent ways a pair may be supported by a valid relation."""

    direct: bool
    via_source: bool
    via_target: bool
    via_both: bool

    def all_equal(self):
        return self.direct == self.via_source == self.via_target == self.via_both


def equivalent_forms(rel, F, G):
    src, tgt = rel.source, rel.target
    i = src.family_index(F)
    j = tgt.family_index(G)
    rows = rel.rows
    # the targets of the sources F' inside upper(F), and the targets G'
    # with G inside upper(G')
    below = union_of(rows, absorption_masks(src)[1][i])
    above = absorption_masks(tgt)[0][j]
    return FourForms(direct=bool(rows[i] >> j & 1),
                     via_source=bool(below >> j & 1),
                     via_target=bool(rows[i] & above),
                     via_both=bool(below & above))


# --------------------------------------------------------------------------
# relations <-> Scott-continuous maps
# --------------------------------------------------------------------------

def _image_masks(rel, masks):
    """Per source-universe bitmask E in ``masks``, the union of upper(G)
    over the pairs (F, G) of ``rel`` with F inside E."""
    r2 = rel.target._rmasks
    reach = [(fm, union_of(r2, row)) for fm, row in zip(rel.source._fmasks, rel.rows)]
    out = []
    for emask in masks:
        acc = 0
        for fm, up in reach:
            if fm & ~emask == 0:
                acc |= up
        out.append(acc)
    return out


def to_map(rel, config=None):
    """The Scott-continuous map a validated relation induces on closed sets.

    Sends E to the union of upper approximations of every target member
    paired with a source member inside E; each value is checked to be
    closed and the whole graph to be order-preserving.
    """
    require_relation_validated(rel)
    cs1 = cf_closed_sets(rel.source, config=config)
    cs2 = cf_closed_sets(rel.target, config=config)
    base1, base2 = rel.source.base, rel.target.base
    images = _image_masks(rel, [base1.mask(E) for E in cs1.closed_sets])
    graph = {}
    for E, out in zip(cs1.closed_sets, images):
        value = base2.subset(out)
        if value not in cs2:
            raise PostconditionFailed("induced map produced a non-closed value")
        graph[E] = value
    return MonotoneMap(cs1.poset, cs2.poset, graph)


def _from_image_masks(source, target, image):
    """The relation pairing F with every target member inside
    ``image[upper(F)]``.

    ``image`` maps each distinct upper mask of the source to a mask over
    the target universe; each row is built once per distinct upper(F).
    Every map-to-relation construction goes through here, and its result
    must satisfy the morphism axioms, which is asserted.
    """
    fmasks = target._fmasks
    row_of = {}
    rows = []
    for rf in source._rmasks:
        row = row_of.get(rf)
        if row is None:
            imask = image[rf]
            row = row_of[rf] = sum(1 << j for j, gm in enumerate(fmasks)
                                   if gm & ~imask == 0)
        rows.append(row)
    rel = ApproximableRelation._from_rows(source, target, rows)
    rep = validate_approximable(rel)
    if not rep.ok:
        raise PostconditionFailed(
            f"map-induced relation failed axiom ({rep.failing})")
    return rel


def from_map(f, source_space, target_space, config=None):
    """The relation a Scott-continuous map between closed-set posets induces.

    Pairs (F, G) with G inside f(upper(F)), f being read once per
    distinct upper(F); the result always satisfies the morphism axioms,
    which is asserted.
    """
    cs1 = cf_closed_sets(source_space, config=config)
    cs2 = cf_closed_sets(target_space, config=config)
    if f.source != cs1.poset or f.target != cs2.poset:
        raise SpaceMismatch("map does not run between the stated closed-set posets")
    base1, base2 = source_space.base, target_space.base
    image = {rf: base2.mask(f(base1.subset(rf))) for rf in set(source_space._rmasks)}
    return _from_image_masks(source_space, target_space, image)


# --------------------------------------------------------------------------
# topological variant
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologicalApproximabilityReport:
    ok: bool
    failing: int | None = None
    counterexample: tuple | None = None

    def __bool__(self):
        return self.ok


def validate_topological_approximable(rel):
    """Three-axiom characterization available between preorder spaces.

    Must agree with the five-axiom validator on such spaces, which the
    tests check on random relations.
    """
    if not (is_topological_cf(rel.source) and is_topological_cf(rel.target)):
        raise NotTopological("both spaces must be topological CF spaces")
    src, tgt = rel.source, rel.target
    rows = rel.rows

    for i, row in enumerate(rows):
        if not row:
            return TopologicalApproximabilityReport(False, 1, (src.family[i],))

    up1 = absorption_masks(src)[0]
    up2, down2 = absorption_masks(tgt)
    for i, row in enumerate(rows):
        for j in bits(row):
            for i2 in bits(up1[i]):
                missing = down2[j] & ~rows[i2]
                if missing:
                    return TopologicalApproximabilityReport(
                        False, 2, (src.family[i], src.family[i2], tgt.family[j],
                                   tgt.family[_lowest(missing)]))

    bad = _undirected(rows, up2, down2)
    if bad:
        i, j, j2 = bad
        return TopologicalApproximabilityReport(
            False, 3, (src.family[i], tgt.family[j], tgt.family[j2]))

    return TopologicalApproximabilityReport(True)
