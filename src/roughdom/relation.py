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

from .cfspace import cf_closed_sets, require_validated
from .errors import (
    InvalidRelation,
    MapNotContinuous,
    NotTopological,
    PostconditionFailed,
    RelationNotValidated,
    SpaceMismatch,
)
from .cfspace import is_topological_cf
from .poset import MonotoneMap, is_scott_continuous


class ApproximableRelation:
    """A set of (F, G) pairs between the families of two CF spaces.

    Stored extensionally so equality stays structural and decidable;
    validation runs on demand and is memoized per content.  Alongside
    ``pairs`` the relation keeps its (i, j) family-index pairs
    (``_ipairs``) and the targets of each source index (``_rows``).
    """

    __slots__ = ("source", "target", "pairs", "_ipairs", "_rows", "_validation",
                 "_hash")

    def __init__(self, source, target, pairs):
        findex, gindex = source._findex, target._findex
        ip = set()
        for F, G in pairs:
            F, G = frozenset(F), frozenset(G)
            if F not in findex:
                raise InvalidRelation(f"{set(F)!r} is not in the source family")
            if G not in gindex:
                raise InvalidRelation(f"{set(G)!r} is not in the target family")
            ip.add((findex[F], gindex[G]))
        self._fill(source, target, ip)

    @classmethod
    def _from_indices(cls, source, target, ipairs):
        """The relation on (i, j) pairs of source and target family indices.

        For internal builders whose indices are valid by construction:
        nothing is normalized or checked.
        """
        rel = cls.__new__(cls)
        rel._fill(source, target, ipairs)
        return rel

    def _fill(self, source, target, ipairs):
        # frozensets copied from sets get compact tables; built from other
        # iterables they keep up to twice the room, and relations are many
        ip = frozenset(set(ipairs))
        fam1, fam2 = source.family, target.family
        self.source = source
        self.target = target
        self.pairs = frozenset({(fam1[i], fam2[j]) for i, j in ip})
        self._ipairs = ip
        rows = {}
        for i, j in sorted(ip):
            rows.setdefault(i, []).append(j)
        self._rows = {i: tuple(js) for i, js in rows.items()}
        self._validation = None
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, ApproximableRelation):
            return NotImplemented
        if self.source is other.source and self.target is other.target:
            return self._ipairs == other._ipairs
        return (self.source == other.source and self.target == other.target
                and self.pairs == other.pairs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.pairs))
        return self._hash

    def __repr__(self):
        return f"ApproximableRelation({len(self.pairs)} pairs)"

    def __contains__(self, pair):
        F, G = pair
        return (frozenset(F), frozenset(G)) in self.pairs

    @property
    def is_validated(self):
        rep = validate_approximable(self)
        return rep.ok


@dataclass(frozen=True)
class ApproximabilityReport:
    """First failing axiom (1-5) with a counterexample, or a clean pass."""

    ok: bool
    failing: int | None = None
    counterexample: tuple | None = None
    conditions: tuple = (None,) * 5

    def __bool__(self):
        return self.ok


_VALIDATION_MEMO = {}


def _content_key(rel):
    return (rel.source, rel.target, rel.pairs)


def validate_approximable(rel):
    """Check the five morphism axioms exhaustively, stopping at the first failure."""
    if rel._validation is not None:
        return rel._validation
    key = _content_key(rel)
    memo = _VALIDATION_MEMO.get(key)
    if memo is not None:
        rel._validation = memo
        return memo
    report = _validate(rel)
    _VALIDATION_MEMO[key] = report
    rel._validation = report
    return report


def _absorption(source, target):
    """Axioms (2) and (3): a valid relation holding the index pair (i, j)
    holds (i2, j2) for every i2 in ``ups[i]`` (F_i inside upper(F_i2))
    and every j2 in ``downs[j]`` (G_j2 inside upper(G_j))."""
    fm1, r1 = source._fmasks, source._rmasks
    fm2, r2 = target._fmasks, target._rmasks
    ups = [[i2 for i2 in range(len(fm1)) if f & ~r1[i2] == 0] for f in fm1]
    downs = [[j2 for j2 in range(len(fm2)) if fm2[j2] & ~r == 0] for r in r2]
    return ups, downs


def _masks(index_lists):
    return [sum(1 << k for k in ks) for ks in index_lists]


def _row_masks(rel):
    """Per source index i, the bitmask of the target indices paired with i."""
    row = [0] * len(rel.source.family)
    for i, js in rel._rows.items():
        row[i] = sum(1 << j for j in js)
    return row


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _undirected(rel, row, up2):
    """The first (i, j, j2), rows ascending, where G_j and G_j2 have no
    common bound among the targets of i (``up2[j]`` holds the j3 with G_j
    inside upper(G_j3)); None when every row is directed."""
    for i, js in rel._rows.items():
        for a, j in enumerate(js):
            bounds = up2[j] & row[i]
            for j2 in js[a:]:
                if not bounds & up2[j2]:
                    return i, j, j2
    return None


def _validate(rel):
    """The five axioms on row bitmasks: ``row[i]`` has bit j set when the
    relation holds (i, j).  Rows are checked in ascending order and a
    counterexample names the lowest missing index."""
    src, tgt = rel.source, rel.target
    n1 = len(src.family)
    rows = rel._rows
    row = _row_masks(rel)
    conds = [None] * 5

    def fail(k, counter):
        conds[k - 1] = False
        return ApproximabilityReport(False, k, counter, tuple(conds))

    # (1) every source member relates to something
    for i in range(n1):
        if not row[i]:
            return fail(1, (src.family[i],))
    conds[0] = True

    # (2) and (3) absorb along the preorders; the transposed lists serve
    # (4) and (5): downs1[i] holds i2 with F_i2 inside upper(F_i), ups2[j]
    # holds j2 with G_j inside upper(G_j2)
    ups1, downs2 = _absorption(src, tgt)
    ups2, downs1 = _absorption(tgt, src)
    down2, up2 = _masks(downs2), _masks(ups2)

    # (2) left absorption: F inside upper(F') propagates the pair to F'
    for i in range(n1):
        for i2 in ups1[i]:
            missing = row[i] & ~row[i2]
            if missing:
                return fail(2, (src.family[i], src.family[i2], tgt.family[_lowest(missing)]))
    conds[1] = True

    # (3) right absorption: G' inside upper(G) propagates the pair to G'
    for i, js in rows.items():
        for j in js:
            missing = down2[j] & ~row[i]
            if missing:
                return fail(3, (src.family[i], tgt.family[j], tgt.family[_lowest(missing)]))
    conds[2] = True

    # (4) interpolation: each pair factors through a smaller F' and larger G'
    for i, js in rows.items():
        below = 0
        for i2 in downs1[i]:
            below |= row[i2]
        for j in js:
            if not below & up2[j]:
                return fail(4, (src.family[i], tgt.family[j]))
    conds[3] = True

    # (5) right directedness: paired targets admit a common bound
    bad = _undirected(rel, row, up2)
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
    fmasks = space._fmasks
    ipairs = [(i, j) for i, rf in enumerate(space._rmasks)
              for j, gm in enumerate(fmasks) if gm & ~rf == 0]
    return ApproximableRelation._from_indices(space, space, ipairs)


def compose(second, first):
    """Relational composition (apply ``first``, then ``second``).

    When both inputs validate, the composite is revalidated and a
    failure raises loudly: closure under composition is guaranteed for
    valid relations, so a failure there means a bug.  Invalid inputs
    compose structurally without the guarantee.
    """
    mid_rows = second._rows
    if first.target is not second.source:
        if first.target != second.source:
            raise SpaceMismatch("inner spaces differ; relations do not compose")
        # an equal space may list its family in another order
        findex = second.source._findex
        mid_rows = {j: mid_rows.get(findex[G], ())
                    for j, G in enumerate(first.target.family)}
    ipairs = []
    for i, js in first._rows.items():
        seen = set()
        for j in js:
            seen.update(mid_rows.get(j, ()))
        ipairs += [(i, k) for k in seen]
    out = ApproximableRelation._from_indices(first.source, second.target, ipairs)
    if validate_approximable(first).ok and validate_approximable(second).ok:
        rep = validate_approximable(out)
        if not rep.ok:
            raise PostconditionFailed(
                f"composite relation failed axiom ({rep.failing}): {rep.counterexample!r}")
    return out


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
    F, G = frozenset(F), frozenset(G)
    src, tgt = rel.source, rel.target
    i = src.family_index(F)
    j = tgt.family_index(G)
    theta = rel._ipairs
    fm1, r1 = src._fmasks, src._rmasks
    fm2, r2 = tgt._fmasks, tgt._rmasks
    direct = (i, j) in theta
    via_source = any((i2, j) in theta
                     for i2 in range(len(fm1)) if fm1[i2] & ~r1[i] == 0)
    via_target = any((i, j2) in theta
                     for j2 in range(len(fm2)) if fm2[j] & ~r2[j2] == 0)
    via_both = any((i2, j2) in theta
                   for i2 in range(len(fm1)) if fm1[i2] & ~r1[i] == 0
                   for j2 in range(len(fm2)) if fm2[j] & ~r2[j2] == 0)
    return FourForms(direct, via_source, via_target, via_both)


# --------------------------------------------------------------------------
# relations <-> Scott-continuous maps
# --------------------------------------------------------------------------

def to_map(rel, config=None):
    """The Scott-continuous map a validated relation induces on closed sets.

    Sends E to the union of upper approximations of every target member
    paired with a source member inside E; each value is checked to be
    closed and the whole graph to be order-preserving.
    """
    require_relation_validated(rel)
    cs1 = cf_closed_sets(rel.source, config=config)
    cs2 = cf_closed_sets(rel.target, config=config)
    closed2 = set(cs2.closed_sets)
    fm1 = rel.source._fmasks
    r2 = rel.target._rmasks
    graph = {}
    for E in cs1.closed_sets:
        emask = rel.source.base.mask(E)
        out = 0
        for i, js in rel._rows.items():
            if fm1[i] & ~emask == 0:
                for j in js:
                    out |= r2[j]
        value = rel.target.base.subset(out)
        if value not in closed2:
            raise PostconditionFailed("induced map produced a non-closed value")
        graph[E] = value
    f = MonotoneMap(cs1.poset, cs2.poset, graph)
    if not is_scott_continuous(f):
        raise PostconditionFailed("induced map is not Scott continuous")
    return f


def from_map(f, source_space, target_space, config=None):
    """The relation a Scott-continuous map between closed-set posets induces.

    Pairs (F, G) with G inside f(upper(F)); the result always satisfies
    the morphism axioms, which is asserted.
    """
    cs1 = cf_closed_sets(source_space, config=config)
    cs2 = cf_closed_sets(target_space, config=config)
    if f.source != cs1.poset or f.target != cs2.poset:
        raise SpaceMismatch("map does not run between the stated closed-set posets")
    if not is_scott_continuous(f):
        raise MapNotContinuous("map fails the directed-supremum check")
    fmasks = target_space._fmasks
    ipairs = []
    for i, rf in enumerate(source_space._rmasks):
        imask = target_space.base.mask(f(source_space.base.subset(rf)))
        ipairs += [(i, j) for j, gm in enumerate(fmasks) if gm & ~imask == 0]
    rel = ApproximableRelation._from_indices(source_space, target_space, ipairs)
    rep = validate_approximable(rel)
    if not rep.ok:
        raise PostconditionFailed(
            f"map-induced relation failed axiom ({rep.failing})")
    return rel


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
    rows = rel._rows
    row = _row_masks(rel)

    for i in range(len(row)):
        if not row[i]:
            return TopologicalApproximabilityReport(False, 1, (src.family[i],))

    ups1, downs2 = _absorption(src, tgt)
    up2 = _masks(_absorption(tgt, src)[0])
    down2 = _masks(downs2)
    for i, js in rows.items():
        for j in js:
            for i2 in ups1[i]:
                missing = down2[j] & ~row[i2]
                if missing:
                    return TopologicalApproximabilityReport(
                        False, 2, (src.family[i], src.family[i2], tgt.family[j],
                                   tgt.family[_lowest(missing)]))

    bad = _undirected(rel, row, up2)
    if bad:
        i, j, j2 = bad
        return TopologicalApproximabilityReport(
            False, 3, (src.family[i], tgt.family[j], tgt.family[j2]))

    return TopologicalApproximabilityReport(True)
