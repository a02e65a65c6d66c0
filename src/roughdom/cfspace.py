"""Approximation spaces with a consistent family of finite subsets.

A CF space pairs a transitive relation with a family of finite subsets
subject to a re-covering condition: any finite chunk of an upper
approximation of a family member can be re-covered inside it by another
member.  The subsets closed under that condition, ordered by inclusion,
form the domain the rest of the library studies.

Validation is explicit and mandatory: ``validate_cf`` produces a report
and stamps the space; every closed-set level operation refuses to run
on an unvalidated space rather than re-validating silently.

Validation has a fast form and a literal oracle.  On a finite universe
a witness for the greatest chunk, the whole upper approximation of a
member, covers every smaller chunk too, so the fast form tests that one
chunk per member; the oracle (``oracle=True`` or ``RunConfig.oracle``)
walks every chunk and is bounded by ``cap_universe``.  The closed sets
of a validated space are the distinct upper approximations of its
members, so listing them walks no chunk.  Closedness of one set is
decided by its definition, every chunk of the set, in ``is_cf_closed``
and in the brute-force scan that cross-checks the list inside
``cap_universe``; both read each distinct (G | upper(G), upper(G)) pair
of masks once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import resolve
from .errors import (
    ElementNotInUniverse,
    InvalidSpace,
    NotClosed,
    PostconditionFailed,
    SizeCapExceeded,
    SpaceNotValidated,
)
from .gaspace import GASpace, relation_properties
from .ordering import iter_submasks, set_key
from .poset import FinitePoset


class CFSpace:
    """A GA-space plus a finite family of finite subsets of the universe.

    The family keeps its construction order (first occurrence wins on
    duplicates); searches report the first witness in that order.  The
    empty set is a legitimate family member.
    """

    __slots__ = ("base", "family", "_findex", "_fmasks", "_rmasks",
                 "_validation", "_closed", "_absorb", "_origin", "_hash")

    def __init__(self, base, family):
        if not isinstance(base, GASpace):
            base = GASpace(*base)
        # one pass per distinct member: atom check, mask, and upper mask as
        # the OR of the predecessor masks of its atoms
        index, pred = base._index, base._pred_masks
        findex, fmasks, rmasks = {}, [], []
        for F in family:
            fs = frozenset(F)
            if fs in findex:
                continue
            fm = rm = 0
            for x in fs:
                i = index.get(x)
                if i is None:
                    raise InvalidSpace(f"family member atom {x!r} leaves the universe")
                fm |= 1 << i
                rm |= pred[i]
            findex[fs] = len(fmasks)
            fmasks.append(fm)
            rmasks.append(rm)
        if not findex:
            raise InvalidSpace("family must be nonempty")
        self.base = base
        self.family = tuple(findex)
        self._findex = findex
        self._fmasks = tuple(fmasks)
        self._rmasks = tuple(rmasks)
        self._validation = None
        self._closed = None
        self._absorb = None
        self._origin = None  # set by represent.induce_cf_from_poset to its poset
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, CFSpace):
            return NotImplemented
        return (self.base == other.base
                and frozenset(self.family) == frozenset(other.family))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base, frozenset(self.family)))
        return self._hash

    def __repr__(self):
        return (f"CFSpace({len(self.base.universe)} atoms, "
                f"{len(self.family)} family members)")

    @property
    def universe(self):
        return self.base.universe

    def family_index(self, F):
        try:
            return self._findex[frozenset(F)]
        except KeyError:
            raise ElementNotInUniverse(f"{set(F)!r} is not a family member") from None

    def upper_of_member(self, F):
        """Upper approximation of a family member, from the cache."""
        return self.base.subset(self._rmasks[self.family_index(F)])

    @property
    def is_validated(self):
        return self._validation is not None and self._validation.ok


def absorption_masks(space):
    """The pair (up, down) of member-index bitmasks, built once per space:
    bit k of ``up[i]`` is set when F_i lies inside upper(F_k), and bit k
    of ``down[i]`` when F_k lies inside upper(F_i)."""
    if space._absorb is None:
        fm, rm = space._fmasks, space._rmasks
        up = tuple(sum(1 << k for k, r in enumerate(rm) if f & ~r == 0) for f in fm)
        down = tuple(sum(1 << k for k, f in enumerate(fm) if f & ~r == 0) for r in rm)
        space._absorb = (up, down)
    return space._absorb


@dataclass(frozen=True)
class CFValidationReport:
    """Outcome of the admissibility check of a CF space.

    ``exhaustive`` says which form answered: true for the oracle, which
    counts every chunk K of every upper(F) in ``checked``; false for the
    fast form, which checks one chunk per member, so ``checked`` equals
    the family size.  Counterexamples and witnesses are keyed by
    (member, chunk) pairs in both forms.
    """

    ok: bool
    transitive: bool
    counterexamples: tuple = ()
    checked: int = 0
    exhaustive: bool = True
    witnesses: dict | None = field(default=None, compare=False)

    def __bool__(self):
        return self.ok


def _first_cover(space, rf):
    """Index of the first member G, in family order, with G inside rf
    and rf inside upper(G); None when there is none."""
    rmasks = space._rmasks
    for j, fm in enumerate(space._fmasks):
        if fm & ~rf == 0 and rf & ~rmasks[j] == 0:
            return j
    return None


def _all_chunk_covers(space, rf):
    """(K, first re-covering member index or None) for every K inside rf."""
    cands = [(j, space._rmasks[j]) for j, fm in enumerate(space._fmasks)
             if fm & ~rf == 0]
    for k in iter_submasks(rf):
        yield k, next((j for j, rg in cands if k & ~rg == 0), None)


def validate_cf(space, record_witnesses=False, config=None, oracle=False):
    """Check the re-covering condition of a CF space.

    For each family member F and each finite K inside the upper
    approximation of F (the empty K included), some member G must
    satisfy K inside upper(G) and G inside upper(F).  A G that serves
    the greatest K, upper(F) itself, serves every K, so by default one
    scan per member finds the first such G in family order (members
    with equal upper approximations share it) and the report says
    ``exhaustive=False``.  With ``oracle=True`` (or ``config.oracle``)
    every K is enumerated, which needs |U| <= ``cap_universe``, and the
    report says ``exhaustive=True``.  The passing report stamps the
    space as admissible for closed-set operations; a cached report is
    reused unless witnesses are asked for or the oracle is asked for
    and the cached report is not exhaustive.
    """
    cfg = resolve(config)
    oracle = oracle or cfg.oracle
    cached = space._validation
    if cached is not None and not record_witnesses and (cached.exhaustive or not oracle):
        return cached
    if oracle and len(space.universe) > cfg.cap_universe:
        raise SizeCapExceeded(
            f"exhaustive validation needs |U| <= {cfg.cap_universe}")
    transitive = relation_properties(space.base).transitive
    counterexamples = []
    witnesses = {} if record_witnesses else None
    checked = 0
    first = {}  # upper mask -> index of its first covering member
    for fi, rf in enumerate(space._rmasks):
        if oracle:
            chunks = _all_chunk_covers(space, rf)
        else:
            if rf not in first:
                first[rf] = _first_cover(space, rf)
            chunks = ((rf, first[rf]),)
        for k, hit in chunks:
            checked += 1
            if hit is None:
                counterexamples.append(
                    (space.family[fi], space.base.subset(k)))
            elif record_witnesses:
                witnesses[(space.family[fi], space.base.subset(k))] = space.family[hit]
    report = CFValidationReport(
        ok=transitive and not counterexamples,
        transitive=transitive,
        counterexamples=tuple(counterexamples),
        checked=checked,
        exhaustive=oracle,
        witnesses=witnesses,
    )
    space._validation = report
    return report


def require_validated(space):
    if not space.is_validated:
        raise SpaceNotValidated(
            "run validate_cf on the space (and have it pass) before closed-set operations")


# --------------------------------------------------------------------------
# CF-closed sets
# --------------------------------------------------------------------------

def _cover_table(space):
    """The members closedness has to read, built once per call.

    One entry (G | upper(G), upper(G), index of G) per distinct pair of
    masks, keeping the first member G of each pair in family order.  "G
    inside E and upper(G) inside E" is "G | upper(G) inside E", and the
    re-cover test "K inside upper(G)" reads upper(G) only, so members
    with equal pairs are interchangeable, and the first one is the
    first witness in family order.
    """
    first = {}
    for j, (fm, rm) in enumerate(zip(space._fmasks, space._rmasks)):
        first.setdefault((fm | rm, rm), j)
    return tuple((gu, rg, j) for (gu, rg), j in first.items())


def _uncovered_chunk(table, emask, witnesses=None):
    """Definitional closedness of the set with mask ``emask``.

    Every K inside E must be re-covered within E: some member G inside
    E with K inside upper(G) inside E.  The members are read from the
    ``_cover_table`` of the space.  Walks every submask K, from E down
    to the empty set, and returns the first one that is not re-covered,
    or None when E is closed.  A ``witnesses`` dict, when given,
    receives K mask -> index of the first re-covering member for each
    K walked.
    """
    k = emask
    while True:
        for gu, rg, j in table:
            if k & ~rg == 0 and gu & ~emask == 0:
                if witnesses is not None:
                    witnesses[k] = j
                break
        else:
            return k
        if k == 0:
            return None
        k = (k - 1) & emask


@dataclass(frozen=True)
class ClosednessCheck:
    """Boolean outcome plus the witness table behind it."""

    closed: bool
    subject: frozenset
    counterexample: frozenset | None = None
    witnesses: dict | None = field(default=None, compare=False)

    def __bool__(self):
        return self.closed


def is_cf_closed(space, E, record_witnesses=False):
    """Definition-level check that E is closed, with optional witness table.

    The empty set is closed exactly when it is itself a family member:
    the K = empty case forces a member inside E.
    """
    require_validated(space)
    emask = space.base.mask(E)  # raises ElementNotInUniverse on foreign atoms
    found = {} if record_witnesses else None
    k = _uncovered_chunk(_cover_table(space), emask, found)
    witnesses = None
    if record_witnesses:
        witnesses = {space.base.subset(m): space.family[j] for m, j in found.items()}
    counterexample = None if k is None else space.base.subset(k)
    return ClosednessCheck(k is None, frozenset(E), counterexample, witnesses)


def _closed_masks(table, candidates):
    """The closed sets among the candidate masks, ascending."""
    return sorted(m for m in candidates if _uncovered_chunk(table, m) is None)


@dataclass(frozen=True)
class ClosedSetPoset:
    """All CF-closed sets of a space, ordered by inclusion."""

    space: CFSpace = field(compare=False)
    closed_sets: tuple = ()
    poset: FinitePoset = field(default=None, compare=False)
    cross_checked: bool = True

    def __len__(self):
        return len(self.closed_sets)

    def __contains__(self, E):
        return frozenset(E) in self.poset


def cf_closed_sets(space, config=None):
    """Enumerate the closed-set poset of a validated space.

    The closed sets are the distinct upper approximations of members.
    A closed E is upper(G) for the member G that re-covers the chunk
    K = E inside E.  Conversely, validation at K = upper(F) gives a
    member G inside upper(F) with upper(F) inside upper(G); transitivity
    puts upper(G) inside upper(F), so the two are equal and G re-covers
    every chunk of upper(F) inside it.  Inside the universe cap the
    brute-force scan of all 2^|U| subsets cross-checks the list.
    Results are cached per space; a cached result that was not
    cross-checked is enumerated and cross-checked again when the
    caller's cap allows it.
    """
    require_validated(space)
    cfg = resolve(config)
    cross = len(space.universe) <= cfg.cap_universe
    if space._closed is not None and (space._closed.cross_checked or not cross):
        return space._closed
    masks = sorted(set(space._rmasks))
    if cross and _closed_masks(_cover_table(space),
                               range(1 << len(space.universe))) != masks:
        raise PostconditionFailed(
            "closed-set enumeration mismatch between brute force and the member uppers")
    index = {x: i for i, x in enumerate(space.universe)}
    sets = tuple(sorted((space.base.subset(m) for m in masks),
                        key=lambda s: set_key(s, index)))
    leq = [(a, b) for a in sets for b in sets if a <= b]
    poset = FinitePoset(sets, leq)
    space._closed = ClosedSetPoset(space=space, closed_sets=sets, poset=poset,
                                   cross_checked=cross)
    return space._closed


@dataclass(frozen=True)
class WayBelowWitness:
    holds: bool
    witness: frozenset | None = None

    def __bool__(self):
        return self.holds


def way_below_closed(space, E1, E2):
    """Way-below between closed sets, through the family characterization.

    Holds exactly when some member F sits inside E2 with E1 inside
    upper(F); the first such F in family order is returned.
    """
    cs = cf_closed_sets(space)
    E1, E2 = frozenset(E1), frozenset(E2)
    if E1 not in cs or E2 not in cs:
        raise NotClosed("way_below_closed expects CF-closed arguments")
    m1 = space.base.mask(E1)
    m2 = space.base.mask(E2)
    for j, F in enumerate(space.family):
        if space._fmasks[j] & ~m2 == 0 and m1 & ~space._rmasks[j] == 0:
            return WayBelowWitness(True, F)
    return WayBelowWitness(False, None)


def is_topological_cf(space):
    """A validated space is topological when its relation is a preorder.

    A preorder makes any family consistent (G = F re-covers every chunk
    of upper(F)), which the tests check on seeded preorder spaces.
    """
    require_validated(space)
    return relation_properties(space.base).preorder
