"""Witness data that upgrades a CF space to FS / BF status.

Two witness shapes live here.  A ``WitnessFamily`` is an indexed family
of endo-relations with per-index finite separator families; its checks
are the union-recovers-identity condition (fs1) and the separator
conditions in their plain (fs2) and strong (fs2') forms.  A
``TBSelector`` assigns to every finite subset of the universe a finite
subfamily subject to the two selector conditions (tb1, tb2); from a
passing selector one extracts a family of contraction maps on the
closed-set poset and an equivalent witness family of relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import resolve
from .cfspace import cf_closed_sets, is_topological_cf, require_validated
from .errors import (
    EmptyFamily,
    NotClosed,
    NotTopological,
    PostconditionFailed,
    SizeCapExceeded,
    SpaceMismatch,
    TBViolated,
    WitnessInvalid,
)
from .gaspace import relation_properties
from .ordering import is_directed_under, iter_subset_masks, union_of
from .poset import MonotoneMap, pointwise_leq, supremum
from .relation import ApproximableRelation, identity_relation, validate_approximable


class WitnessFamily:
    """Indexed endo-relations with per-index finite separator families."""

    __slots__ = ("space", "relations", "separators")

    def __init__(self, space, relations, separators):
        relations = tuple(relations)
        separators = tuple(tuple(frozenset(M) for M in ms) for ms in separators)
        if not relations:
            raise EmptyFamily("a witness family needs at least one relation")
        if len(separators) != len(relations):
            raise WitnessInvalid("one separator family per relation is required")
        for rel in relations:
            if rel.source != space or rel.target != space:
                raise WitnessInvalid("witness relations must be endo-relations on the space")
        # the checks read rows against the space's own family indices
        relations = tuple(rel.on(space, space) for rel in relations)
        members = set(space.family)
        for ms in separators:
            for M in ms:
                if M not in members:
                    raise WitnessInvalid(f"separator {set(M)!r} is not a family member")
        self.space = space
        self.relations = relations
        self.separators = separators

    def __len__(self):
        return len(self.relations)


def check_fs1(w):
    """The union of the relations recovers the identity relation exactly."""
    require_validated(w.space)
    union = [0] * len(w.space.family)
    for rel in w.relations:
        union = [u | row for u, row in zip(union, rel.rows)]
    return tuple(union) == identity_relation(w.space).rows


def _included(r1, r2):
    return all(a & ~b == 0 for a, b in zip(r1.rows, r2.rows))


def is_directed_relation_family(w):
    """Every two members are below a third under pair-set inclusion."""
    return is_directed_under(w.relations, _included)


def _fs2_core(w, strong):
    space = w.space
    fm, rm = space._fmasks, space._rmasks
    for rel, seps in zip(w.relations, w.separators):
        sep_idx = [space._findex[M] for M in seps]
        for i, row in enumerate(rel.rows):
            # an empty row is bounded vacuously, given any separator
            targets = union_of(fm, row)
            if not any(targets & ~rm[m] == 0
                       and (not row or (fm[m] if strong else rm[m]) & ~rm[i] == 0)
                       for m in sep_idx):
                return False
    return True


def check_fs2(w):
    """Plain separator condition: paired targets fit under some separator
    whose upper approximation stays inside that of the source member."""
    return _fs2_core(w, strong=False)


def check_fs2_strong(w):
    """Strong form: the separator itself sits inside the source member's
    upper approximation."""
    return _fs2_core(w, strong=True)


@dataclass(frozen=True)
class SpaceClassification:
    fs: bool
    strong_fs: bool
    topological_fs: bool


def classify_space(space, w):
    """Evaluate the witness against the fs / strong-fs / topological-fs bars."""
    if w.space != space:
        raise SpaceMismatch("witness was built for a different space")
    require_validated(space)
    valid = all(validate_approximable(rel).ok for rel in w.relations)
    directed = is_directed_relation_family(w)
    fs1 = check_fs1(w)
    base = valid and directed and fs1
    fs = base and check_fs2(w)
    strong = base and check_fs2_strong(w)
    preorder = relation_properties(space.base).preorder
    return SpaceClassification(fs=fs, strong_fs=strong,
                               topological_fs=fs and preorder)


def default_witness(space):
    """The degenerate witness: the identity relation with the full family
    as its separator set.  Valid on every validated finite space."""
    ident = identity_relation(space)
    return WitnessFamily(space, (ident,), (tuple(space.family),))


# --------------------------------------------------------------------------
# selectors
# --------------------------------------------------------------------------

class TBSelector:
    """Total assignment of a finite subfamily to every finite K in the universe.

    Deterministic by construction: the table is materialized in full, so
    any choice made while building it is frozen before the checks run.
    """

    __slots__ = ("space", "table", "_tb_report")

    def __init__(self, space, table):
        n = len(space.universe)
        members = set(space.family)
        norm = {}
        for K, ms in table.items():
            K = frozenset(K)
            space.base.mask(K)  # raises on foreign atoms
            ms = tuple(dict.fromkeys(frozenset(M) for M in ms))
            for M in ms:
                if M not in members:
                    raise WitnessInvalid(f"selector value {set(M)!r} is not a family member")
            norm[K] = ms
        if len(norm) != 1 << n:
            missing = (1 << n) - len(norm)
            raise WitnessInvalid(f"selector table must cover every K (missing {missing})")
        self.space = space
        self.table = norm
        self._tb_report = None

    @classmethod
    def from_function(cls, space, fn, config=None):
        cfg = resolve(config)
        n = len(space.universe)
        if n > cfg.cap_universe:
            raise SizeCapExceeded(
                f"selector materialization needs |U| <= {cfg.cap_universe}")
        table = {}
        for m in iter_subset_masks(n):
            K = space.base.subset(m)
            table[K] = tuple(frozenset(M) for M in fn(K))
        return cls(space, table)

    def families(self, K):
        K = frozenset(K)
        self.space.base.mask(K)
        return self.table[K]


@dataclass(frozen=True)
class TBFailure:
    K: frozenset
    condition: str
    detail: tuple


@dataclass(frozen=True)
class TBReport:
    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def check_tb(sel, config=None):
    """Exhaustively check the two selector conditions over every finite K.

    tb1: members contained in K must appear in the selected family.
    tb2: any union of selected members that fits under some member's
    upper approximation is re-covered by a single selected member whose
    upper approximation still fits.  The empty union participates, which
    forces every selected family to be nonempty.  For one bound the
    greatest such union, that of every selected member inside it,
    decides: a member covering it covers every smaller union.  So the
    report lists at most one tb2 failure per (K, bound), naming that
    union.
    """
    if sel._tb_report is not None:
        return sel._tb_report
    space = sel.space
    if not is_topological_cf(space):
        raise NotTopological("selector conditions are defined on topological CF spaces")
    fm, rm = space._fmasks, space._rmasks
    n = len(space.universe)
    rf_values = sorted(set(rm))
    failures = []
    for kmask in iter_subset_masks(n):
        K = space.base.subset(kmask)
        sep_idx = [space._findex[M] for M in sel.table[K]]
        sep_set = set(sep_idx)
        for j in range(len(fm)):
            if fm[j] & ~kmask == 0 and j not in sep_set:
                failures.append(TBFailure(K, "tb1", (space.family[j],)))
        for rf in rf_values:
            u = 0
            for m in sep_idx:
                if fm[m] & ~rf == 0:
                    u |= fm[m]
            if not any(u & ~rm[m] == 0 and rm[m] & ~rf == 0 for m in sep_idx):
                failures.append(
                    TBFailure(K, "tb2", (space.base.subset(rf), space.base.subset(u))))
    report = TBReport(ok=not failures, failures=tuple(failures))
    sel._tb_report = report
    return report


@dataclass(frozen=True)
class SelectorApplication:
    """One evaluation of a selector's contraction on a subset."""

    value: frozenset
    greatest: frozenset | None
    empty_union: bool


def apply_selector(sel, K, E):
    """Evaluate the contraction at K on any subset E, leniently.

    Unions the upper approximations of selected members contained in E;
    reports whether the union was empty and which member (if any)
    realizes the whole union on its own.
    """
    space = sel.space
    emask = space.base.mask(E)
    fm, rm = space._fmasks, space._rmasks
    members = [space._findex[M] for M in sel.families(K)
               if fm[space._findex[M]] & ~emask == 0]
    union = 0
    for m in members:
        union |= rm[m]
    greatest = None
    for m in members:
        if rm[m] == union:
            greatest = space.family[m]
            break
    return SelectorApplication(value=space.base.subset(union),
                               greatest=greatest,
                               empty_union=not members)


def _require_tb(sel, config=None):
    if not check_tb(sel, config).ok:
        raise TBViolated("selector fails its admissibility conditions")


def delta_k(sel, K, E, config=None):
    """Strict contraction: selector must pass, E must be closed.

    Asserts the well-definedness guarantee (the union is realized by a
    single greatest member) and that the value is closed again.
    """
    _require_tb(sel, config)
    space = sel.space
    cs = cf_closed_sets(space, config=config)
    E = frozenset(E)
    if E not in cs:
        raise NotClosed(f"{set(E)!r} is not a CF-closed set")
    app = apply_selector(sel, K, E)
    if app.empty_union or app.greatest is None:
        raise PostconditionFailed("contraction of a closed set lost its greatest member")
    if app.value not in cs:
        raise PostconditionFailed("contraction of a closed set is not closed")
    return app.value


def selector_index_sets(sel):
    """The index family: finite K that contain at least one family member."""
    space = sel.space
    fm = space._fmasks
    n = len(space.universe)
    out = []
    for kmask in iter_subset_masks(n):
        if any(f & ~kmask == 0 for f in fm):
            out.append(space.base.subset(kmask))
    return tuple(out)


def delta_family(sel, config=None):
    """All contractions indexed by the index family, as maps on closed sets.

    Postconditions are asserted: every map is monotone (the constructor
    checks it; on finite posets that is Scott continuity) with finite
    range drawn from member upper approximations, the family is
    directed, and its pointwise supremum is the identity.
    """
    _require_tb(sel, config)
    space = sel.space
    cs = cf_closed_sets(space, config=config)
    rm_values = {space.base.subset(m) for m in space._rmasks}
    out = []
    for K in selector_index_sets(sel):
        graph = {}
        for E in cs.closed_sets:
            app = apply_selector(sel, K, E)
            if app.greatest is None:
                raise PostconditionFailed("contraction lost its greatest member")
            graph[E] = app.value
        f = MonotoneMap(cs.poset, cs.poset, graph)
        if not f.image() <= rm_values:
            raise PostconditionFailed("contraction range strays outside member images")
        out.append((K, f))
    maps = [f for _, f in out]
    if not is_directed_under(maps, pointwise_leq):
        raise PostconditionFailed("contraction family is not directed")
    for E in cs.closed_sets:
        if supremum(cs.poset, {f(E) for f in maps}) != E:
            raise PostconditionFailed("contraction family does not sup to the identity")
    return tuple(out)


def theta_from_tb(sel, config=None):
    """Witness family induced by a passing selector.

    For each index set K, pairs (F, G) such that some selected member M
    has G inside upper(M) inside upper(F).  The output is asserted to be
    a topological-fs witness.
    """
    _require_tb(sel, config)
    space = sel.space
    fm, rm = space._fmasks, space._rmasks
    rels = []
    seps = []
    for K in selector_index_sets(sel):
        sep_idx = [space._findex[M] for M in sel.families(K)]
        rows = []
        for rfi in rm:
            usable = [rm[m] for m in sep_idx if rm[m] & ~rfi == 0]
            rows.append(sum(1 << j for j, f in enumerate(fm)
                            if any(f & ~rmm == 0 for rmm in usable)))
        rels.append(ApproximableRelation._from_rows(space, space, rows))
        seps.append(sel.families(K))
    w = WitnessFamily(space, rels, seps)
    cls = classify_space(space, w)
    if not cls.topological_fs:
        raise PostconditionFailed("selector-induced witness is not topological-fs")
    return w


@dataclass(frozen=True)
class SelectorSearch:
    selector: TBSelector | None
    attempts: int
    message: str

    def __bool__(self):
        return self.selector is not None


def search_tb_selector(space, budget=None, config=None):
    """Bounded search for a passing selector.

    Tries the constant selector drawn from each subset B in canonical
    order (every K mapped to the family members inside B).  Exhausting
    the budget reports only that nothing was found within it, never that
    no selector exists.
    """
    cfg = resolve(config)
    if not is_topological_cf(space):
        raise NotTopological("selector search is defined on topological CF spaces")
    n = len(space.universe)
    limit = (1 << n) if budget is None else min(budget, 1 << n)
    fm = space._fmasks
    attempts = 0
    for bmask in iter_subset_masks(n):
        if attempts >= limit:
            break
        attempts += 1
        chosen = tuple(space.family[j] for j in range(len(fm)) if fm[j] & ~bmask == 0)
        if not chosen:
            continue
        sel = TBSelector.from_function(space, lambda K: chosen, cfg)
        if check_tb(sel, cfg).ok:
            return SelectorSearch(sel, attempts, "found")
    return SelectorSearch(None, attempts, "no selector found within budget")
