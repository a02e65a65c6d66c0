"""Induced spaces and the representation constructions.

Every finite poset induces a CF space whose universe is the carrier,
whose relation is way-below and whose family collects the finite
subsets possessing a top element.  The constructions here run the
representation results as executable round trips: carrier-to-closed-set
isomorphisms, the bridges between Scott-continuous maps and relations,
witness transfer from map families to relation families, and selector
extraction from kernel-operator families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .config import resolve
from .cfspace import CFSpace, cf_closed_sets, require_validated, validate_cf
from .errors import (
    EmptyPoset,
    IsoCheckFailed,
    NoCoveringIndex,
    PostconditionFailed,
    PreconditionViolated,
    RelationNotValidated,
    SizeCapExceeded,
    WitnessInvalid,
)
from .gaspace import GASpace
from .poset import (
    FinitePoset,
    MonotoneMap,
    compose_maps,
    identity_map,
    is_algebraic_domain,
    is_finitely_separating,
    order_isomorphism,
    supremum,
    way_below,
    verify_bf_domain_witness,
    verify_fs_domain_witness,
)
from .relation import (
    ApproximableRelation,
    _image_masks,
    compose,
    identity_relation,
    validate_approximable,
)
from .witness import TBSelector, WitnessFamily, check_tb, classify_space, default_witness


@dataclass(frozen=True)
class InducedSpace:
    """A CF space induced by a poset, with the top-element bookkeeping."""

    origin: FinitePoset
    space: CFSpace
    top_of: dict = field(compare=False)

    def top(self, F):
        return self.top_of[frozenset(F)]


def _topped_family(P):
    """Finite subsets of the carrier with a top element, canonical order."""
    family = []
    tops = {}
    for c in P.elements:
        below = [y for y in P.elements if P.leq(y, c) and y != c]
        for size in range(len(below) + 1):
            for rest in combinations(below, size):
                F = frozenset(rest) | {c}
                family.append(F)
                tops[F] = c
    index = {x: i for i, x in enumerate(P.elements)}
    order = sorted(range(len(family)),
                   key=lambda k: (len(family[k]),
                                  tuple(sorted(index[x] for x in family[k]))))
    return tuple(family[k] for k in order), tops


def induce_cf_from_poset(P, config=None):
    """The space (carrier, way-below, topped subsets) of a nonempty poset.

    The member count is checked against ``cap_members`` before the
    family is built, and the admissibility check must pass.  The result
    is cached on the poset object, so a poset is induced once and witness
    selection stays reproducible; the space records the poset it came
    from in turn.
    """
    if len(P.elements) == 0:
        raise EmptyPoset("cannot induce a space from the empty poset")
    cfg = resolve(config)
    if P._induced is not None:
        # returns the stamped report, or runs the oracle when it is asked
        # for and the cached space was validated in the fast form
        validate_cf(P._induced.space, config=cfg)
        return P._induced
    # each element c tops 2^|{y < c}| members
    members = sum(1 << (d.bit_count() - 1) for d in P._down_masks)
    if members > cfg.cap_members:
        raise SizeCapExceeded(
            f"induced space needs {members} members, over cap_members={cfg.cap_members}")
    relation = [(x, y) for x in P.elements for y in P.elements
                if way_below(P, x, y)]
    family, tops = _topped_family(P)
    space = CFSpace(GASpace(P.elements, relation), family)
    report = validate_cf(space, config=cfg)
    if not report.ok:
        raise PostconditionFailed("induced space failed the admissibility check")
    space._origin = P
    P._induced = InducedSpace(origin=P, space=space, top_of=tops)
    return P._induced


def induce_topcf_from_algebraic(P, config=None):
    """The space over the compact elements with the restricted order.

    On a finite poset every element is compact and way-below is the
    order, so after checking the algebraicity premise this returns the
    way-below induced space itself.
    """
    if len(P.elements) == 0:
        raise EmptyPoset("cannot induce a space from the empty poset")
    cfg = resolve(config)
    if not is_algebraic_domain(P, oracle=False, config=cfg):
        raise PreconditionViolated("poset is not algebraic")
    return induce_cf_from_poset(P, cfg)


def closed_sets_iso(P, config=None):
    """The carrier-to-closed-sets bijection x -> way-below set of x.

    Verified bijective and bi-monotone onto the closed sets of the
    induced space; a failure is an implementation bug, not an input
    property.
    """
    ind = induce_cf_from_poset(P, config)
    cs = cf_closed_sets(ind.space, config=config)
    iso = {x: frozenset(y for y in P.elements if way_below(P, y, x))
           for x in P.elements}
    values = set(iso.values())
    if len(values) != len(P.elements) or values != set(cs.closed_sets):
        raise IsoCheckFailed("carrier map is not a bijection onto the closed sets")
    for a in P.elements:
        for b in P.elements:
            if P.leq(a, b) != (iso[a] <= iso[b]):
                raise IsoCheckFailed("carrier map is not bi-monotone")
    return iso


# --------------------------------------------------------------------------
# map <-> relation bridges over induced spaces
# --------------------------------------------------------------------------

def omega_from_map(g, config=None):
    """The relation induced by a Scott-continuous map between posets.

    Pairs (F, G) whose tops satisfy: top(G) way below the image of
    top(F).  Validates as a morphism, and is monotone in g.
    """
    src = induce_cf_from_poset(g.source, config)
    tgt = induce_cf_from_poset(g.target, config)
    rows = []
    for F in src.space.family:
        gc = g(src.top(F))
        rows.append(sum(1 << j for j, G in enumerate(tgt.space.family)
                        if way_below(g.target, tgt.top(G), gc)))
    rel = ApproximableRelation._from_rows(src.space, tgt.space, rows)
    rep = validate_approximable(rel)
    if not rep.ok:
        raise PostconditionFailed(f"map-induced relation failed axiom ({rep.failing})")
    return rel


def _origin_poset(space):
    """The poset an induced space came from; any other space is read back
    as the poset of its relation."""
    if space._origin is not None:
        return space._origin
    return FinitePoset(space.universe, space.base.relation)


def map_from_omega(rel, config=None):
    """The Scott-continuous map a relation between induced spaces defines.

    Sends x to the supremum of the union of target upper approximations
    over pairs whose source member lies way below x.
    """
    if not validate_approximable(rel).ok:
        raise RelationNotValidated("the relation fails the morphism axioms")
    L1 = _origin_poset(rel.source)
    L2 = _origin_poset(rel.target)
    below = [rel.source.base.mask(frozenset(y for y in L1.elements if way_below(L1, y, x)))
             for x in L1.elements]
    graph = {}
    for x, out in zip(L1.elements, _image_masks(rel, below)):
        value = supremum(L2, rel.target.base.subset(out))
        if value is None:
            raise PostconditionFailed("induced map value has no supremum")
        graph[x] = value
    return MonotoneMap(L1, L2, graph)


# --------------------------------------------------------------------------
# witness transfer
# --------------------------------------------------------------------------

def fs_witness_from_domain(P, deltas=None, mode="plain", config=None):
    """Build a witness family on the induced space from a map family.

    The map family must be an approximate identity of finitely
    separating maps (kernel operators with finite range in ``bf``
    mode); when none is supplied the identity map serves, which makes
    every finite poset pass.  Modes differ in the pair rule and the
    separator choice:

    - plain: pair when top(G) is way below delta(top(F)); separators are
      the singletons over a separating witness of delta.
    - strong: pair through delta applied twice; separators are the
      delta-images of a separating witness.
    - bf: pair when top(G) sits below delta(top(F)) in the order;
      separators are the singletons over the range of delta.
    """
    cfg = resolve(config)
    if deltas is None:
        deltas = (identity_map(P),)
    deltas = tuple(deltas)
    if mode in ("plain", "strong"):
        if not verify_fs_domain_witness(P, deltas):
            raise WitnessInvalid("maps are not an approximate identity of "
                                 "finitely separating maps")
        ind = induce_cf_from_poset(P, cfg)
    elif mode == "bf":
        if not verify_bf_domain_witness(P, deltas):
            raise WitnessInvalid("maps are not an approximate identity of "
                                 "finite-range kernel operators")
        ind = induce_topcf_from_algebraic(P, cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    space = ind.space
    rels = []
    seps = []
    for d in deltas:
        if mode == "plain":
            pair_ok = lambda cg, cf: way_below(P, cg, d(cf))
            M = is_finitely_separating(d)
            sep = tuple(frozenset([m]) for m in P.elements if m in M)
        elif mode == "strong":
            dd = compose_maps(d, d)
            pair_ok = lambda cg, cf: way_below(P, cg, dd(cf))
            M = is_finitely_separating(d)
            sep = tuple(frozenset([d(m)]) for m in P.elements if m in M)
        else:
            pair_ok = lambda cg, cf: P.leq(cg, d(cf))
            image = d.image()
            sep = tuple(frozenset([m]) for m in P.elements if m in image)
        rows = [sum(1 << j for j, G in enumerate(space.family)
                    if pair_ok(ind.top(G), ind.top(F)))
                for F in space.family]
        rels.append(ApproximableRelation._from_rows(space, space, rows))
        seps.append(tuple(dict.fromkeys(sep)))
    w = WitnessFamily(space, rels, seps)
    cls = classify_space(space, w)
    wanted = cls.strong_fs if mode == "strong" else cls.fs
    if not wanted:
        raise PostconditionFailed(f"{mode} witness failed its classification")
    return w


def tb_witness_from_bf(P, deltas=None, config=None):
    """Extract a selector from an approximate identity of kernel operators.

    For each finite H, the first map whose fixed-point range contains H
    donates its topped range subsets as the selected family; the empty H
    reuses the first map.  The output must pass the selector check.
    """
    cfg = resolve(config)
    if deltas is None:
        deltas = (identity_map(P),)
    deltas = tuple(deltas)
    if not verify_bf_domain_witness(P, deltas, kernel=True):
        raise WitnessInvalid("maps are not an approximate identity of "
                             "finite-range kernel operators")
    ind = induce_topcf_from_algebraic(P, cfg)
    space = ind.space
    images = [d.image() for d in deltas]
    fam_by_image = {}

    def families_for(K):
        if not K:
            j = 0
        else:
            j = next((idx for idx, im in enumerate(images) if K <= im), None)
            if j is None:
                raise NoCoveringIndex(f"no map range covers {set(K)!r}")
        if j not in fam_by_image:
            fam_by_image[j] = tuple(F for F in space.family if F <= images[j])
        return fam_by_image[j]

    sel = TBSelector.from_function(space, families_for, cfg)
    if not check_tb(sel, cfg).ok:
        raise PostconditionFailed("extracted selector failed its admissibility check")
    return sel


# --------------------------------------------------------------------------
# self-isomorphism of a witnessed space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfIso:
    """Mutually inverse relations between a space and its double."""

    space: CFSpace
    double: InducedSpace
    forward: ApproximableRelation
    backward: ApproximableRelation


def space_self_iso(space, witness=None, config=None):
    """Exhibit the space as isomorphic to the space its closed sets induce.

    The closed-set poset is re-induced into a space (the "double");
    forward pairs a member F with a topped collection whose top is way
    below upper(F), backward pairs a collection with every member inside
    its top.  Both compositions must be the respective identities.
    """
    cfg = resolve(config)
    require_validated(space)
    w = default_witness(space) if witness is None else witness
    if not classify_space(space, w).fs:
        raise WitnessInvalid("the supplied witness does not establish fs status")
    cs = cf_closed_sets(space, config=cfg)
    if len(cs.closed_sets) > cfg.cap_universe:
        raise SizeCapExceeded("closed-set poset too large to re-induce")
    double = induce_cf_from_poset(cs.poset, cfg)
    if len(double.space.family) > cfg.cap_family:
        raise SizeCapExceeded(
            f"re-induced family has {len(double.space.family)} members, "
            f"beyond cap_family={cfg.cap_family}")
    fwd_rows = [0] * len(space.family)
    bwd_rows = [0] * len(double.space.family)
    for i, F in enumerate(space.family):
        rf = space.upper_of_member(F)
        for c, C in enumerate(double.space.family):
            top = double.top(C)
            if top <= rf:  # way below in the inclusion order
                fwd_rows[i] |= 1 << c
            if F <= top:
                bwd_rows[c] |= 1 << i
    forward = ApproximableRelation._from_rows(space, double.space, fwd_rows)
    backward = ApproximableRelation._from_rows(double.space, space, bwd_rows)
    for rel in (forward, backward):
        rep = validate_approximable(rel)
        if not rep.ok:
            raise PostconditionFailed(
                f"self-iso relation failed axiom ({rep.failing})")
    if compose(backward, forward) != identity_relation(space):
        raise PostconditionFailed("backward after forward is not the identity")
    if compose(forward, backward) != identity_relation(double.space):
        raise PostconditionFailed("forward after backward is not the identity")
    return SelfIso(space=space, double=double, forward=forward, backward=backward)


def representation_round_trip(P, config=None):
    """Carrier-to-closed-set isomorphism plus the isomorphism search.

    Returns the explicit carrier map and the independently searched
    poset isomorphism; the tests compare the two.
    """
    cfg = resolve(config)
    ind = induce_cf_from_poset(P, cfg)
    cs = cf_closed_sets(ind.space, config=cfg)
    explicit = closed_sets_iso(P, cfg)
    searched = order_isomorphism(P, cs.poset, cfg)
    if searched is None:
        raise IsoCheckFailed("no isomorphism found between the poset and its closed sets")
    return explicit, searched
