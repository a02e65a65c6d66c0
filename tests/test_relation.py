"""Morphism axioms, composition, and the map/relation bridges."""

import pytest

from roughdom.cfspace import CFSpace, cf_closed_sets, is_topological_cf, validate_cf
from roughdom.corpus import random_cf_space, random_monotone_map, seeded_rng
from roughdom.errors import SpaceMismatch
from roughdom.gaspace import GASpace
from roughdom.ordering import bits
from roughdom.poset import MonotoneMap, identity_map, is_directed
from roughdom.relation import (
    ApproximableRelation,
    compose,
    equivalent_forms,
    from_map,
    identity_relation,
    to_map,
    validate_approximable,
    validate_topological_approximable,
)
from roughdom.represent import induce_cf_from_poset, omega_from_map

DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.97)


def literal_upper(space, A):
    """Upper approximation from the relation pairs: atoms related to some a in A."""
    R = space.base.relation
    return frozenset(x for x in space.universe if any((x, a) in R for a in A))


def literal_axioms(rel):
    """The five morphism axioms straight from their definitions.

    Works on (F, G) pairs of frozensets; returns the list of which
    axioms hold, each decided on its own.
    """
    fam1, fam2, theta = rel.source.family, rel.target.family, rel.pairs
    up1 = {F: literal_upper(rel.source, F) for F in fam1}
    up2 = {G: literal_upper(rel.target, G) for G in fam2}
    return [
        # (1) every source member is paired with some target member
        all(any((F, G) in theta for G in fam2) for F in fam1),
        # (2) (F, G) and F inside upper(F') give (F', G)
        all((F2, G) in theta for F, G in theta for F2 in fam1 if F <= up1[F2]),
        # (3) (F, G) and G' inside upper(G) give (F, G')
        all((F, G2) in theta for F, G in theta for G2 in fam2 if G2 <= up2[G]),
        # (4) (F, G) factors through some (F', G') with F' inside upper(F)
        #     and G inside upper(G')
        all(any((F2, G2) in theta for F2 in fam1 if F2 <= up1[F]
                for G2 in fam2 if G <= up2[G2])
            for F, G in theta),
        # (5) targets paired with one F have a common bound paired with F
        all(any((F, G3) in theta and G1 | G2 <= up2[G3] for G3 in fam2)
            for F, G1 in theta for G2 in fam2 if (F, G2) in theta),
    ]


def violates(rel, axiom, counterexample):
    """Whether a validator's counterexample really breaks its axiom."""
    fam1, fam2, theta = rel.source.family, rel.target.family, rel.pairs
    up1 = lambda F: literal_upper(rel.source, F)
    up2 = lambda G: literal_upper(rel.target, G)
    if axiom == 1:
        (F,) = counterexample
        return F in fam1 and not any((F, G) in theta for G in fam2)
    if axiom == 2:
        F, F2, G = counterexample
        return (F, G) in theta and F <= up1(F2) and (F2, G) not in theta
    if axiom == 3:
        F, G, G2 = counterexample
        return (F, G) in theta and G2 <= up2(G) and (F, G2) not in theta
    if axiom == 4:
        F, G = counterexample
        return (F, G) in theta and not any(
            (F2, G2) in theta for F2 in fam1 if F2 <= up1(F)
            for G2 in fam2 if G <= up2(G2))
    F, G1, G2 = counterexample
    return ((F, G1) in theta and (F, G2) in theta
            and not any((F, G3) in theta and G1 | G2 <= up2(G3) for G3 in fam2))


@pytest.fixture
def chain2_space(chain2):
    return induce_cf_from_poset(chain2).space


@pytest.fixture
def chain3_space(chain3):
    return induce_cf_from_poset(chain3).space


def test_identity_validates(chain2_space, chain3_space):
    for space in (chain2_space, chain3_space):
        report = validate_approximable(identity_relation(space))
        assert report.ok
        assert report.conditions == (True,) * 5


def test_empty_relation_fails_first_condition(chain2_space):
    rel = ApproximableRelation(chain2_space, chain2_space, [])
    report = validate_approximable(rel)
    assert not report.ok
    assert report.failing == 1


def test_identity_membership_examples(chain2_space):
    ident = identity_relation(chain2_space)
    assert (frozenset({"1"}), frozenset({"0"})) in ident
    assert (frozenset({"0"}), frozenset({"1"})) not in ident


def test_identity_with_empty_member():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [[], ["a"]])
    validate_cf(sp)
    ident = identity_relation(sp)
    for F in sp.family:
        assert (F, frozenset()) in ident
    assert validate_approximable(ident).ok


def test_constant_bottom_relation_validates(chain3):
    const = MonotoneMap(chain3, chain3, {x: "0" for x in chain3.elements})
    ind = induce_cf_from_poset(chain3)
    f = MonotoneMap(cf_closed_sets(ind.space).poset, cf_closed_sets(ind.space).poset,
                    {E: frozenset({"0"}) for E in cf_closed_sets(ind.space).closed_sets})
    rel = from_map(f, ind.space, ind.space)
    assert validate_approximable(rel).ok
    # pairs are exactly those with G inside the bottom closed set
    for F, G in rel.pairs:
        assert G <= frozenset({"0"})


def test_compose_identity_laws(chain2_space, chain3_space):
    for space in (chain2_space, chain3_space):
        ident = identity_relation(space)
        assert compose(ident, ident) == ident


def test_compose_with_identity_fixes_relations(chain2_space, chain3_space):
    # identity absorbs on both sides of any validated relation
    f = MonotoneMap(cf_closed_sets(chain2_space).poset,
                    cf_closed_sets(chain3_space).poset,
                    {E: frozenset({"0"}) for E in cf_closed_sets(chain2_space).closed_sets})
    rel = from_map(f, chain2_space, chain3_space)
    assert compose(rel, identity_relation(chain2_space)) == rel
    assert compose(identity_relation(chain3_space), rel) == rel


def test_compose_empty_relations_structurally(chain2_space):
    empty = ApproximableRelation(chain2_space, chain2_space, [])
    assert compose(empty, empty).pairs == frozenset()


def test_compose_space_mismatch(chain2_space, chain3_space):
    with pytest.raises(SpaceMismatch):
        compose(identity_relation(chain2_space), identity_relation(chain3_space))


def lift_to_closed_sets(g, ind_src, ind_tgt):
    """Lift a poset map to the closed-set posets through the carrier isos.

    Closed sets of an induced space are the principal down-sets, so a
    down-set maps to the down-set of the image of its top.
    """
    cs1 = cf_closed_sets(ind_src.space)
    cs2 = cf_closed_sets(ind_tgt.space)
    graph = {}
    for E in cs1.closed_sets:
        top = next(e for e in E if all(ind_src.origin.leq(o, e) for o in E))
        image = g(top)
        graph[E] = frozenset(z for z in ind_tgt.origin.elements
                             if ind_tgt.origin.leq(z, image))
    return MonotoneMap(cs1.poset, cs2.poset, graph)


def test_composition_associative_on_random_triples(posets_to_4):
    rng = seeded_rng(47)
    flat = [P for size in posets_to_4 for P in posets_to_4[size] if size <= 3]
    for _ in range(15):
        P1, P2, P3, P4 = (rng.choice(flat) for _ in range(4))
        inds = [induce_cf_from_poset(P) for P in (P1, P2, P3, P4)]
        rels = []
        for a, b in ((0, 1), (1, 2), (2, 3)):
            g = random_monotone_map(rng, inds[a].origin, inds[b].origin)
            f = lift_to_closed_sets(g, inds[a], inds[b])
            rels.append(from_map(f, inds[a].space, inds[b].space))
        r12, r23, r34 = rels
        left = compose(r34, compose(r23, r12))
        right = compose(compose(r34, r23), r12)
        assert left == right


def test_equivalent_forms_examples(chain2_space):
    ident = identity_relation(chain2_space)
    forms = equivalent_forms(ident, frozenset({"1"}), frozenset({"0"}))
    assert (forms.direct, forms.via_source, forms.via_target, forms.via_both) == \
        (True,) * 4
    forms = equivalent_forms(ident, frozenset({"0"}), frozenset({"1"}))
    assert (forms.direct, forms.via_source, forms.via_target, forms.via_both) == \
        (False,) * 4


def test_equivalent_forms_agree_on_validated(chain3_space):
    ident = identity_relation(chain3_space)
    for F in chain3_space.family:
        for G in chain3_space.family:
            assert equivalent_forms(ident, F, G).all_equal()


def test_to_map_of_identity_is_identity(chain3_space):
    f = to_map(identity_relation(chain3_space))
    for E in cf_closed_sets(chain3_space).closed_sets:
        assert f(E) == E


def test_to_map_constant_empty():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [[], ["a"]])
    validate_cf(sp)
    pairs = [(F, frozenset()) for F in sp.family]
    rel = ApproximableRelation(sp, sp, pairs)
    assert validate_approximable(rel).ok
    f = to_map(rel)
    for E in cf_closed_sets(sp).closed_sets:
        assert f(E) == frozenset()


def test_induced_union_family_is_directed(chain3_space):
    ident = identity_relation(chain3_space)
    cs = cf_closed_sets(chain3_space)
    for E in cs.closed_sets:
        family = {chain3_space.upper_of_member(G)
                  for F, G in ident.pairs if F <= E}
        assert is_directed(cs.poset, family & set(cs.closed_sets)) or not family
        # directedness in the inclusion order, checked directly
        assert all(any(a | b <= c for c in family) for a in family for b in family)


def test_from_map_identity_gives_identity(chain3_space):
    cs = cf_closed_sets(chain3_space)
    rel = from_map(identity_map(cs.poset), chain3_space, chain3_space)
    assert rel == identity_relation(chain3_space)


def test_round_trips_spot(chain2_space, chain3_space):
    for space in (chain2_space, chain3_space):
        ident = identity_relation(space)
        assert from_map(to_map(ident), space, space) == ident
    cs = cf_closed_sets(chain3_space)
    bottom = cs.closed_sets[0]
    const = MonotoneMap(cs.poset, cs.poset, {E: bottom for E in cs.closed_sets})
    assert to_map(from_map(const, chain3_space, chain3_space)) == const


def test_topological_validator_agrees_with_general(posets_to_4):
    rng = seeded_rng(53)
    spaces = [induce_cf_from_poset(P).space for n in (1, 2, 3) for P in posets_to_4[n]]
    spaces += [sp for sp in (random_cf_space(rng, max_universe=5) for _ in range(40))
               if is_topological_cf(sp)]
    verdicts = set()
    for _ in range(1500):
        src, tgt = rng.choice(spaces), rng.choice(spaces)
        density = rng.choice(DENSITIES)
        chosen = [(F, G) for F in src.family for G in tgt.family
                  if rng.random() < density]
        rel = ApproximableRelation(src, tgt, chosen)
        general = validate_approximable(rel)
        topological = validate_topological_approximable(rel)
        assert general.ok == topological.ok
        assert (general.failing == 1) == (topological.failing == 1)
        verdicts.add(topological.failing)
    assert verdicts == {None, 1, 2, 3}


def test_validator_agrees_with_literal_axioms(posets_to_4):
    rng = seeded_rng(62)
    spaces = [induce_cf_from_poset(P).space for n in (1, 2, 3) for P in posets_to_4[n]]
    spaces += [random_cf_space(rng) for _ in range(60)]
    # the identity relation, read from the absorption table, against its
    # definition: (F, G) with G inside upper(F)
    for space in spaces:
        assert validate_cf(space).ok
        assert identity_relation(space).pairs == {
            (F, G) for F in space.family for G in space.family
            if G <= literal_upper(space, F)}
    failures = dict.fromkeys((None, 1, 2, 3, 4, 5), 0)
    unpaired_bounds = 0
    for k in range(20000):
        src, tgt = rng.choice(spaces), rng.choice(spaces)
        density = rng.choice(DENSITIES)
        chosen = {(F, G) for F in src.family for G in tgt.family
                  if rng.random() < density}
        if k % 2:
            # every other draw closed under axioms (2) and (3), so that
            # (4), (5) and the whole set of axioms are reached often
            up1 = {F: literal_upper(src, F) for F in src.family}
            up2 = {G: literal_upper(tgt, G) for G in tgt.family}
            chosen = {(F2, G2) for F, G in chosen
                      for F2 in src.family if F <= up1[F2]
                      for G2 in tgt.family if G2 <= up2[G]}
        rel = ApproximableRelation(src, tgt, chosen)
        report = validate_approximable(rel)
        holds = literal_axioms(rel)
        failing = next((n + 1 for n, h in enumerate(holds) if not h), None)
        assert report.ok == all(holds)
        assert report.failing == failing
        if failing is None:
            assert report.conditions == (True,) * 5
        else:
            assert report.conditions == ((True,) * (failing - 1) + (False,)
                                         + (None,) * (5 - failing))
            assert violates(rel, failing, report.counterexample)
        if failing == 5:
            _, G1, G2 = report.counterexample
            unpaired_bounds += any(G1 | G2 <= literal_upper(tgt, G3) for G3 in tgt.family)
        failures[failing] += 1
    assert all(count >= 250 for count in failures.values()), failures
    # some (5) failures have a common bound in the family that the
    # relation leaves out: the bound must be paired, not merely exist
    assert unpaired_bounds >= 10


def test_topological_validator_on_identity(chain3_space):
    assert validate_topological_approximable(identity_relation(chain3_space)).ok
    empty = ApproximableRelation(chain3_space, chain3_space, [])
    report = validate_topological_approximable(empty)
    assert not report.ok and report.failing == 1


def test_equivalent_forms_agree_on_enumerated_relations(chain2):
    from roughdom.category import approximable_relations_between

    ind = induce_cf_from_poset(chain2)
    for rel in approximable_relations_between(ind, ind):
        for F in ind.space.family:
            for G in ind.space.family:
                assert equivalent_forms(rel, F, G).all_equal()


def test_bijection_at_four_closed_sets(posets_to_4):
    # relations and Scott maps correspond one to one when the closed-set
    # posets have up to four points; counted through two independent
    # routes (poset maps versus closed-set maps) plus the round trips
    from roughdom.poset import monotone_maps
    from roughdom.represent import map_from_omega, omega_from_map

    sample = list(posets_to_4[4][:4]) + list(posets_to_4[3][:2])
    for P1 in sample:
        for P2 in sample[:3]:
            i1 = induce_cf_from_poset(P1)
            i2 = induce_cf_from_poset(P2)
            poset_maps = monotone_maps(P1, P2)
            cs1 = cf_closed_sets(i1.space)
            cs2 = cf_closed_sets(i2.space)
            scott_maps = monotone_maps(cs1.poset, cs2.poset)
            assert len(poset_maps) == len(scott_maps)
            rels = {omega_from_map(g) for g in poset_maps}
            assert len(rels) == len(poset_maps)
            for rel in rels:
                assert validate_approximable(rel).ok
                f = to_map(rel)
                assert from_map(f, i1.space, i2.space) == rel
                assert omega_from_map(map_from_omega(rel)) == rel
            assert {to_map(rel) for rel in rels} == set(scott_maps)


def test_from_map_rejects_foreign_posets(chain2_space, chain3_space):
    cs3 = cf_closed_sets(chain3_space)
    with pytest.raises(SpaceMismatch):
        from_map(identity_map(cs3.poset), chain2_space, chain2_space)


def test_union_family_directed_for_all_enumerated_relations(chain2, chain3):
    from roughdom.category import approximable_relations_between
    from roughdom.represent import induce_cf_from_poset

    i2 = induce_cf_from_poset(chain2)
    i3 = induce_cf_from_poset(chain3)
    for src, tgt in ((i2, i3), (i3, i2), (i3, i3)):
        for rel in approximable_relations_between(src, tgt):
            for E in cf_closed_sets(src.space).closed_sets:
                family = [tgt.space.upper_of_member(G)
                          for F, G in rel.pairs if F <= E]
                assert family  # the first axiom plus closedness of E
                assert all(any(a | b <= c for c in family)
                           for a in family for b in family)


def test_index_constructor_agrees_with_public_constructor(posets_to_4):
    rng = seeded_rng(83)
    flat = [P for size in (1, 2, 3) for P in posets_to_4[size]]
    verdicts = set()
    for _ in range(60):
        src, tgt = (induce_cf_from_poset(rng.choice(flat)) for _ in range(2))
        n1, n2 = len(src.space.family), len(tgt.space.family)
        if rng.random() < 0.5:
            # valid: the relation of a random continuous map
            g = random_monotone_map(rng, src.origin, tgt.origin)
            rows = omega_from_map(g).rows
        else:
            # mostly invalid: random index pairs
            rows = [0] * n1
            for _ in range(rng.randrange(n1 * n2 + 1)):
                rows[rng.randrange(n1)] |= 1 << rng.randrange(n2)
        fast = ApproximableRelation._from_rows(src.space, tgt.space, rows)
        public = ApproximableRelation(
            src.space, tgt.space,
            [(src.space.family[i], tgt.space.family[j])
             for i, row in enumerate(rows) for j in bits(row)])
        assert fast.pairs == public.pairs
        assert fast.rows == public.rows == tuple(rows)
        assert fast == public and hash(fast) == hash(public)
        verdicts.add(validate_approximable(fast).ok)
    assert verdicts == {True, False}


def test_equality_across_reordered_equal_spaces(chain3_space):
    flipped = CFSpace(chain3_space.base, tuple(reversed(chain3_space.family)))
    validate_cf(flipped)
    assert flipped == chain3_space and flipped is not chain3_space
    ident, flipped_ident = identity_relation(chain3_space), identity_relation(flipped)
    # same content, different family indices
    assert ident.rows != flipped_ident.rows
    assert ident == flipped_ident and hash(ident) == hash(flipped_ident)
    assert flipped_ident.on(chain3_space, chain3_space).rows == ident.rows
    assert ident.on(flipped, flipped).rows == flipped_ident.rows
    # composing through the reordered middle space matches its members by content
    assert compose(flipped_ident, ident) == ident
    assert compose(ident, flipped_ident) == ident


def test_validation_memo_keys_the_frame(chain3_space):
    # rows read family indices: the identity's rows over the reversed
    # family are another relation
    flipped = CFSpace(chain3_space.base, tuple(reversed(chain3_space.family)))
    validate_cf(flipped)
    ident = identity_relation(chain3_space)
    assert validate_approximable(ident).ok
    moved = ApproximableRelation._from_rows(flipped, flipped, ident.rows)
    report = validate_approximable(moved)
    assert not report.ok and report.failing == 2
