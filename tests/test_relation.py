"""Morphism axioms, composition, and the map/relation bridges."""

import pytest

from conftest import chain
from roughdom.cfspace import CFSpace, cf_closed_sets, validate_cf
from roughdom.corpus import random_monotone_map, seeded_rng
from roughdom.errors import SpaceMismatch
from roughdom.gaspace import GASpace
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


def test_topological_validator_agrees_with_general():
    rng = seeded_rng(53)
    space = induce_cf_from_poset(chain(2)).space
    cells = [(F, G) for F in space.family for G in space.family]
    agreements = 0
    for _ in range(100):
        chosen = [c for c in cells if rng.random() < 0.4]
        rel = ApproximableRelation(space, space, chosen)
        general = validate_approximable(rel).ok
        topological = validate_topological_approximable(rel).ok
        assert general == topological
        agreements += 1
    assert agreements == 100


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
            ipairs = omega_from_map(g)._ipairs
        else:
            # mostly invalid: random index pairs
            ipairs = {(rng.randrange(n1), rng.randrange(n2))
                      for _ in range(rng.randrange(n1 * n2 + 1))}
        fast = ApproximableRelation._from_indices(src.space, tgt.space, ipairs)
        public = ApproximableRelation(
            src.space, tgt.space,
            [(src.space.family[i], tgt.space.family[j]) for i, j in ipairs])
        assert fast.pairs == public.pairs
        assert fast._ipairs == public._ipairs
        assert fast._rows == public._rows
        assert fast == public and hash(fast) == hash(public)
        verdicts.add(validate_approximable(fast).ok)
    assert verdicts == {True, False}


def test_equality_across_reordered_equal_spaces(chain3_space):
    flipped = CFSpace(chain3_space.base, tuple(reversed(chain3_space.family)))
    validate_cf(flipped)
    assert flipped == chain3_space and flipped is not chain3_space
    ident, flipped_ident = identity_relation(chain3_space), identity_relation(flipped)
    # same content, different family indices
    assert ident._ipairs != flipped_ident._ipairs
    assert ident == flipped_ident and hash(ident) == hash(flipped_ident)
    # composing through the reordered middle space matches its members by content
    assert compose(flipped_ident, ident) == ident
    assert compose(ident, flipped_ident) == ident
