"""Functor laws, equivalence evidence, and fault injection."""

import pytest

from conftest import antichain, chain, diamond, vee
from roughdom.category import (
    approximable_relations_between,
    brute_force_relations,
    check_equivalence_evidence,
    check_functor_laws,
    phi_morphism,
    phi_object,
    psi_morphism,
    psi_object,
)
from roughdom.cfspace import cf_closed_sets
from roughdom.corpus import all_posets
from roughdom.poset import MonotoneMap, compose_maps, identity_map, monotone_maps
from roughdom.relation import compose, identity_relation
from roughdom.represent import induce_cf_from_poset


@pytest.fixture
def small_objects():
    return (chain(1), chain(2), vee())


def test_phi_preserves_identity(chain2):
    assert phi_morphism(identity_map(chain2)) == identity_relation(phi_object(chain2))


def test_phi_preserves_composition(chain2, chain3):
    for h in monotone_maps(chain2, chain3):
        for g in monotone_maps(chain3, chain2):
            assert phi_morphism(compose_maps(g, h)) == \
                compose(phi_morphism(g), phi_morphism(h))


def test_phi_constant_map_pairs(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    rel = phi_morphism(const)
    ind = induce_cf_from_poset(chain2)
    expected = {(F, G) for F in ind.space.family for G in ind.space.family
                if ind.top(G) == "0"}
    assert rel.pairs == frozenset(expected)


def test_psi_preserves_identity_and_composition(chain2, chain3):
    s2 = induce_cf_from_poset(chain2)
    s3 = induce_cf_from_poset(chain3)
    assert psi_morphism(identity_relation(s2.space)) == \
        identity_map(cf_closed_sets(s2.space).poset)
    for t in approximable_relations_between(s2, s3):
        for u in approximable_relations_between(s3, s2):
            assert psi_morphism(compose(u, t)) == \
                compose_maps(psi_morphism(u), psi_morphism(t))


def test_relation_enumeration_matches_powerset(chain2):
    # raw powerset scan is feasible only for the smallest families and
    # anchors the lifted enumeration
    for P, Q in ((chain(1), chain(2)), (chain(2), chain(2)), (chain(1), chain(1))):
        iP, iQ = induce_cf_from_poset(P), induce_cf_from_poset(Q)
        lifted = set(approximable_relations_between(iP, iQ))
        brute = set(brute_force_relations(iP.space, iQ.space))
        assert lifted == brute


def element_determined(rel, ind1, ind2):
    """A pair holds exactly when the pair of singleton tops holds."""
    for F in ind1.space.family:
        for G in ind2.space.family:
            direct = (F, G) in rel
            collapsed = (frozenset([ind1.top(F)]), frozenset([ind2.top(G)])) in rel
            if direct != collapsed:
                return False
    return True


def test_enumerated_relations_are_element_determined(small_objects):
    for P in small_objects:
        for Q in small_objects:
            iP, iQ = induce_cf_from_poset(P), induce_cf_from_poset(Q)
            for rel in approximable_relations_between(iP, iQ):
                assert element_determined(rel, iP, iQ)


def test_enumeration_matches_oracle_within_cap_cells():
    # every ordered pair of size-<=3 induced spaces whose family cells
    # the powerset oracle may scan
    induced = [induce_cf_from_poset(P) for n in (1, 2, 3) for P in all_posets(n)]
    checked = 0
    for iP in induced:
        for iQ in induced:
            if len(iP.space.family) * len(iQ.space.family) > 16:
                continue
            searched = approximable_relations_between(iP, iQ)
            assert len(set(searched)) == len(searched)
            assert set(searched) == set(brute_force_relations(iP.space, iQ.space))
            checked += 1
    assert checked == 41


def test_hom_set_sizes_match_monotone_maps_beyond_3x3():
    # size-4 pairs: 16 element pairs each, the most the default cap_cells allows
    for P, Q in ((chain(4), chain(4)), (chain(4), antichain(4)),
                 (antichain(4), chain(4)), (diamond(), chain(4)),
                 (diamond(), diamond())):
        iP, iQ = induce_cf_from_poset(P), induce_cf_from_poset(Q)
        rels = approximable_relations_between(iP, iQ)
        assert len(rels) == len(monotone_maps(P, Q))
        assert all(element_determined(rel, iP, iQ) for rel in rels)


@pytest.mark.parametrize("P, Q", [(antichain(4), antichain(5)),
                                  (antichain(5), antichain(5)),
                                  (chain(5), chain(5))])
def test_row_search_validates_only_relations(P, Q, monkeypatch):
    # past the default cap_cells: every leaf the search validates is a relation
    import roughdom.relation as relation
    from roughdom.config import RunConfig

    iP, iQ = induce_cf_from_poset(P), induce_cf_from_poset(Q)
    calls = []
    validate = relation._validate
    monkeypatch.setattr(relation, "_validate", lambda rel: calls.append(rel) or validate(rel))
    rels = approximable_relations_between(iP, iQ, RunConfig(cap_cells=25))
    assert len(rels) == len(monotone_maps(P, Q))
    assert len(calls) == len(rels)


def test_hom_set_sizes_match(small_objects):
    for P in small_objects:
        for Q in small_objects:
            iP, iQ = induce_cf_from_poset(P), induce_cf_from_poset(Q)
            rels = approximable_relations_between(iP, iQ)
            maps = monotone_maps(P, Q)
            assert len(rels) == len(maps)


def test_functor_laws_hold(small_objects):
    report = check_functor_laws("phi", small_objects)
    assert report.ok
    induced = tuple(induce_cf_from_poset(P) for P in small_objects)
    report = check_functor_laws("psi", induced)
    assert report.ok


def corrupted_phi(g):
    rel = phi_morphism(g)
    if not rel.pairs:
        return rel
    drop = max(rel.pairs, key=lambda p: (sorted(map(sorted, p))))
    from roughdom.relation import ApproximableRelation

    return ApproximableRelation(rel.source, rel.target, rel.pairs - {drop})


def test_fault_injected_phi_fails(small_objects):
    report = check_functor_laws("phi", small_objects, morphism_map=corrupted_phi)
    assert not report.ok
    assert report.counterexamples


def test_law_check_reports_a_composite_missing_from_its_hom_set(monkeypatch):
    import roughdom.category as category
    from roughdom.relation import ApproximableRelation

    ind = induce_cf_from_poset(chain(2))
    hom = approximable_relations_between(ind, ind)
    g, h = hom[0], hom[-1]
    whole = compose(g, h)
    # drop the first pair whose removal leaves a relation outside the hom-set
    for pair in sorted(whole.pairs, key=lambda p: sorted(map(sorted, p))):
        broken = ApproximableRelation(ind.space, ind.space, whole.pairs - {pair})
        if broken not in hom:
            break
    assert broken not in hom

    def dropping(second, first):
        return broken if (second, first) == (g, h) else compose(second, first)

    monkeypatch.setattr(category, "compose", dropping)
    report = check_functor_laws("psi", (ind,))
    assert report.identity_ok and not report.composition_ok
    assert report.counterexamples == (("composition", g, h),)


def constant_morphism_phi(g):
    bottom = min(g.target.elements, key=g.target.index)
    const = MonotoneMap(g.source, g.target, {x: bottom for x in g.source.elements})
    return phi_morphism(const)


def test_fault_injected_faithfulness(small_objects):
    report = check_equivalence_evidence("phi", (chain(2),),
                                        morphism_map=constant_morphism_phi)
    assert not report.faithful
    assert any(c[0] == "faithful" for c in report.counterexamples)


def test_equivalence_evidence_phi(small_objects):
    report = check_equivalence_evidence("phi", small_objects)
    assert report.full and report.faithful and report.essentially_surjective
    assert not report.findings
    for rel_count, map_count in report.hom_set_sizes:
        assert rel_count == map_count


def test_equivalence_evidence_psi(small_objects):
    induced = tuple(induce_cf_from_poset(P) for P in small_objects)
    report = check_equivalence_evidence("psi", induced)
    assert report.full and report.faithful and report.essentially_surjective


def test_equivalence_variants(small_objects):
    induced = tuple(induce_cf_from_poset(P) for P in small_objects)
    for variant in ("strong", "topological", "tb"):
        report = check_equivalence_evidence("psi", induced, variant=variant)
        assert report.ok
        assert not report.findings


def test_concrete_category_instances(small_objects):
    from roughdom.category import poset_category, space_category

    cat = poset_category(small_objects)
    assert len(cat.hom(small_objects[1], small_objects[1])) == 3
    induced = tuple(induce_cf_from_poset(P) for P in small_objects)
    spaces = space_category(induced)
    assert len(spaces.hom(induced[1], induced[1])) == 3
    # identity morphisms live in every hom-set of both instances
    for P, ind in zip(small_objects, induced):
        assert identity_map(P) in cat.hom(P, P)
        assert identity_relation(ind.space) in spaces.hom(ind, ind)
    # each instance's own identity is in hom(A, A) and is a unit for its
    # own composition on both sides
    for inst in (cat, spaces):
        for A in inst.objects:
            assert inst.identity(A) in inst.hom(A, A)
            for B in inst.objects:
                for m in inst.hom(A, B):
                    assert inst.compose(m, inst.identity(A)) == m
                    assert inst.compose(inst.identity(B), m) == m


def test_composite_functor_returns_isomorphic_poset(posets_to_4):
    from roughdom.poset import order_isomorphism

    for size, posets in posets_to_4.items():
        for P in posets:
            back = psi_object(phi_object(P)).poset
            assert order_isomorphism(P, back) is not None


def counting(fmap):
    """``fmap`` plus the list of morphisms it was called on."""
    calls = []

    def mapped(m):
        calls.append(m)
        return fmap(m)

    return mapped, calls


def test_functor_laws_map_each_morphism_once(posets_to_4):
    posets = [P for size in (1, 2, 3) for P in posets_to_4[size]]
    induced = [induce_cf_from_poset(P) for P in posets]
    homs = {
        "phi": (posets, phi_morphism, monotone_maps),
        "psi": (induced, psi_morphism, approximable_relations_between),
    }
    for functor, (objects, fmap, hom) in homs.items():
        mapped, calls = counting(fmap)
        report = check_functor_laws(functor, objects, morphism_map=mapped)
        assert report.ok, functor
        assert report.compositions_checked == 30228
        # identities and composites are served from the enumerated hom-sets
        distinct = sum(len(hom(A, B)) for A in objects for B in objects)
        assert distinct == 476
        assert len(calls) == len(set(calls)) == distinct, functor


def test_relation_enumerations_are_bounded_by_cap_cells(chain2):
    from roughdom.config import RunConfig
    from roughdom.errors import SizeCapExceeded

    ind = induce_cf_from_poset(chain2)  # 2 elements, 3 family members
    tight = RunConfig(cap_cells=8)
    assert len(approximable_relations_between(ind, ind, tight)) == 3
    with pytest.raises(SizeCapExceeded):
        brute_force_relations(ind.space, ind.space, tight)  # 9 cells
    with pytest.raises(SizeCapExceeded):
        approximable_relations_between(ind, ind, RunConfig(cap_cells=3))


def test_hom_set_search_stops_once_it_passes_cap_hom(monkeypatch):
    import roughdom.relation as relation
    from roughdom.config import RunConfig
    from roughdom.errors import SizeCapExceeded

    ind = induce_cf_from_poset(chain(4))  # 35 relations, one per monotone map
    calls = []
    validate = relation._validate
    monkeypatch.setattr(relation, "_validate", lambda rel: calls.append(rel) or validate(rel))
    with pytest.raises(SizeCapExceeded):
        approximable_relations_between(ind, ind, RunConfig(cap_hom=5))
    # every leaf validated is a relation, so the search stopped at the sixth
    assert len(calls) == 6
