"""Acceptance criteria, one test per criterion, with runtime budgets.

Each criterion prints one pass/fail line (visible with ``pytest -s`` or
in captured output).  Budgets are asserted, not advisory; the corpora
are exhaustive up to isomorphism at the stated sizes and seeded where
randomized.
"""

import itertools
import time
from contextlib import contextmanager

import conftest

from roughdom.category import (
    approximable_relations_between,
    check_equivalence_evidence,
    check_functor_laws,
    phi_morphism,
)
from roughdom.cfspace import cf_closed_sets
from roughdom.corpus import random_cf_space, random_ga_space, seeded_rng
from roughdom.gaspace import lower_approx, relation_properties, upper_approx
from roughdom.poset import (
    MonotoneMap,
    is_approximate_identity,
    is_scott_continuous,
    monotone_maps,
    order_isomorphism,
    way_below,
)
from roughdom.relation import from_map, to_map
from roughdom.represent import (
    closed_sets_iso,
    fs_witness_from_domain,
    induce_cf_from_poset,
    map_from_omega,
    omega_from_map,
    space_self_iso,
    tb_witness_from_bf,
)
from roughdom.witness import check_fs1, check_fs2, check_fs2_strong, check_tb, \
    classify_space, delta_family


SEED = 20260808


@contextmanager
def criterion(name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        _emit(f"[acceptance] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    _emit(f"[acceptance] {name}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its budget: {elapsed:.2f}s"


def _emit(line):
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def all_subsets(universe):
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            yield frozenset(combo)


def test_criterion_1_operator_laws():
    with criterion("1 operator laws on 200 random spaces", 10):
        rng = seeded_rng(SEED)
        for _ in range(200):
            space = random_ga_space(rng, max_universe=8)
            U = frozenset(space.universe)
            subsets = list(all_subsets(space.universe))
            props = relation_properties(space)
            assert lower_approx(space, U) == U
            assert upper_approx(space, frozenset()) == frozenset()
            for x in space.universe:
                assert upper_approx(space, {x}) == space.predecessors(x)
            reflexive_char = True
            transitive_char = True
            for A in subsets:
                up_a = upper_approx(space, A)
                assert lower_approx(space, U - A) == U - up_a
                assert upper_approx(space, U - A) == U - lower_approx(space, A)
                if A and up_a != frozenset().union(
                        *[upper_approx(space, {x}) for x in A]):
                    raise AssertionError("upper does not distribute over unions")
                if not A <= up_a:
                    reflexive_char = False
                if not upper_approx(space, up_a) <= up_a:
                    transitive_char = False
            assert reflexive_char == props.reflexive
            assert transitive_char == props.transitive
            for _ in range(12):
                A = rng.choice(subsets)
                B = rng.choice(subsets)
                assert upper_approx(space, A | B) == \
                    upper_approx(space, A) | upper_approx(space, B)
                assert lower_approx(space, A & B) == \
                    lower_approx(space, A) & lower_approx(space, B)
                assert upper_approx(space, A) <= upper_approx(space, A | B)
                assert lower_approx(space, A & B) <= lower_approx(space, A)


def test_criterion_2_closed_set_enumeration_agreement(posets_to_5):
    with criterion("2 closed-set enumeration agreement", 60):
        for size, posets in posets_to_5.items():
            for P in posets:
                space = induce_cf_from_poset(P).space
                cs = cf_closed_sets(space)
                assert cs.cross_checked
        rng = seeded_rng(SEED + 1)
        for _ in range(100):
            space = random_cf_space(rng, max_universe=7)
            cs = cf_closed_sets(space)
            assert cs.cross_checked


def test_criterion_3_representations_one_and_two(posets_to_5):
    with criterion("3 representations I/II", 60):
        for size, posets in posets_to_5.items():
            for P in posets:
                iso = closed_sets_iso(P)
                assert len(iso) == len(P.elements)
                plain = fs_witness_from_domain(P, mode="plain")
                assert check_fs1(plain) and check_fs2(plain)
                strong = fs_witness_from_domain(P, mode="strong")
                assert check_fs1(strong) and check_fs2_strong(strong)


def test_criterion_4_representations_three_and_four(posets_to_5):
    with criterion("4 representations III/IV", 120):
        for size, posets in posets_to_5.items():
            for P in posets:
                bf = fs_witness_from_domain(P, mode="bf")
                assert classify_space(bf.space, bf).topological_fs
                sel = tb_witness_from_bf(P)
                assert check_tb(sel)
                family = delta_family(sel)
                cs = cf_closed_sets(sel.space)
                maps = [f for _, f in family]
                assert is_approximate_identity(cs.poset, maps)
                for f in maps:
                    assert len(f.image()) <= len(sel.space.family)
                    assert is_scott_continuous(f, oracle=True)
                assert order_isomorphism(P, cs.poset) is not None


def test_criterion_5_round_trip_bijections(posets_to_5):
    with criterion("5 round-trip bijections", 120):
        small = [P for size in (1, 2, 3) for P in posets_to_5[size]]
        induced = {P: induce_cf_from_poset(P) for P in small}
        for P1 in small:
            for P2 in small:
                i1, i2 = induced[P1], induced[P2]
                rels = approximable_relations_between(i1, i2)
                cs1 = cf_closed_sets(i1.space)
                cs2 = cf_closed_sets(i2.space)
                scott_maps = monotone_maps(cs1.poset, cs2.poset)
                assert len(rels) == len(scott_maps)
                images = set()
                for rel in rels:
                    f = to_map(rel)
                    assert from_map(f, i1.space, i2.space) == rel
                    images.add(f)
                assert images == set(scott_maps)
                for f in scott_maps:
                    assert to_map(from_map(f, i1.space, i2.space)) == f
                poset_maps = monotone_maps(P1, P2)
                assert len(poset_maps) == len(rels)
                omegas = set()
                for g in poset_maps:
                    om = omega_from_map(g)
                    assert map_from_omega(om) == g
                    omegas.add(om)
                assert omegas == set(rels)
                for rel in rels:
                    assert omega_from_map(map_from_omega(rel)) == rel


def _corrupted_phi(g):
    from roughdom.relation import ApproximableRelation

    rel = phi_morphism(g)
    if not rel.pairs:
        return rel
    drop = max(rel.pairs, key=lambda p: (sorted(map(sorted, p))))
    return ApproximableRelation(rel.source, rel.target, rel.pairs - {drop})


def _constant_phi(g):
    bottom = min(g.target.elements, key=g.target.index)
    const = MonotoneMap(g.source, g.target,
                        {x: bottom for x in g.source.elements})
    return phi_morphism(const)


def test_criterion_6_category_laws(posets_to_5):
    with criterion("6 category laws and equivalence evidence", 120):
        small = tuple(P for size in (1, 2, 3) for P in posets_to_5[size])
        induced = tuple(induce_cf_from_poset(P) for P in small)
        assert check_functor_laws("phi", small).ok
        assert check_functor_laws("psi", induced).ok
        phi_eq = check_equivalence_evidence("phi", small)
        assert phi_eq.full and phi_eq.faithful and phi_eq.essentially_surjective
        psi_eq = check_equivalence_evidence("psi", induced)
        assert psi_eq.full and psi_eq.faithful and psi_eq.essentially_surjective
        broken = check_functor_laws("phi", small, morphism_map=_corrupted_phi)
        assert not broken.ok and broken.counterexamples
        unfaithful = check_equivalence_evidence(
            "phi", tuple(posets_to_5[2]), morphism_map=_constant_phi)
        assert not unfaithful.faithful and unfaithful.counterexamples


def test_criterion_7_self_isomorphism(posets_to_5):
    with criterion("7 self-isomorphism of witnessed spaces", 60):
        spaces = []
        for size, posets in posets_to_5.items():
            for P in posets:
                spaces.append(induce_cf_from_poset(P).space)
        rng = seeded_rng(SEED + 2)
        for _ in range(100):
            space = random_cf_space(rng, max_universe=7)
            if len(cf_closed_sets(space)) <= 5:
                spaces.append(space)
        for space in spaces:
            result = space_self_iso(space)
            # compositions equal to identities are asserted inside; the
            # relations themselves must validate as morphisms
            assert result.forward.is_validated
            assert result.backward.is_validated


def test_criterion_8_way_below_oracle_agreement(posets_to_6):
    with criterion("8 way-below oracle agreement", 30):
        for size, posets in posets_to_6.items():
            for P in posets:
                for x in P.elements:
                    for y in P.elements:
                        assert way_below(P, x, y) == way_below(P, x, y, oracle=True)
