"""FS / strong-FS witness conditions and the selector machinery."""

import itertools

import pytest

from conftest import chain
from roughdom.cfspace import CFSpace, cf_closed_sets, validate_cf
from roughdom.corpus import random_ga_space, seeded_rng
from roughdom.errors import (
    EmptyFamily,
    NotClosed,
    NotTopological,
    TBViolated,
    WitnessInvalid,
)
from roughdom.gaspace import GASpace, relation_properties
from roughdom.ordering import iter_subset_masks
from roughdom.poset import (
    is_kernel_operator,
    is_separating_witness,
    verify_bf_domain_witness,
    verify_fs_domain_witness,
)
from roughdom.relation import ApproximableRelation, identity_relation, to_map
from roughdom.represent import induce_cf_from_poset
from roughdom.witness import (
    TBSelector,
    WitnessFamily,
    apply_selector,
    check_fs1,
    check_fs2,
    check_fs2_strong,
    check_tb,
    classify_space,
    default_witness,
    delta_family,
    delta_k,
    search_tb_selector,
    selector_index_sets,
    theta_from_tb,
)


@pytest.fixture
def chain3_induced(chain3):
    return induce_cf_from_poset(chain3)


@pytest.fixture
def nonreflexive_space():
    sp = CFSpace(GASpace(["a", "b", "c"],
                         [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
                 [["c"]])
    validate_cf(sp)
    return sp


def singleton_separators(space, elements):
    return tuple(frozenset([x]) for x in elements)


# -- fs1 / fs2 ----------------------------------------------------------------

def test_fs1_identity_witness(chain3_induced):
    assert check_fs1(default_witness(chain3_induced.space))


def test_fs1_empty_pairs_fails(chain3_induced):
    space = chain3_induced.space
    w = WitnessFamily(space, (ApproximableRelation(space, space, []),),
                      ((),))
    assert not check_fs1(w)


def test_fs1_partition_of_identity(chain3_induced):
    space = chain3_induced.space
    pairs = sorted(identity_relation(space).pairs,
                   key=lambda p: (sorted(p[0]), sorted(p[1])))
    half = len(pairs) // 2
    w = WitnessFamily(
        space,
        (ApproximableRelation(space, space, pairs[:half]),
         ApproximableRelation(space, space, pairs[half:])),
        ((), ()))
    assert check_fs1(w)


def test_fs2_singleton_separators(chain3_induced):
    space = chain3_induced.space
    ident = identity_relation(space)
    w = WitnessFamily(space, (ident,),
                      (singleton_separators(space, ["0", "1", "2"]),))
    assert check_fs2(w)


def test_fs2_fails_with_bottom_only_separator(chain3_induced):
    space = chain3_induced.space
    ident = identity_relation(space)
    w = WitnessFamily(space, (ident,), (singleton_separators(space, ["0"]),))
    assert not check_fs2(w)


def test_strong_implies_plain_on_random_witnesses(chain3_induced, nonreflexive_space):
    rng = seeded_rng(59)
    for space in (chain3_induced.space, nonreflexive_space):
        cells = [(F, G) for F in space.family for G in space.family]
        members = list(space.family)
        for _ in range(60):
            chosen = [c for c in cells if rng.random() < 0.4]
            k = rng.randint(0, len(members))
            seps = tuple(rng.sample(members, k))
            w = WitnessFamily(space, (ApproximableRelation(space, space, chosen),),
                              (seps,))
            if check_fs2_strong(w):
                assert check_fs2(w)


def test_plain_equals_strong_on_preorder_spaces(chain3_induced):
    rng = seeded_rng(61)
    space = chain3_induced.space
    cells = [(F, G) for F in space.family for G in space.family]
    members = list(space.family)
    for _ in range(60):
        chosen = [c for c in cells if rng.random() < 0.4]
        k = rng.randint(0, len(members))
        seps = tuple(rng.sample(members, k))
        w = WitnessFamily(space, (ApproximableRelation(space, space, chosen),),
                          (seps,))
        assert check_fs2(w) == check_fs2_strong(w)


def test_classify_examples(chain3_induced, nonreflexive_space):
    cls = classify_space(chain3_induced.space, default_witness(chain3_induced.space))
    assert (cls.fs, cls.strong_fs, cls.topological_fs) == (True, True, True)
    cls = classify_space(nonreflexive_space, default_witness(nonreflexive_space))
    assert (cls.fs, cls.strong_fs, cls.topological_fs) == (True, True, False)
    space = chain3_induced.space
    broken = WitnessFamily(space, (ApproximableRelation(space, space, []),), ((),))
    cls = classify_space(space, broken)
    assert (cls.fs, cls.strong_fs, cls.topological_fs) == (False, False, False)


def test_witness_constructor_errors(chain3_induced):
    space = chain3_induced.space
    with pytest.raises(EmptyFamily):
        WitnessFamily(space, (), ())
    with pytest.raises(WitnessInvalid):
        WitnessFamily(space, (identity_relation(space),), ())
    with pytest.raises(WitnessInvalid):
        WitnessFamily(space, (identity_relation(space),),
                      ((frozenset({"0", "zz"}),),))  # not a family member


# -- witness transfer to the closed-set poset -----------------------------------

def test_fs_witness_transfers_to_map_family(chain3_induced):
    space = chain3_induced.space
    w = default_witness(space)
    assert classify_space(space, w).fs
    cs = cf_closed_sets(space)
    maps = [to_map(rel) for rel in w.relations]
    assert verify_fs_domain_witness(cs.poset, maps)
    for rel, seps, f in zip(w.relations, w.separators, maps):
        witness_sets = {space.upper_of_member(M) for M in seps}
        assert is_separating_witness(f, witness_sets)


# -- selectors -------------------------------------------------------------------

def full_family_selector(space):
    return TBSelector.from_function(space, lambda K: space.family)


def test_check_tb_full_family(chain3_induced):
    sel = full_family_selector(chain3_induced.space)
    assert check_tb(sel)


def test_check_tb_empty_families_fail(chain3_induced):
    space = chain3_induced.space
    sel = TBSelector.from_function(space, lambda K: ())
    report = check_tb(sel)
    assert not report.ok
    assert any(f.condition == "tb2" for f in report.failures)


def test_check_tb_powerset_only_selector_fails_at_empty_k(chain3_induced):
    space = chain3_induced.space
    sel = TBSelector.from_function(
        space, lambda K: tuple(F for F in space.family if F <= K))
    report = check_tb(sel)
    assert not report.ok
    bad = [f for f in report.failures if f.K == frozenset()]
    assert bad and bad[0].condition == "tb2"


def test_check_tb_requires_topological(nonreflexive_space):
    sel = TBSelector.from_function(nonreflexive_space,
                                   lambda K: nonreflexive_space.family)
    with pytest.raises(NotTopological):
        check_tb(sel)


def test_selector_totality_enforced(chain3_induced):
    space = chain3_induced.space
    with pytest.raises(WitnessInvalid):
        TBSelector(space, {frozenset(): space.family})


def test_apply_selector_and_delta_k(chain3_induced):
    space = chain3_induced.space
    sel = full_family_selector(space)
    K = frozenset({"0"})
    assert delta_k(sel, K, frozenset({"0", "1"})) == frozenset({"0", "1"})
    with pytest.raises(NotClosed):
        delta_k(sel, K, frozenset({"1"}))
    # lenient evaluation on a non-closed subject
    app = apply_selector(sel, K, frozenset())
    assert app.value == frozenset() and app.empty_union


def test_apply_selector_small_family(chain3_induced):
    space = chain3_induced.space
    sel = TBSelector.from_function(space, lambda K: (frozenset({"0"}),))
    app = apply_selector(sel, frozenset({"0"}), frozenset({"0", "1", "2"}))
    assert app.value == frozenset({"0"})
    assert app.greatest == frozenset({"0"})
    with pytest.raises(TBViolated):
        delta_k(sel, frozenset({"0"}), frozenset({"0", "1", "2"}))


def test_delta_family_identity_selector(chain3_induced):
    space = chain3_induced.space
    sel = full_family_selector(space)
    family = delta_family(sel)
    assert len(family) == len(selector_index_sets(sel))
    cs = cf_closed_sets(space)
    for K, f in family:
        for E in cs.closed_sets:
            assert f(E) == E


def test_delta_family_on_singleton_space():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [["a"]])
    validate_cf(sp)
    sel = TBSelector.from_function(sp, lambda K: sp.family)
    family = delta_family(sel)
    assert len(family) == 1
    (K, f), = family
    assert f(frozenset({"a"})) == frozenset({"a"})


def test_delta_family_members_are_kernel_operators(chain3_induced, posets_to_4):
    # contractions extracted from a passing selector are idempotent and
    # deflationary on finite data, so the kernel route applies as well
    for P in [chain3_induced.origin] + list(posets_to_4[3]):
        ind = induce_cf_from_poset(P)
        sel = full_family_selector(ind.space)
        maps = [f for _, f in delta_family(sel)]
        cs = cf_closed_sets(ind.space)
        for f in maps:
            assert is_kernel_operator(f)
        assert verify_bf_domain_witness(cs.poset, maps, kernel=True)
        assert verify_bf_domain_witness(cs.poset, maps, kernel=False)


def test_theta_from_tb_identity_selector(chain3_induced):
    space = chain3_induced.space
    sel = full_family_selector(space)
    w = theta_from_tb(sel)
    ident = identity_relation(space)
    for rel in w.relations:
        assert rel == ident
    assert classify_space(space, w).topological_fs


def test_theta_from_tb_singleton():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [["a"]])
    validate_cf(sp)
    sel = TBSelector.from_function(sp, lambda K: sp.family)
    w = theta_from_tb(sel)
    assert len(w.relations) == 1
    assert w.relations[0] == identity_relation(sp)


def test_search_selector(chain3_induced, nonreflexive_space):
    found = search_tb_selector(chain3_induced.space)
    assert found
    assert check_tb(found.selector)
    limited = search_tb_selector(chain3_induced.space, budget=2)
    assert not limited
    assert limited.message == "no selector found within budget"
    with pytest.raises(NotTopological):
        search_tb_selector(nonreflexive_space)


def test_empty_member_flows_through_selector_pipeline():
    sp = CFSpace(GASpace(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")]),
                 [[], ["a"], ["b"]])
    validate_cf(sp)
    cs = cf_closed_sets(sp)
    assert frozenset() in set(cs.closed_sets)
    found = search_tb_selector(sp)
    assert found
    assert frozenset() in set(selector_index_sets(found.selector))
    fam = delta_family(found.selector)
    assert len(fam) == 4
    w = theta_from_tb(found.selector)
    assert classify_space(sp, w).topological_fs


def test_classification_requires_valid_relations(chain3_induced):
    # a sub-relation of the identity can keep the union property while
    # failing the morphism axioms; classification must reject it
    space = chain3_induced.space
    ident = identity_relation(space)
    pairs = sorted(ident.pairs, key=lambda p: (sorted(p[0]), sorted(p[1])))
    partial = ApproximableRelation(space, space, pairs[: len(pairs) // 2])
    w = WitnessFamily(space, (ident, partial),
                      (tuple(space.family), tuple(space.family)))
    assert check_fs1(w)
    from roughdom.relation import validate_approximable

    if not validate_approximable(partial).ok:
        assert not classify_space(space, w).fs


def test_witness_checks_read_relations_on_the_witness_space(posets_to_4):
    # a relation on an equal space whose family is listed in reverse is
    # the same relation, and gives the same verdicts
    differs = 0
    for size in (2, 3, 4):
        for P in posets_to_4[size]:
            space = induce_cf_from_poset(P).space
            flipped = CFSpace(space.base, tuple(reversed(space.family)))
            validate_cf(flipped)
            w = WitnessFamily(space, (identity_relation(flipped),), (space.family,))
            ref = default_witness(space)
            assert w.relations == ref.relations
            for check in (check_fs1, check_fs2, check_fs2_strong):
                assert check(w) == check(ref)
            assert classify_space(space, w) == classify_space(space, ref)
            differs += identity_relation(flipped).rows != ref.relations[0].rows
    assert differs >= 20


def _tb_failures_by_all_unions(sel):
    """Literal tb1/tb2 over every K and every union of selected members,
    as (K, condition, member or bound) triples in the order check_tb
    meets them."""
    space = sel.space
    bounds = list(dict.fromkeys(space.upper_of_member(F) for F in space.family))
    found = []
    for kmask in iter_subset_masks(len(space.universe)):
        K = space.base.subset(kmask)
        chosen = sel.table[K]
        found += [(K, "tb1", F) for F in space.family if F <= K and F not in chosen]
        uppers = [space.upper_of_member(M) for M in chosen]
        for bound in bounds:
            for size in range(len(chosen) + 1):
                for combo in itertools.combinations(chosen, size):
                    union = frozenset().union(*combo)
                    if union <= bound and not any(union <= up <= bound for up in uppers):
                        found.append((K, "tb2", bound))
    return found


def test_check_tb_agrees_with_all_unions_oracle(posets_to_4):
    rng = seeded_rng(131)
    spaces = [induce_cf_from_poset(P).space for k in (1, 2, 3) for P in posets_to_4[k]]
    while len(spaces) < 30:
        base = random_ga_space(rng, max_universe=4)
        if relation_properties(base).preorder:
            n = len(base.universe)
            family = [base.subset(rng.randrange(1 << n)) for _ in range(rng.randint(1, 6))]
            space = CFSpace(base, family)
            validate_cf(space)
            spaces.append(space)
    verdicts = {True: 0, "tb1": 0, "tb2": 0}
    for _ in range(1500):
        space = rng.choice(spaces)
        keep = rng.choice([1.0, 0.97, 0.9, 0.7])
        table = {}
        for kmask in iter_subset_masks(len(space.universe)):
            K = space.base.subset(kmask)
            table[K] = [F for F in space.family
                        if rng.random() < (0.97 if F <= K else keep)]
        report = check_tb(TBSelector(space, table))
        oracle = _tb_failures_by_all_unions(TBSelector(space, table))
        assert report.ok == (not oracle)
        listed = [(f.K, f.condition, f.detail[0]) for f in report.failures]
        assert set(listed) == set(oracle)
        assert len(listed) == len(set(listed))  # one tb2 failure per (K, bound)
        for f in report.failures:
            if f.condition == "tb2":
                bound, union = f.detail
                assert union <= bound
        if oracle:
            assert listed[0][:2] == oracle[0][:2]
        verdicts[True if report.ok else listed[0][1]] += 1
    assert min(verdicts.values()) >= 100, verdicts
