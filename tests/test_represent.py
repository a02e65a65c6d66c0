"""Induced spaces, carrier isomorphisms, bridges, and witness transfer."""

import gc
import weakref

import pytest

from conftest import antichain, chain, vee
from roughdom.cfspace import CFSpace, validate_cf
from roughdom.corpus import random_monotone_map, seeded_rng
from roughdom.config import RunConfig
from roughdom.errors import EmptyPoset, SizeCapExceeded, WitnessInvalid
from roughdom.gaspace import GASpace
from roughdom.poset import (
    FinitePoset,
    MonotoneMap,
    identity_map,
    monotone_maps,
    pointwise_leq,
)
from roughdom.relation import identity_relation, validate_approximable
from roughdom.represent import (
    closed_sets_iso,
    fs_witness_from_domain,
    induce_cf_from_poset,
    induce_topcf_from_algebraic,
    map_from_omega,
    omega_from_map,
    representation_round_trip,
    space_self_iso,
    tb_witness_from_bf,
)
from roughdom.witness import check_tb, classify_space


def test_induce_chain3(chain3):
    ind = induce_cf_from_poset(chain3)
    assert len(ind.space.universe) == 3
    assert len(ind.space.base.relation) == 3 + 3  # diagonal plus strict pairs
    assert len(ind.space.family) == 7
    assert ind.top(frozenset({"0", "2"})) == "2"


def test_induce_memo_hit_honours_the_oracle():
    from roughdom.config import RunConfig

    P = FinitePoset(["p", "q"], [("p", "p"), ("q", "q"), ("p", "q")])
    fast = induce_cf_from_poset(P)
    assert not validate_cf(fast.space).exhaustive
    again = induce_cf_from_poset(P, RunConfig(oracle=True))
    assert again is fast and validate_cf(again.space).exhaustive


def test_induce_vee_family():
    ind = induce_cf_from_poset(vee())
    assert set(ind.space.family) == {
        frozenset({"bot"}), frozenset({"a"}), frozenset({"b"}),
        frozenset({"bot", "a"}), frozenset({"bot", "b"})}


def test_induce_singleton():
    ind = induce_cf_from_poset(chain(1))
    assert ind.space.universe == ("0",)
    assert ind.space.base.relation == frozenset({("0", "0")})
    assert ind.space.family == (frozenset({"0"}),)


def test_induce_rejects_empty():
    with pytest.raises(EmptyPoset):
        induce_cf_from_poset(FinitePoset((), ()))


def test_induce_counts_members_against_cap_members():
    # chain(n) tops 2^n - 1 members, vee() five
    tight = RunConfig(cap_members=7)
    assert len(induce_cf_from_poset(chain(3), tight).space.family) == 7
    assert len(induce_cf_from_poset(vee(), RunConfig(cap_members=5)).space.family) == 5
    with pytest.raises(SizeCapExceeded):
        induce_cf_from_poset(chain(4), tight)
    with pytest.raises(SizeCapExceeded):
        induce_cf_from_poset(vee(), RunConfig(cap_members=4))
    # the default admits chain(19); chain(20) is refused before a member is built
    assert RunConfig().cap_members == 2**19
    with pytest.raises(SizeCapExceeded):
        induce_cf_from_poset(chain(20))


def test_induced_space_lives_with_its_poset():
    P = chain(3)
    ref = weakref.ref(induce_cf_from_poset(P))
    assert induce_cf_from_poset(P) is ref()
    del P
    gc.collect()
    assert ref() is None


def test_topcf_coincides_with_cf(zoo):
    for P in zoo:
        assert induce_topcf_from_algebraic(P) is induce_cf_from_poset(P)


def test_topcf_honours_the_oracle_cap():
    # the algebraicity premise enumerates directed subsets, bounded by
    # the caller's cap_oracle rather than the default 12
    P = antichain(13)
    cfg = RunConfig(cap_oracle=14)
    assert induce_topcf_from_algebraic(P, cfg) is induce_cf_from_poset(P, cfg)


def test_closed_sets_iso_examples(chain3):
    iso = closed_sets_iso(chain3)
    assert iso == {"0": frozenset({"0"}),
                   "1": frozenset({"0", "1"}),
                   "2": frozenset({"0", "1", "2"})}
    iso = closed_sets_iso(vee())
    assert iso == {"bot": frozenset({"bot"}),
                   "a": frozenset({"bot", "a"}),
                   "b": frozenset({"bot", "b"})}
    assert closed_sets_iso(chain(1)) == {"0": frozenset({"0"})}


def test_representation_round_trip(zoo):
    for P in zoo:
        explicit, searched = representation_round_trip(P)
        assert len(explicit) == len(P.elements)
        assert len(searched) == len(P.elements)


# -- omega bridges ----------------------------------------------------------------

def test_omega_of_identity(chain2):
    omega = omega_from_map(identity_map(chain2))
    assert (frozenset({"1"}), frozenset({"0"})) in omega
    assert (frozenset({"0"}), frozenset({"1"})) not in omega


def test_omega_of_constant_bottom(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    omega = omega_from_map(const)
    ind = induce_cf_from_poset(chain2)
    for F, G in omega.pairs:
        assert ind.top(G) == "0"
    assert all((F, G) in omega
               for F in ind.space.family for G in ind.space.family
               if ind.top(G) == "0")


def test_omega_monotone_in_map(zoo):
    for P in zoo[:5]:
        maps = monotone_maps(P, P)
        for g in maps:
            for h in maps:
                if pointwise_leq(g, h):
                    assert omega_from_map(g).pairs <= omega_from_map(h).pairs


def test_map_from_omega_identity(chain3):
    omega = omega_from_map(identity_map(chain3))
    assert map_from_omega(omega) == identity_map(chain3)


def test_map_from_omega_constant(chain3):
    const = MonotoneMap(chain3, chain3, {x: "0" for x in chain3.elements})
    assert map_from_omega(omega_from_map(const)) == const


def test_omega_round_trips_random(posets_to_4):
    rng = seeded_rng(67)
    flat = [P for size in posets_to_4 for P in posets_to_4[size]]
    for _ in range(20):
        P = rng.choice(flat)
        Q = rng.choice(flat)
        g = random_monotone_map(rng, P, Q)
        omega = omega_from_map(g)
        assert validate_approximable(omega).ok
        back = map_from_omega(omega)
        assert back == g
        # both directions hand back the posets and spaces they started from
        assert back.source is g.source and back.target is g.target
        again = omega_from_map(back)
        assert again.source is omega.source and again.target is omega.target


# -- witness transfer ----------------------------------------------------------------

def test_plain_witness_from_identity_delta(chain3):
    w = fs_witness_from_domain(chain3, mode="plain")
    assert len(w.relations) == 1
    assert w.relations[0] == identity_relation(w.space)
    assert classify_space(w.space, w).fs


def test_two_delta_witness(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    w = fs_witness_from_domain(chain2, (const, identity_map(chain2)), mode="plain")
    assert len(w.relations) == 2
    assert check_and_directed(w)
    assert classify_space(w.space, w).fs


def check_and_directed(w):
    from roughdom.witness import check_fs1, is_directed_relation_family

    return check_fs1(w) and is_directed_relation_family(w)


def test_bf_witness_matches_plain_on_finite(chain3):
    # way-below and the order coincide on finite posets, so both pair
    # rules produce the same relations; the code paths stay separate
    plain = fs_witness_from_domain(chain3, mode="plain")
    bf = fs_witness_from_domain(chain3, mode="bf")
    assert [r.pairs for r in plain.relations] == [r.pairs for r in bf.relations]
    cls = classify_space(bf.space, bf)
    assert cls.fs and cls.topological_fs


def test_strong_witness(chain3, chain2):
    w = fs_witness_from_domain(chain3, mode="strong")
    assert classify_space(w.space, w).strong_fs
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    w = fs_witness_from_domain(chain2, (const, identity_map(chain2)), mode="strong")
    assert classify_space(w.space, w).strong_fs


def test_witness_requires_approximate_identity(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    with pytest.raises(WitnessInvalid):
        fs_witness_from_domain(chain2, (const,), mode="plain")
    with pytest.raises(WitnessInvalid):
        tb_witness_from_bf(chain2, (const,))


def test_tb_witness_identity_delta(chain3):
    sel = tb_witness_from_bf(chain3)
    assert check_tb(sel)
    for K, families in sel.table.items():
        assert set(families) == set(sel.space.family)


def test_tb_witness_singleton():
    sel = tb_witness_from_bf(chain(1))
    assert sel.table[frozenset({"0"})] == (frozenset({"0"}),)


def test_tb_witness_two_deltas(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    sel = tb_witness_from_bf(chain2, (const, identity_map(chain2)))
    assert check_tb(sel)
    # H = {1} needs the identity's range; the constant map cannot cover it
    families = sel.table[frozenset({"1"})]
    assert set(families) == set(sel.space.family)
    # H = {0} is covered by the constant map already
    assert sel.table[frozenset({"0"})] == (frozenset({"0"}),)


# -- self isomorphism ----------------------------------------------------------------

def test_space_self_iso_small(chain2, chain3):
    for P in (chain2, chain3):
        space = induce_cf_from_poset(P).space
        result = space_self_iso(space)
        assert result.forward.source == space
        assert result.backward.target == space


def test_space_self_iso_singleton():
    space = induce_cf_from_poset(chain(1)).space
    result = space_self_iso(space)
    assert len(result.double.space.universe) == 1


def test_space_self_iso_nonreflexive():
    sp = CFSpace(GASpace(["a", "b", "c"],
                         [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
                 [["c"]])
    validate_cf(sp)
    result = space_self_iso(sp)
    assert len(result.double.space.universe) == 1


def test_space_self_iso_rejects_non_fs_witness(chain2):
    space = induce_cf_from_poset(chain2).space
    from roughdom.relation import ApproximableRelation
    from roughdom.witness import WitnessFamily

    broken = WitnessFamily(space, (ApproximableRelation(space, space, []),), ((),))
    with pytest.raises(WitnessInvalid):
        space_self_iso(space, broken)


def test_carrier_iso_on_all_posets_up_to_six(posets_to_6):
    for size, posets in posets_to_6.items():
        for P in posets:
            iso = closed_sets_iso(P)
            assert len(iso) == size


def test_plain_and_strong_witnesses_all_posets_to_four(posets_to_4):
    for size, posets in posets_to_4.items():
        for P in posets:
            for mode, attr in (("plain", "fs"), ("strong", "strong_fs")):
                w = fs_witness_from_domain(P, mode=mode)
                assert getattr(classify_space(w.space, w), attr)


def test_witness_modes_with_deflationary_family():
    # all deflationary monotone endo-maps of the diamond form an
    # approximate identity with genuinely distinct members
    from conftest import diamond

    P = diamond()
    family = [f for f in monotone_maps(P, P)
              if all(P.leq(f(x), x) for x in P.elements)]
    assert len(family) > 2
    for mode, attr in (("plain", "fs"), ("strong", "strong_fs"), ("bf", "fs")):
        kernels = [f for f in family
                   if all(f(f(x)) == f(x) for x in P.elements)]
        deltas = kernels if mode == "bf" else family
        w = fs_witness_from_domain(P, deltas, mode=mode)
        assert getattr(classify_space(w.space, w), attr)
        assert len(w.relations) == len(deltas)


def test_tb_witness_with_kernel_family():
    from conftest import diamond

    P = diamond()
    kernels = [f for f in monotone_maps(P, P)
               if all(P.leq(f(x), x) for x in P.elements)
               and all(f(f(x)) == f(x) for x in P.elements)]
    sel = tb_witness_from_bf(P, kernels)
    assert check_tb(sel)
