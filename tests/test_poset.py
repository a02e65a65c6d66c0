"""Order-theoretic core: definitional checks against independent oracles."""

import itertools

import pytest

from conftest import antichain, chain, diamond, vee
from roughdom.errors import (
    ElementNotInPoset,
    EmptyFamily,
    InvalidPoset,
    NotACover,
    NotDirected,
    NotMonotone,
    PreconditionViolated,
    SizeCapExceeded,
)
from roughdom.config import RunConfig
from roughdom.corpus import random_monotone_map, seeded_rng
from roughdom.ordering import is_directed_under
from roughdom.poset import (
    FinitePoset,
    MonotoneMap,
    compacts,
    compose_maps,
    find_cofinal_part,
    identity_map,
    interpolate,
    is_algebraic_domain,
    is_approximate_identity,
    is_continuous_domain,
    is_directed,
    is_directed_definitional,
    is_finitely_separating,
    is_kernel_operator,
    is_scott_continuous,
    is_separating_witness,
    monotone_maps,
    order_isomorphism,
    pointwise_leq,
    pointwise_sup,
    supremum,
    verify_bf_domain_witness,
    verify_fs_domain_witness,
    way_below,
)


def all_subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def brute_way_below(P, x, y):
    """Independent oracle: scan every directed subset with a supremum."""
    for S in all_subsets(P.elements):
        if not S:
            continue
        directed = all(
            any(P.leq(a, c) and P.leq(b, c) for c in S)
            for a in S for b in S)
        if not directed:
            continue
        sup = supremum(P, S)
        if sup is None or not P.leq(y, sup):
            continue
        if not any(P.leq(x, d) for d in S):
            return False
    return True


# -- construction ------------------------------------------------------------

def test_rejects_missing_reflexivity():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b"], [("a", "a"), ("a", "b")])


def test_rejects_missing_transitivity():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b", "c"],
                    [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")])


def test_rejects_cycles():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])


def test_from_covers_expands_chain(chain3):
    built = FinitePoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert built == chain3


def test_from_covers_rejects_cycles():
    with pytest.raises(InvalidPoset):
        FinitePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


# -- directedness and suprema ------------------------------------------------

def test_directed_chain_subset(chain3):
    assert is_directed(chain3, {"0", "1"})


def test_directed_vee_top_pair_fails():
    assert not is_directed(vee(), {"a", "b"})


def test_empty_set_is_not_directed(chain3):
    assert not is_directed(chain3, frozenset())


def test_directed_requires_membership(chain3):
    with pytest.raises(ElementNotInPoset):
        is_directed(chain3, {"0", "zz"})


def test_directed_forms_agree_small(posets_to_6):
    for size, posets in posets_to_6.items():
        for P in posets:
            for S in all_subsets(P.elements):
                assert is_directed(P, S) == is_directed_definitional(P, S)


def test_directed_under_agrees_with_triple_loop():
    # the greatest-item scan against the literal form, a third item above
    # each pair, on subset inclusion and on random preorders
    rng = seeded_rng(29)
    subset = lambda a, b: a & ~b == 0
    verdicts = set()
    for _ in range(400):
        items = [rng.randrange(16) for _ in range(rng.randrange(1, 7))]
        # a random relation closed to a preorder
        pre = {(a, b) for a in items for b in items if a == b or rng.random() < 0.4}
        for c in items:
            pre |= {(a, b) for a in items for b in items if (a, c) in pre and (c, b) in pre}
        for leq in (subset, lambda a, b: (a, b) in pre):
            literal = all(any(leq(a, c) and leq(b, c) for c in items)
                          for a in items for b in items)
            assert is_directed_under(items, leq) == literal
            verdicts.add(literal)
    assert verdicts == {True, False}
    # two disjoint masks have no common superset among themselves
    assert not is_directed_under([0b01, 0b10], subset)
    assert is_directed_under([0b01, 0b10, 0b11], subset)
    assert not is_directed_under([], subset)


def test_supremum_examples(chain3):
    assert supremum(chain3, {"0", "2"}) == "2"
    assert supremum(vee(), {"a", "b"}) is None
    assert supremum(chain3, {"1"}) == "1"


def test_supremum_of_empty_set_is_bottom_when_present(chain3):
    assert supremum(chain3, frozenset()) == "0"
    assert supremum(antichain(2), frozenset()) is None


# -- way-below, compacts, continuity ------------------------------------------

def test_way_below_chain_examples(chain3):
    assert way_below(chain3, "0", "2", oracle=True)
    assert brute_way_below(chain3, "0", "2")
    assert not way_below(chain3, "2", "0", oracle=True)


def test_way_below_reflexive_on_finite(zoo):
    for P in zoo:
        for x in P.elements:
            assert way_below(P, x, x, oracle=True)


def test_fast_and_oracle_way_below_agree(zoo):
    for P in zoo:
        for x in P.elements:
            for y in P.elements:
                fast = way_below(P, x, y)
                orc = way_below(P, x, y, oracle=True)
                assert fast == orc == brute_way_below(P, x, y)


def test_compacts_examples(chain3):
    assert compacts(chain3, oracle=True) == frozenset({"0", "1", "2"})
    assert compacts(chain(1), oracle=True) == frozenset({"0"})
    assert compacts(vee(), oracle=True) == frozenset({"bot", "a", "b"})


def test_continuity_and_algebraicity(zoo):
    for P in zoo:
        assert is_continuous_domain(P)
        assert is_algebraic_domain(P)
    empty = FinitePoset((), ())
    assert is_continuous_domain(empty)
    assert is_algebraic_domain(empty)


def test_interpolation(chain3):
    y = interpolate(chain3, "0", "2")
    assert way_below(chain3, "0", y, oracle=True)
    assert way_below(chain3, y, "2", oracle=True)
    assert interpolate(chain(2), "0", "0") == "0"
    with pytest.raises(PreconditionViolated):
        interpolate(chain(2), "1", "0")


def test_way_below_sandwich_lemma(posets_to_4):
    # u <= x << y <= z forces u << z
    for size, posets in posets_to_4.items():
        for P in posets:
            for u, x, y, z in itertools.product(P.elements, repeat=4):
                if P.leq(u, x) and way_below(P, x, y, oracle=True) and P.leq(y, z):
                    assert way_below(P, u, z, oracle=True)


# -- cofinal parts -------------------------------------------------------------

def test_find_cofinal_part_examples(chain3):
    assert find_cofinal_part(chain3, {"0", "1", "2"}, [{"0"}, {"1", "2"}]) == 1
    assert find_cofinal_part(chain3, {"0"}, [{"0"}]) == 0
    with pytest.raises(NotACover):
        find_cofinal_part(chain3, {"0", "1", "2"}, [{"0"}, {"1"}])
    with pytest.raises(NotDirected):
        find_cofinal_part(vee(), {"a", "b"}, [{"a"}, {"b"}])


def test_cofinal_part_postcondition(chain3):
    D = {"0", "1", "2"}
    parts = [{"0", "2"}, {"1"}]
    j = find_cofinal_part(chain3, D, parts)
    B = parts[j]
    assert all(any(chain3.leq(d, a) for a in B) for d in D)
    assert supremum(chain3, B) == supremum(chain3, D)


# -- monotone maps -------------------------------------------------------------

def test_map_requires_totality(chain2):
    with pytest.raises(NotMonotone):
        MonotoneMap(chain2, chain2, {"0": "1", "1": "0"})
    with pytest.raises(Exception):
        MonotoneMap(chain2, chain2, {"0": "0"})


def test_monotone_map_count(chain2):
    assert len(monotone_maps(chain2, chain2)) == 3


def test_scott_continuity(chain3):
    assert is_scott_continuous(identity_map(chain3), oracle=True)
    const = MonotoneMap(chain3, chain3, {x: "0" for x in chain3.elements})
    assert is_scott_continuous(const, oracle=True)


def test_monotone_implies_scott_on_finite(zoo):
    for P in zoo:
        for Q in zoo:
            for f in monotone_maps(P, Q):
                assert is_scott_continuous(f, oracle=True)


def raw_map(P, Q, graph):
    """A map object that skips the constructor's monotonicity check."""
    f = MonotoneMap.__new__(MonotoneMap)
    f.source, f.target, f.graph, f._hash = P, Q, dict(graph), None
    return f


def relabeled_copy(P):
    """An equal poset object that lists its elements in reverse."""
    return FinitePoset(tuple(reversed(P.elements)), P.leq_pairs)


def test_map_order_checks_agree_with_leq_restatements(posets_to_4):
    rng = seeded_rng(71)
    flat = [P for n in (1, 2, 3, 4) for P in posets_to_4[n]]
    rejected = accepted = 0
    for _ in range(600):
        P, Q = rng.choice(flat), rng.choice(flat)
        graph = {x: rng.choice(Q.elements) for x in P.elements}
        monotone = all(Q.leq(graph[a], graph[b])
                       for a in P.elements for b in P.elements if P.leq(a, b))
        raw = raw_map(P, Q, graph)
        assert is_scott_continuous(raw) == monotone
        assert is_scott_continuous(raw, oracle=True) == monotone
        if not monotone:
            rejected += 1
            with pytest.raises(NotMonotone):
                MonotoneMap(P, Q, graph)
            with pytest.raises(NotMonotone):
                MonotoneMap(relabeled_copy(P), relabeled_copy(Q), graph)
            continue
        accepted += 1
        f = MonotoneMap(P, Q, graph)
        # a second map on equal but distinct poset objects
        P2, Q2 = relabeled_copy(P), relabeled_copy(Q)
        assert P2 == P and P2 is not P and Q2 == Q and Q2 is not Q
        g = MonotoneMap(P2, Q2, random_monotone_map(rng, P, Q).graph)
        for a, b in ((f, g), (g, f), (f, f)):
            assert pointwise_leq(a, b) == all(Q.leq(a(x), b(x)) for x in P.elements)
        # maps between different posets
        R = rng.choice([R for R in flat if R != Q])
        h = random_monotone_map(rng, P, R)
        with pytest.raises(PreconditionViolated):
            pointwise_leq(f, h)
        S = rng.choice([S for S in flat if S != P])
        with pytest.raises(PreconditionViolated):
            pointwise_leq(f, random_monotone_map(rng, S, Q))
    assert rejected >= 100 and accepted >= 100


def test_run_config_oracle_reaches_the_literal_forms(chain3):
    # fresh posets: their directed subsets are not cached yet, so the
    # literal forms meet cap_oracle
    for P, cfg in ((chain(13), RunConfig(oracle=True)),
                   (chain(3), RunConfig(oracle=True, cap_oracle=2))):
        f = identity_map(P)
        x, y = P.elements[:2]
        assert way_below(P, x, y, config=cfg.with_updates(oracle=False))
        assert is_scott_continuous(f, config=cfg.with_updates(oracle=False))
        with pytest.raises(SizeCapExceeded):
            way_below(P, x, y, config=cfg)
        with pytest.raises(SizeCapExceeded):
            is_scott_continuous(f, config=cfg)
    cfg = RunConfig(oracle=True)
    assert not way_below(chain3, "2", "0", config=cfg)
    assert chain3._directed is not None  # the literal form ran
    const = raw_map(chain3, chain3, {"0": "2", "1": "0", "2": "0"})
    assert not is_scott_continuous(const, config=cfg)


# -- separating maps and identities ---------------------------------------------

def test_finitely_separating_identity(chain3):
    M = is_finitely_separating(identity_map(chain3))
    assert M is not None
    assert is_separating_witness(identity_map(chain3), M)
    # identity forces every element into the witness
    assert M == frozenset(chain3.elements)


def test_finitely_separating_constant_bottom(chain3):
    const = MonotoneMap(chain3, chain3, {x: "0" for x in chain3.elements})
    assert is_finitely_separating(const) == frozenset({"0"})


def test_not_separating_when_not_deflationary():
    P = antichain(2)
    swap = MonotoneMap(P, P, {"a0": "a1", "a1": "a0"})
    assert is_finitely_separating(swap) is None


def test_approximate_identity_examples(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    assert is_approximate_identity(chain2, [identity_map(chain2)])
    assert not is_approximate_identity(chain2, [const])
    assert is_approximate_identity(chain2, [const, identity_map(chain2)])
    # two incomparable maps whose pointwise supremum is the identity
    P = chain(3)
    f = MonotoneMap(P, P, {"0": "0", "1": "0", "2": "2"})
    g = MonotoneMap(P, P, {"0": "0", "1": "1", "2": "1"})
    assert not is_approximate_identity(P, [f, g])
    assert is_approximate_identity(P, [f, g, identity_map(P)])
    with pytest.raises(EmptyFamily):
        is_approximate_identity(chain2, [])


def test_squared_family_is_still_approximate_identity(zoo):
    # deflationary monotone endo-maps plus the identity form an
    # approximate identity; squaring each member preserves that
    for P in zoo:
        family = [f for f in monotone_maps(P, P)
                  if all(P.leq(f(x), x) for x in P.elements)]
        assert is_approximate_identity(P, family)
        squared = [compose_maps(f, f) for f in family]
        assert is_approximate_identity(P, squared)


def test_separating_implies_way_below_image(zoo):
    for P in zoo:
        for f in monotone_maps(P, P):
            if is_finitely_separating(f) is not None:
                for x in P.elements:
                    assert way_below(P, f(x), x, oracle=True)


def test_kernel_operator_examples(chain2):
    assert is_kernel_operator(identity_map(chain2))
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    assert is_kernel_operator(const)
    lift = MonotoneMap(chain2, chain2, {"0": "1", "1": "1"})
    assert not is_kernel_operator(lift)


def test_domain_witness_checks(chain3, chain2):
    ident = [identity_map(chain3)]
    assert verify_fs_domain_witness(chain3, ident)
    assert verify_bf_domain_witness(chain3, ident)
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    assert not verify_fs_domain_witness(chain2, [const])
    assert not verify_bf_domain_witness(chain2, [const])
    both = [const, identity_map(chain2)]
    assert verify_fs_domain_witness(chain2, both)
    assert verify_bf_domain_witness(chain2, both)
    assert verify_bf_domain_witness(chain2, both, kernel=False)


def test_pointwise_sup(chain2):
    const = MonotoneMap(chain2, chain2, {"0": "0", "1": "0"})
    sup = pointwise_sup([const, identity_map(chain2)])
    assert sup == identity_map(chain2)


# -- isomorphism ----------------------------------------------------------------

def test_isomorphism_of_relabeled_chain(chain2):
    other = FinitePoset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")])
    iso = order_isomorphism(chain2, other)
    assert iso == {"0": "a", "1": "b"}


def test_non_isomorphic_pair(chain3):
    assert order_isomorphism(chain3, vee()) is None


def test_self_isomorphism_is_verified(zoo):
    for P in zoo:
        iso = order_isomorphism(P, P)
        assert iso is not None
        for a in P.elements:
            for b in P.elements:
                assert P.leq(a, b) == P.leq(iso[a], iso[b])


def test_interpolation_property_small(posets_to_4):
    for size, posets in posets_to_4.items():
        for P in posets:
            for x in P.elements:
                for z in P.elements:
                    if way_below(P, x, z, oracle=True):
                        y = interpolate(P, x, z, oracle=True)
                        assert way_below(P, x, y, oracle=True)
                        assert way_below(P, y, z, oracle=True)


def test_size_caps_are_enforced():
    from roughdom.config import RunConfig
    from roughdom.errors import SizeCapExceeded

    big = chain(5)
    tight = RunConfig(cap_oracle=3, cap_iso=3, cap_hom=2)
    with pytest.raises(SizeCapExceeded):
        big.directed_masks(tight)
    with pytest.raises(SizeCapExceeded):
        order_isomorphism(big, big, tight)
    with pytest.raises(SizeCapExceeded):
        monotone_maps(chain(3), chain(3), tight)


def test_cofinal_part_on_random_covers(posets_to_4):
    from roughdom.corpus import seeded_rng

    rng = seeded_rng(73)
    flat = [P for size in posets_to_4 for P in posets_to_4[size]]
    found = 0
    while found < 40:
        P = rng.choice(flat)
        dmask, sup_i = rng.choice(P.directed_masks())
        D = P.subset(dmask)
        members = sorted(D, key=P.index)
        parts = [set() for _ in range(rng.randint(1, 3))]
        for x in members:
            parts[rng.randrange(len(parts))].add(x)
        found += 1
        j = find_cofinal_part(P, D, parts)
        B = parts[j]
        assert all(any(P.leq(d, a) for a in B) for d in D)
        assert supremum(P, B) == supremum(P, D)


def _rebuilt(f):
    """``f`` through the checking constructor, which raises on a map that
    is not total or not monotone."""
    return MonotoneMap(f.source, f.target, f.graph)


def test_unchecked_builders_yield_checkable_maps(posets_to_4):
    small = [P for k in (1, 2, 3) for P in posets_to_4[k]]
    homs = {(a, b): monotone_maps(P, Q)
            for a, P in enumerate(small) for b, Q in enumerate(small)}
    for P, Q in ((chain(4), chain(4)), (chain(4), antichain(4)),
                 (antichain(4), chain(4)), (diamond(), chain(4)),
                 (diamond(), diamond())):
        for f in monotone_maps(P, Q):
            assert _rebuilt(f) == f
    for fs in homs.values():
        for f in fs:
            assert _rebuilt(f) == f
    composites = 0
    for (a, b), fs in homs.items():
        for c in range(len(small)):
            for g in homs[b, c]:
                for f in fs:
                    h = compose_maps(g, f)
                    assert _rebuilt(h) == h
                    composites += 1
    assert composites == 30228
    rng = seeded_rng(101)
    for (a, b), fs in homs.items():
        assert _rebuilt(identity_map(small[a])) == identity_map(small[a])
        for _ in range(20):
            sup = pointwise_sup(rng.sample(fs, rng.randint(1, min(3, len(fs)))))
            if sup is not None:
                assert _rebuilt(sup) == sup
