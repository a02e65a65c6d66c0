"""CF spaces: admissibility, closed sets, and the inclusion domain."""

import itertools

import pytest

from conftest import chain, vee
from roughdom import cfspace
from roughdom.cfspace import (
    CFSpace,
    absorption_masks,
    cf_closed_sets,
    is_cf_closed,
    is_topological_cf,
    validate_cf,
    way_below_closed,
)
from roughdom.config import RunConfig
from roughdom.corpus import posets_up_to, random_cf_space, random_ga_space, seeded_rng
from roughdom.errors import InvalidSpace, NotClosed, PostconditionFailed, SpaceNotValidated
from roughdom.gaspace import GASpace, relation_properties, upper_approx
from roughdom.poset import is_continuous_domain, is_algebraic_domain, way_below
from roughdom.represent import induce_cf_from_poset


@pytest.fixture
def good_space():
    sp = CFSpace(GASpace(["a", "b", "c"],
                         [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
                 [["c"]])
    validate_cf(sp)
    return sp


def all_subsets(universe):
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            yield frozenset(combo)


def test_validate_good_space(good_space):
    assert good_space.is_validated


def test_validate_bad_family_reports_counterexample():
    sp = CFSpace(GASpace(["a", "b", "c"],
                         [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
                 [["b"]])
    report = validate_cf(sp)
    assert not report.ok
    assert report.transitive
    assert (frozenset({"b"}), frozenset({"a"})) in report.counterexamples


def test_validate_induced_space(chain3):
    ind = induce_cf_from_poset(chain3)
    assert validate_cf(ind.space).ok


def test_witness_recording(good_space):
    report = validate_cf(good_space, record_witnesses=True)
    assert report.ok
    # every checked chunk re-covered by the single member
    assert set(report.witnesses.values()) == {frozenset({"c"})}


def test_unvalidated_space_is_rejected():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [["a"]])
    with pytest.raises(SpaceNotValidated):
        cf_closed_sets(sp)
    with pytest.raises(SpaceNotValidated):
        is_cf_closed(sp, {"a"})


def test_is_cf_closed_examples(good_space):
    assert is_cf_closed(good_space, {"a", "b", "c"})
    assert not is_cf_closed(good_space, frozenset())
    check = is_cf_closed(good_space, {"a"}, record_witnesses=True)
    assert not check


def test_empty_set_closed_iff_member():
    sp = CFSpace(GASpace(["a"], [("a", "a")]), [[], ["a"]])
    validate_cf(sp)
    assert is_cf_closed(sp, frozenset())
    sp2 = CFSpace(GASpace(["a"], [("a", "a")]), [["a"]])
    validate_cf(sp2)
    assert not is_cf_closed(sp2, frozenset())


def test_member_upper_is_closed(good_space, chain3):
    for space in (good_space, induce_cf_from_poset(chain3).space):
        for F in space.family:
            assert is_cf_closed(space, space.upper_of_member(F))


def test_closed_sets_examples(good_space, chain3):
    assert cf_closed_sets(good_space).closed_sets == (frozenset({"a", "b", "c"}),)
    ind = induce_cf_from_poset(chain3)
    assert cf_closed_sets(ind.space).closed_sets == (
        frozenset({"0"}), frozenset({"0", "1"}), frozenset({"0", "1", "2"}))
    vind = induce_cf_from_poset(vee())
    assert set(cf_closed_sets(vind.space).closed_sets) == {
        frozenset({"bot"}), frozenset({"bot", "a"}), frozenset({"bot", "b"})}
    # 40 atoms, u_i R u_j for i <= j, the singletons as members: the top
    # segment alone has 2^40 chunks, so only the member uppers can answer
    atoms = [f"u{i}" for i in range(40)]
    wide = CFSpace(GASpace(atoms, [(a, b) for i, a in enumerate(atoms)
                                   for b in atoms[i:]]),
                   [[a] for a in atoms])
    validate_cf(wide)
    cs = cf_closed_sets(wide)
    assert not cs.cross_checked
    assert cs.closed_sets == tuple(frozenset(atoms[:i + 1]) for i in range(40))


def test_enumeration_agreement_random():
    rng = seeded_rng(23)
    for _ in range(25):
        space = random_cf_space(rng, max_universe=6)
        # auto cross-checks the member uppers against the brute scan
        cs = cf_closed_sets(space)
        assert cs.cross_checked


def test_closed_sets_cache_is_cross_checked_once_the_cap_allows(chain3):
    # a fresh copy: induced spaces are shared, and earlier tests fill their cache
    induced = induce_cf_from_poset(chain3).space
    space = CFSpace(induced.base, induced.family)
    validate_cf(space)
    small = cf_closed_sets(space, config=RunConfig(cap_universe=2))
    assert not small.cross_checked
    # still within the small cap: the cached result answers
    assert cf_closed_sets(space, config=RunConfig(cap_universe=2)) is small
    full = cf_closed_sets(space)
    assert full.cross_checked
    assert full.closed_sets == small.closed_sets and full.poset == small.poset
    assert cf_closed_sets(space, config=RunConfig(cap_universe=2)) is full


def closedness_forms(space, E):
    """The four equivalent characterizations, written out independently."""
    E = frozenset(E)
    # (a) definitional: every finite K re-covered inside E by a member of E
    def_form = all(
        any(K <= upper_approx(space.base, F) <= E and F <= E
            for F in space.family)
        for K in all_subsets(sorted(E, key=space.universe.index)))
    # (b) uppers of members contained in E form a directed family with union E
    inside = [upper_approx(space.base, F) for F in space.family if F <= E]
    directed = bool(inside) and all(
        any(a | b <= c for c in inside) for a in inside for b in inside)
    b_form = directed and frozenset().union(*inside) == E
    # (c) some family with directed uppers unioning to E
    c_form = False
    uppers = sorted({upper_approx(space.base, F) for F in space.family},
                    key=lambda s: (len(s), sorted(s, key=space.universe.index)))
    for k in range(1, len(uppers) + 1):
        if c_form:
            break
        for combo in itertools.combinations(uppers, k):
            directed = all(any(a | b <= c for c in combo) for a in combo for b in combo)
            if directed and frozenset().union(*combo) == E:
                c_form = True
                break
    if E == frozenset() and frozenset() in space.family:
        c_form = True
    # (d) K-witness form without the F-membership requirement
    d_form = all(
        any(K <= upper_approx(space.base, F) <= E for F in space.family)
        for K in all_subsets(sorted(E, key=space.universe.index)))
    return def_form, b_form, c_form, d_form


def test_four_closedness_forms_agree():
    rng = seeded_rng(29)
    spaces = [random_cf_space(rng, max_universe=5) for _ in range(12)]
    spaces.append(induce_cf_from_poset(chain(3)).space)
    spaces.append(induce_cf_from_poset(vee()).space)
    for space in spaces:
        for E in all_subsets(space.universe):
            forms = closedness_forms(space, E)
            assert len(set(forms)) == 1, (space, E, forms)
            assert forms[0] == bool(is_cf_closed(space, E))


def test_closed_under_directed_unions_and_absorption():
    rng = seeded_rng(31)
    for _ in range(12):
        space = random_cf_space(rng, max_universe=6)
        cs = cf_closed_sets(space)
        closed = set(cs.closed_sets)
        for E1 in closed:
            for E2 in closed:
                if E1 <= E2 or E2 <= E1:
                    assert E1 | E2 in closed
        for E in closed:
            for A in all_subsets(sorted(E, key=space.universe.index)):
                assert upper_approx(space.base, A) <= E


def test_way_below_closed_examples(chain3):
    space = induce_cf_from_poset(chain3).space
    w = way_below_closed(space, frozenset({"0"}), frozenset({"0", "1"}))
    assert w
    assert frozenset({"0"}) <= space.upper_of_member(w.witness)
    assert w.witness <= frozenset({"0", "1"})
    assert not way_below_closed(space, frozenset({"0", "1", "2"}), frozenset({"0"}))
    with pytest.raises(NotClosed):
        way_below_closed(space, frozenset({"1"}), frozenset({"0"}))


def test_member_upper_way_below_closed_superset():
    rng = seeded_rng(37)
    for _ in range(10):
        space = random_cf_space(rng, max_universe=5)
        closed = cf_closed_sets(space).closed_sets
        for F in space.family:
            rf = space.upper_of_member(F)
            for E in closed:
                if F <= E:
                    assert way_below_closed(space, rf, E)


def test_way_below_closed_agrees_with_order_oracle():
    rng = seeded_rng(41)
    spaces = [random_cf_space(rng, max_universe=5) for _ in range(8)]
    spaces.append(induce_cf_from_poset(chain(3)).space)
    for space in spaces:
        cs = cf_closed_sets(space)
        for E1 in cs.closed_sets:
            for E2 in cs.closed_sets:
                assert bool(way_below_closed(space, E1, E2)) == \
                    way_below(cs.poset, E1, E2, oracle=True)


def test_closed_poset_is_continuous_domain():
    rng = seeded_rng(43)
    for _ in range(8):
        space = random_cf_space(rng, max_universe=5)
        cs = cf_closed_sets(space)
        assert is_continuous_domain(cs.poset)


def test_topological_space_gives_algebraic_poset_with_compact_uppers(chain3):
    space = induce_cf_from_poset(chain3).space
    assert is_topological_cf(space)
    cs = cf_closed_sets(space)
    assert is_algebraic_domain(cs.poset)
    for F in space.family:
        rf = space.upper_of_member(F)
        assert way_below(cs.poset, rf, rf, oracle=True)


def test_non_preorder_space_is_not_topological(good_space):
    assert not is_topological_cf(good_space)
    tiny = CFSpace(GASpace(["a"], [("a", "a")]), [["a"]])
    validate_cf(tiny)
    assert is_topological_cf(tiny)


def test_validate_beyond_cap_uses_greatest_chunk():
    from roughdom.config import RunConfig

    atoms = [f"u{i}" for i in range(5)]
    sp = CFSpace(GASpace(atoms, [(a, a) for a in atoms]), [[atoms[0]]])
    report = validate_cf(sp, config=RunConfig(cap_universe=4))
    assert report.ok and not report.exhaustive
    # same space re-validated exhaustively agrees
    sp2 = CFSpace(GASpace(atoms, [(a, a) for a in atoms]), [[atoms[0]]])
    full = validate_cf(sp2, oracle=True)
    assert full.ok and full.exhaustive


def test_shortcut_validation_agrees_with_exhaustive():
    from roughdom.config import RunConfig

    rng = seeded_rng(71)
    for _ in range(30):
        space = random_cf_space(rng, max_universe=5)
        fresh = CFSpace(space.base, space.family)
        shortcut = validate_cf(fresh, config=RunConfig(cap_universe=1))
        assert shortcut.ok == validate_cf(space, oracle=True).ok
    # a failing space fails both ways
    bad = CFSpace(GASpace(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
                  [["b"]])
    bad2 = CFSpace(bad.base, bad.family)
    assert not validate_cf(bad, config=RunConfig(cap_universe=1)).ok
    assert not validate_cf(bad2, oracle=True).ok


def test_member_uppers_form_a_basis():
    # each closed set is the supremum of a directed family of member
    # uppers way below it, which is what makes the poset continuous
    rng = seeded_rng(79)
    spaces = [random_cf_space(rng, max_universe=5) for _ in range(10)]
    spaces.append(induce_cf_from_poset(chain(4)).space)
    for space in spaces:
        cs = cf_closed_sets(space)
        for E in cs.closed_sets:
            below = {space.upper_of_member(F) for F in space.family
                     if way_below_closed(space, space.upper_of_member(F), E)}
            assert below, E
            assert all(any(a | b <= c for c in below) for a in below for b in below)
            assert frozenset().union(*below) == E


def random_unfiltered_space(rng, max_universe=6):
    """A random relation and family with no admissibility filter.

    Unlike ``random_cf_space``, which keeps drawing until a space
    passes, this keeps whatever it draws, so most spaces fail and the
    failing members are exercised too.
    """
    n = rng.randint(1, max_universe)
    atoms = [f"u{i}" for i in range(n)]
    density = rng.choice([0.1, 0.25, 0.4, 0.6])
    relation = [(a, b) for a in atoms for b in atoms if rng.random() < density]
    relation = relation or [(rng.choice(atoms), rng.choice(atoms))]
    family = [[a for a in atoms if rng.random() < 0.35]
              for _ in range(rng.randint(1, 2 * n))]
    return CFSpace(GASpace(atoms, relation), family)


def test_fast_validation_agrees_with_oracle_on_unfiltered_spaces():
    rng = seeded_rng(97)
    failing = 0
    for _ in range(2000):
        space = random_unfiltered_space(rng)
        fast = validate_cf(space)
        orc = validate_cf(CFSpace(space.base, space.family), oracle=True)
        assert not fast.exhaustive and fast.checked == len(space.family)
        assert orc.exhaustive
        assert (fast.ok, fast.transitive) == (orc.ok, orc.transitive), space
        assert ({F for F, _ in fast.counterexamples}
                == {F for F, _ in orc.counterexamples}), space
        failing += not fast.ok
    # the generator must exercise both verdicts
    assert 200 < failing < 1900


def test_oracle_validation_is_capped_and_replaces_a_fast_report():
    from roughdom.config import RunConfig
    from roughdom.errors import SizeCapExceeded

    atoms = [f"u{i}" for i in range(5)]
    sp = CFSpace(GASpace(atoms, [(a, a) for a in atoms]), [[atoms[0]], atoms[:2]])
    with pytest.raises(SizeCapExceeded):
        validate_cf(sp, oracle=True, config=RunConfig(cap_universe=4))
    fast = validate_cf(sp)
    assert fast.checked == 2 and not fast.exhaustive
    # a cached fast report does not answer an oracle request
    orc = validate_cf(sp, config=RunConfig(oracle=True))
    assert orc.exhaustive and orc.checked == 2 + 4
    # an oracle report does answer a later fast request
    assert validate_cf(sp) is orc


def test_fast_validation_reaches_induced_chain_14():
    import time

    t0 = time.perf_counter()
    space = induce_cf_from_poset(chain(14)).space
    elapsed = time.perf_counter() - t0
    report = validate_cf(space)  # the stamped report of the induction
    assert report.ok and not report.exhaustive
    assert report.checked == len(space.family) == 2 ** 14 - 1
    # about 0.3 s on a 2-vCPU desk machine; the oracle needs ~12 s
    # already at n = 12
    assert elapsed < 5.0, elapsed


def test_topological_recheck_keeps_the_stored_oracle_report():
    space = induce_cf_from_poset(chain(4)).space
    orc = validate_cf(space, oracle=True)
    assert orc.exhaustive
    assert is_topological_cf(space)
    report = validate_cf(space)
    assert report is orc
    assert report.exhaustive and report.witnesses is None


def test_preorder_spaces_pass_validation_under_any_family():
    # a preorder makes every family consistent: G = F re-covers each chunk
    # of upper(F); is_topological_cf relies on this instead of re-checking
    rng = seeded_rng(83)
    spaces = 0
    while spaces < 300:
        base = random_ga_space(rng, max_universe=6)
        if not relation_properties(base).preorder:
            continue
        spaces += 1
        n = len(base.universe)
        family = [base.subset(rng.randrange(1 << n))
                  for _ in range(rng.randint(1, 2 ** n))]
        fast = validate_cf(CFSpace(base, family))
        oracle = validate_cf(CFSpace(base, family), oracle=True)
        assert fast.ok and not fast.exhaustive
        assert oracle.ok and oracle.exhaustive


def literal_absorption(space):
    """(up, down) of ``absorption_masks`` from the relation pairs."""
    R = space.base.relation
    fam = space.family
    upper = [frozenset(x for x in space.universe if any((x, a) in R for a in F))
             for F in fam]
    up = tuple(sum(1 << k for k in range(len(fam)) if fam[i] <= upper[k])
               for i in range(len(fam)))
    down = tuple(sum(1 << k for k in range(len(fam)) if fam[k] <= upper[i])
                 for i in range(len(fam)))
    return up, down


def test_absorption_masks_match_their_definition():
    rng = seeded_rng(71)
    for _ in range(40):
        space = random_cf_space(rng, max_universe=6)
        flipped = CFSpace(space.base, tuple(reversed(space.family)))
        for sp in (space, flipped):
            assert absorption_masks(sp) == literal_absorption(sp)
            assert absorption_masks(sp) is absorption_masks(sp)  # built once
        # equal spaces, but each table reads its own family order
        n = len(space.family)
        up, flipped_up = absorption_masks(space)[0], absorption_masks(flipped)[0]
        assert all((up[i] >> k & 1) == (flipped_up[n - 1 - i] >> (n - 1 - k) & 1)
                   for i in range(n) for k in range(n))


def literal_upper(space, A):
    """upper(A) from the relation pairs: the points with a successor in A."""
    R = space.base.relation
    return frozenset(x for x in space.universe if any((x, a) in R for a in A))


def test_member_masks_match_their_definition():
    rng = seeded_rng(59)
    nonreflexive = 0
    for _ in range(80):
        base = random_ga_space(rng, max_universe=6)
        n = len(base.universe)
        family = [base.subset(rng.randrange(1 << n)) for _ in range(rng.randint(1, 8))]
        space = CFSpace(base, family + family[::-1])
        # duplicates keep the position of their first occurrence
        assert space.family == tuple(dict.fromkeys(family))
        for F, fm, rm in zip(space.family, space._fmasks, space._rmasks):
            assert fm == base.mask(F)
            assert base.subset(rm) == literal_upper(space, F)
        for amask in range(1 << n):
            assert base.subset(base.upper_mask(amask)) == literal_upper(
                space, base.subset(amask))
        nonreflexive += not relation_properties(base).reflexive
    assert nonreflexive > 20


def test_member_atoms_outside_the_universe_are_refused():
    base = GASpace(["a", "b"], [("a", "b")])
    with pytest.raises(InvalidSpace, match="'c' leaves the universe"):
        CFSpace(base, [["a"], ["b", "c"]])
    with pytest.raises(InvalidSpace, match="nonempty"):
        CFSpace(base, [])


def literal_closedness(space, E):
    """Closedness of E from the definition alone: no table, the whole
    family for every chunk K of E, the chunks walked from E down in mask
    order.  Returns (closed, first uncovered chunk or None, K -> first
    re-covering member in family order for each chunk walked)."""
    U = space.universe
    emask = sum(1 << U.index(x) for x in E)
    uppers = [literal_upper(space, F) for F in space.family]
    witnesses = {}
    for kmask in range(emask, -1, -1):
        if kmask & ~emask:
            continue
        K = frozenset(x for i, x in enumerate(U) if kmask >> i & 1)
        G = next((F for F, R in zip(space.family, uppers) if F <= E and K <= R <= E),
                 None)
        if G is None:
            return False, K, witnesses
        witnesses[K] = G
    return True, None, witnesses


def closedness_corpus():
    """Seeded random spaces and the induced spaces of all posets of size
    at most 3, each a fresh, validated copy.

    Of the random draws, every space with a member G outside upper(G)
    (a relation that is not reflexive there) or with an earlier member
    whose upper(G) equals a later one's but whose G | upper(G) is
    larger is kept, and the first 20 others, so that both kinds are
    well represented."""
    rng = seeded_rng(43)
    spaces, plain, loose, shadowing = [], 0, 0, 0
    for _ in range(300):
        space = random_cf_space(rng, max_universe=6)
        fm, rm = space._fmasks, space._rmasks
        is_loose = any(F & ~R for F, R in zip(fm, rm))
        is_shadowing = any(rm[i] == rm[j] and (fm[i] | rm[i]) & ~(fm[j] | rm[j])
                           for j in range(len(fm)) for i in range(j))
        if is_loose or is_shadowing or plain < 20:
            spaces.append(space)
            plain += not (is_loose or is_shadowing)
            loose += is_loose
            shadowing += is_shadowing
    assert loose >= 20 and shadowing >= 10, (loose, shadowing)
    for posets in posets_up_to(3).values():
        spaces.extend(induce_cf_from_poset(P).space for P in posets)
    out = []
    for space in spaces:
        fresh = CFSpace(space.base, space.family)
        assert validate_cf(fresh).ok
        out.append(fresh)
    return out


def test_closedness_agrees_with_literal_oracle():
    for space in closedness_corpus():
        closed = set()
        for E in all_subsets(space.universe):
            ok, counterexample, witnesses = literal_closedness(space, E)
            check = is_cf_closed(space, E, record_witnesses=True)
            assert check.closed == ok, (space.family, E)
            assert check.counterexample == counterexample, (space.family, E)
            assert check.witnesses == witnesses, (space.family, E)
            if ok:
                closed.add(E)
        cs = cf_closed_sets(space)
        assert cs.cross_checked and set(cs.closed_sets) == closed, space.family


def test_cross_check_catches_a_dropped_closed_set(monkeypatch, chain3):
    induced = induce_cf_from_poset(chain3).space
    calls = []
    real = cfspace._closed_masks

    def drop_one_from_the_brute_scan(table, candidates):
        masks = real(table, candidates)
        calls.append(len(masks))
        return masks[1:]

    monkeypatch.setattr(cfspace, "_closed_masks", drop_one_from_the_brute_scan)
    space = CFSpace(induced.base, induced.family)
    validate_cf(space)
    with pytest.raises(PostconditionFailed):
        cf_closed_sets(space)
    assert calls == [3]
    # above the cap no scan runs, and the three true closed sets come back
    calls.clear()
    small = cf_closed_sets(space, config=RunConfig(cap_universe=2))
    assert not small.cross_checked and small.closed_sets == (
        frozenset({"0"}), frozenset({"0", "1"}), frozenset({"0", "1", "2"}))
    assert calls == []
