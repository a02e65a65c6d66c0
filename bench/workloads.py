"""The four workloads: seeded inputs and the items their timed phase runs.

An item is one call, or a short fixed sequence of calls, into the
library's public API that ends in a verdict.  ``Item.run`` is timed;
``Item.check`` compares the verdict with an answer the benchmark knows
independently and runs outside the timed window.

A workload hands out its items in rounds of at least 100 items.  The
workload fixes the size mix of a round, and the seed and the round's
number fix its shapes, so a run of several rounds averages over several
draws of shapes and its figures move less from seed to seed.  Each round
is built from fresh objects with fresh element labels, so no cache of
the program can recognise an input from an earlier round: a run never
feeds the program the same input twice.  A workload built with another
``tag`` labels the same shapes differently, so its rounds share no cache
with the first one's either.
The caches this guards against are the module-level memos
``represent._INDUCED_MEMO`` (keyed by poset content) and
``relation._VALIDATION_MEMO`` (keyed by relation content), and the
per-object caches ``CFSpace._closed`` and ``FinitePoset._directed``.
Set-up builds inputs only; it calls none of ``induce_cf_from_poset``,
``validate_cf`` or ``cf_closed_sets``.
"""

from __future__ import annotations

import random
from itertools import combinations

from roughdom.category import phi_morphism
from roughdom.cfspace import CFSpace, is_cf_closed
from roughdom.gaspace import GASpace
from roughdom.poset import FinitePoset, MonotoneMap, compose_maps
from roughdom.relation import ApproximableRelation
from roughdom.witness import check_fs1, check_fs2, check_fs2_strong


class Item:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _rng(*key):
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random("/".join(map(str, key)))


def _relabel(P, prefix):
    """A copy of P with fresh labels and the same element order."""
    return FinitePoset([prefix + x for x in P.elements],
                       [(prefix + a, prefix + b) for a, b in P.leq_pairs])


def _down_sets(P):
    return {x: frozenset(y for y in P.elements if P.leq(y, x)) for x in P.elements}


def _family_size(P):
    """Number of topped subsets, the family size of P's induced space."""
    return sum(1 << (len(P.down(x)) - 1) for x in P.elements)


def _mix(rng, mix):
    """The sizes of one round, shuffled so that every size class is spread
    over the whole round and samples the host's speed like the others."""
    sizes = [size for size, count in mix for _ in range(count)]
    rng.shuffle(sizes)
    return sizes


# --------------------------------------------------------------------------
# cf-dense
# --------------------------------------------------------------------------

def _near_chain(rng, n, cuts, prefix):
    """A chain on n elements with ``cuts`` covering pairs made incomparable.

    The cuts stay in the lower half of the chain, where each removes at
    most a few percent of the topped subsets, so the seed moves an
    item's cost little.
    """
    labels = [f"{prefix}e{i}" for i in range(n)]
    cut = set(rng.sample(range((n - 1) // 2), cuts))
    leq = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)
           if not (j == i + 1 and i in cut)]
    return FinitePoset(labels, leq)


def _induced_space(P):
    """The space ``induce_cf_from_poset`` builds, from public constructors.

    Carrier, way-below (the order, on a finite poset) and the topped
    subsets in the library's canonical order (size, then element
    indices).  Family order decides how early validation finds its
    witnesses, so it must match the library's.
    """
    els = P.elements
    index = {x: i for i, x in enumerate(els)}
    family = []
    for top in els:
        below = [y for y in els if y != top and P.leq(y, top)]
        for size in range(len(below) + 1):
            family.extend(frozenset(rest) | {top} for rest in combinations(below, size))
    family.sort(key=lambda F: (len(F), sorted(index[x] for x in F)))
    relation = [(x, y) for x in els for y in els if P.leq(x, y)]
    return CFSpace(GASpace(els, relation), family)


class CFDense:
    """Induced spaces of chains and near-chains (0, 1, 2 cuts in turn
    within each size); validation dominates."""

    # (n, items per round).  A chain (no cut) costs about 1.4 times a
    # near-chain of its size, so each size splits into cost classes by
    # its number of cuts.  p50 falls inside the twelve chains of n=8 and
    # p90 inside the fourteen chains of n=9, which all cost the same: a
    # percentile at the edge of a class jumps between two classes from
    # run to run.
    MIX = ((7, 20), (8, 36), (9, 42), (10, 2))

    def __init__(self, api, seed, tag=""):
        self.api = api
        self.seed = seed
        self.tag = tag

    def round(self, r):
        rng = _rng("cf-dense", self.seed, r)
        seen = dict.fromkeys(dict(self.MIX), 0)
        items = []
        for k, n in enumerate(_mix(rng, self.MIX)):
            P = _near_chain(rng, n, seen[n] % 3, f"{self.tag}r{r}i{k}.")
            seen[n] += 1
            items.append(self._item(P, _induced_space(P)))
        return items

    def _item(self, P, space):
        api = self.api

        def run():
            return api.validate_cf(space), api.cf_closed_sets(space)

        def check(out):
            report, cs = out
            return (report.ok and cs.cross_checked
                    and set(cs.closed_sets) == set(_down_sets(P).values()))

        return Item(f"n{len(P.elements)}", run, check)


# --------------------------------------------------------------------------
# cf-wide
# --------------------------------------------------------------------------

def _preorder_space(rng, n, members, prefix):
    """A sparse preorder on n atoms with ``members`` distinct members of
    size 1-3.

    The preorder is the transitive closure of 5% of the n(n-1) possible
    edges, drawn without replacement: a fixed number of edges and of
    distinct members keeps the cost of the spaces of one size and member
    count close together, so the seed moves p90 little.
    """
    atoms = tuple(f"{prefix}u{i}" for i in range(n))
    succ = [1 << i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(pairs, round(0.05 * len(pairs))):
        succ[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = succ[i]
            for j in range(n):
                if succ[i] >> j & 1:
                    merged |= succ[j]
            if merged != succ[i]:
                succ[i] = merged
                changed = True
    relation = [(atoms[i], atoms[j]) for i in range(n) for j in range(n)
                if succ[i] >> j & 1]
    family = []
    while len(family) < members:
        member = frozenset(rng.sample(atoms, rng.randint(1, 3)))
        if member not in family:
            family.append(member)
    return CFSpace(GASpace(atoms, relation), family)


class CFWide:
    """Preorder spaces on 12-16 atoms; the brute closed-set scan dominates."""

    # (|U|, items per round): p50 falls inside |U|=13, p90 inside |U|=15
    MIX = ((12, 40), (13, 25), (14, 20), (15, 10), (16, 5))
    MEMBERS = range(12, 25)

    def __init__(self, api, seed, tag=""):
        self.api = api
        self.seed = seed
        self.tag = tag

    def round(self, r):
        rng = _rng("cf-wide", self.seed, r)
        # the member counts of each size spread evenly over 12-24: drawn
        # by the seed, they would be the main difference between seeds
        count = dict(self.MIX)
        seen = dict.fromkeys(count, 0)
        items = []
        for k, n in enumerate(_mix(rng, self.MIX)):
            members = self.MEMBERS[seen[n] * len(self.MEMBERS) // count[n]]
            seen[n] += 1
            items.append(self._item(_preorder_space(rng, n, members, f"{self.tag}r{r}i{k}.")))
        return items

    def _item(self, space):
        api = self.api

        def run():
            return api.validate_cf(space), api.cf_closed_sets(space)

        def check(out):
            report, cs = out
            return (report.ok and cs.cross_checked
                    and all(is_cf_closed(space, E) for E in cs.closed_sets))

        return Item(f"u{len(space.universe)}", run, check)


# --------------------------------------------------------------------------
# category
# --------------------------------------------------------------------------

def _corrupted_phi(g):
    """The poset-to-space functor with one pair dropped from each image."""
    rel = phi_morphism(g)
    if not rel.pairs:
        return rel
    drop = max(rel.pairs, key=lambda p: sorted(map(sorted, p)))
    return ApproximableRelation(rel.source, rel.target, rel.pairs - {drop})


def _constant_phi(g):
    """The poset-to-space functor applied to the constant-bottom map."""
    bottom = min(g.target.elements, key=g.target.index)
    const = MonotoneMap(g.source, g.target, {x: bottom for x in g.source.elements})
    return phi_morphism(const)


class Category:
    """The size-1..3 poset corpus: hom-sets, round trips, composition, laws."""

    COMPOSE_ITEMS = 30  # per round
    COMPOSE_PAIRS = 192  # seeded (g1, g2) pairs per item, each through its own triple

    def __init__(self, api, seed, tag=""):
        self.api = api
        self.seed = seed
        self.tag = tag
        self.corpus = [P for n in (1, 2, 3) for P in api.all_posets(n)]

    def round(self, r):
        # Round trips in seeded order, then the compose items, which need
        # the round trips' results, then the law items.  The law checks
        # fill the program's memos for every pair of posets, so a round
        # trip run after one of them costs less; run last, they leave the
        # round trips' times the same from seed to seed.
        rng = _rng("category", self.seed, r)
        posets = [_relabel(P, f"{self.tag}r{r}p{k}.") for k, P in enumerate(self.corpus)]
        omegas = {}  # (A, B) -> {monotone map: its induced relation}
        items = [self._round_trip(A, B, omegas) for A in posets for B in posets]
        rng.shuffle(items)
        # each pair of maps goes through its own seeded triple of size-3
        # posets, so that every compose item costs about the same: with
        # one triple per item, the seed's choice of triples moved p50
        large = [P for P in posets if len(P.elements) == 3]
        for _ in range(self.COMPOSE_ITEMS):
            picks = [(rng.choice(large), rng.choice(large), rng.choice(large),
                      rng.random(), rng.random()) for _ in range(self.COMPOSE_PAIRS)]
            items.append(self._compose(picks, omegas))
        items.extend(self._laws(posets))
        return items

    def _round_trip(self, A, B, omegas):
        api = self.api

        def run():
            i1, i2 = api.induce_cf_from_poset(A), api.induce_cf_from_poset(B)
            rels = api.approximable_relations_between(i1, i2)
            cs1, cs2 = api.cf_closed_sets(i1.space), api.cf_closed_sets(i2.space)
            scott = api.monotone_maps(cs1.poset, cs2.poset)
            images = [api.to_map(rel) for rel in rels]
            back = [api.from_map(f, i1.space, i2.space) for f in images]
            forth = [api.to_map(api.from_map(f, i1.space, i2.space)) for f in scott]
            maps = api.monotone_maps(A, B)
            oms = [api.omega_from_map(g) for g in maps]
            recovered = [api.map_from_omega(om) for om in oms]
            again = [api.omega_from_map(api.map_from_omega(rel)) for rel in rels]
            omegas[(A, B)] = dict(zip(maps, oms))
            return rels, scott, images, back, forth, maps, oms, recovered, again

        def check(out):
            rels, scott, images, back, forth, maps, oms, recovered, again = out
            return (len(rels) == len(scott) == len(maps)
                    and back == list(rels) and set(images) == set(scott)
                    and forth == list(scott)
                    and recovered == list(maps) and set(oms) == set(rels)
                    and again == list(rels))

        return Item("round_trip", run, check)

    def _compose(self, picks, omegas):
        api = self.api

        def run():
            out = []
            for A, B, C, u, v in picks:
                first, second = omegas[(A, B)], omegas[(B, C)]
                g1 = list(first)[int(u * len(first))]
                g2 = list(second)[int(v * len(second))]
                out.append((A, C, g1, g2, api.compose(second[g2], first[g1])))
            return out

        def check(out):
            # functoriality: the composite relation is the relation of the
            # composite map, which the (A, C) round trip computed
            return all(omegas[(A, C)][compose_maps(g2, g1)] == rel
                       for A, C, g1, g2, rel in out)

        return Item("compose", run, check)

    def _laws(self, posets):
        api = self.api
        pairs = [P for P in posets if len(P.elements) == 2]

        def induced():
            return [api.induce_cf_from_poset(P) for P in posets]

        def ok(rep):
            return rep.ok

        def caught_laws(rep):
            return not rep.ok and bool(rep.counterexamples)

        def caught_faithful(rep):
            return not rep.faithful and bool(rep.counterexamples)

        return [
            Item("laws", lambda: api.check_functor_laws("phi", posets), ok),
            Item("laws", lambda: api.check_functor_laws("psi", induced()), ok),
            Item("laws", lambda: api.check_equivalence_evidence("phi", posets), ok),
            Item("laws", lambda: api.check_equivalence_evidence("psi", induced()), ok),
            Item("fault", lambda: api.check_functor_laws(
                "phi", posets, morphism_map=_corrupted_phi), caught_laws),
            Item("fault", lambda: api.check_equivalence_evidence(
                "phi", pairs, morphism_map=_constant_phi), caught_faithful),
        ]


# --------------------------------------------------------------------------
# representations
# --------------------------------------------------------------------------

class Representations:
    """All size-5 posets plus a seeded size-6 sample through rep1-rep4."""

    SIZE6 = 30  # seeded sample of the 318 size-6 posets per round

    def __init__(self, api, seed, tag=""):
        self.api = api
        self.seed = seed
        self.tag = tag
        self.size5 = list(api.all_posets(5))
        # sorted by induced family size, which tracks an item's cost
        self.size6 = [P for _, _, P in sorted(
            (_family_size(P), i, P) for i, P in enumerate(api.all_posets(6)))]

    def round(self, r):
        # one draw from each of SIZE6 strata of the induced family size, so
        # every seed samples about the same work (a plain sample's
        # throughput spreads three times as much between seeds)
        rng = _rng("representations", self.seed, r)
        n, k = len(self.size6), self.SIZE6
        corpus = self.size5 + [self.size6[rng.randrange(j * n // k, (j + 1) * n // k)]
                               for j in range(k)]
        rng.shuffle(corpus)  # spread the size-6 posets over the round
        posets = [_relabel(P, f"{self.tag}r{r}p{k}.") for k, P in enumerate(corpus)]
        items = []
        for P in posets:
            items.extend((self._rep1(P), self._rep2(P), self._rep3(P), self._rep4(P),
                          self._self_iso(P)))
        items.append(self._way_below(posets))
        return items

    def _rep1(self, P):
        return Item("rep1", lambda: self.api.closed_sets_iso(P),
                    lambda iso: iso == _down_sets(P))

    def _rep2(self, P):
        api = self.api

        def run():
            return (api.fs_witness_from_domain(P, mode="plain"),
                    api.fs_witness_from_domain(P, mode="strong"))

        def check(out):
            plain, strong = out
            return (check_fs1(plain) and check_fs2(plain)
                    and check_fs1(strong) and check_fs2_strong(strong))

        return Item("rep2", run, check)

    def _rep3(self, P):
        api = self.api

        def run():
            bf = api.fs_witness_from_domain(P, mode="bf")
            cls = api.classify_space(bf.space, bf)
            cs = api.cf_closed_sets(bf.space)
            return cls, api.order_isomorphism(P, cs.poset)

        def check(out):
            cls, iso = out
            return cls.topological_fs and iso is not None

        return Item("rep3", run, check)

    def _rep4(self, P):
        api = self.api

        def run():
            sel = api.tb_witness_from_bf(P)
            tb = api.check_tb(sel)
            family = api.delta_family(sel)
            return tb, family, [api.is_scott_continuous_oracle(f) for _, f in family]

        def check(out):
            tb, family, continuous = out
            return tb.ok and bool(family) and all(continuous)

        return Item("rep4", run, check)

    def _self_iso(self, P):
        api = self.api

        def run():
            return api.space_self_iso(api.induce_cf_from_poset(P).space)

        def check(iso):
            return (iso.forward.is_validated and iso.backward.is_validated
                    and len(iso.double.origin.elements) == len(P.elements))

        return Item("self_iso", run, check)

    def _way_below(self, posets):
        api = self.api

        def run():
            return [(P, x, y, api.way_below(P, x, y), api.way_below_oracle(P, x, y))
                    for P in posets for x in P.elements for y in P.elements]

        def check(out):
            return all(fast == oracle == P.leq(x, y) for P, x, y, fast, oracle in out)

        return Item("way_below", run, check)


WORKLOADS = {
    "cf-dense": CFDense,
    "cf-wide": CFWide,
    "category": Category,
    "representations": Representations,
}
