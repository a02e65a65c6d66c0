"""Deterministic corpus generation for the test harnesses.

Posets are enumerated exhaustively up to isomorphism at small sizes by
growing the orders compatible with the natural labeling 0 < 1 < ...
(every isomorphism class has such an order) and keeping the first order
of each class, found by lookup among the relabelings of the orders kept
before it.  Random spaces beyond that are seeded; an absent seed means
only the exhaustive modes are available.
"""

from __future__ import annotations

import random

from .cfspace import CFSpace, validate_cf
from .config import resolve
from .errors import SizeCapExceeded
from .gaspace import GASpace
from .ordering import bits
from .poset import FinitePoset


def _pair_bits(n):
    """Per j, the enumeration-index bits of the strict pairs (i, j), i in d.

    ``table[j][d]`` is indexed by a mask d of elements below j.  The
    strict pair (i, j) sits at position b of the i-major list (0, 1),
    (0, 2), ..., (0, n-1), (1, 2), ..., and an order's enumeration index
    has bit b set when i < j holds in it.  The index is a one-to-one
    code of the order.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    position = {pair: b for b, pair in enumerate(pairs)}
    table = []
    for j in range(n):
        row = [0] * (1 << j)
        for d in range(1, 1 << j):
            low = d & -d
            row[d] = row[d ^ low] | 1 << position[low.bit_length() - 1, j]
        table.append(row)
    return table


def _natural_orders(n, pair_bits):
    """Enumeration indices of the orders compatible with 0 < 1 < ..., ascending.

    Element j goes in as a maximal element over a down-closed subset d
    of 0..j-1, so each such order arises once, from its restriction to
    0..j-1 and the strict down-set of j.  The down-closed subsets grow
    with the order: those of 0..j are those of 0..j-1, plus each of them
    that holds d with j added.
    """
    out = []

    def grow(j, index, ideals):
        if j == n:
            out.append(index)
            return
        row, bit = pair_bits[j], 1 << j
        for d in ideals:
            grow(j + 1, index | row[d], ideals + [i | bit for i in ideals if i & d == d])

    grow(0, 0, [0])
    out.sort()
    return out


def _up_masks(index, n):
    up = [1 << i for i in range(n)]
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            if index >> b & 1:
                up[i] |= 1 << j
            b += 1
    return up


def _mark_relabelings(up, pair_bits, seen):
    """Add the index of each relabeling of ``up`` along a linear extension.

    Placing element e at position k relabels it k.  Its strict down-set
    is placed already, so the relabeled down-set d of k is known and
    ``pair_bits[k][d]`` holds the pairs it adds to the index.
    """
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in bits(up[i] & ~(1 << i)):
            down[j] |= 1 << i
    position = [0] * n

    def walk(placed, k, index):
        if k == n:
            seen.add(index)
            return
        row = pair_bits[k]
        for e in range(n):
            if not placed >> e & 1 and not down[e] & ~placed:
                d = 0
                for x in bits(down[e]):
                    d |= 1 << position[x]
                position[e] = k
                walk(placed | 1 << e, k + 1, index | row[d])

    walk(0, 0, 0)


def _poset_from_up_masks(up, labels):
    pairs = [(labels[i], labels[j]) for i in range(len(up)) for j in bits(up[i])]
    return FinitePoset(labels, pairs)


def all_posets(n, config=None):
    """All posets with exactly n elements, one representative per class.

    Representatives are labeled "x0".."x{n-1}"; each is the order of its
    class that is compatible with x0 < x1 < ... and has the least
    enumeration index (see ``_pair_bits``), and they come out ascending
    by that index, so the corpus is stable across runs.

    Every finite poset has a linear extension, and relabeling along it
    gives an isomorphic order compatible with 0 < 1 < ...; the orders of
    one class compatible with it are exactly the relabelings of any one
    of them along its linear extensions.  The candidates are walked in
    ascending index, and each one kept marks all of its relabelings as
    seen.  A candidate not yet seen therefore has no earlier candidate
    in its class, so it is its class's least one, the representative;
    no isomorphism is searched and one poset is built per class.
    """
    cfg = resolve(config)
    if n == 0:
        return (FinitePoset((), ()),)
    if n > cfg.cap_oracle:
        raise SizeCapExceeded(f"exhaustive poset enumeration capped at {cfg.cap_oracle}")
    labels = tuple(f"x{i}" for i in range(n))
    pair_bits = _pair_bits(n)
    seen = set()
    out = []
    for index in _natural_orders(n, pair_bits):
        if index in seen:
            continue
        up = _up_masks(index, n)
        _mark_relabelings(up, pair_bits, seen)
        out.append(_poset_from_up_masks(up, labels))
    return tuple(out)


def posets_up_to(n, config=None):
    """Posets of every size from 1 to n, keyed by size."""
    return {k: all_posets(k, config) for k in range(1, n + 1)}


# known class counts (OEIS A000112), used by the generator's own tests as an oracle
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


# --------------------------------------------------------------------------
# random structures (always seeded)
# --------------------------------------------------------------------------

def _transitive_closure_pairs(n, pairs):
    succ = [0] * n
    for a, b in pairs:
        succ[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = succ[i]
            for j in bits(succ[i]):
                merged |= succ[j]
            if merged != succ[i]:
                succ[i] = merged
                changed = True
    return succ


def random_ga_space(rng, max_universe=8):
    """A random GA space; relation flavor varies to exercise both sides
    of the reflexivity/transitivity characterizations."""
    n = rng.randint(1, max_universe)
    atoms = tuple(f"u{i}" for i in range(n))
    density = rng.choice([0.15, 0.3, 0.5])
    pairs = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
    flavor = rng.choice(["raw", "reflexive", "transitive", "preorder"])
    if flavor in ("reflexive", "preorder"):
        pairs |= {(i, i) for i in range(n)}
    if flavor in ("transitive", "preorder"):
        succ = _transitive_closure_pairs(n, pairs)
        pairs = {(i, j) for i in range(n) for j in bits(succ[i])}
    if not pairs:
        pairs = {(rng.randrange(n), rng.randrange(n))}
    return GASpace(atoms, {(atoms[a], atoms[b]) for a, b in pairs})


def _random_family(rng, atoms, allow_empty_member=True):
    n = len(atoms)
    count = rng.randint(1, min(6, max(1, 2 * n)))
    family = []
    for _ in range(count):
        size = rng.randint(0 if allow_empty_member else 1, min(3, n))
        family.append(frozenset(rng.sample(atoms, size)))
    return family


def random_cf_space(rng, max_universe=7, attempts=60):
    """A random validated CF space.

    Tries transitive (not necessarily reflexive) relations first and
    falls back to a preorder, which always passes the admissibility
    check; the fallback keeps generation total without biasing the
    seed stream.
    """
    for _ in range(attempts):
        n = rng.randint(1, max_universe)
        atoms = tuple(f"u{i}" for i in range(n))
        density = rng.choice([0.2, 0.35, 0.5])
        pairs = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
        if not pairs:
            pairs = {(rng.randrange(n), rng.randrange(n))}
        succ = _transitive_closure_pairs(n, pairs)
        rel = {(atoms[i], atoms[j]) for i in range(n) for j in bits(succ[i])}
        if not rel:
            continue
        space = CFSpace(GASpace(atoms, rel), _random_family(rng, atoms))
        if validate_cf(space).ok:
            return space
    n = rng.randint(1, max_universe)
    atoms = tuple(f"u{i}" for i in range(n))
    pairs = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
    pairs |= {(i, i) for i in range(n)}
    succ = _transitive_closure_pairs(n, pairs)
    rel = {(atoms[i], atoms[j]) for i in range(n) for j in bits(succ[i])}
    space = CFSpace(GASpace(atoms, rel), _random_family(rng, atoms))
    report = validate_cf(space)
    assert report.ok  # preorder spaces always pass
    return space


def random_monotone_map(rng, P, Q, attempts=20):
    """A random monotone map, assembled along a linear extension.

    Dead ends (incomparable images below the next element) restart the
    assembly; the constant map is the always-valid fallback.
    """
    from .poset import MonotoneMap

    order = sorted(P.elements, key=lambda x: (len(P.down(x)), P.index(x)))
    for _ in range(attempts):
        graph = {}
        for x in order:
            below = [graph[y] for y in order if y in graph and P.leq(y, x)]
            candidates = [c for c in Q.elements if all(Q.leq(b, c) for b in below)]
            if not candidates:
                graph = None
                break
            graph[x] = rng.choice(candidates)
        if graph is not None:
            return MonotoneMap(P, Q, graph)
    c = rng.choice(Q.elements)
    return MonotoneMap(P, Q, {x: c for x in P.elements})


def seeded_rng(seed):
    if seed is None:
        raise ValueError("randomized generation requires an explicit seed")
    return random.Random(seed)
