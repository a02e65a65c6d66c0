"""Canonical enumeration helpers.

All deterministic tie-breaking in the library flows through these
functions: elements carry the enumeration order they were constructed
with, subsets are ranked by (size, lexicographic index tuple), and the
bitmask helpers let hot loops run on ints while the public API speaks
frozensets.
"""

from itertools import combinations


def bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def union_of(masks, sel):
    """The union of ``masks[j]`` over the set bits j of ``sel``."""
    out = 0
    for j in bits(sel):
        out |= masks[j]
    return out


def is_directed_under(items, leq):
    """Nonempty with every two items bounded among ``items``, for a preorder
    ``leq``.  A finite directed family bounds all its items at once, so one
    pass keeps the last item not below the candidate, and a second checks
    it: at most ``2 * len(items)`` calls of ``leq``."""
    items = list(items)
    if not items:
        return False
    top = items[0]
    for x in items:
        if not leq(x, top):
            top = x
    return all(leq(x, top) for x in items)


def unmask(mask, universe):
    return frozenset(universe[i] for i in bits(mask))


def set_key(s, index):
    """Canonical sort key of a subset: size first, then index tuple."""
    idx = sorted(index[x] for x in s)
    return (len(idx), tuple(idx))


def iter_subset_masks(n):
    """All subsets of ``range(n)`` as masks, by (size, lexicographic)."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            m = 0
            for i in combo:
                m |= 1 << i
            yield m


def iter_submasks(mask):
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
