"""Generalized approximation spaces and the rough-set operators.

A space is a nonempty universe with a nonempty binary relation; the
upper operator collects points whose successor set meets a subset, the
lower operator those whose successor set is contained in it.  The two
are De Morgan duals, which the test suite exercises exhaustively on
small universes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ElementNotInUniverse, InvalidSpace
from .ordering import bits, unmask


class GASpace:
    """Universe with an arbitrary nonempty binary relation on it."""

    __slots__ = ("universe", "relation", "_index", "_succ_masks", "_pred_masks",
                 "_hash")

    def __init__(self, universe, relation):
        univ = tuple(universe)
        if not univ:
            raise InvalidSpace("universe must be nonempty")
        if len(set(univ)) != len(univ):
            raise InvalidSpace("duplicate atoms in universe")
        index = {x: i for i, x in enumerate(univ)}
        pairs = set()
        for a, b in relation:
            if a not in index or b not in index:
                raise InvalidSpace(f"relation pair ({a!r}, {b!r}) leaves the universe")
            pairs.add((a, b))
        if not pairs:
            raise InvalidSpace("relation must be nonempty")
        succ = [0] * len(univ)
        pred = [0] * len(univ)
        for a, b in pairs:
            succ[index[a]] |= 1 << index[b]
            pred[index[b]] |= 1 << index[a]
        self.universe = univ
        self.relation = frozenset(pairs)
        self._index = index
        self._succ_masks = tuple(succ)
        self._pred_masks = tuple(pred)
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, GASpace):
            return NotImplemented
        return (frozenset(self.universe) == frozenset(other.universe)
                and self.relation == other.relation)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.universe), self.relation))
        return self._hash

    def __repr__(self):
        return f"GASpace({len(self.universe)} atoms, {len(self.relation)} pairs)"

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ElementNotInUniverse(f"{x!r} is not in the universe") from None

    def mask(self, A):
        m = 0
        for x in A:
            m |= 1 << self.index(x)
        return m

    def subset(self, mask):
        return unmask(mask, self.universe)

    # -- successor / predecessor views --------------------------------------

    def successors(self, x):
        return unmask(self._succ_masks[self.index(x)], self.universe)

    def predecessors(self, x):
        return unmask(self._pred_masks[self.index(x)], self.universe)

    # -- approximation operators (mask level, used by the hot paths) --------

    def upper_mask(self, amask):
        # x has a successor in A exactly when x is a predecessor of an atom
        # of A, so the upper mask is the OR of those atoms' predecessor masks
        out = 0
        for i in bits(amask):
            out |= self._pred_masks[i]
        return out

    def lower_mask(self, amask):
        out = 0
        for i, s in enumerate(self._succ_masks):
            if s & ~amask == 0:
                out |= 1 << i
        return out


def successors(space, x):
    return space.successors(x)


def predecessors(space, x):
    return space.predecessors(x)


def upper_approx(space, A):
    """Points whose successor set meets A."""
    return space.subset(space.upper_mask(space.mask(A)))


def lower_approx(space, A):
    """Points whose successor set is contained in A."""
    return space.subset(space.lower_mask(space.mask(A)))


@dataclass(frozen=True)
class RelationProperties:
    reflexive: bool
    transitive: bool
    preorder: bool


def relation_properties(space):
    n = len(space.universe)
    reflexive = all((space._succ_masks[i] >> i) & 1 for i in range(n))
    transitive = True
    for i in range(n):
        si = space._succ_masks[i]
        for j in bits(si):
            if space._succ_masks[j] & ~si:
                transitive = False
                break
        if not transitive:
            break
    return RelationProperties(reflexive, transitive, reflexive and transitive)
