"""The poset corpus against its literal oracle and the known class counts."""

import pytest

import roughdom.corpus as corpus
from roughdom.config import RunConfig
from roughdom.corpus import POSET_COUNTS, all_posets
from roughdom.errors import SizeCapExceeded
from roughdom.ordering import bits
from roughdom.poset import FinitePoset, order_isomorphism


def _invariant(P):
    profile = sorted((len(P.down(x)), len(P.up(x))) for x in P.elements)
    return (len(P.elements), len(P.leq_pairs), tuple(profile))


def search_oracle(n):
    """The corpus by definition, deduplicated by isomorphism search.

    Walks every relation compatible with 0 < 1 < ... by its enumeration
    index (bit b for the strict pair at position b of the i-major pair
    list), keeps the transitive ones, and keeps each whose poset is
    isomorphic to none kept before it.
    """
    labels = tuple(f"x{i}" for i in range(n))
    strict_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    buckets = {}
    out = []
    for choice in range(1 << len(strict_pairs)):
        up = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(strict_pairs):
            if choice >> b & 1:
                up[i] |= 1 << j
        if any(up[j] & ~up[i] for i in range(n) for j in bits(up[i])):
            continue
        P = FinitePoset(labels, [(labels[i], labels[j])
                                 for i in range(n) for j in bits(up[i])])
        known = buckets.setdefault(_invariant(P), [])
        if any(order_isomorphism(P, Q) is not None for Q in known):
            continue
        known.append(P)
        out.append(P)
    return tuple(out)


@pytest.mark.parametrize("n", range(7))
def test_all_posets_equals_the_search_oracle(n):
    got = [(P.elements, P.leq_pairs) for P in all_posets(n)]
    assert got == [(P.elements, P.leq_pairs) for P in search_oracle(n)]


@pytest.mark.parametrize("n", sorted(POSET_COUNTS))
def test_class_counts_match_the_known_counts(n):
    assert len(all_posets(n)) == POSET_COUNTS[n]


def test_one_poset_is_built_per_class(monkeypatch):
    built = []
    monkeypatch.setattr(corpus, "FinitePoset",
                        lambda *args: built.append(args) or FinitePoset(*args))
    assert len(all_posets(5)) == len(built) == POSET_COUNTS[5]


def test_enumeration_is_capped_by_cap_oracle():
    assert len(all_posets(3, RunConfig(cap_oracle=3))) == 5
    with pytest.raises(SizeCapExceeded):
        all_posets(4, RunConfig(cap_oracle=3))
