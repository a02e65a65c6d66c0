"""Finite partial orders and the order-theoretic toolkit built on them.

Everything downstream (approximation spaces, closed-set domains, the
category checks) reduces to questions about finite posets, so this
module carries the definitional machinery: directedness, suprema,
the way-below relation, compactness, continuity/algebraicity checks,
Scott continuity, finitely separating maps, approximate identities,
kernel operators and isomorphism search.

Two evaluation modes exist side by side.  Fast mode uses the finite
collapse (way-below coincides with the order, Scott continuity with
monotonicity).  Oracle mode evaluates the definitions literally by
enumerating directed subsets; tests assert the two agree.
"""

from __future__ import annotations

import itertools

from .config import resolve
from .errors import (
    ElementNotInPoset,
    EmptyFamily,
    InvalidMap,
    InvalidPoset,
    NotACover,
    NotDirected,
    NotMonotone,
    PreconditionViolated,
    PostconditionFailed,
    SizeCapExceeded,
)
from .ordering import bits, is_directed_under, unmask


class FinitePoset:
    """A finite poset given by its full order relation.

    Elements keep their construction order and every search in the
    library breaks ties by that order, so results reproduce run to
    run.  The relation must be handed over in full (reflexive and
    transitive); use :meth:`from_covers` to expand a cover list
    explicitly instead of having malformed input repaired silently.
    """

    __slots__ = ("elements", "_index", "leq_pairs", "_down_masks", "_up_masks",
                 "_directed", "_induced", "_hash")

    def __init__(self, elements, leq):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InvalidPoset("duplicate elements in carrier")
        index = {x: i for i, x in enumerate(elems)}
        pairs = set()
        for pair in leq:
            a, b = pair
            if a not in index or b not in index:
                raise InvalidPoset(f"pair ({a!r}, {b!r}) mentions unknown elements")
            pairs.add((a, b))
        for x in elems:
            if (x, x) not in pairs:
                raise InvalidPoset(f"relation is not reflexive at {x!r}")
        down = [0] * len(elems)
        up = [0] * len(elems)
        for a, b in pairs:
            if a != b and (b, a) in pairs:
                raise InvalidPoset(f"antisymmetry fails on {a!r}, {b!r}")
            down[index[b]] |= 1 << index[a]
            up[index[a]] |= 1 << index[b]
        for a, b in pairs:
            if down[index[a]] & ~down[index[b]]:
                raise InvalidPoset(f"transitivity fails below ({a!r}, {b!r})")
        self.elements = elems
        self._index = index
        self.leq_pairs = frozenset(pairs)
        self._down_masks = tuple(down)
        self._up_masks = tuple(up)
        self._directed = None
        self._induced = None  # filled by represent.induce_cf_from_poset
        self._hash = None

    @classmethod
    def from_covers(cls, elements, covers):
        """Build a poset from cover pairs via reflexive-transitive closure.

        This is the one place the library completes a relation for the
        caller; cycles in the cover list are rejected.
        """
        elems = tuple(elements)
        index = {x: i for i, x in enumerate(elems)}
        n = len(elems)
        up = [1 << i for i in range(n)]
        for a, b in covers:
            if a not in index or b not in index:
                raise InvalidPoset(f"cover ({a!r}, {b!r}) mentions unknown elements")
            up[index[a]] |= 1 << index[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                merged = up[i]
                for j in bits(up[i]):
                    merged |= up[j]
                if merged != up[i]:
                    up[i] = merged
                    changed = True
        pairs = [(elems[i], elems[j]) for i in range(n) for j in bits(up[i])]
        return cls(elems, pairs)

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return (frozenset(self.elements) == frozenset(other.elements)
                and self.leq_pairs == other.leq_pairs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.elements), self.leq_pairs))
        return self._hash

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements, {len(self.leq_pairs)} pairs)"

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ElementNotInPoset(f"{x!r} is not in the poset") from None

    def leq(self, x, y):
        return (self._up_masks[self.index(x)] >> self.index(y)) & 1 == 1

    def down(self, x):
        """Principal ideal of ``x``."""
        return unmask(self._down_masks[self.index(x)], self.elements)

    def up(self, x):
        """Principal filter of ``x``."""
        return unmask(self._up_masks[self.index(x)], self.elements)

    def covers(self):
        """Cover pairs (a, b): a < b with nothing strictly between."""
        out = []
        for b in self.elements:
            bi = self.index(b)
            strict = self._down_masks[bi] & ~(1 << bi)
            for ai in bits(strict):
                between = strict & self._up_masks[ai] & ~(1 << ai)
                if between == 0:
                    out.append((self.elements[ai], b))
        return tuple(out)

    def mask(self, S):
        m = 0
        for x in S:
            m |= 1 << self.index(x)
        return m

    def subset(self, mask):
        return unmask(mask, self.elements)

    # -- directed subsets --------------------------------------------------

    def directed_masks(self, config=None):
        """All nonempty directed subsets, as (mask, supremum index) pairs.

        The enumeration is cached; it is the oracle backing the literal
        way-below and Scott-continuity checks.
        """
        if self._directed is not None:
            return self._directed
        cfg = resolve(config)
        n = len(self.elements)
        if n > cfg.cap_oracle:
            raise SizeCapExceeded(
                f"directed-subset enumeration needs |P| <= {cfg.cap_oracle}, got {n}")
        up = self._up_masks
        out = []
        for mask in range(1, 1 << n):
            members = list(bits(mask))
            ok = True
            for ai in range(len(members)):
                i = members[ai]
                for j in members[ai:]:
                    if up[i] & up[j] & mask == 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((mask, self._sup_index_of_mask(mask)))
        self._directed = tuple(out)
        return self._directed

    def _sup_index_of_mask(self, mask):
        """Index of the least upper bound of the masked subset, or None."""
        ub = (1 << len(self.elements)) - 1
        for i in bits(mask):
            ub &= self._up_masks[i]
        for i in bits(ub):
            if ub & ~self._up_masks[i] == 0:
                return i
        return None


# --------------------------------------------------------------------------
# set-level operations
# --------------------------------------------------------------------------

def _require_subset(P, S):
    for x in S:
        if x not in P:
            raise ElementNotInPoset(f"{x!r} is not in the poset")


def is_directed(P, S):
    """Pairwise directedness: nonempty and every pair bounded inside S.

    On finite sets this is equivalent to the every-finite-subset form;
    ``is_directed_definitional`` keeps the literal form for comparison.
    """
    _require_subset(P, S)
    return is_directed_under(S, P.leq)


def is_directed_definitional(P, S):
    """Literal definition: every finite subset of S has an upper bound in S."""
    _require_subset(P, S)
    members = list(S)
    if not members:
        return False
    smask = P.mask(members)
    full = (1 << len(P.elements)) - 1
    for k in range(len(members) + 1):
        for combo in itertools.combinations(members, k):
            ub = full
            for x in combo:
                ub &= P._up_masks[P.index(x)]
            if ub & smask == 0:
                return False
    return True


def supremum(P, S):
    """Least upper bound of S, or None when it does not exist."""
    i = P._sup_index_of_mask(P.mask(S))
    return None if i is None else P.elements[i]


def way_below(P, x, y, oracle=False, config=None):
    """x is way below y.

    Fast mode uses the finite collapse (way-below equals the order);
    oracle mode (``oracle`` or ``config.oracle``) quantifies over every
    directed subset whose supremum dominates y, exactly as defined.
    """
    xi, yi = P.index(x), P.index(y)
    if not (oracle or resolve(config).oracle):
        return (P._up_masks[xi] >> yi) & 1 == 1
    upx = P._up_masks[xi]
    for dmask, sup_i in P.directed_masks(config):
        if sup_i is None:
            continue
        if (P._up_masks[yi] >> sup_i) & 1:  # sup D >= y
            if dmask & upx == 0:
                return False
    return True


def way_down(P, x, oracle=False, config=None):
    """The set of elements way below x."""
    return frozenset(y for y in P.elements if way_below(P, y, x, oracle, config))


def compacts(P, oracle=False, config=None):
    """Elements way below themselves; computed, never assumed."""
    return frozenset(x for x in P.elements if way_below(P, x, x, oracle, config))


def is_continuous_domain(P, oracle=True, config=None):
    """Literal check: dcpo plus each element the directed sup of its way-below set."""
    if len(P.elements) == 0:
        return True
    for dmask, sup_i in P.directed_masks(config):
        if sup_i is None:
            return False
    for x in P.elements:
        wb = way_down(P, x, oracle, config)
        if not is_directed(P, wb):
            return False
        if supremum(P, wb) != x:
            return False
    return True


def is_algebraic_domain(P, oracle=True, config=None):
    """Literal check: dcpo plus each element the directed sup of compacts below it."""
    if len(P.elements) == 0:
        return True
    for dmask, sup_i in P.directed_masks(config):
        if sup_i is None:
            return False
    K = compacts(P, oracle, config)
    for x in P.elements:
        S = P.down(x) & K
        if not is_directed(P, S):
            return False
        if supremum(P, S) != x:
            return False
    return True


def interpolate(P, x, z, oracle=False, config=None):
    """Some y with x way-below y way-below z; first in enumeration order."""
    if not way_below(P, x, z, oracle, config):
        raise PreconditionViolated(f"{x!r} is not way below {z!r}")
    for y in P.elements:
        if way_below(P, x, y, oracle, config) and way_below(P, y, z, oracle, config):
            return y
    return None


def find_cofinal_part(P, D, parts):
    """First part that is cofinal in D with the same supremum.

    D must be directed and the parts must cover it exactly.
    """
    _require_subset(P, D)
    D = frozenset(D)
    if not is_directed(P, D):
        raise NotDirected("D is not a directed subset")
    union = frozenset().union(*[frozenset(p) for p in parts]) if parts else frozenset()
    if union != D:
        raise NotACover("the parts do not cover D exactly")
    sup_d = supremum(P, D)
    for j, B in enumerate(parts):
        B = frozenset(B)
        if not B:
            continue
        bmask = P.mask(B)
        cofinal = all(P._up_masks[P.index(d)] & bmask for d in D)
        if cofinal and supremum(P, B) == sup_d:
            return j
    raise PostconditionFailed("no cofinal part found for a genuine cover")


# --------------------------------------------------------------------------
# monotone maps
# --------------------------------------------------------------------------

class MonotoneMap:
    """A total, order-preserving map between finite posets.

    The constructor enforces monotonicity; on finite posets that is
    exactly Scott continuity, which ``is_scott_continuous`` re-verifies
    in its literal directed-supremum form.
    """

    __slots__ = ("source", "target", "graph", "_hash")

    def __init__(self, source, target, graph):
        g = dict(graph)
        if set(g) != set(source.elements):
            raise InvalidMap("graph is not total on the source carrier")
        for x, y in g.items():
            if y not in target:
                raise InvalidMap(f"image {y!r} of {x!r} is not in the target")
        up, index = target._up_masks, target._index
        for a, b in source.leq_pairs:
            if not (up[index[g[a]]] >> index[g[b]]) & 1:
                raise NotMonotone(f"map breaks order on {a!r} <= {b!r}")
        self._fill(source, target, g)

    @classmethod
    def _from_graph(cls, source, target, graph):
        """The map with the dict ``graph``, unchecked: for builders whose
        graph is total and monotone by construction."""
        f = cls.__new__(cls)
        f._fill(source, target, graph)
        return f

    def _fill(self, source, target, graph):
        self.source = source
        self.target = target
        self.graph = graph
        self._hash = None

    def __call__(self, x):
        try:
            return self.graph[x]
        except KeyError:
            raise ElementNotInPoset(f"{x!r} is not in the source poset") from None

    def __eq__(self, other):
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.graph == other.graph)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target,
                               frozenset(self.graph.items())))
        return self._hash

    def __repr__(self):
        return f"MonotoneMap({self.graph!r})"

    def is_endo(self):
        return self.source == self.target

    def image(self):
        return frozenset(self.graph.values())


def identity_map(P):
    return MonotoneMap._from_graph(P, P, {x: x for x in P.elements})


def compose_maps(g, f):
    """g after f; a composite of monotone maps is monotone."""
    if f.target != g.source:
        raise PreconditionViolated("maps do not compose: target/source mismatch")
    fg, gg = f.graph, g.graph
    return MonotoneMap._from_graph(f.source, g.target,
                                   {x: gg[fg[x]] for x in f.source.elements})


def pointwise_leq(f, g):
    if f.source != g.source or f.target != g.target:
        raise PreconditionViolated("maps live between different posets")
    up, index = f.target._up_masks, f.target._index
    fg, gg = f.graph, g.graph
    return all((up[index[fg[x]]] >> index[gg[x]]) & 1 for x in f.source.elements)


def pointwise_sup(family):
    """Pointwise least upper bound of a family of maps, or None.

    A pointwise supremum of monotone maps is monotone: each member's
    value at x lies below its value at y >= x, hence below the sup there.
    """
    family = list(family)
    if not family:
        raise EmptyFamily("cannot take the supremum of no maps")
    first = family[0]
    if any(f.source != first.source or f.target != first.target for f in family):
        raise PreconditionViolated("maps live between different posets")
    graph = {}
    for x in first.source.elements:
        s = supremum(first.target, {f(x) for f in family})
        if s is None:
            return None
        graph[x] = s
    return MonotoneMap._from_graph(first.source, first.target, graph)


def is_scott_continuous(f, oracle=False, config=None):
    """Preservation of directed suprema, literally in oracle mode.

    Oracle mode is on when ``oracle`` or ``config.oracle`` is set.
    """
    if not (oracle or resolve(config).oracle):
        up, index, g = f.target._up_masks, f.target._index, f.graph
        return all((up[index[g[a]]] >> index[g[b]]) & 1 for a, b in f.source.leq_pairs)
    for dmask, sup_i in f.source.directed_masks(config):
        if sup_i is None:
            continue
        D = f.source.subset(dmask)
        img_sup = supremum(f.target, {f(d) for d in D})
        if img_sup is None or img_sup != f(f.source.elements[sup_i]):
            return False
    return True


def monotone_maps(P, Q, config=None):
    """Every monotone map from P to Q, in deterministic order.

    Backtracks along a linear extension of P so each assignment only
    needs to respect images already fixed below it.
    """
    cfg = resolve(config)
    order = sorted(P.elements, key=lambda x: (len(P.down(x)), P.index(x)))
    out = []

    def extend(i, partial):
        if len(out) > cfg.cap_hom:
            raise SizeCapExceeded(f"hom-set exceeds cap_hom={cfg.cap_hom}")
        if i == len(order):
            # each image was chosen above the images of the elements below
            out.append(MonotoneMap._from_graph(P, Q, dict(partial)))
            return
        x = order[i]
        below = [y for y in order[:i] if P.leq(y, x)]
        for c in Q.elements:
            if all(Q.leq(partial[y], c) for y in below):
                partial[x] = c
                extend(i + 1, partial)
                del partial[x]

    extend(0, {})
    return tuple(out)


# --------------------------------------------------------------------------
# separating maps, approximate identities, kernel operators
# --------------------------------------------------------------------------

def _separation_candidates(delta):
    """Per element x, the interval {m : delta(x) <= m <= x}."""
    P = delta.source
    cands = {}
    for x in P.elements:
        lo = P.index(delta(x))
        hi = P.index(x)
        cands[x] = P._up_masks[lo] & P._down_masks[hi]
    return cands


def is_finitely_separating(delta):
    """A witness set M with delta(x) <= m <= x solvable for every x, or None.

    The witness is shrunk by greedy cover in enumeration order; the
    contract only promises validity, not a minimum-size set.
    """
    if not delta.is_endo():
        raise PreconditionViolated("finitely separating is defined for endo-maps")
    P = delta.source
    cands = _separation_candidates(delta)
    if any(m == 0 for m in cands.values()):
        return None
    uncovered = set(P.elements)
    witness = []
    while uncovered:
        best, best_hits = None, -1
        for i, m in enumerate(P.elements):
            hits = sum(1 for x in uncovered if (cands[x] >> i) & 1)
            if hits > best_hits:
                best, best_hits = m, hits
        witness.append(best)
        bi = P.index(best)
        uncovered = {x for x in uncovered if not (cands[x] >> bi) & 1}
    return frozenset(witness)


def is_separating_witness(delta, M):
    """Check a specific witness set rather than searching for one."""
    cands = _separation_candidates(delta)
    mmask = delta.source.mask(M)
    return all(c & mmask for c in cands.values())


def is_approximate_identity(P, family):
    """Directed family of endo-maps whose pointwise supremum is the identity."""
    family = list(family)
    if not family:
        raise EmptyFamily("an approximate identity needs at least one map")
    for f in family:
        if f.source != P or f.target != P:
            raise PreconditionViolated("family members must be endo-maps on P")
    if not is_directed_under(family, pointwise_leq):
        return False
    sup = pointwise_sup(family)
    return sup is not None and sup == identity_map(P)


def is_kernel_operator(k):
    """Monotone, deflationary, idempotent endo-map."""
    if not k.is_endo():
        return False
    P = k.source
    return (all(P.leq(k(x), x) for x in P.elements)
            and all(k(k(x)) == k(x) for x in P.elements))


def verify_fs_domain_witness(P, family):
    """Approximate identity whose members are all finitely separating."""
    family = list(family)
    if not family:
        raise EmptyFamily("witness family is empty")
    if not is_approximate_identity(P, family):
        return False
    return all(is_finitely_separating(f) is not None for f in family)


def verify_bf_domain_witness(P, family, kernel=True, config=None):
    """Approximate identity of finite-range maps.

    With ``kernel=True`` the members must additionally be kernel
    operators; with ``kernel=False`` algebraicity of P stands in, the
    two forms being interchangeable on algebraic domains.
    """
    family = list(family)
    if not family:
        raise EmptyFamily("witness family is empty")
    if not is_approximate_identity(P, family):
        return False
    if kernel:
        return all(is_kernel_operator(f) for f in family)
    return is_algebraic_domain(P, oracle=False, config=config)


# --------------------------------------------------------------------------
# isomorphism search
# --------------------------------------------------------------------------

def _refined_colors(P):
    base = {x: (len(P.down(x)), len(P.up(x))) for x in P.elements}
    colors = {}
    for x in P.elements:
        below = tuple(sorted(base[y] for y in P.down(x)))
        above = tuple(sorted(base[y] for y in P.up(x)))
        colors[x] = (base[x], below, above)
    return colors


def order_isomorphism(P, Q, config=None):
    """An order isomorphism P -> Q as a dict, or None.

    Backtracking with color-refinement pruning; the first assignment in
    enumeration order wins, and the result is re-verified bijective and
    bi-monotone before being returned.
    """
    cfg = resolve(config)
    if len(P.elements) != len(Q.elements):
        return None
    if len(P.elements) > cfg.cap_iso:
        raise SizeCapExceeded(
            f"isomorphism search needs |P| <= {cfg.cap_iso}, got {len(P.elements)}")
    pc = _refined_colors(P)
    qc = _refined_colors(Q)
    if sorted(pc.values()) != sorted(qc.values()):
        return None
    order = sorted(P.elements, key=lambda x: (len(P.down(x)), P.index(x)))
    used = set()
    assignment = {}

    def extend(i):
        if i == len(order):
            return True
        x = order[i]
        for y in Q.elements:
            if y in used or qc[y] != pc[x]:
                continue
            ok = True
            for a, fa in assignment.items():
                if P.leq(a, x) != Q.leq(fa, y) or P.leq(x, a) != Q.leq(y, fa):
                    ok = False
                    break
            if ok:
                assignment[x] = y
                used.add(y)
                if extend(i + 1):
                    return True
                del assignment[x]
                used.remove(y)
        return False

    if not extend(0):
        return None
    iso = dict(assignment)
    if len(set(iso.values())) != len(Q.elements):
        raise PostconditionFailed("isomorphism candidate is not a bijection")
    for a in P.elements:
        for b in P.elements:
            if P.leq(a, b) != Q.leq(iso[a], iso[b]):
                raise PostconditionFailed("isomorphism candidate is not bi-monotone")
    return iso
