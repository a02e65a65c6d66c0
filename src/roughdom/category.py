"""Functor-law checks and finite equivalence evidence.

Two functors are exercised at desk scale: phi sends posets to their
induced spaces and Scott-continuous maps to induced relations, psi
sends induced spaces to their closed-set posets and relations to
induced maps.  Each functor is described once, as a source and a
target ``ConcreteCategoryInstance`` (objects, hom-sets, identities,
composition) plus a morphism part; one law checker and one equivalence
checker serve both.  The reports here are evidence over the supplied
finite objects, not proofs: the language of the API reflects that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

from .config import resolve
from .cfspace import absorption_masks, cf_closed_sets, is_topological_cf
from .errors import SizeCapExceeded
from .poset import monotone_maps, identity_map, compose_maps, order_isomorphism
from .relation import (
    ApproximableRelation,
    compose,
    from_map,
    identity_relation,
    to_map,
    validate_approximable,
)
from .represent import (
    induce_cf_from_poset,
    map_from_omega,
    omega_from_map,
    space_self_iso,
)
from .witness import classify_space, default_witness, search_tb_selector
from .ordering import bits, iter_subset_masks, union_of


@dataclass(frozen=True)
class ConcreteCategoryInstance:
    """A finite slice of a category: objects, hom-sets, identities, composition."""

    objects: tuple
    hom: object = field(compare=False)  # callable (A, B) -> tuple of morphisms
    identity: object = field(compare=False)  # callable A -> identity morphism
    compose: object = field(compare=False)  # callable (g, h) -> g after h


def poset_category(posets, config=None):
    """Posets with monotone (= Scott-continuous) maps, enumerated."""
    cfg = resolve(config)
    return ConcreteCategoryInstance(
        objects=tuple(posets),
        hom=lambda A, B: monotone_maps(A, B, cfg),
        identity=identity_map,
        compose=compose_maps)


def space_category(induced, config=None):
    """Induced spaces with validated relations, enumerated."""
    cfg = resolve(config)
    return ConcreteCategoryInstance(
        objects=tuple(induced),
        hom=lambda A, B: approximable_relations_between(A, B, cfg),
        identity=lambda ind: identity_relation(ind.space),
        compose=compose)


def phi_morphism(g, config=None):
    """Induced relation of a Scott-continuous map."""
    return omega_from_map(g, config)


def psi_morphism(rel, config=None):
    """Induced Scott-continuous map of a validated relation."""
    return to_map(rel, config)


# --------------------------------------------------------------------------
# morphism enumeration
# --------------------------------------------------------------------------

def approximable_relations_between(ind1, ind2, config=None):
    """Every validated relation between two induced spaces.

    Axioms (1), (3) and (5) each read one row, the targets of one source
    member: it is nonempty, holds every G_j2 inside upper(G_j) with each
    G_j, and bounds any two of its members inside itself.  Being inside
    upper is transitive, so such a finite row has a greatest member t,
    below itself, and is the set of members below t; those sets are the
    candidate rows.  The search gives the source members candidate rows
    in family order, pruned by axiom (2) against the rows already given,
    and runs each full assignment through the validator.  Relations come
    out ascending by their cells (i, j), row by row, j first.
    """
    cfg = resolve(config)
    n1, n2 = len(ind1.origin.elements), len(ind2.origin.elements)
    if n1 * n2 > cfg.cap_cells:
        raise SizeCapExceeded(
            f"relation enumeration needs n1*n2 <= cap_cells={cfg.cap_cells}")
    if max(len(ind1.space.family), len(ind2.space.family)) > cfg.cap_family:
        raise SizeCapExceeded(f"family sizes exceed cap_family={cfg.cap_family}")
    s1, s2 = ind1.space, ind2.space
    up1, down1 = absorption_masks(s1)
    down2 = absorption_masks(s2)[1]
    m = len(s2.family)
    candidates = sorted({d for t, d in enumerate(down2) if d >> t & 1},
                        key=lambda r: [r >> j & 1 for j in range(m)])
    n = len(s1.family)
    rows = [0] * n
    out = []

    def extend(i):
        if i == n:
            rel = ApproximableRelation._from_rows(s1, s2, rows)
            if validate_approximable(rel).ok:
                out.append(rel)
                if len(out) > cfg.cap_hom:
                    raise SizeCapExceeded(
                        f"relation hom-set exceeds cap_hom={cfg.cap_hom}")
            return
        # axiom (2): rows[i] inside rows[k] when F_i is inside upper(F_k),
        # and rows[k] inside rows[i] when F_k is inside upper(F_i)
        given = (1 << i) - 1
        ceiling = -1
        for k in bits(up1[i] & given):
            ceiling &= rows[k]
        floor = union_of(rows, down1[i] & given)
        for row in candidates:
            if row & ~ceiling == 0 and floor & ~row == 0:
                rows[i] = row
                extend(i + 1)

    extend(0)
    return tuple(out)


def brute_force_relations(space1, space2, config=None):
    """All validated relations by raw powerset scan; only for tiny families.

    The literal oracle for the row-wise search above.
    """
    cfg = resolve(config)
    cells = [(F, G) for F in space1.family for G in space2.family]
    if len(cells) > cfg.cap_cells:
        raise SizeCapExceeded(
            f"powerset relation scan needs at most cap_cells={cfg.cap_cells} cells")
    out = []
    for mask in iter_subset_masks(len(cells)):
        pairs = [cells[i] for i in range(len(cells)) if (mask >> i) & 1]
        rel = ApproximableRelation(space1, space2, pairs)
        if validate_approximable(rel).ok:
            out.append(rel)
    return tuple(out)


# --------------------------------------------------------------------------
# functor laws
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctorLawReport:
    identity_ok: bool
    composition_ok: bool
    counterexamples: tuple = ()
    objects_checked: int = 0
    compositions_checked: int = 0

    @property
    def ok(self):
        return self.identity_ok and self.composition_ok


def _functor(functor, objects, cfg):
    """Source and target instances; ``tgt.objects[i]`` is the object part
    of the functor applied to ``src.objects[i]``."""
    if functor == "phi":
        src = poset_category(objects, cfg)
        return src, space_category(
            [induce_cf_from_poset(L, cfg) for L in src.objects], cfg)
    if functor == "psi":
        src = space_category(objects, cfg)
        return src, poset_category(
            [cf_closed_sets(ind.space).poset for ind in src.objects], cfg)
    raise ValueError(f"unknown functor {functor!r}")


_MORPHISM_PART = {"phi": phi_morphism, "psi": psi_morphism}


def check_functor_laws(functor, objects, morphism_map=None, config=None):
    """Identity and composition laws over all enumerated morphism pairs.

    ``functor`` is "phi" (posets to spaces) or "psi" (induced spaces to
    closed-set posets).  ``morphism_map`` overrides the morphism part,
    which is how the fault-injection tests corrupt a functor.  Every
    source composite g o h is built and looked up in the enumerated
    hom(A, C): a composite missing there is a counterexample, since the
    source category is closed under composition.  The member found,
    already checked when its hom-set was enumerated, is what the
    morphism part receives, and F(g o h) is compared with F(g) o F(h).
    The morphism part is called once per distinct morphism, from a memo
    keyed by the morphism, so ``morphism_map`` must be a function of it.
    """
    cfg = resolve(config)
    src, tgt = _functor(functor, objects, cfg)
    fmap = functools.cache(morphism_map or _MORPHISM_PART[functor])
    counterexamples = []
    identity_ok = True
    for A, FA in zip(src.objects, tgt.objects):
        if fmap(src.identity(A)) != tgt.identity(FA):
            identity_ok = False
            counterexamples.append(("identity", A))
    hom = [[src.hom(A, B) for B in src.objects] for A in src.objects]
    members = [[{m: m for m in ms} for ms in row] for row in hom]
    compositions = 0
    composition_ok = True
    for a, b, c in product(range(len(hom)), repeat=3):
        for h in hom[a][b]:
            fh = fmap(h)
            for g in hom[b][c]:
                compositions += 1
                gh = members[a][c].get(src.compose(g, h))
                if gh is None or fmap(gh) != tgt.compose(fmap(g), fh):
                    composition_ok = False
                    counterexamples.append(("composition", g, h))
    return FunctorLawReport(identity_ok, composition_ok, tuple(counterexamples[:8]),
                            len(hom), compositions)


# --------------------------------------------------------------------------
# equivalence evidence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    full: bool
    faithful: bool
    essentially_surjective: bool
    hom_set_sizes: tuple = ()
    counterexamples: tuple = ()
    findings: tuple = ()

    @property
    def ok(self):
        return self.full and self.faithful and self.essentially_surjective


def _qualify(induced, variant, cfg):
    """Admit objects per variant; divergences are findings, not errors."""
    admitted, findings = [], []
    for ind in induced:
        cls = classify_space(ind.space, default_witness(ind.space))
        if variant == "fs":
            ok = cls.fs
        elif variant == "strong":
            ok = cls.strong_fs
        elif variant == "topological":
            ok = cls.topological_fs
        elif variant == "tb":
            ok = (is_topological_cf(ind.space)
                  and bool(search_tb_selector(ind.space, config=cfg)))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        if ok:
            admitted.append(ind)
        else:
            findings.append((variant, ind))
    return tuple(admitted), tuple(findings)


def check_equivalence_evidence(functor, objects, morphism_map=None,
                               variant="fs", config=None):
    """Fullness, faithfulness and essential surjectivity over finite objects.

    Fullness runs the reverse bridges to find preimages; faithfulness
    checks injectivity on each enumerated hom-set; essential
    surjectivity finds an isomorphic image for every listed target
    object.  The report speaks only about the supplied objects.
    """
    cfg = resolve(config)
    src, tgt = _functor(functor, objects, cfg)
    fmap = morphism_map or _MORPHISM_PART[functor]
    phi = functor == "phi"
    counterexamples = []
    admitted, findings = _qualify(tgt.objects if phi else src.objects, variant, cfg)
    full = True
    faithful = True
    sizes = []
    for A, FA in zip(src.objects, tgt.objects):
        for B, FB in zip(src.objects, tgt.objects):
            sources = src.hom(A, B)
            targets = tgt.hom(FA, FB)
            sizes.append((len(sources), len(targets)))
            images = {}
            for m in sources:
                fm = fmap(m)
                if fm in images:
                    faithful = False
                    counterexamples.append(("faithful", images[fm], m))
                images[fm] = m
            for t in targets:
                m = (map_from_omega(t, cfg) if phi
                     else from_map(t, A.space, B.space, cfg))
                if fmap(m) != t:
                    full = False
                    counterexamples.append(("full", t))
    surj = True
    for ind in admitted:
        if phi:
            try:
                space_self_iso(ind.space, config=cfg)
            except Exception as exc:  # evidence report, not a crash
                surj = False
                counterexamples.append(("essential_surjectivity", ind, repr(exc)))
        elif order_isomorphism(ind.origin, cf_closed_sets(ind.space, config=cfg).poset,
                               cfg) is None:
            surj = False
            counterexamples.append(("essential_surjectivity", ind))
    return EquivalenceReport(full, faithful, surj, tuple(sizes),
                             tuple(counterexamples[:8]), findings)
