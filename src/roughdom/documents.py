"""JSON document formats and the DOT export.

One UTF-8 JSON object per file; extensions follow the conventions
``.poset.json``, ``.space.json``, ``.rel.json``, ``.witness.json`` and
``.sel.json``.  Atoms are strings, subsets are sorted lists, and the
empty list inside a family encodes the empty set as a member.
Documents round-trip: parse, serialize, parse again gives structurally
equal values.
"""

from __future__ import annotations

import json
from pathlib import Path

from .cfspace import CFSpace
from .config import resolve
from .errors import ParseFailure, IOFailure, SizeCapExceeded
from .gaspace import GASpace
from .ordering import iter_subset_masks, set_key
from .poset import FinitePoset
from .relation import ApproximableRelation
from .witness import TBSelector, WitnessFamily

EXTENSIONS = (".poset.json", ".space.json", ".rel.json", ".witness.json", ".sel.json")


def _read_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or a NUL byte in the path
        raise ParseFailure(f"cannot decode {str(path)!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseFailure(f"{path} nests too deeply") from exc


def _expect(doc, key, kind, where):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseFailure(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseFailure(f"{where}: field {key!r} has the wrong shape")
    return value


def _string_list(value, where):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseFailure(f"{where}: expected a list of strings")
    return value


def _pair_list(value, where):
    pairs = []
    if not isinstance(value, list):
        raise ParseFailure(f"{where}: expected a list of pairs")
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseFailure(f"{where}: pairs must be 2-element lists")
        if not all(isinstance(x, str) for x in item):
            raise ParseFailure(f"{where}: pair atoms must be strings")
        pairs.append((item[0], item[1]))
    return pairs


# --------------------------------------------------------------------------
# posets
# --------------------------------------------------------------------------

def poset_from_doc(doc, allow_covers=False, where="poset document"):
    elements = _string_list(_expect(doc, "elements", list, where), where)
    if "leq" in doc:
        return FinitePoset(elements, _pair_list(doc["leq"], where))
    if "covers" in doc:
        if not allow_covers:
            raise ParseFailure(
                f"{where}: 'covers' input needs the explicit covers flag")
        return FinitePoset.from_covers(elements, _pair_list(doc["covers"], where))
    raise ParseFailure(f"{where}: needs a 'leq' (or flagged 'covers') field")


def poset_to_doc(P):
    idx = {x: i for i, x in enumerate(P.elements)}
    leq = sorted(P.leq_pairs, key=lambda p: (idx[p[0]], idx[p[1]]))
    return {"elements": list(P.elements), "leq": [list(p) for p in leq]}


def load_poset(path, allow_covers=False):
    return poset_from_doc(_read_json(path), allow_covers, str(path))


# --------------------------------------------------------------------------
# spaces
# --------------------------------------------------------------------------

def space_from_doc(doc, where="space document"):
    universe = _string_list(_expect(doc, "universe", list, where), where)
    relation = _pair_list(_expect(doc, "relation", list, where), where)
    base = GASpace(universe, relation)
    if "family" not in doc:
        return base
    family = doc["family"]
    if not isinstance(family, list):
        raise ParseFailure(f"{where}: 'family' must be a list of lists")
    members = [frozenset(_string_list(F, where)) for F in family]
    return CFSpace(base, members)


def space_to_doc(space):
    if isinstance(space, CFSpace):
        base = space.base
        idx = {x: i for i, x in enumerate(base.universe)}
        fam = [sorted(F, key=idx.__getitem__) for F in space.family]
        doc = ga_space_to_doc(base)
        doc["family"] = fam
        return doc
    return ga_space_to_doc(space)


def ga_space_to_doc(base):
    idx = {x: i for i, x in enumerate(base.universe)}
    rel = sorted(base.relation, key=lambda p: (idx[p[0]], idx[p[1]]))
    return {"universe": list(base.universe), "relation": [list(p) for p in rel]}


def load_space(path):
    return space_from_doc(_read_json(path), str(path))


def _resolve_space(value, base_dir, where):
    if isinstance(value, str):
        return load_space(Path(base_dir) / value)
    space = space_from_doc(value, where)
    if not isinstance(space, CFSpace):
        raise ParseFailure(f"{where}: embedded space needs a 'family' field")
    return space


# --------------------------------------------------------------------------
# relations
# --------------------------------------------------------------------------

def relation_from_doc(doc, base_dir=".", where="relation document"):
    source = _resolve_space(_expect(doc, "source", (dict, str), where), base_dir, where)
    target = _resolve_space(_expect(doc, "target", (dict, str), where), base_dir, where)
    raw = _expect(doc, "pairs", list, where)
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseFailure(f"{where}: relation pairs must be [F, G] lists")
        F = frozenset(_string_list(item[0], where))
        G = frozenset(_string_list(item[1], where))
        pairs.append((F, G))
    return ApproximableRelation(source, target, pairs)


def relation_to_doc(rel):
    sidx = {x: i for i, x in enumerate(rel.source.universe)}
    tidx = {x: i for i, x in enumerate(rel.target.universe)}
    pairs = sorted(rel.pairs, key=lambda p: (set_key(p[0], sidx), set_key(p[1], tidx)))
    return {
        "source": space_to_doc(rel.source),
        "target": space_to_doc(rel.target),
        "pairs": [[sorted(F, key=sidx.__getitem__), sorted(G, key=tidx.__getitem__)]
                  for F, G in pairs],
    }


def load_relation(path):
    return relation_from_doc(_read_json(path), Path(path).parent, str(path))


# --------------------------------------------------------------------------
# witness families
# --------------------------------------------------------------------------

def witness_from_doc(doc, base_dir=".", where="witness document", space=None):
    """The witness on ``space``, by default the first relation's source."""
    raw_rels = _expect(doc, "relations", list, where)
    if not raw_rels:
        raise ParseFailure(f"{where}: needs at least one relation")
    rels = [relation_from_doc(r, base_dir, where) for r in raw_rels]
    space = rels[0].source if space is None else space
    raw_seps = _expect(doc, "separators", list, where)
    separators = []
    for ms in raw_seps:
        if not isinstance(ms, list):
            raise ParseFailure(f"{where}: separators must be lists of subsets")
        separators.append(tuple(frozenset(_string_list(M, where)) for M in ms))
    return WitnessFamily(space, rels, separators)


def witness_to_doc(w):
    idx = {x: i for i, x in enumerate(w.space.universe)}
    return {
        "relations": [relation_to_doc(rel) for rel in w.relations],
        "separators": [[sorted(M, key=idx.__getitem__) for M in ms]
                       for ms in w.separators],
    }


def load_witness(path, space=None):
    return witness_from_doc(_read_json(path), Path(path).parent, str(path), space)


# --------------------------------------------------------------------------
# selectors
# --------------------------------------------------------------------------

def selector_from_doc(doc, base_dir=".", where="selector document", config=None):
    """Selector documents must cover the whole index family (the K that
    contain some family member); other K default to the first entry's
    families, which cannot affect the admissibility outcome.  The table
    is materialized over all 2**|U| index sets, so a universe over
    ``cap_universe`` is refused before any of them is built."""
    space = _resolve_space(_expect(doc, "space", (dict, str), where), base_dir, where)
    cfg = resolve(config)
    n = len(space.universe)
    if n > cfg.cap_universe:
        raise SizeCapExceeded(
            f"{where}: selector materialization needs |U| <= {cfg.cap_universe}")
    entries = _expect(doc, "entries", list, where)
    table = {}
    for item in entries:
        K = frozenset(_string_list(_expect(item, "K", list, where), where))
        ms = _expect(item, "M", list, where)
        table[K] = tuple(frozenset(_string_list(M, where)) for M in ms)
    if not table:
        raise ParseFailure(f"{where}: needs at least one entry")
    idx = {x: i for i, x in enumerate(space.universe)}
    default = table[min(table, key=lambda K: set_key(K, idx))]
    fm = space._fmasks
    full = {}
    for m in iter_subset_masks(n):
        K = space.base.subset(m)
        if K in table:
            full[K] = table[K]
        elif any(f & ~m == 0 for f in fm):
            raise ParseFailure(f"{where}: missing entry for index set {sorted(K)!r}")
        else:
            full[K] = default
    return TBSelector(space, full)


def selector_to_doc(sel):
    idx = {x: i for i, x in enumerate(sel.space.universe)}
    entries = []
    for K in sorted(sel.table, key=lambda K: set_key(K, idx)):
        entries.append({
            "K": sorted(K, key=idx.__getitem__),
            "M": [sorted(M, key=idx.__getitem__) for M in sel.table[K]],
        })
    return {"space": space_to_doc(sel.space), "entries": entries}


def load_selector(path, config=None):
    return selector_from_doc(_read_json(path), Path(path).parent, str(path), config)


# --------------------------------------------------------------------------
# top-level dispatch and writing
# --------------------------------------------------------------------------

def document_kind(path):
    name = str(path)
    for ext in EXTENSIONS:
        if name.endswith(ext):
            return ext.split(".")[1]
    raise ParseFailure(f"{path}: unknown document extension")


def write_text(path, text):
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def write_document(path, doc):
    write_text(path, json.dumps(doc, indent=2, sort_keys=False) + "\n")


# --------------------------------------------------------------------------
# DOT export
# --------------------------------------------------------------------------

def closed_sets_dot(cs):
    """Hasse diagram of the closed-set poset: nodes are closed sets,
    edges only the covering pairs of inclusion."""
    idx = {x: i for i, x in enumerate(cs.space.universe)}

    def label(E):
        inner = ",".join(sorted(E, key=idx.__getitem__))
        return "{" + inner + "}"

    names = {E: f"e{i}" for i, E in enumerate(cs.closed_sets)}
    lines = ["digraph closed_sets {", "  rankdir=BT;"]
    for E in cs.closed_sets:
        lines.append(f'  {names[E]} [label="{label(E)}"];')
    for a, b in cs.poset.covers():
        lines.append(f"  {names[a]} -> {names[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
