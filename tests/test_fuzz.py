"""Fuzzing the document boundary: any JSON value gives exit 0, 1 or 2."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughdom.cli import main
from roughdom.documents import EXTENSIONS

ATOMS = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True)

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def _subsets(atoms, min_size=0, max_size=4):
    return st.lists(st.lists(st.sampled_from(atoms), max_size=3, unique=True),
                    min_size=min_size, max_size=max_size)


@st.composite
def _order(draw, atoms):
    """Leq pairs: reflexive, then some upward pairs closed transitively."""
    n = len(atoms)
    leq = {(i, i) for i in range(n)}
    leq |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda p: p[0] < p[1]), max_size=6))
    for k in range(n):
        leq |= {(i, j) for i, m in leq for l, j in leq if m == k == l}
    return [[atoms[i], atoms[j]] for i, j in sorted(leq)]


def _space(atoms):
    return st.fixed_dictionaries({"universe": st.just(atoms),
                                  "relation": _order(atoms),
                                  "family": _subsets(atoms)})


SPACE = ATOMS.flatmap(_space)
RELATION = ATOMS.flatmap(lambda atoms: st.fixed_dictionaries({
    # a string endpoint names a space file next to the document
    "source": _space(atoms) | st.text(max_size=2),
    "target": _space(atoms) | st.text(max_size=2),
    "pairs": st.lists(_subsets(atoms, 2, 2), max_size=4)}))
VALID_SHAPED = (
    ATOMS.flatmap(lambda atoms: st.fixed_dictionaries(
        {"elements": st.just(atoms), "leq": _order(atoms)}))
    | SPACE
    | RELATION
    | st.fixed_dictionaries({"relations": st.lists(RELATION, min_size=1, max_size=2),
                             "separators": st.lists(_subsets("abcde", max_size=2),
                                                    max_size=2)})
    | ATOMS.flatmap(lambda atoms: st.fixed_dictionaries({
        "space": _space(atoms),
        "entries": st.lists(st.fixed_dictionaries(
            {"K": st.lists(st.sampled_from(atoms), unique=True),
             "M": _subsets(atoms, max_size=2)}), max_size=3)})))


def _damage(doc, k, value):
    """Replace (odd k) or drop (even k) one top-level field."""
    doc = dict(doc)
    key = sorted(doc)[k % len(doc)]
    if k % 2:
        doc[key] = value
    else:
        del doc[key]
    return doc


DOCUMENTS = (ANY_JSON | VALID_SHAPED
             | st.builds(_damage, VALID_SHAPED, st.integers(0, 7), ANY_JSON))


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
def test_any_json_document_keeps_the_exit_code_contract(doc):
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        for ext in EXTENSIONS:
            path = Path(tmp) / f"fuzz{ext}"
            path.write_text(text, encoding="utf-8")
            assert main(["validate", str(path)]) in (0, 1, 2)
            assert main(["check", "rep1", str(path)]) in (0, 1, 2)
